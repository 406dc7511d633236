"""Deterministic sampling: reference stream values and domain margins."""

import tracemalloc

import numpy as np
import pytest

from lagkit.catalog import catalog, catalog_names
from lagkit.dsl import parse
from lagkit.checks import SampleConfig, run_suite
from lagkit.errors import DomainError, LagkitError
from lagkit.sampling import INTERIOR_MARGIN, _splitmix64, sample_points

# published splitmix64 outputs for seed 0
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

_MASK = (1 << 64) - 1


def scalar_splitmix64(seed):
    """The splitmix64 stream one draw at a time, on Python ints."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def scalar_sample_points(spec, num_points, seed, extra_margin=0.0):
    """sample_points as a loop over points and coordinates, one draw each."""
    boxes = []
    for p in spec.params:
        pad = INTERIOR_MARGIN * (p.hi - p.lo) + extra_margin
        boxes.append((p.lo + pad, p.hi - pad))
    draws = scalar_splitmix64(seed)
    return [
        tuple(lo + (next(draws) >> 11) * 2.0**-53 * (hi - lo) for lo, hi in boxes)
        for _ in range(num_points)
    ]


def test_reference_stream():
    assert tuple(int(x) for x in _splitmix64(0, 3)) == SEED0_STREAM


def test_float_range():
    x = (_splitmix64(123, 1000) >> np.uint64(11)) * 2.0**-53
    assert ((0.0 <= x) & (x < 1.0)).all()


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("seed", [0, 42, -1, 2**64 - 1, 2**70 + 5])
def test_matches_scalar_generator(name, seed):
    # bit for bit: reports serialize to the same bytes as with a scalar stream
    spec = catalog(name)
    for num_points in (1, 5, 200):
        for margin in (0.0, 0.0202):
            got = sample_points(spec, num_points, seed, extra_margin=margin)
            assert np.array_equal(got, scalar_sample_points(spec, num_points, seed, margin))
            assert got.dtype == np.float64 and got.flags.c_contiguous


def test_bit_identical_for_seed():
    spec = catalog("whitney_sphere")
    a = sample_points(spec, 20, seed=42)
    b = sample_points(spec, 20, seed=42)
    assert np.array_equal(a, b)
    c = sample_points(spec, 20, seed=43)
    assert not np.array_equal(a, c)


def test_points_are_interior():
    spec = catalog("whitney_sphere")
    for pt in sample_points(spec, 50, seed=1):
        for (x, p) in zip(pt, spec.params):
            assert p.lo < x < p.hi


def test_extra_margin_respected():
    spec = catalog("whitney_sphere")
    margin = 0.06
    for pt in sample_points(spec, 50, seed=1, extra_margin=margin):
        for (x, p) in zip(pt, spec.params):
            assert p.lo + margin <= x <= p.hi - margin
    # keyword-only: the fourth positional slot once held the relative margin
    with pytest.raises(TypeError):
        sample_points(spec, 50, 1, margin)


def test_margin_can_exhaust_domain():
    spec = parse("params u:[0,0.01];\nsignature 1 0;\nmap u;\n")
    with pytest.raises(DomainError):
        sample_points(spec, 1, seed=0, extra_margin=0.005)


def test_point_count_and_arity():
    spec = catalog("product_S1xS2")
    pts = sample_points(spec, 7, seed=5)
    assert len(pts) == 7
    assert all(len(p) == 3 for p in pts)


def test_large_sample_holds_few_copies_of_the_coordinates():
    # the array is built in place: no list of tuples, no chain of temporaries
    spec = catalog("product_S1xS2")
    tracemalloc.start()
    try:
        pts = sample_points(spec, 10**6, 42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    coordinate_bytes = 10**6 * 3 * 8  # float64
    assert peak <= 5 * coordinate_bytes
    assert pts.shape == (10**6, 3) and pts.nbytes == coordinate_bytes


@pytest.mark.parametrize("count", [-1, -5])
def test_negative_count_raises(count):
    # as an oversized count does; zero is the (0, m) array the docstring promises
    spec = catalog("clifford_torus")
    with pytest.raises(LagkitError, match=f"^cannot sample {count} points: the count is negative$"):
        sample_points(spec, count, seed=0)
    assert sample_points(spec, 0, seed=0).shape == (0, 2)


# counts numpy refuses before allocating anything; a smaller count would
# really try to allocate, so none is tested
@pytest.mark.parametrize("count", [10**20, 10**22, 2**63])
def test_count_no_array_can_hold(count):
    spec = catalog("clifford_torus")
    with pytest.raises(LagkitError, match=f"^cannot sample {count} points: "):
        sample_points(spec, count, seed=0)
    with pytest.raises(LagkitError, match=f"^cannot sample {count} points: "):
        run_suite(spec, SampleConfig(num_points=count))
