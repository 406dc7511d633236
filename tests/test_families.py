"""Two families of the paper in every dimension m = 2..5, past the catalog's m <= 3.

The Whitney sphere W^m in C^m is Lagrangian but lies in no central quadric.
The circle product of the real sphere S^(m-1) in C^m is Lagrangian, lies in
the unit sphere and passes every check.  Both are written over the unit
sphere S^(m-1) in R^m in hyperspherical coordinates, as the W^5 spec of
tests/test_geometry.py is, and both lose the Lagrangian verdict when the
non-isometric map diag(2, 1, ..., 1) of C^m is put in front.
"""

import numpy as np
import pytest

from lagkit.catalog import catalog, catalog_names
from lagkit.checks import SampleConfig, run_suite
from lagkit.dsl import Bin, Num, parse, serialize
from lagkit.errors import LagkitError
from lagkit.findiff import jet_fd_comparison
from lagkit.geometry import CHUNK, build_frame
from lagkit.products import circle_product
from lagkit.sampling import sample_points

DIMENSIONS = (2, 3, 4, 5)
LATITUDES = ("c", "d", "e")  # in [-1.2, 1.2], with the azimuth b in [0, 2 pi]
_WHITNEY_FACTOR = "(1+i*sin(a))/(1+sin(a)^2)*cos(a)"


def _sphere(m):
    """(params, components) of the unit sphere S^(m-1) in R^m: sin c,
    cos c sin d, ..., then the product of the latitudes' cosines times cos b
    and times sin b."""
    latitudes = LATITUDES[: m - 2]
    params = ["b:[0,6.283185307179586]", *(f"{x}:[-1.2,1.2]" for x in latitudes)]
    components, prefix = [], ""
    for x in latitudes:
        components.append(f"{prefix}sin({x})")
        prefix += f"cos({x})*"
    return params, components + [f"{prefix}cos(b)", f"{prefix}sin(b)"]


def whitney(m):
    """W^m in C^m: (1 + i x_0) / (1 + x_0^2) (x_1, ..., x_m) on S^m, with
    x_0 = sin a and (x_1, ..., x_m) = cos a times a point of S^(m-1)."""
    params, components = _sphere(m)
    return parse(
        f"params a:[-1.2,1.2], {', '.join(params)};\nsignature {m} 0;\n"
        f"map {', '.join(f'{_WHITNEY_FACTOR}*{x}' for x in components)};\n"
    ).replace(name=f"whitney_{m}")


def real_sphere_product(m):
    """The circle product of the real S^(m-1) in C^m, Legendrian in S^(2m-1)."""
    params, components = _sphere(m)
    real = parse(f"params {', '.join(params)};\nsignature {m} 0;\nmap {', '.join(components)};\n")
    return circle_product(real).replace(name=f"real_sphere_product_{m}")


def stretched(spec):
    """diag(2, 1, ..., 1) L: not a symmetry of omega."""
    first, *rest = spec.components
    stretch = Bin("*", Num(2.0), first)
    return spec.replace(components=(stretch, *rest), name=f"{spec.name}_stretched")


FAMILIES = {"whitney": whitney, "real_sphere_product": real_sphere_product}
WHITNEY_VERDICTS = {
    "lagrangian": True, "spherical": False, "cubic_symmetry": True, "gauss": True, "codazzi": True,
}
RUNS = [(m, 200) for m in DIMENSIONS] + [(5, 2 * CHUNK + 1)]  # at m = 5 also three chunks


def test_the_generator_writes_the_specs_it_extends():
    assert whitney(2).same_structure(catalog("whitney_sphere"))
    for m in DIMENSIONS:
        for family in FAMILIES.values():
            spec = family(m)
            assert (spec.num_params, spec.signature.n) == (m, m), spec.name


@pytest.mark.parametrize("m, num_points", RUNS)
def test_whitney_spheres_are_lagrangian_but_not_spherical(m, num_points):
    report = run_suite(whitney(m), SampleConfig(num_points=num_points))
    for name, expected in WHITNEY_VERDICTS.items():
        entry = report.checks[name]
        assert entry.status == "ok" and entry.passed is expected, (name, entry)
        assert entry.points_evaluated == num_points


@pytest.mark.parametrize("m, num_points", RUNS)
def test_circle_products_of_real_spheres_pass_every_check(m, num_points):
    report = run_suite(real_sphere_product(m), SampleConfig(num_points=num_points))
    assert len(report.checks) == 12
    for name, entry in report.checks.items():
        assert entry.status == "ok" and entry.passed, (name, entry)
        assert entry.points_evaluated == num_points
    assert report.passed


def test_a_pole_at_the_last_of_three_chunks_raises_the_walks_first_error():
    # W^5 plus 1/(a - a0), a0 the a of the last of 2 CHUNK + 1 points: the
    # batch fails there, in its third chunk, while the pole's slope makes the
    # metric of an earlier point degenerate, so build_frame's retry on the
    # points before the last one raises that earlier point's error
    num_points = 2 * CHUNK + 1
    points = sample_points(whitney(5), num_points, SampleConfig.seed)
    a0 = float(points[-1, 0])
    spec = parse(serialize(whitney(5)).replace("map ", f"map 1/(a - ({a0!r})) + ", 1))
    walk = []
    for point in points:  # to the first point that fails
        try:
            build_frame(spec, point)
        except LagkitError as exc:
            walk.append(exc)
            break
    with pytest.raises(LagkitError) as pole:
        build_frame(spec, points[-1])
    assert str(walk[0]) != str(pole.value)  # the retry's, not the pole's
    with pytest.raises(LagkitError) as batch:
        build_frame(spec, points)
    assert (type(batch.value), str(batch.value)) == (type(walk[0]), str(walk[0]))
    report = run_suite(spec, SampleConfig(num_points=num_points))
    errors = {entry.reason for entry in report.checks.values() if entry.status == "error"}
    assert errors == {str(walk[0])}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("m", DIMENSIONS)
def test_a_stretch_in_front_flips_the_lagrangian_verdict(family, m):
    cfg = SampleConfig(num_points=200)
    spec = FAMILIES[family](m)
    for moved, passed in ((spec, True), (stretched(spec), False)):
        entry = run_suite(moved, cfg, checks=["lagrangian"]).checks["lagrangian"]
        assert entry.status == "ok" and entry.passed is passed, (moved.name, entry)


@pytest.mark.parametrize(
    "spec",
    [*map(catalog, catalog_names()), *(family(m) for family in FAMILIES.values() for m in DIMENSIONS)],
    ids=lambda spec: spec.name,
)
def test_curvature_residuals_stay_at_rounding(spec):
    # both identities hold exactly for the frames of any immersion, so their
    # residuals are rounding (at most 1.5e-15 measured): a slip in either
    # formula shows far above 1e-12, where the check's tol = 1e-8 could let it pass
    report = run_suite(spec, SampleConfig(num_points=200), checks=["gauss", "codazzi"])
    for name in ("gauss", "codazzi"):
        entry = report.checks[name]
        assert entry.status == "ok" and entry.max_residual <= 1e-12, (name, entry)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("m", [4, 5])
def test_jets_agree_with_finite_differences(family, m):
    # relative to the finite differences' size, or 1: at most 1.3e-6 was measured
    spec, order, step = FAMILIES[family](m), 3, 1e-2
    for point in sample_points(spec, 3, seed=5, extra_margin=2.02 * order * step):
        comparison = jet_fd_comparison(spec, point, order, step)
        assert comparison.keys() == {1, 2, 3}
        for k, (deviation, size) in comparison.items():
            assert deviation / max(1.0, size) <= 1e-5, (k, point, deviation, size)
            assert np.isfinite(size) and size > 0
