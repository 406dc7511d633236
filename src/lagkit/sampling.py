"""Deterministic point sampling for the verifier.

The coordinates are successive draws of the standard splitmix64 stream, made
all at once on uint64 arrays (whose arithmetic wraps modulo 2**64 as the
scalar generator's does), so the sample set is bit-identical for a given seed
on every platform; reports built from the same seed therefore serialize to
identical bytes, which the CLI contract relies on.  The sampled box of a
parameter tuple is built once (_box).
"""

from __future__ import annotations

import functools

import numpy as np

from .dsl import ImmersionSpec
from .errors import DomainError, LagkitError

__all__ = ["sample_points"]

INTERIOR_MARGIN = 1e-3
_STEP, _MIX1, _MIX2 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """The first count outputs of the splitmix64 stream from seed, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64) * _STEP
    z += np.uint64(seed % 2**64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def sample_points(
    spec: ImmersionSpec,
    num_points: int,
    seed: int,
    *,
    extra_margin: float = 0.0,
) -> np.ndarray:
    """Deterministic interior samples of the domain box, as a C-ordered
    float64 array (num_points, m) whose row k is point k.

    Each interval is shrunk by INTERIOR_MARGIN (relative to its length) plus
    extra_margin (absolute, e.g. finite-difference stencil reach) before
    sampling uniformly; point k takes draws k*m .. k*m + m - 1 of the stream.
    Raises LagkitError for a negative count, or more coordinates than an
    array, or the memory, can hold.
    """
    if num_points < 0:
        raise LagkitError(f"cannot sample {num_points} points: the count is negative")
    lo, width = _box(spec.params, extra_margin)
    try:
        draws = _splitmix64(seed, num_points * len(lo)) >> np.uint64(11)
        points = (draws * 2.0**-53).reshape(num_points, len(lo))  # on [0, 1)
        points *= width  # in place: no second array of the coordinates' size
        points += lo
        return points
    except (ValueError, MemoryError) as exc:  # numpy refuses the size, or cannot allocate it
        raise LagkitError(f"cannot sample {num_points} points: {exc}") from exc


@functools.lru_cache(maxsize=64)
def _box(params, extra_margin: float) -> np.ndarray:
    """The sampled box of params as rows (lo, hi - lo) of shape (2, m), read-only."""
    boxes = []
    for p in params:
        pad = INTERIOR_MARGIN * (p.hi - p.lo) + extra_margin
        lo, hi = p.lo + pad, p.hi - pad
        if not lo < hi:
            raise DomainError(f"margins {pad} leave no interior for {p.name}:[{p.lo}, {p.hi}]")
        boxes.append((lo, hi - lo))
    box = np.array(boxes).T
    box.flags.writeable = False  # one array for every caller
    return box
