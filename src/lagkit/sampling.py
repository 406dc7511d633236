"""Deterministic point sampling for the verifier.

The coordinates are successive draws of the standard splitmix64 stream, made
all at once on uint64 arrays (whose arithmetic wraps modulo 2**64 as the
scalar generator's does), so the sample set is bit-identical for a given seed
on every platform; reports built from the same seed therefore serialize to
identical bytes, which the CLI contract relies on.
"""

from __future__ import annotations

import numpy as np

from .dsl import ImmersionSpec
from .errors import DomainError, LagkitError

__all__ = ["sample_points"]

INTERIOR_MARGIN = 1e-3


def _splitmix64(seed: int, count: int) -> np.ndarray:
    """The first count outputs of the splitmix64 stream from seed, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed % 2**64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def sample_points(
    spec: ImmersionSpec,
    num_points: int,
    seed: int,
    *,
    extra_margin: float = 0.0,
) -> list[tuple[float, ...]]:
    """Deterministic interior samples of the domain box.

    Each interval is shrunk by INTERIOR_MARGIN (relative to its length) plus
    extra_margin (absolute, e.g. finite-difference stencil reach) before
    sampling uniformly; point k takes draws k*m .. k*m + m - 1 of the stream.
    Raises LagkitError for more coordinates than an array can hold.
    """
    boxes = []
    for p in spec.params:
        pad = INTERIOR_MARGIN * (p.hi - p.lo) + extra_margin
        lo, hi = p.lo + pad, p.hi - pad
        if not lo < hi:
            raise DomainError(f"margins {pad} leave no interior for {p.name}:[{p.lo}, {p.hi}]")
        boxes.append((lo, hi))
    lo, hi = np.array(boxes).T
    try:
        draws = _splitmix64(seed, num_points * len(lo))
    except ValueError as exc:  # numpy refuses the size before allocating
        raise LagkitError(f"cannot sample {num_points} points: {exc}") from exc
    u = (draws >> np.uint64(11)) * 2.0**-53  # on [0, 1)
    return list(map(tuple, (lo + u.reshape(num_points, len(lo)) * (hi - lo)).tolist()))
