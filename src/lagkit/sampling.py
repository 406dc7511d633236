"""Deterministic point sampling for the verifier.

A splitmix-style 64-bit generator keeps the sample set bit-identical for a
given seed on every platform; reports built from the same seed therefore
serialize to identical bytes, which the CLI contract relies on.
"""

from __future__ import annotations

from .dsl import ImmersionSpec
from .errors import DomainError

__all__ = ["SplitMix64", "sample_points"]

_MASK = (1 << 64) - 1

INTERIOR_MARGIN = 1e-3


class SplitMix64:
    """Standard splitmix64 stream; next_float() is uniform on [0, 1)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


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
    sampling uniformly.
    """
    boxes = []
    for p in spec.params:
        pad = INTERIOR_MARGIN * (p.hi - p.lo) + extra_margin
        lo, hi = p.lo + pad, p.hi - pad
        if not lo < hi:
            raise DomainError(
                f"margins {pad} leave no interior for {p.name}:[{p.lo}, {p.hi}]"
            )
        boxes.append((lo, hi))
    rng = SplitMix64(seed)
    points = []
    for _ in range(num_points):
        points.append(
            tuple(lo + rng.next_float() * (hi - lo) for lo, hi in boxes)
        )
    return points
