"""Flat complex ambient space carrying an indefinite Hermitian form.

The arena is C^n with the Hermitian form that negates the first s complex
coordinates.  Its real part is a pseudo-Euclidean inner product of index 2s,
and composing with the complex structure J (multiplication by i) gives the
symplectic form omega(X, Y) = <JX, Y>, the imaginary part of the Hermitian
form.  Vectors are stored as interleaved real pairs
(re_1, im_1, ..., re_n, im_n), which is the memory layout of a complex128
array: the complex derivative tensors of the map jets become real ambient
vectors with a float view, without copying component by component.

Everything here is immutable value math; functions are pure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatchError
from .record import Record

__all__ = [
    "Signature",
    "AmbientQuadric",
    "metric_diagonal",
    "apply_j_flat",
    "inner_flat",
]


class Signature(Record):
    """Complex dimension n; the first s complex coordinates carry a minus sign."""

    _fields = ("n", "s")
    s = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"complex dimension must be >= 1, got n={self.n}")
        if not 0 <= self.s <= self.n:
            raise ValueError(f"need 0 <= s <= n, got s={self.s}, n={self.n}")

    @property
    def real_dim(self) -> int:
        return 2 * self.n


@functools.lru_cache(maxsize=64)
def metric_diagonal(sig: Signature) -> np.ndarray:
    """Diagonal of the real inner product in the interleaved layout (index 2s),
    built once per signature and read-only."""
    eta = np.ones(sig.real_dim)
    eta[: 2 * sig.s] = -1.0
    eta.flags.writeable = False  # one array for every caller
    return eta


def apply_j_flat(v: np.ndarray) -> np.ndarray:
    """Multiplication by i on interleaved pairs: (re, im) -> (-im, re)."""
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def inner_flat(u: np.ndarray, v: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Pseudo-Euclidean pairing of interleaved vectors along their last axis."""
    if u.shape[-1] != len(eta) or v.shape[-1] != len(eta):
        raise DimensionMismatchError(
            f"vectors of sizes {u.shape[-1]}, {v.shape[-1]} paired in dimension {len(eta)}"
        )
    return ((u * eta)[..., None, :] @ v[..., :, None])[..., 0, 0]


class AmbientQuadric(Record):
    """Central quadric <z, z> = 1/c: a pseudo hypersphere (c > 0) or pseudo
    hyperbolic space (c < 0)."""

    _fields = ("c",)

    def __post_init__(self):
        if not math.isfinite(self.c) or self.c == 0:
            raise ValueError(f"quadric curvature c must be finite and nonzero, got {self.c!r}")

    @property
    def radius_sq_signed(self) -> float:
        return 1.0 / self.c
