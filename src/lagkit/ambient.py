"""Flat complex ambient space carrying an indefinite Hermitian form.

The arena is C^n with the Hermitian form that negates the first s complex
coordinates.  Its real part is a pseudo-Euclidean inner product of index 2s,
and composing with the complex structure J (multiplication by i) gives the
symplectic form.  Vectors are stored as interleaved real pairs
(re_1, im_1, ..., re_n, im_n), which is the memory layout of a complex128
array: the complex derivative tensors of the map jets become real ambient
vectors with a float view, without copying component by component.

Everything here is immutable value math; functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Signature",
    "ComplexVec",
    "AmbientQuadric",
    "hermitian_form",
    "real_inner",
    "apply_J",
    "symplectic_form",
    "quadric_residual",
    "metric_diagonal",
    "apply_j_flat",
    "inner_flat",
]


@dataclass(frozen=True)
class Signature:
    """Complex dimension n; the first s complex coordinates carry a minus sign."""

    n: int
    s: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"complex dimension must be >= 1, got n={self.n}")
        if not 0 <= self.s <= self.n:
            raise ValueError(f"need 0 <= s <= n, got s={self.s}, n={self.n}")

    @property
    def real_dim(self) -> int:
        return 2 * self.n


def metric_diagonal(sig: Signature) -> np.ndarray:
    """Diagonal of the real inner product in the interleaved layout (index 2s)."""
    eta = np.ones(sig.real_dim)
    eta[: 2 * sig.s] = -1.0
    return eta


def apply_j_flat(v: np.ndarray) -> np.ndarray:
    """Multiplication by i on interleaved pairs: (re, im) -> (-im, re)."""
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def inner_flat(u: np.ndarray, v: np.ndarray, eta: np.ndarray) -> float:
    """Pseudo-Euclidean pairing of two interleaved vectors."""
    return float(np.dot(u * eta, v))


class ComplexVec:
    """Point or tangent vector of C^n in interleaved real-pair storage."""

    __slots__ = ("data", "signature")

    def __init__(self, data, signature: Signature):
        arr = np.asarray(data, dtype=float)
        if arr.shape != (signature.real_dim,):
            raise DimensionMismatchError(
                f"expected {signature.real_dim} real components for C^{signature.n}, "
                f"got shape {arr.shape}"
            )
        self.data = arr
        self.signature = signature

    @classmethod
    def from_complex(cls, components, signature: Signature) -> "ComplexVec":
        comps = list(components)
        if len(comps) != signature.n:
            raise DimensionMismatchError(
                f"expected {signature.n} complex components, got {len(comps)}"
            )
        data = np.empty(signature.real_dim)
        for j, c in enumerate(comps):
            c = complex(c)
            data[2 * j] = c.real
            data[2 * j + 1] = c.imag
        return cls(data, signature)

    @property
    def components(self) -> list[complex]:
        return [complex(self.data[2 * j], self.data[2 * j + 1]) for j in range(self.signature.n)]

    def __repr__(self):
        return f"ComplexVec({self.components}, n={self.signature.n}, s={self.signature.s})"

    def __add__(self, other: "ComplexVec") -> "ComplexVec":
        _check_same_signature(self, other)
        return ComplexVec(self.data + other.data, self.signature)

    def __sub__(self, other: "ComplexVec") -> "ComplexVec":
        _check_same_signature(self, other)
        return ComplexVec(self.data - other.data, self.signature)

    def __rmul__(self, scalar) -> "ComplexVec":
        return ComplexVec(float(scalar) * self.data, self.signature)


def _check_same_signature(z: ComplexVec, w: ComplexVec):
    if z.signature != w.signature:
        raise DimensionMismatchError(
            f"signature mismatch: {z.signature} vs {w.signature}"
        )


def hermitian_form(z: ComplexVec, w: ComplexVec) -> complex:
    """Indefinite Hermitian pairing, conjugate linear in the first slot.

    b(z, w) = -sum_{j<=s} conj(z_j) w_j + sum_{j>s} conj(z_j) w_j
    """
    _check_same_signature(z, w)
    sig = z.signature
    zc = z.data[0::2] + 1j * z.data[1::2]
    wc = w.data[0::2] + 1j * w.data[1::2]
    signs = np.ones(sig.n)
    signs[: sig.s] = -1.0
    return complex(np.sum(signs * np.conj(zc) * wc))


def real_inner(z: ComplexVec, w: ComplexVec) -> float:
    """Real part of the Hermitian form: pseudo-Euclidean metric of index 2s."""
    _check_same_signature(z, w)
    return inner_flat(z.data, w.data, metric_diagonal(z.signature))


def apply_J(z: ComplexVec) -> ComplexVec:
    """Ambient complex structure: multiply every component by i."""
    return ComplexVec(apply_j_flat(z.data), z.signature)


def symplectic_form(z: ComplexVec, w: ComplexVec) -> float:
    """Canonical symplectic form with the convention omega(X, Y) = <JX, Y>.

    Equals Im(hermitian_form(z, w)) for this pairing.
    """
    return real_inner(apply_J(z), w)


@dataclass(frozen=True)
class AmbientQuadric:
    """Central quadric <z, z> = 1/c: a pseudo hypersphere (c > 0) or pseudo
    hyperbolic space (c < 0)."""

    kind: str
    c: float

    def __post_init__(self):
        if self.kind not in ("pseudo_sphere", "pseudo_hyperbolic"):
            raise ValueError(f"unknown quadric kind {self.kind!r}")
        if self.c == 0:
            raise ValueError("quadric curvature c must be nonzero")
        if self.kind == "pseudo_sphere" and self.c < 0:
            raise ValueError("pseudo_sphere needs c > 0")
        if self.kind == "pseudo_hyperbolic" and self.c > 0:
            raise ValueError("pseudo_hyperbolic needs c < 0")

    @property
    def radius_sq_signed(self) -> float:
        return 1.0 / self.c


def quadric_residual(z: ComplexVec, quadric: AmbientQuadric) -> float:
    """Signed membership defect <z, z> - 1/c."""
    return real_inner(z, z) - quadric.radius_sq_signed
