"""Truncated multivariate Taylor arithmetic up to third order.

A Jet holds the value of a complex scalar quantity together with its partial
derivatives with respect to m real variables, up to a fixed order in
{0, 1, 2, 3}.  Blocks store plain complex128 partial derivatives: gradient
(m,), symmetric Hessian (m, m), symmetric third-order tensor (m, m, m).
Arithmetic propagates the blocks exactly (Leibniz rule, Faa di Bruno), so any
quantity assembled from jets carries exact derivatives up to rounding; a
complex product is one jet product, not four real ones.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import DimensionMismatchError, SingularEvaluationError

__all__ = ["Jet"]

_DIV_GUARD = 1e-300
_DIV_WARN = 1e-12
_SQRT_GUARD = 1e-12
_SQRT_IMAG = 1e-9


class Jet:
    """Complex value plus derivative blocks of a function of m real variables."""

    __slots__ = ("num_vars", "order", "value", "gradient", "hessian", "third")

    def __init__(self, num_vars, order, value, gradient=None, hessian=None, third=None):
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be in 0..3, got {order}")
        if num_vars < 1:
            raise ValueError(f"jet needs at least one variable, got {num_vars}")
        m = num_vars
        self.num_vars = m
        self.order = order
        self.value = complex(value)
        self.gradient = _block(gradient, (m,)) if order >= 1 else None
        self.hessian = _block(hessian, (m, m)) if order >= 2 else None
        self.third = _block(third, (m, m, m)) if order >= 3 else None

    @classmethod
    def constant(cls, value, num_vars, order) -> "Jet":
        return cls(num_vars, order, value)

    @classmethod
    def seed(cls, var_index, value, num_vars, order) -> "Jet":
        """Jet of the coordinate function x_{var_index} at the given value."""
        if not 0 <= var_index < num_vars:
            raise DimensionMismatchError(
                f"seed index {var_index} out of range for {num_vars} variables"
            )
        out = cls(num_vars, order, value)
        if order >= 1:
            out.gradient[var_index] = 1.0
        return out

    @property
    def blocks(self) -> tuple:
        """(value, gradient, hessian, third) up to the jet's order."""
        return (self.value, self.gradient, self.hessian, self.third)[: self.order + 1]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        _check_compat(self, other)
        return _combine(self, other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        _check_compat(self, other)
        return _combine(self, other, lambda a, b: a - b)

    def __rsub__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return _map_blocks(self, lambda a: -a)

    def __mul__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        _check_compat(self, other)
        a, b = self, other
        out = _new(a, a.value * b.value)
        if a.order >= 1:
            out.gradient = a.value * b.gradient + b.value * a.gradient
        if a.order >= 2:
            out.hessian = (
                a.value * b.hessian
                + b.value * a.hessian
                + np.outer(a.gradient, b.gradient)
                + np.outer(b.gradient, a.gradient)
            )
        if a.order >= 3:
            out.third = a.value * b.third + b.value * a.third
            out.third += _sym_hess_grad(a.hessian, b.gradient)
            out.third += _sym_hess_grad(b.hessian, a.gradient)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        _check_compat(self, other)
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        other = _coerce(other, self)
        if other is NotImplemented:
            return NotImplemented
        return other * _reciprocal(self)

    def __repr__(self):
        return f"Jet(m={self.num_vars}, order={self.order}, value={self.value})"


def _block(data, shape):
    if data is None:
        return np.zeros(shape, dtype=complex)
    arr = np.asarray(data, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(f"expected block shape {shape}, got {arr.shape}")
    return arr.copy()


def _new(like: Jet, value, gradient=None, hessian=None, third=None) -> Jet:
    """Jet shaped like `like` holding freshly computed blocks (no copy, no checks)."""
    out = object.__new__(Jet)
    out.num_vars, out.order = like.num_vars, like.order
    out.value, out.gradient, out.hessian, out.third = value, gradient, hessian, third
    return out


def _coerce(other, like: Jet):
    if isinstance(other, Jet):
        return other
    if isinstance(other, (int, float, complex)):
        return Jet.constant(other, like.num_vars, like.order)
    return NotImplemented


def _check_compat(a: Jet, b: Jet):
    if a.num_vars != b.num_vars or a.order != b.order:
        raise DimensionMismatchError(
            f"jet mismatch: (m={a.num_vars}, order={a.order}) vs "
            f"(m={b.num_vars}, order={b.order})"
        )


def _combine(a: Jet, b: Jet, op) -> Jet:
    return _new(a, *(op(x, y) for x, y in zip(a.blocks, b.blocks)))


def _map_blocks(a: Jet, fn) -> Jet:
    return _new(a, *(fn(x) for x in a.blocks))


def _sym_hess_grad(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    # sum over the three placements of the gradient index: H_ij g_k sym.
    base = H[:, :, None] * g[None, None, :]
    return base + base.transpose(0, 2, 1) + base.transpose(2, 0, 1)


def _compose(u: Jet, f0, f1, f2=0.0, f3=0.0) -> Jet:
    """Chain rule for f(u) given derivatives of f at u.value."""
    out = _new(u, f0)
    if u.order >= 1:
        out.gradient = f1 * u.gradient
    if u.order >= 2:
        out.hessian = f1 * u.hessian + f2 * np.outer(u.gradient, u.gradient)
    if u.order >= 3:
        g = u.gradient
        out.third = (
            f1 * u.third
            + f2 * _sym_hess_grad(u.hessian, g)
            + f3 * g[:, None, None] * g[None, :, None] * g[None, None, :]
        )
    return out


def _reciprocal(u: Jet) -> Jet:
    v = u.value
    modsq = v.real * v.real + v.imag * v.imag
    if modsq < _DIV_GUARD:
        raise SingularEvaluationError(f"division by {v!r}")
    if modsq < _DIV_WARN:
        warnings.warn(
            f"division by poorly conditioned value {v!r}", RuntimeWarning, stacklevel=3
        )
    inv = 1.0 / v
    return _compose(u, inv, -inv * inv, 2.0 * inv**3, -6.0 * inv**4)


def exp(u: Jet) -> Jet:
    e = cmath.exp(u.value)
    return _compose(u, e, e, e, e)


def sin(u: Jet) -> Jet:
    s, c = cmath.sin(u.value), cmath.cos(u.value)
    return _compose(u, s, c, -s, -c)


def cos(u: Jet) -> Jet:
    s, c = cmath.sin(u.value), cmath.cos(u.value)
    return _compose(u, c, -s, -c, s)


def sinh(u: Jet) -> Jet:
    s, c = cmath.sinh(u.value), cmath.cosh(u.value)
    return _compose(u, s, c, s, c)


def cosh(u: Jet) -> Jet:
    s, c = cmath.sinh(u.value), cmath.cosh(u.value)
    return _compose(u, c, s, c, s)


def sqrt(u: Jet) -> Jet:
    """Square root for numerically real, positive arguments.

    The DSL only needs sqrt on positive real subexpressions (constants like
    sqrt(3)); a general complex branch would not stay differentiable across
    the cut, so an argument whose value or any derivative block has an
    imaginary part above 1e-9 * max(1, |Re value|) is rejected loudly.  The
    result is real: its imaginary parts are exactly zero.
    """
    x = u.value.real
    imag = max(float(np.max(np.abs(np.imag(b)))) for b in u.blocks)
    if imag > _SQRT_IMAG * max(1.0, abs(x)):
        raise SingularEvaluationError("sqrt of a non-real expression")
    if x < _SQRT_GUARD:
        raise SingularEvaluationError(f"sqrt at non-positive or tiny value {x!r}")
    r = math.sqrt(x)
    real = _map_blocks(u, lambda a: a.real + 0j)
    return _compose(real, complex(r), 0.5 / r, -0.25 / r**3, 0.375 / r**5)


def ipow(u: Jet, k: int) -> Jet:
    """Integer power by repeated multiplication (negative via reciprocal)."""
    if k < 0:
        return _reciprocal(ipow(u, -k))
    out = Jet.constant(1.0, u.num_vars, u.order)
    base = u
    while k:
        if k & 1:
            out = out * base
        base = base * base if k > 1 else base
        k >>= 1
    return out
