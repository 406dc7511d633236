"""Truncated multivariate Taylor arithmetic up to third order, over a point axis.

A Jet holds the values of a complex scalar quantity at B points together with
its partial derivatives with respect to m real variables, up to a fixed order
in {0, 1, 2, 3}: complex128 blocks of shape (B,), (B, m), (B, m, m) and
(B, m, m, m), the derivative blocks symmetric.  This is vector-mode Taylor
propagation: one arithmetic operation advances every point at once.  A jet
built from scalars has no point axis (blocks (), (m,), ...); every operation
acts on the trailing derivative axes, so both shapes run the same code.

Arithmetic propagates the blocks exactly (Leibniz rule, Faa di Bruno), so any
quantity assembled from jets carries exact derivatives up to rounding; a
complex product is one jet product, not four real ones.  Python numbers mix
in as constants without being expanded into jets.  The guards (division,
sqrt, overflow of exp/sin/cos/sinh/cosh) act per point: one offending point
raises for the whole jet.
"""

from __future__ import annotations

import operator
import warnings

import numpy as np

from .errors import DimensionMismatchError, SingularEvaluationError

__all__ = ["Jet"]

_DIV_GUARD = 1e-300
_DIV_WARN = 1e-12
_SQRT_GUARD = 1e-12
_SQRT_IMAG = 1e-9


class Jet:
    """Complex values plus derivative blocks of a function of m real variables."""

    __slots__ = ("num_vars", "order", "value", "gradient", "hessian", "third")

    def __init__(self, num_vars, order, value, gradient=None, hessian=None, third=None):
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be in 0..3, got {order}")
        if num_vars < 1:
            raise ValueError(f"jet needs at least one variable, got {num_vars}")
        m = num_vars
        self.num_vars = m
        self.order = order
        self.value = np.array(value, dtype=complex)
        batch = self.value.shape
        self.gradient = _block(gradient, batch + (m,)) if order >= 1 else None
        self.hessian = _block(hessian, batch + (m, m)) if order >= 2 else None
        self.third = _block(third, batch + (m, m, m)) if order >= 3 else None

    @classmethod
    def constant(cls, value, num_vars, order) -> "Jet":
        return cls(num_vars, order, value)

    @classmethod
    def seed(cls, var_index, value, num_vars, order) -> "Jet":
        """Jet of the coordinate function x_{var_index} at the given value(s)."""
        if not 0 <= var_index < num_vars:
            raise DimensionMismatchError(
                f"seed index {var_index} out of range for {num_vars} variables"
            )
        out = cls(num_vars, order, value)
        if order >= 1:
            out.gradient[..., var_index] = 1.0
        return out

    @property
    def blocks(self) -> tuple:
        """(value, gradient, hessian, third) up to the jet's order."""
        return (self.value, self.gradient, self.hessian, self.third)[: self.order + 1]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _linear(self, other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return _linear(self, other, operator.sub)

    def __rsub__(self, other):
        return _linear(-self, other, operator.add)

    def __neg__(self):
        return _new(self, *(-x for x in self.blocks))

    def __mul__(self, other):
        if _is_scalar(other):
            return _new(self, *(other * x for x in self.blocks))
        if not isinstance(other, Jet):
            return NotImplemented
        _check_compat(self, other)
        a, b = self, other
        av, bv = a.value[..., None], b.value[..., None]
        out = _new(a, a.value * b.value)
        if a.order >= 1:
            out.gradient = av * b.gradient + bv * a.gradient
        if a.order >= 2:
            av2, bv2 = av[..., None], bv[..., None]
            out.hessian = av2 * b.hessian + bv2 * a.hessian + _outer(a.gradient, b.gradient)
            out.hessian += _outer(b.gradient, a.gradient)
        if a.order >= 3:
            out.third = av2[..., None] * b.third + bv2[..., None] * a.third
            out.third += _sym_hess_grad(a.hessian, b.gradient)
            out.third += _sym_hess_grad(b.hessian, a.gradient)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            return self * complex(_reciprocal(Jet(1, 0, other)).value)
        if not isinstance(other, Jet):
            return NotImplemented
        _check_compat(self, other)
        return self * _reciprocal(other)

    def __rtruediv__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        return other * _reciprocal(self)

    def __repr__(self):
        return f"Jet(m={self.num_vars}, order={self.order}, value={self.value})"


def _is_scalar(x) -> bool:
    return isinstance(x, (int, float, complex, np.number))


def _linear(a: Jet, b, op) -> Jet:
    """a + b or a - b; a scalar b only shifts the values."""
    if _is_scalar(b):
        return _new(a, op(a.value, b), *a.blocks[1:])
    if not isinstance(b, Jet):
        return NotImplemented
    _check_compat(a, b)
    return _new(a, *map(op, a.blocks, b.blocks))


def _block(data, shape):
    if data is None:
        return np.zeros(shape, dtype=complex)
    arr = np.asarray(data, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(f"expected block shape {shape}, got {arr.shape}")
    return arr.copy()


def _new(like: Jet, value, gradient=None, hessian=None, third=None) -> Jet:
    """Jet shaped like `like` holding the given blocks (no copy, no checks).

    Blocks may be shared with an operand (a scalar shift keeps the derivative
    blocks of its jet), so a block must not be written to once its jet is built.
    """
    out = object.__new__(Jet)
    out.num_vars, out.order = like.num_vars, like.order
    out.value, out.gradient, out.hessian, out.third = value, gradient, hessian, third
    return out


def _check_compat(a: Jet, b: Jet):
    if a.num_vars != b.num_vars or a.order != b.order:
        raise DimensionMismatchError(
            f"jet mismatch: (m={a.num_vars}, order={a.order}) vs "
            f"(m={b.num_vars}, order={b.order})"
        )


def _outer(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    return g[..., :, None] * h[..., None, :]


def _sym_hess_grad(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    # sum over the three placements of the gradient index: H_ij g_k sym.
    return (
        H[..., :, :, None] * g[..., None, None, :]
        + H[..., :, None, :] * g[..., None, :, None]
        + g[..., :, None, None] * H[..., None, :, :]
    )


def _compose(u: Jet, f0, f1, f2, f3) -> Jet:
    """Chain rule for f(u) given the derivatives of f at the values of u."""
    out = _new(u, f0)
    if u.order >= 1:
        f1 = f1[..., None]
        out.gradient = f1 * u.gradient
    if u.order >= 2:
        g = u.gradient
        gg = _outer(g, g)
        f1, f2 = f1[..., None], f2[..., None, None]
        out.hessian = f1 * u.hessian + f2 * gg
    if u.order >= 3:
        out.third = (
            f1[..., None] * u.third
            + f2[..., None] * _sym_hess_grad(u.hessian, g)
            + f3[..., None, None, None] * gg[..., None] * g[..., None, None, :]
        )
    return out


def _reciprocal(u: Jet) -> Jet:
    v = u.value
    modsq = v.real * v.real + v.imag * v.imag
    small = modsq < _DIV_WARN
    if small.any():
        tiny = modsq < _DIV_GUARD
        if tiny.any():
            raise SingularEvaluationError(f"division by {complex(v.flat[np.argmax(tiny)])!r}")
        warnings.warn(
            f"division by poorly conditioned value {complex(v.flat[np.argmax(small)])!r}",
            RuntimeWarning,
            stacklevel=3,
        )
    inv = 1.0 / v
    return _compose(u, inv, -inv * inv, 2.0 * inv**3, -6.0 * inv**4)


def _at_values(u: Jet, *fns) -> list[np.ndarray]:
    """fn(u.value) for each fn.  OverflowError, as cmath raises it, where any
    image is not finite at a finite value."""
    out = [fn(u.value) for fn in fns]
    images = np.isfinite(out)
    if not images.all() and (np.isfinite(u.value) & ~images).any():
        raise OverflowError("math range error")
    return out


def exp(u: Jet) -> Jet:
    (e,) = _at_values(u, np.exp)
    return _compose(u, e, e, e, e)


def sin(u: Jet) -> Jet:
    s, c = _at_values(u, np.sin, np.cos)
    return _compose(u, s, c, -s, -c)


def cos(u: Jet) -> Jet:
    s, c = _at_values(u, np.sin, np.cos)
    return _compose(u, c, -s, -c, s)


def sinh(u: Jet) -> Jet:
    s, c = _at_values(u, np.sinh, np.cosh)
    return _compose(u, s, c, s, c)


def cosh(u: Jet) -> Jet:
    s, c = _at_values(u, np.sinh, np.cosh)
    return _compose(u, c, s, c, s)


def sqrt(u: Jet) -> Jet:
    """Square root for numerically real, positive arguments.

    The DSL only needs sqrt on positive real subexpressions (constants like
    sqrt(3)); a general complex branch would not stay differentiable across
    the cut, so an argument whose value or any derivative block has an
    imaginary part above 1e-9 * max(1, |Re value|) at some point is rejected
    loudly.  The result is real: its imaginary parts are exactly zero.
    """
    x = u.value.real
    imag = np.max(
        [np.abs(b.imag).reshape(x.shape + (-1,)).max(axis=-1) for b in u.blocks], axis=0
    )
    if (imag > _SQRT_IMAG * np.maximum(1.0, np.abs(x))).any():
        raise SingularEvaluationError("sqrt of a non-real expression")
    tiny = x < _SQRT_GUARD
    if tiny.any():
        raise SingularEvaluationError(
            f"sqrt at non-positive or tiny value {float(x.flat[np.argmax(tiny)])!r}"
        )
    r = np.sqrt(x)
    real = _new(u, *(b.real + 0j for b in u.blocks))
    return _compose(real, r + 0j, 0.5 / r, -0.25 / r**3, 0.375 / r**5)


def ipow(u: Jet, k: int) -> Jet:
    """Integer power by repeated multiplication (negative via reciprocal)."""
    if k < 0:
        return _reciprocal(ipow(u, -k))
    out = None
    base = u
    while k:
        if k & 1:
            out = base if out is None else out * base
        base = base * base if k > 1 else base
        k >>= 1
    if out is None:
        return _new(u, np.ones_like(u.value), *(np.zeros_like(b) for b in u.blocks[1:]))
    return out
