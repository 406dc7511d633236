"""Truncated Taylor arithmetic up to third order, over a point axis.

A Jet holds a complex quantity f of m real variables at B points as
univariate Taylor series (Griewank, Utke & Walther, Math. Comp. 69, 2000;
Griewank & Walther, Evaluating Derivatives, ch. 13): the coefficients f_k of
t -> f(x + t s), k <= order <= 3, along the D = C(m+2, 3) directions s in N^m
with |s| = 3, one direction set for every order.  The value f_0 is an array
(B,), degree k one (D, B), so the value broadcasts over the directions along
the contiguous point axis; a jet built from scalars has no point axis.

A product is the truncated Cauchy product; exp, sin, cos, sinh, cosh, 1/x and
sqrt are the univariate chain rule on their derivatives f0..f3 at the values.
A Python number mixes in as a constant, applied when the jet meets it: a
shift moves the value, a factor or a negation scales every coefficient.

The derivative tensors come back by interpolation: T_k = f_k @ W_k for fixed
(D, m^k) weights, exact rationals rounded once.  `interpolate` applies W_k
once per degree to the coefficients of all its jets stacked, as one real
matrix product on the complex-as-float view.

The guards act per point, one offending point raising for the whole jet: the
division guard and the overflow guard of exp/sin/cos/sinh/cosh (OverflowError,
as cmath raises it) on the values, the sqrt guard on the imaginary parts of
all coefficients; dsl.evaluate_map_jets rejects non-finite tensors.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings

import numpy as np

from .errors import DimensionMismatchError, SingularEvaluationError

__all__ = ["Jet", "interpolate"]

_DIV_GUARD = 1e-300
_DIV_WARN = 1e-12
_SQRT_GUARD = 1e-12
_SQRT_IMAG = 1e-9
_DEGREE = 3  # every direction s has |s| = 3


class Jet:
    """Complex values plus Taylor coefficients of a function of m real variables."""

    __slots__ = ("num_vars", "order", "_coeffs")

    def __init__(self, num_vars, order, value):
        """The constant jet: the given value(s), every derivative zero."""
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be in 0..3, got {order}")
        if num_vars < 1:
            raise ValueError(f"jet needs at least one variable, got {num_vars}")
        self.num_vars, self.order = num_vars, order
        value = np.array(value, dtype=complex)
        shape = (len(_directions(num_vars)),) + value.shape
        self._coeffs = (value, *(np.zeros(shape, dtype=complex) for _ in range(order)))

    @classmethod
    def seed(cls, var_index, value, num_vars, order) -> "Jet":
        """Jet of the coordinate function x_{var_index} at the given value(s)."""
        if not 0 <= var_index < num_vars:
            raise DimensionMismatchError(
                f"seed index {var_index} out of range for {num_vars} variables"
            )
        out = cls(num_vars, order, value)
        if order >= 1:
            out.coeffs[1].T[...] = _directions(num_vars)[:, var_index]
        return out

    coeffs = property(lambda self: self._coeffs, doc="(value, degree 1, ..., degree order) arrays")
    value = property(lambda self: self._coeffs[0])

    @property
    def blocks(self) -> tuple:
        """(value, gradient, hessian, third) up to the jet's order."""
        return tuple(block[..., 0] for block in interpolate([self]))

    gradient = property(lambda self: self.blocks[1] if self.order >= 1 else None)
    hessian = property(lambda self: self.blocks[2] if self.order >= 2 else None)
    third = property(lambda self: self.blocks[3] if self.order >= 3 else None)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _linear(self, other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return _linear(self, other, operator.sub)

    def __rsub__(self, other):
        return _linear(-self, other, operator.add)

    def __neg__(self):
        return _new(self, *(-x for x in self._coeffs))

    def __mul__(self, other):
        if _is_scalar(other):
            return _new(self, *(other * x for x in self._coeffs))
        if not isinstance(other, Jet):
            return NotImplemented
        _check_compat(self, other)
        a, b = self.coeffs, other.coeffs
        out = [a[0] * b[0]]
        for k in range(1, self.order + 1):
            c = a[0] * b[k] + a[k] * b[0]
            for j in range(1, k):
                c += a[j] * b[k - j]
            out.append(c)
        return _new(self, *out)

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
        return _new(a, op(a._coeffs[0], b), *a._coeffs[1:])
    if not isinstance(b, Jet):
        return NotImplemented
    _check_compat(a, b)
    return _new(a, *map(op, a.coeffs, b.coeffs))


def _new(like: Jet, *coeffs) -> Jet:
    """Jet shaped like `like` holding the given coefficients: no copy, no checks.

    Arrays may be shared with an operand (a scalar shift keeps the higher
    coefficients of its jet), so an array must not be written to once its jet
    is built.
    """
    out = object.__new__(Jet)
    out.num_vars, out.order, out._coeffs = like.num_vars, like.order, coeffs
    return out


def _check_compat(a: Jet, b: Jet):
    if a.num_vars != b.num_vars or a.order != b.order:
        raise DimensionMismatchError(
            f"jet mismatch: (m={a.num_vars}, order={a.order}) vs "
            f"(m={b.num_vars}, order={b.order})"
        )


# -- directions and interpolation ----------------------------------------------


@functools.cache
def _directions(m: int) -> np.ndarray:
    """The D = C(m+2, 3) directions s in N^m with |s| = 3, as rows (D, m)."""
    picks = itertools.combinations_with_replacement(range(m), _DEGREE)
    return np.array([[pick.count(t) for t in range(m)] for pick in picks])


@functools.cache
def _weights(m: int, k: int) -> np.ndarray:
    """(D, m^k) matrix W with T = f_k @ W for the flattened k-th derivative
    tensor T of a function with degree-k coefficients f_k along the directions:
    T_i = sum_s gamma(i, s) f_k(s) for the multi-index i, |i| = k, where
    gamma(i, s) = sum_{0 < j <= i} (-1)^(k - |j|) binom(i, j) binom(3 j / |j|, s)
    (|j| / 3)^k, binomials taken coordinatewise (Griewank, Utke & Walther).
    With binom(3 j / |j|, s) = prod_t prod_{q < s_t} (3 j_t - q |j|) / (|j|^3 s!)
    and |j|^(k - 3) cleared by `scale`, gamma is an integer over an integer.
    """
    scale = math.lcm(*range(1, k + 1)) ** (_DEGREE - k)

    def gamma(i, s) -> float:
        if any(st and not it for it, st in zip(i, s)):
            return 0.0  # each term has a factor 3 j_t - 0 |j| = 0
        total = 0
        for j in itertools.product(*(range(n + 1) for n in i)):
            size = sum(j)
            if size:
                term = (-1) ** (k - size) * scale * size**k // size**_DEGREE
                for it, jt, st in zip(i, j, s):
                    term *= math.comb(it, jt) * math.prod(3 * jt - q * size for q in range(st))
                total += term
        return total / (scale * 3**k * math.prod(map(math.factorial, s)))

    indices = [tuple(map(index.count, range(m))) for index in itertools.product(range(m), repeat=k)]
    columns = {i: [gamma(i, s) for s in _directions(m).tolist()] for i in set(indices)}
    return np.array([columns[i] for i in indices]).T


def interpolate(jets: list[Jet]) -> list[np.ndarray]:
    """The blocks (value, gradient, hessian, third) up to the order of the
    jets, which share num_vars, order and point shape, stacked along a last
    axis of length n.

    Per degree, the coefficients of all n jets are stacked as (D, points, n)
    and multiplied by W_k in one real matrix product on their float view.
    """
    m, order, batch = jets[0].num_vars, jets[0].order, jets[0]._coeffs[0].shape
    size, n, stacked = math.prod(batch), len(jets), []
    for k in range(order + 1):
        rows = len(_directions(m)) if k else 1  # the value is one coefficient
        coeffs = np.empty((rows, size, n), dtype=complex)
        for c, jet in enumerate(jets):
            coeffs[..., c] = jet._coeffs[k].reshape(rows, size)
        if k:
            coeffs = (_weights(m, k).T @ coeffs.view(float).reshape(rows, -1)).view(complex)
        coeffs = coeffs.reshape(m**k, size, n).transpose(1, 0, 2)
        stacked.append(coeffs.reshape(batch + (m,) * k + (n,)))
    return stacked


# -- elementary functions ------------------------------------------------------


def _compose(u: Jet, f0, f1, f2, f3) -> Jet:
    """Chain rule for f(u) given the derivatives of f at the values of u:
    f(u)_1 = f1 u_1, f(u)_2 = f1 u_2 + f2 u_1^2 / 2,
    f(u)_3 = f1 u_3 + f2 u_1 u_2 + f3 u_1^3 / 6."""
    _, *c = u.coeffs
    out = [f0]
    if u.order >= 1:
        out.append(f1 * c[0])
    if u.order >= 2:
        u1sq = c[0] * c[0]
        out.append(f1 * c[1] + 0.5 * f2 * u1sq)
    if u.order >= 3:
        third = f1 * c[2] + f2 * (c[0] * c[1])
        third += f3 / 6.0 * (u1sq * c[0])
        out.append(third)
    return _new(u, *out)


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
    the cut, so an argument whose value or any Taylor coefficient has an
    imaginary part above 1e-9 * max(1, |Re value|) at some point is rejected
    loudly.  The result is real: its imaginary parts are exactly zero.
    """
    x = u.value.real
    imag = np.max(
        [np.abs(c.imag).reshape((-1,) + x.shape).max(axis=0) for c in u.coeffs], axis=0
    )
    if (imag > _SQRT_IMAG * np.maximum(1.0, np.abs(x))).any():
        raise SingularEvaluationError("sqrt of a non-real expression")
    tiny = x < _SQRT_GUARD
    if tiny.any():
        raise SingularEvaluationError(
            f"sqrt at non-positive or tiny value {float(x.flat[np.argmax(tiny)])!r}"
        )
    r = np.sqrt(x)
    real = _new(u, *(c.real + 0j for c in u.coeffs))
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
        return _new(u, np.ones_like(u.value), *(np.zeros_like(c) for c in u.coeffs[1:]))
    return out
