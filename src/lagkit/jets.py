"""Truncated Taylor arithmetic up to third order, over a point axis.

A jet is a real or complex quantity f of m real variables at B points as
univariate Taylor series (Griewank, Utke & Walther, Math. Comp. 69, 2000;
Griewank & Walther, Evaluating Derivatives, ch. 13): the coefficients f_k of
t -> f(x + t s), k <= order <= 3, along the D = C(m+2, 3) directions s in N^m
with |s| = 3, one direction set for every order.  It is one stacked pair: the
value f_0 (B,), held as (1, 1, B), and `high`, degrees 1..order as
(order, D, B), so the value broadcasts over degrees and directions along the
contiguous point axis; a number's jet (_number) has no point axis.  An array
is float64 while it is real (seeds, jets of real values), else complex128: a
kernel's result has the type of all its operands, one code path for both.

The arithmetic is kernels on such pairs, which dsl's compiled plans call, an
operator's through _OPERATORS: the truncated Cauchy product, and for exp,
sin, cos, sinh, cosh, 1/x and sqrt the chain rule on their derivatives f0..f3
at the values.  A number mixes in as a constant: a shift moves the value and
shares `high` with its operand, so no kernel writes into an operand's arrays.
Every factor of a product has the slabs' three axes, so one point and a batch
take the same numpy loops (numpy 2.4.6's AVX2 and AVX-512 code rounds a
(1,) x (1, 1) complex product without the fused multiply-add of its other
loops): that a point's jets are the bits of its row in a batch is tested.

The derivative tensors come back by interpolation: T_k = f_k @ W_k for fixed
(D, m^k) weights, exact rationals rounded once.  `_interpolate` applies W_k
once per degree to the coefficients of all its jets stacked, as one real
matrix product on the complex-as-float view, into new complex blocks or the
caller's (build_frame's frames).

The guards act per point, the first offending point raising one
SingularEvaluationError with its row for the whole jet (_guard): division and
overflow of exp/sin/cos/sinh/cosh (cmath's "math range error") on the values,
sqrt on the values and the imaginary parts of all coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings

import numpy as np

from .errors import SingularEvaluationError

_DIV_GUARD = 1e-300
_DIV_WARN = 1e-12
_SQRT_GUARD = 1e-12
_SQRT_IMAG = 1e-9
_DEGREE = 3  # every direction s has |s| = 3


def _seeds(points: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate jets at points (B, m) as real values (m, 1, 1, B) and
    highs (m, order, D, 1), the same at every point, which the kernels
    broadcast: seed k is (values[k], highs[k])."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"jet order must be in 0..3, got {order}")
    dirs = _directions(points.shape[1]).T
    high = np.zeros((len(dirs), order, dirs.shape[1], 1))
    high[:, :1] = dirs[:, None, :, None]  # degree 1, if any
    return np.ascontiguousarray(points.T, dtype=float)[:, None, None], high


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


@functools.cache
def _sorted_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """W_3's columns at the sorted multi-indices (the least flat index among each
    one's permutations), and the row among them of each flat index."""
    cube = np.arange(m**_DEGREE).reshape((m,) * _DEGREE)
    least = np.minimum.reduce([cube.transpose(p) for p in itertools.permutations(range(_DEGREE))])
    columns, rows = np.unique(least, return_inverse=True)
    return _weights(m, _DEGREE)[:, columns], rows.ravel()


def _interpolate(m, order, size, pairs, out=None) -> list[np.ndarray]:
    """The blocks (value, gradient, hessian, third) up to order of n (value,
    high) pairs or numbers (constant jets) at size points, stacked along a last
    axis of length n: complex (size, m, ..., m, n), written into the arrays
    out if given, else new.  Per degree, the coefficients of all n are staged
    as complex (D, size, n), a seed's broadcast along the points, and
    multiplied by W_k in one real matrix product on their float view, which may
    round equal columns apart: the third block is read from its sorted indices' rows."""
    n, rows = len(pairs), len(_directions(m))
    if out is None:
        out = [np.empty((size,) + (m,) * k + (n,), dtype=complex) for k in range(order + 1)]
    for c, u in enumerate(pairs):
        out[0][:, c] = u[0].reshape(size) if type(u) is tuple else u
    high = np.empty((rows, size, n), dtype=complex)
    for k in range(1, order + 1):
        for c, u in enumerate(pairs):
            high[..., c] = u[1][k - 1].reshape(rows, -1) if type(u) is tuple else 0
        weights, at = _sorted_weights(m) if k == _DEGREE else (_weights(m, k), slice(None))
        t = (weights.T @ high.view(float).reshape(rows, -1)).view(complex)[at]
        out[k][...] = t.reshape((m,) * k + (size, n)).transpose(k, *range(k), k + 1)
    return out


# -- kernels on (value, high) pairs ---------------------------------------------


def _number(kernel, x, *rest) -> float | complex:
    """kernel(x, *rest) for a number x, run on its order-0 pair: the jet
    code's arithmetic and guards on a constant."""
    value = np.array(x, dtype=complex if np.iscomplexobj(x) else float)
    return kernel((value[None, None], np.zeros((0, 1), dtype=value.dtype)), *rest)[0].item()


def _negative(u):
    return -u[0], -u[1]


def _scaled(c, u):
    """The number c times the pair u."""
    return c * u[0], c * u[1]


def _product(a, b):
    """Truncated Cauchy product: degree k is a0 bk + ak b0 + sum_{0<j<k} aj b(k-j),
    summed in that order, of the result type of all four arrays."""
    (a0, ah), (b0, bh) = a, b
    high = (a0 * bh).astype(np.result_type(a0, bh, ah, b0), copy=False)
    high += ah * b0
    if len(high) > 1:
        high[1:] += ah[:1] * bh[:-1]
    if len(high) > 2:
        high[2:] += ah[1:2] * bh[:1]
    return a0 * b0, high


def _compose(u, f0, f1, f2, f3):
    """Chain rule for f(u) given the derivatives of f at the values of u:
    f(u)_1 = f1 u_1, f(u)_2 = f1 u_2 + f2 u_1^2 / 2,
    f(u)_3 = f1 u_3 + f2 u_1 u_2 + f3 u_1^3 / 6.  The f have the dtype of u's
    value, so f1 u_1 already has the result type of every operand.  The 1/6
    is a real factor, not a divisor: numpy divides a complex array by 6.0 as
    x * (1/6), so a real step would round apart from its complex twin."""
    uh = u[1]
    high = f1 * uh
    if len(high) > 1:
        u1sq = uh[:1] * uh[:1]
        high[1:2] += 0.5 * f2 * u1sq
    if len(high) > 2:
        high[2:] += f2 * (uh[:1] * uh[1:2])
        high[2:] += f3 * (1.0 / 6.0) * (u1sq * uh[:1])
    return f0, high


def _reciprocal(u):
    v = u[0]
    modsq = v.real * v.real + v.imag * v.imag
    small = modsq < _DIV_WARN
    if small.any():
        _guard(modsq < _DIV_GUARD, lambda i: f"division by {complex(v.flat[i])!r}")
        warnings.warn(
            f"division by poorly conditioned value {complex(v.flat[np.argmax(small)])!r}",
            RuntimeWarning,
            stacklevel=3,
        )
    inv = 1.0 / v
    sq = inv * inv  # products, not **: complex ** rounds apart from real **
    return _compose(u, inv, -sq, 2.0 * (sq * inv), -6.0 * (sq * sq))


def _guard(bad, message):
    """Raise SingularEvaluationError(message(row), row=row) at the first row
    where bad holds, if any."""
    if bad.any():
        row = int(np.argmax(bad))
        raise SingularEvaluationError(message(row), row=row)


def _at_values(v, *fns) -> list[np.ndarray]:
    """fn(v) for each fn.  Guarded, with cmath's OverflowError message, where
    any image is not finite at a finite value."""
    out = [fn(v) for fn in fns]
    images = np.isfinite(out)
    if not images.all():
        _guard((np.isfinite(v) & ~images).any(axis=0), lambda i: "math range error")
    return out


def _elementary(fns, derivatives):
    """The kernel of f(u), where fns give images at the values of u, and
    derivatives(*images) the derivatives f0..f3 of f there."""
    return lambda u: _compose(u, *derivatives(*_at_values(u[0], *fns)))


_exp = _elementary((np.exp,), lambda e: (e, e, e, e))
_sin = _elementary((np.sin, np.cos), lambda s, c: (s, c, -s, -c))
_cos = _elementary((np.sin, np.cos), lambda s, c: (c, -s, -c, s))
_sinh = _elementary((np.sinh, np.cosh), lambda s, c: (s, c, s, c))
_cosh = _elementary((np.sinh, np.cosh), lambda s, c: (c, s, c, s))


def _sqrt(u):
    """Square root for numerically real, positive arguments.

    The DSL only needs sqrt on positive real subexpressions (constants like
    sqrt(3)); a general complex branch would not stay differentiable across
    the cut, so an argument whose value or any Taylor coefficient has an
    imaginary part above 1e-9 * max(1, |Re value|) at some point is rejected
    loudly.  The result is real (float64).
    """
    v, h = u
    x = v.real
    imag = np.abs(h.imag).max(axis=(0, 1), initial=0.0)  # per point
    nonreal = np.maximum(np.abs(v.imag), imag) > _SQRT_IMAG * np.maximum(1.0, np.abs(x))
    _guard(nonreal, lambda i: "sqrt of a non-real expression")
    _guard(x < _SQRT_GUARD, lambda i: f"sqrt at non-positive or tiny value {float(x.flat[i])!r}")
    r = np.sqrt(x)
    return _compose((v, h.real), r, 0.5 / r, -0.25 / r**3, 0.375 / r**5)


def _ipow(u, k: int):
    """Integer power by square and multiply (negative via reciprocal)."""
    if k < 0:
        return _reciprocal(_ipow(u, -k))
    out, base = None, u
    while k:
        if k & 1:
            out = base if out is None else _product(out, base)
        base = _product(base, base) if k > 1 else base
        k >>= 1
    return (np.ones_like(u[0]), np.zeros_like(u[1])) if out is None else out


# (operator, which operands are jets) -> its kernel on pairs and numbers, for
# dsl's compiled plans and _number; a shift shares `high`
_OPERATORS = {
    ("+", (1, 1)): lambda a, b: (a[0] + b[0], a[1] + b[1]),
    ("-", (1, 1)): lambda a, b: (a[0] - b[0], a[1] - b[1]),
    ("*", (1, 1)): _product,
    ("/", (1, 1)): lambda a, b: _product(a, _reciprocal(b)),
    ("+", (1, 0)): lambda a, c: (a[0] + c, a[1]),
    ("-", (1, 0)): lambda a, c: (a[0] - c, a[1]),
    ("*", (1, 0)): lambda a, c: _scaled(c, a),
    ("/", (1, 0)): lambda a, c: _scaled(_number(_ipow, c, -1), a),
    ("+", (0, 1)): lambda c, b: (b[0] + c, b[1]),
    ("-", (0, 1)): lambda c, b: (-b[0] + c, -b[1]),
    ("*", (0, 1)): _scaled,
    ("/", (0, 1)): lambda c, b: _scaled(c, _reciprocal(b)),
}

