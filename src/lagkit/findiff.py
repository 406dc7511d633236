"""Finite-difference cross-check for the jet evaluator.

This module is the independent second route: expressions are evaluated with
plain complex arithmetic (cmath), and derivatives come from nested 4-point
central difference stencils of order h^4.  Nothing here touches the jet code
it is meant to check, and the module imports no jet code.

The 4-point stencil matters: third derivatives of some catalog maps are large
(Whitney-type factors have fifth derivatives of order 10^2), and the plain
3-point stencil would lose the order-3 agreement budget at step 1e-2.

Stencils of different index tuples share many points, so one oracle call
caches the map value of each point it evaluates, keyed on the exact bits of
its coordinates, and evaluates every distinct point once.  The points of all
order-k stencils form one array, built by adding the offsets one level at a
time in the order the nested stencil adds them, and the difference quotients
are formed by collapsing the stacked values one level at a time, innermost
first, with the nested stencil's weighted sum.  Every coordinate and every
floating-point operation is the one the nested stencils perform, so the
tensors are bit-identical to evaluating each nested stencil on its own.
"""

from __future__ import annotations

import cmath
import itertools

import numpy as np

from .dsl import Bin, Call, Imag, ImmersionSpec, Neg, Num, Pow, Ref, check_point_in_domain
from .errors import DomainError, SingularEvaluationError

__all__ = [
    "eval_map_numeric",
    "finite_difference_oracle",
    "jet_fd_comparison",
    "jet_fd_deviation",
]

# offsets in units of h and weights for the O(h^4) central first derivative
_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_WEIGHTS = (1.0, -8.0, 8.0, -1.0)
_NORM = 12.0
_REACH = 2.0  # stencil reach per differentiation level, in units of h

_CFUNCS = {
    "exp": cmath.exp,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
    "sqrt": cmath.sqrt,
}


def _ev(e, env) -> complex:
    if isinstance(e, Num):
        return complex(e.value)
    if isinstance(e, Imag):
        return 1j
    if isinstance(e, Ref):
        return complex(env[e.name])
    if isinstance(e, Neg):
        return -_ev(e.arg, env)
    if isinstance(e, Bin):
        a = _ev(e.left, env)
        b = _ev(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Pow):
        return _ev(e.base, env) ** e.exponent
    if isinstance(e, Call):
        return _CFUNCS[e.fn](_ev(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")


def eval_map_numeric(spec: ImmersionSpec, point) -> np.ndarray:
    """All components at a point, as a complex vector, via direct evaluation.

    Raises SingularEvaluationError when a component overflows, divides by
    zero or is not finite.
    """
    check_point_in_domain(spec, point)
    env = {p.name: float(x) for p, x in zip(spec.params, point)}
    try:
        values = [_ev(c, env) for c in spec.components]
    except (OverflowError, ZeroDivisionError) as exc:
        raise SingularEvaluationError(
            f"map cannot be evaluated at {tuple(env.values())}: {exc}"
        ) from exc
    if not all(map(cmath.isfinite, values)):
        raise SingularEvaluationError(f"map not finite at {tuple(env.values())}")
    return np.array(values, dtype=complex)


def finite_difference_oracle(
    spec: ImmersionSpec, point, order: int, step: float
) -> dict[int, np.ndarray]:
    """Derivative tensors of the component map by central differences.

    Returns {0: (n,), 1: (m, n), 2: (m, m, n), 3: (m, m, m, n)} up to `order`,
    complex-valued.  The whole stencil must stay inside the domain box, and a
    map or difference quotient that is not finite raises
    SingularEvaluationError.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"finite-difference order must be 1..3, got {order}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    m = spec.num_params
    x = np.asarray([float(v) for v in point], dtype=float)
    if x.shape != (m,):
        raise DomainError(f"point has {x.shape[0]} coordinates, spec has {m} parameters")
    reach = _REACH * step * order
    for p, v in zip(spec.params, x):
        if v - reach < p.lo - 1e-12 or v + reach > p.hi + 1e-12:
            raise DomainError(
                f"stencil of half-width {reach} around {p.name}={v} "
                f"leaves [{p.lo}, {p.hi}]"
            )

    values: dict[bytes, np.ndarray] = {}

    def f(pt):
        key = pt.tobytes()
        if key not in values:
            values[key] = eval_map_numeric(spec, pt)
        return values[key]

    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        out: dict[int, np.ndarray] = {0: f(x)}
        for k in range(1, order + 1):
            # rows: ordered index tuples; columns: offset tuples of the stencil
            axes = np.array(list(itertools.product(range(m), repeat=k)))
            offsets = np.array(list(itertools.product(_OFFSETS, repeat=k)))
            pts = np.tile(x, (len(axes), len(offsets), 1))
            rows = np.arange(len(axes))[:, None]
            cols = np.arange(len(offsets))
            # outermost level first, as the nested stencil adds them: same floats
            for level in range(k):
                pts[rows, cols, axes[:, level, None]] += offsets[:, level] * step
            v = np.array([f(pt) for pt in pts.reshape(-1, m)])
            v = v.reshape((len(axes),) + (len(_OFFSETS),) * k + (-1,))
            # innermost level first, with the nested stencil's operation order
            for _ in range(k):
                acc = None
                for s, w in enumerate(_WEIGHTS):
                    term = w * v[..., s, :]
                    acc = term if acc is None else acc + term
                v = acc / (_NORM * step)
            out[k] = v.reshape((m,) * k + (-1,))
    if not all(np.isfinite(t).all() for t in out.values()):
        raise SingularEvaluationError(f"finite differences not finite at {tuple(x.tolist())}")
    return out


def _jet_tensors(spec: ImmersionSpec, point, order: int) -> dict[int, np.ndarray]:
    from .dsl import evaluate_map_jets

    jets = evaluate_map_jets(spec, point, order)  # a batch of one point
    return {k: np.stack([jet.blocks[k][0] for jet in jets], axis=-1) for k in range(order + 1)}


def jet_fd_deviation(
    spec: ImmersionSpec, point, order: int, step: float
) -> dict[int, float]:
    """Max |jet - finite difference| per derivative order (1..order)."""
    return {k: dev for k, (dev, _) in jet_fd_comparison(spec, point, order, step).items()}


def jet_fd_comparison(
    spec: ImmersionSpec, point, order: int, step: float
) -> dict[int, tuple[float, float]]:
    """(max |jet - finite difference|, max |finite difference|) per derivative
    order (1..order): the deviation and the size it is to be judged against."""
    fd = finite_difference_oracle(spec, point, order, step)
    jt = _jet_tensors(spec, point, order)
    return {
        k: (float(np.max(np.abs(jt[k] - fd[k]))), float(np.max(np.abs(fd[k]))))
        for k in range(1, order + 1)
    }
