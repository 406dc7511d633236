"""Finite-difference cross-check for the jet evaluator.

This module is the independent second route: expressions are evaluated with
plain complex arithmetic (cmath), and derivatives come from nested 4-point
central difference stencils of order h^4.  Nothing here touches the jet code
it is meant to check, and the module imports no jet code.

The 4-point stencil matters: third derivatives of some catalog maps are large
(Whitney-type factors have fifth derivatives of order 10^2), and the plain
3-point stencil would lose the order-3 agreement budget at step 1e-2.

Each spec's map is compiled once to straight-line Python, one statement per
step of its plan (dsl._plan): each distinct subexpression, constants by exact
bits, once, in walk order, so every value and error is the walk's; the values
of all rows go to one flat list.  An oracle call stacks the points of all its
stencils, centre first, adding to each coordinate its offsets in the order the
nested stencil adds them; rows that add the same offsets to every coordinate
in the same order are the same floats at any point and step, so they are
merged once per (m, order).  It evaluates each distinct point once, in one
batch, in first-request order, keyed in a dict on its exact bits (-0.0 and
0.0 are two points, as in the nested stencils); and collapses the values in
one pass per level, innermost first, over the rows of every order that level
reaches: one multiply by the weights, then the adds in the nested order,
((w0 v0 + w1 v1) + w2 v2) + w3 v3.  Every coordinate and floating-point
operation is the nested stencils', so the tensors are bit-identical to theirs.
"""

from __future__ import annotations

import cmath
import functools
import itertools

import numpy as np

from .dsl import Bin, Call, Imag, ImmersionSpec, Neg, Num, Pow, Ref, _plan, check_point_in_domain
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
_WEIGHT_COLUMN = np.array(_WEIGHTS)[:, None]
_BINARY = {"+": "+", "-": "-", "*": "*", "/": "/"}  # operator -> its source text


@functools.lru_cache(maxsize=64)  # compiled maps kept, least recently used dropped first
def _compiled(spec: ImmersionSpec, _identity: int):
    """spec's map as run(rows, out), extending the flat list out by the component
    values of each row, one statement per step of its plan (dsl._plan), keyed as the plan.
    Its source holds generated names and fixed text only (constants and
    functions are read from K): a bad node raises, in _plan, before code runs."""
    steps, roots = _plan(spec, _identity)
    coords = "".join(f"x{k}, " for k in range(spec.num_params))
    consts, lines = [], ["def run(rows, out):", f"    for {coords}in rows:"]

    def const(value):
        consts.append(value)
        return f"K[{len(consts) - 1}]"

    rules = {  # node type -> its statement's expression, from (field, *operand names)
        Num: lambda value: f"complex({const(value)})",
        Imag: lambda _: "1j",
        Ref: lambda k: f"complex(x{k})",
        Neg: lambda _, a: f"-{a}",
        Bin: lambda op, a, b: f"{a} {_BINARY[op]} {b}",
        Pow: lambda k, a: f"{a} ** {const(k)}",
        Call: lambda fn, a: f"{const(getattr(cmath, fn))}({a})",
    }
    for i, (kind, field, *operands) in enumerate(steps):
        lines.append(f"        t{i} = {rules[kind](field, *(f't{j}' for j in operands))}")
    lines.append(f"        out += {''.join(f't{r}, ' for r in roots)}")
    namespace = {"K": tuple(consts)}
    exec(compile("\n".join(lines), "<compiled map>", "exec"), namespace)
    return namespace.pop("run")  # not kept in its own globals: no reference cycle


def eval_map_numeric(spec: ImmersionSpec, points) -> np.ndarray:
    """The components at one point (m,) as a complex vector (n,), or at each row
    of a batch (P, m) as a complex array (P, n), by direct evaluation.  Raises
    SingularEvaluationError, naming the first such point, when a component
    overflows, divides by zero or is not finite."""
    pts = np.array(points, dtype=float)
    check_point_in_domain(spec, pts)
    rows, out, error = pts.reshape(-1, spec.num_params).tolist(), [], None
    run = _compiled(spec, id(spec))  # an invalid node raises here, as itself
    try:
        run(rows, out)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:  # ValueError: cmath of inf
        error = exc
    values = np.array(out, dtype=complex).reshape(-1, len(spec.components))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise SingularEvaluationError(f"map not finite at {tuple(rows[np.argmin(finite)])}")
    if error is not None:
        raise SingularEvaluationError(
            f"map cannot be evaluated at {tuple(rows[len(values)])}: {error}"
        ) from error
    return values[0] if pts.ndim == 1 else values


@functools.cache
def _stencil(m: int, order: int):
    """The stacked stencil points as offsets from the centre, for the centre
    followed by, per order k, one row per product(range(m), repeat=k) x
    product(_OFFSETS, repeat=k), the nested stencil adding offset o_l along
    axis a_l at level l.  A row is keyed by the offsets it adds to each
    coordinate, in level order (1 + their indices in _OFFSETS, 0-padded):
    rows with one key are the same floats for every point and step, so each
    key is kept once, in first-row order.  Returns the key count; per level,
    the flat coordinate indices and offsets (units of h) that rebuild each
    key's point; and each row's key index."""
    keys = [np.zeros((1, m, order), dtype=np.int8)]  # the centre
    for k in range(1, order + 1):
        axes = np.repeat(list(itertools.product(range(m), repeat=k)), len(_OFFSETS) ** k, axis=0)
        codes = np.tile(list(itertools.product(range(1, len(_OFFSETS) + 1), repeat=k)), (m**k, 1))
        key = np.zeros((len(axes), m, order), dtype=np.int8)
        for level in range(k):  # the offset of a level goes after those of earlier levels on its axis
            rank = (axes[:, :level] == axes[:, level : level + 1]).sum(axis=1)
            key[np.arange(len(axes)), axes[:, level], rank] = codes[:, level]
        keys.append(key)
    keys = np.concatenate(keys)
    _, first, inverse = np.unique(
        keys.reshape(len(keys), -1).view(np.dtype((np.void, m * order))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    kept = np.sort(first)
    flat = np.arange(len(kept) * m)  # i * m + t for coordinate t of kept key i
    levels = []
    for codes in keys[kept].reshape(-1, order).T:
        hit = codes > 0
        levels.append((flat[hit], np.array(_OFFSETS)[codes[hit] - 1]))
    return len(kept), levels, np.searchsorted(kept, first)[inverse]


def finite_difference_oracle(
    spec: ImmersionSpec, point, order: int, step: float
) -> dict[int, np.ndarray]:
    """Derivative tensors of the component map by central differences.

    Returns {0: (n,), 1: (m, n), 2: (m, m, n), 3: (m, m, m, n)} up to `order`,
    complex-valued.  Every stencil point must lie in the domain box
    (eval_map_numeric checks them all before it evaluates any), and a map or
    difference quotient that is not finite raises SingularEvaluationError.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"finite-difference order must be 1..3, got {order}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    m = spec.num_params
    x = np.asarray([float(v) for v in point], dtype=float)
    if x.shape != (m,):
        raise DomainError(f"point has {x.shape[0]} coordinates, spec has {m} parameters")

    size, levels, rows = _stencil(m, order)
    pts = np.empty((size, m))
    pts[...] = x
    # each coordinate's offsets in the order the nested stencil adds them: same floats
    for index, offset in levels:
        pts.reshape(-1)[index] += offset * step
    # each distinct point once, keyed on its exact bits (-0.0 is not 0.0), in
    # first-request order
    slots = {}
    keys = pts.view(np.dtype((np.void, pts.itemsize * m))).ravel().tolist()
    slot = [slots.setdefault(key, len(slots)) for key in keys]
    distinct = np.frombuffer(b"".join(slots)).reshape(-1, m)
    values = eval_map_numeric(spec, distinct)[np.array(slot)[rows]]

    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        out, v = {0: values[0]}, values[1:]
        # one pass per level, innermost first, over the rows of every order it
        # reaches: ((w0 v0 + w1 v1) + w2 v2) + w3 v3, then / (12 h), as nested
        # (not a sum over the 4 terms, whose order and start numpy does not
        # fix); order k is done after k passes, and its m^k rows lead the rest
        for k in range(1, order + 1):
            t = v.reshape(-1, len(_WEIGHTS), v.shape[-1]) * _WEIGHT_COLUMN
            v = t[:, 0] + t[:, 1]
            v += t[:, 2]
            v += t[:, 3]
            v /= _NORM * step
            out[k], v = v[: m**k].reshape((m,) * k + (-1,)), v[m**k :]
    if not all(np.isfinite(t).all() for t in out.values()):
        raise SingularEvaluationError(f"finite differences not finite at {tuple(x.tolist())}")
    return out


def _deviations(spec: ImmersionSpec, point, order: int, step: float):
    """The oracle's tensors, and max |jet - finite difference| per order (1..order)."""
    from .dsl import _map_jets  # jet code at call time, unchecked: the oracle checked the centre

    fd = finite_difference_oracle(spec, point, order, step)
    jt = _map_jets(spec, np.array(point, dtype=float, ndmin=2), order)  # [0]: the oracle's layout
    return fd, {k: float(np.abs(jt[k][0] - fd[k]).max()) for k in range(1, order + 1)}


def jet_fd_deviation(
    spec: ImmersionSpec, point, order: int, step: float
) -> dict[int, float]:
    """Max |jet - finite difference| per derivative order (1..order)."""
    return _deviations(spec, point, order, step)[1]


def jet_fd_comparison(
    spec: ImmersionSpec, point, order: int, step: float
) -> dict[int, tuple[float, float]]:
    """(max |jet - finite difference|, max |finite difference|) per derivative
    order (1..order): the deviation and the size it is to be judged against."""
    fd, dev = _deviations(spec, point, order, step)
    return {k: (d, float(np.abs(fd[k]).max())) for k, d in dev.items()}
