"""Map jets against exact derivatives.

The reference differentiates the expression tree symbolically and evaluates
the derivative expressions with the finite-difference module's compiled map:
exact derivative tensors up to rounding, with no jet code and no step error.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from lagkit.ambient import Signature
from lagkit.catalog import catalog, catalog_names
from lagkit.checks import SampleConfig, run_suite
from lagkit.dsl import Bin, Call, Expr, Imag, ImmersionSpec, Neg, Num, Param, Pow, Ref
from lagkit.dsl import evaluate_map_jets
from lagkit.errors import LagkitError
from lagkit.findiff import eval_map_numeric
from lagkit.jets import _directions, _weights
from lagkit.sampling import sample_points
from test_dsl import _expr_strategy, assert_same_as_walk

ZERO = Num(0.0)
_DERIVATIVE = {  # f'(a) for f(a) = Call(fn, a)
    "exp": lambda a: Call("exp", a),
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
    "sqrt": lambda a: Bin("/", Num(0.5), Call("sqrt", a)),
}


def _sum(op, a, b):
    if b is ZERO:
        return a
    if a is ZERO:
        return b if op == "+" else Neg(b)
    return Bin(op, a, b)


def _product(a, b):
    return ZERO if a is ZERO or b is ZERO else Bin("*", a, b)


def derivative(e, x: str):
    """d e / d x as an expression tree; ZERO (the object) where it vanishes."""
    if isinstance(e, (Num, Imag)):
        return ZERO
    if isinstance(e, Ref):
        return Num(1.0) if e.name == x else ZERO
    if isinstance(e, Neg):
        d = derivative(e.arg, x)
        return ZERO if d is ZERO else Neg(d)
    if isinstance(e, Pow):
        d = ZERO if e.exponent == 0 else derivative(e.base, x)
        k = Num(float(abs(e.exponent)))
        return _product(_product(k if e.exponent >= 0 else Neg(k), Pow(e.base, e.exponent - 1)), d)
    if isinstance(e, Call):
        return _product(_DERIVATIVE[e.fn](e.arg), derivative(e.arg, x))
    dl, dr = derivative(e.left, x), derivative(e.right, x)
    if e.op in "+-":
        return _sum(e.op, dl, dr)
    if e.op == "*":
        return _sum("+", _product(dl, e.right), _product(e.left, dr))
    top = _sum("-", _product(dl, e.right), _product(e.left, dr))
    return ZERO if top is ZERO else Bin("/", top, Pow(e.right, 2))


def exact_tensors(spec, points, order):
    """{k: (P, m, ..., m, n)} for k <= order, from the derivative expressions
    of each sorted index tuple, evaluated in one compiled batch."""
    m, names = spec.num_params, spec.param_names
    keys = [(k, i) for k in range(order + 1) for i in itertools.combinations_with_replacement(range(m), k)]
    exprs = []
    for c in spec.components:
        for _, index in keys:
            e = c
            for i in index:
                e = derivative(e, names[i])
            exprs.append(e)
    flat = ImmersionSpec(spec.params, Signature(len(exprs), 0), tuple(exprs))
    values = eval_map_numeric(flat, points).reshape(len(points), len(spec.components), len(keys))
    out = {k: np.empty((len(points),) + (m,) * k + (len(spec.components),), complex) for k in range(order + 1)}
    for col, (k, index) in enumerate(keys):
        for perm in set(itertools.permutations(index)):
            out[k][(slice(None), *perm)] = values[:, :, col]
    return out


def assert_jets_exact(spec, points, order=3):
    """Every jet tensor within 1e-12 of the scale at its point: the largest
    exact derivative, orders 0..order, of any operand the jets form, that is
    of every subexpression, reciprocal of a divisor and power of a base up to
    its exponent.  Each jet operation rounds relative to its operands, so an
    expression that cancels, such as u / u, is judged against its parts."""
    nodes, level = [], list(spec.components)
    while level:
        nodes += level
        for e in level:
            if isinstance(e, Bin) and e.op == "/":
                nodes.append(Bin("/", Num(1.0), e.right))
            if isinstance(e, Pow):
                nodes += [Pow(e.base, j) for j in range(1, abs(e.exponent) + 1)]
        level = [c for node in level for c in vars(node).values() if isinstance(c, Expr)]
    parts = exact_tensors(ImmersionSpec(spec.params, Signature(len(nodes), 0), tuple(nodes)), points, order)
    scale = np.max([np.abs(t).reshape(len(points), -1).max(axis=1) for t in parts.values()], axis=0)
    exact = exact_tensors(spec, points, order)
    for k, tensor in enumerate(evaluate_map_jets(spec, points, order)):
        for c in range(len(spec.components)):
            error = np.abs(tensor[..., c] - exact[k][..., c]).reshape(len(points), -1).max(axis=1)
            assert (error <= 1e-12 * scale).all(), (k, c, (error / scale).max())


def _monomials(m: int, k: int, degree: int) -> np.ndarray:
    """(m^k, D) matrix taking a flattened k-th derivative tensor T to the
    coefficients T[s, ..., s] / k! along the directions of that degree."""
    s = _directions(m, degree)
    rows = itertools.product(range(m), repeat=k)
    return np.array([np.prod(s[:, list(i)], axis=1) for i in rows]) / math.factorial(k)


@pytest.mark.parametrize(
    "m, k, degree", [(m, k, d) for m in (1, 2, 3, 4) for d in (1, 2, 3) for k in range(1, d + 1)]
)
def test_weights_invert_the_directional_coefficients(m, k, degree):
    # a symmetric tensor -> its coefficients T[s, ..., s] / k! -> the tensor again
    t = np.random.default_rng(10 * m + k).normal(size=(m,) * k)
    t = sum(t.transpose(p) for p in itertools.permutations(range(k))).reshape(-1)
    weights = _weights(m, k, degree)
    np.testing.assert_allclose(t @ _monomials(m, k, degree) @ weights, t, rtol=0, atol=1e-14 * np.abs(t).max())
    assert weights.shape == (math.comb(m + degree - 1, degree), m**k)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", catalog_names())
def test_catalog_jets_match_exact_derivatives(name, order):
    # order 2 is the direction set of run_suite's frames, order 3 the cross-check's
    spec = catalog(name)
    assert_jets_exact(spec, np.array(sample_points(spec, 40, seed=17)), order)


_UV = (Param("u", -1.0, 1.0), Param("v", 0.0, 2.0))


@given(st.tuples(_expr_strategy(), _expr_strategy()))
@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
def test_drawn_specs_match_exact_derivatives(components):
    spec = ImmersionSpec(_UV, Signature(2, 0), components)
    points = np.array(sample_points(spec, 5, seed=3))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_map_jets(spec, points, 3)
            exact_tensors(spec, points, 3)
    except (LagkitError, ArithmeticError, ValueError, RuntimeWarning):
        return  # singular at a sample point: nothing to compare
    assert_jets_exact(spec, points)


# Random Lagrangian immersions: the graph L_j = x_j + i eta_j d_j f of the
# gradient of a real function f in C^m_s, eta_j = -1 on the s negated
# coordinates.  Then omega(d_a L, d_b L) = d_a d_b f - d_b d_a f = 0; a
# rotation eps (-x2, x1) added to the gradient makes it -2 eps for a, b = 1, 2.
_NAMES = ("x1", "x2", "x3")


def _real_trees(names, depth):
    """Real expressions in the named parameters, at most depth levels deep."""
    leaves = st.sampled_from([Num(1.0), Num(0.5), *map(Ref, names)])
    if depth == 1:
        return leaves
    sub = _real_trees(names, depth - 1)
    return st.one_of(
        leaves,
        st.builds(Bin, st.sampled_from("+-*"), sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(0, 3)),
        st.builds(Call, st.sampled_from(("sin", "cos")), sub),
    )


def _graphs(min_dim):
    """(m, s, f) with m in min_dim..3, s in 0..m and f of depth 4."""
    return st.integers(min_dim, 3).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, m), _real_trees(_NAMES[:m], 4))
    )


def gradient_graph(m, s, f, eps=0.0):
    names = _NAMES[:m]
    rotation = (Neg(Ref("x2")), Ref("x1")) if eps else ()
    components = []
    for j, x in enumerate(names):
        d = derivative(f, x)
        if j < len(rotation):
            d = Bin("+", d, Bin("*", Num(eps), rotation[j]))
        components.append(Bin("+", Ref(x), Bin("*", Neg(Imag()) if j < s else Imag(), d)))
    params = tuple(Param(x, -1.0, 1.0) for x in names)
    return ImmersionSpec(params, Signature(m, s), tuple(components))


def lagrangian_entry(spec):
    """The lagrangian entry of run_suite at 30 points; the map's derivatives
    repeat subterms of f, so the jets are held to the recursive walk's tensors
    there too."""
    cfg = SampleConfig(num_points=30, seed=1)
    assert_same_as_walk(spec, sample_points(spec, cfg.num_points, cfg.seed))
    entry = run_suite(spec, cfg, checks=["lagrangian"]).checks["lagrangian"]
    if entry.status == "error":  # s > 0 only: the induced metric can be singular
        assert entry.reason.startswith("induced metric degenerate at ("), entry.reason
        reject()
    return entry


@given(_graphs(1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_gradient_graphs_are_lagrangian(case):
    entry = lagrangian_entry(gradient_graph(*case))
    assert entry.passed, entry.max_residual


@given(_graphs(2))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_rotation_in_the_gradient_breaks_isotropy(case):
    eps = 1e-3
    entry = lagrangian_entry(gradient_graph(*case, eps=eps))
    assert entry.max_residual == pytest.approx(2 * eps, rel=1e-9)
    assert not entry.passed
