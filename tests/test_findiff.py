"""The finite-difference oracle itself, pinned against closed forms.

These expected derivatives were worked out by hand; the oracle must hit them
before it is trusted to cross-check the jet evaluator anywhere else.
"""

import cmath
import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagkit import findiff, jets
from lagkit.ambient import Signature
from lagkit.catalog import catalog, catalog_names
from lagkit.dsl import (
    FUNCTION_NAMES,
    Bin,
    Call,
    Imag,
    ImmersionSpec,
    Neg,
    Num,
    Param,
    Pow,
    Ref,
    check_point_in_domain,
    parse,
)
from lagkit.errors import DomainError, DslError, SingularEvaluationError
from lagkit.findiff import (
    eval_map_numeric,
    finite_difference_oracle,
    jet_fd_deviation,
)
from lagkit.sampling import sample_points
from test_dsl import _OVERFLOW, _TWO_U, _expr_strategy, _leaf, _zero_times, shared_components


EXP_SPEC = parse("params u:[-3,3];\nsignature 1 0;\nmap exp(i*u);\n")
U2V_SPEC = parse("params u:[-1,1], v:[-1,1];\nsignature 1 0;\nmap u^2*v;\n")


# Reference oracle: one nested 4-point stencil per ordered index tuple, every
# stencil point evaluated on its own.  The memoized array oracle must match it
# bit for bit.
_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_WEIGHTS = (1.0, -8.0, 8.0, -1.0)
_NORM = 12.0


def _central(f, x: np.ndarray, axes: tuple[int, ...], h: float) -> np.ndarray:
    if not axes:
        return f(x)
    i, rest = axes[0], axes[1:]
    acc = None
    for off, w in zip(_OFFSETS, _WEIGHTS):
        xp = x.copy()
        xp[i] += off * h
        term = w * _central(f, xp, rest, h)
        acc = term if acc is None else acc + term
    return acc / (_NORM * h)


def nested_oracle(spec, point, order, step):
    m = spec.num_params
    x = np.asarray(point, dtype=float)

    def f(pt):
        return findiff.eval_map_numeric(spec, pt)

    out = {0: f(x)}
    for k in range(1, order + 1):
        tensors = [_central(f, x, axes, step) for axes in itertools.product(range(m), repeat=k)]
        out[k] = np.array(tensors).reshape((m,) * k + (-1,))
    return out


# Reference evaluator: the recursive walk the compiled maps replaced, one point
# at a time.  eval_map_numeric must give its values and errors exactly.
_CFUNCS = {name: getattr(cmath, name) for name in FUNCTION_NAMES}


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


def walk_eval(spec, point) -> np.ndarray:
    check_point_in_domain(spec, point)
    env = {p.name: float(x) for p, x in zip(spec.params, point)}
    try:
        values = [_ev(c, env) for c in spec.components]
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise SingularEvaluationError(
            f"map cannot be evaluated at {tuple(env.values())}: {exc}"
        ) from exc
    if not all(map(cmath.isfinite, values)):
        raise SingularEvaluationError(f"map not finite at {tuple(env.values())}")
    return np.array(values, dtype=complex)


def _outcome(evaluate):
    """("value", bytes of the result) or (exception type, message)."""
    try:
        return "value", evaluate().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


_UV = (Param("u", -1.0, 1.0), Param("v", 0.0, 2.0))
# leaves that make sums, products, powers and cmath calls overflow, divide by
# zero or reach inf (where cmath raises "math domain error")
_WIDE_LEAVES = st.one_of(_leaf, st.sampled_from([Num(800.0), Num(1e200), Neg(Num(1e308))]))
_WIDE_EXPRS = _expr_strategy(_WIDE_LEAVES, FUNCTION_NAMES, min_exponent=-3)


class TestCompiledMap:
    @given(
        st.one_of(
            st.tuples(_WIDE_EXPRS, _WIDE_EXPRS),
            shared_components(_WIDE_LEAVES, FUNCTION_NAMES, min_exponent=-3),
        ),
        st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 2)), min_size=1, max_size=4),
    )
    # subtrees the map shares: a component that is also an operand, equal
    # records with other bits, and one that overflows
    @example((_TWO_U, Bin("*", _TWO_U, Ref("v"))), [(0.5, 1.0)])
    @example((_zero_times(0.0), _zero_times(-0.0)), [(0.5, 1.0)])
    @example((Bin("+", _OVERFLOW, Ref("u")), _OVERFLOW), [(0.5, 0.5), (0.5, 1.5)])
    # cmath of inf raises ValueError
    @example((Call("cos", Bin("*", Num(1e200), Num(1e200))), Ref("u")), [(0.5, 1.0)])
    # both operands fail, differently: the left one is reported
    @example((Bin("+", Bin("/", Ref("u"), Num(0.0)), Call("exp", Num(800.0))), Ref("v")), [(0.5, 1.0)])
    # the first point is not finite, the second raises: the first is reported
    @example(
        (Bin("*", Num(1e200), Bin("*", Num(1e200), Ref("u"))), Bin("/", Num(1.0), Ref("u"))),
        [(0.5, 1.0), (0.0, 1.0)],
    )
    @settings(max_examples=300, deadline=None)
    def test_same_values_and_errors_as_the_recursive_walk(self, components, points):
        spec = ImmersionSpec(_UV, Signature(2, 0), components)
        want = [_outcome(lambda: walk_eval(spec, pt)) for pt in points]
        for pt, outcome in zip(points, want):
            assert _outcome(lambda: eval_map_numeric(spec, pt)) == outcome
        # one batch: every row, or the error of the first point that fails
        errors = [outcome for outcome in want if outcome[0] != "value"]
        batch = errors[0] if errors else ("value", b"".join(v for _, v in want))
        assert _outcome(lambda: eval_map_numeric(spec, points)) == batch

    def test_deeper_than_the_python_parser_nests(self):
        with pytest.raises(SyntaxError):  # CPython's limit of 200 nested parentheses
            compile("(" * 250 + "0" + ")" * 250, "<nested>", "eval")
        e = Ref("u")
        for depth in range(250):
            e = Call("sin", e) if depth % 2 else Neg(e)
        spec = ImmersionSpec((Param("u", -1.0, 1.0),), Signature(1, 0), (e,))
        assert eval_map_numeric(spec, (0.3,)).tobytes() == walk_eval(spec, (0.3,)).tobytes()

    @pytest.mark.parametrize(
        "component",
        [
            Call("tan", Ref("u")),
            Call("__import__", Ref("u")),
            Bin("%", Ref("u"), Num(2.0)),
            Bin("**", Ref("u"), Num(2.0)),
            Pow(Ref("u"), 2.0),
            Pow(Ref("u"), True),
            Ref("w"),
            "u",
        ],
        ids=repr,
    )
    def test_invalid_node_raises_before_any_code_runs(self, monkeypatch, component):
        def refuse(*args):
            raise AssertionError("generated code ran")

        monkeypatch.setattr(findiff, "exec", refuse, raising=False)
        spec = ImmersionSpec((Param("u", -1.0, 1.0),), Signature(1, 0), (component,))
        with pytest.raises(DslError, match=re.escape(f"invalid expression node {component!r}")):
            eval_map_numeric(spec, (0.5,))
        valid = ImmersionSpec((Param("u", -1.0, 1.0),), Signature(1, 0), (Ref("u"),))
        with pytest.raises(AssertionError, match="generated code ran"):
            eval_map_numeric(valid, (0.5,))

    def test_source_holds_no_spec_text(self, monkeypatch):
        sources = []

        def recording(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(findiff, "compile", recording, raising=False)
        spec = parse(
            "params secret:[1,2], v:[0,1];\nsignature 2 0;\n"
            "map exp(i*secret)*sqrt(secret)^-2 - 12345.678/v, cosh(3.25e-7*v) + sinh(v);\n"
        )
        eval_map_numeric(spec, (1.5, 0.5))
        (source,) = sources
        # generated names (t0, x1, K[2]) and the imaginary unit removed, only
        # fixed words and operators remain
        rest = re.sub(r"\b[tx]\d+\b|\bK\[\d+\]|\b1j\b", "", source)
        fixed = {"def", "run", "rows", "out", "for", "in", "complex", "append"}
        assert set(re.findall(r"\w+", rest)) <= fixed

    @pytest.mark.parametrize("name, count", [("product_S1xS2", 15), ("whitney_sphere", 16)])
    def test_one_statement_per_distinct_subexpression(self, monkeypatch, name, count):
        # a walk of the tree has 27 and 36: exp(i*t), and whitney_sphere's
        # factor, in every component
        sources = []

        def recording(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(findiff, "compile", recording, raising=False)
        spec = catalog(name)
        eval_map_numeric(spec, sample_points(spec, 1, seed=1)[0])
        (source,) = sources
        assert len(re.findall(r"^ +t\d+ = ", source, re.M)) == count

    def test_equal_specs_keep_the_sign_of_zero(self):
        # Num(0.0) == Num(-0.0), and z * (-1 + i) has the sign of z in its
        # imaginary part: the cached map of one must not serve the other
        def spec(zero):
            return ImmersionSpec((Param("u", -1.0, 1.0),), Signature(1, 0), (_zero_times(zero),))

        plus, minus = spec(0.0), spec(-0.0)
        assert plus == minus
        got = [eval_map_numeric(s, (0.5,)).tobytes() for s in (plus, minus, plus)]
        assert got == [walk_eval(s, (0.5,)).tobytes() for s in (plus, minus, plus)]
        assert got[0] != got[1]


class TestOracleAgainstClosedForms:
    def test_exponential_derivatives(self):
        # d^k/du^k e^{iu} = i^k e^{iu}, checked at u = 0.4
        u = 0.4
        out = finite_difference_oracle(EXP_SPEC, (u,), order=3, step=1e-2)
        base = cmath.exp(1j * u)
        assert out[0][0] == pytest.approx(base, abs=1e-12)
        assert out[1][0, 0] == pytest.approx(1j * base, abs=1e-8)
        assert out[2][0, 0, 0] == pytest.approx(-base, abs=1e-8)
        assert out[3][0, 0, 0, 0] == pytest.approx(-1j * base, abs=1e-6)

    def test_polynomial_first_derivative_is_near_exact(self):
        # the 4-point stencil differentiates quartics exactly up to roundoff
        spec = parse("params u:[-2,2];\nsignature 1 0;\nmap u^4 + 2*u^2;\n")
        out = finite_difference_oracle(spec, (0.5,), order=1, step=0.1)
        assert out[1][0, 0] == pytest.approx(4 * 0.5**3 + 4 * 0.5, abs=1e-12)

    def test_mixed_partial(self):
        # f = u^2 v  =>  d2f/du dv = 2u
        out = finite_difference_oracle(U2V_SPEC, (0.3, -0.2), order=2, step=1e-3)
        assert out[2][0, 1, 0] == pytest.approx(0.6, abs=1e-9)
        assert out[2][1, 0, 0] == pytest.approx(0.6, abs=1e-9)


def test_oracle_runs_without_jet_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("the finite-difference oracle multiplied jets")

    monkeypatch.setattr(jets.Jet, "__mul__", refuse)
    monkeypatch.setattr(jets.Jet, "__rmul__", refuse)
    closed_forms = TestOracleAgainstClosedForms()
    closed_forms.test_exponential_derivatives()
    closed_forms.test_polynomial_first_derivative_is_near_exact()
    closed_forms.test_mixed_partial()


def _identity_cases():
    product = catalog("product_S1xS2")
    points = sample_points(product, 2, seed=7, extra_margin=0.31)
    for step in (1e-2, 0.05):
        yield pytest.param(EXP_SPEC, (0.4,), step, id=f"exp-{step:g}")
        yield pytest.param(U2V_SPEC, (0.3, -0.2), step, id=f"u2v-{step:g}")
        for i, pt in enumerate(points):
            yield pytest.param(product, pt, step, id=f"product_S1xS2-{i}-{step:g}")


class TestStencilSharing:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("spec,point,step", list(_identity_cases()))
    def test_bit_identical_to_nested_stencils(self, spec, point, step, order):
        got = finite_difference_oracle(spec, point, order, step)
        want = nested_oracle(spec, point, order, step)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].shape == want[k].shape, k
            assert got[k].dtype == want[k].dtype, k
            assert got[k].tobytes() == want[k].tobytes(), k

    def test_each_stencil_point_evaluated_once(self, monkeypatch):
        spec = catalog("product_S1xS2")
        pt = sample_points(spec, 1, seed=3, extra_margin=0.062)[0]
        seen, calls = [], []

        def counting(spec, points):
            rows = np.array(points, dtype=float, ndmin=2)
            seen.extend(row.tobytes() for row in rows)
            calls.append(len(rows))
            return eval_map_numeric(spec, points)

        monkeypatch.setattr(findiff, "eval_map_numeric", counting)
        nested_oracle(spec, pt, 3, 1e-2)
        requested, seen[:], calls[:] = list(seen), [], []
        finite_difference_oracle(spec, pt, 3, 1e-2)
        assert len(requested) == 1885
        # each distinct point once, in the order the nested stencils first ask for it
        assert seen == list(dict.fromkeys(requested))
        assert len(seen) <= 300
        # all of them in one batch
        assert calls == [len(seen)]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_first_failing_point_is_reported(self, order):
        spec = parse("params u:[0,1], v:[0,2];\nsignature 2 0;\nmap exp(1000*u*v), v;\n")
        message = "map cannot be evaluated at (0.715, 0.999): math range error"
        with pytest.raises(SingularEvaluationError, match=re.escape(message)):
            finite_difference_oracle(spec, (0.705, 0.999), order, 1e-2)


def reference_stencil(m: int, order: int):
    """The stencil before rows were merged: every row of every nested stencil,
    outermost level first, in the (size, levels, row index) form of _stencil."""
    levels, size = [([], []) for _ in range(order)], 1
    for k in range(1, order + 1):
        axes = np.array(list(itertools.product(range(m), repeat=k)))
        offsets = np.array(list(itertools.product(_OFFSETS, repeat=k)))
        rows = size + np.arange(len(axes) * len(offsets)).reshape(len(axes), -1)
        size += rows.size
        for (index, offset), a, o in zip(levels, axes.T, offsets.T):
            index.append((rows * m + a[:, None]).ravel())
            offset.append(np.broadcast_to(o, rows.shape).ravel())
    return size, [tuple(map(np.concatenate, level)) for level in levels], np.arange(size)


class TestMergedStencilRows:
    @pytest.mark.parametrize("m, order, rows, kept", [(2, 2, 73, 57), (2, 3, 585, 313),
                                                      (3, 2, 157, 109), (3, 3, 1885, 749)])
    def test_row_counts(self, m, order, rows, kept):
        size, _, index = findiff._stencil(m, order)
        assert (len(index), size) == (rows, kept)
        assert reference_stencil(m, order)[0] == rows

    @pytest.mark.parametrize("name", catalog_names())
    def test_bit_identical_to_the_unmerged_stencil(self, name, monkeypatch):
        spec = catalog(name)
        # the crosscheck steps, and a wide one at which the order of the
        # additions to a coordinate shows in its last bits
        for order, step in itertools.product((1, 2, 3), (1e-4, 1e-2, 0.05)):
            (pt,) = sample_points(spec, 1, seed=order, extra_margin=2.02 * order * step)
            got = finite_difference_oracle(spec, pt, order, step)
            with monkeypatch.context() as patch:
                patch.setattr(findiff, "_stencil", reference_stencil)
                want = finite_difference_oracle(spec, pt, order, step)
            assert got.keys() == want.keys()
            for k in want:
                assert got[k].tobytes() == want[k].tobytes(), (order, k)


class TestDomainGuard:
    def test_stencil_must_fit(self, monkeypatch):
        with pytest.raises(DomainError):
            finite_difference_oracle(EXP_SPEC, (2.999,), order=1, step=1e-2)
        runs, checks = [], []
        compiled, check = findiff._compiled, findiff.check_point_in_domain

        def counting_compiled(spec, identity):
            run = compiled(spec, identity)
            return lambda rows, out: runs.append(1) or run(rows, out)

        monkeypatch.setattr(findiff, "_compiled", counting_compiled)
        monkeypatch.setattr(
            findiff, "check_point_in_domain", lambda *a: checks.append(1) or check(*a)
        )
        # the stencil reaches 2 h per order along one axis (u:[-3,3]): ending
        # exactly on either edge is inside, with steps exact in binary or not
        for order in (1, 2, 3):
            for step in (0.125, 1e-2):
                for edge in (-3.0, 3.0):
                    centre = edge - np.sign(edge) * 2 * order * step
                    finite_difference_oracle(EXP_SPEC, (centre,), order, step)
                    assert len(checks) == len(runs) == 1  # one domain check per call
                    checks.clear()
                    runs.clear()
                    # 1e-9 beyond the edge: rejected before the map runs, the
                    # message naming the stencil coordinate
                    beyond = centre + np.sign(edge) * 1e-9
                    message = r"coordinate u=-?3\.00000000\d* outside \[-3\.0, 3\.0\]"
                    with pytest.raises(DomainError, match=message):
                        finite_difference_oracle(EXP_SPEC, (beyond,), order, step)
                    assert (len(checks), len(runs)) == (1, 0)
                    checks.clear()

    def test_eval_checks_domain(self):
        with pytest.raises(DomainError):
            eval_map_numeric(EXP_SPEC, (3.5,))

    @pytest.mark.parametrize("point", [(), (0.5, 0.5)], ids=["no-coordinates", "two-coordinates"])
    def test_point_of_the_wrong_length(self, point):
        message = f"^point has {len(point)} coordinates, spec has 1 parameters$"
        with pytest.raises(DomainError, match=message):
            finite_difference_oracle(EXP_SPEC, point, order=1, step=1e-2)

    def test_bad_order_and_step(self):
        with pytest.raises(ValueError):
            finite_difference_oracle(EXP_SPEC, (0.0,), order=4, step=1e-2)
        with pytest.raises(ValueError):
            finite_difference_oracle(EXP_SPEC, (0.0,), order=1, step=0.0)


class TestJetsAgainstOracle:
    @pytest.mark.parametrize("name", catalog_names())
    def test_low_orders_everywhere(self, name):
        spec = catalog(name)
        for pt in sample_points(spec, 3, seed=11, extra_margin=2.5e-4):
            dev = jet_fd_deviation(spec, pt, order=2, step=1e-4)
            assert dev[1] < 1e-6, (name, pt, dev)
            assert dev[2] < 1e-6, (name, pt, dev)

    @pytest.mark.parametrize("name", catalog_names())
    def test_third_order(self, name):
        spec = catalog(name)
        for pt in sample_points(spec, 3, seed=5, extra_margin=0.062):
            dev = jet_fd_deviation(spec, pt, order=3, step=1e-2)
            assert dev[3] < 1e-3, (name, pt, dev)
