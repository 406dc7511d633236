"""Parser, serializer, and evaluator for the immersion expression language."""

import cmath
import gc
import math
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagkit import dsl, jets
from lagkit.ambient import AmbientQuadric, Signature
from lagkit.catalog import catalog, catalog_names
from lagkit.dsl import (
    MAX_DEPTH,
    Bin,
    Call,
    Imag,
    ImmersionSpec,
    Neg,
    Num,
    Param,
    Pow,
    Ref,
    parse,
    serialize,
    serialize_expr,
)
from lagkit.errors import DomainError, DslError, DslSyntaxError, SingularEvaluationError
from lagkit.dsl import check_point_in_domain, evaluate_map_jets
from lagkit.findiff import eval_map_numeric
from lagkit.sampling import sample_points


GOOD = (
    "params u:[0,1], v:[-1,1];\n"
    "signature 2 0;\n"
    "map u + i*v, cos(u)*exp(i*v);\n"
)


class TestParse:
    def test_basic_structure(self):
        spec = parse(GOOD)
        assert spec.param_names == ("u", "v")
        assert spec.signature.n == 2 and spec.signature.s == 0
        assert len(spec.components) == 2
        assert spec.params[1] == Param("v", -1.0, 1.0)

    def test_comments_and_whitespace(self):
        spec = parse(
            "# leading comment\nparams   u:[0, 1] ;  # trailing\n"
            "signature 1 0;\nmap\n  sin(u)  # the only component\n;"
        )
        assert spec.components == (Call("sin", Ref("u")),)

    def test_trailing_semicolon_optional(self):
        a = parse("params u:[0,1];\nsignature 1 0;\nmap u;")
        b = parse("params u:[0,1];\nsignature 1 0;\nmap u")
        assert a.same_structure(b)

    def test_component_count_must_match_n(self):
        with pytest.raises(DslSyntaxError, match="map has 2 components"):
            parse("params u:[0,1];\nsignature 3 0;\nmap u, u;")

    def test_duplicate_param(self):
        with pytest.raises(DslSyntaxError, match="duplicate"):
            parse("params u:[0,1], u:[0,2];\nsignature 1 0;\nmap u;")

    def test_reserved_param_names(self):
        with pytest.raises(DslSyntaxError):
            parse("params i:[0,1];\nsignature 1 0;\nmap i;")
        with pytest.raises(DslSyntaxError):
            parse("params sin:[0,1];\nsignature 1 0;\nmap sin;")

    def test_undeclared_parameter(self):
        with pytest.raises(DslSyntaxError, match="w"):
            parse("params u:[0,1];\nsignature 1 0;\nmap w;")

    def test_unknown_function(self):
        with pytest.raises(DslSyntaxError, match="tan"):
            parse("params u:[0,1];\nsignature 1 0;\nmap tan(u);")

    def test_function_arity(self):
        with pytest.raises(DslSyntaxError):
            parse("params u:[0,1];\nsignature 1 0;\nmap sin(u, u);")

    def test_power_requires_integer(self):
        with pytest.raises(DslSyntaxError):
            parse("params u:[0,1];\nsignature 1 0;\nmap u^1.5;")
        with pytest.raises(DslSyntaxError):
            parse("params u:[0,1];\nsignature 1 0;\nmap u^u;")

    def test_error_carries_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("params u:[0,1];\nsignature 1 0;\nmap u +;\n")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("params u:[0,1];\nsignature 2 0;\nmap 1e999*cos(u), sin(u);", 3, 5, "not a finite"),
            ("params u:[0,1e999];\nsignature 1 0;\nmap u;", 1, 13, "not a finite"),
            ("params u:[-1e999,1];\nsignature 1 0;\nmap u;", 1, 12, "not a finite"),
            ("params u:[0,1];\nsignature 1 0;\nmap u^" + "1" * 5000 + ";", 3, 7, "5000 digits"),
            ("params u:[0,1];\nsignature " + "2" * 4301 + " 0;\nmap u;", 2, 11, "4301 digits"),
        ],
        ids=["infinite_map", "infinite_hi", "infinite_lo", "long_exponent", "long_signature"],
    )
    def test_unrepresentable_literal_is_a_syntax_error(self, text, line, column, message):
        # at the token: float() reads it as infinite, or int() refuses its digits
        with pytest.raises(DslSyntaxError, match=message) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_empty_input(self):
        with pytest.raises(DslSyntaxError):
            parse("")

    def test_bad_domain_bounds(self):
        with pytest.raises(ValueError):
            parse("params u:[1,0];\nsignature 1 0;\nmap u;")

    def test_negative_exponent(self):
        spec = parse("params u:[1,2];\nsignature 1 0;\nmap u^-2;")
        assert spec.components == (Pow(Ref("u"), -2),)


def _text(body, params="u:[0,1]", sig="1 0"):
    return f"params {params};\nsignature {sig};\nmap {body};\n"


# malformed input -> (exception type, message, line, column), frozen so that
# a change to the parser keeps each outcome; several rows hold two faults,
# where the order of the checks picks the one reported
_OUTCOMES = {
    "empty": ("", DslSyntaxError, "expected keyword 'params', found 'end of input'", 1, 1),
    "reserved_function": (_text("u", "exp:[0,1]"), DslSyntaxError,
                          "'exp' is reserved and cannot name a parameter", 1, 8),
    "reserved_i": (_text("u", "i:[0,1]"), DslSyntaxError,
                   "'i' is reserved and cannot name a parameter", 1, 8),
    "reserved_keyword": (_text("u", "map:[0,1]"), DslSyntaxError,
                         "'map' is reserved and cannot name a parameter", 1, 8),
    "name_not_a_name": (_text("u", "2t:[0,1]"), DslSyntaxError,
                        "expected a parameter name, found '2'", 1, 8),
    "name_missing": ("params :[0,1];", DslSyntaxError,
                     "expected a parameter name, found ':'", 1, 8),
    "reserved_before_infinite_bound": (_text("u", "exp:[0,1e999]"), DslSyntaxError,
                                       "'exp' is reserved and cannot name a parameter", 1, 8),
    "reserved_before_bad_bound": (_text("u", "sin:[0,x]"), DslSyntaxError,
                                  "'sin' is reserved and cannot name a parameter", 1, 8),
    "infinite_hi": (_text("u", "u:[0,1e999]"), DslSyntaxError,
                    "numeric literal is not a finite number", 1, 13),
    "infinite_lo_before_order": (_text("u", "u:[1e999,0]"), DslSyntaxError,
                                 "numeric literal is not a finite number", 1, 11),
    "bound_not_a_number": (_text("u", "u:[-,1]"), DslSyntaxError,
                           "expected a number, found ','", 1, 12),
    "lo_above_hi": (_text("u", "u:[1,0]"), DslSyntaxError,
                    "parameter 'u': need lo < hi, got [1.0, 0.0]", 1, 8),
    "lo_equals_hi": (_text("u", "u:[-0.5,-0.5]"), DslSyntaxError,
                     "parameter 'u': need lo < hi, got [-0.5, -0.5]", 1, 8),
    "duplicate": (_text("u", "u:[0,1], v:[0,1], v:[0,2], u:[0,1]"), DslSyntaxError,
                  "duplicate parameter name 'v'", 3, 1),
    "duplicate_and_bad_signature": (_text("u", "u:[0,1], u:[0,2]", "1 2"), DslSyntaxError,
                                    "need 0 <= s <= n, got s=2, n=1", 3, 1),
    "duplicate_before_map_error": (_text("w", "u:[0,1], u:[0,2]"), DslSyntaxError,
                                   "duplicate parameter name 'u'", 3, 1),
    "duplicate_before_count": (_text("u, u", "u:[0,1], u:[0,2]"), DslSyntaxError,
                               "duplicate parameter name 'u'", 3, 1),
    "count_too_few": (_text("u", sig="2 0"), DslSyntaxError,
                      "signature declares n=2 but map has 1 components", 4, 1),
    "count_too_many": (_text("u, u, u", sig="2 0"), DslSyntaxError,
                       "signature declares n=2 but map has 3 components", 4, 1),
    "trailing_before_count": ("params u:[0,1];\nsignature 2 0;\nmap u u", DslSyntaxError,
                              "trailing input 'u'", 3, 7),
    "too_deep_before_trailing": (_text("+".join(["u"] * (MAX_DEPTH + 1)) + ")"), DslSyntaxError,
                                 "expression nested too deeply", 3, 206),
    "nested_too_deeply": (_text("(" * (MAX_DEPTH + 1) + "u" + ")" * (MAX_DEPTH + 1)),
                          DslSyntaxError, "expression nested too deeply", 3, 105),
    "signature_negative": (_text("u", sig="-1 0"), DslSyntaxError,
                           "expected an integer, found '-'", 2, 11),
    "signature_float": (_text("u", sig="1.5 0"), DslSyntaxError,
                        "expected an integer, found '1.5'", 2, 11),
    "signature_s_above_n": (_text("u", sig="1 2"), DslSyntaxError,
                            "need 0 <= s <= n, got s=2, n=1", 3, 1),
    "exponent_float": (_text("u^1.5"), DslSyntaxError, "expected an integer, found '1.5'", 3, 7),
    "exponent_negative_float": (_text("u^-1.5"), DslSyntaxError,
                                "expected an integer, found '1.5'", 3, 8),
    "exponent_double_minus": (_text("u^--2"), DslSyntaxError,
                              "expected an integer, found '-'", 3, 8),
    "exponent_name": (_text("u^-u"), DslSyntaxError, "expected an integer, found 'u'", 3, 8),
    "infinite_literal": (_text("1e999*u"), DslSyntaxError,
                         "numeric literal is not a finite number", 3, 5),
    "arity": (_text("sin(u, u)"), DslSyntaxError, "sin takes exactly one argument", 3, 10),
    "unknown_function": (_text("tan(u)"), DslSyntaxError, "unknown function 'tan'", 3, 5),
    "undeclared": (_text("w"), DslSyntaxError, "undeclared parameter 'w'", 3, 5),
    "dangling_operator": (_text("u +"), DslSyntaxError, "expected an expression, found ';'", 3, 8),
    "unclosed": (_text("(u"), DslSyntaxError, "expected ')', found ';'", 3, 7),
    "double_semicolon": (_text("u;"), DslSyntaxError, "trailing input ';'", 3, 7),
    "bad_character": (_text("u @ u"), DslSyntaxError, "unexpected character '@'", 3, 7),
    "missing_semicolon": ("params u:[0,1] v:[0,1];", DslSyntaxError,
                          "expected ';', found 'v'", 1, 16),
}


@pytest.mark.parametrize("case", _OUTCOMES)
def test_parse_outcome_is_frozen(case):
    text, kind, message, line, column = _OUTCOMES[case]
    with pytest.raises(DslError) as err:
        parse(text)
    assert type(err.value) is kind
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def _one_component(body):
    return f"params u:[0.1,1];\nsignature 1 0;\nmap {body};\n"


class TestDepthLimit:
    """Deeper input is a syntax error, never a RecursionError; the deepest
    accepted tree is evaluated, serialized and hashed without recursing out."""

    @pytest.mark.parametrize(
        "body",
        [
            "(" * 250 + "u" + ")" * 250,
            "exp(" * 300 + "u" + ")" * 300,
            "-" * 1000 + "u",
            "+".join(["u"] * 3000),
            "*".join(["u"] * (MAX_DEPTH + 1)),
        ],
        ids=["parentheses", "calls", "negations", "long_sum", "long_product"],
    )
    def test_too_deep_is_a_syntax_error(self, body):
        with pytest.raises(DslSyntaxError, match="nested too deeply") as err:
            parse(_one_component(body))
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "body",
        [
            "(" * (MAX_DEPTH - 1) + "u" + ")" * (MAX_DEPTH - 1),
            "sin(" * (MAX_DEPTH - 1) + "u" + ")" * (MAX_DEPTH - 1),
            "+".join(["u"] * MAX_DEPTH),
        ],
        ids=["parentheses", "calls", "sum"],
    )
    def test_deepest_accepted_tree_is_usable(self, body):
        spec = parse(_one_component(body))
        assert parse(serialize(spec)).same_structure(spec)
        hash(spec)
        value = evaluate_map_jets(spec, [(0.5,)], 3)[0]  # (1, n): one point, one component
        assert eval_map_numeric(spec, (0.5,))[0] == pytest.approx(value[0, 0])


class TestSerialize:
    def test_canonical_text(self):
        spec = parse(GOOD)
        text = serialize(spec)
        assert text.startswith("params u:[0,1], v:[-1,1];\nsignature 2 0;\nmap ")
        assert parse(text).same_structure(spec)

    def test_precedence_parentheses(self):
        e = Bin("*", Bin("+", Ref("u"), Num(1.0)), Ref("v"))
        assert serialize_expr(e) == "(u+1)*v"
        e2 = Bin("-", Ref("u"), Bin("-", Ref("v"), Num(1.0)))
        assert serialize_expr(e2) == "u-(v-1)"
        e3 = Neg(Bin("+", Ref("u"), Ref("v")))
        assert serialize_expr(e3) == "-(u+v)"
        e4 = Pow(Bin("+", Ref("u"), Num(1.0)), 2)
        assert serialize_expr(e4) == "(u+1)^2"

    def test_catalog_round_trips(self):
        for name in catalog_names():
            spec = catalog(name)
            assert parse(serialize(spec)).same_structure(spec), name


# random AST generation: closed expressions over two parameters; negative
# literals appear as Neg(Num(+x)), matching what the serializer emits
_leaf = st.sampled_from(
    [Num(1.0), Num(2.5), Num(0.0), Neg(Num(3.0)), Imag(), Ref("u"), Ref("v")]
)


def _expr_strategy(leaves=_leaf, functions=("exp", "sin", "cos"), min_exponent=0, max_leaves=12):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Bin(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=min_exponent, max_value=3)).map(
                lambda t: Pow(t[0], t[1])
            ),
            st.tuples(st.sampled_from(functions), children).map(
                lambda t: Call(t[0], t[1])
            ),
        ),
        max_leaves=max_leaves,
    )


@st.composite
def shared_components(draw, leaves=_leaf, functions=("exp", "sin", "cos"), min_exponent=0):
    """Two components built over a pool of up to three subtrees, so that equal
    subtrees recur within and across the components."""
    small = _expr_strategy(leaves, functions, min_exponent, max_leaves=4)
    pool = draw(st.lists(small, min_size=1, max_size=3))
    exprs = _expr_strategy(st.sampled_from(pool) | leaves, functions, min_exponent, max_leaves=6)
    return draw(exprs), draw(exprs)


class TestRoundTripProperty:
    @given(_expr_strategy(), _expr_strategy())
    @settings(max_examples=80, deadline=None)
    def test_parse_of_serialize_is_identity(self, e1, e2):
        spec = ImmersionSpec(
            params=(Param("u", -1.0, 1.0), Param("v", 0.0, 2.0)),
            signature=__import__("lagkit").Signature(2, 0),
            components=(e1, e2),
        )
        again = parse(serialize(spec))
        assert again.components == spec.components
        assert again.params == spec.params


class TestEvaluation:
    def test_matches_independent_evaluator(self):
        spec = parse(GOOD)
        for pt in [(0.2, -0.3), (0.9, 0.5)]:
            from lagkit.dsl import evaluate_map_jets

            (value,) = evaluate_map_jets(spec, pt, order=0)  # (1, n)
            direct = eval_map_numeric(spec, pt)
            for v, z in zip(value[0], direct):
                assert v == pytest.approx(z)

    def test_imaginary_unit(self):
        spec = parse("params u:[0,1];\nsignature 1 0;\nmap i*i;")
        direct = eval_map_numeric(spec, (0.5,))
        assert direct[0] == pytest.approx(-1.0)

    def test_closed_form(self):
        spec = parse(
            "params u:[0.1,2], v:[-1,1];\nsignature 1 0;\nmap exp(i*(u+v))/sqrt(u);"
        )
        u, v = 0.7, 0.4
        want = cmath.exp(1j * (u + v)) / cmath.sqrt(u)
        assert eval_map_numeric(spec, (u, v))[0] == pytest.approx(want)

    def test_domain_enforced(self):
        spec = parse(GOOD)
        with pytest.raises(DomainError):
            eval_map_numeric(spec, (1.5, 0.0))
        from lagkit.dsl import evaluate_map_jets

        with pytest.raises(DomainError):
            evaluate_map_jets(spec, (0.5, 2.0), order=1)

    def test_domain_rule_over_a_batch(self):
        # one rule for a point and a batch: the first bad row, its first bad
        # coordinate, printed as a Python float
        spec = parse(GOOD)  # u:[0,1], v:[-1,1]
        for points, message in [
            ((1.5, 0.0), "coordinate u=1.5 outside [0.0, 1.0]"),
            ([(0.5, 0.0), (0.5, -3.0), (2.0, 2.0)], "coordinate v=-3.0 outside [-1.0, 1.0]"),
            ([(0.5, 0.0), (2.0, 2.0)], "coordinate u=2.0 outside [0.0, 1.0]"),
            ([(0.5, 0.0), (0.5, float("nan"))], "coordinate v=nan outside [-1.0, 1.0]"),
            ((1.0 + 1e-12, -1.0 - 2e-12), "coordinate v=-1.000000000002 outside [-1.0, 1.0]"),
            ((0.5, 0.0, 0.0), "point has 3 coordinates, spec has 2 parameters"),
            ([(0.5,), (0.5,)], "point has 1 coordinates, spec has 2 parameters"),
        ]:
            for evaluate in (eval_map_numeric, lambda s, p: evaluate_map_jets(s, p, order=1)):
                with pytest.raises(DomainError) as info:
                    evaluate(spec, points)
                assert str(info.value) == message
        check_point_in_domain(spec, [(0.0, -1.0 - 1e-12), (1.0 + 1e-12, 1.0)])  # slack
        # the box is kept per parameter tuple: a spec with the same
        # names but other bounds is judged by its own box, in either order
        wide = parse(GOOD.replace("u:[0,1]", "u:[0,3]"))
        for s in (wide, spec, wide):
            if s is wide:
                check_point_in_domain(s, (2.0, 0.0))
            else:
                with pytest.raises(DomainError, match="u=2.0 outside"):
                    check_point_in_domain(s, (2.0, 0.0))
        # the slack is 1e-12, no more
        check_point_in_domain(spec, (1.0 + 1e-12, 0.0))
        with pytest.raises(DomainError, match=re.escape("u=1.000000001 outside")):
            check_point_in_domain(spec, (1.0 + 1e-9, 0.0))

    def test_non_finite_derivatives_rejected(self):
        # the value underflows to 0 while the Hessian is 0 * inf = nan
        spec = parse("params u:[1,2];\nsignature 1 0;\nmap exp(-1e200*u*u);\n")
        from lagkit.dsl import evaluate_map_jets

        assert evaluate_map_jets(spec, (1.5,), order=1)[0][0, 0] == 0
        with pytest.raises(SingularEvaluationError, match="not finite"):
            evaluate_map_jets(spec, (1.5,), order=2)
        # in a batch, the first non-finite point is named: all derivatives
        # are finite at u = 0, not at the second and third points
        spec = parse("params u:[0,2];\nsignature 1 0;\nmap exp(-1e200*u*u);\n")
        with pytest.raises(SingularEvaluationError, match=re.escape("not finite at (1.5,)")):
            evaluate_map_jets(spec, [(0.0,), (1.5,), (1.25,)], order=2)

    def test_overflow_rejected(self):
        spec = parse("params u:[0,800];\nsignature 1 0;\nmap cosh(u);\n")
        from lagkit.dsl import evaluate_map_jets

        with pytest.raises(SingularEvaluationError, match="cannot be evaluated"):
            evaluate_map_jets(spec, (750.0,), order=1)
        with pytest.raises(SingularEvaluationError, match="cannot be evaluated"):
            eval_map_numeric(spec, (750.0,))

    def test_metadata_survives_transformations(self):
        spec = parse(GOOD).replace(name="probe", quadric=AmbientQuadric(1.0))
        assert spec.name == "probe"
        assert spec.quadric == AmbientQuadric(1.0)
        assert spec.replace(name="other").quadric == AmbientQuadric(1.0)


# Reference evaluator: the recursive walk of the expression tree that the plan
# replaced, one kernel call per node and occurrence on (value, high) pairs.
# evaluate_map_jets must give its tensors and errors exactly.
def eval_expr(e, env):
    rule = _RULES.get(type(e))
    if rule is None:
        raise TypeError(f"not an expression node: {e!r}")
    return rule(e, env)


def _apply(kernel, x, *rest):
    """kernel(x, *rest); on numbers alone, on x's order-0 pair (jets._number):
    values free of parameters stay numbers, so 2*u costs one scaling."""
    return kernel(x, *rest) if type(x) is tuple else jets._number(kernel, x, *rest)


def _binary(op, a, b):
    """The kernel of op on the operands a, b: pairs or numbers."""
    on = (type(a) is tuple, type(b) is tuple)
    if any(on):
        return jets._OPERATORS[op, on](a, b)
    return jets._number(jets._OPERATORS[op, (1, 0)], a, b)


_RULES = {  # a constant is real, as a parameter's seed is
    Num: lambda e, env: float(e.value),
    Imag: lambda e, env: 1j,
    Ref: lambda e, env: env[e.name],
    Neg: lambda e, env: _apply(jets._negative, eval_expr(e.arg, env)),
    Bin: lambda e, env: _binary(e.op, eval_expr(e.left, env), eval_expr(e.right, env)),
    Pow: lambda e, env: _apply(jets._ipow, eval_expr(e.base, env), e.exponent),
    Call: lambda e, env: _apply(dsl._FUNCTIONS[e.fn], eval_expr(e.arg, env)),
}


def walk_map_jets(spec, points, order, dtype=float):
    """The walk's tensors; with dtype=complex every seed is complex, so every
    step that meets a parameter runs in complex arithmetic."""
    pts = np.array(points, dtype=float, ndmin=2)
    m, dirs = spec.num_params, jets._directions(spec.num_params, max(order, 1))
    check_point_in_domain(spec, pts)
    env = {}
    for k, p in enumerate(spec.params):  # x_k: value pts[:, k], degree 1 the directions' s_k
        high = np.zeros((order, len(dirs), len(pts)), dtype=dtype)
        high[:1] = dirs[:, k, None]
        env[p.name] = (pts[:, k].astype(dtype)[None, None], high)
    try:
        with np.errstate(all="ignore"):
            out = [eval_expr(c, env) for c in spec.components]
    except SingularEvaluationError as exc:  # a kernel guard's, at the point of its row
        where = tuple(pts[exc.row].tolist())
        raise SingularEvaluationError(
            f"map cannot be evaluated at {where}: {exc}", row=exc.row
        ) from exc
    for c, j in enumerate(out):  # a number's jet: its value at every point, no derivative
        if type(j) is not tuple:
            value = np.full(len(pts), j)
            out[c] = (value[None, None], np.zeros((order, len(dirs), len(pts)), value.dtype))
    with np.errstate(all="ignore"):
        tensors = jets._interpolate(m, order, len(pts), out)
    if not all(np.isfinite(t).all() for t in tensors):
        finite = [np.isfinite(t).reshape(len(pts), -1).all(axis=1) for t in tensors]
        row = int(np.argmin(np.all(finite, axis=0)))
        bad = tuple(pts[row].tolist())
        raise SingularEvaluationError(f"map or its derivatives not finite at {bad}", row=row)
    return tensors


def _outcome(evaluate):
    """("value", shape and bytes of each tensor) or (exception type, message, row)."""
    try:
        return "value", [(t.shape, t.tobytes()) for t in evaluate()]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


def assert_same_as_walk(spec, points, order=3):
    want = _outcome(lambda: walk_map_jets(spec, points, order))
    assert _outcome(lambda: evaluate_map_jets(spec, points, order)) == want


_UV = (Param("u", -1.0, 1.0), Param("v", 0.0, 2.0))
_TWO_U = Bin("*", Num(2.0), Ref("u"))
_OVERFLOW = Call("exp", Bin("*", Num(800.0), Ref("v")))  # beyond float range for v > 0.89


def _zero_times(zero):  # its imaginary part has the sign of zero
    return Bin("*", Num(zero), Bin("+", Neg(Num(1.0)), Imag()))


class TestSharedEvaluation:
    """One jet operation per distinct subexpression gives the walk's tensors
    and errors, bit for bit."""

    @given(
        shared_components(st.one_of(_leaf, st.sampled_from([Num(800.0), Num(1e-160)]))),
        st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 2)), min_size=1, max_size=3),
        st.sampled_from([1, 3]),
    )
    # a shared jet with a pending scaling is a component and an operand
    @example((_TWO_U, Bin("*", _TWO_U, Ref("v"))), [(0.5, 1.0)], 3)
    @example((Bin("*", Num(2.5), Call("sin", Ref("u"))),
              Bin("*", Bin("*", Num(2.5), Call("sin", Ref("u"))), Ref("v"))), [(0.3, 0.7)], 3)
    # equal records, other bits
    @example((_zero_times(0.0), _zero_times(-0.0)), [(0.5, 1.0)], 3)
    # the shared subtree overflows: the walk's message
    @example((Bin("+", _OVERFLOW, Ref("u")), _OVERFLOW), [(0.5, 1.5)], 3)
    @example((Bin("+", _OVERFLOW, Ref("u")), _OVERFLOW), [(0.5, 0.5), (0.5, 1.5)], 1)
    @settings(max_examples=300, deadline=None)
    def test_tensors_and_errors_of_the_recursive_walk(self, components, points, order):
        assert_same_as_walk(ImmersionSpec(_UV, Signature(2, 0), components), points, order)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        spec = catalog(name)
        assert_same_as_walk(spec, sample_points(spec, 7, seed=5))

    def test_one_jet_operation_per_distinct_subexpression(self, monkeypatch):
        spec = catalog("product_S1xS2")
        pt = sample_points(spec, 1, seed=3)[0]
        calls = []

        def counting(*args):
            calls.append(1)
            return compose(*args)

        compose = jets._compose
        monkeypatch.setattr(jets, "_compose", counting)
        evaluate_map_jets(spec, pt, 3)
        assert len(calls) == 5  # the walk's 8 repeat exp(i*t) in every component
        calls.clear()
        walk_map_jets(spec, pt, 3)
        assert len(calls) == 8

    @pytest.mark.parametrize(
        "component",
        [Call("tan", Ref("u")), Bin("%", Ref("u"), Num(2.0)), Pow(Ref("u"), 2.0), Ref("w"), "u"],
        ids=repr,
    )
    def test_invalid_node_raises(self, component):
        spec = ImmersionSpec((Param("u", -1.0, 1.0),), Signature(1, 0), (component,))
        with pytest.raises(DslError, match=re.escape(f"invalid expression node {component!r}")):
            evaluate_map_jets(spec, (0.5,), 1)


_MIXED = ["v*(u+i)", "(u+i)*v", "v/(u+i)", "(u+i)-v", "2*(u+i)", "sin(u+i)*v"]
_MIXED_POINTS = {
    "point": [(0.3, 1.7)],
    "batch": [(0.3, 1.7), (-0.8, 0.2), (0.0, 1.0), (0.9, 0.5), (-0.25, 1.25)],
}


def _signless(outcome):
    """An outcome with the value a division or sqrt guard names as its
    modulus: the signs of its zero parts follow the dtype (-1.0 * 0.0 is -0.0,
    but (-1+0j) * (0+0j) is 0j)."""
    if outcome[0] == "value":
        return outcome
    pattern = r"(division by (?:poorly conditioned value )?|tiny value )(\S+)$"
    message = re.sub(pattern, lambda x: f"{x[1]}{abs(complex(x[2]))}", outcome[1])
    return outcome[0], message, outcome[2]


def assert_real_steps_as_complex(spec, points, order):
    """The compiled plan gives the walk's tensors and errors bit for bit, and
    its tensors and errors are those of complex arithmetic, the tensors to
    1e-12 of the map's size (real and complex exp, sin, ... may round apart)."""
    assert_same_as_walk(spec, points, order)
    want = _signless(_outcome(lambda: walk_map_jets(spec, points, order, dtype=complex)))
    got = _signless(_outcome(lambda: evaluate_map_jets(spec, points, order)))
    assert got[0] == want[0]
    if got[0] != "value":
        assert got == want
        return
    got = evaluate_map_jets(spec, points, order)
    want = walk_map_jets(spec, points, order, dtype=complex)
    size = max(1.0, *(np.abs(w).max() for w in want))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * size)


class TestRealAndComplexSteps:
    """Parameters and constants are real, and a step stays real until a
    complex operand meets it; the kernels promote where one does."""

    def test_dtypes(self):
        values, highs = jets._seeds(np.array([(0.5, 1.0)]), 3)
        assert values.dtype == highs.dtype == np.float64

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("where", list(_MIXED_POINTS))
    @pytest.mark.parametrize("text", _MIXED)
    def test_mixed_operands(self, text, where, order):
        # v*(u+i): a real product times a pair with a complex value and a real high
        spec = parse(f"params u:[-1,1], v:[0,2];\nsignature 1 0;\nmap {text};\n")
        assert_real_steps_as_complex(spec, _MIXED_POINTS[where], order)

    # numpy's real and complex exp, sin and cos may round apart in the last
    # bit, which a cancelling map magnifies past any fixed tolerance; +, -,
    # *, /, powers and sqrt do the same arithmetic on real data in either
    # dtype (the cases above cover the other functions)
    @given(
        shared_components(functions=("sqrt",)),
        st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 2)), min_size=1, max_size=4),
        st.sampled_from([1, 2, 3]),
    )
    # a real step at -0.0 divides by (-0+0j), its complex counterpart by (-0-0j),
    # and takes the sqrt of -0.0, where complex arithmetic has 0.0
    @example((Num(1.0), Bin("/", Num(1.0), Neg(Bin("*", Num(1.0), Ref("u"))))), [(0.0, 0.0)], 1)
    @example((Num(1.0), Call("sqrt", Bin("*", Num(1.0), Neg(Ref("u"))))), [(0.0, 0.0)], 1)
    # v^3/v^3 cancels terms near 4e4 in its third degree: the reciprocal's
    # coefficients and the chain rule's 1/6 must round alike in either dtype
    @example((Num(1.0), Bin("/", Neg(Pow(Ref("v"), 3)), Neg(Pow(Ref("v"), 3)))),
             [(0.0, 0.4269555708526146)], 3)
    @settings(max_examples=200, deadline=None)
    def test_generated_maps(self, components, points, order):
        assert_real_steps_as_complex(ImmersionSpec(_UV, Signature(2, 0), components), points, order)

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize(
        "text, points, kernel, message",
        [
            ("1/(u - 0.5)", [(0.25,), (0.5,), (0.75,), (0.5,)], "_reciprocal",
             "map cannot be evaluated at (0.5,): division by 0j"),
            ("sqrt(u - 0.5)", [(0.75,), (0.25,), (0.0,)], "_sqrt",
             "map cannot be evaluated at (0.25,): sqrt at non-positive or tiny value -0.25"),
            ("sqrt(u - 0.5)", [(0.75,), (0.5 + 1e-13,)], "_sqrt",
             "map cannot be evaluated at (0.5000000000001,): "
             "sqrt at non-positive or tiny value 1.000310945187266e-13"),
            ("exp(800*u)", [(0.5,), (1.0,), (0.9,)], "_exp",
             "map cannot be evaluated at (1.0,): math range error"),
            ("sinh(800*u)", [(0.5,), (1.0,)], "_sinh",
             "map cannot be evaluated at (1.0,): math range error"),
            ("cosh(800*u)", [(0.5,), (1.0,)], "_cosh",
             "map cannot be evaluated at (1.0,): math range error"),
        ],
        ids=["division", "sqrt-negative", "sqrt-tiny", "exp", "sinh", "cosh"],
    )
    def test_a_guard_on_a_real_step(self, monkeypatch, text, points, kernel, message, order):
        # the messages and rows every step in complex128 gave
        operands = []
        fn = getattr(jets, kernel)
        monkeypatch.setattr(jets, kernel, lambda u: operands.append(u[0].dtype) or fn(u))
        spec = parse(f"params u:[0,1];\nsignature 1 0;\nmap {text};\n")  # compiled anew
        with pytest.raises(SingularEvaluationError) as info:
            evaluate_map_jets(spec, points, order)
        assert (str(info.value), info.value.row) == (message, 1)
        assert operands == [np.float64]


def _garbage_after(run):
    """Objects run() leaves for the garbage collector, counted with it off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestCompiledPlan:
    """The plan runs compiled: a point's jets do not depend on its batch, a
    constant that raises or warns does so on every evaluation, and no
    reference cycle is left behind."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_a_point_does_not_depend_on_its_batch(self, name):
        spec = catalog(name)
        pts = sample_points(spec, 200, seed=13)
        for order in (1, 2, 3):
            batch = evaluate_map_jets(spec, pts, order)
            for b in range(0, len(pts), 7):
                alone = evaluate_map_jets(spec, pts[b], order)
                assert [t[0].tobytes() for t in alone] == [t[b].tobytes() for t in batch]

    @given(
        st.sampled_from([1, 2]).flatmap(
            lambda m: st.tuples(
                st.just(m),
                shared_components(_leaf.filter(lambda e: m == 2 or e != Ref("v"))),
                st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 2)), min_size=2, max_size=4),
            )
        ),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=200, deadline=None)
    # one curve whose products multiply two non-real numbers
    @example((1, (Bin("*", Call("exp", Bin("*", Bin("+", Num(1.0), Imag()), Ref("u"))),
                       Call("sin", Bin("-", Num(2.0), Bin("*", Imag(), Ref("u"))))),
                  Pow(Bin("+", Ref("u"), Imag()), 3)), [(0.3, 0.0), (0.7, 0.0)]), 3)
    def test_a_point_of_a_drawn_map_does_not_depend_on_its_batch(self, case, order):
        m, components, points = case
        spec = ImmersionSpec(_UV[:m], Signature(2, 0), components)
        pts = np.array(points)[:, :m]
        try:
            batch = evaluate_map_jets(spec, pts, order)
        except (SingularEvaluationError, RuntimeWarning):
            return  # singular or poorly conditioned at some point
        for b in range(len(pts)):
            alone = evaluate_map_jets(spec, pts[b], order)
            assert [t[0].tobytes() for t in alone] == [t[b].tobytes() for t in batch]

    def test_a_constant_that_raises_raises_on_every_evaluation(self):
        spec = parse("params u:[0,1]; signature 1 0; map u + 1/(1-1);")
        for _ in range(2):
            message = r"^map cannot be evaluated at \(0\.5,\): division by 0j$"
            with pytest.raises(SingularEvaluationError, match=message):
                evaluate_map_jets(spec, (0.5,), 2)

    def test_a_constant_that_warns_warns_on_every_evaluation(self):
        spec = parse("params u:[0,1]; signature 1 0; map u/1e-7;")
        message = re.escape("division by poorly conditioned value (1e-07+0j)")
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match=f"^{message}$"):
                evaluate_map_jets(spec, (0.5,), 2)

    def test_first_evaluations_leave_no_reference_cycle(self):
        from lagkit.checks import SampleConfig, run_suite
        from lagkit.findiff import jet_fd_deviation

        spec = parse("params u:[0,1], v:[0,1]; signature 2 0; map u, u;")
        assert _garbage_after(lambda: run_suite(spec, SampleConfig(num_points=20))) == 0
        spec = parse("params u:[0,1], v:[0,1]; signature 2 0; map u*v, u*v*v;")
        assert _garbage_after(lambda: jet_fd_deviation(spec, (0.5, 0.5), 3, 1e-2)) == 0


# (constant, dtype of its value, float.hex of its real and imaginary parts):
# frozen bits of the jet code's arithmetic, not to be regenerated from it
_NUMBER_STEPS = [
    ("2+3", "float64", "0x1.4000000000000p+2", "0x0.0p+0"),
    ("2-3", "float64", "-0x1.0000000000000p+0", "0x0.0p+0"),
    ("2*3", "float64", "0x1.8000000000000p+2", "0x0.0p+0"),
    ("2/3", "float64", "0x1.5555555555555p-1", "0x0.0p+0"),
    ("-(2/3)", "float64", "-0x1.5555555555555p-1", "0x0.0p+0"),
    ("3^2", "float64", "0x1.2000000000000p+3", "0x0.0p+0"),
    ("2^-3", "float64", "0x1.0000000000000p-3", "0x0.0p+0"),
    ("3^0", "float64", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("exp(1/2)", "float64", "0x1.a61298e1e069cp+0", "0x0.0p+0"),
    ("sin(1/2)", "float64", "0x1.eaee8744b05f0p-2", "0x0.0p+0"),
    ("cos(1/2)", "float64", "0x1.c1528065b7d50p-1", "0x0.0p+0"),
    ("sinh(1/2)", "float64", "0x1.0acd00fe63b97p-1", "0x0.0p+0"),
    ("cosh(1/2)", "float64", "0x1.20ac1862ae8d0p+0", "0x0.0p+0"),
    ("sqrt(3)", "float64", "0x1.bb67ae8584caap+0", "0x0.0p+0"),
    ("(1+i)+2", "complex128", "0x1.8000000000000p+1", "0x1.0000000000000p+0"),
    ("2-(1+i)", "complex128", "0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
    ("(2*i)*3", "complex128", "0x0.0p+0", "0x1.8000000000000p+2"),
    ("(1+i)*(2-i)", "complex128", "0x1.8000000000000p+1", "0x1.0000000000000p+0"),
    ("2/(1+i)", "complex128", "0x1.0000000000000p+0", "-0x1.0000000000000p+0"),
    ("(1+i)/3", "complex128", "0x1.5555555555555p-2", "0x1.5555555555555p-2"),
    ("(1+i)/(2-i)", "complex128", "0x1.999999999999ap-3", "0x1.3333333333334p-1"),
    ("(1+i)^3", "complex128", "-0x1.0000000000000p+1", "0x1.0000000000000p+1"),
    ("(1+i)^-2", "complex128", "0x0.0p+0", "-0x1.0000000000000p-1"),
    ("(2*i)^0", "complex128", "0x1.0000000000000p+0", "0x0.0p+0"),
    ("exp(i)", "complex128", "0x1.14a280fb5068cp-1", "0x1.aed548f090ceep-1"),
    ("sin(1+i)", "complex128", "0x1.4c67b74f6cc4fp+0", "0x1.4519fd8047f92p-1"),
    ("cos(1+i)", "complex128", "0x1.aadea96f4359bp-1", "-0x1.fa50ccd2ae8f3p-1"),
    ("sinh(1+i)", "complex128", "0x1.4519fd8047f92p-1", "0x1.4c67b74f6cc4fp+0"),
    ("cosh(1+i)", "complex128", "0x1.aadea96f4359bp-1", "0x1.fa50ccd2ae8f3p-1"),
    ("sqrt(2+0*i)", "float64", "0x1.6a09e667f3bcdp+0", "0x0.0p+0"),
]


class TestNumberSteps:
    """A step whose operands are numbers runs its kernel on a number's order-0
    pair, so a constant has the bits of the jet code's arithmetic."""

    @pytest.mark.parametrize(
        "text, dtype, real, imag", _NUMBER_STEPS, ids=[c[0] for c in _NUMBER_STEPS]
    )
    def test_value(self, text, dtype, real, imag):
        spec = parse(f"params u:[0,1];\nsignature 1 0;\nmap {text};\n")
        (got,) = dsl._compiled(spec, id(spec))(*jets._seeds(np.array([(0.5,)]), 0))
        assert np.asarray(got).dtype == dtype
        assert (complex(got).real.hex(), complex(got).imag.hex()) == (real, imag)
        (value,) = evaluate_map_jets(spec, (0.5,), 0)
        assert value.tobytes() == np.complex128(got).tobytes()


class TestRecords:
    """AST nodes and specs are value records: equal by type and fields, frozen."""

    def test_value_semantics(self):
        node = Bin("+", Ref("u"), Pow(Num(2.0), 3))
        same = Bin("+", Ref("u"), Pow(Num(2.0), 3))
        assert node == same and hash(node) == hash(same)
        assert Num(1.0) != Ref(1.0)  # equal fields, other node type
        assert Imag() == Imag() and Imag() != Num(0.0)
        assert vars(node) == {"op": "+", "left": Ref("u"), "right": Pow(Num(2.0), 3)}
        assert repr(Call("exp", Ref("u"))) == "Call(fn='exp', arg=Ref(name='u'))"
        with pytest.raises(AttributeError):
            node.op = "-"

    def test_construction_checks_fields(self):
        assert Param(lo=0.0, hi=1.0, name="u") == Param("u", 0.0, 1.0)
        with pytest.raises(TypeError):
            Param("u", 0.0)
        with pytest.raises(TypeError):
            Param("u", 0.0, 1.0, lo=0.0)
        with pytest.raises(TypeError):
            parse(GOOD).replace(nmae="typo")

    @pytest.mark.parametrize("name", ["exp", "i", "map", "signature", "2t", "é", "t ", ""])
    def test_param_refuses_a_name_parse_refuses(self, name):
        with pytest.raises(ValueError, match="parameter name|cannot name a parameter"):
            Param(name, 0.0, 1.0)

    def test_spec_refuses_no_parameters(self):
        # parse cannot build one: its grammar asks for a parameter first
        with pytest.raises(ValueError, match="^at least one parameter required$"):
            ImmersionSpec((), Signature(1, 0), (Num(1.0),))

    def test_spec_refuses_a_repeated_name(self):
        params = (Param("u", 0.0, 1.0), Param("u", 0.0, 2.0))
        with pytest.raises(ValueError, match="duplicate parameter name 'u'"):
            ImmersionSpec(params, Signature(2, 0), (Ref("u"), Ref("u")))

    @pytest.mark.parametrize(
        "value", [-1.0, -1e-300, math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400")]
    )
    def test_num_refuses_a_literal_parse_refuses(self, value):
        with pytest.raises(ValueError, match="numeric literal"):
            Num(value)

    def test_num_keeps_the_sign_of_zero(self):
        assert math.copysign(1.0, Num(-0.0).value) == -1.0

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_param_refuses_a_bound_parse_refuses(self, lo, hi):
        with pytest.raises(ValueError, match="numeric literal is not a finite number"):
            Param("u", lo, hi)

    def test_a_negative_literal_serializes_as_a_negation(self):
        # (-1)^2 + u is 1.5 at u = 0.5, where u+-1^2 would read back as -0.5
        square = Pow(Neg(Num(1.0)), 2)
        spec = ImmersionSpec((Param("u", 0.0, 1.0),), Signature(1, 0), (Bin("+", Ref("u"), square),))
        again = parse(serialize(spec))
        assert again.same_structure(spec) and serialize_expr(square) == "(-1)^2"
        assert eval_map_numeric(again, (0.5,)) == eval_map_numeric(spec, (0.5,)) == 1.5

    def test_metadata_defaults_and_replace(self):
        spec = parse(GOOD)
        assert (spec.name, spec.quadric) == ("unnamed", None)
        named = spec.replace(name="probe", quadric=AmbientQuadric(-1.0))
        assert named.replace(name="unnamed", quadric=None) == spec
        assert named.same_structure(spec) and named != spec

    def test_a_pickled_spec_hashes_afresh(self):
        spec = parse(GOOD)
        hash(spec)  # cached now; str hashes differ between processes
        script = (
            "import pickle, sys\n"
            "from lagkit.dsl import parse\n"
            "spec = pickle.loads(sys.stdin.buffer.read())\n"
            f"assert spec == parse({GOOD!r}) and hash(spec) == hash(parse({GOOD!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(spec), capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
