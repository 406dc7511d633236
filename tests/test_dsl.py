"""Parser, serializer, and evaluator for the immersion expression language."""

import cmath
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from lagkit.errors import (
    ArityError,
    DomainError,
    DslSyntaxError,
    SingularEvaluationError,
    UndeclaredParameterError,
    UnknownFunctionError,
)
from lagkit.dsl import check_point_in_domain, evaluate_map_jets
from lagkit.findiff import eval_map_numeric


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
        with pytest.raises(UndeclaredParameterError, match="w"):
            parse("params u:[0,1];\nsignature 1 0;\nmap w;")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError, match="tan"):
            parse("params u:[0,1];\nsignature 1 0;\nmap tan(u);")

    def test_function_arity(self):
        with pytest.raises(ArityError):
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

    def test_empty_input(self):
        with pytest.raises(DslSyntaxError):
            parse("")

    def test_bad_domain_bounds(self):
        with pytest.raises(ValueError):
            parse("params u:[1,0];\nsignature 1 0;\nmap u;")

    def test_negative_exponent(self):
        spec = parse("params u:[1,2];\nsignature 1 0;\nmap u^-2;")
        assert spec.components == (Pow(Ref("u"), -2),)


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
        (jet,) = evaluate_map_jets(spec, [(0.5,)], 3)
        assert eval_map_numeric(spec, (0.5,))[0] == pytest.approx(jet.value[0])


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


def _expr_strategy(leaves=_leaf, functions=("exp", "sin", "cos"), min_exponent=0):
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
        max_leaves=12,
    )


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

            jets_out = evaluate_map_jets(spec, pt, order=0)
            direct = eval_map_numeric(spec, pt)
            for j, z in zip(jets_out, direct):
                assert j.value == pytest.approx(z)

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

    def test_non_finite_derivatives_rejected(self):
        # the value underflows to 0 while the Hessian is 0 * inf = nan
        spec = parse("params u:[1,2];\nsignature 1 0;\nmap exp(-1e200*u*u);\n")
        from lagkit.dsl import evaluate_map_jets

        assert evaluate_map_jets(spec, (1.5,), order=1)[0].value == 0
        with pytest.raises(SingularEvaluationError, match="not finite"):
            evaluate_map_jets(spec, (1.5,), order=2)

    def test_overflow_rejected(self):
        spec = parse("params u:[0,800];\nsignature 1 0;\nmap cosh(u);\n")
        from lagkit.dsl import evaluate_map_jets

        with pytest.raises(SingularEvaluationError, match="overflows"):
            evaluate_map_jets(spec, (750.0,), order=1)
        with pytest.raises(SingularEvaluationError, match="cannot be evaluated"):
            eval_map_numeric(spec, (750.0,))

    def test_metadata_survives_transformations(self):
        spec = parse(GOOD).with_metadata(name="probe", expected_index=0)
        assert spec.name == "probe"
        assert spec.expected_index == 0
        assert spec.with_metadata(name="other").expected_index == 0


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

    def test_metadata_defaults_and_replace(self):
        spec = parse(GOOD)
        assert (spec.name, spec.expected_index, spec.quadric) == ("unnamed", None, None)
        named = spec.with_metadata(name="probe", expected_index=1)
        assert named.replace(name="unnamed", expected_index=None) == spec
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
