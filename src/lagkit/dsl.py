"""Tiny expression language for parameterized immersions into C^n.

Grammar (UTF-8 text, `#` starts a comment running to end of line):

    spec      := "params" param ("," param)* ";"
                 "signature" INT INT ";"
                 "map" expr ("," expr)* [";"]
    param     := NAME ":" "[" ["-"] NUMBER "," ["-"] NUMBER "]"
    expr      := term (("+" | "-") term)*
    term      := unary (("*" | "/") unary)*
    unary     := "-" unary | power
    power     := atom ["^" ["-"] INT]
    atom      := NUMBER | "i" | NAME | NAME "(" expr ")" | "(" expr ")"

`i` is the imaginary unit.  Functions: exp, sin, cos, sinh, cosh, sqrt (sqrt
only for positive real subexpressions).  Powers take integer exponents only,
which keeps evaluation total and differentiable on the domain box.  Deeper
trees or nesting than MAX_DEPTH (100) levels are a DslSyntaxError.  A parameter
name is a NAME other than i, a function or a keyword, names are unique,
lo < hi, and a NUMBER is finite (a Num holds one, unsigned; a bound holds
one with its sign): Num, Param and ImmersionSpec hold these rules, so a spec
built in code breaks them with the ValueError whose message parse reports at
the token.

serialize() emits canonical text; parse(serialize(spec)) reproduces the
params/signature/components structure exactly.

Both evaluators, the jets here and findiff's cmath code, run one plan per spec
object (_plan): each distinct subtree once, subtrees the same when type, fields
and operands are, a constant by its exact bits (Num(0.0) == Num(-0.0) as records).
"""

from __future__ import annotations

import functools
import operator
import re
import sys

import numpy as np

from .ambient import Signature
from .errors import (
    ArityError,
    DomainError,
    DslError,
    DslSyntaxError,
    SingularEvaluationError,
    UndeclaredParameterError,
    UnknownFunctionError,
)
from . import jets
from .jets import Jet
from .record import Record

__all__ = [
    "Num",
    "Imag",
    "Ref",
    "Neg",
    "Bin",
    "Pow",
    "Call",
    "Param",
    "ImmersionSpec",
    "parse",
    "serialize",
    "serialize_expr",
    "evaluate_map_jets",
    "FUNCTION_NAMES",
]

FUNCTION_NAMES = ("exp", "sin", "cos", "sinh", "cosh", "sqrt")
MAX_DEPTH = 100  # deepest tree and nesting parse accepts: walks of the tree recurse
_KEYWORDS = ("params", "signature", "map")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # the grammar's NAME


# -- AST ---------------------------------------------------------------------

class Num(Record):
    _fields = ("value",)

    def __post_init__(self):
        self._check_value(self.value)

    @staticmethod
    def _check_value(value):
        """The rule for a NUMBER, which parse applies at its token: a finite
        value not below zero, since a minus sign is a Neg node."""
        if not abs(value) <= sys.float_info.max:  # NaN too, and ints no float holds
            raise ValueError("numeric literal is not a finite number")
        if value < 0:
            raise ValueError(f"numeric literal {value!r} is negative: a minus sign is a Neg node")


class Imag(Record):
    pass


class Ref(Record):
    _fields = ("name",)


class Neg(Record):
    _fields = ("arg",)


class Bin(Record):
    _fields = ("op", "left", "right")  # op is one of + - * /


class Pow(Record):
    _fields = ("base", "exponent")


class Call(Record):
    _fields = ("fn", "arg")


Expr = Num | Imag | Ref | Neg | Bin | Pow | Call


class Param(Record):
    _fields = ("name", "lo", "hi")

    def __post_init__(self):
        self._check_name(self.name)
        for bound in (self.lo, self.hi):  # a bound is ["-"] NUMBER
            Num._check_value(abs(bound))
        if not self.lo < self.hi:
            raise ValueError(f"parameter {self.name!r}: need lo < hi, got [{self.lo}, {self.hi}]")

    @staticmethod
    def _check_name(name):
        """The name rule, which parse also applies before it reads the bounds."""
        if not (isinstance(name, str) and _NAME.fullmatch(name)):
            raise ValueError(f"expected a parameter name, found {name!r}")
        if name == "i" or name in FUNCTION_NAMES or name in _KEYWORDS:
            raise ValueError(f"{name!r} is reserved and cannot name a parameter")


class ImmersionSpec(Record):
    """Parsed immersion: parameter box, ambient signature, component map.

    name, expected_index (the metric index) and quadric (the declared ambient
    quadric, an AmbientQuadric, which run_suite checks against when the
    caller passes none) are metadata: serialize() writes none of them.
    """

    _fields = ("params", "signature", "components", "name", "expected_index", "quadric")
    name = "unnamed"
    expected_index = None
    quadric = None

    def __post_init__(self):
        self._check_params(self.params)
        n, k = self.signature.n, len(self.components)
        if k != n:
            raise ValueError(f"signature declares n={n} but map has {k} components")

    @staticmethod
    def _check_params(params):
        """One parameter or more, no two of one name; parse also applies this
        before it reads the map."""
        if not params:
            raise ValueError("at least one parameter required")
        names = [p.name for p in params]
        repeated = [name for k, name in enumerate(names) if name in names[:k]]
        if repeated:
            raise ValueError(f"duplicate parameter name {repeated[0]!r}")

    @property
    def num_params(self) -> int:
        return len(self.params)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def same_structure(self, other: "ImmersionSpec") -> bool:
        """Structural equality ignoring metadata (name, expected_index, quadric)."""
        return (
            self.params == other.params
            and self.signature == other.signature
            and self.components == other.components
        )


# -- tokenizer ----------------------------------------------------------------

class _Token(Record):
    _fields = ("kind", "text", "line", "column")  # kind: num | name | op | eof


_TOKEN_RE = re.compile(
    rf"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<name>{_NAME.pattern})
      | (?P<op>[-+*/^(),:;\[\]])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.param_names: tuple[str, ...] = ()
        self.nesting = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _fail(self, message, tok=None):
        tok = tok or self.cur
        raise DslSyntaxError(message, tok.line, tok.column)

    def _accept(self, op) -> bool:
        """Step over the operator op if it is at the cursor."""
        if self.cur.kind == "op" and self.cur.text == op:
            self.pos += 1
            return True
        return False

    def _expect_op(self, text):
        if not self._accept(text):
            self._fail(f"expected {text!r}, found {self.cur.text or 'end of input'!r}")

    def _expect_keyword(self, word):
        tok = self.cur
        if tok.kind != "name" or tok.text != word:
            self._fail(f"expected keyword {word!r}, found {tok.text or 'end of input'!r}")
        self._advance()

    def _valid(self, make, *args, tok=None):
        """make(*args), its ValueError a DslSyntaxError at tok (default: the cursor)."""
        try:
            return make(*args)
        except ValueError as exc:
            self._fail(str(exc), tok)

    def _number(self, signed=True, integer=False):
        """The number at the cursor, after a "-" if signed: an int if integer,
        else a finite float."""
        negative = signed and self._accept("-")
        tok = self.cur
        if tok.kind != "num" or (integer and any(ch in tok.text for ch in ".eE")):
            what = "an integer" if integer else "a number"
            self._fail(f"expected {what}, found {tok.text or 'end of input'!r}")
        self._advance()
        try:
            value = int(tok.text) if integer else float(tok.text)
        except ValueError:  # more digits than int() converts
            self._fail(f"integer literal of {len(tok.text)} digits is too long", tok)
        if not integer:
            self._valid(Num._check_value, value, tok=tok)
        return -value if negative else value

    def parse_spec(self) -> ImmersionSpec:
        self._expect_keyword("params")
        params = [self._param()]
        while self._accept(","):
            params.append(self._param())
        self._expect_op(";")

        self._expect_keyword("signature")
        n = self._number(signed=False, integer=True)
        s = self._number(signed=False, integer=True)
        self._expect_op(";")
        signature = self._valid(Signature, n, s)
        self._valid(ImmersionSpec._check_params, params)
        self.param_names = tuple(p.name for p in params)

        self._expect_keyword("map")
        components = [self._expr()]
        while self._accept(","):
            components.append(self._expr())
        if max(map(_depth, components)) > MAX_DEPTH:
            self._fail("expression nested too deeply")
        self._accept(";")
        if self.cur.kind != "eof":
            self._fail(f"trailing input {self.cur.text!r}")
        return self._valid(ImmersionSpec, tuple(params), signature, tuple(components))

    def _param(self) -> Param:
        tok = self.cur
        # "end of input" is not a NAME either
        self._valid(Param._check_name, tok.text or "end of input")
        self._advance()
        self._expect_op(":")
        self._expect_op("[")
        lo = self._number()
        self._expect_op(",")
        hi = self._number()
        self._expect_op("]")
        return self._valid(Param, tok.text, lo, hi, tok=tok)

    # expression grammar ------------------------------------------------

    def _expr(self, least=1) -> Expr:
        """Unary operands joined by the binary operators binding at least least."""
        node = self._unary()
        while self.cur.kind == "op" and _PREC.get(self.cur.text, 0) >= least:
            op = self._advance().text
            node = Bin(op, node, self._expr(_PREC[op] + 1))  # left-associative
        return node

    def _unary(self) -> Expr:
        self.nesting += 1  # every parenthesis, call and negation recurses through here
        if self.nesting > MAX_DEPTH:
            self._fail("expression nested too deeply")
        if self._accept("-"):
            node = Neg(self._unary())
        else:
            node = self._atom()
            if self._accept("^"):
                node = Pow(node, self._number(integer=True))
        self.nesting -= 1
        return node

    def _atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            return Num(self._number(signed=False))
        if tok.kind == "name":
            self._advance()
            if tok.text == "i":
                return Imag()
            if self._accept("("):
                if tok.text not in FUNCTION_NAMES:
                    raise UnknownFunctionError(
                        f"unknown function {tok.text!r}", tok.line, tok.column
                    )
                arg, comma = self._expr(), self.cur
                if self._accept(","):
                    raise ArityError(
                        f"{tok.text} takes exactly one argument", comma.line, comma.column
                    )
                self._expect_op(")")
                return Call(tok.text, arg)
            if tok.text not in self.param_names:
                raise UndeclaredParameterError(
                    f"undeclared parameter {tok.text!r}", tok.line, tok.column
                )
            return Ref(tok.text)
        if self._accept("("):
            node = self._expr()
            self._expect_op(")")
            return node
        self._fail(f"expected an expression, found {tok.text or 'end of input'!r}")


def _depth(e: Expr) -> int:
    """Levels of the expression tree e, counted level by level without recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [c for node in level for c in vars(node).values() if isinstance(c, Expr)]
    return depth


def parse(text: str) -> ImmersionSpec:
    """Parse DSL text into an ImmersionSpec (positions reported on errors)."""
    return _Parser(text).parse_spec()


# -- serializer ----------------------------------------------------------------

# how tightly operators bind, loosest first, for parse and serialize_expr alike:
# the binary operators (all left-associative), unary minus, power; other
# nodes are atoms (5)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, Neg: 3, Pow: 4}


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _prec(e: Expr) -> int:
    return _PREC.get(e.op if isinstance(e, Bin) else type(e), 5)


def _operand(e: Expr, least: int) -> str:
    """Text for e as an operand that must bind at least least."""
    text = serialize_expr(e)
    return text if _prec(e) >= least else f"({text})"


def serialize_expr(e: Expr) -> str:
    """Text for one expression, with parentheses only where precedence needs them."""
    if isinstance(e, Num):
        return _fmt_number(e.value)
    if isinstance(e, Imag):
        return "i"
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({serialize_expr(e.arg)})"
    if isinstance(e, Neg):
        return f"-{_operand(e.arg, _prec(e))}"
    if isinstance(e, Pow):  # its base is an atom
        return f"{_operand(e.base, _prec(e) + 1)}^{e.exponent}"
    if isinstance(e, Bin):  # left-associative: the right operand binds tighter
        return f"{_operand(e.left, _prec(e))}{e.op}{_operand(e.right, _prec(e) + 1)}"
    raise TypeError(f"not an expression node: {e!r}")


def serialize(spec: ImmersionSpec) -> str:
    """Canonical text for a spec; parse() of the result restores the structure."""
    params = ", ".join(
        f"{p.name}:[{_fmt_number(p.lo)},{_fmt_number(p.hi)}]" for p in spec.params
    )
    comps = ", ".join(serialize_expr(c) for c in spec.components)
    return (
        f"params {params};\n"
        f"signature {spec.signature.n} {spec.signature.s};\n"
        f"map {comps};\n"
    )


# -- evaluation ----------------------------------------------------------------

_FUNCTIONS = {name: getattr(jets, name) for name in FUNCTION_NAMES}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _apply(fn, x, *rest):
    """fn(x, *rest); on complex scalars alone, through the jet code at order 0:
    values free of parameters stay scalars, so 2*u costs one scaling."""
    if isinstance(x, Jet) or (rest and isinstance(rest[0], Jet)):
        return fn(x, *rest)
    return complex(fn(Jet(1, 0, x), *rest).value)


# node type -> (field a plan step keeps, operand fields, jet operation on (field, seeds, *operands))
_NODES = {
    Num: ("value", (), lambda value, seeds: complex(value)),
    Imag: (None, (), lambda _, seeds: 1j),
    Ref: ("name", (), lambda k, seeds: seeds[k]),
    Neg: (None, ("arg",), lambda _, seeds, a: -a),
    Bin: ("op", ("left", "right"), lambda op, seeds, a, b: _apply(_BINARY[op], a, b)),
    Pow: ("exponent", ("base",), lambda k, seeds, a: _apply(jets.ipow, a, k)),
    Call: ("fn", ("arg",), lambda fn, seeds, a: _apply(_FUNCTIONS[fn], a)),
}


@functools.lru_cache(maxsize=64)  # plans kept, least recently used dropped first
def _plan(spec: ImmersionSpec, _identity: int) -> tuple[tuple, tuple[int, ...]]:
    """spec's map as (steps, roots): each distinct subtree once, in the order a
    recursive walk first reaches it, as (node type, field, *operand steps), a
    Ref's field its parameter index; and each component's step.  An invalid node
    raises DslError naming it.  Keyed on the object too: see module doc."""
    index, steps = {p.name: k for k, p in enumerate(spec.params)}, {}

    def step(e) -> int:
        kind = type(e)
        name, children, _ = _NODES.get(kind, (None, (), None))
        field = getattr(e, name) if name else None
        valid = {Ref: index, Bin: _BINARY, Call: _FUNCTIONS}.get(kind)  # its fields, if named
        if kind not in _NODES or (kind is Pow and type(field) is not int) or (
            valid is not None and not (type(field) is str and field in valid)
        ):
            raise DslError(f"invalid expression node {e!r}")
        field = index[field] if kind is Ref else field
        operands = tuple(step(getattr(e, child)) for child in children)
        key = (kind, np.float64(field).tobytes() if isinstance(field, float) else field, operands)
        return steps.setdefault(key, (len(steps), (kind, field, *operands)))[0]

    roots = tuple(step(c) for c in spec.components)
    return tuple(s for _, s in steps.values()), roots


_SLACK = 1e-12  # how far outside the box a coordinate may round


@functools.lru_cache(maxsize=64)
def _box(params: tuple[Param, ...]) -> np.ndarray:
    """The domain box widened by _SLACK, as rows (lo, hi) of shape (2, m)."""
    box = np.array([(p.lo - _SLACK, p.hi + _SLACK) for p in params]).T
    box.flags.writeable = False  # one array for every caller
    return box


def check_point_in_domain(spec: ImmersionSpec, points):
    """Raise DomainError unless the point (m,), or each row of points (P, m), sits
    in the (closed) domain box, naming the first bad coordinate of the first bad row."""
    pts = np.array(points, dtype=float, ndmin=2)
    if pts.shape[-1] != spec.num_params:
        raise DomainError(
            f"point has {pts.shape[-1]} coordinates, spec has {spec.num_params} parameters"
        )
    lo, hi = _box(spec.params)
    inside = (lo <= pts) & (pts <= hi)  # NaN is outside too
    if not inside.all():
        bad = np.argwhere(~inside)[0]
        p, x = spec.params[bad[1]], float(pts[tuple(bad)])
        raise DomainError(f"coordinate {p.name}={x!r} outside [{p.lo}, {p.hi}]")


def evaluate_map_jets(spec: ImmersionSpec, points, order: int) -> list[np.ndarray]:
    """The tensors (value, gradient, hessian, third) of the component map, up to
    order, at a batch of interior points.

    points is one point (m,) or a batch (B, m); either way the tensors are
    (B, m, ..., m, n), B = 1 for a single point, and each step of the spec's plan
    (_plan) is one jet operation for the whole batch.  The jets of all components
    are interpolated together (jets.interpolate).  Raises SingularEvaluationError
    when the map or one of its derivatives overflows or is not finite at some point.
    """
    pts = np.array(points, dtype=float, ndmin=2)
    m = spec.num_params
    check_point_in_domain(spec, pts)
    steps, roots = _plan(spec, id(spec))
    seeds, values = [Jet.seed(k, pts[:, k], m, order) for k in range(m)], []
    try:
        with np.errstate(all="ignore"):  # rejected just below
            for kind, field, *operands in steps:
                values.append(_NODES[kind][2](field, seeds, *[values[i] for i in operands]))
    except OverflowError as exc:
        where = tuple(pts[0].tolist()) if len(pts) == 1 else f"one of {len(pts)} points"
        raise SingularEvaluationError(f"map overflows at {where}: {exc}") from exc
    out = [values[r] for r in roots]
    # a constant component is a jet with zero derivatives
    out = [j if isinstance(j, Jet) else Jet(m, order, np.full(len(pts), j)) for j in out]
    with np.errstate(all="ignore"):  # rejected just below
        tensors = jets.interpolate(out)
    if not all(np.isfinite(t).all() for t in tensors):  # then find the first such point
        finite = [np.isfinite(t).reshape(len(pts), -1).all(axis=1) for t in tensors]
        finite = np.all(finite, axis=0)
        bad = tuple(pts[np.argmin(finite)].tolist())
        raise SingularEvaluationError(f"map or its derivatives not finite at {bad}")
    return tensors
