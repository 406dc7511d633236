"""Tiny expression language for parameterized immersions into C^n.

Grammar (UTF-8 text, `#` starts a comment running to end of line):

    spec      := "params" param ("," param)* ";"
                 "signature" INT INT ";"
                 "map" expr ("," expr)* [";"]
    param     := NAME ":" "[" number "," number "]"
    expr      := term (("+" | "-") term)*
    term      := unary (("*" | "/") unary)*
    unary     := "-" unary | power
    power     := atom ["^" ["-"] INT]
    atom      := NUMBER | "i" | NAME | NAME "(" expr ")" | "(" expr ")"

`i` is the imaginary unit.  Functions: exp, sin, cos, sinh, cosh, sqrt (sqrt
only for positive real subexpressions).  Powers take integer exponents only,
which keeps evaluation total and differentiable on the domain box.  Deeper
trees or nesting than MAX_DEPTH (100) levels are a DslSyntaxError.

serialize() emits canonical text; parse(serialize(spec)) reproduces the
params/signature/components structure exactly.

Both evaluators, the jets here and findiff's cmath code, run one plan per spec
object (_plan): each distinct subtree once, subtrees the same when type, fields
and operands are, a constant by its exact bits (Num(0.0) == Num(-0.0) as records).
"""

from __future__ import annotations

import functools
import math
import operator
import re

import numpy as np

from .ambient import Signature
from .errors import (
    ArityError,
    DomainError,
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


# -- AST ---------------------------------------------------------------------

class Num(Record):
    _fields = ("value",)


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
        if not self.lo < self.hi:
            raise ValueError(f"parameter {self.name}: need lo < hi, got [{self.lo}, {self.hi}]")


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
        if len(self.components) != self.signature.n:
            raise ValueError(
                f"{self.signature.n} components required, got {len(self.components)}"
            )
        if not self.params:
            raise ValueError("at least one parameter required")

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
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
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

    def _expect_op(self, text) -> _Token:
        tok = self.cur
        if tok.kind != "op" or tok.text != text:
            self._fail(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self._advance()

    def _expect_keyword(self, word):
        tok = self.cur
        if tok.kind != "name" or tok.text != word:
            self._fail(f"expected keyword {word!r}, found {tok.text or 'end of input'!r}")
        self._advance()

    def _signed_number(self) -> float:
        negative = False
        if self.cur.kind == "op" and self.cur.text == "-":
            self._advance()
            negative = True
        tok = self.cur
        if tok.kind != "num":
            self._fail(f"expected a number, found {tok.text or 'end of input'!r}")
        value = self._finite(tok)
        return -value if negative else value

    def _finite(self, tok) -> float:
        """The number token tok, at the cursor, as a finite float."""
        self._advance()
        value = float(tok.text)
        if not math.isfinite(value):
            self._fail("numeric literal is not a finite number", tok)
        return value

    def _integer(self) -> int:
        tok = self.cur
        if tok.kind != "num" or any(ch in tok.text for ch in ".eE"):
            self._fail(f"expected an integer, found {tok.text or 'end of input'!r}")
        try:
            value = int(tok.text)
        except ValueError:  # more digits than int() converts
            self._fail(f"integer literal of {len(tok.text)} digits is too long", tok)
        self._advance()
        return value

    def parse_spec(self) -> ImmersionSpec:
        self._expect_keyword("params")
        params = [self._param()]
        while self.cur.kind == "op" and self.cur.text == ",":
            self._advance()
            params.append(self._param())
        self._expect_op(";")

        self._expect_keyword("signature")
        n = self._integer()
        s = self._integer()
        self._expect_op(";")
        try:
            signature = Signature(n, s)
        except ValueError as exc:
            self._fail(str(exc))

        self.param_names = tuple(p.name for p in params)
        seen = set()
        for p in params:
            if p.name in seen:
                self._fail(f"duplicate parameter name {p.name!r}")
            seen.add(p.name)

        self._expect_keyword("map")
        components = [self._expr()]
        while self.cur.kind == "op" and self.cur.text == ",":
            self._advance()
            components.append(self._expr())
        if max(map(_depth, components)) > MAX_DEPTH:
            self._fail("expression nested too deeply")
        if self.cur.kind == "op" and self.cur.text == ";":
            self._advance()
        if self.cur.kind != "eof":
            self._fail(f"trailing input {self.cur.text!r}")

        if len(components) != n:
            self._fail(f"signature declares n={n} but map has {len(components)} components")
        return ImmersionSpec(tuple(params), signature, tuple(components))

    def _param(self) -> Param:
        tok = self.cur
        if tok.kind != "name":
            self._fail(f"expected a parameter name, found {tok.text or 'end of input'!r}")
        name = tok.text
        if name == "i" or name in FUNCTION_NAMES or name in _KEYWORDS:
            self._fail(f"{name!r} is reserved and cannot name a parameter", tok)
        self._advance()
        self._expect_op(":")
        self._expect_op("[")
        lo = self._signed_number()
        self._expect_op(",")
        hi = self._signed_number()
        self._expect_op("]")
        if not lo < hi:
            self._fail(f"parameter {name!r}: need lo < hi, got [{lo}, {hi}]", tok)
        return Param(name, lo, hi)

    # expression grammar ------------------------------------------------

    def _expr(self) -> Expr:
        node = self._term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self._advance().text
            node = Bin(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self._advance().text
            node = Bin(op, node, self._unary())
        return node

    def _unary(self) -> Expr:
        self.nesting += 1  # every parenthesis, call and negation recurses through here
        if self.nesting > MAX_DEPTH:
            self._fail("expression nested too deeply")
        if self.cur.kind == "op" and self.cur.text == "-":
            self._advance()
            node = Neg(self._unary())
        else:
            node = self._power()
        self.nesting -= 1
        return node

    def _power(self) -> Expr:
        node = self._atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self._advance()
            negative = False
            if self.cur.kind == "op" and self.cur.text == "-":
                self._advance()
                negative = True
            k = self._integer()
            node = Pow(node, -k if negative else k)
        return node

    def _atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            return Num(self._finite(tok))
        if tok.kind == "name":
            self._advance()
            if tok.text == "i":
                return Imag()
            if self.cur.kind == "op" and self.cur.text == "(":
                if tok.text not in FUNCTION_NAMES:
                    raise UnknownFunctionError(
                        f"unknown function {tok.text!r}", tok.line, tok.column
                    )
                self._advance()
                arg = self._expr()
                if self.cur.kind == "op" and self.cur.text == ",":
                    raise ArityError(
                        f"{tok.text} takes exactly one argument",
                        self.cur.line,
                        self.cur.column,
                    )
                self._expect_op(")")
                return Call(tok.text, arg)
            if tok.text not in self.param_names:
                raise UndeclaredParameterError(
                    f"undeclared parameter {tok.text!r}", tok.line, tok.column
                )
            return Ref(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self._advance()
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

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30
_PREC_ATOM = 40


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _prec(e: Expr) -> int:
    if isinstance(e, Bin):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


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
        inner = serialize_expr(e.arg)
        if _prec(e.arg) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Pow):
        base = serialize_expr(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Bin):
        mine = _prec(e)
        left = serialize_expr(e.left)
        if _prec(e.left) < mine:
            left = f"({left})"
        right = serialize_expr(e.right)
        if _prec(e.right) <= mine:
            right = f"({right})"
        return f"{left}{e.op}{right}"
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
    raises KeyError or TypeError.  Keyed on the object too: see module doc."""
    index, steps = {p.name: k for k, p in enumerate(spec.params)}, {}

    def step(e) -> int:
        kind = type(e)
        if kind not in _NODES or (kind is Pow and type(e.exponent) is not int):
            raise TypeError(f"not an expression node: {e!r}")
        name, children, _ = _NODES[kind]
        field = index[e.name] if kind is Ref else getattr(e, name) if name else None
        if kind in (Bin, Call) and field not in (_BINARY if kind is Bin else _FUNCTIONS):
            raise KeyError(field)
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
