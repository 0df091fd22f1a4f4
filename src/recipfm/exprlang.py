"""A small expression language for scalar fields, compiled to jet evaluators.

Coordinates are named ``u1`` .. ``u16``; named parameters are bound to reals at
parse time, so no symbolic parameter survives to evaluation.  ``^`` takes an
integer literal exponent; real exponents like ``(u2-u1)^(1-3*eps)`` are spelled
``pow(u2-u1, q)`` with ``q`` a parameter or constant expression.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping

from . import jets
from .jets import Jet, JetDomainError, Point, PointSet, _unit, point_set

MAX_DIM = 16

_ARITH = {"+": jets.add, "-": jets.sub, "*": jets.mul, "/": jets.div}

_CALL_ARITY = {"exp": 1, "ln": 1, "pow": 2, "hyp2f1": 4}


class ParseError(ValueError):
    """Syntax or identifier error; carries the source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalError(ValueError):
    """Domain failure during evaluation, tagged with the offending subexpression."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int  # 0-based


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class FieldExpr:
    """A parsed expression together with the coordinate dimension it lives in."""

    ast: object
    dim: int


def _fold_neg(x):
    if isinstance(x, Num):
        return Num(-x.value)
    return Neg(x)


_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": lambda a, b: a ** int(b)}


def _fold_bin(op, a, b, position):
    if isinstance(a, Num) and isinstance(b, Num):
        if op == "/" and b.value == 0.0:
            raise ParseError("division by zero in constant expression", position)
        try:
            return Num(_FOLD[op](a.value, b.value))
        except (OverflowError, ZeroDivisionError):  # only '^' can raise
            raise ParseError(f"constant {a.value!r}^{int(b.value)} is out of range", position) from None
    return Bin(op, a, b)


# ---------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_COORD_RE = re.compile(r"^u([1-9]\d*)$")


def _tokens(src: str):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        out.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str, dim: int, params: Mapping[str, float]):
        self.dim = dim
        self.params = dict(params)
        self.toks = _tokens(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.next()

    def at_op(self, *ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.at_op("+", "-"):
            _, op, pos = self.next()
            node = _fold_bin(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.unary()
        while self.at_op("*", "/"):
            _, op, pos = self.next()
            node = _fold_bin(op, node, self.unary(), pos)
        return node

    def unary(self):
        if self.at_op("-"):
            self.next()
            return _fold_neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.at_op("^"):
            _, _, pos = self.next()
            exponent = self.exponent()
            if not (isinstance(exponent, Num) and float(exponent.value).is_integer()):
                raise ParseError("'^' needs a constant integer exponent (use pow for reals)", pos)
            node = _fold_bin("^", node, exponent, pos)
        return node

    def exponent(self):
        # right-associative, constants only; unary minus allowed inside
        if self.at_op("-"):
            self.next()
            return _fold_neg(self.exponent())
        return self.power()

    def atom(self):
        kind, text, pos = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in _CALL_ARITY:
                return self.call(text, pos)
            m = _COORD_RE.match(text)
            if m:
                index = int(m.group(1))
                if index > MAX_DIM:
                    raise ParseError(f"coordinate {text} exceeds the u1..u{MAX_DIM} cap", pos)
                if index > self.dim:
                    raise ParseError(f"coordinate {text} exceeds dimension {self.dim}", pos)
                return Coord(index - 1)
            if text in self.params:
                return Num(float(self.params[text]))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, got {text!r}" if text else "unexpected end of input", pos)

    def call(self, name: str, pos: int):
        self.expect_op("(")
        args = [self.expr()]
        while self.at_op(","):
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != _CALL_ARITY[name]:
            raise ParseError(f"{name} takes {_CALL_ARITY[name]} argument(s), got {len(args)}", pos)
        if name == "pow" and not isinstance(args[1], Num):
            raise ParseError("pow exponent must be a constant", pos)
        if name == "hyp2f1" and not all(isinstance(a, Num) for a in args[:3]):
            raise ParseError("hyp2f1 parameters a, b, c must be constants", pos)
        return Call(name, tuple(args))


def parse_field(src: str, dim: int, params: Mapping[str, float] | None = None) -> FieldExpr:
    """Parse an expression over u1..u<dim> with the given parameter bindings."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must be in 2..{MAX_DIM}, got {dim}")
    ast = _Parser(src, dim, params or {}).parse()
    return FieldExpr(ast, dim)


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_text(node) -> str:
    """Render an AST back to parseable source."""
    if isinstance(node, FieldExpr):
        return to_text(node.ast)
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Coord):
        return f"u{node.index + 1}"
    if isinstance(node, Neg):
        inner = to_text(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        me = _PREC[node.op]
        left = to_text(node.lhs)
        right = to_text(node.rhs)
        if _prec(node.lhs) < me:
            left = f"({left})"
        # left-associative: parenthesize right operand at equal precedence
        if _prec(node.rhs) < me or (_prec(node.rhs) == me and node.op in "+-*/"):
            right = f"({right})"
        return f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_text(a) for a in node.args)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Compilation to jet evaluators


class ScalarField:
    """A scalar field on n coordinates, evaluable to a jet over a point set.

    Wraps a pure function (point set, order) -> Jet, called only by ``jet``,
    which memoizes every jet by point set and order; the memo is keyed weakly
    by the set, so its entries go when the set goes, and a quadrature's node
    sets leave nothing behind.  A lone Point is evaluated as a set of one.
    Supports +, -, *, / with fields and numbers; each operator picks its jet
    function (jets.add, ...) once, when the combined field is built, and
    evaluates its operands through their ``jet``, so a shared operand reuses
    its memo.
    """

    def __init__(self, dim: int, fn: Callable[[PointSet, int], Jet], text: str = "<field>"):
        self.dim = dim
        self._fn = fn
        self.text = text
        self._memo = weakref.WeakKeyDictionary()

    @jets.quiet
    def jet(self, points: Point | PointSet, order: int) -> Jet:
        points = point_set(points)
        if points.dim != self.dim:
            raise ValueError(f"field on {self.dim} coordinates evaluated at points with {points.dim}")
        return jets.memoized(self._memo, points, order, lambda: self._fn(points, order))

    def value(self, p: Point) -> float:
        """The value at a lone point."""
        return self.jet(p, 0).value.item()

    def gradient(self, p: Point) -> tuple[float, ...]:
        j = self.jet(p, 1)
        return tuple(jets.partial(j, _unit(self.dim, i)).item() for i in range(self.dim))

    def __repr__(self) -> str:
        return f"ScalarField({self.text})"

    def _coerce(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            if other.dim != self.dim:
                raise ValueError("field dimensions differ")
            return other
        return constant_field(self.dim, float(other))

    def _binary(self, other, op: str, flipped: bool = False) -> "ScalarField":
        other = self._coerce(other)
        a, b = (other, self) if flipped else (self, other)
        arith = _ARITH[op]
        fn = lambda p, order: arith(a.jet(p, order), b.jet(p, order))
        return ScalarField(self.dim, fn, f"({a.text} {op} {b.text})")

    def __add__(self, other):
        return self._binary(other, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "-")

    def __rsub__(self, other):
        return self._binary(other, "-", flipped=True)

    def __mul__(self, other):
        return self._binary(other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, "/")

    def __rtruediv__(self, other):
        return self._binary(other, "/", flipped=True)

    def __neg__(self):
        return ScalarField(self.dim, lambda p, order: -self.jet(p, order), f"-({self.text})")


def constant_field(dim: int, value: float) -> ScalarField:
    v = float(value)
    return ScalarField(dim, lambda p, order: jets.constant(dim, order, v), repr(v))


def partial_field(f: ScalarField, index: int) -> ScalarField:
    """The field d f / d u^{index}; its order-m jet costs an order-(m+1) jet of f."""
    fn = lambda p, order: jets.derivative(f.jet(p, order + 1), index)
    return ScalarField(f.dim, fn, f"d{index + 1}({f.text})")


def compile_field(fexpr: FieldExpr) -> ScalarField:
    """Compile a parsed expression into a jet evaluator."""
    fn = _build(fexpr.ast, fexpr.dim)
    return ScalarField(fexpr.dim, fn, to_text(fexpr.ast))


def _build(node, dim: int) -> Callable[[PointSet, int], Jet]:
    if isinstance(node, Num):
        known: dict[int, Jet] = {}  # jets are immutable, so one per order serves every point set
        return lambda p, order: known.get(order) or known.setdefault(order, jets.constant(dim, order, node.value))
    if isinstance(node, Coord):
        i = node.index
        return lambda p, order: p.lift(i, order)
    if isinstance(node, Neg):
        inner = _build(node.operand, dim)
        return lambda p, order: -inner(p, order)
    if isinstance(node, Bin):
        lhs = _build(node.lhs, dim)
        if node.op == "^":
            r = int(node.rhs.value)
            return _wrap(node, lambda p, order: jets.jet_pow(lhs(p, order), r))
        rhs = _build(node.rhs, dim)
        arith = _ARITH[node.op]
        return _wrap(node, lambda p, order: arith(lhs(p, order), rhs(p, order)))
    if isinstance(node, Call):
        if node.fn in ("exp", "ln"):
            arg = _build(node.args[0], dim)
            fn = jets.jet_exp if node.fn == "exp" else jets.jet_ln
            return _wrap(node, lambda p, order: fn(arg(p, order)))
        if node.fn == "pow":
            arg = _build(node.args[0], dim)
            r = float(node.args[1].value)
            return _wrap(node, lambda p, order: jets.jet_pow(arg(p, order), r))
        if node.fn == "hyp2f1":
            a, b, c = (float(x.value) for x in node.args[:3])
            arg = _build(node.args[3], dim)
            return _wrap(node, lambda p, order: jets.jet_hypergeom_2f1(a, b, c, arg(p, order)))
    raise TypeError(f"not an AST node: {node!r}")


def _wrap(node, fn):
    def wrapped(p, order):
        try:
            return fn(p, order)
        except JetDomainError as exc:
            raise EvalError(f"{exc} in {to_text(node)!r}") from exc

    return wrapped


def field(src: str, dim: int, params: Mapping[str, float] | None = None) -> ScalarField:
    """Parse + compile in one step."""
    return compile_field(parse_field(src, dim, params))


# ---------------------------------------------------------------------------
# Order-0 reference interpreter (used as an independent oracle in tests)

_FLOAT_FUNCS = {
    "exp": math.exp,
    "ln": math.log,
    "pow": lambda b, r: b**r,
    "hyp2f1": lambda a, b, c, z: jets.hyp2f1_value(a, b, c, z).item(),
}


def evaluate_value(fexpr, coords, funcs: Mapping[str, Callable] | None = None):
    """Tree-walking value interpreter; `funcs` swaps the math backend (e.g. mpmath).

    Works on any numeric type that supports arithmetic operators, so it can run
    in extended precision for finite-difference oracles.
    """
    fns = dict(_FLOAT_FUNCS)
    if funcs:
        fns.update(funcs)
    ast = fexpr.ast if isinstance(fexpr, FieldExpr) else fexpr

    def walk(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Coord):
            return coords[node.index]
        if isinstance(node, Neg):
            return -walk(node.operand)
        if isinstance(node, Bin):
            a = walk(node.lhs)
            if node.op == "^":
                return fns["pow"](a, int(node.rhs.value))
            b = walk(node.rhs)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            return a / b
        if isinstance(node, Call):
            if node.fn == "pow":
                return fns["pow"](walk(node.args[0]), node.args[1].value)
            if node.fn == "hyp2f1":
                a, b, c = (x.value for x in node.args[:3])
                return fns["hyp2f1"](a, b, c, walk(node.args[3]))
            return fns[node.fn](walk(node.args[0]))
        raise TypeError(f"not an AST node: {node!r}")

    return walk(ast)
