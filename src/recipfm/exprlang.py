"""A small expression language for scalar fields, compiled to jet evaluators.

Coordinates are named ``u1`` .. ``u16``; named parameters are bound to reals at
parse time, so no symbolic parameter survives to evaluation.  ``^`` takes an
integer literal exponent; real exponents like ``(u2-u1)^(1-3*eps)`` are spelled
``pow(u2-u1, q)`` with ``q`` a parameter or constant expression.

A parsed expression compiles to a straight-line program, the AD "tape" of
Griewank and Walther (*Evaluating Derivatives*, 2nd ed., 2008, ch. 6): one
instruction per distinct subexpression, run by one loop, so a repeated
subtree costs one jet per evaluation and evaluation does not recurse.
Sibling instructions, of equal depth and operation, whose operands lie in
rows of one stack, run as one stacked kernel call, a pack (superword-level
parallelism, Larsen and Amarasinghe, PLDI 2000): the two terms of
``c1*exp(h*u1)/(u2-u1) + c2*exp(h*u2)/(u2-u1)`` take four kernel calls, not
eight.  The plan is made once, at compilation; a run that leaves a domain is
replayed one instruction at a time, so its error is the program's.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import jets
from .jets import Jet, JetDomainError, Point, PointSet, point_set

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


def check_bindings(params: Mapping[str, float]) -> None:
    """Reject a parameter name the parser cannot read: a non-identifier, a coordinate or a function name."""
    for name in params:
        if not (name.isascii() and name.isidentifier()) or _COORD_RE.match(name) or name in _CALL_ARITY:
            raise ValueError(f"parameter name {name!r} is not an identifier, or names a coordinate or function")


class _Parser:
    def __init__(self, src: str, dim: int, params: Mapping[str, float]):
        check_bindings(params)
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
    parser = _Parser(src, dim, params or {})
    try:
        return FieldExpr(parser.parse(), dim)
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.peek()[2]) from None


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

    Wraps a pure function (point set, order) -> Jet, a compiled program, a
    quadrature or a jet operation over other fields' ``jet``, called only by
    ``jet``, which memoizes each jet's coefficient array in the point set, by
    field and order, and returns a Jet view of it; the field keeps nothing that
    depends on points, so its jets go when the set goes, and a quadrature's
    node sets leave nothing behind.  A lone Point is evaluated as a set of one.
    """

    def __init__(self, dim: int, fn: Callable[[PointSet, int], Jet]):
        self.dim = dim
        self._fn = fn

    def jet(self, points: Point | PointSet, order: int) -> Jet:
        points = point_set(points)
        if points.dim != self.dim:
            raise ValueError(f"field on {self.dim} coordinates evaluated at points with {points.dim}")
        return jets._built(self.dim, order, jets.memoized(points, self, order, lambda: self._fn(points, order).coeffs))

    def value(self, p: Point) -> float:
        """The value at a lone point."""
        return self.jet(p, 0).value.item()


def stack_of(fields) -> Callable:
    """The stack function of the fields: (points, order) -> their jets as one array (len(fields), ncoeff, npoints)."""
    fields = tuple(fields)
    return lambda p, order: jets.stack([f.jet(p, order) for f in fields], len(p))


def compile_field(fexpr: FieldExpr) -> ScalarField:
    """Compile a parsed expression into a straight-line program: one
    instruction per distinct subexpression (its operator and its operands'
    slots; a constant's bit pattern), in the order a recursive walk of the tree
    first meets them, operands first.  A product with one constant operand is
    one ``scale`` instruction, bit for bit the product with the constant's jet
    on either side, but for the sign and payload of a NaN, which may depend on
    how products are grouped.

    ``_pack`` then plans, once, which sibling instructions run as one
    stacked kernel call (a pack) and where each operand lies: ``run`` executes
    each pack as one call, bit for bit its members' calls (but for a NaN's
    sign and payload), and every other instruction as it is.  On a ValueError
    or ArithmeticError the same program is replayed one instruction at a time,
    in program order, through the same executor, so the first operation to
    leave its domain is the tree's, and its EvalError names an equal subtree.
    Jet functions are looked up as each step runs (``_ARITH[op]``,
    ``jets.<fn>``), so one swapped in later is called."""
    dim, code, nodes, known = fexpr.dim, [], [], {}  # nodes: slot -> its first subtree; known: order -> constants
    root = _emit(fexpr.ast, code, nodes, {})
    steps, extra = _pack(code, root, len(nodes), dim)

    def run(points: PointSet, order: int) -> Jet:
        slots = known.get(order)
        if slots is None:  # jets are immutable, so one constant jet per order serves every point set
            slots = known[order] = [jets.constant(dim, order, n.value) if isinstance(n, Num) else None for n in nodes]
            slots += [None] * extra  # the stacks and their views
        try:
            return _run(steps, slots.copy(), points, order)[root]
        except (ValueError, ArithmeticError):
            pass
        slots = slots.copy()
        for ins in code:
            try:
                _run((ins,), slots, points, order)
            except JetDomainError as exc:
                raise EvalError(f"{exc} in {to_text(nodes[ins[0]])!r}") from exc
        return slots[root]

    return ScalarField(dim, run)


def _run(steps, slots: list, points: PointSet, order: int) -> list:
    """The slots after the steps, each (slot, op, operand slot, second operand
    slot or constant arguments): an instruction, or a pack, whose operands and
    result are stacks of jets, each one Jet; a view, its operand's
    coefficients at index j (a row, or a slice of rows); or the lifts."""
    dim, built = points.dim, jets._built
    for k, op, i, j in steps:
        if op in _ARITH:
            slots[k] = _ARITH[op](slots[i], slots[j])
        elif op == "view":
            slots[k] = built(dim, order, slots[i].coeffs[j])
        elif op == "neg":
            slots[k] = -slots[i]
        elif op in ("scale", "jet_hypergeom_2f1"):  # constants before the operand
            slots[k] = getattr(jets, op)(*j, slots[i])
        elif op == "u":
            slots[k] = points.lift(i, order)
        elif op == "lifts":
            slots[k] = built(dim, order, points.lifts(order))
        else:  # jet_exp, jet_ln, jet_pow
            slots[k] = getattr(jets, op)(slots[i], *j)
    return slots


_PACKED = frozenset(("scale", "jet_exp", "*", "/", "+", "-", "neg"))


def _pack(code: list, root: int, nslots: int, dim: int) -> tuple[list, int]:
    """The steps that run the program, and how many slots they add past its
    own: the lifts (every coordinate's jet as one stack), the packs' stacks
    and the views of them.

    Instructions of equal depth and equal packable operation join one pack,
    in program order, while each operand position reads, for every member,
    one shared slot (broadcast against the others' leading axis), or rows of
    one stack, an earlier pack's or the lifts', one apart in either direction:
    so every operand is a slot, a whole stack or a view by one basic index,
    and no run searches or gathers.  A group member that does not fit starts
    the next pack, and a pack of one runs as its instruction.  The steps run
    depth by depth, each stack followed by a view of each of its rows that
    the root, an instruction or a pack reads as one jet.  One pass over the
    program, one over its groups and one over the rows read alone."""
    lifts, depth, levels = nslots, {}, []
    where, size = {}, {lifts: dim}  # where: slot -> (its stack's slot, row); size: stack slot -> rows
    for ins in code:
        k, op, i, j = ins
        if op == "u":
            where[k] = (lifts, i)
            continue
        d = max(depth.get(i, 0), depth.get(j, 0)) if op in _ARITH else depth.get(i, 0)
        depth[k] = d + 1
        if d == len(levels):  # one deeper than any before
            levels.append({})
        levels[d].setdefault(op if op in _PACKED else k, []).append(ins)
    blocks = {lifts: [(lifts, "lifts", None, None)]} if where else {}  # stack slot -> its steps
    sequence, wanted, views = list(blocks.values()), {root}, {}  # views: (stack, first row, step, rows) -> slot

    def strides(members: list, strided, ins, positions) -> list | None:
        """Per operand position, the step from the last member's row to ins's in
        one stack (0: the same slot), if every step is the members' one of 0, 1 or -1."""
        out = []
        for n, pos in enumerate(positions):
            s, t = members[-1][pos], ins[pos]
            w, v = where.get(s), where.get(t)
            step = 0 if s == t else v[1] - w[1] if w and v and v[0] == w[0] else None
            if step not in (0, 1, -1) or strided is not None and step != strided[n]:
                return None
            out.append(step)
        return out

    def operand(members: list, pos: int, step: int, block: list) -> int:
        """The slot of the members' operands at pos: the shared slot, or their rows' stack or a view of it."""
        first = members[0][pos]
        if not step:
            wanted.add(first)
            return first
        s, r = where[first]
        if step == 1 and not r and len(members) == size[s]:
            return s
        key = (s, r, step, len(members))
        if key not in views:
            stop = r + step * len(members)
            views[key] = nslots + len(size) + len(views)
            block.append((views[key], "view", s, slice(r, stop if stop >= 0 else None, step)))
        return views[key]

    def close(members: list, strided) -> None:
        """The step of the members: their instruction alone, or their pack."""
        if len(members) == 1:
            ins = members[0]
            wanted.update((ins[2], ins[3]) if ins[1] in _ARITH else (ins[2],))
            sequence.append([ins])
            return
        block, op = [], members[0][1]
        p = nslots + len(size) + len(views)
        size[p] = len(members)
        i = operand(members, 2, strided[0], block)
        if op in _ARITH:
            j = operand(members, 3, strided[1], block)
        elif op == "scale":  # one constant per member, on the leading axis
            j = (np.array([m[3] for m in members]).reshape(-1, 1, 1),)
            j[0].flags.writeable = False
        else:
            j = members[0][3]
        block.append((p, op, i, j))
        blocks[p] = block
        sequence.append(block)
        where.update((m[0], (p, row)) for row, m in enumerate(members))

    for level in levels:
        for op, group in level.items():
            positions = (2, 3) if op in _ARITH else (2,)
            members, strided = group[:1], None
            for ins in group[1:]:
                joined = strides(members, strided, ins, positions) if op in _PACKED else None
                if joined is None:
                    close(members, strided)
                    members = [ins]
                else:
                    members.append(ins)
                strided = joined
            close(members, strided)
    for s in wanted & where.keys():
        stack, row = where[s]
        blocks[stack].append((s, "view", stack, row))
    return [step for block in sequence for step in block], len(size) + len(views)


_CALLS = {"exp": "jet_exp", "ln": "jet_ln", "pow": "jet_pow", "hyp2f1": "jet_hypergeom_2f1"}


def _emit(node, code: list, nodes: list, slots: dict) -> int:
    """The slot of node's value: its operands' instructions (slot, op, operand
    slot, second operand slot or constant arguments), left to right, then its
    own, each appended to code unless its key is in slots already."""
    j = None  # the second operand's slot, or the constant arguments
    if isinstance(node, Num):
        op, i = "num", node.value.hex()
    elif isinstance(node, Coord):
        op, i = "u", node.index
    elif isinstance(node, Neg):
        op, i = "neg", _emit(node.operand, code, nodes, slots)
    elif isinstance(node, Bin) and node.op == "^":
        op, i, j = "jet_pow", _emit(node.lhs, code, nodes, slots), (float(node.rhs.value),)
    elif isinstance(node, Bin) and node.op == "*" and isinstance(node.lhs, Num) != isinstance(node.rhs, Num):
        c, operand = (node.lhs, node.rhs) if isinstance(node.lhs, Num) else (node.rhs, node.lhs)
        op, i, j = "scale", _emit(operand, code, nodes, slots), (float(c.value),)
    elif isinstance(node, Bin):
        op, i, j = node.op, _emit(node.lhs, code, nodes, slots), _emit(node.rhs, code, nodes, slots)
    elif isinstance(node, Call):
        hyp = node.fn == "hyp2f1"  # 2F1 takes a, b, c before its operand; pow its exponent after
        operand, constants = (node.args[3], node.args[:3]) if hyp else (node.args[0], node.args[1:])
        op, i, j = _CALLS[node.fn], _emit(operand, code, nodes, slots), tuple(float(c.value) for c in constants)
    else:
        raise TypeError(f"not an AST node: {node!r}")
    key = (op, i, *map(float.hex, j)) if isinstance(j, tuple) else (op, i, j)
    k = slots.get(key)
    if k is None:
        k = slots[key] = len(nodes)
        nodes.append(node)
        if op != "num":
            code.append((k, op, i, j))
    return k


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
