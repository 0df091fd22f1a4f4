import math
import random

import numpy as np
import pytest

from conftest import (
    ELEMENTARY_CORPUS,
    corpus_points,
    cyclic_recipfm_objects,
    every_order_from_scratch,
    partial,
    same_bits,
)
from recipfm import exprlang, jets
from recipfm.catalog import catalog_entries, entry, epsilon_system
from recipfm.exprlang import (
    Bin,
    Call,
    Coord,
    EvalError,
    Neg,
    Num,
    ParseError,
    ScalarField,
    compile_field,
    evaluate_value,
    field,
    parse_field,
    partial_field,
    to_text,
)
from recipfm.geometry import sample_points
from recipfm.jets import JetDomainError, Point, PointSet, point_set


def test_parse_parameter_binding_keeps_structure():
    e = parse_field("u1 - eps*(u1+u2)", 2, {"eps": 1.0})
    # parameters fold to literals but no algebraic simplification happens
    assert e.ast == Bin("-", Coord(0), Bin("*", Num(1.0), Bin("+", Coord(0), Coord(1))))


def test_parse_reciprocal_difference():
    e = parse_field("1/(u2-u1)", 2)
    assert e.ast == Bin("/", Num(1.0), Bin("-", Coord(1), Coord(0)))


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_field("u1 +", 2)
    assert err.value.position == 4


def test_unknown_identifier_and_dimension_overflow():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_field("u1 + bogus", 2)
    with pytest.raises(ParseError, match="exceeds dimension"):
        parse_field("u3", 2)
    with pytest.raises(ParseError, match="cap"):
        parse_field("u17", 16)
    with pytest.raises(ParseError, match="empty"):
        parse_field("   ", 2)


def test_trailing_whitespace_ends_the_tokens():
    assert parse_field("u1*u2 ", 2).ast == parse_field("u1*u2", 2).ast


def test_number_minus_field_and_negation_are_not_supported():
    f = field("u1", 2)
    with pytest.raises(TypeError):
        1.0 - f
    with pytest.raises(TypeError):
        -f


def test_caret_wants_integer_literal():
    with pytest.raises(ParseError):
        parse_field("u1^u2", 2)
    with pytest.raises(ParseError):
        parse_field("u1^2.5", 2)
    assert parse_field("u1^-2", 2).ast == Bin("^", Coord(0), Num(-2.0))
    # parameters and constant arithmetic are fine as long as the result is integral
    assert parse_field("u1^(1+1)", 2).ast == Bin("^", Coord(0), Num(2.0))


def test_pow_exponent_must_be_constant():
    with pytest.raises(ParseError):
        parse_field("pow(u1, u2)", 2)
    e = parse_field("pow(u2-u1, q)", 2, {"q": -2.0})
    assert isinstance(e.ast, Call) and e.ast.args[1] == Num(-2.0)


def test_hyp2f1_parameters_must_be_constant():
    with pytest.raises(ParseError):
        parse_field("hyp2f1(u1, 1, 2, u2)", 2)


def test_compile_simple_sum():
    f = field("u1+u2", 2)
    p = jets.Point((2.0, 1.0))
    assert f.value(p) == pytest.approx(3.0)
    assert jets.gradient(f.jet(p, 1))[:, 0] == pytest.approx((1.0, 1.0))


def test_compile_exponential_quotient():
    f = field("exp(h*u1)/(u2-u1)", 2, {"h": 2.0})
    p = jets.Point((0.0, 1.0))
    assert f.value(p) == pytest.approx(1.0)
    assert partial(f.jet(p, 1), (1, 0)) == pytest.approx(3.0)


def test_domain_error_is_tagged():
    f = field("ln(u1)", 2)
    with pytest.raises(EvalError, match="ln"):
        f.value(jets.Point((-1.0, 1.0)))


def _random_expr(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice(["u1", "u2", "1.5", "0.25", "2.0", "3.0"])
    choice = rng.random()
    if choice < 0.55:
        op = rng.choice("+-*/")
        return f"({_random_expr(rng, depth - 1)} {op} {_random_expr(rng, depth - 1)})"
    if choice < 0.65:
        return f"-({_random_expr(rng, depth - 1)})"
    if choice < 0.75:
        return f"({_random_expr(rng, depth - 1)})^{rng.choice([2, 3, -1])}"
    if choice < 0.85:
        return f"exp({_random_expr(rng, depth - 1)})"
    if choice < 0.95:
        return f"pow({_random_expr(rng, depth - 1)}, {rng.choice([0.5, -1.5, 2.0])})"
    return f"hyp2f1(0.5, 1.5, 2.5, {_random_expr(rng, depth - 1)})"


def test_print_parse_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        src = _random_expr(rng, rng.choice((1, 2, 3)))
        first = parse_field(src, 2)
        printed = to_text(first)
        second = parse_field(printed, 2)
        assert second.ast == first.ast, printed
        assert to_text(second) == printed


SAFE_EXPRS = (
    "u1 + 2*u2 - 0.5",
    "u1*u2*u2 - u1^3",
    "exp(0.25*u1) * (u2 + 3)",
    "(u1 - u2)/(u1*u2 + 5)",
    "pow(u1*u1 + u2*u2, 0.5)",
    "ln(u1*u1 + 1)",
    "hyp2f1(1, 2, 2, (u1-u2)/5)",
    "1/(3 + u1) + u2^-2",
)


def test_compiled_matches_value_interpreter():
    pts = [jets.Point((0.7, -1.3)), jets.Point((-1.9, 1.1)), jets.Point((1.5, 0.6))]
    for src in SAFE_EXPRS:
        e = parse_field(src, 2)
        f = compile_field(e)
        for p in pts:
            direct = evaluate_value(e, tuple(p))
            assert f.value(p) == pytest.approx(direct, rel=1e-14, abs=1e-14)


def test_field_algebra_and_partial_field():
    f = field("u1*u2", 2)
    g = field("u2-u1", 2)
    p = jets.Point((2.0, 0.5))
    combo = (f + g) * 2.0 - f / g
    expected = (2.0 * 0.5 + (0.5 - 2.0)) * 2.0 - (2.0 * 0.5) / (0.5 - 2.0)
    assert combo.value(p) == pytest.approx(expected)
    df = partial_field(f, 0)
    assert df.value(p) == pytest.approx(0.5)
    assert jets.gradient(df.jet(p, 1))[:, 0] == pytest.approx((0.0, 1.0))


def test_field_dimension_checks():
    f = field("u1+u2", 2)
    with pytest.raises(ValueError):
        f.value(jets.Point((1.0, 2.0, 3.0)))
    with pytest.raises(ValueError):
        f + field("u1+u2+u3", 3)


def test_constant_power_out_of_range_is_a_parse_error():
    for src, position in (("10^400", 2), ("(0*7)^-2", 5), ("u1 + 2^(3^700)", 9)):
        with pytest.raises(ParseError, match="out of range") as err:
            parse_field(src, 2)
        assert err.value.position == position


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="expression nests too deeply at offset"):
        parse_field("(" * 200 + "u1" + ")" * 200, 2)
    assert parse_field("(" * 150 + "u1" + ")" * 150, 2).ast == Coord(0)


def test_parameter_names_the_parser_can_read():
    assert field("a_1 + _b + u0", 2, {"a_1": 1.0, "_b": 2.0, "u0": 3.0}).value(jets.Point((0.5, 1.5))) == 6.0
    for name in ("u2", "u17", "pow", "2c", "c-1", "é"):
        with pytest.raises(ValueError, match=f"parameter name {name!r} is not an identifier, or names a coordinate"):
            parse_field("u1", 2, {name: 1.0})


# ---------------------------------------------------------------------------
# Lower orders read off higher ones


def assert_lower_orders_read_off_higher(f, coords) -> int:
    """For every m < k <= 3, f's order-m jet over a set that holds its order-k
    jet is bit for bit order m evaluated from scratch over a fresh set at the
    same coordinates, and it is a view of the order-k jet exactly when that one
    is all finite.  Returns the number of non-finite order-k jets met."""
    nonfinite = 0
    for k in range(1, jets.MAX_ORDER + 1):
        for m in range(k):
            held, fresh = PointSet(coords), PointSet(coords)
            high = f.jet(held, k)
            got = f.jet(held, m)
            with every_order_from_scratch():
                want = f.jet(fresh, m)
            assert same_bits(got.coeffs, want.coeffs), (f, m, k)
            finite = bool(np.isfinite(high.coeffs).all())
            assert np.shares_memory(got.coeffs, high.coeffs) == finite, (f, m, k)
            nonfinite += not finite
    return nonfinite


@pytest.mark.parametrize("e", catalog_entries(), ids=lambda e: e.entry_id)
def test_catalog_fields_read_lower_orders_off_higher_bit_for_bit(e):
    A = e.density_field()
    for seed in (0, 1):
        coords = sample_points(e.dim, 5, seed, predicates=e.sample_predicates(A)).coords
        for f in (A, e.current_field()):
            if f is not None:
                assert_lower_orders_read_off_higher(f, coords)


@pytest.mark.parametrize("n", range(2, 7))
def test_velocities_read_lower_orders_off_higher_bit_for_bit(n):
    coords = sample_points(n, 4, seed=n).coords
    for eps in (1.0, -1.0, 0.5):
        for v in epsilon_system(n, eps).velocities:
            assert_lower_orders_read_off_higher(v, coords)


def test_corpus_fields_read_lower_orders_off_higher_bit_for_bit():
    coords = corpus_points().coords
    for src in ELEMENTARY_CORPUS:
        assert_lower_orders_read_off_higher(field(src, 2), coords)


def test_overflowing_fields_are_evaluated_not_sliced():
    # at u1 = 1, exp(700*u1) is finite to order 1 and its second coefficient is
    # inf; 1e308*u1*u1 overflows from order 1 on; the 2F1 product stays finite
    coords = np.array([[1.0, 0.5], [0.5, -1.0]])
    met = sum(assert_lower_orders_read_off_higher(field(src, 2), coords)
              for src in ("exp(700*u1)", "1e308*u1*u1 + u2", "1e308*hyp2f1(0.5, 1.5, 2.5, u1 - 0.5)"))
    assert met > 0


def test_a_non_finite_higher_order_is_evaluated_again():
    A = field("exp(700*u1)", 2)
    orders = []
    compiled = A._fn
    A._fn = lambda p, order: orders.append(order) or compiled(p, order)
    p = point_set(Point((1.0, 0.5)))
    high = A.jet(p, 2)
    assert math.isfinite(high.value[0]) and not np.isfinite(high.coeffs).all()
    low = A.jet(p, 1)  # order 2 holds an inf: order 1 is evaluated
    assert orders == [2, 1] and not np.shares_memory(low.coeffs, high.coeffs)
    A.jet(p, 0)  # order 1 is all finite, and the lowest higher order held: read off it
    assert orders == [2, 1]
    # a finite field evaluates only the order asked first
    B, seen = field("exp(u1)", 2), []
    compiled_b = B._fn
    B._fn = lambda p, order: seen.append(order) or compiled_b(p, order)
    for order in (3, 1, 2, 0):
        B.jet(p, order)
    assert seen == [3]


def test_memoized_jets_are_read_only():
    A = field("exp(u1)*u2", 2)
    p = point_set(Point((0.5, 1.5)))
    for order in (1, 0):
        with pytest.raises(ValueError, match="read-only"):
            A.jet(p, order).coeffs[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Straight-line programs against the closure tree they replace


def _build(node, dim: int):
    """One closure per node, evaluating its operands' closures on every call."""
    if isinstance(node, Num):
        known = {}
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
        arith = exprlang._ARITH[node.op]
        return _wrap(node, lambda p, order: arith(lhs(p, order), rhs(p, order)))
    if node.fn in ("exp", "ln"):
        arg = _build(node.args[0], dim)
        fn = jets.jet_exp if node.fn == "exp" else jets.jet_ln
        return _wrap(node, lambda p, order: fn(arg(p, order)))
    if node.fn == "pow":
        arg = _build(node.args[0], dim)
        r = float(node.args[1].value)
        return _wrap(node, lambda p, order: jets.jet_pow(arg(p, order), r))
    a, b, c = (float(x.value) for x in node.args[:3])
    arg = _build(node.args[3], dim)
    return _wrap(node, lambda p, order: jets.jet_hypergeom_2f1(a, b, c, arg(p, order)))


def _wrap(node, fn):
    def wrapped(p, order):
        try:
            return fn(p, order)
        except JetDomainError as exc:
            raise EvalError(f"{exc} in {to_text(node)!r}") from exc

    return wrapped


def tree_field(src: str, dim: int, params=None) -> ScalarField:
    """The field as a tree of closures, one per node: the program's oracle."""
    fexpr = parse_field(src, dim, params)
    return ScalarField(dim, _build(fexpr.ast, dim))


@pytest.mark.parametrize("e", catalog_entries(), ids=lambda e: e.entry_id)
def test_programs_match_the_closure_tree_bit_for_bit(e):
    coords = sample_points(e.dim, 7, 3, predicates=e.sample_predicates()).coords
    for f, src in ((e.density_field(), e.density_src), (e.current_field(), e.current_src)):
        if f is not None:
            tree = tree_field(src, e.dim, e.params)
            for order in range(jets.MAX_ORDER + 1):
                assert same_bits(f.jet(PointSet(coords), order).coeffs, tree.jet(PointSet(coords), order).coeffs)


@pytest.mark.parametrize(
    "src, coords",
    [
        ("ln(u1)", [[0.5, -1.0], [1.0, 1.0]]),
        ("exp(800*u1)", [[0.5, 1.0], [0.0, 0.0]]),
        ("pow(u1, 0.5)", [[2.0, -0.25], [1.0, 1.0]]),
        ("1/(u2-u1)", [[0.5, 1.5], [1.0, 1.5]]),
        ("hyp2f1(0.5, 1.5, 2.5, u1)", [[0.5, -1.0], [0.0, 0.0]]),
        ("u1*u2 + ln(u2-u1)*exp(u1) - ln(u2-u1)", [[0.5, 1.5], [1.0, 1.5]]),
        ("(u2-u1)^-2 + pow(u2-u1, -2.0) + 1/(u2-u1)", [[0.5, 1.5], [1.0, 1.5]]),
    ],
)
def test_programs_fail_where_the_closure_tree_fails(src, coords):
    for order in range(jets.MAX_ORDER + 1):
        with pytest.raises(EvalError) as want:
            tree_field(src, 2).jet(PointSet(coords), order)
        with pytest.raises(EvalError) as got:
            field(src, 2).jet(PointSet(coords), order)
        assert str(got.value) == str(want.value)


def _counting(monkeypatch, op: str) -> list:
    """Swap _ARITH[op] for a wrapper recording each call's order."""
    calls, real = [], exprlang._ARITH[op]
    monkeypatch.setitem(exprlang._ARITH, op, lambda a, b: calls.append(a.order) or real(a, b))
    return calls


def test_a_repeated_subexpression_is_evaluated_once(monkeypatch):
    f = field("u1*u2 + u1*u2", 2)
    calls = _counting(monkeypatch, "*")  # after f's compilation, before the tree's, which binds its functions
    tree, p = tree_field("u1*u2 + u1*u2", 2), Point((0.5, 1.5))
    for order in range(jets.MAX_ORDER + 1):
        assert same_bits(f.jet(p, order).coeffs, tree.jet(p, order).coeffs)
    assert calls == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]  # the program's one multiply, then the tree's two


def test_jet_functions_swapped_after_compilation_are_called(monkeypatch):
    e = entry("dim3-eps-1-h1")
    A, g = e.density_field(), field("u1*u2*(u1+3)*exp(u2)", 2)
    exps, real_exp = [], jets.jet_exp
    monkeypatch.setattr(jets, "jet_exp", lambda a: exps.append(a.order) or real_exp(a))
    calls, p = _counting(monkeypatch, "*"), sample_points(3, 1, 5)
    tree = tree_field(e.density_src, e.dim, e.params)
    got = A.jet(p, 2)
    program = len(calls)
    assert same_bits(got.coeffs, tree.jet(PointSet(p.coords), 2).coeffs)
    assert (program, len(calls) - program) == (18, 23) and exps == [2] * 6  # three exps in each
    calls.clear()
    g.jet(Point((0.5, 1.5)), 1)
    assert calls == [1, 1, 1] and exps[-1] == 1


def test_a_program_leaves_no_reference_cycle():
    def compile_and_evaluate():
        f = field("u1*u2 + exp(u1*u2)/(u2-u1) - pow(u2-u1, 0.5)", 2)
        f.jet(Point((0.5, 1.5)), 2)
        with pytest.raises(EvalError):
            f.jet(Point((1.5, 0.5)), 1)

    assert cyclic_recipfm_objects(compile_and_evaluate) == []
