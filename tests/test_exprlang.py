import math
import random

import numpy as np
import pytest

from conftest import ELEMENTARY_CORPUS, corpus_points, every_order_from_scratch, partial, same_bits
from recipfm import jets
from recipfm.catalog import catalog_entries, epsilon_system
from recipfm.exprlang import (
    Bin,
    Call,
    Coord,
    EvalError,
    Num,
    ParseError,
    compile_field,
    evaluate_value,
    field,
    parse_field,
    partial_field,
    to_text,
)
from recipfm.geometry import sample_points
from recipfm.jets import Point, PointSet, point_set


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
