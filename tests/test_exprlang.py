import random

import pytest

from conftest import partial
from recipfm import jets
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
