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
    same_non_nan_bits,
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
    to_text,
)
from recipfm.geometry import DiagonalSystem, sample_points
from recipfm.jets import JetDomainError, Point, PointSet, point_set


NOT_A_NODE = exprlang.FieldExpr(Bin("+", Coord(0), "u2"), 2)  # a string where an operand node belongs


@pytest.mark.parametrize(
    "run, want",
    [
        (lambda: to_text(NOT_A_NODE), "TypeError: not an AST node: 'u2'"),
        (lambda: compile_field(NOT_A_NODE), "TypeError: not an AST node: 'u2'"),
        (lambda: evaluate_value(NOT_A_NODE, (0.5, 1.5)), "TypeError: not an AST node: 'u2'"),
        (lambda: repr(PointSet(np.zeros((2, 3)))), "PointSet(dim=2, npoints=3)"),
    ],
    ids=["to_text", "compile_field", "evaluate_value", "PointSet.__repr__"],
)
def test_tree_walkers_refuse_a_non_node_and_a_point_set_shows_its_size(run, want):
    try:
        got = run()
    except TypeError as exc:
        got = f"TypeError: {exc}"
    assert got == want


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
            direct = evaluate_value(e, p.coords)
            assert f.value(p) == pytest.approx(direct, rel=1e-14, abs=1e-14)


def test_field_dimension_checks():
    f = field("u1+u2", 2)
    with pytest.raises(ValueError):
        f.value(jets.Point((1.0, 2.0, 3.0)))


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
    is all finite; f is a field, or a diagonal system read through its velocity
    stack.  Returns the number of non-finite order-k jets met."""
    evaluate = f.velocity_jets if isinstance(f, DiagonalSystem) else lambda p, order: f.jet(p, order).coeffs
    nonfinite = 0
    for k in range(1, jets.MAX_ORDER + 1):
        for m in range(k):
            held, fresh = PointSet(coords), PointSet(coords)
            high = evaluate(held, k)
            got = evaluate(held, m)
            with every_order_from_scratch():
                want = evaluate(fresh, m)
            assert same_bits(got, want), (f, m, k)
            finite = bool(np.isfinite(high).all())
            assert np.shares_memory(got, high) == finite, (f, m, k)
            nonfinite += not finite
    return nonfinite


@pytest.mark.parametrize("e", catalog_entries(), ids=lambda e: e.entry_id)
def test_catalog_fields_read_lower_orders_off_higher_bit_for_bit(e):
    A = e.density_field()
    for seed in (0, 1):
        coords = sample_points(e.dim, 5, seed, predicates=e.sample_predicates()).coords
        for f in (A, e.current_field()):
            if f is not None:
                assert_lower_orders_read_off_higher(f, coords)


@pytest.mark.parametrize("n", range(2, 7))
def test_velocities_read_lower_orders_off_higher_bit_for_bit(n):
    coords = sample_points(n, 4, seed=n).coords
    for eps in (1.0, -1.0, 0.5):
        assert_lower_orders_read_off_higher(epsilon_system(n, eps), coords)


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
        ("ln(u1*2) + ln(2*u1)", [[0.5, -1.0], [1.0, 1.0]]),  # one scale instruction; the first subtree is named
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


def test_products_by_a_constant_are_one_scale_each_bit_for_bit(monkeypatch):
    src = "3*u1 + u1*3 + u2*-0.0 - 0*u1 + 0.5*exp(u1*u2)*2 - u1*(-2)*u2"
    f, tree = field(src, 2), tree_field(src, 2)
    scales, real = [], jets.scale
    monkeypatch.setattr(jets, "scale", lambda c, a: scales.append(c) or real(c, a))
    points = PointSet([[0.5, -1.5, 0.0, 2.0], [1.5, 0.25, -0.0, -3.0]])
    for order in range(jets.MAX_ORDER + 1):
        want = tree.jet(points, order).coeffs
        scales.clear()
        got = f.jet(points, order).coeffs
        # 3*u1 and u1*3 share one instruction; 3*u1 and u2*-0.0 read consecutive lifts, 0*u1 and u1*(-2) one
        # lift, so each pair is one scale with a constant per row; the one other array is exp's Horner start,
        # which order 1 writes directly
        assert [c.ravel().tolist() if np.ndim(c) == 3 else c for c in scales if np.ndim(c) != 1] == [
            [3.0, -0.0], [0.0, -2.0], 0.5, 2.0]
        assert len(scales) == 4 + (order > 1)
        assert same_bits(got, want)


def test_jet_functions_swapped_after_compilation_are_called(monkeypatch):
    e = entry("dim3-eps-1-h1")
    A, g = e.density_field(), field("u1*u2*(u1+3)*exp(u2)", 2)
    exps, real_exp = [], jets.jet_exp
    monkeypatch.setattr(jets, "jet_exp", lambda a: exps.append(a.order) or real_exp(a))
    scales, real_scale = [], jets.scale
    monkeypatch.setattr(jets, "scale", lambda c, a: scales.append(a.order) or real_scale(c, a))
    calls, p = _counting(monkeypatch, "*"), sample_points(3, 1, 5)
    tree = tree_field(e.density_src, e.dim, e.params)
    got = A.jet(p, 2)
    program, program_scales = len(calls), len(scales)
    assert same_bits(got.coeffs, tree.jet(PointSet(p.coords), 2).coeffs)
    # the program's five products in four calls, two of them one pack; three exps in each
    assert (program, len(calls) - program) == (4, 23) and exps == [2] * 6
    # the program's 13 products by a constant in 10 calls, three of them packs of two, and in each of
    # program and tree one Horner start per exp and one first factor per square
    assert (program_scales, len(scales) - program_scales) == (10 + 3 + 2, 3 + 2) and scales == [2] * 20
    calls.clear()
    scales.clear()
    g.jet(Point((0.5, 1.5)), 1)
    assert calls == [1, 1, 1] and exps[-1] == 1 and scales == []  # an order-1 exp writes its rows directly


def test_a_program_leaves_no_reference_cycle():
    def compile_and_evaluate():
        f = field("u1*u2 + exp(u1*u2)/(u2-u1) - pow(u2-u1, 0.5)", 2)
        f.jet(Point((0.5, 1.5)), 2)
        with pytest.raises(EvalError):
            f.jet(Point((1.5, 0.5)), 1)

    assert cyclic_recipfm_objects(compile_and_evaluate) == []


# ---------------------------------------------------------------------------
# Packs: sibling instructions as one stacked kernel call


def one_at_a_time(monkeypatch, src: str, dim: int, params=None) -> ScalarField:
    """The field compiled without packs: its run executes the program one
    instruction at a time, in program order, as the replay after an error does."""
    with monkeypatch.context() as m:
        m.setattr(exprlang, "_pack", lambda code, root, nslots, dim: (code, 0))
        return field(src, dim, params)


def _outcome(f: ScalarField, points: PointSet, order: int):
    try:
        return f.jet(points, order).coeffs
    except EvalError as exc:
        return str(exc)


def _packs(src: str, dim: int, params=None) -> list[str]:
    """The operation of each pack of the field's program, in the order they run."""
    fexpr, code, nodes = parse_field(src, dim, params), [], []
    root = exprlang._emit(fexpr.ast, code, nodes, {})
    steps, _ = exprlang._pack(code, root, len(nodes), dim)
    for k, op, i, j in steps:  # every operand of a pack is a slot, a stack or a view by one basic index
        assert op != "view" or isinstance(j, (int, slice)), (k, op, j)
    return [op for k, op, i, j in steps if k > len(nodes) and op not in ("view", "lifts")]


# fields whose packs have one-column operands (constants, and instructions of constants), read
# descending rows, negate, and one whose siblings fail at different points
_PACKED_SOURCES = [
    ("exp(u1)/3 + exp(u2)/3", 2),
    ("u1*exp(2) + u2*exp(2) - exp(2)/u1 - exp(2)/u2", 2),
    ("(u1 + 1)*(u2 + 1) + -u1*-u2", 2),
    ("(u3 - u2)*(u2 - u1) + 2*(u3 - u2) + 5*(u2 - u1)", 3),
    ("exp(800*u1)/(u2-u1) + exp(800*u2)/(u2-u1)", 2),
]
_NON_FINITE = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -5e-324])


def _point_sets(dim: int, order: int, seed: int):
    """Sampled points with signed zeros, and the same with lifts holding +-inf, NaN and signed zeros."""
    coords = sample_points(dim, 6, seed).coords.copy()
    coords[0, :2] = (0.0, -0.0)
    yield PointSet(coords)
    rng = np.random.default_rng(seed)
    points = PointSet(coords)
    lifts = points.lifts(order).copy()
    hit = rng.random(lifts.shape) < 0.2
    lifts[hit] = rng.choice(_NON_FINITE, hit.sum())
    lifts.flags.writeable = False
    points._memo[jets.variable][order] = lifts  # what every lift of this set and order reads
    yield points


def _sources():
    for e in catalog_entries():
        yield pytest.param(e.density_src, e.dim, e.params, id=e.entry_id)
        if e.current_src is not None:
            yield pytest.param(e.current_src, e.dim, e.params, id=f"{e.entry_id}-current")
    for src, dim in _PACKED_SOURCES:
        yield pytest.param(src, dim, None, id=src)


@pytest.mark.parametrize("src, dim, params", _sources())
def test_packed_runs_match_the_one_at_a_time_replay_bit_for_bit(monkeypatch, src, dim, params):
    """Every catalog density and current, and fields with one-column pack operands, at orders 0-3:
    the packed run gives the one-at-a-time run's bits, NaN positions compared, or its error text."""
    for order in range(jets.MAX_ORDER + 1):
        for seed in (3, 7):
            for packed, single in zip(_point_sets(dim, order, seed), _point_sets(dim, order, seed)):
                want = _outcome(one_at_a_time(monkeypatch, src, dim, params), single, order)
                got = _outcome(field(src, dim, params), packed, order)
                assert got == want if isinstance(want, str) else same_non_nan_bits(got, want), (order, seed)


def test_the_siblings_of_the_catalog_densities_pack():
    e = entry("dim2-eps1-h1")
    assert _packs(e.density_src, e.dim, e.params) == ["scale", "jet_exp", "scale", "/"]
    e = entry("dim2-eps-1-h1")
    assert _packs(e.density_src, e.dim, e.params) == ["scale", "jet_exp", "scale"]
    assert [_packs(*source) for source in _PACKED_SOURCES[:4]] == [
        ["jet_exp", "/"], ["*", "/"], ["+", "neg"], ["-", "scale"]]


def test_a_failing_pack_raises_the_one_at_a_time_error(monkeypatch):
    """Two packed exps that overflow, over seeds where only the second does and where both
    do at different first points; and an exp whose depth runs it after an ln it precedes
    in the program: each error is the one a run one instruction at a time raises."""
    src = _PACKED_SOURCES[-1][0]
    packed, single, met = field(src, 2), one_at_a_time(monkeypatch, src, 2), set()
    assert _packs(src, 2) == ["scale", "jet_exp", "/"]
    for seed in range(40):
        points = sample_points(2, 5, seed)
        over = 800.0 * points.coords > 709.78  # exp overflows
        first = [int(np.argmax(row)) if row.any() else None for row in over]
        met.add("second only" if first[0] is None and first[1] is not None else
                "both, at different points" if None not in first and first[0] != first[1] else "other")
        for order in range(jets.MAX_ORDER + 1):
            want = _outcome(single, points, order)
            assert _outcome(packed, points, order) == want
            assert isinstance(want, str) == any(f is not None for f in first)
    assert met == {"second only", "both, at different points", "other"}
    src = "exp(800*u1) + ln(u2)"
    points = PointSet([[1.0], [-1.0]])
    with pytest.raises(EvalError, match=r"^exp overflows at value 800.0 in 'exp\(800.0 \* u1\)'$"):
        field(src, 2).jet(points, 1)
