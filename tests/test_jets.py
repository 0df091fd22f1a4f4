import math
import random

import numpy as np
import pytest

from conftest import ELEMENTARY_CORPUS, corpus_exprs, corpus_points, fd_partial, partial, same_bits
from recipfm import jets
from recipfm.exprlang import EvalError, compile_field, field
from recipfm.jets import Jet, JetDomainError, JetError, Point, PointSet


def test_point_validation():
    with pytest.raises(ValueError):
        Point((1.0,))
    with pytest.raises(ValueError):
        Point((1.0, float("inf")))
    p = jets.Point((1.0, -2.0, 0.5))
    assert p.dim == 3 and p[1] == -2.0 and list(p) == [1.0, -2.0, 0.5]


def test_coordinate_lift():
    j = jets.variable(1, 2, 0, 2.0)
    assert j.coeffs.tolist() == [[2.0], [1.0], [0.0]]


def test_square_of_coordinate():
    u = jets.variable(1, 2, 0, 3.0)
    assert jets.mul(u, u).coeffs.tolist() == [[9.0], [6.0], [1.0]]


def test_division_against_reciprocal_series():
    inv = jets.div(jets.constant(1, 2, 1.0), jets.variable(1, 2, 0, 2.0))
    assert inv.coeffs[:, 0] == pytest.approx((0.5, -0.25, 0.125), abs=1e-15)


def test_division_matches_finite_differences():
    from recipfm.exprlang import parse_field

    expr = parse_field("1/u1", 2)
    inv = compile_field(expr).jet(jets.Point((2.0, 1.0)), 2)
    for alpha in ((0, 0), (1, 0), (2, 0)):
        assert partial(inv, alpha) == pytest.approx(fd_partial(expr, (2.0, 1.0), alpha), abs=1e-6)


def test_exp_series():
    e = jets.jet_exp(jets.variable(1, 2, 0, 0.0))
    assert e.coeffs[:, 0] == pytest.approx((1.0, 1.0, 0.5))


def test_ln_series():
    l = jets.jet_ln(jets.variable(1, 3, 0, 1.0))
    assert l.coeffs[:, 0] == pytest.approx((0.0, 1.0, -0.5, 1.0 / 3.0))


def test_pow_matches_finite_differences():
    from recipfm.exprlang import parse_field

    expr = parse_field("pow(u2-u1, -2)", 2)
    j = compile_field(expr).jet(jets.Point((0.0, 1.0)), 2)
    for alpha in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
        assert partial(j, alpha) == pytest.approx(fd_partial(expr, (0.0, 1.0), alpha), abs=1e-6)


def test_integer_pow_negative_base():
    j = jets.jet_pow(jets.variable(1, 2, 0, -1.5), 3)
    assert j.value == pytest.approx((-1.5) ** 3)
    assert partial(j, (1,)) == pytest.approx(3 * (-1.5) ** 2)


def test_elementary_domain_errors():
    with pytest.raises(JetDomainError):
        jets.jet_ln(jets.variable(1, 2, 0, -1.0))
    with pytest.raises(JetDomainError):
        jets.jet_pow(jets.variable(1, 2, 0, -1.0), 0.5)
    with pytest.raises(JetDomainError):
        jets.div(jets.constant(1, 2, 1.0), jets.constant(1, 2, 0.0))


def test_arith_shape_errors():
    with pytest.raises(JetError):
        jets.add(jets.constant(1, 2, 1.0), jets.constant(2, 2, 1.0))
    with pytest.raises(JetError):
        jets.add(jets.constant(2, 1, 1.0), jets.constant(2, 2, 1.0))


def test_partial_examples():
    u1u2 = jets.mul(jets.variable(2, 2, 0, 1.0), jets.variable(2, 2, 1, 1.0))
    assert partial(u1u2, (1, 1)) == pytest.approx(1.0)
    e = jets.jet_exp(jets.variable(1, 2, 0, 0.0))
    assert partial(e, (2,)) == pytest.approx(1.0)
    f = jets.div(
        jets.constant(2, 2, 1.0),
        jets.sub(jets.variable(2, 2, 1, 1.0), jets.variable(2, 2, 0, 2.0)),
    )
    assert partial(f, (0, 1)) == pytest.approx(-1.0)
    with pytest.raises(JetError):
        partial(f, (3, 0))


def test_hyp2f1_values():
    assert jets.hyp2f1_value(0.3, 0.7, 1.9, 0.0) == 1.0
    assert jets.hyp2f1_value(1, 2, 2, 0.5) == pytest.approx(2.0, rel=1e-15)
    assert jets.hyp2f1_value(1, 1, 2, 0.5) == pytest.approx(2 * math.log(2), rel=1e-14)
    with pytest.raises(JetDomainError):
        jets.hyp2f1_value(1, 1, 2, 1.0)
    with pytest.raises(JetDomainError):
        jets.hyp2f1_value(1, 1, -2.0, 0.5)


def test_hyp2f1_jet_matches_geometric_series():
    # 2F1(1,2;2;z) = 1/(1-z); jets must agree across the disk
    for zv in (-0.9, -0.4, 0.0, 0.3, 0.7, 0.9):
        z = jets.variable(1, 3, 0, zv)
        lhs = jets.jet_hypergeom_2f1(1.0, 2.0, 2.0, z)
        rhs = jets.div(jets.constant(1, 3, 1.0), jets.sub(jets.constant(1, 3, 1.0), z))
        for a, b in zip(lhs.coeffs, rhs.coeffs):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_derivative_shift():
    # d/du1 of u1^2 u2 at (2, 3)
    u1 = jets.variable(2, 3, 0, 2.0)
    u2 = jets.variable(2, 3, 1, 3.0)
    f = jets.mul(jets.mul(u1, u1), u2)
    d = jets.derivative(f, 0)
    assert d.order == 2
    assert d.value == pytest.approx(2 * 2.0 * 3.0)
    assert partial(d, (1, 0)) == pytest.approx(2 * 3.0)
    assert partial(d, (0, 1)) == pytest.approx(2 * 2.0)


def test_structural_misuse_raises():
    for dim, order in ((0, 1), (2, 4)):
        with pytest.raises(JetError):
            jets.multi_indices(dim, order)
    u = jets.variable(2, 1, 0, 1.0)
    with pytest.raises(JetError, match="order-0"):
        jets.derivative(jets.constant(2, 0, 1.0), 0)
    for index in (-1, 2):
        with pytest.raises(JetError, match=f"index {index} out of range"):
            jets.derivative(u, index)
    with pytest.raises(JetError, match="does not match dimension 2"):
        u.coefficient((1, 0, 0))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_from_partials_is_the_per_row_loop_bit_for_bit(dim, order):
    """The inverse gather against the loop it replaced in the current: row r, of
    multi-index alpha, is the coefficient at alpha - e_i of d_i over alpha[i],
    at the first i with alpha[i] > 0, under a value row of 0.0."""
    rng = np.random.default_rng(20 * dim + order)
    npoints = 5
    d = rng.uniform(-3.0, 3.0, (dim, len(jets.multi_indices(dim, order - 1)), npoints))
    # d[0] is read whole, and d[l][0] (alpha = e_l) for every l
    d[0, 0, 0], d[0, -1, 1], d[-1, 0, 2], d[1, 0, 3], d[0, 0, 4] = -0.0, math.nan, math.inf, -math.inf, 0.0
    want = np.empty((len(jets.multi_indices(dim, order)), npoints))
    want[0] = 0.0
    for r, alpha in enumerate(jets.multi_indices(dim, order)[1:], start=1):
        i = next(m for m, a in enumerate(alpha) if a > 0)
        beta = tuple(a - (1 if m == i else 0) for m, a in enumerate(alpha))
        want[r] = Jet(dim, order - 1, d[i]).coefficient(beta) / alpha[i]
    got = jets.from_partials(d, dim, order)
    assert (got.dim, got.order) == (dim, order) and same_bits(got.coeffs, want)
    assert np.isnan(got.coeffs).any() and np.isinf(got.coeffs).sum() == 2 and np.signbit(got.coeffs[1:]).any()


def _random_jet(rng: random.Random, dim: int, order: int) -> Jet:
    n = len(jets.multi_indices(dim, order))
    return Jet(dim, order, [[rng.uniform(-2.0, 2.0)] for _ in range(n)])


def test_arithmetic_properties():
    rng = random.Random(99)
    for _ in range(25):
        dim = rng.choice((1, 2, 3))
        order = rng.choice((1, 2, 3))
        a, b, c = (_random_jet(rng, dim, order) for _ in range(3))
        assoc = jets.sub(jets.mul(jets.mul(a, b), c), jets.mul(a, jets.mul(b, c)))
        comm = jets.sub(jets.mul(a, b), jets.mul(b, a))
        dist = jets.sub(jets.mul(a, jets.add(b, c)), jets.add(jets.mul(a, b), jets.mul(a, c)))
        scale = max(np.abs(j.coeffs).max() for j in (a, b, c)) ** 2 + 1.0
        for residual in (assoc, comm, dist):
            assert np.abs(residual.coeffs).max() <= 1e-13 * scale
        if abs(b.value) > 0.1:
            roundtrip = jets.sub(jets.div(jets.mul(a, b), b), a)
            assert np.abs(roundtrip.coeffs).max() <= 1e-12 * scale


def test_elementary_corpus_matches_finite_differences():
    points = corpus_points()
    for expr in corpus_exprs():
        f = compile_field(expr)
        for p in points:
            j = f.jet(p, 3)
            for alpha in jets.multi_indices(2, 3):
                got = partial(j, alpha)
                want = fd_partial(expr, tuple(p), alpha)
                assert got == pytest.approx(want, abs=1e-5), (expr, tuple(p), alpha)


def test_truncate_prefix_property():
    # truncation is a slice: the order-2 multi-indices lead the order-3 ones,
    # so the first rows of an order-3 jet are its order-2 truncation
    rng = random.Random(5)
    j = _random_jet(rng, 3, 3)
    lower = jets.multi_indices(3, 2)
    assert jets.multi_indices(3, 3)[: len(lower)] == lower
    t = Jet(3, 2, j.coeffs[: len(lower)])
    for alpha in lower:
        assert t.coefficient(alpha) == j.coefficient(alpha)


@pytest.mark.parametrize("npoints", [1, 4])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_gradient_and_hessian_readers_are_partial_bit_for_bit(dim, order, npoints):
    rng = np.random.default_rng(100 * dim + 10 * order + npoints)
    coeffs = rng.uniform(-3.0, 3.0, (3, len(jets.multi_indices(dim, order)), npoints))
    coeffs[0, -1, 0], coeffs[1, 1, 0], coeffs[2, 2, -1] = math.nan, -0.0, math.inf  # special values keep their bits
    unit = np.eye(dim, dtype=int)
    for m, c in enumerate(coeffs):
        j = Jet(dim, order, c)
        grad = jets.gradient(j)
        assert grad.shape == (dim, npoints)
        assert grad.tobytes() == np.array([partial(j, e) for e in unit]).tobytes()
        assert grad.tobytes() == jets.gradient(coeffs, dim)[m].tobytes()  # the stacked form reads the same rows
        if order >= 2:
            hess = jets.hessian(j)
            assert hess.shape == (dim, dim, npoints)
            want = np.array([[partial(j, a + b) for b in unit] for a in unit])
            assert hess.tobytes() == want.tobytes()
            assert hess.tobytes() == jets.hessian(coeffs, dim)[m].tobytes()


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_partials_reader_is_derivative_bit_for_bit(dim, order):
    rng = np.random.default_rng(10 * dim + order)
    ncoeff = len(jets.multi_indices(dim, order))
    for npoints in (1, 5):
        coeffs = rng.uniform(-3.0, 3.0, (3, ncoeff, npoints))
        coeffs[0, -1, 0], coeffs[1, 0, -1], coeffs[2, -1, -1] = -0.0, math.inf, -math.inf
        coeffs[1, -1, 0], coeffs[2, 0, 0] = 0.0, -0.0  # signed zeros keep their sign through the factor
        stacked = jets.partials(coeffs, dim)
        assert stacked.shape == (3, dim, len(jets.multi_indices(dim, order - 1)), npoints)
        for m, c in enumerate(coeffs):
            j = Jet(dim, order, c)
            want = np.array([jets.derivative(j, l).coeffs for l in range(dim)])
            assert same_bits(jets.partials(j), want)
            assert same_bits(stacked[m], want)
    with pytest.raises(JetError):
        jets.partials(jets.constant(dim, 0, 1.0))


@pytest.mark.parametrize("dim", range(2, 9))
def test_lifts_are_the_coordinate_variables(dim):
    rng = np.random.default_rng(dim)
    pts = PointSet(rng.uniform(-2.0, 2.0, (dim, 4)))
    for order in range(jets.MAX_ORDER + 1):
        lifts = pts.lifts(order)
        assert lifts.shape == (dim, len(jets.multi_indices(dim, order)), 4) and not lifts.flags.writeable
        for l in range(dim):
            want = jets.variable(dim, order, l, pts.coords[l]).coeffs
            assert same_bits(lifts[l], want)
            assert pts.lift(l, order).order == order and same_bits(pts.lift(l, order).coeffs, want)


def test_lifts_are_one_array_per_set_and_order():
    pts = PointSet([[1.0, -2.0], [0.5, 3.0], [-1.5, 2.5]])
    top = pts.lifts(2)
    assert pts.lifts(2) is top
    assert np.shares_memory(pts.lifts(1), top)  # read off order 2, which is all finite
    assert pts.lifts(1) is pts.lifts(1)
    assert np.shares_memory(pts.lift(2, 1).coeffs, top) and same_bits(pts.lift(2, 1).coeffs, top[2, :4])
    for index in (-1, 3):
        with pytest.raises(JetError, match="out of range"):
            pts.lift(index, 1)


# ---------------------------------------------------------------------------
# point sets: one jet over all points, column k exactly the jet at point k


def test_point_set_validation():
    p, q = jets.Point((1.0, 3.0)), jets.Point((2.0, 4.0))
    b = jets.point_set([p, q])
    assert b.dim == 2 and len(b) == 2 and b[1] is q and list(b) == [p, q] and b[:1] == (p,)
    assert b.coords.tolist() == [[1.0, 2.0], [3.0, 4.0]] and jets.point_set(b) is b
    built = PointSet([[1.0, 2.0], [3.0, 4.0]])  # from coordinates: its Points are made when read
    assert list(built) == [p, q] and built != b  # a set is a scope: equal points, another set
    with pytest.raises(ValueError):
        b.coords[0, 0] = 5.0  # read-only, so shared coordinate arrays cannot be corrupted
    for bad in ([], [p, jets.Point((1.0, 2.0, 3.0))]):
        with pytest.raises(ValueError):
            jets.point_set(bad)
    for bad in ([[1.0, 2.0]], [[1.0, math.nan], [3.0, 4.0]], [[], []], [[[1.0]], [[2.0]]]):
        with pytest.raises(ValueError):
            PointSet(bad)


def test_batch_jets_match_scalar_jets_on_the_corpus():
    points = corpus_points()
    for src, expr in zip(ELEMENTARY_CORPUS, corpus_exprs()):
        f = compile_field(expr)
        for order in range(4):
            got = f.jet(points, order)
            assert (got.dim, got.order, got.coeffs.shape[1]) == (2, order, len(points))
            for k, p in enumerate(points):
                want = f.jet(p, order).coeffs[:, 0]
                assert got.coeffs[:, k].tobytes() == want.tobytes(), (src, order, tuple(p))
        assert list(points._memo[f]) == [0, 1, 2, 3]  # the held set keeps each order; a one-point set, its own


def test_batch_domain_checks_test_every_element():
    v = jets.variable(1, 2, 0, np.array([2.0, 1.0, -0.5, -3.0]))
    with pytest.raises(JetDomainError, match="ln of non-positive value -0.5"):
        jets.jet_ln(v)
    with pytest.raises(JetDomainError, match="at non-positive value -0.5"):
        jets.jet_pow(v, 0.5)
    with pytest.raises(JetDomainError, match="zero value"):
        jets.div(jets.constant(1, 2, 1.0), jets.sub(v, jets.constant(1, 2, 1.0)))
    with pytest.raises(JetDomainError, match="zero value"):
        jets.jet_pow(jets.sub(v, jets.constant(1, 2, 1.0)), -2)
    with pytest.raises(JetDomainError, match=r"\|z\| < 1, got z=-1.5"):
        jets.hyp2f1_value(1.0, 1.0, 2.0, np.array([0.5, 0.25, -1.5, 0.1]))


def _hyp2f1_term_by_term(a, b, c, z):
    total = term = 1.0
    for k in range(jets.HYP2F1_MAX_TERMS):
        term = term * ((a + k) * (b + k) * z / ((c + k) * (k + 1.0)))
        total += term
        if abs(term) <= jets.HYP2F1_REL_TOL * max(1.0, abs(total)):
            return total


def test_hyp2f1_batch_stops_where_each_scalar_series_stops():
    z = np.array([0.0, 0.2, -0.5, 0.9, 0.99])
    got = jets.hyp2f1_value(0.5, 1.5, 2.5, z)
    assert got.tolist() == [_hyp2f1_term_by_term(0.5, 1.5, 2.5, x) for x in z.tolist()]


def test_exp_and_real_pow_overflow_leave_the_domain():
    for value in (1000.0, np.array([1.0, 1000.0])):
        with pytest.raises(JetDomainError, match="exp overflows at value 1000.0"):
            jets.jet_exp(jets.variable(1, 2, 0, value))
    for value in (1e200, np.array([2.0, 1e200])):
        with pytest.raises(JetDomainError, match="pow with exponent 2.5 overflows"):
            jets.jet_pow(jets.variable(1, 2, 0, value), 2.5)
    with pytest.raises(EvalError, match="exp overflows"):
        field("exp(1000*u1)", 2).value(jets.Point((1.0, 2.0)))


@pytest.mark.parametrize(
    "fn, values, order, bad",
    [
        (jets.jet_ln, [1.0, 1e-200], 2, 1e-200),
        (jets.jet_ln, [1e-200, 1e200], 2, 1e-200),
        (jets.jet_exp, [1.0, 800.0], 1, 800.0),
        (jets.jet_exp, [800.0, 1.0, 900.0], 1, 800.0),
    ],
)
def test_batch_overflow_names_the_first_failing_element(fn, values, order, bad):
    with pytest.raises(JetDomainError, match=f"overflows at value {bad}$"):
        fn(jets.variable(1, order, 0, np.array(values)))


def test_ln_series_overflow_and_underflow_leave_the_domain():
    # 1/v^2 leaves the float range: v^2 underflows to zero at 1e-200, overflows at 1e200
    for value in (1e-200, 1e200, np.array([1.0, 1e-200]), np.array([1.0, 1e200])):
        with pytest.raises(JetDomainError, match="ln series overflows"):
            jets.jet_ln(jets.variable(1, 2, 0, value))
    assert jets.jet_ln(jets.variable(1, 1, 0, 1e-200)).coeffs[1] == pytest.approx(1e200)
    with pytest.raises(EvalError, match="ln series overflows"):
        field("ln(1e-200*u1^2)", 2).jet(jets.Point((1.0, 2.0)), 2)


# ---------------------------------------------------------------------------
# the gathered kernels against the layer-by-layer ones they replace


def _layers(rows):
    """The (pa, pb) pairs of rows layer by layer: layer l holds each row's l-th
    pair as index arrays, and the mask of the rows without one (None if every
    row has one), whose entries point at pair (0, 0)."""
    layers = []
    for l in range(max(map(len, rows), default=0)):
        pa, pb = (np.array(x, dtype=np.intp) for x in zip(*(row[l] if l < len(row) else (0, 0) for row in rows)))
        pad = np.array([[l >= len(row)] for row in rows])
        layers.append((pa, pb, pad if pad.any() else None))
    return layers


def layered_mul(a: Jet, b: Jet) -> np.ndarray:
    """The Cauchy product one layer of pairs at a time, each row's first pair (0, r) first."""
    out = 0.0 + a.coeffs[0] * b.coeffs
    for pa, pb, pad in _layers([row[1:] for row in jets._mul_table(a.dim, a.order)[1:]]):
        terms = a.coeffs[pa] * b.coeffs[pb]
        if pad is not None:
            np.copyto(terms, -0.0, where=pad)
        out[1:] += terms
    return out


def layered_div(a: Jet, b: Jet) -> np.ndarray:
    """The quotient grade by grade, one layer of pairs with pa != 0 at a time."""
    b0 = b.coeffs[0]
    if np.count_nonzero(b0 == 0.0):
        raise JetDomainError("division by a jet with zero value")
    inv, rows, start = 1.0 / b0, jets._mul_table(a.dim, a.order), 0
    q = np.empty((a.coeffs.shape[0], max(a.coeffs.shape[1], b.coeffs.shape[1])))
    for grade in range(a.order + 1):
        stop = start + math.comb(grade + a.dim - 1, a.dim - 1)
        s = a.coeffs[start:stop]
        for pa, pb, pad in _layers([[pair for pair in row if pair[0]] for row in rows[start:stop]]):
            terms = b.coeffs[pa] * q[pb]
            if pad is not None:
                np.copyto(terms, 0.0, where=pad)
            s = s - terms
        q[start:stop] = s * inv
        start = stop
    return q


def layered_compose(g: Jet, series) -> np.ndarray:
    """Horner's scheme with a constant jet added at every step."""
    series = list(series)[: g.order + 1]
    w = g.coeffs.copy()
    w[0] = 0.0
    w = Jet(g.dim, g.order, w)
    out = jets.constant(g.dim, g.order, series[-1])
    for c in reversed(series[:-1]):
        out = jets.add(jets.mul(out, w), jets.constant(g.dim, g.order, c))
    return out.coeffs


SPECIAL_VALUES = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e308, -1e308])


def _operand(rng, ncoeff: int, ncols: int, special: bool) -> np.ndarray:
    x = rng.standard_normal((ncoeff, ncols)) * 10.0 ** rng.integers(-3, 4, (ncoeff, ncols))
    if special:
        hit = rng.random(x.shape) < 0.3
        x[hit] = rng.choice(SPECIAL_VALUES, hit.sum())
    return x


def same_non_nan_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shape and NaN positions, and equal bit patterns everywhere else."""
    nan = np.isnan(want)
    return got.shape == want.shape and (np.isnan(got) == nan).all() and same_bits(got[~nan], want[~nan])


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("dim", range(2, 7))
def test_gathered_kernels_match_the_layered_ones(dim, order):
    rng = np.random.default_rng(10 * dim + order)
    ncoeff, met = len(jets.multi_indices(dim, order)), 0
    with np.errstate(all="ignore"):
        for npoints in (1, 5, 20, 96):
            for cols in ((npoints, npoints), (1, npoints), (npoints, 1)):
                for special in (False, True, True):
                    x, y = (Jet(dim, order, _operand(rng, ncoeff, c, special)) for c in cols)
                    assert same_non_nan_bits(jets.mul(x, y).coeffs, layered_mul(x, y))
                    y.coeffs[0] = np.where(y.coeffs[0] == 0.0, 0.75, y.coeffs[0])  # a zero divisor is below
                    assert same_non_nan_bits(jets.div(x, y).coeffs, layered_div(x, y))
                    series = _operand(rng, order + 1, cols[0], special)
                    assert same_non_nan_bits(jets.compose_univariate(y, series).coeffs, layered_compose(y, series))
                    met += special and bool(np.isnan(layered_div(x, y)).any())
    assert met  # the special values reach NaN, so the NaN positions are compared too


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_divisor_raises_as_before(zero):
    for order in range(jets.MAX_ORDER + 1):
        divisor = jets.constant(3, order, np.array([1.5, zero, 2.0]))
        for dividend in (jets.variable(3, order, 1, 2.0), jets.variable(3, order, 1, np.array([1.0, 2.0, 3.0]))):
            with pytest.raises(JetDomainError) as want:
                layered_div(dividend, divisor)
            with pytest.raises(JetDomainError) as got:
                jets.div(dividend, divisor)
            assert str(got.value) == str(want.value) == "division by a jet with zero value"


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0])


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("order", range(4))
def test_kernel_jets_pass_the_public_validation(dim, order):
    """The kernels build their jets without Jet.__init__'s checks; each one must pass them."""
    rng = np.random.default_rng(10 * dim + order)
    ncoeff = len(jets.multi_indices(dim, order))
    operand = lambda npoints: Jet(dim, order, rng.choice(_SPECIALS, size=(ncoeff, npoints)))
    built = []  # (jet, its expected number of columns)
    with np.errstate(all="ignore"):
        for na, nb in ((1, 1), (1, 5), (5, 1), (5, 5)):
            a, b = operand(na), operand(nb)
            divisor = Jet(dim, order, b.coeffs.copy())
            divisor.coeffs[0] = rng.choice([1.0, -0.5, np.inf, -np.inf, np.nan], size=nb)  # no zero value
            n = max(na, nb)
            built += [(jets.add(a, b), n), (jets.sub(a, b), n), (jets.mul(a, b), n), (jets.div(a, divisor), n)]
            # at order 0 the composite is the constant series[0]: one column
            built += [(-a, na), (jets.compose_univariate(b, [1.0, -0.0, np.inf, np.nan]), nb if order else 1)]
        built += [(jets.constant(dim, order, v), np.size(v)) for v in (0.0, -0.0, np.inf, np.nan, _SPECIALS)]
        if dim >= 2:
            points = PointSet(rng.uniform(-2.0, 2.0, size=(dim, 5)))
            built += [(points.lift(i, order), 5) for i in range(dim)]
    for j, npoints in built:
        checked = Jet(j.dim, j.order, j.coeffs)  # raises JetError on a wrong row count or rank
        assert checked.coeffs is j.coeffs  # already float64: np.asarray made no copy
        assert (j.dim, j.order, j.coeffs.shape) == (dim, order, (ncoeff, npoints))
    for shape in ((ncoeff + 1, 3), (ncoeff,), (1, ncoeff, 3)):
        with pytest.raises(JetError):
            Jet(dim, order, np.zeros(shape))
