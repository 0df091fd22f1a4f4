import math
import random
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import (
    ELEMENTARY_CORPUS,
    corpus_exprs,
    corpus_points,
    derivative,
    fd_partial,
    partial,
    same_bits,
    same_non_nan_bits,
)
from recipfm import jets
from recipfm.exprlang import EvalError, compile_field, field
from recipfm.jets import Jet, JetDomainError, JetError, Point, PointSet


def test_point_validation():
    with pytest.raises(ValueError):
        Point((1.0,))
    with pytest.raises(ValueError):
        Point((1.0, float("inf")))
    p = jets.Point((1.0, -2.0, 0.5))
    assert p.dim == 3 and p.coords == (1.0, -2.0, 0.5)


def test_a_point_is_no_sequence():
    with pytest.raises(TypeError):
        len(Point((1.0, 2.0)))


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
    d = Jet(2, 2, jets.partials(f)[0])
    assert d.value == pytest.approx(2 * 2.0 * 3.0)
    assert partial(d, (1, 0)) == pytest.approx(2 * 3.0)
    assert partial(d, (0, 1)) == pytest.approx(2 * 2.0)


def test_structural_misuse_raises():
    for dim, order in ((0, 1), (2, 4)):
        with pytest.raises(JetError):
            jets.multi_indices(dim, order)
    u = jets.variable(2, 1, 0, 1.0)
    for index in (-1, 2):
        with pytest.raises(JetError, match=f"coordinate index {index} out of range for dimension 2"):
            jets.variable(2, 1, index, 1.0)
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
                want = fd_partial(expr, p.coords, alpha)
                assert got == pytest.approx(want, abs=1e-5), (expr, p.coords, alpha)


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
    """partials against conftest's derivative, which reads each coefficient by
    its multi-index, independent of the row plan behind partials."""
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
            want = np.array([derivative(j, l).coeffs for l in range(dim)])
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


def test_order_zero_lifts_are_a_read_only_view_of_the_coordinates():
    pts = PointSet([[1.0, -0.0, 2.5], [0.5, 3.0, -1.0]])
    want = np.zeros((2, 1, 3))
    want[:, 0] = pts.coords  # the zeros-and-copy layout
    lifts = pts.lifts(0)
    assert same_bits(lifts, want) and np.shares_memory(lifts, pts.coords) and pts.lifts(0) is lifts
    with pytest.raises(ValueError, match="read-only"):
        lifts[0, 0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        pts.lift(1, 0).coeffs[0, 0] = 7.0
    later = PointSet(pts.coords)
    later.lifts(1)
    assert same_bits(later.lifts(0), want)  # read off order 1, as before


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
                assert got.coeffs[:, k].tobytes() == want.tobytes(), (src, order, p.coords)
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


def _hyp2f1_term_by_term(a, b, c, z, max_terms=jets.HYP2F1_MAX_TERMS):
    total = term = 1.0
    for k in range(max_terms):
        term = term * ((a + k) * (b + k) * z / ((c + k) * (k + 1.0)))
        total += term
        if abs(term) <= jets.HYP2F1_REL_TOL * max(1.0, abs(total)):
            return total
    raise JetDomainError(f"2F1 series did not converge for z={z}")


def test_hyp2f1_batch_stops_where_each_scalar_series_stops():
    z = np.array([0.0, 0.2, -0.5, 0.9, 0.99])
    got = jets.hyp2f1_value(0.5, 1.5, 2.5, z)
    assert got.tolist() == [_hyp2f1_term_by_term(0.5, 1.5, 2.5, x) for x in z.tolist()]


def test_hyp2f1_batch_gives_up_where_the_scalar_series_does():
    """1/(1 - z) at z = 0.996906 settles at term 10024: past HYP2F1_MAX_TERMS, inside
    the block that a batch of 64 terms would still have summed."""
    assert jets.HYP2F1_MAX_TERMS % jets.HYP2F1_BLOCK == 0
    z = 0.996906
    assert _hyp2f1_term_by_term(1.0, 1.0, 1.0, z, max_terms=10048) == pytest.approx(1.0 / (1.0 - z))
    for series in (jets.hyp2f1_value, _hyp2f1_term_by_term):
        with pytest.raises(JetDomainError, match=r"^2F1 series did not converge for z=0\.996906$"):
            series(1.0, 1.0, 1.0, z)
    with pytest.raises(JetDomainError, match=r"did not converge for z=0\.996906$"):
        jets.hyp2f1_value(1.0, 1.0, 1.0, np.array([0.5, z, 0.25]))


def _series_outcome(*args):
    """hyp2f1_value's bytes, shape and dtype, or its error's type and text."""
    try:
        got = jets.hyp2f1_value(*args)
    except JetError as exc:
        return type(exc), str(exc)
    return got.tobytes(), got.shape, got.dtype


_SCHEDULE_Z = (0.0, 1e-300, -1e-300, 0.34, -0.34, 0.9, -0.9, 0.999, -0.999, 0.996906)  # the last settles at 10024


@pytest.mark.parametrize("abc", [(1.0, 2.0, 2.0), (-1.0, 2.0, 4.0)], ids=["a1-b2-c2", "a-1-b2-c4"])
def test_hyp2f1_block_schedule_changes_no_bit(monkeypatch, abc):
    """The first block sized from max |z|, and fixed blocks of 1, 7, 33 and 80
    terms, give every bit and every error alike: a scalar z, the catalog's
    (order + 1, 1) shifts against (npoints,) values, and empty arrays.  At 0.999
    the series of a = 1 gives up at HYP2F1_MAX_TERMS under every schedule, and
    so it does at 0.996906, which 33-term blocks not cut there would reach."""
    shifts = np.arange(4.0)[:, None]
    a, b, c = abc
    settled = np.array([z for z in _SCHEDULE_Z if abs(z) < 0.99])
    calls = [(a, b, c, z) for z in _SCHEDULE_Z]
    for z in (settled, np.array(_SCHEDULE_Z), np.empty(0)):
        calls += [(a, b, c, z), (a + shifts, b + shifts, c + shifts, z)]
    sized = [_series_outcome(*args) for args in calls]
    assert sized[-1] == (b"", (4, 0), np.float64) and (a != 1.0 or {sized[7][0], sized[9][0]} == {JetDomainError})
    for block in (1, 7, 33, 80):
        monkeypatch.setattr(jets, "HYP2F1_BLOCK", block)
        monkeypatch.setattr(jets, "_first_block", lambda zmax, size: block)
        assert [_series_outcome(*args) for args in calls] == sized, block


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


# ---------------------------------------------------------------------------
# the kernels on stacked coefficient arrays against a Jet call per jet


def _per_jet(op, x: np.ndarray, y: np.ndarray, dim: int, order: int) -> np.ndarray:
    """op on each pair of jets of x and y, (..., ncoeff, ncols) whose leading axes broadcast, stacked back."""
    lead = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    x, y = (np.broadcast_to(z, lead + z.shape[-2:]) for z in (x, y))  # each jet keeps its own columns
    out = np.array([op(Jet(dim, order, x[k]), Jet(dim, order, y[k])).coeffs for k in np.ndindex(lead)])
    return out.reshape(lead + out.shape[1:])


# (x's shape, y's shape) with m = 3 jets of ncoeff rows at 5 points: one-column operands, an operand
# without the leading axis and two leading axes broadcast
_ARRAY_SHAPES = [((3, 5), (3, 5)), ((3, 1), (3, 5)), ((3, 5), (3, 1)), ((5,), (3, 5)), ((3, 5), (1,)),
                 ((1, 5), (3, 1)), ((2, 1, 5), (3, 5)), ((3, 1), (2, 1, 1))]


def _jet_by_jet(fn, *arrays) -> np.ndarray:
    """fn on the entries [k] of arrays (..., rows, ncols) whose leading axes broadcast, for each k, stacked back."""
    lead = np.broadcast_shapes(*(z.shape[:-2] for z in arrays))
    arrays = [np.broadcast_to(z, lead + z.shape[-2:]) for z in arrays]
    out = np.array([fn(*(z[k] for z in arrays)) for k in np.ndindex(lead)])
    return out.reshape(lead + out.shape[1:])


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("dim", range(2, 5))
def test_array_kernels_are_a_jet_call_per_jet_bit_for_bit(dim, order):
    """mul, div and scale (one constant per jet) on coefficient arrays (...,
    ncoeff, npoints), and compose_univariate and jet_exp on such a stack as one
    Jet, are each kernel on each jet, bit for bit, signed zeros, infinities and
    NaN positions included; a jet of a stack with a non-finite row is scaled as its own call
    scales it, through the product with the constant's jet."""
    rng = np.random.default_rng(30 * dim + order)
    ncoeff, met, non_finite = len(jets.multi_indices(dim, order)), 0, 0

    def operand(shape, special):  # (..., ncoeff, ncols) for shape (..., ncols), not C-contiguous
        return np.moveaxis(_operand(rng, ncoeff, math.prod(shape), special).reshape(ncoeff, *shape), 0, -2)

    with np.errstate(all="ignore"):
        for xs, ys in _ARRAY_SHAPES:
            for special in (False, True, True):
                x, y = operand(xs, special), operand(ys, special)
                assert same_non_nan_bits(jets.mul(x, y, dim), _per_jet(jets.mul, x, y, dim, order))
                y[..., 0, :] = np.where(y[..., 0, :] == 0.0, 0.75, y[..., 0, :])  # a zero divisor is below
                want = _per_jet(jets.div, x, y, dim, order)
                assert same_non_nan_bits(jets.div(x, y, dim), want)
                met += bool(np.isnan(want).any())
                lead = ys[:-1]
                c = _operand(rng, 1, math.prod(lead), special).reshape(*lead, 1, 1)
                got = jets.scale(c, y, dim)
                want = _jet_by_jet(lambda ck, yk: jets.scale(float(ck[0, 0]), Jet(dim, order, yk)).coeffs, c, y)
                assert same_non_nan_bits(got, want)
                product = _jet_by_jet(lambda ck, yk: jets.mul(jets.constant(dim, order, ck), Jet(dim, order, yk)).coeffs,
                                      c, y)  # the route of a jet with a non-finite row
                finite = np.isfinite(y[..., :1, :] if order == 1 else y).all(axis=(-2, -1))
                assert not order or same_non_nan_bits(got[~finite], product[~finite])
                non_finite += bool(order and finite.any() and not finite.all())  # both routes in one call
                series = [operand(lead + (xs[-1],), special)[..., :1, :] for _ in range(order + 1)]
                want = _jet_by_jet(lambda yk, *sk: jets.compose_univariate(Jet(dim, order, yk), [s[0] for s in sk]).coeffs,
                                   y, *series)
                assert same_non_nan_bits(jets.compose_univariate(jets._built(dim, order, y), series).coeffs, want)
                g = y.copy()  # exp's values: +-inf, NaN and finite ones clipped to +-700, but for one overflow
                v = g[..., 0, :]
                g[..., 0, :] = np.where(np.isfinite(v), np.clip(v, -700.0, 700.0), v)
                each = lambda: jets._built(dim, order, _jet_by_jet(lambda gk: jets.jet_exp(Jet(dim, order, gk)).coeffs, g))
                stacked = lambda: jets.jet_exp(jets._built(dim, order, g))
                g[(-1,) * len(lead) + (0, -1)] = 1.5
                assert same_non_nan_bits(stacked().coeffs, each().coeffs)
                g[(-1,) * len(lead) + (0, -1)] = 800.0  # the last jet's last value overflows
                assert _outcome(stacked) == _outcome(each) and isinstance(_outcome(each), tuple)
    assert met  # the special values reach NaN, so the NaN positions are compared too
    assert non_finite or not order  # a stack held finite and non-finite jets


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_value_anywhere_in_a_stacked_divisor_raises_as_a_jet_call(zero):
    for order in range(jets.MAX_ORDER + 1):
        ncoeff = len(jets.multi_indices(3, order))
        x = np.full((4, ncoeff, 5), 2.0)
        for k, p in ((0, 0), (2, 3), (3, 4)):
            y = np.full((4, ncoeff, 5), 1.5)
            y[k, 0, p] = zero
            with pytest.raises(JetDomainError) as want:
                jets.div(Jet(3, order, x[k]), Jet(3, order, y[k]))
            with pytest.raises(JetDomainError) as got:
                jets.div(x, y, 3)
            assert str(got.value) == str(want.value)
            with pytest.raises(JetDomainError):  # one column, without the leading axis: it spreads
                jets.div(x, y[k, :, p:p + 1], 3)


def test_array_kernels_refuse_rows_of_no_jet():
    for op in (jets.mul, jets.div):
        with pytest.raises(JetError, match="no jet of dim 3 has 5 coefficient rows"):
            op(np.ones((2, 5, 3)), np.ones((5, 3)), 3)


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


# ---------------------------------------------------------------------------
# products by a constant: scale against the Cauchy product it replaces


def horner_compose(g: Jet, series) -> Jet:
    """Horner's scheme from the constant jet of the top coefficient, every step a Cauchy product."""
    series = list(series)[: g.order + 1]
    w = g.coeffs.copy()
    w[0] = 0.0
    w = Jet(g.dim, g.order, w)
    out = jets.constant(g.dim, g.order, series[-1])
    for c in reversed(series[:-1]):
        out = jets.mul(out, w)
        out.coeffs[0] += c
    return out


def square_and_multiply(a: Jet, n: int) -> Jet:
    """a**n from the constant jet 1, every factor a Cauchy product; the quotient for n < 0."""
    if n < 0:
        return jets.div(jets.constant(a.dim, a.order, 1.0), square_and_multiply(a, -n))
    out, base = jets.constant(a.dim, a.order, 1.0), a
    while n:
        if n & 1:
            out = jets.mul(out, base)
        base = jets.mul(base, base) if n > 1 else base
        n >>= 1
    return out


_SCALE_OPERANDS = np.array([0.0, -0.0, -0.0, 1.5, -2.25, 1e-300, -3e300, np.inf, -np.inf, np.nan])


def _scale_operands(rng, dim: int, order: int, npoints: int):
    """Operands with -0.0 entries; then with inf or NaN in the value row only,
    in the higher rows only, and anywhere."""
    ncoeff = len(jets.multi_indices(dim, order))
    finite = rng.choice(_SCALE_OPERANDS[:7], size=(ncoeff, npoints))
    yield finite
    for rows in (slice(0, 1), slice(1, None), slice(None))[: 3 if order else 1]:
        x = finite.copy()
        x[rows] = rng.choice(_SCALE_OPERANDS, size=x[rows].shape)
        x[rows][0, 0] = (np.inf, np.nan)[int(rng.integers(2))]  # at least one non-finite entry
        yield x


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("dim", range(2, 5))
def test_scale_is_the_product_with_the_constant_jet_bit_for_bit(dim, order):
    rng = np.random.default_rng(100 * dim + order)
    special = [0.0, -0.0, 1.0, 1e308, -1e308, -2.5, 5e-324]
    fallback = 0  # cases where 0.0 + c * a differs from the product: the full product must run
    with np.errstate(all="ignore"):
        for npoints in (1, 4, 9):
            per_point = [np.array(special[:npoints] + [3.0] * (npoints - len(special)))]
            per_point += [rng.choice(special, npoints), np.array([-0.0])]
            for x in _scale_operands(rng, dim, order, npoints):
                for a in (Jet(dim, order, x), Jet(dim, order, x[:, :1])):  # one column spreads against c
                    for c in special + per_point:
                        want = jets.mul(jets.constant(dim, order, c), a).coeffs
                        assert same_bits(jets.scale(c, a).coeffs, want), (c, a.coeffs)
                        fallback += not same_bits(0.0 + np.reshape(c, -1) * a.coeffs, want)
                    assert same_bits(jets.scale(2, a).coeffs, jets.scale(2.0, a).coeffs)
    assert fallback or not order  # at order 0 no zero row multiplies anything


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("dim", range(2, 5))
def test_horner_and_powers_start_with_scale_bit_for_bit(dim, order):
    rng = np.random.default_rng(200 * dim + order)
    with np.errstate(all="ignore"):
        for npoints in (1, 5):
            for x in _scale_operands(rng, dim, order, npoints):
                g = Jet(dim, order, x)
                for cols in (1, npoints):
                    series = rng.choice(_SCALE_OPERANDS, size=(order + 1, cols))
                    assert same_bits(jets.compose_univariate(g, series).coeffs, horner_compose(g, series).coeffs)
                base = Jet(dim, order, x.copy())
                value = base.coeffs[0]  # a negative power divides by a power of it: no zero, no underflow
                base.coeffs[0] = np.where(abs(value) < 1e-3, -1.75, value)
                for n in range(-3, 5):
                    want = jets.constant(dim, order, 1.0) if n == 0 else square_and_multiply(base, n)
                    assert same_bits(jets.jet_pow(base, n).coeffs, want.coeffs), n
            v = rng.uniform(-3.0, 3.0, (len(jets.multi_indices(dim, order)), npoints))
            e0 = np.array([math.exp(t) for t in v[0]])
            exp_series = [e0 / math.factorial(j) for j in range(order + 1)]
            assert same_bits(jets.jet_exp(Jet(dim, order, v)).coeffs, horner_compose(Jet(dim, order, v), exp_series).coeffs)
            z = Jet(dim, order, v / 4.0)
            hyp_series, prefactor = [], 1.0
            for j in range(order + 1):
                hyp_series.append(prefactor * jets.hyp2f1_value(0.5 + j, 1.25 + j, 2.5 + j, z.value) / math.factorial(j))
                prefactor *= (0.5 + j) * (1.25 + j) / (2.5 + j)
            got = jets.jet_hypergeom_2f1(0.5, 1.25, 2.5, z).coeffs
            assert same_bits(got, horner_compose(z, hyp_series).coeffs)


def horner_through_scale(g: Jet, series) -> Jet:
    """The reference route: Horner's scheme in w = g - g0 started by scale at
    every order >= 1, which compose_univariate must equal bit for bit."""
    series = list(series)[: g.order + 1]
    if not g.order:
        return jets.constant(g.dim, 0, series[0])
    w = g.coeffs.copy()
    w[0] = 0.0
    w = Jet(g.dim, g.order, w)
    out = jets.scale(series[-1], w)
    out.coeffs[0] += series[-2]
    for c in reversed(series[:-2]):
        out = jets.mul(out, w)
        out.coeffs[0] += c
    return out


# each jet function with value rows in its domain
_JET_FUNCTIONS = {
    "exp": (jets.jet_exp, [0.0, -0.0, 1.5, -700.0, 700.0, np.inf, -np.inf, np.nan]),
    "ln": (jets.jet_ln, [1.0, 1e-100, 0.25, 1e100, np.inf, np.nan]),
    "pow0.5": (lambda a: jets.jet_pow(a, 0.5), [1.0, 1e-100, 0.25, 1e300, np.inf]),
    "pow-1.5": (lambda a: jets.jet_pow(a, -1.5), [1.0, 1e-50, 0.25, 1e300, np.inf]),
    "pow3": (lambda a: jets.jet_pow(a, 3), [1.0, -0.0, -2.5, 1e300, np.inf]),
    "pow-2": (lambda a: jets.jet_pow(a, -2), [1.0, -2.5, 1e-100, 1e300, np.inf]),
    "2f1": (lambda a: jets.jet_hypergeom_2f1(1.0, 2.0, 2.0, a), [0.0, -0.0, 0.34, -0.9, 1e-300]),
    "2f1-terminating": (lambda a: jets.jet_hypergeom_2f1(-1.0, 2.0, 4.0, a), [0.0, -0.0, 0.34, -0.9]),
}
_GRADIENT_ROWS = np.array([0.0, -0.0, -0.0, 1.5, -2.25, 1e-300, -3e300, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("name", sorted(_JET_FUNCTIONS))
def test_jet_functions_compose_as_horner_through_scale_bit_for_bit(monkeypatch, name, order):
    """Each jet function equals the route through scale bit for bit, at value rows
    at the edge of its domain (exp's -inf and inf make a top coefficient of 0 and
    inf) and gradient rows of signed zeros, +-inf and NaN; only orders >= 2 start
    Horner with a scale, and order 1 calls none."""
    fn, values = _JET_FUNCTIONS[name]
    rng = np.random.default_rng(order)
    real_compose, real_scale, scales = jets.compose_univariate, jets.scale, []
    for dim in (1, 3):
        for npoints in (1, len(values)):
            coeffs = rng.choice(_GRADIENT_ROWS, size=(len(jets.multi_indices(dim, order)), npoints))
            coeffs[0] = values[:npoints]
            g = Jet(dim, order, coeffs)
            with np.errstate(all="ignore"):
                monkeypatch.setattr(jets, "compose_univariate", horner_through_scale)
                want = fn(g).coeffs
                monkeypatch.setattr(jets, "compose_univariate", real_compose)
                monkeypatch.setattr(jets, "scale", lambda c, a: scales.append(a.order) or real_scale(c, a))
                scales.clear()
                got = fn(g).coeffs
                monkeypatch.setattr(jets, "scale", real_scale)
            assert same_bits(got, want), (dim, npoints)
            if name not in ("pow3", "pow-2"):  # integer powers multiply, from a scale by 1.0
                assert scales == [order] * (order > 1)


@pytest.mark.parametrize("g0", [1e300, -1e300, np.inf, -np.inf, np.nan])
def test_order_one_composition_never_multiplies_the_value_row(g0):
    """Outside quiet a finite series raises no floating-point error, however large
    or non-finite g's value is: only its gradient rows are multiplied."""
    g = Jet(2, 1, [[g0, 0.5], [1.0, -0.0], [2.0, 3.0]])
    for series in ([np.array([1.0, 2.0]), np.array([1e10, 0.0])], [-0.0, 0.0]):
        with np.errstate(all="raise"):
            got = jets.compose_univariate(g, series).coeffs
        assert same_bits(got, horner_through_scale(g, series).coeffs)


def _per_shift_2f1(a, b, c, z):
    """The jet of 2F1(a,b;c;z) with one hyp2f1_value call per parameter shift, in shift order."""
    series, prefactor = [], 1.0
    for j in range(z.order + 1):
        value = prefactor * jets.hyp2f1_value(a + j, b + j, c + j, z.value)
        series.append(value / math.factorial(j) if j > 1 else value)
        prefactor *= (a + j) * (b + j) / (c + j)
    return jets.compose_univariate(z, series)


def _outcome(make):
    """The coefficients' bytes, or the error's type and text."""
    try:
        return make().coeffs.tobytes()
    except JetError as exc:
        return type(exc), str(exc)


# the catalog's flat coordinates at eps = 1 and eps = -1 (a = -1: the series terminates), then generic ones
_CATALOG_2F1 = [(1.0, 2.0, 2.0), (-1.0, 2.0, 4.0), (0.5, 1.25, 2.5), (1 / 3, -0.5, 2 / 3), (-2.0, 0.5, 1.5)]


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("abc", _CATALOG_2F1, ids=lambda abc: "a{:g}-b{:g}-c{:g}".format(*abc))
def test_one_2f1_series_per_jet_matches_per_shift_calls(order, abc, monkeypatch):
    rng = np.random.default_rng(37 + order)
    calls = []
    series = jets.hyp2f1_value
    monkeypatch.setattr(jets, "hyp2f1_value", lambda *args: calls.append(args) or series(*args))
    for dim in (1, 3):
        for npoints in (1, 6):
            coeffs = rng.uniform(-1.0, 1.0, (len(jets.multi_indices(dim, order)), npoints))
            coeffs[0] *= rng.uniform(0.0, 0.99, npoints)  # |z| < 1 at every point
            z = Jet(dim, order, coeffs)
            calls.clear()
            got = jets.jet_hypergeom_2f1(*abc, z).coeffs
            assert len(calls) == 1  # every shift in one series
            assert same_bits(got, _per_shift_2f1(*abc, z).coeffs)
            # each element of a broadcast call is its own scalar call
            a, b, c = (np.arange(order + 1.0)[:, None] + p for p in abc)
            many = series(a, b, c, z.value)
            for k, row in enumerate(many):
                assert [series(a[k, 0], b[k, 0], c[k, 0], x).item() for x in z.value.tolist()] == row.tolist()


@pytest.mark.parametrize(
    "abc, value, lowest, message",
    [
        ((1.0, 1.0, 2.0), [0.5, -1.5, 1.0], 0, r"2F1 series requires \|z\| < 1, got z=-1\.5"),
        ((1.0, 1.0, -2.0), [0.5], 0, r"2F1 parameter c=-2\.0 is a non-positive integer"),
        ((1.0, 1.0, -0.0), [0.5, 2.0], 0, r"2F1 parameter c=0\.0 is a non-positive integer"),  # -0.0 + 0 is 0.0
        ((1.0, 1.0, 1.0), [0.5, 0.996906], 0, r"2F1 series did not converge for z=0\.996906"),
        # 1/(1 - z) settles at z = 0.9966, its first shift 1/(1 - z)^2 does not: from order 1 on the jet fails
        ((1.0, 1.0, 1.0), [0.25, 0.9966, 0.5], 1, r"2F1 series did not converge for z=0\.9966"),
    ],
)
def test_one_2f1_series_raises_the_first_error_of_the_shifts(abc, value, lowest, message):
    for order in range(4):
        z = Jet(2, order, np.vstack([value, np.full((len(jets.multi_indices(2, order)) - 1, len(value)), 0.5)]))
        got, want = _outcome(lambda: jets.jet_hypergeom_2f1(*abc, z)), _outcome(lambda: _per_shift_2f1(*abc, z))
        assert got == want
        if order >= lowest:
            assert got[0] is JetDomainError and re.fullmatch(message, got[1]), (order, got)
        else:
            assert isinstance(got, bytes)


def _errstate_entries(call):
    """call()'s result and how many times it entered numpy's errstate: every
    entry, decorator or ``with``, builds its state through numpy's _make_extobj."""
    entries = []

    def profile(frame, event, arg):
        name = arg.__name__ if event == "c_call" else frame.f_code.co_name if event == "call" else None
        if name == "_make_extobj":
            entries.append(event)

    sys.setprofile(profile)
    try:
        out = call()
    finally:
        sys.setprofile(None)
    return out, len(entries)


def test_a_quadrature_current_value_enters_the_errstate_once():
    """Its memo misses (the value, the node set's velocities and lifts at orders
    0 and 1, the density's order-1 jet) are quiet calls nested in the first."""
    from recipfm.catalog import entry, epsilon_system
    from recipfm.reciprocal import current_from_density

    e = entry("dim2-eps1-h0")
    at = lambda t: Point(tuple(lo + t * (hi - lo) for lo, hi in e.current_bands))
    B = current_from_density(epsilon_system(e.dim, e.eps), e.density_field(), at(0.5))
    B.value(at(0.25))  # compiles the density once
    value, entries = _errstate_entries(lambda: B.value(at(0.75)))
    assert math.isfinite(value) and entries == 1


def test_a_quiet_call_inside_a_raising_errstate_stays_quiet():
    with np.errstate(all="raise"):
        assert math.isinf(field("(1e200*u1)^2", 2).value(Point((1.0, 2.0))))
        assert math.isnan(field("(1e200*u1)^2 - (1e200*u2)^2", 2).value(Point((1.0, 2.0))))  # inf - inf
        assert np.geterr() == dict.fromkeys(("divide", "over", "under", "invalid"), "raise")


def test_a_raising_quiet_call_restores_the_errstate_of_its_caller():
    caller = {"divide": "ignore", "over": "raise", "under": "ignore", "invalid": "warn"}
    with np.errstate(**caller):
        for _ in range(2):
            with pytest.raises(JetDomainError, match=r"requires \|z\| < 1"):
                jets.hyp2f1_value(1.0, 1.0, 2.0, np.array([0.5, 1.5]))
            assert np.geterr() == caller
            value, entries = _errstate_entries(lambda: jets.hyp2f1_value(1.0, 1.0, 2.0, 0.5))
            assert value == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
            assert entries == 1  # the next outermost call enters it again


def test_a_thread_started_inside_a_quiet_call_enters_its_own_errstate():
    """The guard is context-local: a worker starts outside any quiet call, so
    its first one enters the errstate, and an overflow there warns nothing."""
    got = []

    def worker():
        try:
            got.append(field("(1e200*u1)^2", 2).value(Point((1.0, 2.0))))
        except Exception as exc:  # reported to the main thread
            got.append(exc)

    @jets.quiet
    def start_worker():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        start_worker()
    assert got == [math.inf]
