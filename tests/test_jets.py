import math
import random
import sys

import numpy as np
import pytest

from conftest import ELEMENTARY_CORPUS, corpus_exprs, corpus_points, fd_partial
from recipfm import jets
from recipfm.exprlang import EvalError, compile_field, field
from recipfm.jets import Jet, JetDomainError, JetError, Point, PointBatch


def test_point_validation():
    with pytest.raises(ValueError):
        Point((1.0,))
    with pytest.raises(ValueError):
        Point((1.0, float("inf")))
    p = jets.point(1.0, -2.0, 0.5)
    assert p.dim == 3 and p[1] == -2.0 and list(p) == [1.0, -2.0, 0.5]


def test_coordinate_lift():
    j = jets.variable(1, 2, 0, 2.0)
    assert j.coeffs == (2.0, 1.0, 0.0)


def test_square_of_coordinate():
    u = jets.variable(1, 2, 0, 3.0)
    assert jets.mul(u, u).coeffs == (9.0, 6.0, 1.0)


def test_division_against_reciprocal_series():
    inv = jets.div(jets.constant(1, 2, 1.0), jets.variable(1, 2, 0, 2.0))
    assert inv.coeffs == pytest.approx((0.5, -0.25, 0.125), abs=1e-15)


def test_division_matches_finite_differences():
    from recipfm.exprlang import parse_field

    expr = parse_field("1/u1", 2)
    inv = compile_field(expr).jet(jets.point(2.0, 1.0), 2)
    for alpha in ((0, 0), (1, 0), (2, 0)):
        assert jets.partial(inv, alpha) == pytest.approx(fd_partial(expr, (2.0, 1.0), alpha), abs=1e-6)


def test_exp_series():
    e = jets.jet_exp(jets.variable(1, 2, 0, 0.0))
    assert e.coeffs == pytest.approx((1.0, 1.0, 0.5))


def test_ln_series():
    l = jets.jet_ln(jets.variable(1, 3, 0, 1.0))
    assert l.coeffs == pytest.approx((0.0, 1.0, -0.5, 1.0 / 3.0))


def test_pow_matches_finite_differences():
    from recipfm.exprlang import parse_field

    expr = parse_field("pow(u2-u1, -2)", 2)
    j = compile_field(expr).jet(jets.point(0.0, 1.0), 2)
    for alpha in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0)):
        assert jets.partial(j, alpha) == pytest.approx(fd_partial(expr, (0.0, 1.0), alpha), abs=1e-6)


def test_integer_pow_negative_base():
    j = jets.jet_pow(jets.variable(1, 2, 0, -1.5), 3)
    assert j.value == pytest.approx((-1.5) ** 3)
    assert jets.partial(j, (1,)) == pytest.approx(3 * (-1.5) ** 2)


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
    assert jets.partial(u1u2, (1, 1)) == pytest.approx(1.0)
    e = jets.jet_exp(jets.variable(1, 2, 0, 0.0))
    assert jets.partial(e, (2,)) == pytest.approx(1.0)
    f = jets.div(
        jets.constant(2, 2, 1.0),
        jets.sub(jets.variable(2, 2, 1, 1.0), jets.variable(2, 2, 0, 2.0)),
    )
    assert jets.partial(f, (0, 1)) == pytest.approx(-1.0)
    with pytest.raises(JetError):
        jets.partial(f, (3, 0))


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
    assert jets.partial(d, (1, 0)) == pytest.approx(2 * 3.0)
    assert jets.partial(d, (0, 1)) == pytest.approx(2 * 2.0)


def _random_jet(rng: random.Random, dim: int, order: int) -> Jet:
    n = len(jets.multi_indices(dim, order))
    return Jet(dim, order, tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))


def test_arithmetic_properties():
    rng = random.Random(99)
    for _ in range(25):
        dim = rng.choice((1, 2, 3))
        order = rng.choice((1, 2, 3))
        a, b, c = (_random_jet(rng, dim, order) for _ in range(3))
        assoc = jets.sub(jets.mul(jets.mul(a, b), c), jets.mul(a, jets.mul(b, c)))
        comm = jets.sub(jets.mul(a, b), jets.mul(b, a))
        dist = jets.sub(jets.mul(a, jets.add(b, c)), jets.add(jets.mul(a, b), jets.mul(a, c)))
        scale = max(max(abs(x) for x in j.coeffs) for j in (a, b, c)) ** 2 + 1.0
        for residual in (assoc, comm, dist):
            assert max(abs(x) for x in residual.coeffs) <= 1e-13 * scale
        if abs(b.value) > 0.1:
            roundtrip = jets.sub(jets.div(jets.mul(a, b), b), a)
            assert max(abs(x) for x in roundtrip.coeffs) <= 1e-12 * scale


def test_elementary_corpus_matches_finite_differences():
    points = corpus_points()
    for expr in corpus_exprs():
        f = compile_field(expr)
        for p in points:
            j = f.jet(p, 3)
            for alpha in jets.multi_indices(2, 3):
                got = jets.partial(j, alpha)
                want = fd_partial(expr, tuple(p), alpha)
                assert got == pytest.approx(want, abs=1e-5), (expr, tuple(p), alpha)


def test_truncate_prefix_property():
    rng = random.Random(5)
    j = _random_jet(rng, 3, 3)
    t = jets.truncate(j, 2)
    assert t.order == 2
    for alpha in jets.multi_indices(3, 2):
        assert t.coefficient(alpha) == j.coefficient(alpha)
    with pytest.raises(JetError):
        jets.truncate(t, 3)


# ---------------------------------------------------------------------------
# batches: array coefficients through the same functions

# Elementwise float64 arithmetic is the scalar arithmetic, and `sum` adds
# left to right before Python 3.12 (from 3.12 it compensates on floats only).
EXACT_SUM = sys.version_info < (3, 12)


def _batch(points) -> PointBatch:
    return PointBatch([[p[i] for p in points] for i in range(points[0].dim)])


def test_point_batch_validation():
    b = PointBatch([[1.0, 2.0], [3.0, 4.0]])
    assert b.dim == 2 and b.npoints == 2 and b.point(1) == jets.point(2.0, 4.0)
    assert b != b.point(0) and {b: 1}[b] == 1  # identity hashing, so a batch can probe a memo
    with pytest.raises(ValueError):
        b[0][0] = 5.0  # read-only, so shared coefficient arrays cannot be corrupted
    for bad in ([[1.0, 2.0]], [[1.0, 2.0], [3.0]], [[1.0, math.nan], [3.0, 4.0]], [[], []], [[[1.0]], [[2.0]]]):
        with pytest.raises(ValueError):
            PointBatch(bad)


def test_batch_jets_match_scalar_jets_on_the_corpus():
    points = corpus_points()
    batch = _batch(points)
    for src, expr in zip(ELEMENTARY_CORPUS, corpus_exprs()):
        f = compile_field(expr)
        exact = EXACT_SUM and not any(name in src for name in ("exp", "ln", "pow", "hyp2f1"))
        for order in range(4):
            got = f.jet(batch, order)
            assert (got.dim, got.order) == (2, order)
            for k, p in enumerate(points):
                want = f.jet(p, order).coeffs
                have = tuple(float(np.broadcast_to(c, (len(points),))[k]) for c in got.coeffs)
                if exact:
                    assert have == want, (src, order, tuple(p))
                else:
                    for h, w in zip(have, want):
                        assert abs(h - w) <= 1e-15 * abs(w), (src, order, tuple(p), h, w)
        assert len(f._memo) == 3 * len(points)  # the scalar jets of order 1..3; a batch never enters


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


def test_hyp2f1_batch_stops_where_each_scalar_series_stops():
    z = np.array([0.0, 0.2, -0.5, 0.9, 0.99])
    got = jets.hyp2f1_value(0.5, 1.5, 2.5, z)
    assert got.tolist() == [jets.hyp2f1_value(0.5, 1.5, 2.5, x) for x in z.tolist()]


def test_exp_and_real_pow_overflow_leave_the_domain():
    for value in (1000.0, np.array([1.0, 1000.0])):
        with pytest.raises(JetDomainError, match="exp overflows at value 1000.0"):
            jets.jet_exp(jets.variable(1, 2, 0, value))
    for value in (1e200, np.array([2.0, 1e200])):
        with pytest.raises(JetDomainError, match="pow with exponent 2.5 overflows"):
            jets.jet_pow(jets.variable(1, 2, 0, value), 2.5)
    with pytest.raises(EvalError, match="exp overflows"):
        field("exp(1000*u1)", 2).value(jets.point(1.0, 2.0))
