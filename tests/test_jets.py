import math
import random

import numpy as np
import pytest

from conftest import ELEMENTARY_CORPUS, corpus_exprs, corpus_points, fd_partial
from recipfm import jets
from recipfm.exprlang import EvalError, compile_field, field
from recipfm.jets import Jet, JetDomainError, JetError, Point, PointSet


def test_point_validation():
    with pytest.raises(ValueError):
        Point((1.0,))
    with pytest.raises(ValueError):
        Point((1.0, float("inf")))
    p = jets.point(1.0, -2.0, 0.5)
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
    inv = compile_field(expr).jet(jets.point(2.0, 1.0), 2)
    for alpha in ((0, 0), (1, 0), (2, 0)):
        assert jets.partial(inv, alpha) == pytest.approx(fd_partial(expr, (2.0, 1.0), alpha), abs=1e-6)


def test_exp_series():
    e = jets.jet_exp(jets.variable(1, 2, 0, 0.0))
    assert e.coeffs[:, 0] == pytest.approx((1.0, 1.0, 0.5))


def test_ln_series():
    l = jets.jet_ln(jets.variable(1, 3, 0, 1.0))
    assert l.coeffs[:, 0] == pytest.approx((0.0, 1.0, -0.5, 1.0 / 3.0))


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
# point sets: one jet over all points, column k exactly the jet at point k


def test_point_set_validation():
    p, q = jets.point(1.0, 3.0), jets.point(2.0, 4.0)
    b = jets.point_set([p, q])
    assert b.dim == 2 and len(b) == 2 and b[1] is q and list(b) == [p, q] and b[:1] == (p,)
    assert b.coords.tolist() == [[1.0, 2.0], [3.0, 4.0]] and jets.point_set(b) is b
    built = PointSet([[1.0, 2.0], [3.0, 4.0]])  # from coordinates: its Points are made when read
    assert list(built) == [p, q] and built != b  # a set is a scope: equal points, another set
    with pytest.raises(ValueError):
        b.coords[0, 0] = 5.0  # read-only, so shared coordinate arrays cannot be corrupted
    for bad in ([], [p, jets.point(1.0, 2.0, 3.0)]):
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
        assert len(f._memo) == 1  # the held set; each one-point set went with its last reference


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
        field("exp(1000*u1)", 2).value(jets.point(1.0, 2.0))


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
        field("ln(1e-200*u1^2)", 2).jet(jets.point(1.0, 2.0), 2)
