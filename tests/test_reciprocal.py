import gc
import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest

from conftest import (
    cyclic_recipfm_objects,
    derivative,
    eps2_frame_fields,
    every_order_from_scratch,
    field_of,
    flat_coordinates,
    frame3_fields,
    partial,
    same_bits,
    velocity_values,
)
from recipfm import jets
from recipfm.jets import PointSet, point_set
from recipfm.catalog import catalog_entries, entry, epsilon_frame_n2, epsilon_system
from recipfm.exprlang import EvalError, ScalarField, field
from recipfm.geometry import (
    ConnectionTable,
    DiagonalSystem,
    ResidualReport,
    banded_points,
    curvature_full_residual,
    curvature_natural_residual,
    dual_connection,
    identity_parallel_residual,
    natural_connection,
    pair_labels,
    sample_points,
    sh_residual,
)
from recipfm import reciprocal
from recipfm.reciprocal import (
    DENSITY_FLOOR,
    QUAD_MAX_PANELS,
    QUAD_NODES,
    ConservationDensity,
    InadmissibleGeneratorError,
    PathSingularityError,
    ReciprocalError,
    RotationFrame,
    a_system_residual,
    biflat_verdict,
    covariant_hessian_residual,
    current_from_density,
    darboux_residual,
    darboux_transform,
    density_residual,
    density_window,
    grading_residual,
    intrinsic_agreement_report,
    orbit_compose,
    theta_system_residual,
    transform,
)

DIM2_BANDS = ((-1.8, -0.7), (0.7, 1.8))


@pytest.fixture(scope="module")
def sys2():
    return epsilon_system(2, 1.0)


@pytest.fixture(scope="module")
def recip_density():
    return field("1/(u2-u1)", 2)


def _points2(A=None, seed=11, count=12):
    preds = (density_window(A),) if A is not None else ()
    return sample_points(2, count, seed, predicates=preds)


def _biflat(sys, A, points):
    """The bi-flat verdict the CLI composes: the density report and both gradings."""
    return biflat_verdict(density_residual(sys, A, points), grading_residual(A, "e", points),
                          grading_residual(A, "E", points))


# ---------------------------------------------------------------------------
# density / grading / compatibility systems


def test_density_sum_of_coordinates():
    for n in (2, 3):
        sys = epsilon_system(n, 1.0)
        A = field("+".join(f"u{i}" for i in range(1, n + 1)), n)
        rep = density_residual(sys, A, sample_points(n, 10, seed=3))
        assert rep.max_abs <= 1e-12


def test_density_constant(sys2):
    rep = density_residual(sys2, field("4.5 + 0*u1", 2), _points2())
    assert rep.max_abs == 0.0


def test_density_reciprocal_difference(sys2, recip_density):
    rep = density_residual(sys2, recip_density, _points2(recip_density))
    assert rep.max_abs <= 1e-10


def test_grading_exponential():
    A = field("exp(2*u1)", 2)
    est, rep = grading_residual(A, "e", _points2(A))
    assert est == pytest.approx(2.0, abs=1e-12) and rep.max_abs <= 1e-12


def test_grading_homogeneous(recip_density):
    pts = _points2(recip_density)
    h, hrep = grading_residual(recip_density, "e", pts)
    k, krep = grading_residual(recip_density, "E", pts)
    assert abs(h) <= 1e-12 and hrep.passed
    assert k == pytest.approx(-1.0, abs=1e-12) and krep.passed


def test_grading_negative_control():
    A = field("u1*u2", 2)
    _, rep = grading_residual(A, "e", _points2(A, seed=5))
    assert not rep.passed and rep.max_abs > 1e-3


def test_grading_guards():
    A = field("u1 - u1", 2)
    with pytest.raises(ReciprocalError):
        grading_residual(A, "e", _points2())
    with pytest.raises(ReciprocalError):
        grading_residual(field("u1", 2), "x", _points2())


def test_a_system_exponential_density(sys2):
    A = field("exp(h*u1)/(u2-u1)", 2, {"h": 1.0})
    rep = a_system_residual(sys2, A, _points2(A))
    assert rep.passed and rep.max_abs <= 1e-8


def test_a_system_constant(sys2):
    rep = a_system_residual(sys2, field("2 + 0*u1", 2), _points2())
    assert rep.max_abs == 0.0


def test_a_system_cubic_family_instance():
    # the quartic three-component family with only the first nontrivial basis on
    sys3 = epsilon_system(3, -1.0)
    e = entry("dim3-eps-1-h0:c2")
    A = e.density_field()
    pts = sample_points(3, 12, seed=7, predicates=e.sample_predicates())
    rep = a_system_residual(sys3, A, pts)
    assert rep.passed and rep.max_abs <= 1e-8


def test_theta_form_matches_a_system_verdict(sys2, recip_density):
    pts = _points2(recip_density)
    assert theta_system_residual(sys2, recip_density, pts).passed
    bad = field("exp(u1*u2)", 2)
    pts_bad = _points2(bad, seed=6)
    assert not a_system_residual(sys2, bad, pts_bad).passed
    assert not theta_system_residual(sys2, bad, pts_bad).passed


def test_theta_form_of_a_constant_density_spreads_its_one_column(sys2, recip_density):
    """A constant density's jets have one column; its d_l A / A spreads over the
    points, so the theta rows line up with the symbols' and every row is 0."""
    pts = _points2(recip_density, count=4)
    rep = theta_system_residual(sys2, field("2", 2), pts)
    assert rep.passed and rep.max_abs == 0.0 and len(rep.entries) == 4 * len(reciprocal._theta_labels(2))


def test_covariant_hessian_circ(sys2, recip_density):
    pts = _points2(recip_density)
    nat = natural_connection(sys2)
    rep = covariant_hessian_residual(nat, recip_density, pts)
    assert rep.passed and rep.max_abs <= 1e-9
    const = covariant_hessian_residual(nat, field("3 + 0*u1", 2), pts)
    assert const.max_abs == 0.0


def test_covariant_hessian_star_flat_coordinate():
    from recipfm.geometry import dual_connection

    A1, _ = flat_coordinates(1.0)
    sys3 = epsilon_system(3, 1.0)
    e = entry("dim3-eps1-flatcoord")
    pts = sample_points(3, 10, seed=13, predicates=e.sample_predicates())
    rep = covariant_hessian_residual(dual_connection(sys3), A1, pts)
    assert rep.passed and rep.max_abs <= 1e-8


def test_hessian_verdict_equivalence(sys2):
    # the three formulations agree in pass/fail on a good and a bad density
    nat = natural_connection(sys2)
    good = field("1/(u2-u1)", 2)
    bad = field("exp(u1*u2)", 2)
    for A, expected in ((good, True), (bad, False)):
        pts = _points2(A, seed=9)
        verdicts = (
            a_system_residual(sys2, A, pts).passed,
            theta_system_residual(sys2, A, pts).passed,
            covariant_hessian_residual(nat, A, pts).passed,
        )
        assert verdicts == (expected,) * 3


# ---------------------------------------------------------------------------
# currents


def test_current_against_closed_form(sys2, recip_density):
    base = jets.Point((-1.25, 1.25))
    B = current_from_density(sys2, recip_density, base)
    closed = field("u2/(u1-u2)", 2)
    for p in banded_points(DIM2_BANDS, 10, seed=3):
        assert B.value(p) == pytest.approx(closed.value(p) - closed.value(base), abs=1e-10)


def test_current_difference_example(sys2, recip_density):
    # in the chamber u1 > u2 the paths to (2,1) and (3,1) are admissible
    B = current_from_density(sys2, recip_density, jets.Point((2.5, 0.6)))
    assert B.value(jets.Point((2.0, 1.0))) - B.value(jets.Point((3.0, 1.0))) == pytest.approx(0.5, abs=1e-9)


def test_current_of_constant_density(sys2):
    B = current_from_density(sys2, field("7 + 0*u1", 2), jets.Point((-1.25, 1.25)))
    for p in banded_points(DIM2_BANDS, 5, seed=4):
        assert B.value(p) == pytest.approx(0.0, abs=1e-12)


def test_current_path_independence(sys2):
    # the one-form is exact: base -> p equals base -> q -> p inside one chamber
    A = field("exp(u1)/(u2-u1)", 2)
    base = jets.Point((-1.25, 1.25))
    B = current_from_density(sys2, A, base)
    pts = banded_points(DIM2_BANDS, 10, seed=5)
    for q, p in zip(pts[::2], pts[1::2]):
        assert B.value(p) == pytest.approx(B.value(q) + current_from_density(sys2, A, q).value(p), abs=1e-12)
    with pytest.raises(PathSingularityError):
        B.value(jets.Point((1.2, 0.9)))  # the other side of u1 = u2


def _current_segments(seed: int):
    """(entry, system, density, base point, banded points) for every catalog
    entry with a closed-form current, the base at the middle of its bands."""
    for e in catalog_entries():
        if e.current_src is not None:
            base = jets.Point(tuple((lo + hi) / 2.0 for lo, hi in e.current_bands))
            pts = banded_points(e.current_bands, 20, seed, predicates=e.sample_predicates())
            yield e, epsilon_system(e.dim, e.eps), e.density_field(), base, pts


def _closed_form_currents(seed: int):
    """(entry id, density, quadrature current, closed form minus its base value,
    banded points) for every catalog entry with a closed-form current."""
    for e, system, A, base, pts in _current_segments(seed):
        B = current_from_density(system, A, base)
        closed = field_of(jets.sub, e.current_field(), field(repr(e.current_field().value(base)), e.dim))
        yield e.entry_id, A, B, closed, pts


def test_current_order_one_jets_are_pinned_bit_for_bit():
    """Order-1 jets of every closed-form current, at its first three points for
    three seeds, as float.hex: the value row from quadrature and the derivative
    rows from the one-form, each bit as the one-forms built with the current gave."""
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for _, _, B, _, pts in _closed_form_currents(seed):
            digest.update(",".join(map(float.hex, B.jet(point_set(pts[:3]), 1).coeffs.ravel().tolist())).encode())
    assert digest.hexdigest() == "debfbcf35508123a675cf64f43b458ca9609a84f8b35bbf5fb4626c33e19cebb"


PINNED_CURRENT_VALUES = {  # B.value(p) as float.hex at banded_points(bands, 2, 2024), base mid-band
    "dim2-eps1-h1:c1": ("-0x1.981f3c5e109c4p-8", "0x1.4933b25daf8c6p-6"),
    "dim2-eps1-h1:c2": ("0x1.4a0a324994489p-2", "0x1.7f191947157e1p-1"),
    "dim2-eps1-h1": ("-0x1.56cb2c2c84cd8p-2", "-0x1.6a85de213a854p-1"),
    "dim2-eps-1-h1:c1": ("0x1.d9d7ee9d0642fp-6", "0x1.594210ca78a5ap-4"),
    "dim2-eps-1-h1:c2": ("0x1.0fc579256eca6p-4", "0x1.bcabb1018bbc9p-5"),
    "dim2-eps-1-h1": ("-0x1.16cc0eb75d46cp-7", "0x1.d42e49142b6cfp-4"),
    "dim2-eps1-hm05:c1": ("-0x1.704dedc09dd5bp-4", "-0x1.68983a22ba329p-3"),
    "dim2-eps1-hm05:c2": ("-0x1.9a3a303eee0eep-5", "-0x1.0d920d1deb7f5p-4"),
    "dim2-eps1-hm05": ("-0x1.09bf61b0e2520p-3", "-0x1.2533b6db3f52ap-2"),
    "dim2-eps-1-hm05:c1": ("-0x1.3ca512e6f73c4p-5", "-0x1.21bf85a6810ecp-4"),
    "dim2-eps-1-hm05:c2": ("0x1.06b9736e9ee14p-5", "0x1.0b96896b0a0f2p-4"),
    "dim2-eps-1-hm05": ("-0x1.c001cc9e46acbp-4", "-0x1.a78aca5c06165p-3"),
    "dim2-eps1-h0:c1": ("0x0.0p+0", "0x0.0p+0"),
    "dim2-eps1-h0:c2": ("-0x1.410458220a3d4p-5", "-0x1.11f8d7d1d4647p-5"),
    "dim2-eps1-h0": ("0x1.410458220a3d4p-5", "0x1.11f8d7d1d4647p-5"),
    "dim2-eps-1-h0:c1": ("0x0.0p+0", "0x0.0p+0"),
    "dim2-eps-1-h0:c2": ("0x1.c3f89171e4ea8p+2", "0x1.38dd99f19dd90p+3"),
    "dim2-eps-1-h0": ("-0x1.c3f89171e4ea8p+2", "-0x1.38dd99f19dd90p+3"),
    "dim3-eps1-flatcoord": ("-0x1.9c7c95c5cfe80p-4", "0x1.8405fd41f1ea1p-5"),
}


def test_current_values_are_pinned_bit_for_bit():
    """B.value(p) of every closed-form catalog current at two banded points, as
    float.hex, signed zeros included: the whole quadrature, node sets, path
    guards, the one-form's ordered sum and the rule's weights, bit for bit."""
    got = {}
    for e, system, A, base, _ in _current_segments(42):
        B = current_from_density(system, A, base)
        pts = banded_points(e.current_bands, 2, 2024, predicates=e.sample_predicates())
        got[e.entry_id] = tuple(B.value(p).hex() for p in pts)
    assert got == PINNED_CURRENT_VALUES


@pytest.mark.parametrize("end, want", [((-0.6, -0.4), "0x1.4000000000005p+1"), ((-0.52, -0.48), "0x1.900000000000cp+3")])
def test_refined_current_values_are_pinned_bit_for_bit(sys2, recip_density, end, want):
    """Segments whose quadrature needs 2 and 8 panels, as float.hex."""
    assert current_from_density(sys2, recip_density, jets.Point((-1.25, 1.25))).value(jets.Point(end)).hex() == want


@pytest.mark.parametrize("seed", [42, 7])
def test_current_matches_every_closed_form(seed):
    for entry_id, _, B, closed, pts in _closed_form_currents(seed):
        for p in pts:
            want = closed.value(p)
            assert abs(B.value(p) - want) <= 1e-12 * max(1.0, abs(want)), (entry_id, p)


def test_current_value_is_one_node_set_and_one_density_jet(monkeypatch):
    sizes = []
    init = jets.PointSet.__init__

    def counted_init(self, coords, points=None):
        init(self, coords, points)
        sizes.append(len(self))

    monkeypatch.setattr(jets.PointSet, "__init__", counted_init)
    for entry_id, A, B, _, pts in _closed_form_currents(42):
        density_jets = []

        def counted_fn(points, order, fn=A._fn):
            density_jets.append((len(points), order))
            return fn(points, order)

        monkeypatch.setattr(A, "_fn", counted_fn)
        for p in pts:
            sizes.clear()
            density_jets.clear()
            B.value(p)
            # the value's own one-point set, then the 32-point rule and its 16-point check in one set
            assert sizes == [1, QUAD_NODES + QUAD_NODES // 2], (entry_id, p)
            assert density_jets == [(QUAD_NODES + QUAD_NODES // 2, 1)], (entry_id, p)


def _rule_per_call(panels: int) -> tuple[np.ndarray, float]:
    """The composite rule as each value built it before the rule was cached."""
    width = 1.0 / panels
    mids = np.arange(panels) * width + 0.5 * width
    half = 0.5 * width
    return (mids[:, None] + half * reciprocal._GL_XS[None, :]).ravel(), half


@pytest.mark.parametrize("panels", range(1, QUAD_MAX_PANELS + 1))
def test_cached_rule_is_the_per_call_rule_bit_for_bit(panels):
    ts, half = reciprocal._gl_nodes(panels)
    want, want_half = _rule_per_call(panels)
    assert same_bits(ts, want) and half == want_half and reciprocal._gl_nodes(panels)[0] is ts
    with pytest.raises(ValueError, match="read-only"):
        ts[0] = 0.5


def test_first_refinement_level_is_the_32_then_16_point_rules_on_the_unit_interval():
    first = reciprocal._GL_FIRST
    (x32, w32), (x16, w16) = (np.polynomial.legendre.leggauss(m) for m in (32, 16))
    assert QUAD_NODES == 32 and same_bits(first, np.concatenate([0.5 + 0.5 * x32, 0.5 + 0.5 * x16]))
    assert reciprocal._GL_W == tuple(w32.tolist()) and reciprocal._GL_CHECK_W == tuple(w16.tolist())
    assert len(first) == 48
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.5


def _reference_composite(system, A, base: jets.Point, p: jets.Point, m: int, panels: int) -> float:
    """The m-point Gauss-Legendre rule on `panels` equal panels of [0, 1] applied
    to the one-form along base + t (p - base), each panel summed left to right."""
    x, w = np.polynomial.legendre.leggauss(m)
    width = 1.0 / panels
    half = 0.5 * width
    ts = ((np.arange(panels) * width + 0.5 * width)[:, None] + half * x[None, :]).ravel()
    start, step = np.array(base.coords), np.array(p.coords) - np.array(base.coords)
    nodes = PointSet(start[:, None] + step[:, None] * ts)
    v, grad = system.velocity_jets(nodes, 0)[:, 0], jets.gradient(A.jet(nodes, 1))
    f = sum(step[i] * (v[i] * grad[i]) for i in range(system.dim) if step[i] != 0.0).tolist()
    total = 0.0
    for k in range(panels):
        s = 0.0
        for wj, y in zip(w.tolist(), f[k * m : (k + 1) * m]):
            s += wj * y
        total += half * s
    return total


@pytest.mark.parametrize("seed", [42, 7])
def test_current_agrees_with_the_two_panel_rule(seed):
    for e, system, A, base, pts in _current_segments(seed):
        B = current_from_density(system, A, base)
        for p in pts:
            got = B.value(p)
            want = _reference_composite(system, A, base, p, QUAD_NODES, 2)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(got)), (e.entry_id, p)


@pytest.mark.parametrize("end, settled", [((-0.6, -0.4), 2), ((-0.52, -0.48), 8)])
def test_a_refined_current_is_the_composite_where_it_settles(monkeypatch, sys2, recip_density, end, settled):
    """Near the pole of 1/(u2 - u1) the 16-point rule rejects the one-panel
    32-point sum, so the value doubles the panels from one, each level against
    the one before, and returns the sum of the level where two agree."""
    base, p = jets.Point((-1.25, 1.25)), jets.Point(end)
    prev = _reference_composite(sys2, recip_density, base, p, QUAD_NODES, 1)
    check = _reference_composite(sys2, recip_density, base, p, QUAD_NODES // 2, 1)
    assert abs(prev - check) >= reciprocal.QUAD_REFINE_TOL
    panels, levels = 2, [QUAD_NODES + QUAD_NODES // 2]
    while True:
        cur = _reference_composite(sys2, recip_density, base, p, QUAD_NODES, panels)
        levels.append(panels * QUAD_NODES)
        if abs(cur - prev) < reciprocal.QUAD_REFINE_TOL:
            break
        prev, panels = cur, panels * 2
    assert panels == settled
    sizes = []
    init = jets.PointSet.__init__

    def counted_init(self, coords, points=None):
        init(self, coords, points)
        sizes.append(len(self))

    monkeypatch.setattr(jets.PointSet, "__init__", counted_init)
    value = current_from_density(sys2, recip_density, base).value(p)
    assert value.hex() == cur.hex() and sizes == [1, *levels]


def test_constant_velocities_and_a_constant_density_give_plus_zero():
    """The velocity stack spreads one column over the nodes, so even where every
    velocity and the density are constants the integrand has one value per node."""
    system = DiagonalSystem.of_fields((field("1", 2), field("3", 2)))
    base, p = jets.Point((-1.25, 1.25)), jets.Point((-1.0, 1.5))
    for density, want in (("2", 0.0), ("u1 + 2", 0.25), ("u2 + 2", 0.75)):  # B = sum_i v^i (A(p) - A(base))_i
        value = current_from_density(system, field(density, 2), base).value(p)
        assert value == pytest.approx(want, abs=1e-15), density
        assert not math.copysign(1.0, value) < 0.0, density


def test_current_order_zero_is_read_off_its_order_one_jet(monkeypatch):
    sizes = []
    init = jets.PointSet.__init__

    def counted_init(self, coords, points=None):
        init(self, coords, points)
        sizes.append(len(self))

    monkeypatch.setattr(jets.PointSet, "__init__", counted_init)
    for entry_id, _, B, _, pts in _closed_form_currents(42):
        first = point_set(pts[:3])
        sizes.clear()
        j1 = B.jet(first, 1)
        built = list(sizes)
        j0 = B.jet(first, 0)
        # the order-1 jet ran one quadrature node set per point; order 0 ran none
        assert built.count(QUAD_NODES + QUAD_NODES // 2) == len(first) and sizes == built, entry_id
        assert same_bits(j0.coeffs, j1.coeffs[:1]), entry_id
        again = point_set(pts[:3])
        assert same_bits(B.jet(again, 0).coeffs, j0.coeffs), entry_id


def test_current_jets_come_from_the_one_form(sys2, recip_density):
    base = jets.Point((-1.25, 1.25))
    B = current_from_density(sys2, recip_density, base)
    p = jets.Point((-1.0, 1.0))
    j, a = B.jet(p, 1), recip_density.jet(p, 1)
    for i, vi in enumerate(velocity_values(sys2, p)):
        dA = partial(a, tuple(1 if m == i else 0 for m in range(2)))
        assert partial(j, tuple(1 if m == i else 0 for m in range(2))) == pytest.approx(vi * dA, abs=1e-12)


def test_current_at_its_base_point_is_zero_with_the_one_form_rows(sys2, recip_density):
    base = jets.Point((-1.25, 1.25))
    j = current_from_density(sys2, recip_density, base).jet(base, 1)
    assert j.value.tolist() == [0.0] and not np.signbit(j.value).any()  # no quadrature: exactly +0.0
    v, a = sys2.velocity_jets(point_set(base), 0)[:, 0], recip_density.jet(base, 1)
    assert jets.gradient(j).tolist() == (v * jets.gradient(a)).tolist()


def test_a_current_jet_holds_its_own_memo_owners_only():
    """The current's rows come from one velocity stack and one jet of A: the
    set holds the current, A, the stack and the lifts, and no per-index field."""
    e = entry("dim2-eps1-h1")
    system, A = epsilon_system(2, 1.0), e.density_field()
    base = jets.Point(tuple((lo + hi) / 2.0 for lo, hi in e.current_bands))
    points = banded_points(e.current_bands, 3, seed=1, predicates=e.sample_predicates())
    B = current_from_density(system, A, base)
    B.jet(points, 1)
    assert len(points._memo) == 4 and set(points._memo) == {B, A, system.stack, jets.variable}


def test_current_path_singularity_is_reported(sys2, recip_density):
    B = current_from_density(sys2, recip_density, jets.Point((-1.25, 1.25)))
    with pytest.raises(PathSingularityError, match=r"segment from Point\(-1.25, 1.25\) to Point\(2.0, 1.0\)"):
        B.value(jets.Point((2.0, 1.0)))  # the segment crosses the diagonal


def _first_panel_nodes(base: jets.Point, p: jets.Point) -> list[jets.Point]:
    """The 1-panel Gauss-Legendre nodes of the segment base + t (p - base),
    t in [0, 1], in rule order."""
    ts = [0.5 + 0.5 * float(x) for x in np.polynomial.legendre.leggauss(QUAD_NODES)[0]]
    return [jets.Point(tuple(b + (q - b) * t for b, q in zip(base.coords, p.coords))) for t in ts]


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_current_velocity_guard_watches_every_pair(pair):
    """Whichever two of three velocities coincide, the first node reports it."""
    sources = ["u1", "u2 + 3", "u3 + 6"]
    sources[pair[1]] = sources[pair[0]] + " + 1e-10*u2"
    system = DiagonalSystem.of_fields(tuple(field(s, 3) for s in sources))
    base, p = jets.Point((0.5, 1.0, 1.5)), jets.Point((0.75, 1.5, 2.0))
    with pytest.raises(PathSingularityError) as exc:
        current_from_density(system, field("1 + 0*u1", 3), base).value(p)
    node = _first_panel_nodes(base, p)[0]
    assert str(exc.value) == f"characteristic velocities coincide on the segment from {base} to {p} near {node}"


def test_current_path_across_the_diagonal_message(sys2, recip_density):
    B = current_from_density(sys2, recip_density, jets.Point((-1.25, 1.25)))
    with pytest.raises(PathSingularityError) as exc:
        B.value(jets.Point((2.0, 1.0)))
    assert str(exc.value) == (
        "quadrature on the segment from Point(-1.25, 1.25) to Point(2.0, 1.0) did not settle "
        "below 1e-10 (64 panels); the segment likely approaches a singular locus"
    )


def test_current_guards_report_the_first_failing_node(sys2):
    # density check: exp(-20 u1) drops below the floor part way along the segment
    base, p = jets.Point((-1.25, 1.25)), jets.Point((1.0, 1.5))
    B = current_from_density(sys2, field("exp(-20*u1) + 0*u2", 2), base)
    node = next(q for q in _first_panel_nodes(base, p) if math.exp(-20 * q.coords[0]) < DENSITY_FLOOR)
    with pytest.raises(PathSingularityError) as exc:
        B.value(p)
    assert str(exc.value) == f"density vanishes on the segment from {base} to {p} near {node}"

    # both checks fail at every node: the velocity check comes first
    close = DiagonalSystem.of_fields((field("u1", 2), field("u1 + 1e-10*u2", 2)))
    base, p = jets.Point((0.5, 1.0)), jets.Point((1.5, 1.25))
    B = current_from_density(close, field("1e-7 + 0*u1", 2), base)
    node = _first_panel_nodes(base, p)[0]
    with pytest.raises(PathSingularityError) as exc:
        B.value(p)
    assert str(exc.value) == f"characteristic velocities coincide on the segment from {base} to {p} near {node}"

    # a domain error part way along the segment surfaces from the first node outside the domain
    base, p = jets.Point((-1.25, 1.25)), jets.Point((-1.6, 1.0))
    B = current_from_density(sys2, field("ln(u1 + 1.5) + 0*u2", 2), base)
    node = next(q for q in _first_panel_nodes(base, p) if q.coords[0] + 1.5 <= 0.0)
    with pytest.raises(EvalError) as exc:
        B.value(p)
    assert str(exc.value) == f"ln of non-positive value {node.coords[0] + 1.5} in 'ln(u1 + 1.5)'"


def test_current_quadrature_leaves_the_density_memo_empty(sys2, monkeypatch):
    A = field("exp(u1)/(u2-u1)", 2)
    B = current_from_density(sys2, A, jets.Point((-1.25, 1.25)))
    pts = point_set([*banded_points(DIM2_BANDS, 5, seed=6), jets.Point((-0.52, -0.48))])
    sizes, real = [], reciprocal.PointSet  # the node count of every node set the quadrature builds
    monkeypatch.setattr(reciprocal, "PointSet", lambda coords: sizes.append(coords.shape[1]) or real(coords))
    gc.disable()  # no node set may wait for a cycle
    try:
        held = sum(isinstance(o, PointSet) for o in gc.get_objects())
        B.jet(pts, 0)
        assert sum(isinstance(o, PointSet) for o in gc.get_objects()) == held
    finally:
        gc.enable()
    # the last point ends near the diagonal, so its value refines past the first level's 48 nodes:
    # the refined node sets went too
    assert max(sizes) > 48
    # the density was evaluated over node sets only, which went with their memos
    assert list(pts._memo) == [B] and list(pts._memo[B]) == [0]


def test_current_of_a_transformed_system(sys2, recip_density):
    # 1/A is a density of the transformed system, with current -B/A
    base = jets.Point((-1.25, 1.25))
    result = transform(sys2, ConservationDensity(recip_density), base, points=_points2(recip_density, 42, 10))
    current = current_from_density(sys2, recip_density, base)
    inverse = current_from_density(result.system, field_of(jets.div, field("1", 2), recip_density), base)
    for p in banded_points(DIM2_BANDS, 2, seed=7):
        want = -current.value(p) / recip_density.value(p)
        assert inverse.value(p) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# the transformation


def test_transform_identity_generator(sys2):
    gen = ConservationDensity(field("1 + 0*u1", 2))
    pts = _points2()
    res = transform(sys2, gen, jets.Point((-1.25, 1.25)), points=pts)
    for p in pts:
        for i, j in ((0, 1), (1, 0)):
            assert res.natural.generators(point_set(p), 0)[i, j] == pytest.approx(
                natural_connection(sys2).generators(point_set(p), 0)[i, j], abs=1e-14
            )
        # velocities shift by at most the (zero) current constant
        assert velocity_values(res.system, p) == pytest.approx(velocity_values(sys2, p), abs=1e-12)


def test_transform_main_two_component_example(sys2, recip_density):
    gen = ConservationDensity(recip_density)
    pts = banded_points(DIM2_BANDS, 8, seed=6)
    res = transform(sys2, gen, jets.Point((-1.25, 1.25)), with_dual=True, points=pts)
    # the image off-diagonal symbols vanish identically for this generator
    for p in pts:
        assert res.natural.generators(point_set(p), 0)[0, 1] == pytest.approx(0.0, abs=1e-13)
    # velocities at (2,1) with the closed-form current normalization
    closed_B = field("u2/(u1-u2)", 2)
    res2 = transform(sys2, gen, jets.Point((2.5, 0.6)), points=pts, check_generator=False)
    p = jets.Point((2.0, 1.0))
    shift = closed_B.value(jets.Point((2.5, 0.6)))
    v = velocity_values(res2.system, p)
    assert v[0] - shift == pytest.approx(0.0, abs=1e-9)
    assert v[1] - shift == pytest.approx(1.0, abs=1e-9)


def _image_cases():
    """(system, density, base, sample coordinates): the eps-system at n = 2 and
    3 with catalog densities, and a system from sources with a constant velocity."""
    for n, entry_id in ((2, "dim2-eps1-h1"), (3, "dim3-eps1-flatcoord")):
        e = entry(entry_id)
        base = jets.Point(tuple((lo + hi) / 2.0 for lo, hi in e.current_bands))
        coords = banded_points(e.current_bands, 3, seed=n, predicates=e.sample_predicates()).coords
        yield pytest.param(epsilon_system(n, e.eps), e.density_field(), base, coords, id=f"eps-n{n}")
    system = DiagonalSystem.of_fields(field(src, 3) for src in ("u1*u2 - 3", "exp(u2/4)", "2.5"))
    coords = banded_points(((0.5, 0.7), (0.8, 1.0), (1.3, 1.5)), 3, seed=3).coords
    yield pytest.param(system, field("1 + u1/7", 3), jets.Point((0.6, 0.9, 1.4)), coords, id="velocity")


@pytest.mark.parametrize("system, A, base, coords", _image_cases())
def test_image_stack_is_the_per_velocity_composites_bit_for_bit(system, A, base, coords):
    """The image system's stack, A v^i - B as one stacked product and one stacked
    difference, is at orders 0..2 the stack of the fields A * v_i - B built by
    jet operations (field_of) over each velocity alone: row i of the base's stack."""
    n = system.dim
    image = transform(system, ConservationDensity(A), base, check_generator=False).system
    rows = [ScalarField(n, lambda p, order, i=i: jets.Jet(n, order, system.velocity_jets(p, order)[i])) for i in range(n)]
    current = current_from_density(system, A, base)
    composites = [field_of(jets.sub, field_of(jets.mul, A, v), current) for v in rows]
    for order in range(3):  # fresh sets, so that no order is read off another
        got = image.velocity_jets(PointSet(coords), order)
        pts = PointSet(coords)
        assert same_bits(got, jets.stack([f.jet(pts, order) for f in composites], len(pts))), order


def test_transform_christoffel_shift_lemma(sys2):
    # symbols recomputed from the transformed velocities equal the shift law
    A = field("exp(u1)/(u2-u1)", 2)
    gen = ConservationDensity(A)
    pts = banded_points(DIM2_BANDS, 6, seed=8)
    res = transform(sys2, gen, jets.Point((-1.25, 1.25)), points=pts)
    from recipfm.geometry import christoffel_primary

    for p in pts:
        recomputed = christoffel_primary(res.system, point_set(p), 0)
        for i, j in ((0, 1), (1, 0)):
            law = res.natural.generators(point_set(p), 0)[i, j, 0]
            assert recomputed[i, j, 0] == pytest.approx(law, abs=1e-12)


def test_transformed_system_stays_semi_hamiltonian():
    from recipfm.geometry import sh_residual

    sys3 = epsilon_system(3, 1.0)
    e = entry("dim3-eps1-h1:c0")
    A = e.density_field()
    bands = ((-2.0, -1.4), (-1.0, -0.5), (0.5, 1.2))
    pts = banded_points(bands, 6, seed=10, predicates=e.sample_predicates())
    res = transform(sys3, ConservationDensity(A), jets.Point((-1.7, -0.75, 0.85)), points=pts)
    rep = sh_residual(res.system, pts)
    assert rep.passed, rep.max_abs


def test_transform_rejects_non_density(sys2):
    bad = ConservationDensity(field("u1*u2", 2))
    with pytest.raises(InadmissibleGeneratorError):
        transform(sys2, bad, jets.Point((-1.25, 1.25)), points=_points2(seed=12))


def test_transform_checks_its_generator_only_at_given_points(sys2, recip_density):
    with pytest.raises(ReciprocalError, match="pass points, or check_generator=False$"):
        transform(sys2, ConservationDensity(recip_density), jets.Point((-1.25, 1.25)))


def test_transform_flatness_failure_converse(sys2):
    for src in ("u1*u2", "exp(u1*u2)"):
        A = field(src, 2)
        pts = _points2(A, seed=14)
        _, rep = grading_residual(A, "e", pts)
        assert not rep.passed
        res = transform(sys2, ConservationDensity(A), jets.Point((-1.25, 1.25)), check_generator=False)
        curv = curvature_natural_residual(res.natural, pts)
        assert curv.max_abs > 1e-3


def test_intrinsic_assembly_agreement(sys2, recip_density):
    gen = ConservationDensity(recip_density)
    pts = _points2(recip_density, seed=15, count=5)
    res = transform(sys2, gen, jets.Point((-1.25, 1.25)), with_dual=True, points=pts)
    rep = intrinsic_agreement_report(sys2, recip_density, res, pts)
    assert rep.passed and rep.max_abs <= 1e-12
    # over the whole set, keeping the first points' entries: the report of those points alone
    assert intrinsic_agreement_report(sys2, recip_density, res, pts, first=3) == intrinsic_agreement_report(
        sys2, recip_density, res, point_set(pts[:3])
    )
    # each route is named by its base table's product
    assert [label[0] for _, label, _ in rep.entries[:2]] == ["circ", "star"]


# ---------------------------------------------------------------------------
# The transformation group as an oracle: identities of the image table over
# catalog densities, value-free (no current, no quadrature)

GROUP_ENTRIES = ("dim2-eps1-h1", "dim3-eps1-h1", "dim3-eps-1-h1", "dim3-eps-1-h0", "dim3-eps1-flatcoord")
GROUP_SEEDS = (7, 42, 1029)


def _group_points(e, seed: int) -> PointSet:
    return sample_points(e.dim, 20, seed, predicates=e.sample_predicates(2))


def _image_table(base: ConnectionTable, A: ScalarField) -> ConnectionTable:
    """The natural table of the image of the transformation generated by A, shifted from base's generators."""
    return ConnectionTable(base.dim, reciprocal.transformed_off_diagonal(base, A), "natural")


@pytest.mark.parametrize("seed", GROUP_SEEDS)
@pytest.mark.parametrize("entry_id", GROUP_ENTRIES)
def test_a_power_of_two_times_the_generator_gives_the_same_image_table(entry_id, seed):
    """A -> 2^k A scales A and every partial of it by one power of two, so
    every d_j A / A, and with it every image generator, keeps its bits."""
    e = entry(entry_id)
    A, sys = e.density_field(), epsilon_system(e.dim, e.eps)
    points = _group_points(e, seed)
    want = _image_table(natural_connection(sys), A).generators(points, 1)
    for k in (-300, -20, 20):
        scaled = ScalarField(e.dim, lambda p, order, c=2.0**k: jets.Jet(e.dim, order, c * A.jet(p, order).coeffs))
        fresh = PointSet(points.coords)  # no memo entry of the unscaled run
        assert same_bits(_image_table(natural_connection(sys), scaled).generators(fresh, 1), want), k


SMALL_A = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the round trip loses 1.8e-8 relative where |A| is small (ROADMAP's scale-aware verdicts item)",
)


@pytest.mark.parametrize("entry_id, seed", [
    pytest.param(entry_id, seed, marks=SMALL_A) if (entry_id, seed) == ("dim3-eps-1-h0", 1029) else (entry_id, seed)
    for entry_id in GROUP_ENTRIES for seed in GROUP_SEEDS
])
def test_the_inverse_generator_returns_the_base_table(entry_id, seed):
    """Shifting the image table again, by the generator 1/A, adds back every
    d_j A / A: the order-1 base generators return, to rounding relative to the largest of them."""
    e = entry(entry_id)
    A, base = e.density_field(), natural_connection(epsilon_system(e.dim, e.eps))
    points = _group_points(e, seed)
    inverse = field_of(jets.div, ScalarField(e.dim, lambda p, order: jets.constant(e.dim, order, 1.0)), A)
    back = _image_table(_image_table(base, A), inverse).generators(points, 1)
    want = base.generators(points, 1)
    assert np.abs(back - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("seed", GROUP_SEEDS)
@pytest.mark.parametrize("entry_id", GROUP_ENTRIES[:3])
def test_a_density_over_the_generator_is_a_density_of_the_image(entry_id, seed):
    """If h is a density of the system, h/A is one of the image (the rule for a
    conservation law under a reciprocal change of variables): it meets the image
    table's density equations, while the controls h and h A miss them by far."""
    e = entry(entry_id)
    A, sys = e.density_field(), epsilon_system(e.dim, e.eps)
    points = _group_points(e, seed)
    image = _image_table(natural_connection(sys), A)
    worst = lambda f: np.abs(reciprocal._density_block(image, f, points)[2]).max()
    for sibling in (entry_id.replace("-h1", "-hm05"), entry_id.replace("-h1", "-h0")):
        h = entry(sibling).density_field()
        assert density_residual(sys, h, points).passed, sibling
        assert worst(field_of(jets.div, h, A)) <= 1e-11, sibling
        assert worst(h) > 10.0 and worst(field_of(jets.mul, h, A)) > 100.0, sibling


# ---------------------------------------------------------------------------
# bi-flat admissibility and orbits


def test_biflat_verdicts(sys2):
    good = field("1/(u2-u1)", 2)
    v = _biflat(sys2, good, _points2(good, seed=16))
    assert v.passed and abs(v.h) <= 1e-10 and v.k == pytest.approx(-1.0, abs=1e-10)
    graded = field("exp(u1)/(u2-u1)", 2)
    v2 = _biflat(sys2, graded, _points2(graded, seed=17))
    assert not v2.passed and v2.h == pytest.approx(1.0, abs=1e-10)
    lin = field("u1+u2+u3", 3)
    v3 = _biflat(
        epsilon_system(3, 1.0), lin, sample_points(3, 10, seed=18, predicates=(density_window(lin),))
    )
    assert not v3.passed


def test_biflat_survival_for_flat_coordinate_generators():
    # both transformed connections stay flat and keep their parallel fields
    from recipfm.geometry import curvature_full_residual, identity_parallel_residual

    for entry_id in ("dim3-eps1-flatcoord", "dim3-eps-1-flatcoord"):
        e = entry(entry_id)
        sys3 = epsilon_system(3, e.eps)
        pts = sample_points(3, 12, seed=28, predicates=e.sample_predicates())
        res = transform(sys3, ConservationDensity(e.density_field()), pts[0], with_dual=True, points=pts)
        assert curvature_natural_residual(res.natural, pts, 1e-8).passed
        assert curvature_full_residual(res.dual, pts, 1e-8).passed
        assert identity_parallel_residual(res.natural, "e", pts, 1e-10).passed
        assert identity_parallel_residual(res.dual, "E", pts, 1e-10).passed


def test_orbit_identity_second_generator(sys2, recip_density):
    pts = banded_points(DIM2_BANDS, 6, seed=19)
    rep, _ = orbit_compose(
        sys2,
        ConservationDensity(recip_density),
        ConservationDensity(field("1 + 0*u1", 2)),
        pts,
        jets.Point((-1.25, 1.25)),
    )
    assert rep.passed


def test_orbit_log_additivity(sys2, recip_density):
    pts = banded_points(DIM2_BANDS, 8, seed=20)
    rep, gradings = orbit_compose(
        sys2,
        ConservationDensity(recip_density),
        ConservationDensity(field("exp(u1)", 2)),
        pts,
        jets.Point((-1.25, 1.25)),
    )
    assert rep.passed and rep.max_abs <= 1e-10
    assert gradings["gen1"] == pytest.approx(1.0, abs=1e-10) and abs(gradings["gen0"]) <= 1e-10


def test_orbit_grading_bookkeeping(sys2):
    # gen0 graded 1, composite graded 3, so the image generator is graded 2
    gen0 = ConservationDensity(field("exp(u1)/(u2-u1)", 2))
    composite = field("exp(3*u1)/(u2-u1)", 2)
    gen1 = ConservationDensity(field_of(jets.div, composite, gen0.field))
    pts = banded_points(DIM2_BANDS, 8, seed=21)
    g1, _ = grading_residual(gen1.field, "e", pts)
    assert g1 == pytest.approx(2.0, abs=1e-10)
    rep, _ = orbit_compose(sys2, gen0, gen1, pts, jets.Point((-1.25, 1.25)))
    assert rep.passed, rep.max_abs


# ---------------------------------------------------------------------------
# rotation frames


def test_frame_residuals_and_christoffels():
    frame = epsilon_frame_n2(1.0)
    pts = sample_points(2, 12, seed=22)
    rep = darboux_residual(frame, pts)
    assert rep.passed and rep.max_abs <= 1e-10
    sys2 = epsilon_system(2, 1.0)
    from recipfm.geometry import christoffel_primary

    # the frame's symbols are the set's memo entry for its generators, held at the order asked only
    assert frame.generators(pts, 1) is frame.generators(pts, 1)
    assert set(pts._memo[frame.generators]) == {1}
    for p in pts:
        want = christoffel_primary(sys2, point_set(p), 0)
        for i, j in ((0, 1), (1, 0)):
            assert frame.generators(point_set(p), 0)[i, j] == pytest.approx(want[i, j], abs=1e-12)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p: grading_residual(field("1/(u2-u1)", 2), "e", p),
        lambda p: natural_connection(epsilon_system(2, 1.0)).generators(p, 0),
        lambda p: epsilon_frame_n2(1.0).generators(p, 0),
    ],
    ids=["grading_residual", "ConnectionTable.generators", "frame generator"],
)
def test_a_lone_point_is_no_point_set(evaluate):
    """A family, table or generator handed a lone Point raises instead of
    reading it as a sequence of coordinates (one column per coordinate)."""
    with pytest.raises((TypeError, AttributeError)):
        evaluate(jets.Point((2.0, 1.0)))


def test_no_reference_cycle_among_systems_tables_frames_fields_and_sets():
    """Systems, frames, their tables (image tables too), fields and point sets
    refer to one another in one direction only, so all of them go, with every
    memo entry, as the last reference goes, without the cycle collector."""
    alive = []

    def evaluate():
        e = entry("dim3-eps1-h0")  # its own density lives as long as the catalog: compile one to drop
        sys3, A = epsilon_system(3, 1.0), field(e.density_src, e.dim, e.params)
        pts = sample_points(3, 4, seed=41, predicates=(density_window(A),))
        image = transform(sys3, ConservationDensity(A), jets.Point((-1.7, -0.75, 0.85)), with_dual=True,
                          check_generator=False)
        for natural, dual in ((natural_connection(sys3), dual_connection(sys3)), (image.natural, image.dual)):
            curvature_natural_residual(natural, pts)
            curvature_full_residual(dual, pts)
            identity_parallel_residual(natural, "e", pts)
            identity_parallel_residual(dual, "E", pts)
        assert density_residual(sys3, A, pts).passed
        frame, pts2 = epsilon_frame_n2(1.0), sample_points(2, 4, seed=41)
        assert frame.generators(pts2, 1).shape == (2, 2, 3, 4)
        assert darboux_residual(frame, pts2).passed
        alive.extend(weakref.ref(x) for x in (pts, pts2, sys3, image.system, frame, A))

    assert cyclic_recipfm_objects(evaluate) == []
    assert [ref() for ref in alive] == [None] * 6


def test_trivial_frame_is_exact():
    zero = field("0*u1", 2)
    const = field("1 + 0*u1", 2)
    frame = RotationFrame.of_fields(2, {(0, 1): zero, (1, 0): zero}, (const, const), 0.0)
    rep = darboux_residual(frame, sample_points(2, 5, seed=23))
    assert rep.max_abs == 0.0


def test_perturbed_frame_fails():
    frame = epsilon_frame_n2(1.0)
    scale = np.array([1.01, 1.0])[:, None, None]  # beta_12's every coefficient, so the jet of 1.01 beta_12
    bad = RotationFrame(2, lambda p, order: frame.beta_jets(p, order) * scale, frame.lame_stack, frame.degree)
    rep = darboux_residual(bad, sample_points(2, 8, seed=24))
    assert not rep.passed and rep.max_abs > 1e-3


def _triple_rows(beta_src):
    """The triple rows d_k beta_ij - beta_ik beta_kj of a 3-component frame with beta_ij from beta_src
    (formatted with i and j), by point and label, from darboux_residual and from conftest's partial."""
    beta = {(i, j): field(beta_src.format(i=i + 1, j=j + 1), 3) for i, j in itertools.permutations(range(3), 2)}
    one = field("1 + 0*u1", 3)
    pts = point_set(sample_points(3, 6, seed=31))
    frame = RotationFrame.of_fields(3, beta, (one,) * 3, 0.0)
    got = {(p, label): v for p, label, v in darboux_residual(frame, pts).entries if label[0] == "triple"}
    want = {}
    for i, j, k in itertools.permutations(range(3)):
        bij, bik, bkj = (beta[key].jet(pts, 1) for key in ((i, j), (i, k), (k, j)))
        row = partial(bij, [int(m == k) for m in range(3)]) - bik.value * bkj.value
        want.update({(p, ("triple", i, j, k)): v for p, v in zip(pts, row.tolist())})
    return got, want


def test_darboux_triple_rows():
    got, want = _triple_rows("-1/(u1+u2+u3)")  # d_k(-1/s) = 1/s^2 = (-1/s)(-1/s) for every pair
    assert got == want and len(got) == 6 * 6
    assert max(map(abs, got.values())) == 0.0
    got, want = _triple_rows("1/(u{i}-u{j})")  # d_k beta_ij = 0, but beta_ik beta_kj is not
    assert got == want and len(got) == 6 * 6
    assert max(map(abs, got.values())) > 0.1


def test_frame_validation():
    zero = field("0*u1", 2)
    with pytest.raises(ReciprocalError, match=r"^missing rotation coefficient beta\[2,1\]$"):
        RotationFrame.of_fields(2, {(0, 1): zero}, (zero, zero), 0.0)
    with pytest.raises(ReciprocalError, match="^need 2 Lame fields, got 1$"):
        RotationFrame.of_fields(2, {(0, 1): zero, (1, 0): zero}, (zero,), 0.0)
    # the Lame count first, then a key that is no pair, then the first missing pair
    with pytest.raises(ReciprocalError, match="^need 2 Lame fields, got 1$"):
        RotationFrame.of_fields(2, {(0, 0): zero}, (zero,), 0.0)
    with pytest.raises(ReciprocalError, match=r"^beta\[1,1\] is not a pair I != J in 1..2$"):
        RotationFrame.of_fields(2, {(0, 0): zero}, (zero, zero), 0.0)


def test_darboux_transform_drops_degree():
    frame = epsilon_frame_n2(1.0)
    A = field("1/(u2-u1)", 2)
    pts = sample_points(2, 12, seed=25, predicates=(density_window(A),))
    image = darboux_transform(frame, ConservationDensity(A), pts)
    assert image.degree == pytest.approx(0.0, abs=1e-10)
    rep = darboux_residual(image, pts)
    assert rep.passed and rep.max_abs <= 1e-9
    # reconstructed symbols follow the shift law
    old_off, new_off = frame.generators, image.generators
    for p in pts:
        a = A.jet(p, 1)
        for i, j in ((0, 1), (1, 0)):
            dlog = partial(a, [int(m == j) for m in range(2)]) / a.value  # d_j A / A
            expected = old_off(point_set(p), 0)[i, j, 0] - dlog.item()
            assert new_off(point_set(p), 0)[i, j, 0] == pytest.approx(expected, abs=1e-10)


def test_darboux_transform_identity_generator():
    frame = epsilon_frame_n2(-1.0)
    pts = sample_points(2, 8, seed=26)
    image = darboux_transform(frame, ConservationDensity(field("1 + 0*u1", 2)), pts)
    assert image.degree == pytest.approx(frame.degree, abs=1e-12)
    assert image.lame_jets(pts, 0)[:, 0] == pytest.approx(frame.lame_jets(pts, 0)[:, 0])


def _frame_cases():
    """(source beta fields by pair and Lame fields, degree, density) of five frames with an
    admissible density: eps2 at eps = 1 and -1; a 3-component frame, keys in reverse order and one
    constant Lame field, under a constant density; a constant frame (one-column jets) under a
    constant density and under a non-constant one."""
    for eps, density in ((1.0, "1/(u2-u1)"), (-1.0, "(u1-u2)^3")):
        yield pytest.param(*eps2_frame_fields(eps), eps, field(density, 2), id=f"eps2[{eps:+g}]")
    yield pytest.param(*frame3_fields(), 0.5, field("2", 3), id="frame3")
    beta = {(0, 1): field("0.25", 2), (1, 0): field("1", 2)}  # (H_2 / H_1) beta_12 = (H_1 / H_2) beta_21
    for density in ("2", "u1 - u2"):
        yield pytest.param(beta, (field("2", 2), field("4", 2)), 0.0, field(density, 2), id=f"constant[{density}]")


@pytest.mark.parametrize("beta, lame, degree, A", _frame_cases())
def test_image_frame_stacks_are_the_composites_bit_for_bit(beta, lame, degree, A):
    """The image frame's stacks at orders 0..2 are those of the fields
    beta_ij - (H_i / H_j) (d_j A / A) and H_i / A, composed here by jet operations
    over the source fields, pair by pair in pair_labels order."""
    n = len(lame)
    pts = sample_points(n, 5, seed=n, predicates=(density_window(A),))
    image = darboux_transform(RotationFrame.of_fields(n, beta, lame, degree), ConservationDensity(A), pts)
    for order in range(3):  # fresh sets, so that no order is read off another
        got = image.beta_jets(PointSet(pts.coords), order), image.lame_jets(PointSet(pts.coords), order)
        p = PointSet(pts.coords)
        a = A.jet(p, order)
        shift = lambda i, j: jets.mul(
            jets.div(lame[i].jet(p, order), lame[j].jet(p, order)),
            jets.div(derivative(A.jet(p, order + 1), j), a),
        )
        want_beta = [jets.sub(beta[i, j].jet(p, order), shift(i, j)) for i, j in pair_labels(n)]
        want_lame = [jets.div(h.jet(p, order), a) for h in lame]
        assert same_bits(got[0], jets.stack(want_beta, len(p))), order
        assert same_bits(got[1], jets.stack(want_lame, len(p))), order


def test_darboux_transform_hypothesis_violations():
    frame = epsilon_frame_n2(1.0)
    pts = sample_points(2, 8, seed=27)
    with pytest.raises(InadmissibleGeneratorError, match="e\\(A\\)"):
        darboux_transform(frame, ConservationDensity(field("u1+u2", 2)), pts)
    # constant gradings (e = 0, E-degree 2) but not a density for the frame
    bad = field("(u1-u2)^2", 2)
    with pytest.raises(InadmissibleGeneratorError, match="density"):
        darboux_transform(frame, ConservationDensity(bad), pts)


def test_residual_families_read_the_density_value_off_its_jet(sys2):
    A = field("1/(u2-u1)", 2)
    pts = _points2(A, seed=5, count=4)

    def no_value(p):
        raise AssertionError(f"A.value called at {p}")

    A.value = no_value
    density_residual(sys2, A, pts)
    a_system_residual(sys2, A, pts)
    theta_system_residual(sys2, A, pts)
    covariant_hessian_residual(natural_connection(sys2), A, pts)
    _biflat(sys2, A, pts)
    # the floor check still guards every family that divides by A
    zero = field("u1 - u1", 2)
    for family in (
        lambda: grading_residual(zero, "E", pts),
        lambda: a_system_residual(sys2, zero, pts),
        lambda: theta_system_residual(sys2, zero, pts),
        lambda: covariant_hessian_residual(dual_connection(sys2), zero, pts),
    ):
        with pytest.raises(ReciprocalError, match=f"density magnitude 0.00e\\+00 below {DENSITY_FLOOR}"):
            family()


def test_every_memo_entry_is_a_read_only_array():
    """Every evaluator, a field too, keeps its entries in the set as read-only
    coefficient arrays: a field's jets are views of its entries, and an order
    read off a higher one is bit for bit the one computed on its own."""
    e = entry("dim3-eps1-h1:c0")
    sys, A = epsilon_system(3, e.eps), e.density_field()
    pts = sample_points(3, 5, seed=7, predicates=e.sample_predicates(2))
    natural = natural_connection(sys)
    density_residual(sys, A, pts)
    a_system_residual(sys, A, pts)
    theta_system_residual(sys, A, pts)
    grading_residual(A, "e", pts)
    grading_residual(A, "E", pts)
    curvature_natural_residual(natural, pts)
    curvature_full_residual(natural, pts)
    sh_residual(sys, pts)
    image = transform(sys, ConservationDensity(A), pts[0], with_dual=True, points=pts)
    for table in (image.natural, image.dual):
        curvature_full_residual(table, pts)
    entries = [got for per in pts._memo.values() for got in per.values()]
    assert len(pts._memo) >= 6 and A in pts._memo
    assert all(type(got) is np.ndarray and not got.flags.writeable for got in entries)
    for order, got in pts._memo[A].items():
        assert np.shares_memory(A.jet(pts, order).coeffs, got)
    fresh = PointSet(pts.coords)
    top = A.jet(fresh, 2).coeffs
    got = A.jet(fresh, 0).coeffs
    with every_order_from_scratch():
        scratch = PointSet(pts.coords)
        A.jet(scratch, 2)
        want = A.jet(scratch, 0).coeffs
    assert np.shares_memory(got, top) and not np.shares_memory(want, scratch._memo[A][2])
    assert same_bits(got, want)


def test_biflat_verdict_rule():
    p = jets.Point((1.0, 2.0))
    rep = lambda v: ResidualReport.build("r", [(p, (), v)], 1e-8)
    v = biflat_verdict(rep(0.0), (0.0, rep(0.0)), (-1.0, rep(math.nan)))
    assert not v.passed and v.failed == ("grading-E",) and math.isnan(v.max_abs)
    # e(A) = 0 needs a vanishing estimate, not only a constant grading
    v = biflat_verdict(rep(1.0), (0.5, rep(0.0)), (2.0, rep(0.0)))
    assert v.failed == ("grading-e", "density") and v.max_abs == 1.0 and (v.h, v.k) == (0.5, 2.0)
    v = biflat_verdict(rep(1e-9), (1e-9, rep(0.0)), (2.0, rep(0.0)))
    assert v.passed and v.failed == () and v.max_abs == 1e-9


def test_darboux_transform_reports_the_first_unmet_condition():
    frame = epsilon_frame_n2(1.0)
    pts = sample_points(2, 8, seed=27)
    # e(A) = 0 holds; E(A) = (u1 - u2) A is no constant multiple of A
    with pytest.raises(InadmissibleGeneratorError, match="E\\(A\\) = kA"):
        darboux_transform(frame, ConservationDensity(field("exp(u1-u2)", 2)), pts)
    # all three conditions fail: e(A) = 0 is named
    with pytest.raises(InadmissibleGeneratorError, match="e\\(A\\) = 0"):
        darboux_transform(frame, ConservationDensity(field("exp(u1)*u1*u2", 2)), pts)
