import gc
import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest

from conftest import cyclic_recipfm_objects, flat_coordinates, partial, same_bits
from recipfm import jets
from recipfm.jets import PointSet, point_set
from recipfm.catalog import catalog_entries, entry, epsilon_frame_n2, epsilon_system
from recipfm.exprlang import EvalError, field
from recipfm.geometry import (
    DiagonalSystem,
    GeometryError,
    ResidualReport,
    banded_points,
    curvature_full_residual,
    curvature_natural_residual,
    dual_connection,
    identity_parallel_residual,
    natural_connection,
    sample_points,
)
from recipfm.reciprocal import (
    DENSITY_FLOOR,
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
    darboux_gamma_off,
    darboux_residual,
    darboux_transform,
    density_residual,
    density_window,
    frame_connection,
    grading_residual,
    intrinsic_agreement_report,
    intrinsic_transformed_gamma,
    log_derivative_field,
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


def test_covariant_hessian_circ(sys2, recip_density):
    pts = _points2(recip_density)
    nat = natural_connection(sys2)
    rep = covariant_hessian_residual(nat, "circ", recip_density, pts)
    assert rep.passed and rep.max_abs <= 1e-9
    const = covariant_hessian_residual(nat, "circ", field("3 + 0*u1", 2), pts)
    assert const.max_abs == 0.0


def test_covariant_hessian_star_flat_coordinate():
    from recipfm.geometry import dual_connection

    A1, _ = flat_coordinates(1.0)
    sys3 = epsilon_system(3, 1.0)
    e = entry("dim3-eps1-flatcoord")
    pts = sample_points(3, 10, seed=13, predicates=e.sample_predicates())
    rep = covariant_hessian_residual(dual_connection(sys3), "star", A1, pts)
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
            covariant_hessian_residual(nat, "circ", A, pts).passed,
        )
        assert verdicts == (expected,) * 3


def test_covariant_hessian_rejects_an_unknown_product(sys2, recip_density):
    with pytest.raises(ReciprocalError, match="product must be 'circ' or 'star', got 'dot'"):
        covariant_hessian_residual(natural_connection(sys2), "dot", recip_density, _points2(recip_density))


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


def _closed_form_currents(seed: int):
    """(entry id, density, quadrature current, closed form minus its base value,
    banded points) for every catalog entry with a closed-form current."""
    for e in catalog_entries():
        if e.current_src is not None:
            A = e.density_field()
            base = jets.Point(tuple((lo + hi) / 2.0 for lo, hi in e.current_bands))
            B = current_from_density(epsilon_system(e.dim, e.eps), A, base)
            closed = e.current_field() - e.current_field().value(base)
            yield e.entry_id, A, B, closed, banded_points(e.current_bands, 20, seed, predicates=e.sample_predicates(A))


def test_current_order_one_jets_are_pinned_bit_for_bit():
    """Order-1 jets of every closed-form current, at its first three points for
    three seeds, as float.hex: the value row from quadrature and the derivative
    rows from the one-form, each bit as the one-forms built with the current gave."""
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for _, _, B, _, pts in _closed_form_currents(seed):
            digest.update(",".join(map(float.hex, B.jet(point_set(pts[:3]), 1).coeffs.ravel().tolist())).encode())
    assert digest.hexdigest() == "e5b9a1a0efe8e7692c9bc73102a0339b26b5286e8b0277da71006bde1f427bdd"


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
            # the value's own one-point set, then the 1- and 2-panel rules in one set
            assert sizes == [1, 3 * QUAD_NODES], (entry_id, p)
            assert density_jets == [(3 * QUAD_NODES, 1)], (entry_id, p)


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
        assert built.count(3 * QUAD_NODES) == len(first) and sizes == built, entry_id
        assert same_bits(j0.coeffs, j1.coeffs[:1]), entry_id
        again = point_set(pts[:3])
        assert same_bits(B.jet(again, 0).coeffs, j0.coeffs), entry_id


def test_current_jets_come_from_the_one_form(sys2, recip_density):
    base = jets.Point((-1.25, 1.25))
    B = current_from_density(sys2, recip_density, base)
    p = jets.Point((-1.0, 1.0))
    j, a = B.jet(p, 1), recip_density.jet(p, 1)
    for i in (0, 1):
        vi = sys2.velocities[i].value(p)
        dA = partial(a, tuple(1 if m == i else 0 for m in range(2)))
        assert partial(j, tuple(1 if m == i else 0 for m in range(2))) == pytest.approx(vi * dA, abs=1e-12)


def test_current_at_its_base_point_is_zero_with_the_one_form_rows(sys2, recip_density):
    base = jets.Point((-1.25, 1.25))
    j = current_from_density(sys2, recip_density, base).jet(base, 1)
    assert j.value.tolist() == [0.0] and not np.signbit(j.value).any()  # no quadrature: exactly +0.0
    v, a = sys2.velocity_jets(base, 0)[:, 0], recip_density.jet(base, 1)
    assert jets.gradient(j).tolist() == (v * jets.gradient(a)).tolist()


def test_a_current_jet_holds_its_own_memo_owners_only():
    """The current's rows come from one velocity stack and one jet of A: the
    set holds the current, A, the stack and the lifts, and no per-index field."""
    e = entry("dim2-eps1-h1")
    system, A = epsilon_system(2, 1.0), e.density_field()
    base = jets.Point(tuple((lo + hi) / 2.0 for lo, hi in e.current_bands))
    points = banded_points(e.current_bands, 3, seed=1, predicates=e.sample_predicates(A))
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
    return [jets.Point(tuple(b + (q - b) * t for b, q in zip(base, p))) for t in ts]


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
    node = next(q for q in _first_panel_nodes(base, p) if math.exp(-20 * q[0]) < DENSITY_FLOOR)
    with pytest.raises(PathSingularityError) as exc:
        B.value(p)
    assert str(exc.value) == f"density vanishes on the segment from {base} to {p} near {node}"

    # both checks fail at every node: the velocity check comes first
    close = DiagonalSystem((field("u1", 2), field("u1 + 1e-10*u2", 2)))
    base, p = jets.Point((0.5, 1.0)), jets.Point((1.5, 1.25))
    B = current_from_density(close, field("1e-7 + 0*u1", 2), base)
    node = _first_panel_nodes(base, p)[0]
    with pytest.raises(PathSingularityError) as exc:
        B.value(p)
    assert str(exc.value) == f"characteristic velocities coincide on the segment from {base} to {p} near {node}"

    # a domain error part way along the segment surfaces from the first node outside the domain
    base, p = jets.Point((-1.25, 1.25)), jets.Point((-1.6, 1.0))
    B = current_from_density(sys2, field("ln(u1 + 1.5) + 0*u2", 2), base)
    node = next(q for q in _first_panel_nodes(base, p) if q[0] + 1.5 <= 0.0)
    with pytest.raises(EvalError) as exc:
        B.value(p)
    assert str(exc.value) == f"ln of non-positive value {node[0] + 1.5} in 'ln(u1 + 1.5)'"


def test_current_quadrature_leaves_the_density_memo_empty(sys2):
    A = field("exp(u1)/(u2-u1)", 2)
    B = current_from_density(sys2, A, jets.Point((-1.25, 1.25)))
    pts = point_set([*banded_points(DIM2_BANDS, 5, seed=6), jets.Point((-0.2, 0.3))])
    gc.disable()  # no node set may wait for a cycle
    try:
        held = sum(isinstance(o, PointSet) for o in gc.get_objects())
        B.jet(pts, 0)  # the last point's long leg near the diagonal refines to more panels
        assert sum(isinstance(o, PointSet) for o in gc.get_objects()) == held
    finally:
        gc.enable()
    # the density was evaluated over node sets only, which went with their memos
    assert list(pts._memo) == [B] and list(pts._memo[B]) == [0]


def test_current_of_a_transformed_system(sys2, recip_density):
    # 1/A is a density of the transformed system, with current -B/A
    base = jets.Point((-1.25, 1.25))
    result = transform(sys2, ConservationDensity(recip_density), base, points=_points2(recip_density, 42, 10))
    inverse = current_from_density(result.system, 1 / recip_density, base)
    for p in banded_points(DIM2_BANDS, 2, seed=7):
        want = -result.current.value(p) / recip_density.value(p)
        assert inverse.value(p) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# the transformation


def test_transform_identity_generator(sys2):
    gen = ConservationDensity(field("1 + 0*u1", 2))
    pts = _points2()
    res = transform(sys2, gen, jets.Point((-1.25, 1.25)), points=pts)
    for p in pts:
        for i, j in ((0, 1), (1, 0)):
            assert res.natural.generators(p, 0)[i, j] == pytest.approx(
                natural_connection(sys2).generators(p, 0)[i, j], abs=1e-14
            )
        # velocities shift by at most the (zero) current constant
        for i in (0, 1):
            assert res.system.velocities[i].value(p) == pytest.approx(
                sys2.velocities[i].value(p), abs=1e-12
            )


def test_transform_main_two_component_example(sys2, recip_density):
    gen = ConservationDensity(recip_density)
    pts = banded_points(DIM2_BANDS, 8, seed=6)
    res = transform(sys2, gen, jets.Point((-1.25, 1.25)), with_dual=True, points=pts)
    # the image off-diagonal symbols vanish identically for this generator
    for p in pts:
        assert res.natural.generators(p, 0)[0, 1] == pytest.approx(0.0, abs=1e-13)
    # velocities at (2,1) with the closed-form current normalization
    closed_B = field("u2/(u1-u2)", 2)
    res2 = transform(sys2, gen, jets.Point((2.5, 0.6)), points=pts, check_generator=False)
    p = jets.Point((2.0, 1.0))
    shift = closed_B.value(jets.Point((2.5, 0.6)))
    assert res2.system.velocities[0].value(p) - shift == pytest.approx(0.0, abs=1e-9)
    assert res2.system.velocities[1].value(p) - shift == pytest.approx(1.0, abs=1e-9)


def test_transform_christoffel_shift_lemma(sys2):
    # symbols recomputed from the transformed velocities equal the shift law
    A = field("exp(u1)/(u2-u1)", 2)
    gen = ConservationDensity(A)
    pts = banded_points(DIM2_BANDS, 6, seed=8)
    res = transform(sys2, gen, jets.Point((-1.25, 1.25)), points=pts)
    from recipfm.geometry import christoffel_primary

    for p in pts:
        recomputed = christoffel_primary(res.system, p, 0)
        for i, j in ((0, 1), (1, 0)):
            law = res.natural.generators(p, 0)[i, j, 0]
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
        sys2, recip_density, res, pts[:3]
    )
    with pytest.raises(ReciprocalError):
        intrinsic_transformed_gamma(natural_connection(sys2), recip_density, "bad", pts[0])


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
    gen1 = ConservationDensity(composite / gen0.field)
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
    off = darboux_gamma_off(frame)
    from recipfm.geometry import christoffel_primary

    table = frame_connection(frame)
    # every table of one frame shares the memo a set holds for the frame's generator
    assert frame_connection(frame).generators(pts, 1) is table.generators(pts, 1)
    assert set(pts._memo[frame._gamma_off]) == {1}
    for p in pts:
        want = christoffel_primary(sys2, p, 0)
        for i, j in ((0, 1), (1, 0)):
            assert off(p, 0)[i, j, 0] == pytest.approx(want[i, j, 0], abs=1e-12)
            assert table.generators(p, 0)[i, j] == pytest.approx(want[i, j], abs=1e-12)


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
        assert frame_connection(frame).generators(pts2, 1).shape == (2, 2, 3, 4)
        assert darboux_residual(frame, pts2).passed
        alive.extend(weakref.ref(x) for x in (pts, pts2, sys3, image.system, frame, A))

    assert cyclic_recipfm_objects(evaluate) == []
    assert [ref() for ref in alive] == [None] * 6


def test_frame_table_holds_generators_only():
    table = frame_connection(epsilon_frame_n2(1.0))
    pts = sample_points(2, 2, seed=22)
    assert table.generators(pts, 0).shape == (2, 2, 1, 2)
    with pytest.raises(GeometryError):
        table.christoffels(pts, 0)  # G^i_jj needs an assembly
    with pytest.raises(GeometryError):
        curvature_natural_residual(table, pts)
    with pytest.raises(GeometryError):
        identity_parallel_residual(table, "e", pts)
    with pytest.raises(GeometryError):
        curvature_full_residual(table, pts)


def test_trivial_frame_is_exact():
    zero = field("0*u1", 2)
    const = field("1 + 0*u1", 2)
    frame = RotationFrame(2, {(0, 1): zero, (1, 0): zero}, (const, const), 0.0)
    rep = darboux_residual(frame, sample_points(2, 5, seed=23))
    assert rep.max_abs == 0.0


def test_perturbed_frame_fails():
    frame = epsilon_frame_n2(1.0)
    scaled = dict(frame.beta)
    scaled[(0, 1)] = frame.beta[(0, 1)] * 1.01
    bad = RotationFrame(2, scaled, frame.lame, frame.degree)
    rep = darboux_residual(bad, sample_points(2, 8, seed=24))
    assert not rep.passed and rep.max_abs > 1e-3


def _triple_rows(beta_src):
    """The triple rows d_k beta_ij - beta_ik beta_kj of a 3-component frame with beta_ij from beta_src
    (formatted with i and j), by point and label, from darboux_residual and from conftest's partial."""
    beta = {(i, j): field(beta_src.format(i=i + 1, j=j + 1), 3) for i, j in itertools.permutations(range(3), 2)}
    one = field("1 + 0*u1", 3)
    pts = point_set(sample_points(3, 6, seed=31))
    got = {(p, label): v for p, label, v in darboux_residual(RotationFrame(3, beta, (one,) * 3, 0.0), pts).entries
           if label[0] == "triple"}
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
    with pytest.raises(ReciprocalError):
        RotationFrame(2, {(0, 1): zero}, (zero, zero), 0.0)
    with pytest.raises(ReciprocalError):
        RotationFrame(2, {(0, 1): zero, (1, 0): zero}, (zero,), 0.0)


def test_darboux_transform_drops_degree():
    frame = epsilon_frame_n2(1.0)
    A = field("1/(u2-u1)", 2)
    pts = sample_points(2, 12, seed=25, predicates=(density_window(A),))
    image = darboux_transform(frame, ConservationDensity(A), pts)
    assert image.degree == pytest.approx(0.0, abs=1e-10)
    rep = darboux_residual(image, pts)
    assert rep.passed and rep.max_abs <= 1e-9
    # reconstructed symbols follow the shift law
    old_off = darboux_gamma_off(frame)
    new_off = darboux_gamma_off(image)
    for p in pts:
        for i, j in ((0, 1), (1, 0)):
            expected = old_off(p, 0)[i, j, 0] - log_derivative_field(A, j).value(p)
            assert new_off(p, 0)[i, j, 0] == pytest.approx(expected, abs=1e-10)


def test_darboux_transform_identity_generator():
    frame = epsilon_frame_n2(-1.0)
    pts = sample_points(2, 8, seed=26)
    image = darboux_transform(frame, ConservationDensity(field("1 + 0*u1", 2)), pts)
    assert image.degree == pytest.approx(frame.degree, abs=1e-12)
    for p in pts:
        assert image.lame[0].value(p) == pytest.approx(frame.lame[0].value(p))


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
    covariant_hessian_residual(natural_connection(sys2), "circ", A, pts)
    _biflat(sys2, A, pts)
    # the floor check still guards every family that divides by A
    zero = field("u1 - u1", 2)
    for family in (
        lambda: grading_residual(zero, "E", pts),
        lambda: a_system_residual(sys2, zero, pts),
        lambda: theta_system_residual(sys2, zero, pts),
        lambda: covariant_hessian_residual(natural_connection(sys2), "star", zero, pts),
    ):
        with pytest.raises(ReciprocalError, match=f"density magnitude 0.00e\\+00 below {DENSITY_FLOOR}"):
            family()


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


def test_log_derivative_fields_share_one_density_evaluation():
    A = field("exp(u1)/(u2-u1) + u3", 3)
    orders = []
    compiled = A._fn
    A._fn = lambda p, order: orders.append(order) or compiled(p, order)
    p = point_set(jets.Point((0.5, 1.5, -1.0)))
    for j in range(3):
        log_derivative_field(A, j).jet(p, 1)
    assert sorted(orders) == [2]  # d_j A needs order 2, and the quotient's order 1 is read off it
