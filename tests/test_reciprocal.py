import math

import numpy as np
import pytest

from recipfm import jets
from recipfm.jets import point_set
from recipfm.catalog import entry, epsilon_frame_n2, epsilon_system
from recipfm.exprlang import EvalError, field
from recipfm.geometry import (
    DiagonalSystem,
    GeometryError,
    ResidualReport,
    banded_points,
    curvature_full_residual,
    curvature_natural_residual,
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
    biflat_admissibility,
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
    from recipfm.catalog import hypergeom_flat_coordinates
    from recipfm.geometry import dual_connection

    A1, _ = hypergeom_flat_coordinates(1.0)
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


# ---------------------------------------------------------------------------
# currents


def test_current_against_closed_form(sys2, recip_density):
    base = jets.point(-1.25, 1.25)
    B = current_from_density(sys2, recip_density, base)
    closed = field("u2/(u1-u2)", 2)
    for p in banded_points(DIM2_BANDS, 10, seed=3):
        assert B.value(p) == pytest.approx(closed.value(p) - closed.value(base), abs=1e-10)


def test_current_difference_example(sys2, recip_density):
    # in the chamber u1 > u2 the paths to (2,1) and (3,1) are admissible
    B = current_from_density(sys2, recip_density, jets.point(2.5, 0.6))
    assert B.value(jets.point(2.0, 1.0)) - B.value(jets.point(3.0, 1.0)) == pytest.approx(0.5, abs=1e-9)


def test_current_of_constant_density(sys2):
    B = current_from_density(sys2, field("7 + 0*u1", 2), jets.point(-1.25, 1.25))
    for p in banded_points(DIM2_BANDS, 5, seed=4):
        assert B.value(p) == pytest.approx(0.0, abs=1e-12)


def test_current_path_order_independence(sys2):
    A = field("exp(u1)/(u2-u1)", 2)
    base = jets.point(-1.25, 1.25)
    B01 = current_from_density(sys2, A, base, axis_order=(0, 1))
    B10 = current_from_density(sys2, A, base, axis_order=(1, 0))
    for p in banded_points(DIM2_BANDS, 10, seed=5):
        assert B01.value(p) == pytest.approx(B10.value(p), abs=1e-8)


def test_current_jets_come_from_the_one_form(sys2, recip_density):
    base = jets.point(-1.25, 1.25)
    B = current_from_density(sys2, recip_density, base)
    p = jets.point(-1.0, 1.0)
    j = B.jet(p, 1)
    for i in (0, 1):
        vi = sys2.velocities[i].value(p)
        dA = recip_density.gradient(p)[i]
        assert jets.partial(j, tuple(1 if m == i else 0 for m in range(2))) == pytest.approx(vi * dA, abs=1e-12)


def test_current_path_singularity_is_reported(sys2, recip_density):
    B = current_from_density(sys2, recip_density, jets.point(-1.25, 1.25))
    with pytest.raises(PathSingularityError, match="u1"):
        B.value(jets.point(2.0, 1.0))  # the u1 leg crosses the diagonal
    with pytest.raises(ReciprocalError):
        current_from_density(sys2, recip_density, jets.point(-1.0, 1.0), axis_order=(0, 0))


def _first_panel_nodes(lo: float, hi: float) -> list[float]:
    """The 1-panel Gauss-Legendre nodes of a segment, in rule order."""
    width = hi - lo
    mid, half = lo + 0.5 * width, 0.5 * width
    return [mid + half * float(x) for x in np.polynomial.legendre.leggauss(QUAD_NODES)[0]]


def test_current_path_across_the_diagonal_message(sys2, recip_density):
    B = current_from_density(sys2, recip_density, jets.point(-1.25, 1.25))
    with pytest.raises(PathSingularityError) as exc:
        B.value(jets.point(2.0, 1.0))
    assert str(exc.value) == (
        "quadrature along u1 did not settle below 1e-10 (64 panels); "
        "the segment likely approaches a singular locus"
    )


def test_current_guards_report_the_first_failing_node(sys2):
    # density check: exp(-20 u1) drops below the floor part way along the u1 leg
    B = current_from_density(sys2, field("exp(-20*u1) + 0*u2", 2), jets.point(-1.25, 1.25))
    t = next(t for t in _first_panel_nodes(-1.25, 1.0) if math.exp(-20 * t) < DENSITY_FLOOR)
    with pytest.raises(PathSingularityError) as exc:
        B.value(jets.point(1.0, 1.25))
    assert str(exc.value) == f"density vanishes on the segment along u1 near {jets.point(t, 1.25)}"

    # both checks fail at every node: the velocity check comes first
    close = DiagonalSystem((field("u1", 2), field("u1 + 1e-10*u2", 2)))
    B = current_from_density(close, field("1e-7 + 0*u1", 2), jets.point(0.5, 1.0))
    t = _first_panel_nodes(0.5, 1.5)[0]
    with pytest.raises(PathSingularityError) as exc:
        B.value(jets.point(1.5, 1.0))
    assert str(exc.value) == f"characteristic velocities coincide on the segment along u1 near {jets.point(t, 1.0)}"

    # a domain error part way along the leg surfaces from the first node outside the domain
    B = current_from_density(sys2, field("ln(u1 + 1.5) + 0*u2", 2), jets.point(-1.25, 1.25))
    t = next(t for t in _first_panel_nodes(-1.25, -1.6) if t + 1.5 <= 0.0)
    with pytest.raises(EvalError) as exc:
        B.value(jets.point(-1.6, 1.25))
    assert str(exc.value) == f"ln of non-positive value {t + 1.5} in 'ln(u1 + 1.5)'"


def test_current_quadrature_leaves_the_density_memo_empty(sys2):
    A = field("exp(u1)/(u2-u1)", 2)
    B = current_from_density(sys2, A, jets.point(-1.25, 1.25))
    for p in banded_points(DIM2_BANDS, 5, seed=6):
        B.value(p)
    B.value(jets.point(-0.2, 0.3))  # a long leg near the diagonal refines to more panels
    assert len(A._memo) == 0


def test_current_of_a_transformed_system(sys2, recip_density):
    # 1/A is a density of the transformed system, with current -B/A
    base = jets.point(-1.25, 1.25)
    result = transform(sys2, ConservationDensity(recip_density), base)
    inverse = current_from_density(result.system, 1 / recip_density, base)
    for p in banded_points(DIM2_BANDS, 2, seed=7):
        want = -result.current.value(p) / recip_density.value(p)
        assert inverse.value(p) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# the transformation


def test_transform_identity_generator(sys2):
    gen = ConservationDensity(field("1 + 0*u1", 2))
    pts = _points2()
    res = transform(sys2, gen, jets.point(-1.25, 1.25), points=pts)
    for p in pts:
        for i, j in ((0, 1), (1, 0)):
            assert res.natural.off(i, j, p, 0).value == pytest.approx(
                natural_connection(sys2).off(i, j, p, 0).value, abs=1e-14
            )
        # velocities shift by at most the (zero) current constant
        for i in (0, 1):
            assert res.system.velocities[i].value(p) == pytest.approx(
                sys2.velocities[i].value(p), abs=1e-12
            )


def test_transform_main_two_component_example(sys2, recip_density):
    gen = ConservationDensity(recip_density)
    pts = banded_points(DIM2_BANDS, 8, seed=6)
    res = transform(sys2, gen, jets.point(-1.25, 1.25), with_dual=True, points=pts)
    # the image off-diagonal symbols vanish identically for this generator
    for p in pts:
        assert res.natural.off(0, 1, p, 0).value == pytest.approx(0.0, abs=1e-13)
    # velocities at (2,1) with the closed-form current normalization
    closed_B = field("u2/(u1-u2)", 2)
    res2 = transform(sys2, gen, jets.point(2.5, 0.6), points=pts, check_generator=False)
    p = jets.point(2.0, 1.0)
    shift = closed_B.value(jets.point(2.5, 0.6))
    assert res2.system.velocities[0].value(p) - shift == pytest.approx(0.0, abs=1e-9)
    assert res2.system.velocities[1].value(p) - shift == pytest.approx(1.0, abs=1e-9)


def test_transform_christoffel_shift_lemma(sys2):
    # symbols recomputed from the transformed velocities equal the shift law
    A = field("exp(u1)/(u2-u1)", 2)
    gen = ConservationDensity(A)
    pts = banded_points(DIM2_BANDS, 6, seed=8)
    res = transform(sys2, gen, jets.point(-1.25, 1.25), points=pts)
    from recipfm.geometry import christoffel_primary

    for p in pts:
        for i, j in ((0, 1), (1, 0)):
            law = res.natural.off(i, j, p, 0).value
            recomputed = christoffel_primary(res.system, i, j, p, 0).value
            assert recomputed == pytest.approx(law, abs=1e-12)


def test_transformed_system_stays_semi_hamiltonian():
    from recipfm.geometry import sh_residual

    sys3 = epsilon_system(3, 1.0)
    e = entry("dim3-eps1-h1:c0")
    A = e.density_field()
    bands = ((-2.0, -1.4), (-1.0, -0.5), (0.5, 1.2))
    pts = banded_points(bands, 6, seed=10, predicates=e.sample_predicates())
    res = transform(sys3, ConservationDensity(A), jets.point(-1.7, -0.75, 0.85), points=pts)
    rep = sh_residual(res.system, pts)
    assert rep.passed, rep.max_abs


def test_transform_rejects_non_density(sys2):
    bad = ConservationDensity(field("u1*u2", 2))
    with pytest.raises(InadmissibleGeneratorError):
        transform(sys2, bad, jets.point(-1.25, 1.25), points=_points2(seed=12))


def test_transform_flatness_failure_converse(sys2):
    for src in ("u1*u2", "exp(u1*u2)"):
        A = field(src, 2)
        pts = _points2(A, seed=14)
        _, rep = grading_residual(A, "e", pts)
        assert not rep.passed
        res = transform(sys2, ConservationDensity(A), jets.point(-1.25, 1.25), check_generator=False)
        curv = curvature_natural_residual(res.natural, pts)
        assert curv.max_abs > 1e-3


def test_intrinsic_assembly_agreement(sys2, recip_density):
    gen = ConservationDensity(recip_density)
    pts = _points2(recip_density, seed=15, count=5)
    res = transform(sys2, gen, jets.point(-1.25, 1.25), with_dual=True, points=pts)
    rep = intrinsic_agreement_report(sys2, recip_density, res, pts)
    assert rep.passed and rep.max_abs <= 1e-12
    with pytest.raises(ReciprocalError):
        intrinsic_transformed_gamma(natural_connection(sys2), recip_density, "bad", 0, 0, 0, pts[0])


# ---------------------------------------------------------------------------
# bi-flat admissibility and orbits


def test_biflat_verdicts(sys2):
    good = field("1/(u2-u1)", 2)
    v = biflat_admissibility(sys2, good, _points2(good, seed=16))
    assert v.passed and abs(v.h) <= 1e-10 and v.k == pytest.approx(-1.0, abs=1e-10)
    graded = field("exp(u1)/(u2-u1)", 2)
    v2 = biflat_admissibility(sys2, graded, _points2(graded, seed=17))
    assert not v2.passed and v2.h == pytest.approx(1.0, abs=1e-10)
    lin = field("u1+u2+u3", 3)
    v3 = biflat_admissibility(
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
        jets.point(-1.25, 1.25),
    )
    assert rep.passed


def test_orbit_log_additivity(sys2, recip_density):
    pts = banded_points(DIM2_BANDS, 8, seed=20)
    rep, gradings = orbit_compose(
        sys2,
        ConservationDensity(recip_density),
        ConservationDensity(field("exp(u1)", 2)),
        pts,
        jets.point(-1.25, 1.25),
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
    rep, _ = orbit_compose(sys2, gen0, gen1, pts, jets.point(-1.25, 1.25))
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
    assert frame_connection(frame) is table
    for p in pts:
        for i, j in ((0, 1), (1, 0)):
            assert off(i, j, p, 0).value == pytest.approx(
                christoffel_primary(sys2, i, j, p, 0).value, abs=1e-12
            )
            assert table.off(i, j, p, 0).value == pytest.approx(christoffel_primary(sys2, i, j, p, 0).value, abs=1e-12)


def test_frame_table_holds_generators_only():
    table = frame_connection(epsilon_frame_n2(1.0))
    pts = sample_points(2, 2, seed=22)
    assert table.generators(pts, 0)[0, 1].tolist() == table.off(0, 1, pts, 0).coeffs.tolist()
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
            expected = old_off(i, j, p, 0).value - log_derivative_field(A, j).value(p)
            assert new_off(i, j, p, 0).value == pytest.approx(expected, abs=1e-10)


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
    biflat_admissibility(sys2, A, pts)
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
    p = jets.point(1.0, 2.0)
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
    p = point_set(jets.point(0.5, 1.5, -1.0))
    for j in range(3):
        log_derivative_field(A, j).jet(p, 1)
    assert sorted(orders) == [1, 2]  # d_j A needs order 2, the quotient order 1
