import pytest

from recipfm import jets
from recipfm.catalog import (
    CatalogEntry,
    catalog_entries,
    entry,
    epsilon_frame_n2,
    epsilon_system,
    hypergeom_flat_coordinates,
)
from recipfm.exprlang import field
from recipfm.geometry import banded_points, sample_points
from recipfm.reciprocal import a_system_residual, density_residual, grading_residual


def test_epsilon_system_velocities():
    sys2 = epsilon_system(2, 1.0)
    values = lambda sys, p: [v.value(p) for v in sys.velocities]
    assert values(sys2, jets.point(2.0, 1.0)) == pytest.approx((-1.0, -2.0))
    decoupled = epsilon_system(2, 0.0)
    p = jets.point(1.3, -0.8)
    assert values(decoupled, p) == pytest.approx((1.3, -0.8))
    sys3 = epsilon_system(3, 1.0)
    assert values(sys3, jets.point(0.0, 1.0, 3.0)) == pytest.approx((-4.0, -3.0, -1.0))
    with pytest.raises(ValueError):
        epsilon_system(1, 1.0)


def test_catalog_has_all_families_and_lookup_works():
    entries = catalog_entries()
    families = {e.family for e in entries}
    assert {
        "dim2-eps1-h1",
        "dim2-eps1-hm05",
        "dim2-eps1-h0",
        "dim2-eps-1-h1",
        "dim2-eps-1-hm05",
        "dim2-eps-1-h0",
        "dim3-eps1-h1",
        "dim3-eps1-hm05",
        "dim3-eps1-h0",
        "dim3-eps-1-h1",
        "dim3-eps-1-hm05",
        "dim3-eps-1-h0",
        "dim3-eps1-flatcoord",
        "dim3-eps-1-flatcoord",
    } <= families
    assert len(entries) >= 10
    e = entry("dim2-eps1-h0")
    assert isinstance(e, CatalogEntry) and e.dim == 2 and e.h == 0.0
    with pytest.raises(KeyError):
        entry("no-such-entry")
    # ids are unique
    ids = [e.entry_id for e in entries]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("e", catalog_entries(), ids=lambda e: e.entry_id)
def test_every_entry_is_an_admissible_density(e):
    sys = epsilon_system(e.dim, e.eps)
    A = e.density_field()
    pts = sample_points(e.dim, 20, seed=42, predicates=e.sample_predicates())
    assert density_residual(sys, A, pts).max_abs <= 1e-8
    assert a_system_residual(sys, A, pts).max_abs <= 1e-8
    h_est, h_rep = grading_residual(A, "e", pts)
    assert h_rep.passed and h_est == pytest.approx(e.h, abs=1e-8)
    if e.k is not None:
        k_est, k_rep = grading_residual(A, "E", pts)
        assert k_rep.passed and k_est == pytest.approx(e.k, abs=1e-8)


@pytest.mark.parametrize(
    "e",
    [e for e in catalog_entries() if e.current_src is not None],
    ids=lambda e: e.entry_id,
)
def test_paper_current_solves_the_current_equations(e):
    # the closed-form current satisfies d_i B = v^i d_i A pointwise (jet route)
    sys = epsilon_system(e.dim, e.eps)
    A = e.density_field()
    B = e.current_field()
    pts = sample_points(e.dim, 15, seed=31, predicates=e.sample_predicates())
    for p in pts:
        vals = [v.value(p) for v in sys.velocities]
        gA = A.gradient(p)
        gB = B.gradient(p)
        for i in range(e.dim):
            assert gB[i] == pytest.approx(vals[i] * gA[i], abs=1e-8), (e.entry_id, i)


def test_flat_coordinate_pair_parameter_exclusions():
    A1, A2 = hypergeom_flat_coordinates(1.0)
    assert A1 is not None and A2 is None
    B1, B2 = hypergeom_flat_coordinates(-1.0)
    assert B1 is None and B2 is not None
    C1, C2 = hypergeom_flat_coordinates(0.7)
    assert C1 is not None and C2 is not None
    with pytest.raises(ValueError):
        hypergeom_flat_coordinates(1.0 / 3.0)


def test_flat_coordinate_elementary_reduction():
    A1, _ = hypergeom_flat_coordinates(1.0)
    elementary = field("1/((u2-u1)*(u2-u3))", 3)
    e = entry("dim3-eps1-flatcoord")
    pts = sample_points(3, 20, seed=33, predicates=e.sample_predicates())
    for p in pts:
        assert A1.value(p) == pytest.approx(elementary.value(p), abs=1e-10)
    # the elementary form extends beyond the series disk
    assert elementary.value(jets.point(0.0, 1.0, 3.0)) == pytest.approx(-0.5)


def test_flat_coordinate_gradings_generic_eps():
    bands = ((-2.0, -1.3), (0.5, 2.0), (-0.9, -0.4))
    for eps in (1.0, -1.0, 0.7):
        A1, A2 = hypergeom_flat_coordinates(eps)
        pts = banded_points(bands, 12, seed=35)
        for A in (A1, A2):
            if A is None:
                continue
            h, h_rep = grading_residual(A, "e", pts)
            k, k_rep = grading_residual(A, "E", pts)
            assert h_rep.passed and abs(h) <= 1e-9
            assert k_rep.passed and k == pytest.approx(1.0 - 3.0 * eps, abs=1e-8)


def test_flat_coordinates_are_densities_for_their_systems():
    bands = ((-2.0, -1.3), (0.5, 2.0), (-0.9, -0.4))
    pts = banded_points(bands, 12, seed=36)
    for eps in (1.0, -1.0, 0.7):
        sys3 = epsilon_system(3, eps)
        for A in hypergeom_flat_coordinates(eps):
            if A is not None:
                assert density_residual(sys3, A, pts).max_abs <= 1e-8


def test_builtin_frame_requires_unit_eps():
    with pytest.raises(ValueError):
        epsilon_frame_n2(0.5)
    frame = epsilon_frame_n2(-1.0)
    assert frame.degree == -1.0
