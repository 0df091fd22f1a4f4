import gc
import math

import pytest

from conftest import fd_partial
from recipfm import geometry, jets
from recipfm.catalog import epsilon_system
from recipfm.exprlang import field, parse_field
from recipfm.jets import point_set
from recipfm.geometry import (
    ConnectionTable,
    DegenerateSystemError,
    DiagonalSystem,
    GeometryError,
    ResidualReport,
    SamplingError,
    banded_points,
    christoffel_primary,
    curvature_full_residual,
    curvature_natural_residual,
    curvature_oracle,
    dual_connection,
    identity_parallel_residual,
    natural_connection,
    sample_points,
    sh_residual,
)

P21 = jets.point(2.0, 1.0)


def test_christoffel_epsilon_system():
    sys2 = epsilon_system(2, 1.0)
    assert christoffel_primary(sys2, 0, 1, P21, 0).value == pytest.approx(1.0)


def test_christoffel_decoupled_system_vanishes():
    sys2 = DiagonalSystem((field("u1", 2), field("u2", 2)))
    assert christoffel_primary(sys2, 0, 1, P21, 1).value == pytest.approx(0.0)


def test_christoffel_coincident_velocities():
    sys2 = DiagonalSystem((field("u1", 2), field("u1", 2)))
    with pytest.raises(DegenerateSystemError):
        christoffel_primary(sys2, 0, 1, P21, 0)


def test_christoffel_against_finite_differences():
    v_src = ("u1 + 0.3*u1*u2", "u2 - 0.2*u1*u1")
    sys2 = DiagonalSystem(tuple(field(s, 2) for s in v_src))
    exprs = [parse_field(s, 2) for s in v_src]
    for p in sample_points(2, 8, seed=17):
        vals = [v.value(p) for v in sys2.velocities]
        if abs(vals[0] - vals[1]) < 0.05:
            continue
        for i, j in ((0, 1), (1, 0)):
            dv = fd_partial(exprs[i], tuple(p), (0, 1) if j == 1 else (1, 0))
            want = dv / (vals[j] - vals[i])
            got = christoffel_primary(sys2, i, j, p, 0).value
            assert got == pytest.approx(want, abs=1e-6)


def test_natural_assembly_identities():
    sys2 = epsilon_system(2, 1.0)
    g = natural_connection(sys2).christoffels(P21, 0)[..., 0, 0]  # g[i, j, k] = G^i_jk at (2, 1)
    # G^1_12 = 1, hence G^1_22 = -1 and G^1_11 = -1 at (2,1)
    assert g[0, 1, 1] == pytest.approx(-1.0)
    assert g[0, 0, 0] == pytest.approx(-1.0)
    # row sums over the last index vanish, including the diagonal
    sys3 = epsilon_system(3, -1.0)
    g3 = natural_connection(sys3).christoffels(sample_points(3, 5, seed=1), 0)[..., 0, :]
    for i in range(3):
        assert g3[i, i].sum(axis=0) == pytest.approx(0.0, abs=1e-13)
    # distinct triples vanish structurally
    assert (g3[0, 1, 2] == 0.0).all()


def test_gamma_lower_symmetry():
    g = natural_connection(epsilon_system(3, 0.5)).christoffels(sample_points(3, 1, seed=3), 0)
    assert g == pytest.approx(g.transpose(0, 2, 1, 3, 4), abs=1e-14)


def test_sh_epsilon_system_passes():
    sys3 = epsilon_system(3, 1.0)
    rep = sh_residual(sys3, sample_points(3, 20, seed=42))
    assert rep.passed and rep.max_abs <= 1e-10


def test_sh_vacuous_for_two_components():
    rep = sh_residual(epsilon_system(2, 1.0), sample_points(2, 5, seed=8))
    assert rep.passed and rep.entries == ()


def test_sh_negative_control():
    sys3 = DiagonalSystem((field("u2*u3", 3), field("u1", 3), field("u1+u2", 3)))
    rep = sh_residual(sys3, [jets.point(1.0, 2.0, 3.0)])
    assert not rep.passed and rep.max_abs > 1e-3


def test_curvature_epsilon_system_flat():
    for n in (2, 3):
        sys = epsilon_system(n, 1.0)
        rep = curvature_natural_residual(natural_connection(sys), sample_points(n, 15, seed=5), 1e-9)
        assert rep.passed, rep.max_abs


def test_curvature_zero_for_constant_velocities():
    sys2 = DiagonalSystem((field("1 + 0*u1", 2), field("3 + 0*u1", 2)))
    rep = curvature_natural_residual(natural_connection(sys2), sample_points(2, 5, seed=6))
    assert rep.max_abs == 0.0


def test_curvature_oracle_antisymmetry_and_agreement():
    sys3 = epsilon_system(3, -1.0)
    nat = natural_connection(sys3)
    pts = sample_points(3, 10, seed=11)
    for p in pts:
        R = curvature_oracle(nat, p)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert R[i, j, k, k] == pytest.approx(0.0, abs=1e-14)
    # specialized components agree with the oracle at matching indices
    rep = curvature_natural_residual(nat, pts)
    by_key = {(p, idx): val for p, idx, val in rep.entries}
    for p in pts:
        R = curvature_oracle(nat, p)
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert by_key[(p, ("iki", i, k))] == pytest.approx(R[i, i, k, i], abs=1e-10)
                    assert by_key[(p, ("qqi", i, k))] == pytest.approx(R[i, k, k, i], abs=1e-10)


def test_curvature_natural_rejects_dual_tables():
    dual = dual_connection(epsilon_system(2, 1.0))
    with pytest.raises(GeometryError):
        curvature_natural_residual(dual, sample_points(2, 2, seed=1))


def test_dual_connection_components():
    dual = dual_connection(epsilon_system(2, 1.0))
    assert dual.christoffels(P21, 0)[0, 1, 1, 0, 0] == pytest.approx(-2.0)
    # off-diagonal symbols agree with the natural ones
    nat = natural_connection(epsilon_system(2, 1.0))
    for p in sample_points(2, 5, seed=9):
        assert dual.off(0, 1, p, 0).value == pytest.approx(nat.off(0, 1, p, 0).value)


def test_dual_flatness_and_euler_parallelism():
    for n, eps in ((2, 1.0), (3, -1.0), (4, 0.5)):
        dual = dual_connection(epsilon_system(n, eps))
        pts = sample_points(n, 10, seed=n)
        assert curvature_full_residual(dual, pts, 1e-9).passed
        assert identity_parallel_residual(dual, "E", pts, 1e-12).passed


def test_unit_parallelism_natural():
    nat = natural_connection(epsilon_system(3, 1.0))
    rep = identity_parallel_residual(nat, "e", sample_points(3, 10, seed=4), 1e-12)
    assert rep.passed


def test_identity_parallel_pairing_rejected():
    sys2 = epsilon_system(2, 1.0)
    pts = sample_points(2, 2, seed=2)
    with pytest.raises(GeometryError):
        identity_parallel_residual(natural_connection(sys2), "E", pts)
    with pytest.raises(GeometryError):
        identity_parallel_residual(dual_connection(sys2), "e", pts)
    with pytest.raises(GeometryError):
        identity_parallel_residual(natural_connection(sys2), "x", pts)
    with pytest.raises(GeometryError):
        curvature_natural_residual(dual_connection(sys2), pts)


def test_pairing_follows_the_assembly_not_the_kind():
    sys2 = epsilon_system(2, 1.0)
    pts = sample_points(2, 2, seed=2)
    off = lambda i, j, p, order: christoffel_primary(sys2, i, j, p, order)
    natural = ConnectionTable(2, "some-label", off_diagonal=off, assembly="natural")
    assert curvature_natural_residual(natural, pts).passed
    assert identity_parallel_residual(natural, "e", pts).passed
    dual = ConnectionTable(2, "natural", off_diagonal=off, assembly="dual")
    assert identity_parallel_residual(dual, "E", pts).passed
    with pytest.raises(GeometryError):
        curvature_natural_residual(dual, pts)


def test_connection_table_needs_assembly_or_components():
    with pytest.raises(GeometryError):
        ConnectionTable(2, "custom")


def test_sample_points_constraints_and_determinism():
    a = sample_points(3, 25, seed=123)
    b = sample_points(3, 25, seed=123)
    assert list(a) == list(b)
    for p in a:
        assert all(0.5 <= abs(c) <= 2.0 for c in p)
        gaps = [abs(x - y) for i, x in enumerate(p) for y in tuple(p)[i + 1 :]]
        assert min(gaps) >= 0.25
    c = sample_points(3, 25, seed=124)
    assert list(a) != list(c)


@pytest.mark.parametrize("n", range(8, 17))
def test_sample_points_for_large_dimensions(n):
    # the box widens to [-n/2, -0.5] U [0.5, n/2] so n coordinates fit at the pairwise gap
    for seed in range(3):
        pts = sample_points(n, 3, seed=seed)
        for p in pts:
            assert all(0.5 <= abs(c) <= n / 2 for c in p)
            assert min(abs(x - y) for i, x in enumerate(p) for y in tuple(p)[i + 1 :]) >= 0.25


def test_sample_points_below_eight_keep_their_draws():
    (p,) = sample_points(5, 1, seed=2012)
    assert p.coords == (0.873621366919203, 1.5714211137152132, 1.3158859782752086, -0.715157105838534, -1.9030737410796938)


def test_natural_connection_is_one_table_per_system(monkeypatch):
    sys3 = epsilon_system(3, 1.0)
    assert natural_connection(sys3) is natural_connection(sys3)
    calls = []
    real = geometry.christoffel_primary
    monkeypatch.setattr(geometry, "christoffel_primary", lambda *args: calls.append(args[1:]) or real(*args))
    pts = sample_points(3, 3, seed=5)
    curvature_natural_residual(natural_connection(sys3), pts)
    identity_parallel_residual(natural_connection(sys3), "e", pts)
    assert len(calls) == len(set(calls)) == 6 * 2  # every (i, j, point set, order) once
    # the dual table reads the same generators from the natural table's cache
    dual = dual_connection(sys3)
    curvature_full_residual(dual, pts)
    identity_parallel_residual(dual, "E", pts)
    sh_residual(sys3, pts)
    assert len(calls) == 6 * 2


def test_sample_points_exhaustion():
    with pytest.raises(SamplingError):
        sample_points(2, 1, seed=0, predicates=(lambda p: False,), max_rejections=50)


def test_banded_points_stay_in_bands():
    bands = ((-1.8, -0.7), (0.7, 1.8))
    pts = banded_points(bands, 10, seed=77)
    for p in pts:
        for (lo, hi), c in zip(bands, p):
            assert lo <= c <= hi


def test_residual_report_worst():
    rep = sh_residual(epsilon_system(3, 1.0), sample_points(3, 3, seed=10))
    worst = rep.worst()
    assert worst is not None and abs(worst[2]) == rep.max_abs
    vac = sh_residual(epsilon_system(2, 1.0), sample_points(2, 3, seed=10))
    assert vac.worst() is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_residual_report_fails_on_any_non_finite_entry(bad):
    p = jets.point(0.7, -1.3)
    for values in ([1e-12, bad], [bad, 1e-12], [1e-12, bad, 1e-12]):
        entries = [(p, (i,), v) for i, v in enumerate(values)]
        rep = ResidualReport.build("non-finite", entries, 1e-8)
        assert not rep.passed, values
        assert math.isnan(rep.max_abs) if math.isnan(bad) else rep.max_abs == math.inf
        assert rep.worst()[2] is bad
        assert not ResidualReport.build("loose", entries, math.inf).passed


def test_caches_die_with_their_point_sets():
    # one long-lived system evaluated over many short-lived point sets keeps
    # nothing; the collector stays off, so no entry may wait for a cycle
    sys3 = epsilon_system(3, 1.0)
    natural = natural_connection(sys3)
    gc.disable()
    try:
        for p in sample_points(3, 2000, seed=31):
            curvature_natural_residual(natural, point_set(p))
        assert [len(v._memo) for v in sys3.velocities] == [0, 0, 0]
        assert len(natural._cache) == 0
    finally:
        gc.enable()
    # while a set is held, every family shares what was computed over it
    pts = sample_points(3, 4, seed=32)
    curvature_natural_residual(natural, pts)
    sh_residual(sys3, pts)
    assert list(natural._cache) == [pts] and set(natural._cache[pts]) == {0, 1, ("natural", 0), ("natural", 1)}
