import gc
import math
import weakref

import numpy as np
import pytest

from conftest import fd_partial, same_bits
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

P21 = jets.Point((2.0, 1.0))


def test_diagonal_system_rejects_one_component_and_foreign_fields():
    with pytest.raises(GeometryError, match="at least 2 components"):
        DiagonalSystem((field("u1", 2),))
    with pytest.raises(GeometryError, match="must all live on 2 coordinates"):
        DiagonalSystem((field("u1", 3), field("u2", 3)))
    with pytest.raises(GeometryError, match="must all live on 2 coordinates"):
        DiagonalSystem((field("u1", 2), field("u2", 3)))


def test_christoffel_epsilon_system():
    sys2 = epsilon_system(2, 1.0)
    assert christoffel_primary(sys2, P21, 0)[0, 1, 0] == pytest.approx(1.0)


def test_christoffel_decoupled_system_vanishes():
    sys2 = DiagonalSystem((field("u1", 2), field("u2", 2)))
    assert christoffel_primary(sys2, P21, 1)[0, 1, 0] == pytest.approx(0.0)


def test_christoffel_coincident_velocities():
    sys2 = DiagonalSystem((field("u1", 2), field("u1", 2)))
    with pytest.raises(DegenerateSystemError):
        christoffel_primary(sys2, P21, 0)


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
            got = christoffel_primary(sys2, p, 0)[i, j, 0]
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
    rep = sh_residual(sys3, [jets.Point((1.0, 2.0, 3.0))])
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
        assert dual.generators(p, 0)[0, 1] == pytest.approx(nat.generators(p, 0)[0, 1])


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
    generate = lambda p, order: christoffel_primary(sys2, p, order)
    natural = ConnectionTable(2, "some-label", generate=generate, assembly="natural")
    assert curvature_natural_residual(natural, pts).passed
    assert identity_parallel_residual(natural, "e", pts).passed
    dual = ConnectionTable(2, "natural", generate=generate, assembly="dual")
    assert identity_parallel_residual(dual, "E", pts).passed
    with pytest.raises(GeometryError):
        curvature_natural_residual(dual, pts)


def test_connection_table_needs_assembly_or_components():
    with pytest.raises(GeometryError, match="unknown assembly rule 'custom'"):
        ConnectionTable(2, "natural", lambda points, order: None, "custom")


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
    """Each call builds a table, but every table of one system shares the
    memo a point set holds for the system's generator."""
    sys3 = epsilon_system(3, 1.0)
    calls = []
    real = geometry.christoffel_primary
    monkeypatch.setattr(geometry, "christoffel_primary", lambda *args: calls.append(args[1:]) or real(*args))
    pts = sample_points(3, 3, seed=5)
    curvature_natural_residual(natural_connection(sys3), pts)
    identity_parallel_residual(natural_connection(sys3), "e", pts)
    # one array per (point set, order): curvature asks order 1 first, and
    # order 0 is read off it
    assert calls == [(pts, 1)]
    # the dual table reads the same generators from the set's memo
    dual = dual_connection(sys3)
    curvature_full_residual(dual, pts)
    identity_parallel_residual(dual, "E", pts)
    sh_residual(sys3, pts)
    assert len(calls) == 1


def count_stack_builds(monkeypatch, system) -> list:
    """The orders at which the system's velocity stack is built (memo misses
    that compute), in call order, from now until the test ends."""
    builds, real = [], jets.memoized

    def memoized(points, owner, key, compute):
        if owner is system.stack:
            return real(points, owner, key, lambda: builds.append(key) or compute())
        return real(points, owner, key, compute)

    monkeypatch.setattr(jets, "memoized", memoized)
    return builds


def flatness_reports(system, pts):
    natural, dual = natural_connection(system), dual_connection(system)
    return (
        curvature_natural_residual(natural, pts),
        curvature_full_residual(dual, pts),
        identity_parallel_residual(natural, "e", pts),
        identity_parallel_residual(dual, "E", pts),
        sh_residual(system, pts),
    )


def test_flatness_verdict_evaluates_each_symbol_and_velocity_once(monkeypatch):
    """The five flatness families over one set of an n = 4 eps-system build the
    generators once, at order 1, from one velocity stack built once, at order 2:
    every lower order is read off the higher one already computed, and no
    velocity field is evaluated on its own."""
    sys4 = epsilon_system(4, 1.0)
    calls, fields = [], []
    real = geometry.christoffel_primary
    monkeypatch.setattr(geometry, "christoffel_primary", lambda *args: calls.append(args[2]) or real(*args))
    builds = count_stack_builds(monkeypatch, sys4)
    for v in sys4.velocities:
        monkeypatch.setattr(v, "_fn", lambda p, order, fn=v._fn: fields.append(order) or fn(p, order))
    assert all(rep.passed for rep in flatness_reports(sys4, sample_points(4, 4, seed=12)))
    assert calls == [1]
    assert builds == [2]
    assert fields == []


def test_flatness_verdict_makes_no_per_coordinate_jet_call(monkeypatch):
    """One n = 6 flatness verdict, the five families over one set, reads every
    partial of the velocities at once off one stack built once, and every
    coordinate lift off one array: the tables make no per-coordinate
    derivative, constant or lift."""
    counts = dict.fromkeys(("stacked", "derivative", "constant"), 0)

    def counting(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in counts:
        monkeypatch.setattr(jets, name, counting(name, getattr(jets, name)))
    lifts = []
    real_lift = jets.PointSet.lift
    monkeypatch.setattr(jets.PointSet, "lift", lambda points, *args: lifts.append(args) or real_lift(points, *args))
    sys6 = epsilon_system(6, 1.0)
    builds = count_stack_builds(monkeypatch, sys6)
    lift_builds, real_memoized = [], jets.memoized

    def memoized(points, owner, key, compute):
        if owner is jets.variable:  # the owner of the coordinate lifts
            return real_memoized(points, owner, key, lambda: lift_builds.append(key) or compute())
        return real_memoized(points, owner, key, compute)

    monkeypatch.setattr(jets, "memoized", memoized)
    assert all(rep.passed for rep in flatness_reports(sys6, sample_points(6, 4, seed=5)))
    # the symbols' and the dual assembly's quotients and the dual's product;
    # the one constant is the shift's eps in the velocities' closed form
    assert counts == {"stacked": 3, "derivative": 0, "constant": 1}
    assert builds == [2] and lifts == []
    assert lift_builds == [2]  # the velocities' lifts; the dual assembly reads order 1 off them


EPS_VALUES = (1.0, -1.0, 0.5, 0.0, -0.0, 1e-300, -3.7e5, math.inf, -math.inf)


@pytest.mark.parametrize("n", range(2, 17))
def test_eps_system_velocity_jets_are_its_fields_and_its_parsed_source_bit_for_bit(n):
    """The eps-system's one array is, at every order and NaN positions included,
    the stack of its fields' jets and of u<i> - eps*(u1+...+un) compiled from
    source, each over a fresh set so that nothing is read off another."""
    total = "+".join(f"u{k}" for k in range(1, n + 1))
    for coords in (sample_points(n, 3, seed=n).coords, sample_points(n, 1, seed=n).coords):
        for eps in EPS_VALUES:
            system = epsilon_system(n, eps)
            parsed = [field(f"u{i} - eps*({total})", n, {"eps": eps}) for i in range(1, n + 1)]
            for order in range(4):
                got = system.velocity_jets(jets.PointSet(coords), order)
                for fields in (system.velocities, parsed):
                    pts = jets.PointSet(coords)
                    want = jets.stack([v.jet(pts, order) for v in fields], len(pts))
                    assert same_bits(got, want), (eps, order)


def _systems_by_fields():
    """A system given by sources, as --velocity builds it, with a constant
    velocity (one column), and its image under a transformation."""
    from recipfm.reciprocal import ConservationDensity, transform

    given = DiagonalSystem((field("u1*u2 - 3", 3), field("exp(u2/4)", 3), field("2.5", 3)))
    A = field("1 + u1/7", 3)
    image = transform(given, ConservationDensity(A), jets.Point((0.6, 0.9, 1.4)), check_generator=False).system
    coords = banded_points(((0.5, 0.7), (0.8, 1.0), (1.3, 1.5)), 3, seed=3).coords
    return (given, coords), (image, coords)


def test_field_systems_velocity_jets_are_their_fields_bit_for_bit():
    for system, coords in _systems_by_fields():
        for order in range(4):
            got = system.velocity_jets(jets.PointSet(coords), order)
            pts = jets.PointSet(coords)
            assert same_bits(got, jets.stack([v.jet(pts, order) for v in system.velocities], len(pts))), order
            assert got.shape == (3, len(jets.multi_indices(3, order)), 3) and not got.flags.writeable


def test_velocity_stack_is_built_once_per_set_and_order(monkeypatch):
    """A lower order is read off a finite higher one held for the set, as its
    leading rows; off a non-finite one it is built on its own."""
    cases = [(epsilon_system(3, 0.5), sample_points(3, 4, seed=8).coords)]
    cases += [(system, coords) for system, coords in _systems_by_fields()]
    for system, coords in cases:
        builds = count_stack_builds(monkeypatch, system)
        pts = jets.PointSet(coords)
        top = system.velocity_jets(pts, 2)
        for order in (1, 0, 2, 1):
            assert same_bits(system.velocity_jets(pts, order), top[:, : len(jets.multi_indices(3, order))])
        assert builds == [2]
        monkeypatch.undo()
    inf = epsilon_system(3, math.inf)  # inf * 0 in every derivative row: NaN at order >= 1
    builds = count_stack_builds(monkeypatch, inf)
    pts = jets.PointSet(sample_points(3, 2, seed=8).coords)
    assert np.isnan(inf.velocity_jets(pts, 2)).any()
    inf.velocity_jets(pts, 1)
    inf.velocity_jets(pts, 0)
    assert builds == [2, 1, 0]


def test_eps_system_velocities_read_rows_of_its_stack():
    system = epsilon_system(4, -1.0)
    pts = sample_points(4, 3, seed=9)
    stack = system.velocity_jets(pts, 2)
    for i, v in enumerate(system.velocities):
        row = v.jet(pts, 2).coeffs
        assert np.shares_memory(row, stack) and same_bits(row, stack[i])
    with pytest.raises(ValueError, match="field on 4 coordinates evaluated at points with 3"):
        system.velocity_jets(sample_points(3, 2, seed=9), 0)


def test_memoized_tables_are_read_only():
    natural = natural_connection(epsilon_system(3, 1.0))
    pts = sample_points(3, 2, seed=13)
    for table in (natural.christoffels(pts, 1), natural.christoffels(pts, 0), natural.generators(pts, 0)):
        with pytest.raises(ValueError, match="read-only"):
            table[..., 0, 0] = 1.0


def test_sample_points_exhaustion():
    with pytest.raises(SamplingError):
        sample_points(2, 1, seed=0, predicates=(lambda p: False,))


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
    p = jets.Point((0.7, -1.3))
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
        alive = []
        for p in sample_points(3, 2000, seed=31):
            pts = point_set(p)
            curvature_natural_residual(natural, pts)
            alive += [weakref.ref(pts), weakref.ref(natural.christoffels(pts, 1))]
        del pts
        assert not any(ref() is not None for ref in alive)
    finally:
        gc.enable()
    # while a set is held, every family shares what was computed over it
    pts = sample_points(3, 4, seed=32)
    curvature_natural_residual(natural, pts)
    sh_residual(sys3, pts)
    # the order-0 table is read off the order-1 one, so no order-0 generators are made
    assert set(pts._memo[sys3._christoffel_primary]) == {1, ("natural", 0), ("natural", 1)}
