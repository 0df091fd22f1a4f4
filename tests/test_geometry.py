import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from conftest import fd_partial, field_of, same_bits, velocity_values
from recipfm import exprlang, geometry, jets, reciprocal
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
        DiagonalSystem.of_fields((field("u1", 2),))
    with pytest.raises(GeometryError, match="must all live on 2 coordinates"):
        DiagonalSystem.of_fields((field("u1", 3), field("u2", 3)))
    with pytest.raises(GeometryError, match="must all live on 2 coordinates"):
        DiagonalSystem.of_fields((field("u1", 2), field("u2", 3)))


def test_christoffel_epsilon_system():
    sys2 = epsilon_system(2, 1.0)
    assert christoffel_primary(sys2, point_set(P21), 0)[0, 1, 0] == pytest.approx(1.0)


def test_christoffel_decoupled_system_vanishes():
    sys2 = DiagonalSystem.of_fields((field("u1", 2), field("u2", 2)))
    assert christoffel_primary(sys2, point_set(P21), 1)[0, 1, 0] == pytest.approx(0.0)


def test_christoffel_coincident_velocities():
    sys2 = DiagonalSystem.of_fields((field("u1", 2), field("u1", 2)))
    with pytest.raises(DegenerateSystemError):
        christoffel_primary(sys2, point_set(P21), 0)


def test_christoffel_against_finite_differences():
    v_src = ("u1 + 0.3*u1*u2", "u2 - 0.2*u1*u1")
    sys2 = DiagonalSystem.of_fields(field(s, 2) for s in v_src)
    exprs = [parse_field(s, 2) for s in v_src]
    for p in sample_points(2, 8, seed=17):
        vals = velocity_values(sys2, p)
        if abs(vals[0] - vals[1]) < 0.05:
            continue
        for i, j in ((0, 1), (1, 0)):
            dv = fd_partial(exprs[i], p.coords, (0, 1) if j == 1 else (1, 0))
            want = dv / (vals[j] - vals[i])
            got = christoffel_primary(sys2, point_set(p), 0)[i, j, 0]
            assert got == pytest.approx(want, abs=1e-6)


def test_natural_assembly_identities():
    sys2 = epsilon_system(2, 1.0)
    g = natural_connection(sys2).christoffels(point_set(P21), 0)[..., 0, 0]  # g[i, j, k] = G^i_jk at (2, 1)
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
    sys3 = DiagonalSystem.of_fields((field("u2*u3", 3), field("u1", 3), field("u1+u2", 3)))
    rep = sh_residual(sys3, point_set([jets.Point((1.0, 2.0, 3.0))]))
    assert not rep.passed and rep.max_abs > 1e-3


def test_curvature_epsilon_system_flat():
    for n in (2, 3):
        sys = epsilon_system(n, 1.0)
        rep = curvature_natural_residual(natural_connection(sys), sample_points(n, 15, seed=5), 1e-9)
        assert rep.passed, rep.max_abs


def test_curvature_zero_for_constant_velocities():
    sys2 = DiagonalSystem.of_fields((field("1 + 0*u1", 2), field("3 + 0*u1", 2)))
    rep = curvature_natural_residual(natural_connection(sys2), sample_points(2, 5, seed=6))
    assert rep.max_abs == 0.0


def test_curvature_oracle_antisymmetry_and_agreement():
    sys3 = epsilon_system(3, -1.0)
    nat = natural_connection(sys3)
    pts = sample_points(3, 10, seed=11)
    for p in pts:
        R = curvature_oracle(nat, point_set(p))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert R[i, j, k, k] == pytest.approx(0.0, abs=1e-14)
    # specialized components agree with the oracle at matching indices
    rep = curvature_natural_residual(nat, pts)
    by_key = {(p, idx): val for p, idx, val in rep.entries}
    for p in pts:
        R = curvature_oracle(nat, point_set(p))
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
    assert dual.christoffels(point_set(P21), 0)[0, 1, 1, 0, 0] == pytest.approx(-2.0)
    # off-diagonal symbols agree with the natural ones
    nat = natural_connection(epsilon_system(2, 1.0))
    for p in sample_points(2, 5, seed=9):
        assert dual.generators(point_set(p), 0)[0, 1] == pytest.approx(nat.generators(point_set(p), 0)[0, 1])


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
    # a table has no name but its assembly: it fixes the table's field, product and report labels
    sys2 = epsilon_system(2, 1.0)
    pts = sample_points(2, 2, seed=2)
    generate = lambda p, order: christoffel_primary(sys2, p, order)
    natural = ConnectionTable(2, generate=generate, assembly="natural")
    dual = natural.dual()
    assert dual.assembly == "dual" and not hasattr(dual, "kind")
    for rep, label in ((curvature_natural_residual(natural, pts), "curvature[natural]"),
                       (identity_parallel_residual(natural, "e", pts), "parallel-e[natural]"),
                       (identity_parallel_residual(dual, "E", pts), "parallel-E[dual]")):
        assert rep.passed and rep.label == label
    assert reciprocal.covariant_hessian_residual(dual, field("1/(u2-u1)", 2), pts).label == "hessian-star"
    assert geometry.PRODUCTS == {"natural": ("circ", "e"), "dual": ("star", "E")}
    with pytest.raises(GeometryError, match="^the dual connection pairs with the field 'E', got 'e'$"):
        identity_parallel_residual(dual, "e", pts)
    with pytest.raises(GeometryError, match="needs a natural-assembly table, got 'dual'$"):
        curvature_natural_residual(dual, pts)


def test_connection_table_needs_assembly_or_components():
    # a table is natural or dual
    for assembly in ("custom", None):
        with pytest.raises(GeometryError, match=f"unknown assembly rule {assembly!r}; use 'natural' or 'dual'$"):
            ConnectionTable(2, lambda points, order: None, assembly)


def test_sample_points_constraints_and_determinism():
    a = sample_points(3, 25, seed=123)
    b = sample_points(3, 25, seed=123)
    assert list(a) == list(b)
    for p in a:
        assert all(0.5 <= abs(c) <= 2.0 for c in p.coords)
        gaps = [abs(x - y) for i, x in enumerate(p.coords) for y in p.coords[i + 1 :]]
        assert min(gaps) >= 0.25
    c = sample_points(3, 25, seed=124)
    assert list(a) != list(c)


@pytest.mark.parametrize("n", range(8, 17))
def test_sample_points_for_large_dimensions(n):
    # the box widens to [-n/2, -0.5] U [0.5, n/2] so n coordinates fit at the pairwise gap
    for seed in range(3):
        pts = sample_points(n, 3, seed=seed)
        for p in pts:
            assert all(0.5 <= abs(c) <= n / 2 for c in p.coords)
            assert min(abs(x - y) for i, x in enumerate(p.coords) for y in p.coords[i + 1 :]) >= 0.25


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
    field is evaluated."""
    sys4 = epsilon_system(4, 1.0)
    calls, fields = [], []
    real = geometry.christoffel_primary
    monkeypatch.setattr(geometry, "christoffel_primary", lambda *args: calls.append(args[2]) or real(*args))
    builds = count_stack_builds(monkeypatch, sys4)
    real_jet = exprlang.ScalarField.jet
    monkeypatch.setattr(exprlang.ScalarField, "jet", lambda v, p, order: fields.append(order) or real_jet(v, p, order))
    assert all(rep.passed for rep in flatness_reports(sys4, sample_points(4, 4, seed=12)))
    assert calls == [1]
    assert builds == [2]
    assert fields == []


def test_flatness_verdict_makes_no_per_coordinate_jet_call(monkeypatch):
    """One n = 6 flatness verdict, the five families over one set, reads every
    partial of the velocities in one gather off one stack built once, and
    every coordinate lift off one array: the tables make no per-coordinate
    constant or lift."""
    counts = dict.fromkeys(("div", "mul", "partials", "constant"), 0)

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
    # the symbols' and the dual assembly's quotients and the dual's product, each one
    # kernel call on stacked arrays; the shift's eps in the velocities' closed form is
    # a scale, no constant jet
    assert counts == {"div": 2, "mul": 1, "partials": 1, "constant": 0}
    assert builds == [2] and lifts == []
    assert lift_builds == [2]  # the velocities' lifts; the dual assembly reads order 1 off them


EPS_VALUES = (1.0, -1.0, 0.5, 0.0, -0.0, 1e-300, -3.7e5, math.inf, -math.inf)


@pytest.mark.parametrize("n", range(2, 17))
def test_eps_system_velocity_jets_are_its_fields_and_its_parsed_source_bit_for_bit(n):
    """The eps-system's one array is, at every order and NaN positions included,
    the stack of its fields' jets: u<i> - eps*(u1+...+un) compiled from source,
    each over a fresh set so that nothing is read off another."""
    total = "+".join(f"u{k}" for k in range(1, n + 1))
    for coords in (sample_points(n, 3, seed=n).coords, sample_points(n, 1, seed=n).coords):
        for eps in EPS_VALUES:
            system = epsilon_system(n, eps)
            parsed = [field(f"u{i} - eps*({total})", n, {"eps": eps}) for i in range(1, n + 1)]
            for order in range(4):
                got = system.velocity_jets(jets.PointSet(coords), order)
                pts = jets.PointSet(coords)
                want = jets.stack([v.jet(pts, order) for v in parsed], len(pts))
                assert same_bits(got, want), (eps, order)


def _systems_by_fields():
    """A system given by sources, as --velocity builds it, with a constant
    velocity (one column), and its image under a transformation, each with
    its velocity fields: the sources, and the composites A * v - B over them."""
    from recipfm.reciprocal import ConservationDensity, current_from_density, transform

    fields = (field("u1*u2 - 3", 3), field("exp(u2/4)", 3), field("2.5", 3))
    given, A, base = DiagonalSystem.of_fields(fields), field("1 + u1/7", 3), jets.Point((0.6, 0.9, 1.4))
    image = transform(given, ConservationDensity(A), base, check_generator=False).system
    current = current_from_density(given, A, base)
    coords = banded_points(((0.5, 0.7), (0.8, 1.0), (1.3, 1.5)), 3, seed=3).coords
    composites = tuple(field_of(jets.sub, field_of(jets.mul, A, v), current) for v in fields)
    return (given, fields, coords), (image, composites, coords)


def test_field_systems_velocity_jets_are_their_fields_bit_for_bit():
    for system, fields, coords in _systems_by_fields():
        for order in range(4):
            got = system.velocity_jets(jets.PointSet(coords), order)
            pts = jets.PointSet(coords)
            assert same_bits(got, jets.stack([v.jet(pts, order) for v in fields], len(pts))), order
            assert got.shape == (3, len(jets.multi_indices(3, order)), 3) and not got.flags.writeable


def test_velocity_stack_is_built_once_per_set_and_order(monkeypatch):
    """A lower order is read off a finite higher one held for the set, as its
    leading rows; off a non-finite one it is built on its own."""
    cases = [(epsilon_system(3, 0.5), sample_points(3, 4, seed=8).coords)]
    cases += [(system, coords) for system, _, coords in _systems_by_fields()]
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


def test_velocity_jets_reject_points_of_another_dimension():
    for system in (epsilon_system(4, -1.0), DiagonalSystem.of_fields(field(f"u{k}", 4) for k in range(1, 5))):
        with pytest.raises(ValueError, match="field on 4 coordinates evaluated at points with 3"):
            system.velocity_jets(sample_points(3, 2, seed=9), 0)


def test_memoized_tables_are_read_only():
    natural = natural_connection(epsilon_system(3, 1.0))
    pts = sample_points(3, 2, seed=13)
    for table in (natural.christoffels(pts, 1), natural.christoffels(pts, 0), natural.generators(pts, 0)):
        with pytest.raises(ValueError, match="read-only"):
            table[..., 0, 0] = 1.0


# Every process-wide plan that hands out arrays, at a few arguments.  A plan
# hands the same objects to every caller, so none of them may be writable.
SHARED_PLANS = {
    "off_pairs": geometry.off_pairs,
    "_sh_plan": geometry._sh_plan,
    "_curvature_plan": geometry._curvature_plan,
    "_dual_plan": geometry._dual_plan,
    "_unit_rows": jets._unit_rows,
    "_partials_plan": lambda n: tuple(jets._partials_plan(n, len(jets.multi_indices(n, k))) for k in (1, 2, 3)),
    "_mul_grid": lambda n: tuple(jets._mul_grid(n, k) for k in range(4)),
    "_div_grids": lambda n: tuple(jets._div_grids(n, k) for k in range(4)),
    "_gl_nodes": lambda n: tuple(reciprocal._gl_nodes(2**k) for k in range(n)),
    "_GL_FIRST": lambda n: reciprocal._GL_FIRST,
    "_density_plan": reciprocal._density_plan,
    "_darboux_plan": reciprocal._darboux_plan,
}


def _arrays_in(plan):
    """The arrays a plan hands out; every container on the way must be a tuple."""
    if isinstance(plan, np.ndarray):
        return [plan]
    assert isinstance(plan, (tuple, slice, int, float, str)), type(plan)
    return [a for part in plan for a in _arrays_in(part)] if isinstance(plan, tuple) else []


@pytest.mark.parametrize("name", SHARED_PLANS)
@pytest.mark.parametrize("n", [2, 3, 6])
def test_shared_plans_hand_out_read_only_arrays(name, n):
    arrays = _arrays_in(SHARED_PLANS[name](n))
    assert arrays, name
    for a in arrays:
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0  # an empty array refuses the write too


@pytest.mark.parametrize("n", range(2, 9))
def test_family_plans_are_the_per_call_expressions(n):
    i, j = np.triu_indices(n, 1)
    labels, (pi, pj) = reciprocal._density_plan(n)
    assert labels == tuple(zip(i.tolist(), j.tolist())) and pi.tolist() == i.tolist() and pj.tolist() == j.tolist()
    diag = tuple(("diag", k) for k in range(n))
    assert reciprocal._diag_labels(n) == diag
    assert reciprocal._theta_labels(n) == tuple(("offdiag", b, a) for a, b in geometry.pair_labels(n)) + diag
    for products in (("circ",), ("circ", "star")):
        want = tuple((p, *ijk) for ijk in itertools.product(range(n), repeat=3) for p in products)
        assert reciprocal._agreement_labels(n, products) == want
    m, (i, q) = np.arange(n), geometry.off_pairs(n)
    _, mask, one, zero = geometry._curvature_plan(n)
    assert mask.shape == (len(i), n, 1) and (mask == ((m != i[:, None]) & (m != q[:, None]))[..., None]).all()
    # every gather reads the entries that the per-call expression it replaces reads, off distinct values
    g1, g0 = distinct_values(n, n, n, n + 1, 3), distinct_values(n, n, n, 1, 3)
    d1, v1, v0 = jets.gradient(g1, n), g1[..., 0, :], g0[..., 0, :]
    want = [d1[i, i, i, q], d1[i, i, q, i], d1[i, q, i, q], d1[i, q, q, i], v1[i, q, i], v1[i, i, i], v1[i, q, q]]
    assert (g1[one] == np.concatenate(want)).all()
    left, right = g0[zero].reshape(2, n + 1, len(i), -1)
    i1, q1 = i[:, None], q[:, None]
    assert (left[0] == v0[q, i, q]).all() and (left[1:] == v0[i1, m, i1].swapaxes(0, 1)).all()
    assert (right[0] == v0[q, q, q]).all() and (right[1:] == v0[m, q1, q1].swapaxes(0, 1)).all()
    g = distinct_values(n, n, n + 1, 3)
    d, v = jets.gradient(g, n), g[:, :, 0]
    ti, tj, tk = np.array(list(itertools.permutations(range(n), 3)), dtype=int).reshape(-1, 3).T
    want = [d[tk, tj, ti], v[tk, tj], v[tj, ti], v[tk, ti], v[ti, tj], d[ti, tk, tj], d[ti, tj, tk]]
    assert (g[geometry._sh_plan(n)[1]] == np.concatenate(want)).all()
    den, ratio, gen, slots = geometry._dual_plan(n)
    u, quotient, off = distinct_values(n, 4, 3), distinct_values(len(i) + n, 4, 3), distinct_values(n, n, 4, 3)
    assert (u[den] == np.concatenate([u[q], u])).all()
    table = geometry.pair_table(n, quotient[: len(i)])
    assert (quotient[ratio] == np.concatenate([table[i, q], table[q, i]])).all()
    assert (off[gen] == np.concatenate([off[i, q], off[i, q]])).all()
    terms = np.zeros((n + 1, n, 4, 3))
    terms[slots] = quotient[: len(i)]
    assert same_bits(terms, np.concatenate([np.zeros((1, n, 4, 3)), table.swapaxes(0, 1)]))


def distinct_values(*shape: int) -> np.ndarray:
    """An array of the shape whose entries are 1, 2, ..., all distinct and none zero."""
    return np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)


@pytest.mark.parametrize("n", range(2, 9))
def test_darboux_plan_is_the_per_call_expressions(n):
    pairs = geometry.pair_labels(n)
    labels = []
    for i, j in pairs:
        labels += [("triple", i, j, k) for k in range(n) if k not in (i, j)] + [("beta-e", i, j), ("beta-E", i, j)]
    for i in range(n):
        labels += [("lame", i, j) for j in range(n) if j != i] + [("lame-e", i), ("lame-E", i)]
    triples = [(t, i, j, k) for t, (i, j) in enumerate(pairs) for k in range(n) if k not in (i, j)]
    got_labels, index = reciprocal._darboux_plan(n)
    assert got_labels == tuple(labels) and reciprocal._darboux_plan(n)[1] is index
    assert [a.tolist() for a in index] == np.array(triples, dtype=int).reshape(-1, 4).T.tolist()


def test_sample_points_exhaustion():
    with pytest.raises(SamplingError):
        sample_points(2, 1, seed=0, predicates=(lambda p: False,))


def test_banded_points_stay_in_bands():
    bands = ((-1.8, -0.7), (0.7, 1.8))
    pts = banded_points(bands, 10, seed=77)
    for p in pts:
        for (lo, hi), c in zip(bands, p.coords):
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
    assert set(pts._memo[sys3._christoffel_primary]) == {1}
    assert set(pts._memo[(sys3._christoffel_primary, "natural")]) == {0, 1}
