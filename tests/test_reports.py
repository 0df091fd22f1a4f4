"""Residual families hand their values to ResidualReport.of as blocks of one array each.

Each family builds one (nlabels, npoints) array beside its point set and a
label tuple made once per n, and hands these blocks, in block order, to the one
constructor ResidualReport.of, which lays out their entries.  Every entry must
be bit for bit, and in the same order, what a loop over its components gives
when it keeps a {label: row} dict and builds entries with conftest's
reference builder: the references below are such loops.  build and worst()
reduce the entries' values as one array, and every entry still reaches build.
"""

import itertools
import json
import math

import numpy as np
import pytest

import conftest
from conftest import entries_by_point
from recipfm import geometry as geo, jets
from recipfm.catalog import entry, epsilon_frame_n2, epsilon_system
from recipfm.cli import main
from recipfm.exprlang import field
from recipfm.geometry import (
    ConnectionTable,
    ResidualReport,
    banded_points,
    curvature_full_residual,
    curvature_natural_residual,
    curvature_oracle,
    dual_connection,
    identity_parallel_residual,
    natural_connection,
    sample_points,
    sh_residual,
)
from recipfm.jets import Jet, Point
from recipfm.reciprocal import (
    ConservationDensity,
    RotationFrame,
    darboux_residual,
    darboux_transform,
    density_window,
    frame_connection,
    orbit_compose,
    transform,
    transformed_off_diagonal,
)


def d(coeffs: np.ndarray, l: int) -> np.ndarray:
    """d_l of the order-1 jet whose coefficients (1 + n, npoints) are given, by conftest's partial."""
    n = coeffs.shape[0] - 1
    return conftest.partial(Jet(n, 1, coeffs), np.eye(n, dtype=int)[l])


def sh_rows(sys, points) -> dict:
    n, rows = sys.dim, {}
    if n < 3:
        return rows
    g = natural_connection(sys).generators(points, 1)
    v = g[:, :, 0]
    for i, j, k in itertools.permutations(range(n), 3):
        rows[("sh", i, j, k)] = d(g[k, j], i) - v[k, j] * v[j, i] + v[k, i] * v[k, j] - v[k, i] * v[i, j]
        rows[("dsym", i, j, k)] = d(g[i, k], j) - d(g[i, j], k)
    return rows


def curvature_rows(conn, points) -> dict:
    n, g1 = conn.dim, conn.christoffels(points, 1)
    v1, v0 = g1[..., 0, :], conn.christoffels(points, 0)[..., 0, :]
    rows = {}
    for i in range(n):
        others = [q for q in range(n) if q != i]
        for q in others:
            rows[("iki", i, q)] = d(g1[i, i, i], q) - d(g1[i, i, q], i)
        for q in others:
            giq = v1[i, q, i]
            r = d(g1[i, q, i], q) - d(g1[i, q, q], i) + giq * (giq - v0[q, i, q])
            for m in range(n):
                if m != i and m != q:
                    r = r - v0[i, m, i] * v0[m, q, q]
            rows[("qqi", i, q)] = r - v1[i, i, i] * v1[i, q, q] - giq * v0[q, q, q]
    return rows


def parallel_rows(conn, field_name, points) -> dict:
    n, g = conn.dim, conn.christoffels(points, 0)[..., 0, :]
    x = points.coords if field_name == "E" else np.ones((n, 1))
    rows = {}
    for i in range(n):
        for j in range(n):
            r = np.array([1.0 if field_name == "E" and i == j else 0.0])
            for l in range(n):
                r = r + g[i, j, l] * x[l]
            rows[(i, j)] = r
    return rows


def full_entries(conn, points) -> list:
    """The largest |R^i_jkl| at each point, read point by point."""
    R = curvature_oracle(conn, points)
    out = []
    for c, p in enumerate(points):
        column = R[..., c]
        k = np.unravel_index(int(np.argmax(np.abs(column))), column.shape)
        out.append((p, ("R", *map(int, k)), column[k].item()))
    return out


def assert_same_entries(got, want) -> None:
    assert [(p, label) for p, label, _ in got] == [(p, label) for p, label, _ in want]
    assert conftest.same_bits(np.array([v for *_, v in got], dtype=float), np.array([v for *_, v in want], dtype=float))


def assert_flatness_families(natural, dual, points, system=None) -> list:
    """The five flatness families over the tables (and sh over the system, if
    given) against their references; returns every value compared."""
    pairs = [
        (curvature_natural_residual(natural, points), entries_by_point(points, curvature_rows(natural, points))),
        (curvature_full_residual(dual, points), full_entries(dual, points)),
        (identity_parallel_residual(natural, "e", points), entries_by_point(points, parallel_rows(natural, "e", points))),
        (identity_parallel_residual(dual, "E", points), entries_by_point(points, parallel_rows(dual, "E", points))),
    ]
    if system is not None:
        pairs.append((sh_residual(system, points), entries_by_point(points, sh_rows(system, points))))
    for rep, want in pairs:
        assert_same_entries(rep.entries, want)
    return [v for rep, _ in pairs for *_, v in rep.entries]


@pytest.mark.parametrize("n, eps", [(n, eps) for n in range(2, 7) for eps in (1.0, -1.0, 0.5)])
def test_flatness_families_match_per_label_references(n, eps):
    sys = epsilon_system(n, eps)
    points = sample_points(n, 4, seed=100 + n)
    assert_flatness_families(natural_connection(sys), dual_connection(sys), points, sys)


def test_transformed_tables_match_per_label_references():
    e = entry("dim3-eps1-h1:c0")
    sys3 = epsilon_system(3, e.eps)
    points = sample_points(3, 4, seed=28, predicates=e.sample_predicates())
    res = transform(sys3, ConservationDensity(e.density_field()), points[0], with_dual=True, points=points)
    assert_flatness_families(res.natural, res.dual, points)


def test_non_finite_entries_keep_their_bits():
    # A = (1e200 u1)^2 overflows, so d ln A = inf / inf and the image tables hold NaN
    sys3, A = epsilon_system(3, 1.0), field("(1e200*u1)^2", 3)
    points = sample_points(3, 4, seed=5, predicates=(density_window(A),))
    res = transform(sys3, ConservationDensity(A), points[0], with_dual=True, points=points, check_generator=False)
    values = assert_flatness_families(res.natural, res.dual, points)
    assert any(math.isnan(v) for v in values)


def darboux_rows(frame, points) -> dict:
    """darboux_residual's rows, key by key in the frame's order."""
    n, u = frame.dim, points.coords
    beta1 = {key: f.jet(points, 1) for key, f in frame.beta.items()}
    lame1 = [f.jet(points, 1) for f in frame.lame]
    rows = {}
    for (i, j), bj in beta1.items():
        grad = [d(np.broadcast_to(bj.coeffs, (n + 1, len(points))), l) for l in range(n)]
        for k in range(n):
            if k != i and k != j:
                rows[("triple", i, j, k)] = grad[k] - beta1[(i, k)].value * beta1[(k, j)].value
        rows[("beta-e", i, j)] = sum(grad)
        rows[("beta-E", i, j)] = sum(u[l] * grad[l] for l in range(n)) + bj.value
    for i in range(n):
        grad = [d(np.broadcast_to(lame1[i].coeffs, (n + 1, len(points))), l) for l in range(n)]
        for j in range(n):
            if j != i:
                rows[("lame", i, j)] = grad[j] - beta1[(i, j)].value * lame1[j].value
        rows[("lame-e", i)] = sum(grad)
        rows[("lame-E", i)] = sum(u[l] * grad[l] for l in range(n)) + frame.degree * lame1[i].value
    return rows


def frame3() -> RotationFrame:
    """A 3-component frame, keys in reverse order and one constant Lame field (one-column jets)."""
    pairs = reversed(list(itertools.permutations(range(3), 2)))
    beta = {(i, j): field(f"1/(u{i + 1}-u{j + 1})", 3) for i, j in pairs}
    return RotationFrame(3, beta, (field("2 + 0*u1", 3), field("u1*u2", 3), field("exp(u3)", 3)), 0.5)


@pytest.mark.parametrize("make", [lambda: epsilon_frame_n2(1.0), lambda: epsilon_frame_n2(-1.0), frame3])
def test_darboux_rows_match_per_label_reference(make):
    frame = make()
    points = sample_points(frame.dim, 5, seed=23)
    assert_same_entries(darboux_residual(frame, points).entries, entries_by_point(points, darboux_rows(frame, points)))


def test_orbit_entries_match_per_label_reference():
    sys2, base = epsilon_system(2, 1.0), Point((-1.25, 1.25))
    gen0, gen1 = ConservationDensity(field("1/(u2-u1)", 2)), ConservationDensity(field("exp(u1)", 2))
    points = banded_points(((-1.8, -0.7), (0.7, 1.8)), 6, seed=20)
    rep, gradings = orbit_compose(sys2, gen0, gen1, points, base)
    step2 = transform(transform(sys2, gen0, base, points=points).system, gen1, base, points=points)
    direct = transform(sys2, ConservationDensity(gen0.field * gen1.field), base, points=points)
    two, one = (t.natural.generators(points, 0)[:, :, 0] for t in (step2, direct))
    want = entries_by_point(points, {(i, j): two[i, j] - one[i, j] for i, j in itertools.permutations(range(2), 2)})
    want.append((points[0], ("grading",), gradings["gen1"] - (gradings["composite"] - gradings["gen0"])))
    assert_same_entries(rep.entries, want)


def captured_builds(monkeypatch) -> list:
    """Every report built from now on, in order, through a wrapper around
    ResidualReport.build like the benchmark's."""
    reports, build = [], ResidualReport.build

    def wrapped(label, entries, tolerance):
        reports.append(build(label, tuple(entries), tolerance))
        return reports[-1]

    monkeypatch.setattr(ResidualReport, "build", staticmethod(wrapped))
    return reports


def test_christoffel_shift_rows_match_per_label_reference(monkeypatch, tmp_path):
    reports = captured_builds(monkeypatch)
    argv = ["darboux", "--frame-builtin", "eps2", "--eps", "1", "--density", "1/(u2-u1)", "--num-points", "6",
            "--seed", "9", "--output", str(tmp_path / "r.json")]
    assert main(argv) == 0
    (got,) = [rep for rep in reports if rep.label == "christoffel-shift"]
    frame, A = epsilon_frame_n2(1.0), field("1/(u2-u1)", 2)
    points = sample_points(2, 6, 9, predicates=(density_window(A),))
    image = frame_connection(darboux_transform(frame, ConservationDensity(A), points)).generators(points, 0)[:, :, 0]
    expected = transformed_off_diagonal(frame_connection(frame), A)(points, 0)[:, :, 0]
    rows = {(i, j): image[i, j] - expected[i, j] for i, j in itertools.permutations(range(2), 2)}
    assert_same_entries(got.entries, entries_by_point(points, rows))


def test_one_column_spreads_over_the_points():
    points = sample_points(2, 3, seed=1)
    got = ResidualReport.of("spread", 1.0, (points, ("a", "b"), np.array([[-0.0], [2.0]]))).entries
    assert_same_entries(got, entries_by_point(points, {"a": -0.0, "b": 2.0}))


def test_blocks_are_laid_out_in_block_order(monkeypatch):
    points = sample_points(2, 3, seed=1)
    first, values = jets.point_set(points[0]), np.array([[1.0, -0.0, math.inf], [math.nan, 5.0, -6.0]])
    blocks = (points, ("a", "b"), values), (first, ("c",), np.array([[7.0]])), (points, ("d",), np.array([[-0.0]]))
    rep = ResidualReport.of("blocks", 1.0, *blocks)
    want = entries_by_point(points, {"a": values[0], "b": values[1]}) + [(points[0], "c", 7.0)]
    assert_same_entries(rep.entries, want + entries_by_point(points, {"d": -0.0}))
    assert rep.label == "blocks" and math.isnan(rep.max_abs) and not rep.passed
    # of calls build through the class, so a wrapper standing there (as the benchmark's does) sees the report
    reports = captured_builds(monkeypatch)
    one = ResidualReport.of("one", 1.0, blocks[0])
    assert len(reports) == 1 and reports[0] is one and type(one.entries) is tuple and len(one.entries) == 6


# ---------------------------------------------------------------------------
# build and worst() as array reductions

P = Point((0.7, -1.3))


def report(values, tolerance=1e-8) -> ResidualReport:
    return ResidualReport.build("r", [(P, (k,), v) for k, v in enumerate(values)], tolerance)


@pytest.mark.parametrize("at", range(4))
def test_nan_anywhere_gives_nan_and_worst_is_the_first_nan(at):
    values = [1e-12, -3.0, 2.0]
    values.insert(at, math.nan)
    values.append(math.nan)
    rep = report(values)
    assert math.isnan(rep.max_abs) and not rep.passed
    assert rep.worst() is rep.entries[at]


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinity_without_nan_gives_inf(bad):
    rep = report([1e-12, -3.0, bad, 2.0, -bad])
    assert rep.max_abs == math.inf and not rep.passed
    assert rep.worst() is rep.entries[2]


def test_negative_zero_gives_positive_zero():
    rep = report([-0.0, -0.0])
    assert rep.max_abs == 0.0 and math.copysign(1.0, rep.max_abs) == 1.0 and rep.passed


def test_empty_report():
    rep = ResidualReport.build("empty", [], 1e-8)
    assert rep.entries == () and rep.max_abs == 0.0 and rep.passed and rep.worst() is None


def test_max_abs_is_a_python_float_and_worst_the_first_largest():
    rep = report([np.float64(1e-9), -4e-9, 4e-9, 3])
    assert type(rep.max_abs) is float and rep.max_abs == 3.0 and not rep.passed
    small = report([1e-9, -4e-9, 4e-9])
    assert small.worst() is small.entries[1] and small.max_abs == 4e-9 and small.passed


# ---------------------------------------------------------------------------
# every entry reaches build


def test_every_entry_reaches_build(monkeypatch, tmp_path):
    reports = captured_builds(monkeypatch)
    sys6 = epsilon_system(6, 1.0)
    points = sample_points(6, 4, seed=7)
    natural, dual = natural_connection(sys6), dual_connection(sys6)
    geo.curvature_natural_residual(natural, points)
    geo.curvature_full_residual(dual, points)
    geo.identity_parallel_residual(natural, "e", points)
    geo.identity_parallel_residual(dual, "E", points)
    geo.sh_residual(sys6, points)
    assert [len(rep.entries) for rep in reports] == [240, 4, 144, 144, 960]
    assert sum(len(rep.entries) for rep in reports) == 1492

    reports.clear()
    out = tmp_path / "r.json"
    argv = ["check", "--builtin", "eps-system", "--dim", "3", "--eps", "1", "--catalog", "dim3-eps1-h0",
            "--num-points", "5", "--suite", "all", "--output", str(out)]
    assert main(argv) == 0
    checks = json.loads(out.read_text())["checks"]
    labels = {"curvature-natural": "curvature[natural]", "parallel-e": "parallel-e[natural]",
              "curvature-dual": "curvature-full[dual]", "parallel-E": "parallel-E[dual]"}
    built = {rep.label: rep for rep in reports}
    assert len(reports) == len(built) == len(checks) == 9
    for name, check in checks.items():
        rep = built[labels.get(name, name)]
        assert (check["max_abs"], check["pass"]) == (rep.max_abs, rep.passed)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_signed_zero_tables_keep_their_bits(n):
    # every generator coefficient is +0.0 or -0.0, so every entry is a zero whose sign shows the exact operations
    rng = np.random.default_rng(n)

    def generate(points, order):
        signs = rng.choice([0.0, -0.0], size=(n, n, len(jets.multi_indices(n, order)), len(points)))
        return signs * (1 - np.eye(n))[:, :, None, None]

    natural = ConnectionTable(n, "signed-zeros", generate, "natural")
    assert_flatness_families(natural, natural.dual("signed-zeros-dual"), sample_points(n, 12, seed=4))


@jets.quiet
def oracle_reference(conn, points) -> np.ndarray:
    """R^i_{jkl} by the generic formula, each term an einsum of its own: the
    reference for curvature_oracle, which forms the two sums over m as one."""
    g = conn.christoffels(points, 1)
    val, der = g[..., 0, :], jets.gradient(g, conn.dim)
    return (
        np.einsum("iljkp->ijklp", der)
        - np.einsum("ikjlp->ijklp", der)
        + np.einsum("ikmp,mljp->ijklp", val, val)
        - np.einsum("ilmp,mkjp->ijklp", val, val)
    )


def random_table(n: int, seed: int, values) -> ConnectionTable:
    """A natural table whose generators are drawn from values, zero on the diagonal."""
    rng = np.random.default_rng(seed)

    def generate(points, order):
        drawn = rng.choice(values, size=(n, n, len(jets.multi_indices(n, order)), len(points)))
        return np.where(np.eye(n, dtype=bool)[:, :, None, None], 0.0, drawn)

    return ConnectionTable(n, "random", generate, "natural")


@pytest.mark.parametrize("n", range(2, 8))
def test_curvature_oracle_matches_the_generic_formula_term_by_term(n):
    sys, A = epsilon_system(n, 0.5), field("1 + u1*u1", n)
    points = sample_points(n, 3, seed=40 + n)
    image = transform(sys, ConservationDensity(A), points[0], with_dual=True, check_generator=False)
    signed_zeros = random_table(n, n, [0.0, -0.0])
    non_finite = random_table(n, 10 + n, [1.5, -0.25, 3.0, math.nan, math.inf, -math.inf])
    tables = [natural_connection(sys), dual_connection(sys), image.natural, image.dual,
              signed_zeros, signed_zeros.dual("signed-zeros-dual"), non_finite, non_finite.dual("non-finite-dual")]
    for conn in tables:
        got, want = curvature_oracle(conn, points), oracle_reference(conn, points)
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all() and conftest.same_bits(got[~nan], want[~nan])
    assert np.isnan(oracle_reference(non_finite, points)).any()
