"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them all even on
success); the assertion follows the print so failures still report."""

import json

import numpy as np

from conftest import corpus_exprs, corpus_points, fd_partial
from recipfm import jets
from recipfm.catalog import catalog_entries, entry, epsilon_frame_n2, epsilon_system, hypergeom_flat_coordinates
from recipfm.cli import main as cli_main
from recipfm.exprlang import compile_field, field
from recipfm.geometry import (
    banded_points,
    curvature_full_residual,
    curvature_natural_residual,
    curvature_oracle,
    dual_connection,
    identity_parallel_residual,
    natural_connection,
    sample_points,
)
from recipfm.reciprocal import (
    ConservationDensity,
    a_system_residual,
    biflat_admissibility,
    current_from_density,
    darboux_gamma_off,
    darboux_residual,
    darboux_transform,
    density_window,
    grading_residual,
    log_derivative_field,
    orbit_compose,
    theta_system_residual,
    transform,
)

GRID = [(n, eps) for n in (2, 3, 4) for eps in (1.0, -1.0, 0.5)]


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] C{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _entry_points(e, count=20, seed=42):
    return sample_points(e.dim, count, seed, predicates=e.sample_predicates())


def _mid(bands):
    return jets.Point(tuple((lo + hi) / 2.0 for lo, hi in bands))


def test_c01_natural_flatness_grid():
    worst = 0.0
    for n, eps in GRID:
        nat = natural_connection(epsilon_system(n, eps))
        rep = curvature_natural_residual(nat, sample_points(n, 50, seed=42), 1e-9)
        worst = max(worst, rep.max_abs)
    ok = worst <= 1e-9
    _line(1, ok, f"natural curvature over n in 2..4, eps in {{1,-1,0.5}}: max {worst:.3e} <= 1e-9")
    assert ok


def test_c02_dual_flatness_and_euler_parallelism():
    worst = 0.0
    for n, eps in GRID:
        dual = dual_connection(epsilon_system(n, eps))
        pts = sample_points(n, 50, seed=42)
        worst = max(worst, curvature_full_residual(dual, pts, 1e-9).max_abs)
        worst = max(worst, identity_parallel_residual(dual, "E", pts, 1e-9).max_abs)
    ok = worst <= 1e-9
    _line(2, ok, f"dual curvature and Euler parallelism over the same grid: max {worst:.3e} <= 1e-9")
    assert ok


def test_c03_flatness_preservation_across_catalog():
    worst, worst_id = 0.0, ""
    entries = catalog_entries()
    for e in entries:
        sys = epsilon_system(e.dim, e.eps)
        pts = _entry_points(e)
        res = transform(sys, ConservationDensity(e.density_field()), pts[0], points=pts)
        rep = curvature_natural_residual(res.natural, pts, 1e-8)
        if rep.max_abs > worst:
            worst, worst_id = rep.max_abs, e.entry_id
    ok = worst <= 1e-8
    _line(3, ok, f"transformed curvature over {len(entries)} catalog densities: max {worst:.3e} ({worst_id}) <= 1e-8")
    assert ok


def test_c04_flatness_failure_converse():
    sys2 = epsilon_system(2, 1.0)
    ok = True
    details = []
    for src in ("u1*u2", "exp(u1*u2)"):
        A = field(src, 2)
        pts = sample_points(2, 20, seed=42, predicates=(density_window(A),))
        _, grading = grading_residual(A, "e", pts)
        res = transform(sys2, ConservationDensity(A), pts[0], check_generator=False)
        curv = curvature_natural_residual(res.natural, pts)
        ok = ok and (not grading.passed) and curv.max_abs > 1e-3
        details.append(f"{src}: grading dev {grading.max_abs:.2e}, curvature {curv.max_abs:.2e}")
    _line(4, ok, "; ".join(details) + " (both must fail)")
    assert ok


def test_c05_current_reproduction():
    worst, worst_id, checked = 0.0, "", 0
    for e in catalog_entries():
        if e.current_src is None:
            continue
        checked += 1
        sys = epsilon_system(e.dim, e.eps)
        A = e.density_field()
        closed = e.current_field()
        base = _mid(e.current_bands)
        pts = banded_points(e.current_bands, 20, seed=42, predicates=e.sample_predicates())
        B = current_from_density(sys, A, base)
        fitted = closed.value(base)
        err = max(abs(B.value(p) - (closed.value(p) - fitted)) for p in pts)
        if err > worst:
            worst, worst_id = err, e.entry_id
    ok = worst <= 1e-7
    _line(5, ok, f"quadrature current vs closed form on {checked} entries: max {worst:.3e} ({worst_id}) <= 1e-7")
    assert ok


def test_c06_a_system_and_theta_form_agree():
    ok = True
    worst = 0.0
    for e in catalog_entries():
        sys = epsilon_system(e.dim, e.eps)
        A = e.density_field()
        pts = _entry_points(e)
        a_rep = a_system_residual(sys, A, pts, 1e-8)
        t_rep = theta_system_residual(sys, A, pts, 1e-8)
        worst = max(worst, a_rep.max_abs)
        ok = ok and a_rep.passed and (a_rep.passed == t_rep.passed)
    # negative controls must fail in both formulations identically
    sys2 = epsilon_system(2, 1.0)
    for src in ("u1*u2", "exp(u1*u2)"):
        A = field(src, 2)
        pts = sample_points(2, 20, seed=42, predicates=(density_window(A),))
        a_rep = a_system_residual(sys2, A, pts, 1e-8)
        t_rep = theta_system_residual(sys2, A, pts, 1e-8)
        ok = ok and (not a_rep.passed) and (not t_rep.passed)
    _line(6, ok, f"complete second-derivative system on the catalog: max {worst:.3e} <= 1e-8, theta verdicts identical")
    assert ok


def test_c07_hypergeometric_reduction():
    A1, _ = hypergeom_flat_coordinates(1.0)
    elementary = field("1/((u2-u1)*(u2-u3))", 3)
    e = entry("dim3-eps1-flatcoord")
    pts = _entry_points(e)
    diff = max(abs(A1.value(p) - elementary.value(p)) for p in pts)
    h, h_rep = grading_residual(A1, "e", pts, 1e-9)
    k, k_rep = grading_residual(A1, "E", pts, 1e-9)
    ok = diff <= 1e-10 and abs(h) <= 1e-9 and h_rep.passed and abs(k + 2.0) <= 1e-9 and k_rep.passed
    _line(7, ok, f"series vs elementary form: {diff:.3e} <= 1e-10; gradings h={h:.2e}, k={k:.12f}")
    assert ok


def test_c08_biflat_admissibility_verdicts():
    ok = True
    rejected = accepted = 0
    for e in catalog_entries():
        sys = epsilon_system(e.dim, e.eps)
        verdict = biflat_admissibility(sys, e.density_field(), _entry_points(e))
        if e.h != 0.0:
            ok = ok and not verdict.passed
            rejected += 1
        elif e.family.endswith("flatcoord"):
            ok = ok and verdict.passed
            accepted += 1
            if e.eps == 1.0:
                ok = ok and abs(verdict.k - (1.0 - 3.0 * e.eps)) <= 1e-8
    _line(8, ok, f"unit-graded generators rejected ({rejected}), flat coordinates accepted ({accepted}), k = 1-3*eps at eps=1")
    assert ok


def test_c09_orbit_composition():
    sys2 = epsilon_system(2, 1.0)
    bands = ((-1.8, -0.7), (0.7, 1.8))
    base = _mid(bands)
    pairs = [
        ("1/(u2-u1)", "exp(u1)/(u2-u1)"),
        ("exp(u1)/(u2-u1)", "exp(3*u1)/(u2-u1)"),
        ("exp(u1)/(u2-u1)", "1/(u2-u1)"),
    ]
    ok = True
    worst = 0.0
    grading_err = 0.0
    for seed, (g0_src, comp_src) in enumerate(pairs, start=100):
        g0_field = field(g0_src, 2)
        comp_field = field(comp_src, 2)
        gen1 = ConservationDensity(comp_field / g0_field)
        pts = banded_points(bands, 10, seed=seed)
        rep, _ = orbit_compose(sys2, ConservationDensity(g0_field), gen1, pts, base, 1e-10)
        ok = ok and rep.passed
        worst = max(worst, rep.max_abs)
        g0, _ = grading_residual(g0_field, "e", pts)
        g1, _ = grading_residual(gen1.field, "e", pts)
        gc, _ = grading_residual(comp_field, "e", pts)
        grading_err = max(grading_err, abs(g1 - (gc - g0)))
    ok = ok and grading_err <= 1e-10
    _line(9, ok, f"two-step vs one-step on 3 generator pairs: max {worst:.3e} <= 1e-10; grading arithmetic err {grading_err:.2e}")
    assert ok


def test_c10_rotation_frame_action():
    frame = epsilon_frame_n2(1.0)
    A = field("1/(u2-u1)", 2)
    pts = sample_points(2, 20, seed=42, predicates=(density_window(A),))
    before = darboux_residual(frame, pts, 1e-10)
    image = darboux_transform(frame, ConservationDensity(A), pts)
    after = darboux_residual(image, pts, 1e-10)
    degree_ok = abs(image.degree - (frame.degree - 1.0)) <= 1e-10
    old_off = darboux_gamma_off(frame)
    new_off = darboux_gamma_off(image)
    shift = 0.0
    for i, j in ((0, 1), (1, 0)):
        expected = old_off(i, j, pts, 0).value - log_derivative_field(A, j).jet(pts, 0).value
        shift = max(shift, float(np.abs(new_off(i, j, pts, 0).value - expected).max()))
    ok = before.passed and after.passed and degree_ok and shift <= 1e-10
    _line(
        10,
        ok,
        f"frame residuals before {before.max_abs:.2e} / after {after.max_abs:.2e} <= 1e-10, "
        f"degree {frame.degree} -> {image.degree}, symbol shift err {shift:.2e}",
    )
    assert ok


def test_c11_oracle_equivalence_and_jet_partials():
    # specialized curvature components vs the generic oracle, for every
    # natural-form table the suite builds
    tables = []
    sys2 = epsilon_system(2, 1.0)
    sys3 = epsilon_system(3, -1.0)
    tables.append((natural_connection(sys2), sample_points(2, 10, seed=42)))
    tables.append((natural_connection(sys3), sample_points(3, 10, seed=42)))
    e = entry("dim2-eps1-h1")
    pts_e = sample_points(2, 10, seed=42, predicates=e.sample_predicates())
    res = transform(sys2, ConservationDensity(e.density_field()), pts_e[0], points=pts_e)
    tables.append((res.natural, pts_e))
    frame_table_pts = sample_points(2, 10, seed=43)
    from recipfm.geometry import ConnectionTable

    frame_table = ConnectionTable(2, "natural", off_diagonal=darboux_gamma_off(epsilon_frame_n2(1.0)), assembly="natural")
    tables.append((frame_table, frame_table_pts))

    worst = 0.0
    for conn, pts in tables:
        rep = curvature_natural_residual(conn, pts)
        by_key = {(p, idx): val for p, idx, val in rep.entries}
        R = curvature_oracle(conn, pts)
        for c, p in enumerate(pts):
            for i in range(conn.dim):
                for k in range(conn.dim):
                    if i != k:
                        worst = max(worst, abs(by_key[(p, ("iki", i, k))] - R[i, i, k, i, c]))
                        worst = max(worst, abs(by_key[(p, ("qqi", i, k))] - R[i, k, k, i, c]))
    oracle_ok = worst <= 1e-10

    fd_worst = 0.0
    points = corpus_points()
    for expr in corpus_exprs():
        j = compile_field(expr).jet(points, 3)
        for alpha in jets.multi_indices(2, 3):
            for p, got in zip(points, jets.partial(j, alpha).tolist()):
                fd_worst = max(fd_worst, abs(got - fd_partial(expr, tuple(p), alpha)))
    fd_ok = fd_worst <= 1e-5
    ok = oracle_ok and fd_ok
    _line(11, ok, f"specialized vs oracle curvature: {worst:.3e} <= 1e-10; jet partials vs finite differences: {fd_worst:.3e} <= 1e-5")
    assert ok


def test_c12_report_determinism(tmp_path):
    commands = [
        ["check", "--builtin", "eps-system", "--dim", "3", "--eps", "1"],
        ["transform", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--catalog", "dim2-eps1-h0"],
        ["orbit", "--builtin", "eps-system", "--dim", "2", "--eps", "1",
         "--gen0", "1/(u2-u1)", "--composite", "exp(u1)/(u2-u1)"],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        a = tmp_path / f"{idx}a.json"
        b = tmp_path / f"{idx}b.json"
        code_a = cli_main(argv + ["--seed", "42", "--output", str(a)])
        code_b = cli_main(argv + ["--seed", "42", "--output", str(b)])
        ok = ok and code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
        ok = ok and json.loads(a.read_text())["schema"] == "recip-fm/1"
    _line(12, ok, f"{len(commands)} commands re-run with the same seed produce byte-identical reports")
    assert ok
