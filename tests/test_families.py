"""Density, a-system, theta, grading, covariant-Hessian and intrinsic-table families against per-component references.

The families read every derivative at once with jets.gradient and
jets.hessian and build each family of entries as one array expression.  Each
entry must be bit for bit what a loop over its components gives, reading
each derivative with conftest's partial and adding the same terms in the same
order: the references below are such loops."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

import conftest
from conftest import entries_by_point, same_bits
from recipfm import jets
from recipfm.catalog import entry, epsilon_system
from recipfm.cli import main
from recipfm.exprlang import field
from recipfm.geometry import dual_connection, natural_connection, sample_points
from recipfm.reciprocal import (
    a_system_residual,
    covariant_hessian_residual,
    density_residual,
    density_window,
    grading_residual,
    intrinsic_transformed_gamma,
    theta_system_residual,
)


def partial(aj, *ls):
    """conftest.partial for the derivative d_{l1} d_{l2} ... (repeats allowed)."""
    return conftest.partial(aj, sum(np.eye(aj.dim, dtype=int)[list(ls)]))


def grad_list(aj):
    return [partial(aj, l) for l in range(aj.dim)]


def density_rows(conn, A, points):
    n, aj = conn.dim, A.jet(points, 2)
    grad, off = grad_list(aj), conn.generators(points, 0)[:, :, 0]
    return {
        (i, j): partial(aj, i, j) - off[i, j] * grad[i] - off[j, i] * grad[j]
        for i in range(n)
        for j in range(i + 1, n)
    }


def a_system_entries(sys, A, points):
    n, aj = sys.dim, A.jet(points, 2)
    a0 = np.broadcast_to(aj.value, (len(points),))
    grad = grad_list(aj)
    e_of_a = sum(grad)
    rows = {}
    for q in range(n):
        r = partial(aj, q, q) - grad[q] * e_of_a / a0
        for l in range(n):
            if l != q:
                r = r + partial(aj, l, q)
        rows[("diag", q)] = r
    return entries_by_point(points, density_rows(natural_connection(sys), A, points)) + entries_by_point(points, rows)


def theta_entries(sys, A, points):
    n, a1, a2 = sys.dim, A.jet(points, 1), A.jet(points, 2)
    theta_jets = [jets.div(conftest.derivative(a2, l), a1) for l in range(n)]
    theta = [t.value for t in theta_jets]
    off = natural_connection(sys).generators(points, 0)[:, :, 0]
    rows = {}
    for q in range(n):
        for p in range(n):
            if p != q:
                rows[("offdiag", p, q)] = (
                    partial(theta_jets[p], q) - theta[p] * off[p, q] - theta[q] * off[q, p] + theta[p] * theta[q]
                )
    for p in range(n):
        square = np.array([t**2 for t in theta[p].tolist()])
        r = partial(theta_jets[p], p) + square - theta[p] * sum(theta)
        for l in range(n):
            if l != p:
                r = r + (partial(theta_jets[p], l) + theta[p] * theta[l])
        rows[("diag", p)] = r
    return entries_by_point(points, rows)


def hessian_entries(conn, product, A, points):
    n, u, aj = conn.dim, points.coords, A.jet(points, 2)
    a0 = np.broadcast_to(aj.value, (len(points),))
    grad = grad_list(aj)
    x_of_a = sum(grad) if product == "circ" else sum(u[l] * grad[l] for l in range(n))
    g = conn.christoffels(points, 0)[..., 0, :]
    rows = {}
    for q in range(n):
        for p in range(n):
            r = partial(aj, q, p)
            for l in range(n):
                r = r - g[l, q, p] * grad[l]
            if p == q:
                r = r - (x_of_a / a0) * (1.0 if product == "circ" else 1.0 / u[p]) * grad[p]
            rows[(q, p)] = r
    return entries_by_point(points, rows)


def grading_entries(A, field_name, points):
    """The grading estimate and entries, e(A) or E(A) summed from 0 over l and the mean from 0.0 over the points."""
    aj = A.jet(points, 1)
    a0 = np.broadcast_to(aj.value, (len(points),))
    s = 0
    for l in range(aj.dim):
        s = s + (points.coords[l] * partial(aj, l) if field_name == "E" else partial(aj, l))
    ratios = s / a0
    estimate = 0.0
    for r in ratios.tolist():
        estimate = estimate + r
    estimate = estimate / len(ratios)
    return estimate, entries_by_point(points, {(field_name,): ratios - estimate})


def intrinsic_gamma(conn, product, A, points):
    """G~^i_{jk} entry by entry, each structure-tensor sum over l from 0."""
    n, P, a1 = conn.dim, len(points), A.jet(points, 1)
    w = [partial(a1, l) / a1.value for l in range(n)]
    X = [points.coords[l] if product == "star" else np.ones(P) for l in range(n)]
    c = lambda a, b, d: 1.0 / X[a] if a == b == d else np.zeros(P)
    xw, cx, cw = 0, {}, {}
    for l in range(n):
        xw = xw + X[l] * w[l]
    for a, b in itertools.product(range(n), repeat=2):
        cx[a, b] = cw[a, b] = 0
        for l in range(n):
            cx[a, b] = cx[a, b] + c(a, l, b) * X[l]
            cw[a, b] = cw[a, b] + c(l, a, b) * w[l]
    g = conn.christoffels(points, 0)[..., 0, :]
    out = np.empty((n, n, n, P))
    for i, j, k in itertools.product(range(n), repeat=3):
        out[i, j, k] = g[i, j, k] + c(i, j, k) * xw - cx[i, j] * w[k] + cw[j, k] * X[i] - cx[i, k] * w[j]
    return out


def assert_entries_bitwise(got, want) -> None:
    assert [(p, label) for p, label, _ in got] == [(p, label) for p, label, _ in want]
    assert np.array([v for *_, v in got]).tobytes() == np.array([v for *_, v in want]).tobytes()


def eps_density(n: int) -> str:
    return "exp(0.2*u1)*(3 + u2^2) + " + " + ".join(f"0.{k}*u{k}*u{k % n + 1}" for k in range(1, n + 1))


CASES = [
    pytest.param(n, eps, eps_density(n), id=f"eps{eps:g}-n{n}") for n in range(2, 7) for eps in (1.0, -1.0)
]
CASES += [
    pytest.param(e.dim, e.eps, e.entry_id, id=e.entry_id)
    for e in map(entry, ("dim2-eps1-h0", "dim2-eps-1-h1:c2", "dim3-eps1-h1:c0", "dim3-eps-1-h0", "dim3-eps1-flatcoord"))
]
CASES.append(pytest.param(2, 1.0, "(1e200*u1)^2", id="overflow"))
# every derivative of this density is -0.0, so adding 0.0 in place of a skipped term would show
CASES.append(pytest.param(3, 1.0, "-(5 + 0*u1)", id="signed-zeros"))


@pytest.mark.parametrize("n, eps, density", CASES)
def test_array_families_match_per_component_loops(n, eps, density):
    sys = epsilon_system(n, eps)
    if density.startswith("dim"):
        e = entry(density)
        A, predicates = e.density_field(), e.sample_predicates()
    else:
        A = field(density, n)
        predicates = (density_window(A),)
    points = sample_points(n, 5, seed=n + 11, predicates=predicates)
    nat, dual = natural_connection(sys), dual_connection(sys)
    assert_entries_bitwise(
        density_residual(sys, A, points).entries, entries_by_point(points, density_rows(nat, A, points))
    )
    assert_entries_bitwise(a_system_residual(sys, A, points).entries, a_system_entries(sys, A, points))
    assert_entries_bitwise(theta_system_residual(sys, A, points).entries, theta_entries(sys, A, points))
    for field_name in ("e", "E"):
        estimate, got = grading_residual(A, field_name, points)
        want_estimate, want = grading_entries(A, field_name, points)
        assert same_bits(np.float64(estimate), np.float64(want_estimate))
        assert_entries_bitwise(got.entries, want)
    for product, conn in (("circ", nat), ("star", dual)):  # each table names its product
        got = covariant_hessian_residual(conn, A, points)
        assert got.label == f"hessian-{product}"
        assert_entries_bitwise(got.entries, hessian_entries(conn, product, A, points))
        assert same_bits(intrinsic_transformed_gamma(conn, A, points), intrinsic_gamma(conn, product, A, points))


def test_overflowing_density_fails_closed_in_every_array_family(tmp_path):
    out = tmp_path / "r.json"
    argv = ["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--density", "(1e200*u1)^2",
            "--num-points", "3", "--suite", "all", "--output", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
        checks = json.loads(out.read_text())["checks"]
        for name in ("density", "a-system", "theta-system", "grading-e"):
            assert checks[name]["max_abs"] == "NaN" and checks[name]["pass"] is False, name
        sys, A = epsilon_system(2, 1.0), field("(1e200*u1)^2", 2)
        points = sample_points(2, 3, seed=42, predicates=(density_window(A),))
        for product, conn in (("circ", natural_connection(sys)), ("star", dual_connection(sys))):
            rep = covariant_hessian_residual(conn, A, points)
            assert rep.label == f"hessian-{product}"
            assert math.isnan(rep.max_abs) and not rep.passed
