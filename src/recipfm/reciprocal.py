"""Conservation-law densities and the reciprocal transformation they generate.

A density A of a diagonal system satisfies d_i d_j A = G^i_{ij} d_i A + G^j_{ji} d_j A
for i != j; its current B solves d_i B = v^i d_i A.  The change of independent
variables generated by (A, B) maps velocities to A v^i - B and shifts every
off-diagonal Christoffel symbol by -d_j A / A.  This module evaluates the
residual systems governing when that shift preserves flatness of the natural
and dual connections, reconstructs currents by quadrature of the exact
one-form, composes transformations, and applies the same action to rotation
frames (off-diagonal rotation coefficients plus Lame fields).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .exprlang import ScalarField, partial_field
from .geometry import (
    TOL_SECOND,
    ConnectionTable,
    DiagonalSystem,
    ResidualReport,
    VELOCITY_GAP,
    dual_connection,
    natural_connection,
    off_pairs,
    pair_labels,
    pair_table,
    square_labels,
)
from .jets import Jet, Point, PointSet, point_set

DENSITY_FLOOR = 1e-6
GRADING_TOL = 1e-8
QUAD_NODES = 32
QUAD_REFINE_TOL = 1e-10
QUAD_MAX_PANELS = 64

_GL_XS, _GL_WS = np.polynomial.legendre.leggauss(QUAD_NODES)
_GL_W = tuple(float(w) for w in _GL_WS)


class ReciprocalError(ValueError):
    pass


class InadmissibleGeneratorError(ReciprocalError):
    """The generator violates a hypothesis of the transformation it was used for."""


class PathSingularityError(ReciprocalError):
    """A quadrature path crossed a singular locus."""


@dataclass(frozen=True)
class ConservationDensity:
    """The generator of a reciprocal transformation: a conservation-law density
    A of the system it acts on."""

    field: ScalarField


@dataclass(frozen=True)
class RotationFrame:
    """Off-diagonal rotation coefficients beta_ij, keyed by exactly the pairs
    i != j (0-based; errors count from 1, as --beta does), Lame fields H_i, homogeneity degree d."""

    dim: int
    beta: dict
    lame: tuple[ScalarField, ...]
    degree: float

    def __post_init__(self) -> None:
        if len(self.lame) != self.dim:
            raise ReciprocalError(f"need {self.dim} Lame fields, got {len(self.lame)}")
        pairs = set(itertools.permutations(range(self.dim), 2))
        for key in self.beta:
            if key not in pairs:
                raise ReciprocalError(f"beta[{key[0] + 1},{key[1] + 1}] is not a pair I != J in 1..{self.dim}")
        missing = sorted(pairs - self.beta.keys())
        if missing:
            raise ReciprocalError(f"missing rotation coefficient beta[{missing[0][0] + 1},{missing[0][1] + 1}]")

    def _gamma_off(self, points: PointSet, order: int) -> np.ndarray:  # its bound methods are one memo owner
        return darboux_gamma_off(self)(points, order)


@dataclass
class TransformResult:
    """Everything the transformation generated by A produces."""

    system: DiagonalSystem
    natural: ConnectionTable
    dual: ConnectionTable | None
    current: ScalarField


def density_window(A: ScalarField) -> Callable[[PointSet], np.ndarray]:
    """Sampling predicate keeping the points of a set where |A| is at or above
    DENSITY_FLOOR: one bool per point, or one for all of them where A's jet
    has one column (a constant)."""
    return lambda points: np.abs(A.jet(points, 0).value) >= DENSITY_FLOOR


def _require_nonzero(aj: Jet, points: PointSet) -> np.ndarray:
    """A's values over the points, or a ReciprocalError at the first point
    where |A| is below DENSITY_FLOOR."""
    a0 = np.broadcast_to(aj.value, (len(points),))
    low = np.abs(a0) < DENSITY_FLOOR
    if low.any():
        k = int(np.argmax(low))
        raise ReciprocalError(f"density magnitude {abs(a0[k]):.2e} below {DENSITY_FLOOR} at {points[k]}")
    return a0


# ---------------------------------------------------------------------------
# Density / grading / compatibility residuals
#
# Each family takes its jets once per point set and works on arrays over the
# points (see geometry), reading derivatives with jets.gradient and jets.hessian.
# A sum over l != q adds -0.0 at l = q (x + -0.0 is x), so every entry keeps the
# terms and order of a per-component loop.


@jets.quiet
def _density_block(conn: ConnectionTable, A: ScalarField, points: PointSet):
    """The density equations' (points, labels, values) block, over unordered pairs i < j."""
    aj = A.jet(points, 2)
    grad, hess = jets.gradient(aj), jets.hessian(aj)
    off = conn.generators(points, 0)[:, :, 0]
    i, j = np.triu_indices(conn.dim, 1)
    return points, tuple(zip(i.tolist(), j.tolist())), hess[i, j] - off[i, j] * grad[i] - off[j, i] * grad[j]


def density_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """d_i d_j A - G^i_{ij} d_i A - G^j_{ji} d_j A over unordered pairs i < j."""
    points = point_set(points)
    return ResidualReport.of("density", tolerance, _density_block(natural_connection(sys), A, points))


@jets.quiet
def grading_residual(
    A: ScalarField, field: str, points: Sequence[Point], tolerance: float = GRADING_TOL
) -> tuple[float, ResidualReport]:
    """Constancy test for e(A)/A (field 'e') or E(A)/A (field 'E').

    Returns the mean ratio as the grading estimate and a report of the
    deviations from that mean.
    """
    if field not in ("e", "E"):
        raise ReciprocalError(f"field must be 'e' or 'E', got {field!r}")
    points = point_set(points)
    aj = A.jet(points, 1)
    a0 = _require_nonzero(aj, points)
    s = sum((points.coords if field == "E" else 1.0) * jets.gradient(aj))  # e(A) or E(A)
    ratios = s / a0
    estimate = sum(ratios.tolist()) / len(ratios)  # Python's sum, left to right
    return estimate, ResidualReport.of(f"grading-{field}", tolerance, (points, ((field,),), ratios[None] - estimate))


@jets.quiet
def a_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The complete second-derivative system for a flatness-preserving density:
    the pairwise density equations plus
    d_p^2 A = -sum_{l != p} d_l d_p A + d_p A (sum_l d_l A) / A."""
    n = sys.dim
    points = point_set(points)
    density = _density_block(natural_connection(sys), A, points)
    aj = A.jet(points, 2)
    a0 = _require_nonzero(aj, points)
    grad, hess = jets.gradient(aj), jets.hessian(aj)
    q = np.arange(n)
    rows = hess[q, q] - grad * sum(grad) / a0
    for l in range(n):
        rows = rows + np.where((l != q)[:, None], hess[l], -0.0)  # d_l d_q A
    return ResidualReport.of("a-system", tolerance, density, (points, tuple(("diag", k) for k in range(n)), rows))


@jets.quiet
def theta_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The same system written for theta_p = d_p ln A (first-order closed form)."""
    n = sys.dim
    points = point_set(points)
    a1 = A.jet(points, 1)
    _require_nonzero(a1, points)
    theta_jets = _log_partials(A.jet(points, 2), a1, len(points))
    theta, dtheta = theta_jets[:, 0], jets.gradient(theta_jets, n)  # dtheta[p, l] = d_l theta_p
    off = natural_connection(sys).generators(points, 0)[:, :, 0]
    q, p = off_pairs(n)  # q-major
    offdiag = dtheta[p, q] - theta[p] * off[p, q] - theta[q] * off[q, p] + theta[p] * theta[q]
    square = np.reshape([t**2 for t in theta.ravel().tolist()], theta.shape)  # the float power, not numpy's
    d = np.arange(n)
    diag = dtheta[d, d] + square - theta * sum(theta)
    for l in range(n):
        diag = diag + np.where((l != d)[:, None], dtheta[:, l] + theta * theta[l], -0.0)
    labels = tuple(("offdiag", b, a) for a, b in pair_labels(n)) + tuple(("diag", k) for k in range(n))
    return ResidualReport.of("theta-system", tolerance, (points, labels, np.concatenate([offdiag, diag])))


@jets.quiet
def covariant_hessian_residual(
    conn: ConnectionTable,
    product: str,
    A: ScalarField,
    points: Sequence[Point],
    tolerance: float = TOL_SECOND,
) -> ResidualReport:
    """Intrinsic form of the same conditions: the covariant Hessian of A must be
    X(ln A) c^l_{pq} d_l A with (c, X) the product tensor and its preferred
    field ('circ' pairs with e, 'star' with E)."""
    if product not in ("circ", "star"):
        raise ReciprocalError(f"product must be 'circ' or 'star', got {product!r}")
    n = conn.dim
    points = point_set(points)
    u = points.coords
    aj = A.jet(points, 2)
    a0 = _require_nonzero(aj, points)
    grad, r = jets.gradient(aj), jets.hessian(aj)
    x_of_a = sum(grad) if product == "circ" else sum(u * grad)
    g = conn.christoffels(points, 0)[..., 0, :]
    for l in range(n):
        r = r - g[l] * grad[l]
    d = np.arange(n)
    r[d, d] = r[d, d] - (x_of_a / a0) * (1.0 if product == "circ" else 1.0 / u) * grad
    return ResidualReport.of(f"hessian-{product}", tolerance, (points, square_labels(n), r.reshape(n * n, -1)))


# ---------------------------------------------------------------------------
# Current reconstruction


def current_from_density(sys: DiagonalSystem, A: ScalarField, base: Point) -> ScalarField:
    """The current B with d_i B = v^i d_i A and B(base) = 0.

    Values come from composite Gauss-Legendre quadrature of the exact one-form
    sum_i v^i d_i A du^i along the straight segment u(t) = base + t (p - base),
    t in [0, 1].  The form is closed, and a Weyl chamber intersected with an
    orthant is convex, so the segment between two of its points never meets
    u^i = u^j or u^i = 0.  Derivative rows, only when asked and after the
    values, come straight from the one-form: every v^i d_i A as one stacked
    product of velocity_jets and jets.partials of A, laid out by
    jets.from_partials, so no differentiation of quadrature output ever happens.

    Each value evaluates its nodes as point sets, one velocity_jets array and
    one order-1 jet of A per set (feeding the path guards): the 1-panel and
    2-panel rules together, then one set per further refinement level, until
    two levels agree to QUAD_REFINE_TOL.  A node set that fails a path guard
    or leaves a field's domain is redone as one-node sets through the same
    integrand, so the first failing node in rule order raises its own error,
    velocity check before density check.  Node sets are dropped after use, and
    with them every memo entry they hold.  Over one set, the returned field's
    order 0 is read off an order 1 already held there, so asking order 1 and
    then order 0 runs the quadrature once.
    """
    n = sys.dim
    start = np.array(base.coords)

    def value_at(p: Point) -> float:
        step = np.array(p.coords) - start
        axes = [i for i in range(n) if step[i] != 0.0]
        if not axes:
            return 0.0

        def guarded(ts: np.ndarray) -> list[float]:
            node_set = PointSet(start[:, None] + step[:, None] * ts)
            # the message is read only from a one-node set
            singular = lambda what: PathSingularityError(f"{what} on the segment from {base} to {p} near {node_set[0]}")
            vals = sys.velocity_jets(node_set, 0)[:, 0]
            a, b = off_pairs(n)  # the least gap at each node, NaN if any gap is NaN
            if (np.minimum.reduce(abs(vals[a] - vals[b])) < VELOCITY_GAP).any():
                raise singular("characteristic velocities coincide")
            aj = A.jet(node_set, 1)
            if (np.abs(aj.value) < DENSITY_FLOOR).any():
                raise singular("density vanishes")
            grad = jets.gradient(aj)
            f = sum(step[i] * (vals[i] * grad[i]) for i in axes)
            return np.broadcast_to(f, ts.shape).tolist()

        def integrand_at_nodes(ts: np.ndarray) -> list[float]:
            try:
                return guarded(ts)
            except (ValueError, ArithmeticError):
                # redo node by node, so the first failing node raises its own error
                return [y for k in range(len(ts)) for y in guarded(ts[k : k + 1])]

        def nodes(panels: int) -> tuple[np.ndarray, float]:
            width = 1.0 / panels
            mids = np.arange(panels) * width + 0.5 * width
            half = 0.5 * width
            return (mids[:, None] + half * _GL_XS[None, :]).ravel(), half

        def composite(half: float, f: list[float]) -> float:
            total = 0.0
            for s in range(0, len(f), QUAD_NODES):
                total += half * sum(map(operator.mul, _GL_W, f[s : s + QUAD_NODES]))
            return total

        ts1, half1 = nodes(1)
        ts2, half2 = nodes(2)
        f = integrand_at_nodes(np.concatenate([ts1, ts2]))
        prev, cur = composite(half1, f[:QUAD_NODES]), composite(half2, f[QUAD_NODES:])
        panels = 2
        while not abs(cur - prev) < QUAD_REFINE_TOL:
            panels *= 2
            if panels > QUAD_MAX_PANELS:
                raise PathSingularityError(
                    f"quadrature on the segment from {base} to {p} did not settle below {QUAD_REFINE_TOL} "
                    f"({QUAD_MAX_PANELS} panels); the segment likely approaches a singular locus"
                )
            ts, half = nodes(panels)
            prev, cur = cur, composite(half, integrand_at_nodes(ts))
        return cur

    def fn(points: PointSet, jet_order: int) -> Jet:
        values = [value_at(p) for p in points]
        if jet_order == 0:
            return Jet(n, 0, [values])
        v = sys.velocity_jets(points, jet_order - 1)
        dA = np.broadcast_to(jets.partials(A.jet(points, jet_order)), v.shape)
        out = jets.from_partials(jets.stacked(jets.mul, n, jet_order - 1, v, dA), n, jet_order)
        out.coeffs[0] = values  # a jet just built: its value row is the quadrature's
        return out

    return ScalarField(n, fn)


# ---------------------------------------------------------------------------
# The transformation itself


def log_derivative_field(A: ScalarField, j: int) -> ScalarField:
    """d_j ln A computed as d_j A / A (no logarithm, so sign of A is free)."""
    return partial_field(A, j) / A


def _log_partials(higher: Jet, a: Jet, npoints: int) -> np.ndarray:
    """Every d_l A / A over the points, bit for bit log_derivative_field(A, l)'s
    jet, from A's jets a and higher (one order up) in one stacked quotient."""
    shape = (a.dim, len(a.coeffs), npoints)
    num, den = (np.broadcast_to(x, shape) for x in (jets.partials(higher), a.coeffs))
    return jets.stacked(jets.div, a.dim, a.order, num, den)


def transformed_off_diagonal(base: ConnectionTable, A: ScalarField) -> Callable[[Point | PointSet, int], np.ndarray]:
    """Generator producer of the image table: G^i_{ij} - d_j A / A for every
    pair at once, zero on the diagonal."""
    n = base.dim

    def generate(points: Point | PointSet, order: int) -> np.ndarray:
        points = point_set(points)
        g = base.generators(points, order)
        dlog = _log_partials(A.jet(points, order + 1), A.jet(points, order), len(points))
        return g - pair_table(n, dlog[off_pairs(n)[1]])

    return generate


def transform(
    sys: DiagonalSystem,
    gen: ConservationDensity,
    base: Point,
    with_dual: bool = False,
    *,
    points: Sequence[Point] | None = None,
    check_generator: bool = True,
) -> TransformResult:
    """Apply the transformation generated by gen to the system and its connections.

    The returned natural (and optional dual) tables are assembled from the
    shifted off-diagonal symbols; velocities become A v^i - B with B the
    reconstructed current (evaluated lazily).  With check_generator the
    density equations are verified first at points, which must then be given,
    and an InadmissibleGeneratorError is raised on failure; passing False lets
    deliberately broken generators through so the flatness-failure converse
    can be observed downstream.  The image tables share one generator.
    """
    A = gen.field
    if check_generator:
        if points is None:
            raise ReciprocalError(
                "transform checks its generator only at given points: pass points, or check_generator=False"
            )
        rep = density_residual(sys, A, points, TOL_SECOND)
        if not rep.passed:
            worst = rep.worst()
            raise InadmissibleGeneratorError(
                f"generator is not a conservation-law density: residual {rep.max_abs:.3e} "
                f"> {TOL_SECOND:.1e} at {worst[0]}"
            )
    current = current_from_density(sys, A, base)
    velocities = tuple(A * sys.velocities[i] - current for i in range(sys.dim))
    off = transformed_off_diagonal(natural_connection(sys), A)
    natural = ConnectionTable(sys.dim, "transformed-natural", off, "natural")
    dual = natural.dual("transformed-dual") if with_dual else None
    return TransformResult(DiagonalSystem(velocities), natural, dual, current)


@jets.quiet
def intrinsic_transformed_gamma(
    base: ConnectionTable, A: ScalarField, product: str, points: Point | PointSet
) -> np.ndarray:
    """The transformed table over the points, one array (n, n, n, npoints)
    whose [i, j, k] holds G~^i_{jk}, via the structure-tensor formula

        G~^i_{jk} = G^i_{jk} + c^i_{jk} X^l w_l - c^i_{lj} w_k X^l
                    + c^l_{jk} w_l X^i - c^i_{lk} w_j X^l,   w_l = d_l ln A,

    with (c, X) the product tensor and preferred field for 'circ' (c^i_{jk} =
    delta, X = e) or 'star' (c*^i_{jk} = delta / u^i, X = E).  Independent of
    the structural assembly used by the tables; for cross-checking only.
    """
    if product not in ("circ", "star"):
        raise ReciprocalError(f"product must be 'circ' or 'star', got {product!r}")
    n = base.dim
    points = point_set(points)
    a1 = A.jet(points, 1)
    w = jets.gradient(a1) / a1.value
    X = points.coords if product == "star" else np.ones(points.coords.shape)
    c = np.zeros((n, n, n, len(points)))
    c[np.arange(n), np.arange(n), np.arange(n)] = 1.0 / X
    xw = sum(X[l] * w[l] for l in range(n))  # X^l w_l
    cx = sum(c[:, l] * X[l] for l in range(n))  # [a, b] = c^a_{lb} X^l
    cw = sum(c[l] * w[l] for l in range(n))  # [j, k] = c^l_{jk} w_l
    g = base.christoffels(points, 0)[..., 0, :] + c * xw
    g = g - cx[:, :, None] * w[None, None, :]
    g = g + cw[None] * X[:, None, None]
    return g - cx[:, None, :] * w[None, :, None]


@jets.quiet
def intrinsic_agreement_report(
    sys: DiagonalSystem,
    A: ScalarField,
    result: TransformResult,
    points: Sequence[Point],
    tolerance: float = 1e-12,
    *,
    first: int | None = None,
) -> ResidualReport:
    """Componentwise agreement of the structurally assembled transformed tables
    with the structure-tensor route of intrinsic_transformed_gamma.  Both are
    evaluated over the whole set, so tables already cached for it are reused;
    with first, the report keeps the entries of the first points only."""
    routes = [("circ", result.natural, natural_connection(sys))]
    if result.dual is not None:
        routes.append(("star", result.dual, dual_connection(sys)))
    n = sys.dim
    points = point_set(points)
    kept = points if first is None else point_set(points[:first])
    diffs = {
        product: image.christoffels(points, 0)[..., 0, :] - intrinsic_transformed_gamma(base, A, product, points)
        for product, image, base in routes
    }
    labels = tuple((product, *ijk) for ijk in itertools.product(range(n), repeat=3) for product in diffs)
    values = np.stack(list(diffs.values()), axis=3).reshape(len(labels), -1)[:, : len(kept)]
    return ResidualReport.of("intrinsic-agreement", tolerance, (kept, labels, values))


# ---------------------------------------------------------------------------
# Bi-flat admissibility and orbit composition


@dataclass(frozen=True)
class BiflatVerdict:
    """h and k are the e- and E-grading estimates; max_abs is the largest
    max_abs of the three reports (NaN if any is NaN) and tolerance is the
    density report's; failed names the unmet conditions by report name, in the
    order grading-e, grading-E, density."""

    passed: bool
    h: float
    k: float
    reports: dict
    max_abs: float
    tolerance: float
    failed: tuple[str, ...]


def biflat_verdict(
    density: ResidualReport, e_grading: tuple, big_e_grading: tuple, grading_tol: float = GRADING_TOL
) -> BiflatVerdict:
    """The bi-flat admissibility rule: A satisfies the density equations,
    e(A) = 0 and E(A) = k A.  The gradings are grading_residual's
    (estimate, report) pairs; e(A) = 0 also needs |estimate| <= grading_tol."""
    (h_est, e_rep), (k_est, big_e_rep) = e_grading, big_e_grading
    holds = {
        "grading-e": e_rep.passed and abs(h_est) <= grading_tol,
        "grading-E": big_e_rep.passed,
        "density": density.passed,
    }
    failed = tuple(name for name, ok in holds.items() if not ok)
    reports = {"density": density, "grading-e": e_rep, "grading-E": big_e_rep}
    maxes = [r.max_abs for r in reports.values()]
    max_abs = math.nan if any(m != m for m in maxes) else max(maxes)
    return BiflatVerdict(not failed, h_est, k_est, reports, max_abs, density.tolerance, failed)


@jets.quiet
def orbit_compose(
    sys: DiagonalSystem,
    gen0: ConservationDensity,
    gen1: ConservationDensity,
    points: Sequence[Point],
    base: Point,
    tolerance: float = 1e-10,
) -> tuple[ResidualReport, dict[str, float]]:
    """Two successive transformations against the single one generated by the product.

    The two-step route recovers the intermediate Christoffel symbols from the
    transformed velocities (current included), so it genuinely retraces the
    pipeline; the one-step route uses the product density gen0.A * gen1.A
    directly.  A final entry checks the grading bookkeeping
    grading(gen1) = grading(product) - grading(gen0).  Returns the report and
    the three e-grading estimates, by the names gen0, gen1 and composite.
    """
    points = point_set(points)
    step1 = transform(sys, gen0, base, points=points)
    step2 = transform(step1.system, gen1, base, points=points)
    product = ConservationDensity(gen0.field * gen1.field)
    direct = transform(sys, product, base, points=points)
    two = step2.natural.generators(points, 0)[:, :, 0]
    one = direct.natural.generators(points, 0)[:, :, 0]
    i, j = off_pairs(sys.dim)
    symbols = points, pair_labels(sys.dim), two[i, j] - one[i, j]
    generators = {"gen0": gen0, "gen1": gen1, "composite": product}
    gradings = {name: grading_residual(g.field, "e", points)[0] for name, g in generators.items()}
    shift = gradings["gen1"] - (gradings["composite"] - gradings["gen0"])
    grading = point_set(points[0]), (("grading",),), np.array([[shift]])  # one entry, at the first point
    return ResidualReport.of("orbit-compose", tolerance, symbols, grading), gradings


# ---------------------------------------------------------------------------
# Rotation frames


def darboux_gamma_off(frame: RotationFrame) -> Callable[[Point | PointSet, int], np.ndarray]:
    """Generator producer of a frame: (H_j / H_i) beta_ij for every pair at once,
    one stacked quotient and one stacked product, zero on the diagonal."""
    n = frame.dim
    i, j = off_pairs(n)

    def generate(points: Point | PointSet, order: int) -> np.ndarray:
        points = point_set(points)
        h = jets.stack([f.jet(points, order) for f in frame.lame], len(points))
        b = jets.stack([frame.beta[pair].jet(points, order) for pair in zip(i.tolist(), j.tolist())], len(points))
        return pair_table(n, jets.stacked(jets.mul, n, order, jets.stacked(jets.div, n, order, h[j], h[i]), b))

    return generate


def frame_connection(frame: RotationFrame) -> ConnectionTable:
    """The generators-only table of a frame's symbols (darboux_gamma_off), a new
    table per call over the frame's one generator; residuals that need an assembly reject it."""
    return ConnectionTable(frame.dim, "frame", frame._gamma_off, None)


@jets.quiet
def darboux_residual(
    frame: RotationFrame, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """All six equation families of the homogeneity-augmented rotation system:
    d_k beta_ij = beta_ik beta_kj on distinct triples, e(beta) = 0,
    E(beta) = -beta, d_j H_i = beta_ij H_j, e(H) = 0, E(H) = -d H."""
    n, keys = frame.dim, tuple(frame.beta)  # at each key in the frame's order: triple, beta-e, beta-E rows
    points = point_set(points)
    u, npts = points.coords[:, None], len(points)
    beta = jets.stack([frame.beta[key].jet(points, 1) for key in keys], npts)
    lame = jets.stack([f.jet(points, 1) for f in frame.lame], npts)
    db, dh = (jets.gradient(f, n).swapaxes(0, 1) for f in (beta, lame))  # [l, a] = d_l of the a-th field
    b, h = np.zeros((n, n, npts)), lame[:, 0]
    b[tuple(np.array(keys).T)] = beta[:, 0]
    triples = [(t, i, j, k) for t, (i, j) in enumerate(keys) for k in range(n) if k not in (i, j)]
    t, i, j, k = np.array(triples, dtype=int).reshape(-1, 4).T
    triple = (db[k, t] - b[i, k] * b[k, j]).reshape(len(keys), n - 2, npts)
    beta_rows = np.concatenate([triple, sum(db)[:, None], (sum(u * db) + beta[:, 0])[:, None]], axis=1)
    p, q = off_pairs(n)
    lame_rows = (dh[q, p] - b[p, q] * h[q]).reshape(n, n - 1, npts)
    lame_rows = np.concatenate([lame_rows, sum(dh)[:, None], (sum(u * dh) + frame.degree * h)[:, None]], axis=1)
    values = np.concatenate([beta_rows.reshape(-1, npts), lame_rows.reshape(-1, npts)])
    labels = []
    for i, j in keys:
        labels += [("triple", i, j, k) for k in range(n) if k not in (i, j)] + [("beta-e", i, j), ("beta-E", i, j)]
    for i in range(n):
        labels += [("lame", i, j) for j in range(n) if j != i] + [("lame-e", i), ("lame-E", i)]
    return ResidualReport.of("darboux", tolerance, (points, tuple(labels), values))


def darboux_transform(
    frame: RotationFrame,
    gen: ConservationDensity,
    points: Sequence[Point],
    *,
    tolerance: float = TOL_SECOND,
    grading_tol: float = GRADING_TOL,
) -> RotationFrame:
    """Image frame: beta~_ij = beta_ij - (H_i / H_j) d_j ln A, H~_i = H_i / A,
    degree d + k.  biflat_verdict must admit the generator, with the density
    equations taken for the frame's symbols (frame_connection); otherwise an
    InadmissibleGeneratorError names the first of e(A) = 0, E(A) = k A and
    the density equations that fails."""
    A = gen.field
    points = point_set(points)
    e_grading = grading_residual(A, "e", points, grading_tol)
    big_e_grading = grading_residual(A, "E", points, grading_tol)
    dens = ResidualReport.of("density", tolerance, _density_block(frame_connection(frame), A, points))
    verdict = biflat_verdict(dens, e_grading, big_e_grading, grading_tol)
    if not verdict.passed:
        r = {name: rep.max_abs for name, rep in verdict.reports.items()}
        raise InadmissibleGeneratorError({
            "grading-e": f"generator must satisfy e(A) = 0; estimate {verdict.h:.3e}, deviation {r['grading-e']:.3e}",
            "grading-E": f"generator must satisfy E(A) = kA with constant k; deviation {r['grading-E']:.3e}",
            "density": f"generator is not a density for the frame: residual {r['density']:.3e}",
        }[verdict.failed[0]])
    beta_t = {}
    for (i, j), b in frame.beta.items():
        beta_t[(i, j)] = b - (frame.lame[i] / frame.lame[j]) * log_derivative_field(A, j)
    lame_t = tuple(hf / A for hf in frame.lame)
    return RotationFrame(frame.dim, beta_t, lame_t, frame.degree + verdict.k)
