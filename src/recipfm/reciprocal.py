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

import functools
import itertools
import math
import weakref
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
    entries_by_point,
    natural_connection,
    sample_points,
)
from .jets import Jet, Point, PointSet, _unit, point_set

DENSITY_FLOOR = 1e-6
GRADING_TOL = 1e-8
QUAD_NODES = 32
QUAD_REFINE_TOL = 1e-10
QUAD_MAX_PANELS = 64
CHECK_SEED = 42  # sample points of transform's generator check, unless given
CHECK_POINTS = 10

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
    """Off-diagonal rotation coefficients beta_ij, Lame fields H_i, homogeneity degree d."""

    dim: int
    beta: dict
    lame: tuple[ScalarField, ...]
    degree: float

    def __post_init__(self) -> None:
        if len(self.lame) != self.dim:
            raise ReciprocalError(f"need {self.dim} Lame fields, got {len(self.lame)}")
        for i in range(self.dim):
            for j in range(self.dim):
                if i != j and (i, j) not in self.beta:
                    raise ReciprocalError(f"missing rotation coefficient beta[{i},{j}]")

    @functools.cached_property
    def _connection(self) -> ConnectionTable:
        twin = RotationFrame(self.dim, self.beta, self.lame, self.degree)  # holds no table: no reference cycle
        return ConnectionTable(self.dim, "frame", darboux_gamma_off(twin), None)


@dataclass
class TransformResult:
    """Everything the transformation generated by A produces."""

    system: DiagonalSystem
    natural: ConnectionTable
    dual: ConnectionTable | None
    current: ScalarField


def density_window(A: ScalarField) -> Callable[[Point], bool]:
    """Sampling predicate keeping |A| at or above DENSITY_FLOOR."""
    return lambda p: abs(A.value(p)) >= DENSITY_FLOOR


def _pair_index(dim: int, i: int, j: int) -> tuple[int, ...]:
    return tuple((1 if m == i else 0) + (1 if m == j else 0) for m in range(dim))


def _require_nonzero(aj: Jet, points: PointSet) -> np.ndarray:
    """A's values over the points, or a ReciprocalError at the first point
    where |A| is below DENSITY_FLOOR."""
    a0 = np.broadcast_to(aj.value, (len(points),))
    low = np.abs(a0) < DENSITY_FLOOR
    if low.any():
        k = int(np.argmax(low))
        raise ReciprocalError(f"density magnitude {abs(a0[k]):.2e} below {DENSITY_FLOOR} at {points[k]}")
    return a0


def _gradient(aj: Jet) -> list[np.ndarray]:
    return [jets.partial(aj, _unit(aj.dim, l)) for l in range(aj.dim)]


# ---------------------------------------------------------------------------
# Density / grading / compatibility residuals
#
# Each family takes its jets once per point set and works on arrays over the
# points (see geometry).


@jets.quiet
def _density_entries(conn: ConnectionTable, A: ScalarField, points: PointSet):
    dim = conn.dim
    aj = A.jet(points, 2)
    grad = _gradient(aj)
    off = conn.generators(points, 0)[:, :, 0]
    rows = {
        (i, j): jets.partial(aj, _pair_index(dim, i, j)) - off[i, j] * grad[i] - off[j, i] * grad[j]
        for i in range(dim)
        for j in range(i + 1, dim)
    }
    return entries_by_point(points, rows)


def density_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """d_i d_j A - G^i_{ij} d_i A - G^j_{ji} d_j A over unordered pairs i < j."""
    points = point_set(points)
    return ResidualReport.build("density", _density_entries(natural_connection(sys), A, points), tolerance)


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
    s = 0.0
    for l, d in enumerate(_gradient(aj)):
        s = s + (points.coords[l] if field == "E" else 1.0) * d
    ratios = (s / a0).tolist()
    estimate = sum(ratios) / len(ratios)
    entries = [(p, (field,), r - estimate) for p, r in zip(points, ratios)]
    return estimate, ResidualReport.build(f"grading-{field}", entries, tolerance)


@jets.quiet
def a_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The complete second-derivative system for a flatness-preserving density:
    the pairwise density equations plus
    d_p^2 A = -sum_{l != p} d_l d_p A + d_p A (sum_l d_l A) / A."""
    n = sys.dim
    points = point_set(points)
    entries = _density_entries(natural_connection(sys), A, points)
    aj = A.jet(points, 2)
    a0 = _require_nonzero(aj, points)
    grad = _gradient(aj)
    e_of_a = sum(grad)
    rows = {}
    for q in range(n):
        r = jets.partial(aj, _pair_index(n, q, q)) - grad[q] * e_of_a / a0
        for l in range(n):
            if l != q:
                r = r + jets.partial(aj, _pair_index(n, l, q))
        rows[("diag", q)] = r
    entries += entries_by_point(points, rows)
    return ResidualReport.build("a-system", entries, tolerance)


@jets.quiet
def theta_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The same system written for theta_p = d_p ln A (first-order closed form)."""
    n = sys.dim
    points = point_set(points)
    a1 = A.jet(points, 1)
    _require_nonzero(a1, points)
    a2 = A.jet(points, 2)
    theta_jets = [jets.div(jets.derivative(a2, l), a1) for l in range(n)]
    theta = [t.value for t in theta_jets]
    off = natural_connection(sys).generators(points, 0)[:, :, 0]
    rows = {}
    for q in range(n):
        for pp in range(n):
            if pp != q:
                rows[("offdiag", pp, q)] = (
                    jets.partial(theta_jets[pp], _unit(n, q))
                    - theta[pp] * off[pp, q]
                    - theta[q] * off[q, pp]
                    + theta[pp] * theta[q]
                )
    for pp in range(n):
        square = np.array([t**2 for t in theta[pp].tolist()])  # the float power, not numpy's
        r = jets.partial(theta_jets[pp], _unit(n, pp)) + square - theta[pp] * sum(theta)
        for l in range(n):
            if l != pp:
                r = r + (jets.partial(theta_jets[pp], _unit(n, l)) + theta[pp] * theta[l])
        rows[("diag", pp)] = r
    return ResidualReport.build("theta-system", entries_by_point(points, rows), tolerance)


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
    grad = _gradient(aj)
    x_of_a = sum(grad) if product == "circ" else sum(u[l] * grad[l] for l in range(n))
    g = conn.christoffels(points, 0)[..., 0, :]
    rows = {}
    for q in range(n):
        for pp in range(n):
            r = jets.partial(aj, _pair_index(n, q, pp))
            for l in range(n):
                r = r - g[l, q, pp] * grad[l]
            if pp == q:
                c = 1.0 if product == "circ" else 1.0 / u[pp]
                r = r - (x_of_a / a0) * c * grad[pp]
            rows[(q, pp)] = r
    return ResidualReport.build(f"hessian-{product}", entries_by_point(points, rows), tolerance)


# ---------------------------------------------------------------------------
# Current reconstruction


def current_from_density(
    sys: DiagonalSystem,
    A: ScalarField,
    base: Point,
    *,
    axis_order: Sequence[int] | None = None,
) -> ScalarField:
    """The current B with d_i B = v^i d_i A and B(base) = 0.

    Values come from composite Gauss-Legendre quadrature of the exact one-form
    sum_i v^i d_i A du^i along the axis-parallel path base -> p (one coordinate
    at a time, in axis_order); derivatives of the returned field come straight
    from the one-form, so no differentiation of quadrature output ever happens.

    Each segment evaluates its quadrature nodes as point sets, one jet pass per
    set: the 1-panel and 2-panel rules together, then one set per further
    refinement level, until two levels agree to QUAD_REFINE_TOL.  A node set
    that fails a path guard or leaves a field's domain is redone as one-node
    sets through the same integrand, so the first failing node in rule order
    raises its own error, velocity check before density check.  Node sets are
    dropped after use, and with them every memo entry they made.  The
    quadrature values are kept per point set like the field's own memo, so
    jets of several orders over one set run the quadrature once.
    """
    n = sys.dim
    order = tuple(axis_order) if axis_order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ReciprocalError(f"axis_order must be a permutation of 0..{n - 1}, got {order}")
    one_forms = [sys.velocities[i] * partial_field(A, i) for i in range(n)]

    def segment(axis: int, fixed: list[float], lo: float, hi: float) -> float:
        def guarded(ts: np.ndarray) -> list[float]:
            node_set = PointSet([ts if i == axis else np.full(ts.shape, c) for i, c in enumerate(fixed)])
            # the message is read only from a one-node set
            singular = lambda what: PathSingularityError(f"{what} on the segment along u{axis + 1} near {node_set[0]}")
            vals = [v.jet(node_set, 0).value for v in sys.velocities]
            gap = np.inf
            for a in range(n):
                for b in range(a + 1, n):
                    gap = np.minimum(gap, abs(vals[a] - vals[b]))
            if (gap < VELOCITY_GAP).any():
                raise singular("characteristic velocities coincide")
            if (np.abs(A.jet(node_set, 0).value) < DENSITY_FLOOR).any():
                raise singular("density vanishes")
            return np.broadcast_to(one_forms[axis].jet(node_set, 0).value, ts.shape).tolist()

        def integrand_at_nodes(ts: np.ndarray) -> list[float]:
            try:
                return guarded(ts)
            except (ValueError, ArithmeticError):
                if len(ts) == 1:
                    raise
                # redo node by node, so the first failing node raises its own error
                return [y for k in range(len(ts)) for y in guarded(ts[k : k + 1])]

        def nodes(panels: int) -> tuple[np.ndarray, float]:
            width = (hi - lo) / panels
            mids = (lo + np.arange(panels) * width) + 0.5 * width
            half = 0.5 * width
            return (mids[:, None] + half * _GL_XS[None, :]).ravel(), half

        def composite(half: float, f: list[float]) -> float:
            total = 0.0
            for s in range(0, len(f), QUAD_NODES):
                total += half * sum(w * y for w, y in zip(_GL_W, f[s : s + QUAD_NODES]))
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
                    f"quadrature along u{axis + 1} did not settle below {QUAD_REFINE_TOL} "
                    f"({QUAD_MAX_PANELS} panels); the segment likely approaches a singular locus"
                )
            ts, half = nodes(panels)
            prev, cur = cur, composite(half, integrand_at_nodes(ts))
        return cur

    def value_at(p: Point) -> float:
        coords = list(base.coords)
        total = 0.0
        for axis in order:
            if coords[axis] != p[axis]:
                total += segment(axis, coords, coords[axis], p[axis])
                coords[axis] = p[axis]
        return total

    values = weakref.WeakKeyDictionary()

    def fn(points: PointSet, jet_order: int) -> Jet:
        coeffs = np.empty((len(jets.multi_indices(n, jet_order)), len(points)))
        coeffs[0] = jets.memoized(values, points, 0, lambda: [value_at(p) for p in points])
        if jet_order == 0:
            return Jet(n, 0, coeffs)
        grads = [one_forms[i].jet(points, jet_order - 1) for i in range(n)]
        for r, alpha in enumerate(jets.multi_indices(n, jet_order)[1:], start=1):
            i = next(m for m, a in enumerate(alpha) if a > 0)
            beta = tuple(a - (1 if m == i else 0) for m, a in enumerate(alpha))
            coeffs[r] = grads[i].coefficient(beta) / alpha[i]
        return Jet(n, jet_order, coeffs)

    return ScalarField(n, fn, text=f"current[{A.text}]")


# ---------------------------------------------------------------------------
# The transformation itself


def log_derivative_field(A: ScalarField, j: int) -> ScalarField:
    """d_j ln A computed as d_j A / A (no logarithm, so sign of A is free)."""
    return partial_field(A, j) / A


def transformed_off_diagonal(
    base: ConnectionTable, A: ScalarField
) -> Callable[[int, int, PointSet, int], Jet]:
    """Off-diagonal symbols of the image table: G^i_{ij} - d_j A / A."""
    dlog = [log_derivative_field(A, j) for j in range(base.dim)]

    def off(i: int, j: int, points: PointSet, order: int) -> Jet:
        return jets.sub(base.off(i, j, points, order), dlog[j].jet(points, order))

    return off


def transform(
    sys: DiagonalSystem,
    gen: ConservationDensity,
    base: Point,
    with_dual: bool = False,
    *,
    points: Sequence[Point] | None = None,
    check_generator: bool = True,
    tolerance: float = TOL_SECOND,
) -> TransformResult:
    """Apply the transformation generated by gen to the system and its connections.

    The returned natural (and optional dual) tables are assembled from the
    shifted off-diagonal symbols; velocities become A v^i - B with B the
    reconstructed current (evaluated lazily).  With check_generator the
    density equations are verified first (at points, or else at CHECK_POINTS
    points drawn from CHECK_SEED) and an InadmissibleGeneratorError is raised
    on failure; passing False lets deliberately broken generators through so
    the flatness-failure converse can be observed downstream.  The image
    tables share one symbol cache.
    """
    A = gen.field
    if check_generator:
        if points is None:
            points = sample_points(sys.dim, CHECK_POINTS, CHECK_SEED, predicates=(density_window(A),))
        rep = density_residual(sys, A, points, tolerance)
        if not rep.passed:
            worst = rep.worst()
            raise InadmissibleGeneratorError(
                f"generator is not a conservation-law density: residual {rep.max_abs:.3e} "
                f"> {tolerance:.1e} at {worst[0]}"
            )
    current = current_from_density(sys, A, base)
    velocities = tuple(A * sys.velocities[i] - current for i in range(sys.dim))
    off = transformed_off_diagonal(natural_connection(sys), A)
    natural = ConnectionTable(sys.dim, "transformed-natural", off, "natural")
    dual = natural.dual("transformed-dual") if with_dual else None
    return TransformResult(DiagonalSystem(velocities), natural, dual, current)


@jets.quiet
def intrinsic_transformed_gamma(
    base: ConnectionTable, A: ScalarField, product: str, i: int, j: int, k: int, points: Point | PointSet
) -> np.ndarray:
    """Transformed Christoffel values over the points via the structure-tensor formula

        G~^i_{jk} = G^i_{jk} + c^i_{jk} X^l w_l - c^i_{lj} w_k X^l
                    + c^l_{jk} w_l X^i - c^i_{lk} w_j X^l,   w_l = d_l ln A,

    with (c, X) the product tensor and preferred field for 'circ' (c^i_{jk} =
    delta, X = e) or 'star' (c*^i_{jk} = delta / u^i, X = E).  Independent of
    the structural assembly used by the tables; for cross-checking only.
    """
    n = base.dim
    points = point_set(points)
    a1 = A.jet(points, 1)
    a0 = a1.value
    omega = [d / a0 for d in _gradient(a1)]
    if product == "circ":
        c = lambda a, b, d: 1.0 if a == b == d else 0.0
        X = [1.0] * n
    elif product == "star":
        c = lambda a, b, d: (1.0 / points.coords[a]) if a == b == d else 0.0
        X = list(points.coords)
    else:
        raise ReciprocalError(f"product must be 'circ' or 'star', got {product!r}")
    g = base.christoffels(points, 0)[i, j, k, 0]
    g = g + c(i, j, k) * sum(X[l] * omega[l] for l in range(n))
    g = g - sum(c(i, l, j) * X[l] for l in range(n)) * omega[k]
    g = g + sum(c(l, j, k) * omega[l] for l in range(n)) * X[i]
    g = g - sum(c(i, l, k) * X[l] for l in range(n)) * omega[j]
    return g


@jets.quiet
def intrinsic_agreement_report(
    sys: DiagonalSystem,
    A: ScalarField,
    result: TransformResult,
    points: Sequence[Point],
    tolerance: float = 1e-12,
) -> ResidualReport:
    """Componentwise agreement of the structurally assembled transformed tables
    with the structure-tensor route of intrinsic_transformed_gamma."""
    routes = [("circ", result.natural, natural_connection(sys))]
    if result.dual is not None:
        routes.append(("star", result.dual, dual_connection(sys)))
    n = sys.dim
    points = point_set(points)
    rows = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        for product, image, base in routes:
            structural = image.christoffels(points, 0)[i, j, k, 0]
            rows[(product, i, j, k)] = structural - intrinsic_transformed_gamma(base, A, product, i, j, k, points)
    return ResidualReport.build("intrinsic-agreement", entries_by_point(points, rows), tolerance)


# ---------------------------------------------------------------------------
# Bi-flat admissibility and orbit composition


@dataclass(frozen=True)
class BiflatVerdict:
    """h and k are the e- and E-grading estimates; max_abs is the largest
    max_abs of the three reports (NaN if any is NaN); failed names the unmet
    conditions by report name, in the order grading-e, grading-E, density."""

    passed: bool
    h: float
    k: float
    reports: dict
    max_abs: float = 0.0
    failed: tuple[str, ...] = ()


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
    return BiflatVerdict(not failed, h_est, k_est, reports, max_abs, failed)


def biflat_admissibility(
    sys: DiagonalSystem,
    A: ScalarField,
    points: Sequence[Point],
    *,
    tolerance: float = TOL_SECOND,
    grading_tol: float = GRADING_TOL,
) -> BiflatVerdict:
    """Whether A preserves both connections of the system: biflat_verdict
    over the density report (tolerance) and both grading reports (grading_tol)."""
    return biflat_verdict(
        density_residual(sys, A, points, tolerance),
        grading_residual(A, "e", points, grading_tol),
        grading_residual(A, "E", points, grading_tol),
        grading_tol,
    )


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
    pairs = itertools.permutations(range(sys.dim), 2)
    entries = entries_by_point(points, {(i, j): two[i, j] - one[i, j] for i, j in pairs})
    generators = {"gen0": gen0, "gen1": gen1, "composite": product}
    gradings = {name: grading_residual(g.field, "e", points)[0] for name, g in generators.items()}
    entries.append((points[0], ("grading",), gradings["gen1"] - (gradings["composite"] - gradings["gen0"])))
    return ResidualReport.build("orbit-compose", entries, tolerance), gradings


# ---------------------------------------------------------------------------
# Rotation frames


def darboux_gamma_off(frame: RotationFrame) -> Callable[[int, int, PointSet, int], Jet]:
    """Off-diagonal Christoffel symbols (H_j / H_i) beta_ij of a frame."""

    def off(i: int, j: int, points: PointSet, order: int) -> Jet:
        hi = frame.lame[i].jet(points, order)
        hj = frame.lame[j].jet(points, order)
        b = frame.beta[(i, j)].jet(points, order)
        return jets.mul(jets.div(hj, hi), b)

    return off


def frame_connection(frame: RotationFrame) -> ConnectionTable:
    """The generators-only table of a frame's symbols (darboux_gamma_off): one
    per frame, built on first use; residuals that need an assembly reject it."""
    return frame._connection


@jets.quiet
def darboux_residual(
    frame: RotationFrame, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """All six equation families of the homogeneity-augmented rotation system:
    d_k beta_ij = beta_ik beta_kj on distinct triples, e(beta) = 0,
    E(beta) = -beta, d_j H_i = beta_ij H_j, e(H) = 0, E(H) = -d H."""
    n = frame.dim
    points = point_set(points)
    u = points.coords
    beta1 = {key: f.jet(points, 1) for key, f in frame.beta.items()}
    lame1 = [f.jet(points, 1) for f in frame.lame]
    rows = {}
    for (i, j), bj in beta1.items():
        grad = _gradient(bj)
        for k in range(n):
            if k != i and k != j:
                rows[("triple", i, j, k)] = grad[k] - beta1[(i, k)].value * beta1[(k, j)].value
        rows[("beta-e", i, j)] = sum(grad)
        rows[("beta-E", i, j)] = sum(u[l] * grad[l] for l in range(n)) + bj.value
    for i in range(n):
        grad = _gradient(lame1[i])
        for j in range(n):
            if j != i:
                rows[("lame", i, j)] = grad[j] - beta1[(i, j)].value * lame1[j].value
        rows[("lame-e", i)] = sum(grad)
        rows[("lame-E", i)] = sum(u[l] * grad[l] for l in range(n)) + frame.degree * lame1[i].value
    return ResidualReport.build("darboux", entries_by_point(points, rows), tolerance)


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
    dens = ResidualReport.build("density", _density_entries(frame_connection(frame), A, points), tolerance)
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
