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
    christoffel_primary,
    dual_connection,
    natural_connection,
    sample_points,
)
from .jets import Jet, Point, PointBatch, _unit

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


@dataclass
class TransformResult:
    """Everything the transformation generated by A produces."""

    system: DiagonalSystem
    natural: ConnectionTable
    dual: ConnectionTable | None
    generator: ConservationDensity
    current: ScalarField


def density_window(A: ScalarField, floor: float = DENSITY_FLOOR) -> Callable[[Point], bool]:
    """Sampling predicate keeping |A| away from zero."""
    return lambda p: abs(A.value(p)) >= floor


def _pair_index(dim: int, i: int, j: int) -> tuple[int, ...]:
    return tuple((1 if m == i else 0) + (1 if m == j else 0) for m in range(dim))


def _require_nonzero(A: ScalarField, p: Point) -> float:
    a0 = A.value(p)
    if abs(a0) < DENSITY_FLOOR:
        raise ReciprocalError(f"density magnitude {abs(a0):.2e} below {DENSITY_FLOOR} at {p}")
    return a0


# ---------------------------------------------------------------------------
# Density / grading / compatibility residuals


def _density_entries(off: Callable[[int, int, Point, int], Jet], A: ScalarField, points, dim: int):
    entries = []
    for p in points:
        aj = A.jet(p, 2)
        grad = [jets.partial(aj, _unit(dim, l)) for l in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                r = (
                    jets.partial(aj, _pair_index(dim, i, j))
                    - off(i, j, p, 0).value * grad[i]
                    - off(j, i, p, 0).value * grad[j]
                )
                entries.append((p, (i, j), r))
    return entries


def density_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """d_i d_j A - G^i_{ij} d_i A - G^j_{ji} d_j A over unordered pairs i < j."""
    off = lambda i, j, p, order: christoffel_primary(sys, i, j, p, order)
    return ResidualReport.build("density", _density_entries(off, A, points, sys.dim), tolerance)


def grading_residual(
    A: ScalarField, field: str, points: Sequence[Point], tolerance: float = GRADING_TOL
) -> tuple[float, ResidualReport]:
    """Constancy test for e(A)/A (field 'e') or E(A)/A (field 'E').

    Returns the mean ratio as the grading estimate and a report of the
    deviations from that mean.
    """
    if field not in ("e", "E"):
        raise ReciprocalError(f"field must be 'e' or 'E', got {field!r}")
    n = A.dim
    ratios = []
    for p in points:
        a0 = _require_nonzero(A, p)
        aj = A.jet(p, 1)
        s = 0.0
        for l in range(n):
            w = p[l] if field == "E" else 1.0
            s += w * jets.partial(aj, _unit(n, l))
        ratios.append(s / a0)
    estimate = sum(ratios) / len(ratios)
    entries = [(p, (field,), r - estimate) for p, r in zip(points, ratios)]
    return estimate, ResidualReport.build(f"grading-{field}", entries, tolerance)


def a_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The complete second-derivative system for a flatness-preserving density:
    the pairwise density equations plus
    d_p^2 A = -sum_{l != p} d_l d_p A + d_p A (sum_l d_l A) / A."""
    n = sys.dim
    entries = _density_entries(lambda i, j, p, o: christoffel_primary(sys, i, j, p, o), A, points, n)
    for p in points:
        a0 = _require_nonzero(A, p)
        aj = A.jet(p, 2)
        grad = [jets.partial(aj, _unit(n, l)) for l in range(n)]
        e_of_a = sum(grad)
        for q in range(n):
            r = jets.partial(aj, _pair_index(n, q, q)) - grad[q] * e_of_a / a0
            for l in range(n):
                if l != q:
                    r += jets.partial(aj, _pair_index(n, l, q))
            entries.append((p, ("diag", q), r))
    return ResidualReport.build("a-system", entries, tolerance)


def theta_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The same system written for theta_p = d_p ln A (first-order closed form)."""
    n = sys.dim
    conn = natural_connection(sys)
    entries = []
    for p in points:
        _require_nonzero(A, p)
        a1 = A.jet(p, 1)
        a2 = A.jet(p, 2)
        theta_jets = [jets.div(jets.derivative(a2, l), a1) for l in range(n)]
        theta = [t.value for t in theta_jets]
        for q in range(n):
            for pp in range(n):
                if pp == q:
                    continue
                r = (
                    jets.partial(theta_jets[pp], _unit(n, q))
                    - theta[pp] * conn.off(pp, q, p, 0).value
                    - theta[q] * conn.off(q, pp, p, 0).value
                    + theta[pp] * theta[q]
                )
                entries.append((p, ("offdiag", pp, q), r))
        for pp in range(n):
            r = (
                jets.partial(theta_jets[pp], _unit(n, pp))
                + theta[pp] ** 2
                - theta[pp] * sum(theta)
            )
            for l in range(n):
                if l != pp:
                    r += jets.partial(theta_jets[pp], _unit(n, l)) + theta[pp] * theta[l]
            entries.append((p, ("diag", pp), r))
    return ResidualReport.build("theta-system", entries, tolerance)


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
    entries = []
    for p in points:
        a0 = _require_nonzero(A, p)
        aj = A.jet(p, 2)
        grad = [jets.partial(aj, _unit(n, l)) for l in range(n)]
        if product == "circ":
            x_of_a = sum(grad)
        else:
            x_of_a = sum(p[l] * grad[l] for l in range(n))
        for q in range(n):
            for pp in range(n):
                r = jets.partial(aj, _pair_index(n, q, pp))
                for l in range(n):
                    r -= conn.gamma(l, q, pp, p, 0).value * grad[l]
                if pp == q:
                    c = 1.0 if product == "circ" else 1.0 / p[pp]
                    r -= (x_of_a / a0) * c * grad[pp]
                entries.append((p, (q, pp), r))
    return ResidualReport.build(f"hessian-{product}", entries, tolerance)


# ---------------------------------------------------------------------------
# Current reconstruction


def current_from_density(
    sys: DiagonalSystem,
    A: ScalarField,
    base: Point,
    *,
    axis_order: Sequence[int] | None = None,
    refine_tol: float = QUAD_REFINE_TOL,
) -> ScalarField:
    """The current B with d_i B = v^i d_i A and B(base) = 0.

    Values come from composite Gauss-Legendre quadrature of the exact one-form
    sum_i v^i d_i A du^i along the axis-parallel path base -> p (one coordinate
    at a time, in axis_order); derivatives of the returned field come straight
    from the one-form, so no differentiation of quadrature output ever happens.

    Each segment evaluates its quadrature nodes as PointBatches, one jet pass
    per batch: the 1-panel and 2-panel rules together, then one batch per
    further refinement level.  A batch that fails a path guard or leaves a
    field's domain is redone node by node, so the error raised is the one at
    the first failing node in rule order, velocity check before density check.
    """
    n = sys.dim
    order = tuple(axis_order) if axis_order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ReciprocalError(f"axis_order must be a permutation of 0..{n - 1}, got {order}")
    one_forms = [sys.velocities[i] * partial_field(A, i) for i in range(n)]
    values: dict[Point, float] = {}

    def guard(q: Point, axis: int) -> None:
        vals = sys.velocity_values(q)
        gap = min(
            abs(vals[a] - vals[b]) for a in range(n) for b in range(a + 1, n)
        )
        if gap < VELOCITY_GAP:
            raise PathSingularityError(
                f"characteristic velocities coincide on the segment along u{axis + 1} near {q}"
            )
        if abs(A.value(q)) < DENSITY_FLOOR:
            raise PathSingularityError(
                f"density vanishes on the segment along u{axis + 1} near {q}"
            )

    def segment(axis: int, fixed: list[float], lo: float, hi: float) -> float:
        def integrand(t: float) -> float:
            coords = list(fixed)
            coords[axis] = t
            q = Point(tuple(coords))
            guard(q, axis)
            return one_forms[axis].value(q)

        def integrand_at_nodes(ts: np.ndarray) -> list[float]:
            batch = PointBatch([ts if i == axis else np.full(ts.shape, c) for i, c in enumerate(fixed)])
            # values are arrays over the nodes, or floats where a field is constant
            try:
                vals = sys.velocity_values(batch)
                gap = np.inf
                for a in range(n):
                    for b in range(a + 1, n):
                        gap = np.minimum(gap, abs(vals[a] - vals[b]))
                dens = abs(A.value(batch))
                f = one_forms[axis].value(batch)
                admissible = np.all((gap >= VELOCITY_GAP) & (dens >= DENSITY_FLOOR))  # NaN fails too
            except (ValueError, ArithmeticError):
                admissible = False
            if not admissible:  # redo node by node, so the first failing node raises its own error
                return [integrand(t) for t in ts.tolist()]
            return np.broadcast_to(f, ts.shape).tolist()

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
        while not abs(cur - prev) < refine_tol:
            panels *= 2
            if panels > QUAD_MAX_PANELS:
                raise PathSingularityError(
                    f"quadrature along u{axis + 1} did not settle below {refine_tol} "
                    f"({QUAD_MAX_PANELS} panels); the segment likely approaches a singular locus"
                )
            ts, half = nodes(panels)
            prev, cur = cur, composite(half, integrand_at_nodes(ts))
        return cur

    def value_at(p: Point) -> float:
        got = values.get(p)
        if got is not None:
            return got
        coords = list(base.coords)
        total = 0.0
        for axis in order:
            if coords[axis] != p[axis]:
                total += segment(axis, coords, coords[axis], p[axis])
                coords[axis] = p[axis]
        values[p] = total
        return total

    def fn(p: Point | PointBatch, jet_order: int) -> Jet:
        if isinstance(p, PointBatch):
            b0 = np.array([value_at(p.point(k)) for k in range(p.npoints)])
        else:
            b0 = value_at(p)
        if jet_order == 0:
            return jets.constant(n, 0, b0)
        grads = [one_forms[i].jet(p, jet_order - 1) for i in range(n)]
        idx = jets.multi_indices(n, jet_order)
        coeffs = [b0]
        for alpha in idx[1:]:
            i = next(m for m, a in enumerate(alpha) if a > 0)
            beta = tuple(a - (1 if m == i else 0) for m, a in enumerate(alpha))
            coeffs.append(grads[i].coefficient(beta) / alpha[i])
        return Jet(n, jet_order, tuple(coeffs))

    return ScalarField(n, fn, text=f"current[{A.text}]")


# ---------------------------------------------------------------------------
# The transformation itself


def log_derivative_field(A: ScalarField, j: int) -> ScalarField:
    """d_j ln A computed as d_j A / A (no logarithm, so sign of A is free)."""
    return partial_field(A, j) / A


def transformed_off_diagonal(
    base: ConnectionTable, A: ScalarField
) -> Callable[[int, int, Point, int], Jet]:
    """Off-diagonal symbols of the image table: G^i_{ij} - d_j A / A."""
    dlog = [log_derivative_field(A, j) for j in range(base.dim)]

    def off(i: int, j: int, p: Point, order: int) -> Jet:
        return jets.sub(base.off(i, j, p, order), dlog[j].jet(p, order))

    return off


def transform(
    sys: DiagonalSystem,
    gen: ConservationDensity,
    base: Point,
    with_dual: bool = False,
    *,
    points: Sequence[Point] | None = None,
    seed: int = 42,
    check_points: int = 10,
    check_generator: bool = True,
    tolerance: float = TOL_SECOND,
) -> TransformResult:
    """Apply the transformation generated by gen to the system and its connections.

    The returned natural (and optional dual) tables are assembled from the
    shifted off-diagonal symbols; velocities become A v^i - B with B the
    reconstructed current (evaluated lazily).  With check_generator the
    density equations are verified first and an InadmissibleGeneratorError
    is raised on failure; passing False lets deliberately broken generators
    through so the flatness-failure converse can be observed downstream.
    """
    A = gen.field
    if check_generator:
        pts = list(points) if points is not None else sample_points(
            sys.dim, check_points, seed, predicates=(density_window(A),)
        )
        rep = density_residual(sys, A, pts, tolerance)
        if not rep.passed:
            worst = rep.worst()
            raise InadmissibleGeneratorError(
                f"generator is not a conservation-law density: residual {rep.max_abs:.3e} "
                f"> {tolerance:.1e} at {worst[0]}"
            )
    current = current_from_density(sys, A, base)
    velocities = tuple(A * sys.velocities[i] - current for i in range(sys.dim))
    base_table = natural_connection(sys)
    off = transformed_off_diagonal(base_table, A)
    natural = ConnectionTable(sys.dim, "transformed-natural", off_diagonal=off, assembly="natural")
    dual = (
        ConnectionTable(sys.dim, "transformed-dual", off_diagonal=off, assembly="dual")
        if with_dual
        else None
    )
    return TransformResult(DiagonalSystem(velocities), natural, dual, gen, current)


def intrinsic_transformed_gamma(
    base: ConnectionTable, A: ScalarField, product: str, i: int, j: int, k: int, p: Point
) -> float:
    """Transformed Christoffel value via the structure-tensor formula

        G~^i_{jk} = G^i_{jk} + c^i_{jk} X^l w_l - c^i_{lj} w_k X^l
                    + c^l_{jk} w_l X^i - c^i_{lk} w_j X^l,   w_l = d_l ln A,

    with (c, X) the product tensor and preferred field for 'circ' (c^i_{jk} =
    delta, X = e) or 'star' (c*^i_{jk} = delta / u^i, X = E).  Independent of
    the structural assembly used by the tables; for cross-checking only.
    """
    n = base.dim
    a1 = A.jet(p, 1)
    a0 = a1.value
    omega = [jets.partial(a1, _unit(n, l)) / a0 for l in range(n)]
    if product == "circ":
        c = lambda a, b, d: 1.0 if a == b == d else 0.0
        X = [1.0] * n
    elif product == "star":
        c = lambda a, b, d: (1.0 / p[a]) if a == b == d else 0.0
        X = list(p.coords)
    else:
        raise ReciprocalError(f"product must be 'circ' or 'star', got {product!r}")
    g = base.gamma(i, j, k, p, 0).value
    g += c(i, j, k) * sum(X[l] * omega[l] for l in range(n))
    g -= sum(c(i, l, j) * X[l] for l in range(n)) * omega[k]
    g += sum(c(l, j, k) * omega[l] for l in range(n)) * X[i]
    g -= sum(c(i, l, k) * X[l] for l in range(n)) * omega[j]
    return g


def intrinsic_agreement_report(
    sys: DiagonalSystem,
    A: ScalarField,
    result: TransformResult,
    points: Sequence[Point],
    tolerance: float = 1e-12,
) -> ResidualReport:
    """Componentwise agreement of the structurally assembled transformed tables
    with the structure-tensor route of intrinsic_transformed_gamma."""
    nat = natural_connection(sys)
    du = dual_connection(sys) if result.dual is not None else None
    n = sys.dim
    entries = []
    for p in points:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    structural = result.natural.gamma(i, j, k, p, 0).value
                    entries.append(
                        (p, ("circ", i, j, k), structural - intrinsic_transformed_gamma(nat, A, "circ", i, j, k, p))
                    )
                    if du is not None:
                        structural = result.dual.gamma(i, j, k, p, 0).value
                        entries.append(
                            (p, ("star", i, j, k), structural - intrinsic_transformed_gamma(du, A, "star", i, j, k, p))
                        )
    return ResidualReport.build("intrinsic-agreement", entries, tolerance)


# ---------------------------------------------------------------------------
# Bi-flat admissibility and orbit composition


@dataclass(frozen=True)
class BiflatVerdict:
    passed: bool
    h: float
    k: float
    reports: dict


def biflat_admissibility(
    sys: DiagonalSystem,
    A: ScalarField,
    points: Sequence[Point],
    *,
    tolerance: float = TOL_SECOND,
    grading_tol: float = GRADING_TOL,
) -> BiflatVerdict:
    """Whether A preserves both connections: density equations, e(A) = 0,
    and E(A) = k A for a constant k."""
    dens = density_residual(sys, A, points, tolerance)
    h_est, e_rep = grading_residual(A, "e", points, grading_tol)
    k_est, big_e_rep = grading_residual(A, "E", points, grading_tol)
    passed = dens.passed and e_rep.passed and abs(h_est) <= grading_tol and big_e_rep.passed
    return BiflatVerdict(
        passed, h_est, k_est, {"density": dens, "grading-e": e_rep, "grading-E": big_e_rep}
    )


def orbit_compose(
    sys: DiagonalSystem,
    gen0: ConservationDensity,
    gen1: ConservationDensity,
    points: Sequence[Point],
    base: Point,
    tolerance: float = 1e-10,
) -> ResidualReport:
    """Two successive transformations against the single one generated by the product.

    The two-step route recovers the intermediate Christoffel symbols from the
    transformed velocities (current included), so it genuinely retraces the
    pipeline; the one-step route uses the product density gen0.A * gen1.A
    directly.  A final entry checks the grading bookkeeping
    grading(gen1) = grading(product) - grading(gen0).
    """
    step1 = transform(sys, gen0, base, points=points)
    step2 = transform(step1.system, gen1, base, points=points)
    product = ConservationDensity(gen0.field * gen1.field)
    direct = transform(sys, product, base, points=points)
    entries = []
    for p in points:
        for i in range(sys.dim):
            for j in range(sys.dim):
                if i == j:
                    continue
                two = step2.natural.off(i, j, p, 0).value
                one = direct.natural.off(i, j, p, 0).value
                entries.append((p, (i, j), two - one))
    g0, _ = grading_residual(gen0.field, "e", points)
    g1, _ = grading_residual(gen1.field, "e", points)
    gc, _ = grading_residual(product.field, "e", points)
    entries.append((points[0], ("grading",), g1 - (gc - g0)))
    return ResidualReport.build("orbit-compose", entries, tolerance)


# ---------------------------------------------------------------------------
# Rotation frames


def darboux_gamma_off(frame: RotationFrame) -> Callable[[int, int, Point, int], Jet]:
    """Off-diagonal Christoffel symbols (H_j / H_i) beta_ij of a frame."""

    def off(i: int, j: int, p: Point, order: int) -> Jet:
        hi = frame.lame[i].jet(p, order)
        hj = frame.lame[j].jet(p, order)
        b = frame.beta[(i, j)].jet(p, order)
        return jets.mul(jets.div(hj, hi), b)

    return off


def darboux_residual(
    frame: RotationFrame, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """All six equation families of the homogeneity-augmented rotation system:
    d_k beta_ij = beta_ik beta_kj on distinct triples, e(beta) = 0,
    E(beta) = -beta, d_j H_i = beta_ij H_j, e(H) = 0, E(H) = -d H."""
    n = frame.dim
    entries = []
    for p in points:
        beta1 = {key: f.jet(p, 1) for key, f in frame.beta.items()}
        lame1 = [f.jet(p, 1) for f in frame.lame]
        for (i, j), bj in beta1.items():
            for k in range(n):
                if k != i and k != j:
                    r = jets.partial(bj, _unit(n, k)) - beta1[(i, k)].value * beta1[(k, j)].value
                    entries.append((p, ("triple", i, j, k), r))
            e_b = sum(jets.partial(bj, _unit(n, l)) for l in range(n))
            entries.append((p, ("beta-e", i, j), e_b))
            big_e_b = sum(p[l] * jets.partial(bj, _unit(n, l)) for l in range(n))
            entries.append((p, ("beta-E", i, j), big_e_b + bj.value))
        for i in range(n):
            for j in range(n):
                if j != i:
                    r = jets.partial(lame1[i], _unit(n, j)) - beta1[(i, j)].value * lame1[j].value
                    entries.append((p, ("lame", i, j), r))
            e_h = sum(jets.partial(lame1[i], _unit(n, l)) for l in range(n))
            entries.append((p, ("lame-e", i), e_h))
            big_e_h = sum(p[l] * jets.partial(lame1[i], _unit(n, l)) for l in range(n))
            entries.append((p, ("lame-E", i), big_e_h + frame.degree * lame1[i].value))
    return ResidualReport.build("darboux", entries, tolerance)


def darboux_transform(
    frame: RotationFrame,
    gen: ConservationDensity,
    points: Sequence[Point],
    *,
    tolerance: float = TOL_SECOND,
    grading_tol: float = GRADING_TOL,
) -> RotationFrame:
    """Image frame: beta~_ij = beta_ij - (H_i / H_j) d_j ln A, H~_i = H_i / A,
    degree d + k.  The generator must satisfy e(A) = 0, E(A) = k A and the
    density equations for the frame's Christoffel symbols."""
    A = gen.field
    h_est, e_rep = grading_residual(A, "e", points, grading_tol)
    if not e_rep.passed or abs(h_est) > grading_tol:
        raise InadmissibleGeneratorError(
            f"generator must satisfy e(A) = 0; estimate {h_est:.3e}, deviation {e_rep.max_abs:.3e}"
        )
    k_est, big_e_rep = grading_residual(A, "E", points, grading_tol)
    if not big_e_rep.passed:
        raise InadmissibleGeneratorError(
            f"generator must satisfy E(A) = kA with constant k; deviation {big_e_rep.max_abs:.3e}"
        )
    dens = ResidualReport.build(
        "density", _density_entries(darboux_gamma_off(frame), A, points, frame.dim), tolerance
    )
    if not dens.passed:
        raise InadmissibleGeneratorError(
            f"generator is not a density for the frame: residual {dens.max_abs:.3e}"
        )
    beta_t = {}
    for (i, j), b in frame.beta.items():
        beta_t[(i, j)] = b - (frame.lame[i] / frame.lame[j]) * log_derivative_field(A, j)
    lame_t = tuple(hf / A for hf in frame.lame)
    return RotationFrame(frame.dim, beta_t, lame_t, frame.degree + k_est)
