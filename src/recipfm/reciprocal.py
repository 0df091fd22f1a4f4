"""Conservation-law densities and the reciprocal transformation they generate.

A density A of a diagonal system satisfies d_i d_j A = G^i_{ij} d_i A + G^j_{ji} d_j A
for i != j; its current B solves d_i B = v^i d_i A.  The change of independent
variables generated by (A, B) maps velocities to A v^i - B and shifts every
off-diagonal Christoffel symbol by -d_j A / A.  This module evaluates the
residual systems governing when that shift preserves flatness of the natural
and dual connections, reconstructs currents by quadrature of the exact
one-form, composes transformations, and applies the same action to rotation
frames: a frame is its two stacks, every off-diagonal rotation coefficient's jet
as one array and every Lame field's as another, and its image is built from
them by jet kernels on those arrays.  A frame reads its own symbols, as a table reads
its generators, so the density equations and the shift rule take either.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .exprlang import ScalarField, stack_of
from .geometry import (
    PRODUCTS,
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
DENSITY_ORDER = 2  # the highest order of A a density check reads: its Hessian, or d ln A in an order-1 image table
GRADING_TOL = 1e-8
QUAD_NODES = 32
QUAD_REFINE_TOL = 1e-10
QUAD_MAX_PANELS = 64

_GL_XS, _GL_WS = np.polynomial.legendre.leggauss(QUAD_NODES)
_GL_W = tuple(float(w) for w in _GL_WS)
_GL_CHECK_XS, _GL_CHECK_WS = np.polynomial.legendre.leggauss(QUAD_NODES // 2)  # the first level's check rule
_GL_CHECK_W = tuple(float(w) for w in _GL_CHECK_WS)
# A 0.0 start for sum: from CPython 3.12, sum compensates (Neumaier) exact floats from an exact float
# or int start, which moves report bits; a float subclass keeps it adding left to right on every Python.
_ZERO = type("LeftToRight", (float,), {})()


@functools.lru_cache(maxsize=None)
def _gl_nodes(panels: int) -> tuple[np.ndarray, float]:
    """The composite rule of `panels` equal panels on [0, 1]: its nodes in rule
    order, panel by panel, and the panels' half width; shared, so read-only."""
    width = 1.0 / panels
    mids = np.arange(panels) * width + 0.5 * width
    half = 0.5 * width
    ts = (mids[:, None] + half * _GL_XS[None, :]).ravel()
    ts.flags.writeable = False
    return ts, half


# the first refinement level's 48 nodes on [0, 1]: the QUAD_NODES-point rule first, so its nodes lead
# in rule order for the path guards, then the QUAD_NODES // 2-point rule that checks its sum
_GL_FIRST = np.concatenate([_gl_nodes(1)[0], 0.5 + 0.5 * _GL_CHECK_XS])
_GL_FIRST.flags.writeable = False


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


@dataclass(frozen=True, eq=False)
class RotationFrame:
    """A rotation frame given by its two stacks and its homogeneity degree d.

    beta_stack(points, order) gives every off-diagonal rotation coefficient
    beta_ij's jet as one array (n(n-1), ncoeff, npoints), in off_pairs order,
    and lame_stack(points, order) every Lame field H_i's as one array (n,
    ncoeff, npoints); each is memoized in the set by beta_jets or lame_jets and
    must not refer to the frame.  The frame's symbols come from generators, as
    a table's do.  Two frames are equal only if they are one object."""

    dim: int
    beta_stack: Callable[[PointSet, int], np.ndarray] = field(repr=False)
    lame_stack: Callable[[PointSet, int], np.ndarray] = field(repr=False)
    degree: float

    @classmethod
    def of_fields(cls, dim: int, beta_by_pair: dict, lame, degree: float) -> "RotationFrame":
        """The frame whose stacks hold the fields' jets: beta_by_pair keyed by
        exactly the pairs i != j (0-based; errors count from 1, as --beta does)."""
        lame = tuple(lame)
        if len(lame) != dim:
            raise ReciprocalError(f"need {dim} Lame fields, got {len(lame)}")
        pairs = pair_labels(dim)
        for key in beta_by_pair:
            if key not in pairs:
                raise ReciprocalError(f"beta[{key[0] + 1},{key[1] + 1}] is not a pair I != J in 1..{dim}")
        missing = [pair for pair in pairs if pair not in beta_by_pair]
        if missing:
            raise ReciprocalError(f"missing rotation coefficient beta[{missing[0][0] + 1},{missing[0][1] + 1}]")
        return cls(dim, stack_of([beta_by_pair[pair] for pair in pairs]), stack_of(lame), degree)

    def beta_jets(self, points: PointSet, order: int) -> np.ndarray:
        """Every beta_ij's jet over the points as one read-only array, the set's memo entry for beta_stack."""
        return jets.memoized(points, self.beta_stack, order, lambda: self.beta_stack(points, order))

    def lame_jets(self, points: PointSet, order: int) -> np.ndarray:
        """Every H_i's jet over the points as one read-only array, the set's memo entry for lame_stack."""
        return jets.memoized(points, self.lame_stack, order, lambda: self.lame_stack(points, order))

    def generators(self, points: PointSet, order: int) -> np.ndarray:
        """Every symbol (H_j / H_i) beta_ij over the points as one read-only array (n, n, ncoeff, npoints), zero
        on the diagonal: one quotient and one product on the stacks, the set's memo entry for generators."""

        def compute() -> np.ndarray:
            n, (i, j) = self.dim, off_pairs(self.dim)
            h, b = self.lame_jets(points, order), self.beta_jets(points, order)
            return pair_table(n, jets.mul(jets.div(h[j], h[i], n), b, n))

        return jets.memoized(points, self.generators, order, compute)


@dataclass
class TransformResult:
    """The image of the transformation generated by A: the transformed system, whose
    velocity stack is A v^i - B over the base system's, and its tables."""

    system: DiagonalSystem
    natural: ConnectionTable
    dual: ConnectionTable | None


def density_window(A: ScalarField, order: int = 0) -> Callable[[PointSet], np.ndarray]:
    """Sampling predicate keeping the points of a set where |A| is at or above
    DENSITY_FLOOR: one bool per point, or one for all of them where A's jet
    has one column (a constant).  It asks for A's jet at order, which the
    set's memo then holds for the checks, and judges off the order-0 jet: the
    memo reads that off the higher jet when it is all finite, and computes it
    when the higher jet is not finite or raised.  So a density whose higher
    rows raise or overflow keeps its points, and its error comes from a check."""

    def window(points: PointSet) -> np.ndarray:
        if order:
            with contextlib.suppress(ValueError, ArithmeticError):
                A.jet(points, order)
        return np.abs(A.jet(points, 0).value) >= DENSITY_FLOOR

    return window


def _require_nonzero(aj: Jet, points: PointSet) -> np.ndarray:
    """A's values over the points, or a ReciprocalError at the first point
    where |A| is below DENSITY_FLOOR."""
    a0 = aj.value if len(aj.value) == len(points) else np.broadcast_to(aj.value, (len(points),))
    low = np.abs(a0) < DENSITY_FLOOR
    if np.count_nonzero(low):
        k = int(np.argmax(low))
        raise ReciprocalError(f"density magnitude {abs(a0[k]):.2e} below {DENSITY_FLOOR} at {points[k]}")
    return a0


# ---------------------------------------------------------------------------
# Density / grading / compatibility residuals
#
# Each family takes its jets once per point set and works on arrays over the
# points (see geometry), reading derivatives with jets.gradient and jets.hessian.
# A sum over a component index stacks its terms in index order on axis 0 and
# adds them one after another (_sum, _diag_rows), from where the loop it
# replaces starts; a sum over l != q adds -0.0 at l = q (x + -0.0 is x), so
# every entry keeps the terms and order of a per-component loop.


def _field_components(field: str, points: PointSet) -> np.ndarray:
    """The components X^l, (n, npoints), of the unit field e (each 1.0) or the Euler field E (u^l) over the points."""
    return points.coords if field == "E" else np.ones(points.coords.shape)


def _sum(terms: np.ndarray) -> np.ndarray:
    """sum(terms), Python's sum over axis 0, bit for bit at any shape: 0 + terms[0] + terms[1] + ...
    accumulate adds one term after another, where a reduce to one value per column may pair them, and
    the closing + 0.0 turns the -0.0 that only a column of -0.0 gives into the 0.0 that sum's 0 start gives."""
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


@functools.lru_cache(maxsize=None)
def _density_plan(n: int) -> tuple[tuple, tuple[np.ndarray, np.ndarray]]:
    """_density_block's labels, the pairs (i, j) with i < j, and their index arrays; shared, so read-only."""
    pairs = np.array(np.triu_indices(n, 1))
    pairs.flags.writeable = False
    return tuple(zip(*pairs.tolist())), tuple(pairs)


@functools.lru_cache(maxsize=None)
def _diag_labels(n: int) -> tuple:
    """The labels ("diag", k) of the systems' diagonal rows."""
    return tuple(("diag", k) for k in range(n))


def _diag_rows(first: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """The rows first[p] + sum over l != p of cross[l, p], in l order: the terms stacked on axis 0 with -0.0 in
    the slot of l = p, added one after another from first, bit for bit the loop over l."""
    d = np.arange(len(first))
    terms = np.empty((len(first) + 1, *first.shape))
    terms[0], terms[1:] = first, cross
    terms[1:][d, d] = -0.0
    return np.add.accumulate(terms, axis=0)[-1]


@functools.lru_cache(maxsize=None)
def _theta_labels(n: int) -> tuple:
    """theta_system_residual's labels: ("offdiag", j, i) per pair (i, j) of off_pairs, then the diagonal's."""
    return tuple(("offdiag", b, a) for a, b in pair_labels(n)) + _diag_labels(n)


@jets.quiet
def _density_block(conn: ConnectionTable | RotationFrame, A: ScalarField, points: PointSet):
    """The density equations' (points, labels, values) block, over unordered pairs i < j, for a table's or a
    frame's symbols."""
    aj = A.jet(points, 2)
    grad, hess = jets.gradient(aj), jets.hessian(aj)
    off = conn.generators(points, 0)[:, :, 0]
    labels, (i, j) = _density_plan(conn.dim)
    return points, labels, hess[i, j] - off[i, j] * grad[i] - off[j, i] * grad[j]


def density_residual(
    sys: DiagonalSystem, A: ScalarField, points: PointSet, tolerance: float = TOL_SECOND
) -> ResidualReport:
    """d_i d_j A - G^i_{ij} d_i A - G^j_{ji} d_j A over unordered pairs i < j."""
    return ResidualReport.of("density", tolerance, _density_block(natural_connection(sys), A, points))


@jets.quiet
def grading_residual(
    A: ScalarField, field: str, points: PointSet, tolerance: float = GRADING_TOL
) -> tuple[float, ResidualReport]:
    """Constancy test for e(A)/A (field 'e') or E(A)/A (field 'E').

    Returns the mean ratio as the grading estimate and a report of the
    deviations from that mean.
    """
    if field not in ("e", "E"):
        raise ReciprocalError(f"field must be 'e' or 'E', got {field!r}")
    aj = A.jet(points, 1)
    a0 = _require_nonzero(aj, points)
    grad = jets.gradient(aj)
    ratios = _sum(_field_components(field, points) * grad) / a0  # e(A) or E(A), over A
    estimate = sum(ratios.tolist(), _ZERO) / len(ratios)  # from _ZERO, so left to right on every Python
    return estimate, ResidualReport.of(f"grading-{field}", tolerance, (points, ((field,),), ratios[None] - estimate))


@jets.quiet
def a_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: PointSet, tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The complete second-derivative system for a flatness-preserving density:
    the pairwise density equations plus
    d_p^2 A = -sum_{l != p} d_l d_p A + d_p A (sum_l d_l A) / A."""
    n = sys.dim
    density = _density_block(natural_connection(sys), A, points)
    aj = A.jet(points, 2)
    a0 = _require_nonzero(aj, points)
    grad, hess = jets.gradient(aj), jets.hessian(aj)
    d = np.arange(n)
    rows = _diag_rows(hess[d, d] - grad * _sum(grad) / a0, hess)  # cross[l, q] = d_l d_q A
    return ResidualReport.of("a-system", tolerance, density, (points, _diag_labels(n), rows))


@jets.quiet
def theta_system_residual(
    sys: DiagonalSystem, A: ScalarField, points: PointSet, tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The same system written for theta_p = d_p ln A (first-order closed form)."""
    n = sys.dim
    a1 = A.jet(points, 1)
    _require_nonzero(a1, points)
    theta_jets = _log_partials(A.jet(points, 2), a1, len(points))
    theta, dtheta = theta_jets[:, 0], jets.gradient(theta_jets, n)  # dtheta[p, l] = d_l theta_p
    off = natural_connection(sys).generators(points, 0)[:, :, 0]
    outer = theta[:, None] * theta  # [p, l] = theta_p theta_l
    q, p = off_pairs(n)  # q-major
    offdiag = dtheta[p, q] - theta[p] * off[p, q] - theta[q] * off[q, p] + outer[p, q]
    square = np.reshape([t**2 for t in theta.ravel().tolist()], theta.shape)  # the float power, not numpy's
    d = np.arange(n)
    diag = _diag_rows(dtheta[d, d] + square - theta * _sum(theta), (dtheta + outer).swapaxes(0, 1))
    return ResidualReport.of("theta-system", tolerance, (points, _theta_labels(n), np.concatenate([offdiag, diag])))


@jets.quiet
def covariant_hessian_residual(
    conn: ConnectionTable, A: ScalarField, points: PointSet, tolerance: float = TOL_SECOND
) -> ResidualReport:
    """Intrinsic form of the same conditions: the covariant Hessian of A must be
    X(ln A) c^l_{pq} d_l A with (c, X) the table's product tensor and field,
    PRODUCTS[conn.assembly]: circ (c^l_{pq} = delta) with e, star (delta / u^l) with E."""
    n, (product, x) = conn.dim, PRODUCTS[conn.assembly]
    X = _field_components(x, points)
    aj = A.jet(points, 2)
    a0 = _require_nonzero(aj, points)
    grad, r = jets.gradient(aj), jets.hessian(aj)
    x_of_a = _sum(X * grad)
    g = conn.christoffels(points, 0)[..., 0, :]
    for l in range(n):
        r = r - g[l] * grad[l]
    d = np.arange(n)
    r[d, d] = r[d, d] - (x_of_a / a0) * (1.0 / X) * grad
    return ResidualReport.of(f"hessian-{product}", tolerance, (points, square_labels(n), r.reshape(n * n, -1)))


# ---------------------------------------------------------------------------
# Current reconstruction


def _composite(weights: tuple[float, ...], half: float, f: list[float]) -> float:
    """The composite sum of the rule with these weights over the integrand values f, panel by panel,
    each left to right."""
    total, m = 0.0, len(weights)
    for s in range(0, len(f), m):
        total += half * sum(map(operator.mul, weights, f[s : s + m]), _ZERO)
    return total


def current_from_density(sys: DiagonalSystem, A: ScalarField, base: Point) -> ScalarField:
    """The current B with d_i B = v^i d_i A and B(base) = 0.

    Values come from composite Gauss-Legendre quadrature of the exact one-form
    sum_i v^i d_i A du^i along the straight segment u(t) = base + t (p - base),
    t in [0, 1].  The form is closed, and a Weyl chamber intersected with an
    orthant is convex, so the segment between two of its points never meets
    u^i = u^j or u^i = 0.  Derivative rows, only when asked and after the
    values, come straight from the one-form: every v^i d_i A as one product
    of velocity_jets and jets.partials of A, laid out by
    jets.from_partials, so no differentiation of quadrature output ever happens.

    Each value evaluates its nodes as point sets, one velocity_jets array and
    one order-1 jet of A per set (feeding the path guards).  The first set is
    the QUAD_NODES-point rule on [0, 1] and then the QUAD_NODES // 2-point rule,
    48 nodes: the value is the 32-point sum when the 16-point sum agrees with it
    to QUAD_REFINE_TOL.  Otherwise the panels double from one, one set per
    level of the 32-point rule on 2, 4, ... QUAD_MAX_PANELS panels, until a
    level agrees with the one before.  The rule is built once per process:
    _gl_nodes(panels) holds each level's nodes on [0, 1] and half width, and
    _GL_FIRST the first set's nodes, all read-only, so a value only maps them
    onto its segment.  A node set that fails a path guard or leaves a field's
    domain is redone as one-node sets through the same integrand, so the first
    failing node in rule order raises its own error, velocity check before
    density check.  Node sets are dropped after use, and with them every memo
    entry they hold.  Over one set, the returned field's order 0 is read off an
    order 1 already held there, so asking order 1 and then order 0 runs the
    quadrature once.
    """
    n = sys.dim
    start = np.array(base.coords)[:, None]
    lo, hi = _density_plan(n)[1]  # the pairs i < j: |v^i - v^j| is |v^j - v^i| bit for bit

    def value_at(p: Point) -> float:
        step = np.array(p.coords)[:, None] - start
        axes = step[:, 0].nonzero()[0]  # a zero step adds no term, not even 0 * inf
        if not axes.size:
            return 0.0
        if axes.size == n:
            axes = slice(None)
        weights = step[axes]

        def guarded(ts: np.ndarray) -> list[float]:
            node_set = PointSet(start + step * ts)
            # the message is read only from a one-node set
            singular = lambda what: PathSingularityError(f"{what} on the segment from {base} to {p} near {node_set[0]}")
            vals = sys.velocity_jets(node_set, 0)[:, 0]
            # the least gap at each node, NaN if any gap is NaN
            if np.count_nonzero(np.minimum.reduce(abs(vals[lo] - vals[hi])) < VELOCITY_GAP):
                raise singular("characteristic velocities coincide")
            aj = A.jet(node_set, 1)
            if np.count_nonzero(np.abs(aj.value) < DENSITY_FLOOR):
                raise singular("density vanishes")
            grad = jets.gradient(aj)
            return _sum(weights * (vals[axes] * grad[axes])).tolist()  # vals spreads: one entry per node

        def integrand_at_nodes(ts: np.ndarray) -> list[float]:
            try:
                return guarded(ts)
            except (ValueError, ArithmeticError):
                # redo node by node, so the first failing node raises its own error
                return [y for k in range(len(ts)) for y in guarded(ts[k : k + 1])]

        f = integrand_at_nodes(_GL_FIRST)
        # 0.5 is [0, 1]'s half width; the 32-point sum is the value, the 16-point sum its check
        cur, prev = _composite(_GL_W, 0.5, f[:QUAD_NODES]), _composite(_GL_CHECK_W, 0.5, f[QUAD_NODES:])
        panels = 1
        while not abs(cur - prev) < QUAD_REFINE_TOL:
            panels *= 2
            if panels > QUAD_MAX_PANELS:
                raise PathSingularityError(
                    f"quadrature on the segment from {base} to {p} did not settle below {QUAD_REFINE_TOL} "
                    f"({QUAD_MAX_PANELS} panels); the segment likely approaches a singular locus"
                )
            ts, half = _gl_nodes(panels)
            prev, cur = cur, _composite(_GL_W, half, integrand_at_nodes(ts))
        return cur

    def fn(points: PointSet, jet_order: int) -> Jet:
        values = [value_at(p) for p in points]
        if jet_order == 0:
            return jets._built(n, 0, np.array([values]))
        v = sys.velocity_jets(points, jet_order - 1)
        out = jets.from_partials(jets.mul(v, jets.partials(A.jet(points, jet_order)), n), n, jet_order)
        out.coeffs[0] = values  # a jet just built: its value row is the quadrature's
        return out

    return ScalarField(n, fn)


# ---------------------------------------------------------------------------
# The transformation itself


def _log_partials(higher: Jet, a: Jet, npoints: int) -> np.ndarray:
    """Every d_l A / A over the points as one array (n, ncoeff, npoints), a constant A's one column spread: bit
    for bit the quotient of entry l of partials(higher) by a, from A's jets a and higher (one order up)."""
    q = jets.div(jets.partials(higher), a.coeffs, a.dim)
    return np.broadcast_to(q, (*q.shape[:-1], npoints))


def transformed_off_diagonal(
    base: ConnectionTable | RotationFrame, A: ScalarField
) -> Callable[[PointSet, int], np.ndarray]:
    """Generator producer of the image table: G^i_{ij} - d_j A / A for every
    pair at once, zero on the diagonal, over a table's or a frame's symbols."""
    n = base.dim

    def generate(points: PointSet, order: int) -> np.ndarray:
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
    points: PointSet | None = None,
    check_generator: bool = True,
) -> TransformResult:
    """Apply the transformation generated by gen to the system and its connections.

    The returned natural (and optional dual) tables are assembled from the
    shifted off-diagonal symbols; the image system's stack is A v^i - B, one
    product of A's jet with the base's velocity stack and one difference,
    with B the reconstructed current (evaluated lazily).  With check_generator the
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
    n, current = sys.dim, current_from_density(sys, A, base)

    def stack(points: PointSet, order: int) -> np.ndarray:  # A v^i - B for every i at once
        a, v = A.jet(points, order).coeffs, sys.velocity_jets(points, order)
        return jets.mul(a, v, n) - current.jet(points, order).coeffs

    natural = ConnectionTable(n, transformed_off_diagonal(natural_connection(sys), A), "natural")
    dual = natural.dual() if with_dual else None
    return TransformResult(DiagonalSystem(n, stack), natural, dual)


@jets.quiet
def intrinsic_transformed_gamma(base: ConnectionTable, A: ScalarField, points: PointSet) -> np.ndarray:
    """The transformed table over the points, one array (n, n, n, npoints)
    whose [i, j, k] holds G~^i_{jk}, via the structure-tensor formula

        G~^i_{jk} = G^i_{jk} + c^i_{jk} X^l w_l - c^i_{lj} w_k X^l
                    + c^l_{jk} w_l X^i - c^i_{lk} w_j X^l,   w_l = d_l ln A,

    with (c, X) the base's product tensor and field, PRODUCTS[base.assembly]:
    circ (c^i_{jk} = delta) with e or star (c*^i_{jk} = delta / u^i) with E.
    It reads only the assembly's name, not the structural assembly of the
    image tables; for cross-checking only.
    """
    n = base.dim
    a1 = A.jet(points, 1)
    w = jets.gradient(a1) / a1.value
    X = _field_components(PRODUCTS[base.assembly][1], points)
    c = np.zeros((n, n, n, len(points)))
    d = np.arange(n)
    c[d, d, d] = 1.0 / X
    xw = _sum(X * w)  # X^l w_l
    cx = _sum(c.swapaxes(0, 1) * X[:, None, None])  # [a, b] = c^a_{lb} X^l
    cw = _sum(c * w[:, None, None])  # [j, k] = c^l_{jk} w_l
    g = base.christoffels(points, 0)[..., 0, :] + c * xw
    g = g - cx[:, :, None] * w[None, None, :]
    g = g + cw[None] * X[:, None, None]
    return g - cx[:, None, :] * w[None, :, None]


@functools.lru_cache(maxsize=None)
def _agreement_labels(n: int, products: tuple[str, ...]) -> tuple:
    """intrinsic_agreement_report's labels (product, i, j, k): i, j, k-major, the products inner."""
    return tuple((product, *ijk) for ijk in itertools.product(range(n), repeat=3) for product in products)


@jets.quiet
def intrinsic_agreement_report(
    sys: DiagonalSystem,
    A: ScalarField,
    result: TransformResult,
    points: PointSet,
    tolerance: float = 1e-12,
    *,
    first: int | None = None,
) -> ResidualReport:
    """Componentwise agreement of the structurally assembled transformed tables
    with the structure-tensor route of intrinsic_transformed_gamma.  Both are
    evaluated over the whole set, so tables already cached for it are reused;
    with first, the report keeps the entries of the first points only."""
    routes = [(result.natural, natural_connection(sys))]
    if result.dual is not None:
        routes.append((result.dual, dual_connection(sys)))
    n = sys.dim
    kept = points if first is None else point_set(points[:first])
    diffs = {  # by the base's product: circ, then star
        PRODUCTS[base.assembly][0]: image.christoffels(points, 0)[..., 0, :] - intrinsic_transformed_gamma(base, A, points)
        for image, base in routes
    }
    labels = _agreement_labels(n, tuple(diffs))
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
    points: PointSet,
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
    step1 = transform(sys, gen0, base, points=points)
    step2 = transform(step1.system, gen1, base, points=points)
    times = lambda p, order: jets.mul(gen0.field.jet(p, order), gen1.field.jet(p, order))  # gen0's jet first
    product = ConservationDensity(ScalarField(sys.dim, times))
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


@functools.lru_cache(maxsize=None)
def _darboux_plan(n: int) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """darboux_residual's labels, at each pair in off_pairs order its triple, beta-e and beta-E rows, then
    each H_i's, and its triples' index arrays (t, i, j, k), t the pair's position; shared, so read-only."""
    labels, triples = [], []
    for t, (i, j) in enumerate(pair_labels(n)):
        third = [k for k in range(n) if k not in (i, j)]
        labels += [("triple", i, j, k) for k in third] + [("beta-e", i, j), ("beta-E", i, j)]
        triples += [(t, i, j, k) for k in third]
    for i in range(n):
        labels += [("lame", i, j) for j in range(n) if j != i] + [("lame-e", i), ("lame-E", i)]
    index = np.array(triples, dtype=int).reshape(-1, 4).T
    index.flags.writeable = False
    return tuple(labels), tuple(index)


@jets.quiet
def darboux_residual(frame: RotationFrame, points: PointSet, tolerance: float = TOL_SECOND) -> ResidualReport:
    """All six equation families of the homogeneity-augmented rotation system:
    d_k beta_ij = beta_ik beta_kj on distinct triples, e(beta) = 0,
    E(beta) = -beta, d_j H_i = beta_ij H_j, e(H) = 0, E(H) = -d H."""
    n = frame.dim
    u, npts = points.coords[:, None], len(points)
    beta, lame = frame.beta_jets(points, 1), frame.lame_jets(points, 1)
    db, dh = (jets.gradient(f, n).swapaxes(0, 1) for f in (beta, lame))  # [l, a] = d_l of the a-th field
    b, h = pair_table(n, beta[:, 0]), lame[:, 0]
    labels, (t, i, j, k) = _darboux_plan(n)
    triple = (db[k, t] - b[i, k] * b[k, j]).reshape(n * (n - 1), n - 2, npts)
    beta_rows = np.concatenate([triple, _sum(db)[:, None], (_sum(u * db) + beta[:, 0])[:, None]], axis=1)
    p, q = off_pairs(n)
    lame_rows = (dh[q, p] - b[p, q] * h[q]).reshape(n, n - 1, npts)
    lame_rows = np.concatenate([lame_rows, _sum(dh)[:, None], (_sum(u * dh) + frame.degree * h)[:, None]], axis=1)
    values = np.concatenate([beta_rows.reshape(-1, npts), lame_rows.reshape(-1, npts)])
    return ResidualReport.of("darboux", tolerance, (points, labels, values))


def darboux_transform(
    frame: RotationFrame,
    gen: ConservationDensity,
    points: PointSet,
    *,
    tolerance: float = TOL_SECOND,
    grading_tol: float = GRADING_TOL,
) -> RotationFrame:
    """Image frame: beta~_ij = beta_ij - (H_i / H_j) d_j ln A, H~_i = H_i / A,
    degree d + k, its stacks jet kernels on the frame's stacks, A's jet and
    its partials.  biflat_verdict must admit the generator, with the density
    equations taken for the frame's own symbols (generators); otherwise an
    InadmissibleGeneratorError names the first of e(A) = 0, E(A) = k A and
    the density equations that fails."""
    A = gen.field
    e_grading = grading_residual(A, "e", points, grading_tol)
    big_e_grading = grading_residual(A, "E", points, grading_tol)
    dens = ResidualReport.of("density", tolerance, _density_block(frame, A, points))
    verdict = biflat_verdict(dens, e_grading, big_e_grading, grading_tol)
    if not verdict.passed:
        r = {name: rep.max_abs for name, rep in verdict.reports.items()}
        raise InadmissibleGeneratorError({
            "grading-e": f"generator must satisfy e(A) = 0; estimate {verdict.h:.3e}, deviation {r['grading-e']:.3e}",
            "grading-E": f"generator must satisfy E(A) = kA with constant k; deviation {r['grading-E']:.3e}",
            "density": f"generator is not a density for the frame: residual {r['density']:.3e}",
        }[verdict.failed[0]])
    n, (i, j) = frame.dim, off_pairs(frame.dim)

    def beta_stack(points: PointSet, order: int) -> np.ndarray:  # beta_ij - (H_i / H_j) d_j A / A, every pair at once
        b, h = frame.beta_jets(points, order), frame.lame_jets(points, order)
        dlog = _log_partials(A.jet(points, order + 1), A.jet(points, order), len(points))
        return b - jets.mul(jets.div(h[i], h[j], n), dlog[j], n)

    def lame_stack(points: PointSet, order: int) -> np.ndarray:  # H_i / A, every i at once
        return jets.div(frame.lame_jets(points, order), A.jet(points, order).coeffs, n)

    return RotationFrame(n, beta_stack, lame_stack, frame.degree + verdict.k)
