"""Connections of diagonal systems and their curvature / compatibility residuals.

A diagonal system carries characteristic velocity fields v^i.  Its off-diagonal
Christoffel symbols G^i_{ij} = d_j v^i / (v^j - v^i) determine a unique
"natural" connection through three structural identities (zero on distinct
triples, G^i_{jj} = -G^i_{ji}, zero row sums including the diagonal), and a
"dual" connection through the u-weighted variants of the same identities.
Every flatness and compatibility check here is a pointwise residual evaluated
through third-order jets over a set of seeded sample points at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import jets
from .exprlang import ScalarField
from .jets import Jet, Point, PointSet, point_set, quiet

TOL_SECOND = 1e-8  # residuals built from second derivatives of the inputs
TOL_THIRD = 1e-6  # residuals built from third derivatives
MIN_PAIR_GAP = 0.25
VELOCITY_GAP = 1e-9
MAX_REJECTIONS = 1000


class GeometryError(ValueError):
    pass


class DegenerateSystemError(GeometryError):
    """Characteristic velocities coincide at an evaluation point."""


class SamplingError(GeometryError):
    """The admissible sample region was exhausted."""


@dataclass(frozen=True)
class DiagonalSystem:
    """A diagonal quasilinear system given by its characteristic velocity fields."""

    velocities: tuple[ScalarField, ...]

    def __post_init__(self) -> None:
        if len(self.velocities) < 2:
            raise GeometryError("a diagonal system needs at least 2 components")
        dims = {v.dim for v in self.velocities}
        if dims != {len(self.velocities)}:
            raise GeometryError(f"velocity fields must all live on {len(self.velocities)} coordinates")

    @property
    def dim(self) -> int:
        return len(self.velocities)

    @functools.cached_property
    def _natural(self) -> "ConnectionTable":
        twin = DiagonalSystem(self.velocities)  # an equal system that holds no table: no reference cycle
        off = lambda i, j, points, order: christoffel_primary(twin, i, j, points, order)
        return ConnectionTable(self.dim, "natural", off, "natural")


@dataclass(frozen=True)
class ResidualReport:
    """Residual values over sample points; passes iff every entry is finite and
    max |entry| <= tolerance.  max_abs is NaN if any entry is NaN, else inf if
    any entry is infinite, whatever the entry order."""

    label: str
    entries: tuple[tuple[Point, tuple, float], ...]
    tolerance: float
    max_abs: float
    passed: bool

    @staticmethod
    def build(label: str, entries: Iterable[tuple[Point, tuple, float]], tolerance: float) -> "ResidualReport":
        entries = tuple(entries)
        max_abs = max((_magnitude(e[2]) for e in entries), default=0.0)
        if max_abs == math.inf and any(math.isnan(e[2]) for e in entries):
            max_abs = math.nan
        passed = math.isfinite(max_abs) and max_abs <= tolerance
        return ResidualReport(label, entries, tolerance, max_abs, passed)

    def worst(self) -> tuple[Point, tuple, float] | None:
        if not self.entries:
            return None
        return max(self.entries, key=lambda e: _magnitude(e[2]))


def _magnitude(r: float) -> float:
    """|r|, with NaN ranked with infinity so that no entry order can hide it."""
    return abs(r) if r == r else math.inf


def entries_by_point(points: PointSet, rows: dict[tuple, np.ndarray]) -> list[tuple[Point, tuple, float]]:
    """Residual entries (point, label, value), point by point and in label order
    at each point; rows[label] holds its values over the points, or one value
    for all of them."""
    table = np.empty((len(rows), len(points)))
    for dst, row in zip(table, rows.values()):
        dst[...] = row
    return [(p, label, v) for p, values in zip(points, table.T.tolist()) for label, v in zip(rows, values)]


# ---------------------------------------------------------------------------
# Sample points


def _draw_coord(rng: random.Random, half: float) -> float:
    # uniform over [-half, -0.5] U [0.5, half]
    w = half - 0.5
    t = rng.uniform(0.0, 2.0 * w)
    return -half + t if t < w else 0.5 + (t - w)


def sample_points(
    dim: int,
    count: int,
    seed: int,
    *,
    min_gap: float = MIN_PAIR_GAP,
    predicates: Sequence[Callable[[Point], bool]] = (),
    max_rejections: int = MAX_REJECTIONS,
) -> PointSet:
    """Seeded admissible sample points, away from u^i = u^j, u^i = 0 and any
    locus excluded by the predicates (e.g. zeros of a density in play).  The box
    half-width is 2, or n/2 for n >= 8 so that n coordinates fit at the gap.

    The points come as one PointSet, which every residual family evaluates at
    once.  Field memos and connection-table caches are keyed by the set: what
    families compute over it is shared while the caller holds the set and
    freed when the set is dropped."""
    half = 2.0 if dim < 8 else dim / 2.0

    def draw(rng: random.Random) -> Point | None:
        coords = tuple(_draw_coord(rng, half) for _ in range(dim))
        if min_gap > 0 and dim > 1 and min(abs(a - b) for i, a in enumerate(coords) for b in coords[i + 1 :]) < min_gap:
            return None
        return Point(coords)

    why = f"no admissible point found after {max_rejections} rejections (dim {dim}, seed {seed})"
    return _seeded_points(draw, count, seed, predicates, max_rejections, why)


def banded_points(
    bands: Sequence[tuple[float, float]],
    count: int,
    seed: int,
    *,
    predicates: Sequence[Callable[[Point], bool]] = (),
    max_rejections: int = MAX_REJECTIONS,
) -> PointSet:
    """Points with coordinate i drawn from its own band.

    With disjoint bands the coordinate ordering is fixed over the whole box, so
    axis-parallel integration paths between such points stay admissible.
    """
    draw = lambda rng: Point(tuple(rng.uniform(lo, hi) for lo, hi in bands))
    why = f"no admissible point in bands {bands} after {max_rejections} rejections"
    return _seeded_points(draw, count, seed, predicates, max_rejections, why)


def _seeded_points(draw, count: int, seed: int, predicates, max_rejections: int, why: str) -> PointSet:
    """The set of count points from draw(rng) that pass every predicate; draw
    returns None to reject a draw, and a SamplingError says why after
    max_rejections."""
    rng = random.Random(seed)
    out: list[Point] = []
    for _ in range(count):
        for _attempt in range(max_rejections):
            p = draw(rng)
            if p is not None and all(pred(p) for pred in predicates):
                out.append(p)
                break
        else:
            raise SamplingError(why)
    return point_set(out)


# ---------------------------------------------------------------------------
# Christoffel symbols


@quiet
def christoffel_primary(sys: DiagonalSystem, i: int, j: int, points: Point | PointSet, order: int) -> Jet:
    """The jet of G^i_{ij} = d_j v^i / (v^j - v^i) over the points, i != j."""
    if i == j:
        raise GeometryError("christoffel_primary needs i != j")
    points = point_set(points)
    vi = sys.velocities[i].jet(points, order + 1)
    vj = sys.velocities[j].jet(points, order)
    num = jets.derivative(vi, j)
    den = jets.sub(vj, jets.truncate(vi, order))
    close = np.abs(den.value) < VELOCITY_GAP
    if close.any():
        raise DegenerateSystemError(
            f"coincident characteristic velocities v^{i + 1} and v^{j + 1} at {points[int(np.argmax(close))]}"
        )
    return jets.div(num, den)


class ConnectionTable:
    """Evaluator of the Christoffel table G^i_{jk} over point sets.

    Built from the off-diagonal generators G^i_{ij} plus an assembly rule,
    'natural' or 'dual', for the entries G^i_{jj} (any j); the others vanish
    or read G^i_{ik} = G^i_{ki} off the generators.  Without a rule (a
    frame's generators) there is no full table, and residuals that need one
    reject the table.  The kind is only a label.  Generators and assembled
    tables are cached per point set and order, keyed weakly by the set, so
    they go when the set goes; ``dual`` shares the cache, so a natural table
    and its dual partners evaluate each generator once between them.
    """

    def __init__(self, dim: int, kind: str, off_diagonal: Callable[[int, int, PointSet, int], Jet] | None = None,
                 assembly: str | None = None):
        if off_diagonal is None or assembly not in ("natural", "dual", None):
            raise GeometryError("need off_diagonal and an assembly rule ('natural', 'dual' or None)")
        self.dim = dim
        self.kind = kind
        self._off = off_diagonal
        self._assembly = assembly
        self._cache = weakref.WeakKeyDictionary()  # point set -> {order: generators, (assembly, order): table}

    def dual(self, kind: str) -> "ConnectionTable":
        """The dual-assembly table over the same generators and cache."""
        twin = ConnectionTable(self.dim, kind, self._off, "dual")
        twin._cache = self._cache
        return twin

    @quiet
    def generators(self, points: Point | PointSet, order: int) -> np.ndarray:
        """Every generator over the points as one array (n, n, ncoeff, npoints):
        [i, j] holds the coefficients of G^i_{ij}, zero on the diagonal."""
        points = point_set(points)
        return jets.memoized(self._cache, points, order, lambda: self._generate(points, order))

    def _generate(self, points: PointSet, order: int) -> np.ndarray:
        n = self.dim
        out = np.zeros((n, n, len(jets.multi_indices(n, order)), len(points)))
        for i in range(n):
            for j in range(n):
                if i != j:
                    out[i, j] = self._off(i, j, points, order).coeffs
        return out

    def off(self, i: int, j: int, points: Point | PointSet, order: int) -> Jet:
        """The off-diagonal generator G^i_{ij}, i != j."""
        return Jet(self.dim, order, self.generators(points, order)[i, j])

    def christoffels(self, points: Point | PointSet, order: int) -> np.ndarray:
        """The full table over the points as one array (n, n, n, ncoeff, npoints):
        [i, j, k] holds the coefficients of G^i_{jk}."""
        if self._assembly is None:
            raise GeometryError(f"the {self.kind!r} table holds generators only; G^i_jj needs an assembly")
        points = point_set(points)
        return jets.memoized(self._cache, points, (self._assembly, order), lambda: self._assemble(points, order))

    @quiet
    def _assemble(self, points: PointSet, order: int) -> np.ndarray:
        """G^i_{ik} = G^i_{ki} from the generators, zero on distinct triples, and
        G^i_{jj} by the assembly rule: natural -G^i_{ij} for j != i and minus
        the row sum for j = i; dual -(u^i/u^j) G^i_{ij} for j != i, and minus
        1/u^i and the u^l/u^i-weighted row sum for j = i."""
        n = self.dim
        off = self.generators(points, order)
        table = np.zeros((n,) + off.shape)
        diag = np.arange(n)
        table[diag, diag] = off
        table[diag, :, diag] = off
        if self._assembly == "natural":
            total = np.zeros(off.shape[1:])
            for l in range(n):
                table[:, l, l] = -off[:, l]
                total = total - off[:, l]  # off[i, i] is 0, and x - 0.0 is x
            table[diag, diag, diag] = total
            return table
        u = [points.lift(l, order) for l in range(n)]
        ratio = {(a, b): jets.div(u[a], u[b]) for a in range(n) for b in range(n) if a != b}
        g = lambda i, j: Jet(n, order, off[i, j])
        for i in range(n):
            total = -jets.div(jets.constant(n, order, 1.0), u[i])
            for j in range(n):
                if j != i:
                    table[i, j, j] = (-jets.mul(ratio[i, j], g(i, j))).coeffs
                    total = jets.sub(total, jets.mul(ratio[j, i], g(i, j)))
            table[i, i, i] = total.coeffs
        return table


def natural_connection(sys: DiagonalSystem) -> ConnectionTable:
    """The natural connection of a diagonal system: one table per system, built
    on first use, and the only caller of christoffel_primary."""
    return sys._natural


def dual_connection(sys: DiagonalSystem) -> ConnectionTable:
    """The second connection: the dual assembly over the natural table's
    generators and cache, so it evaluates no symbol the natural table has."""
    return natural_connection(sys).dual("dual")


# ---------------------------------------------------------------------------
# Residuals
#
# Each family takes its jets once per point set and works on arrays over the
# points; an index loop at most runs over components, never over points.


@quiet
def sh_residual(sys: DiagonalSystem, points: Sequence[Point], tolerance: float = TOL_SECOND) -> ResidualReport:
    """Integrability of the off-diagonal symbols over all distinct index triples.

    Two families: the first-order system
    d_i G^k_{kj} - G^k_{kj} G^j_{ij} + G^k_{ik} G^k_{kj} - G^k_{ik} G^i_{ij} = 0
    and the derivative symmetry d_j G^i_{ik} = d_k G^i_{ij}.  Vacuous for n = 2.
    """
    n = sys.dim
    points = point_set(points)
    rows = {}
    if n >= 3:
        g = natural_connection(sys).generators(points, 1)
        v, d = g[:, :, 0], g[:, :, jets.unit_positions(n)]  # d[a, b, l] = d_l G^a_{ab}
        triples = list(itertools.permutations(range(n), 3))
        i, j, k = np.array(triples).T
        sh = d[k, j, i] - v[k, j] * v[j, i] + v[k, i] * v[k, j] - v[k, i] * v[i, j]
        dsym = d[i, k, j] - d[i, j, k]
        for t, triple in enumerate(triples):
            rows[("sh", *triple)], rows[("dsym", *triple)] = sh[t], dsym[t]
    return ResidualReport.build("semi-hamiltonian", entries_by_point(points, rows), tolerance)


@quiet
def curvature_natural_residual(
    conn: ConnectionTable, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The two families of possibly non-vanishing curvature components of a
    natural-form table: R^i_{iki} and R^i_{qqi}."""
    if conn._assembly != "natural":
        raise GeometryError(f"curvature_natural_residual needs a natural-assembly table, got {conn.kind!r}")
    n = conn.dim
    points = point_set(points)
    g1 = conn.christoffels(points, 1)
    v1, d1 = g1[..., 0, :], g1[..., jets.unit_positions(n), :]  # d1[i, j, k, l] = d_l G^i_{jk}
    v0 = conn.christoffels(points, 0)[..., 0, :]
    pairs = list(itertools.permutations(range(n), 2))  # (i, q) with q != i, i-major
    i, q = np.array(pairs).T
    iki = d1[i, i, i, q] - d1[i, i, q, i]
    giq = v1[i, q, i]
    qqi = d1[i, q, i, q] - d1[i, q, q, i] + giq * (giq - v0[q, i, q])
    for m in range(n):
        qqi = qqi - np.where(((m != i) & (m != q))[:, None], v0[i, m, i] * v0[m, q, q], 0.0)
    qqi = qqi - v1[i, i, i] * v1[i, q, q] - giq * v0[q, q, q]
    rows = {}
    for a in range(n):  # at each i: the iki components, then the qqi ones
        rows.update({("iki", *pair): iki[t] for t, pair in enumerate(pairs) if pair[0] == a})
        rows.update({("qqi", *pair): qqi[t] for t, pair in enumerate(pairs) if pair[0] == a})
    return ResidualReport.build(f"curvature[{conn.kind}]", entries_by_point(points, rows), tolerance)


@quiet
def curvature_oracle(conn: ConnectionTable, points: Point | PointSet) -> np.ndarray:
    """The full curvature tensor R^i_{jkl} over the points, an array
    (n, n, n, n, npoints), from the generic formula

        R^i_{jkl} = d_k G^i_{lj} - d_l G^i_{kj} + sum_m (G^i_{km} G^m_{lj} - G^i_{lm} G^m_{kj})

    independent of any structural shortcut; flatness <=> all entries vanish.
    """
    g = conn.christoffels(points, 1)
    val, der = g[..., 0, :], g[..., jets.unit_positions(conn.dim), :]  # der[i, a, b, l] = d_l G^i_{ab}
    return (
        np.einsum("iljkp->ijklp", der)
        - np.einsum("ikjlp->ijklp", der)
        + np.einsum("ikmp,mljp->ijklp", val, val)
        - np.einsum("ilmp,mkjp->ijklp", val, val)
    )


def curvature_full_residual(
    conn: ConnectionTable, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """Max-norm of the full curvature tensor at each point (oracle route)."""
    points = point_set(points)
    flat = curvature_oracle(conn, points).reshape(conn.dim**4, -1)  # the largest |R^i_jkl| at each point
    worst = np.argmax(np.abs(flat), axis=0).tolist()
    entries = [(p, ("R", *map(int, np.unravel_index(k, (conn.dim,) * 4))), flat[k, c].item())
               for c, (p, k) in enumerate(zip(points, worst))]
    return ResidualReport.build(f"curvature-full[{conn.kind}]", entries, tolerance)


@quiet
def identity_parallel_residual(
    conn: ConnectionTable,
    field: str,
    points: Sequence[Point],
    tolerance: float = 1e-10,
) -> ResidualReport:
    """Parallelism of the unit field e (natural) or the Euler field E (dual):
    residual d_j X^i + G^i_{jl} X^l."""
    if field not in ("e", "E"):
        raise GeometryError(f"field must be 'e' or 'E', got {field!r}")
    name, assembly = {"e": ("unit", "natural"), "E": ("Euler", "dual")}[field]
    if conn._assembly != assembly:
        raise GeometryError(f"the {name} field pairs with the {assembly} connection")
    n = conn.dim
    points = point_set(points)
    g = conn.christoffels(points, 0)[..., 0, :]
    x = points.coords if field == "E" else np.ones((n, 1))
    s = (np.eye(n) if field == "E" else np.zeros((n, n)))[:, :, None]
    for l in range(n):
        s = s + g[:, :, l] * x[l]
    rows = {(i, j): s[i, j] for i in range(n) for j in range(n)}
    return ResidualReport.build(f"parallel-{field}[{conn.kind}]", entries_by_point(points, rows), tolerance)
