"""Connections of diagonal systems and their curvature / compatibility residuals.

A diagonal system carries characteristic velocity fields v^i.  Its off-diagonal
Christoffel symbols G^i_{ij} = d_j v^i / (v^j - v^i) determine a unique
"natural" connection through three structural identities (zero on distinct
triples, G^i_{jj} = -G^i_{ji}, zero row sums including the diagonal), and a
"dual" connection through the u-weighted variants of the same identities.
Every flatness and compatibility check here is a pointwise residual evaluated
through third-order jets at seeded sample points.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import jets
from .exprlang import ScalarField
from .jets import Jet, Point, _unit

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

    def velocity_values(self, p: Point) -> tuple[float, ...]:
        return tuple(v.value(p) for v in self.velocities)

    @functools.cached_property
    def _natural(self) -> "ConnectionTable":
        twin = DiagonalSystem(self.velocities)  # an equal system that holds no table: no reference cycle
        off = lambda i, j, p, order: christoffel_primary(twin, i, j, p, order)
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
) -> list[Point]:
    """Seeded admissible sample points, away from u^i = u^j, u^i = 0 and any
    locus excluded by the predicates (e.g. zeros of a density in play).  The box
    half-width is 2, or n/2 for n >= 8 so that n coordinates fit at the gap."""
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
) -> list[Point]:
    """Points with coordinate i drawn from its own band.

    With disjoint bands the coordinate ordering is fixed over the whole box, so
    axis-parallel integration paths between such points stay admissible.
    """
    draw = lambda rng: Point(tuple(rng.uniform(lo, hi) for lo, hi in bands))
    why = f"no admissible point in bands {bands} after {max_rejections} rejections"
    return _seeded_points(draw, count, seed, predicates, max_rejections, why)


def _seeded_points(draw, count: int, seed: int, predicates, max_rejections: int, why: str) -> list[Point]:
    """count points from draw(rng) that pass every predicate; draw returns None
    to reject a draw, and a SamplingError says why after max_rejections."""
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
    return out


# ---------------------------------------------------------------------------
# Christoffel symbols


def christoffel_primary(sys: DiagonalSystem, i: int, j: int, p: Point, order: int) -> Jet:
    """The jet of G^i_{ij} = d_j v^i / (v^j - v^i) at p, i != j."""
    if i == j:
        raise GeometryError("christoffel_primary needs i != j")
    vi = sys.velocities[i].jet(p, order + 1)
    vj = sys.velocities[j].jet(p, order)
    num = jets.derivative(vi, j)
    den = jets.sub(vj, jets.truncate(vi, order))
    if abs(den.value) < VELOCITY_GAP:
        raise DegenerateSystemError(
            f"coincident characteristic velocities v^{i + 1} and v^{j + 1} at {p}"
        )
    return jets.div(num, den)


class ConnectionTable:
    """Evaluator of the full Christoffel table G^i_{jk} at points.

    Built from the off-diagonal generators G^i_{ij} plus an assembly rule,
    'natural' or 'dual', for the entries G^i_{jj} (any j); the others vanish
    or read G^i_{ik} = G^i_{ki} off the generators.  Without a rule (a
    frame's generators) G^i_{jj} raises, as do residuals that need a rule.
    The kind is only a label.  The off-diagonal cache memoizes pure results,
    and ``dual`` shares it, so a natural table and its dual partner evaluate
    each generator once between them.
    """

    def __init__(
        self,
        dim: int,
        kind: str,
        off_diagonal: Callable[[int, int, Point, int], Jet] | None = None,
        assembly: str | None = None,
    ):
        if off_diagonal is None or assembly not in ("natural", "dual", None):
            raise GeometryError("need off_diagonal and an assembly rule ('natural', 'dual' or None)")
        self.dim = dim
        self.kind = kind
        self._off = off_diagonal
        self._assembly = assembly
        self._cache: dict = {}

    def dual(self, kind: str) -> "ConnectionTable":
        """The dual-assembly table over the same generators and the same cache."""
        twin = ConnectionTable(self.dim, kind, self._off, "dual")
        twin._cache = self._cache
        return twin

    def off(self, i: int, j: int, p: Point, order: int) -> Jet:
        """The off-diagonal generator G^i_{ij}, i != j."""
        key = (i, j, p, order)
        got = self._cache.get(key)
        if got is None:
            got = self._off(i, j, p, order)
            self._cache[key] = got
        return got

    def gamma(self, i: int, j: int, k: int, p: Point, order: int) -> Jet:
        """G^i_{jk} as a jet at p (symmetric in the lower indices)."""
        if j != k:
            if j == i or k == i:  # G^i_{ik} = G^i_{ki}
                return self.off(i, k if j == i else j, p, order)
            return jets.constant(self.dim, order, 0.0)
        if self._assembly is None:  # G^i_{jj} is what an assembly rule decides
            raise GeometryError(f"the {self.kind!r} table holds generators only; G^i_jj needs an assembly")
        if j == i:
            return self._diagonal(i, p, order)
        g = self.off(i, j, p, order)
        if self._assembly == "natural":
            return -g
        u_i = jets.variable(self.dim, order, i, p[i])
        u_j = jets.variable(self.dim, order, j, p[j])
        return -jets.mul(jets.div(u_i, u_j), g)

    def _diagonal(self, i: int, p: Point, order: int) -> Jet:
        """G^i_{ii}: minus the row sum of the generators (natural), or minus
        1/u^i and the u^l/u^i-weighted row sum (dual)."""
        if self._assembly == "natural":
            total = jets.constant(self.dim, order, 0.0)
            for l in range(self.dim):
                if l != i:
                    total = jets.sub(total, self.off(i, l, p, order))
            return total
        u = [jets.variable(self.dim, order, l, p[l]) for l in range(self.dim)]
        total = -jets.div(jets.constant(self.dim, order, 1.0), u[i])
        for l in range(self.dim):
            if l != i:
                total = jets.sub(total, jets.mul(jets.div(u[l], u[i]), self.off(i, l, p, order)))
        return total


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


def sh_residual(sys: DiagonalSystem, points: Sequence[Point], tolerance: float = TOL_SECOND) -> ResidualReport:
    """Integrability of the off-diagonal symbols over all distinct index triples.

    Two families: the first-order system
    d_i G^k_{kj} - G^k_{kj} G^j_{ij} + G^k_{ik} G^k_{kj} - G^k_{ik} G^i_{ij} = 0
    and the derivative symmetry d_j G^i_{ik} = d_k G^i_{ij}.  Vacuous for n = 2.
    """
    n = sys.dim
    entries: list[tuple[Point, tuple, float]] = []
    if n >= 3:
        conn = natural_connection(sys)
        for p in points:
            off1 = {}
            for a in range(n):
                for b in range(n):
                    if a != b:
                        off1[(a, b)] = conn.off(a, b, p, 1)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if i == j or j == k or k == i:
                            continue
                        g_kj = off1[(k, j)]
                        r1 = (
                            jets.partial(g_kj, _unit(n, i))
                            - g_kj.value * off1[(j, i)].value
                            + off1[(k, i)].value * g_kj.value
                            - off1[(k, i)].value * off1[(i, j)].value
                        )
                        entries.append((p, ("sh", i, j, k), r1))
                        r2 = jets.partial(off1[(i, k)], _unit(n, j)) - jets.partial(
                            off1[(i, j)], _unit(n, k)
                        )
                        entries.append((p, ("dsym", i, j, k), r2))
    return ResidualReport.build("semi-hamiltonian", entries, tolerance)


def curvature_natural_residual(
    conn: ConnectionTable, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The two families of possibly non-vanishing curvature components of a
    natural-form table: R^i_{iki} and R^i_{qqi}."""
    if conn._assembly != "natural":
        raise GeometryError(f"curvature_natural_residual needs a natural-assembly table, got {conn.kind!r}")
    n = conn.dim
    entries = []
    for p in points:
        for i in range(n):
            g_ii = conn.gamma(i, i, i, p, 1)
            for k in range(n):
                if k == i:
                    continue
                g_ik = conn.gamma(i, i, k, p, 1)
                r = jets.partial(g_ii, _unit(n, k)) - jets.partial(g_ik, _unit(n, i))
                entries.append((p, ("iki", i, k), r))
            for q in range(n):
                if q == i:
                    continue
                g_qi = conn.gamma(i, q, i, p, 1)
                g_qq = conn.gamma(i, q, q, p, 1)
                val = jets.partial(g_qi, _unit(n, q)) - jets.partial(g_qq, _unit(n, i))
                giq = g_qi.value
                val += giq * (giq - conn.gamma(q, i, q, p, 0).value)
                for m in range(n):
                    if m != i and m != q:
                        val -= conn.gamma(i, m, i, p, 0).value * conn.gamma(m, q, q, p, 0).value
                val -= g_ii.value * g_qq.value
                val -= giq * conn.gamma(q, q, q, p, 0).value
                entries.append((p, ("qqi", i, q), val))
    return ResidualReport.build(f"curvature[{conn.kind}]", entries, tolerance)


def curvature_oracle(conn: ConnectionTable, p: Point) -> np.ndarray:
    """The full curvature tensor R^i_{jkl} at p from the generic formula

        R^i_{jkl} = d_k G^i_{lj} - d_l G^i_{kj} + sum_m (G^i_{km} G^m_{lj} - G^i_{lm} G^m_{kj})

    independent of any structural shortcut; flatness <=> all entries vanish.
    """
    n = conn.dim
    val = np.zeros((n, n, n))
    der = np.zeros((n, n, n, n))
    for i in range(n):
        for a in range(n):
            for b in range(a, n):
                g = conn.gamma(i, a, b, p, 1)
                val[i, a, b] = val[i, b, a] = g.value
                for l in range(n):
                    d = jets.partial(g, _unit(n, l))
                    der[i, a, b, l] = der[i, b, a, l] = d
    R = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = der[i, l, j, k] - der[i, k, j, l]
                    for m in range(n):
                        s += val[i, k, m] * val[m, l, j] - val[i, l, m] * val[m, k, j]
                    R[i, j, k, l] = s
    return R


def curvature_full_residual(
    conn: ConnectionTable, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """Max-norm of the full curvature tensor at each point (oracle route)."""
    entries = []
    for p in points:
        R = curvature_oracle(conn, p)
        idx = np.unravel_index(np.argmax(np.abs(R)), R.shape)
        entries.append((p, ("R",) + tuple(int(x) for x in idx), float(R[idx])))
    return ResidualReport.build(f"curvature-full[{conn.kind}]", entries, tolerance)


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
    entries = []
    for p in points:
        for i in range(n):
            for j in range(n):
                s = 1.0 if (field == "E" and i == j) else 0.0
                for l in range(n):
                    x_l = p[l] if field == "E" else 1.0
                    s += conn.gamma(i, j, l, p, 0).value * x_l
                entries.append((p, (i, j), s))
    return ResidualReport.build(f"parallel-{field}[{conn.kind}]", entries, tolerance)
