"""Connections of diagonal systems and their curvature / compatibility residuals.

A diagonal system carries characteristic velocity fields v^i, whose jets it
reads over a point set as one array.  Its off-diagonal Christoffel symbols
G^i_{ij} = d_j v^i / (v^j - v^i) determine a unique "natural" connection
through three structural identities (zero on distinct triples, G^i_{jj} =
-G^i_{ji}, zero row sums including the diagonal), and a "dual" connection
through their u-weighted variants.  A table takes all n(n-1) symbols at once,
as the columns of one jet quotient over that array's partials, and assembles
the dual entries with one stacked quotient and one product over the set's
lifts.  A sum over a component index reduces its terms, stacked in index
order on axis 0, one after another: bit for bit a loop over the index.
Every flatness and compatibility check here is a pointwise residual evaluated
through third-order jets over a set of seeded sample points at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import jets
from .exprlang import ScalarField
from .jets import Jet, Point, PointSet, point_set, quiet

TOL_SECOND = 1e-8  # residuals built from second derivatives of the inputs
TOL_THIRD = 1e-6  # recorded in reports as inputs.tolerances.third; no check reads it
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
    """A diagonal quasilinear system given by its characteristic velocity fields.

    stack(points, order) gives every velocity's jet as one array (n, ncoeff,
    npoints), memoized in the set by velocity_jets: the fields' jets stacked,
    unless from_stack built the system from a closed form for the whole array."""

    velocities: tuple[ScalarField, ...]
    stack: Callable[[PointSet, int], np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.velocities) < 2:
            raise GeometryError("a diagonal system needs at least 2 components")
        if {v.dim for v in self.velocities} != {len(self.velocities)}:
            raise GeometryError(f"velocity fields must all live on {len(self.velocities)} coordinates")
        if self.stack is None:  # over the fields, not the system
            fields = self.velocities
            object.__setattr__(self, "stack", lambda p, order: jets.stack([v.jet(p, order) for v in fields], len(p)))

    @classmethod
    def from_stack(cls, dim: int, stack: Callable[[PointSet, int], np.ndarray]) -> "DiagonalSystem":
        """The system whose velocities[i] reads row i of velocity_jets; stack must not refer to the system."""
        read = lambda p, order: jets.memoized(p, stack, order, lambda: stack(p, order))  # velocity_jets's entry
        rows = (ScalarField(dim, lambda p, order, i=i: Jet(dim, order, read(p, order)[i])) for i in range(dim))
        return cls(tuple(rows), stack)

    @property
    def dim(self) -> int:
        return len(self.velocities)

    def velocity_jets(self, points: Point | PointSet, order: int) -> np.ndarray:
        """Every velocity's jet over the points as one read-only array (n, ncoeff, npoints), one
        column spread: the set's memo entry for stack, lower orders read off a finite higher one."""
        points = point_set(points)
        if points.dim != self.dim:
            raise ValueError(f"field on {self.dim} coordinates evaluated at points with {points.dim}")
        return jets.memoized(points, self.stack, order, lambda: self.stack(points, order))

    def _christoffel_primary(self, points: PointSet, order: int) -> np.ndarray:  # its bound methods are one memo owner
        return christoffel_primary(self, points, order)


@dataclass(frozen=True)
class ResidualReport:
    """Residual values over sample points; passes iff every entry is finite and
    max |entry| <= tolerance.  build reads the entries' values into one array
    and reduces it: max_abs is NaN if any entry is NaN, else inf if any entry
    is infinite, whatever the entry order."""

    label: str
    entries: tuple[tuple[Point, tuple, float], ...]
    tolerance: float
    max_abs: float
    passed: bool

    @staticmethod
    def build(label: str, entries: Iterable[tuple[Point, tuple, float]], tolerance: float) -> "ResidualReport":
        entries = tuple(entries)
        values = np.fromiter(map(operator.itemgetter(2), entries), float, len(entries))
        max_abs = float(abs(values).max()) if entries else 0.0  # max gives NaN if any entry is NaN
        passed = math.isfinite(max_abs) and max_abs <= tolerance
        return ResidualReport(label, entries, tolerance, max_abs, passed)

    @classmethod
    def of(cls, label: str, tolerance: float, *blocks: tuple[PointSet, tuple, np.ndarray]) -> "ResidualReport":
        """The report of blocks (points, labels, values), in block order: values is
        one array (nlabels, npoints) whose row k holds labels[k] over the points, or
        one column shared by all of them, and its entries (point, label, value) go
        point by point, in label order at each point.  One block's tuple reaches build as it is."""
        entries = None
        for points, labels, values in blocks:
            if values.shape[1] != len(points):
                values = np.repeat(values, len(points), axis=1)
            at = itertools.chain.from_iterable(itertools.repeat(p, len(labels)) for p in points)
            block = tuple(zip(at, labels * len(points), values.T.ravel().tolist()))
            entries = block if entries is None else entries + block
        return cls.build(label, entries, tolerance)  # through the class, where a wrapper may stand

    def worst(self) -> tuple[Point, tuple, float] | None:
        """The first entry of largest magnitude, NaN ranking as infinite, or None if there are none."""
        if not self.entries:
            return None
        magnitude = np.abs([e[2] for e in self.entries])
        magnitude[np.isnan(magnitude)] = math.inf
        return self.entries[int(np.argmax(magnitude))]


# ---------------------------------------------------------------------------
# Sample points


def _draw_coord(rng: random.Random, half: float) -> float:
    # uniform over [-half, -0.5] U [0.5, half]
    w = half - 0.5
    t = rng.uniform(0.0, 2.0 * w)
    return -half + t if t < w else 0.5 + (t - w)


def sample_points(
    dim: int, count: int, seed: int, *, predicates: Sequence[Callable[[PointSet], np.ndarray]] = ()
) -> PointSet:
    """Seeded admissible sample points, away from u^i = u^j, u^i = 0 and any
    locus excluded by the predicates (e.g. zeros of a density in play).  The box
    half-width is 2, or n/2 for n >= 8 so that n coordinates fit at the gap.

    A predicate takes a PointSet and returns one bool per point, or one bool
    for them all; see _seeded_points for how candidates are judged.

    The points come as one PointSet, which every residual family evaluates at
    once.  The set owns every memo over it: what families compute over it,
    field jets and table arrays alike, is shared while the caller holds the
    set and freed when the set is dropped."""
    half = 2.0 if dim < 8 else dim / 2.0

    def draw(rng: random.Random) -> Point | None:
        coords = tuple(_draw_coord(rng, half) for _ in range(dim))
        if dim > 1 and min(abs(a - b) for i, a in enumerate(coords) for b in coords[i + 1 :]) < MIN_PAIR_GAP:
            return None
        return Point(coords)

    why = f"no admissible point found after {MAX_REJECTIONS} rejections (dim {dim}, seed {seed})"
    return _seeded_points(draw, count, seed, predicates, why)


def banded_points(
    bands: Sequence[tuple[float, float]],
    count: int,
    seed: int,
    *,
    predicates: Sequence[Callable[[PointSet], np.ndarray]] = (),
) -> PointSet:
    """Points with coordinate i drawn from its own band, judged by the
    predicates as in sample_points.

    With disjoint bands that avoid 0 the box lies in one Weyl chamber and one
    orthant, so the straight integration segment between two such points stays
    admissible.
    """
    draw = lambda rng: Point(tuple(rng.uniform(lo, hi) for lo, hi in bands))
    why = f"no admissible point in bands {bands} after {MAX_REJECTIONS} rejections"
    return _seeded_points(draw, count, seed, predicates, why)


def _seeded_points(draw, count: int, seed: int, predicates, why: str) -> PointSet:
    """The set of count points from draw(rng) that pass every predicate; draw
    returns None to reject a draw, and a SamplingError says why after
    MAX_REJECTIONS rejections in a row.

    Candidates come in blocks, in draw order.  A block ends once it holds as
    many candidates as points are missing, or where the rejection budget
    would run out, so it holds no draw that judging one candidate at a time
    would not judge: the points, their order, the rejections and any error
    are those of the one-at-a-time loop."""
    rng = random.Random(seed)
    out: list[Point] = []
    rejected = 0
    while len(out) < count:
        block, missing = [], count - len(out)
        while missing and len(block) < MAX_REJECTIONS - rejected:
            block.append(draw(rng))
            missing -= block[-1] is not None
        verdicts = iter(_judge([p for p in block if p is not None], predicates))
        for p in block:
            if p is not None and next(verdicts):
                out.append(p)
                rejected = 0
            else:
                rejected += 1
        if rejected == MAX_REJECTIONS:
            raise SamplingError(why)
    return point_set(out)


def _judge(candidates: list[Point], predicates) -> list[bool]:
    """Whether each candidate passes every predicate.  Each predicate judges,
    as one PointSet, the candidates that the ones before it kept, so a later
    predicate never sees a point an earlier one rejected (the z window keeps
    hyp2f1 inside its disk).  Judging that raises is done again one candidate
    at a time, in draw order, so the same error comes from the same candidate."""
    keep = np.ones(len(candidates), dtype=bool)
    try:
        for pred in predicates:
            live = keep.nonzero()[0]
            if not live.size:
                break
            keep[live] = pred(point_set([candidates[k] for k in live]))
    except (ValueError, ArithmeticError):
        return [all(np.all(pred(point_set(p))) for pred in predicates) for p in candidates]
    return keep.tolist()


# ---------------------------------------------------------------------------
# Christoffel symbols


@functools.lru_cache(maxsize=None)
def off_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the off-diagonal pairs i != j, i-major; shared, so read-only."""
    pairs = np.array(pair_labels(n)).T
    pairs.flags.writeable = False
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def pair_labels(n: int) -> tuple[tuple[int, int], ...]:
    """The off-diagonal pairs (i, j) as labels, in off_pairs order."""
    return tuple(itertools.permutations(range(n), 2))


@functools.lru_cache(maxsize=None)
def square_labels(n: int) -> tuple[tuple[int, int], ...]:
    """Every index pair (i, j), i-major: the labels of an (n, n) family reshaped to (n * n, ...)."""
    return tuple(itertools.product(range(n), repeat=2))


@functools.lru_cache(maxsize=None)
def _sh_plan(n: int) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """sh_residual's labels, ("sh", i, j, k) then ("dsym", i, j, k) for each
    distinct triple in permutation order, and the triples' index arrays."""
    triples = tuple(itertools.permutations(range(n), 3))
    labels = tuple(label for t in triples for label in (("sh", *t), ("dsym", *t)))
    index = np.array(triples, dtype=int).reshape(-1, 3)
    index.flags.writeable = False
    return labels, tuple(index.T)


@functools.lru_cache(maxsize=None)
def _curvature_labels(n: int) -> tuple:
    """curvature_natural_residual's labels: at each i, ("iki", i, q) for every q != i, then ("qqi", i, q)."""
    return tuple((name, i, q) for i in range(n) for name in ("iki", "qqi") for q in range(n) if q != i)


def pair_table(n: int, values: np.ndarray) -> np.ndarray:
    """The array (n, n, ...) with values[k] at the k-th off-diagonal pair, zero on the diagonal."""
    out = np.zeros((n, n) + values.shape[1:])
    out[off_pairs(n)] = values
    return out


@quiet
def christoffel_primary(sys: DiagonalSystem, points: Point | PointSet, order: int) -> np.ndarray:
    """Every G^i_{ij} = d_j v^i / (v^j - v^i) over the points as one array (n, n,
    ncoeff, npoints), zero on the diagonal: the columns of one jet division, whose
    numerators are jets.partials of velocity_jets at order + 1 and whose
    denominators read velocity_jets at order, read off the former if it is all finite."""
    n, points = sys.dim, point_set(points)
    i, j = off_pairs(n)
    hi, lo = sys.velocity_jets(points, order + 1), sys.velocity_jets(points, order)
    den = lo[j] - hi[i, : lo.shape[1]]
    close = np.abs(den[:, 0]) < VELOCITY_GAP
    if close.any():
        k = int(np.argmax(close.any(axis=1)))  # the first pair, then its first point
        where = points[int(np.argmax(close[k]))]
        raise DegenerateSystemError(f"coincident characteristic velocities v^{i[k] + 1} and v^{j[k] + 1} at {where}")
    return pair_table(n, jets.stacked(jets.div, n, order, jets.partials(hi, n)[i, j], den))


class ConnectionTable:
    """Evaluator of the Christoffel table G^i_{jk} over point sets.

    Built from generate(points, order), which returns the ``generators`` array
    G^i_{ij} whole, and an assembly rule, 'natural' or 'dual', for the entries
    G^i_{jj} (any j); the others vanish or read G^i_{ik} = G^i_{ki} off the
    generators.  Without a rule (a frame's generators) there is no full table,
    and residuals that need one reject it.  The kind is only a label.  The
    table keeps nothing: both arrays are memoized in the point set per order,
    owned by generate, so all tables over one generator (a table and its
    ``dual``) build each generator array once between them.  A lower order is
    read off a higher one held for the set, as its leading coefficient rows
    (bit for bit what evaluating it would give), unless that one holds a
    non-finite entry; so curvature, which asks order 1 first, builds no order 0.
    """

    def __init__(self, dim: int, kind: str, generate: Callable[[PointSet, int], np.ndarray], assembly: str | None):
        if assembly not in ("natural", "dual", None):
            raise GeometryError(f"unknown assembly rule {assembly!r}; use 'natural', 'dual' or None")
        self.dim = dim
        self.kind = kind
        self._generate = generate
        self._assembly = assembly

    def dual(self, kind: str) -> "ConnectionTable":
        """The dual-assembly table over the same generator, so over the same memo."""
        return ConnectionTable(self.dim, kind, self._generate, "dual")

    def generators(self, points: Point | PointSet, order: int) -> np.ndarray:
        """Every generator over the points as one array (n, n, ncoeff, npoints):
        [i, j] holds the coefficients of G^i_{ij}, zero on the diagonal."""
        points = point_set(points)
        return jets.memoized(points, self._generate, order, lambda: self._generate(points, order))

    def christoffels(self, points: Point | PointSet, order: int) -> np.ndarray:
        """The full table over the points as one array (n, n, n, ncoeff, npoints):
        [i, j, k] holds the coefficients of G^i_{jk}."""
        if self._assembly is None:
            raise GeometryError(f"the {self.kind!r} table holds generators only; G^i_jj needs an assembly")
        points = point_set(points)
        return jets.memoized(points, self._generate, (self._assembly, order), lambda: self._assemble(points, order))

    def _assemble(self, points: PointSet, order: int) -> np.ndarray:
        """G^i_{ik} = G^i_{ki} from the generators, zero on distinct triples, and
        G^i_{jj} by the assembly rule: natural -G^i_{ij} for j != i and minus
        the row sum for j = i; dual -(u^i/u^j) G^i_{ij} for j != i, and minus
        1/u^i and the u^l/u^i-weighted row sum for j = i, an ordered reduction."""
        n = self.dim
        off = self.generators(points, order)
        table = np.zeros((n,) + off.shape)
        diag = np.arange(n)
        table[diag, diag] = off
        table[diag, :, diag] = off
        i, j = off_pairs(n)
        if self._assembly == "natural":
            jj, weighted, total = off[i, j], off, np.zeros(off.shape[1:])
        else:  # the ratios u^i/u^j and 1/u^l in one quotient, both products in one product
            m, u = len(i), points.lifts(order)
            num = np.zeros((m + n,) + u.shape[1:])
            num[:m], num[m:, 0] = u[i], 1.0  # u^i, then the constant one
            q = jets.stacked(jets.div, n, order, num, np.concatenate([u[j], u]))
            ratio, g = pair_table(n, q[:m]), off[i, j]
            prod = jets.stacked(jets.mul, n, order, np.concatenate([ratio[i, j], ratio[j, i]]), np.concatenate([g, g]))
            jj, weighted, total = prod[:m], pair_table(n, prod[m:]), -q[m:]
        table[i, j, j] = -jj
        terms = np.concatenate([total[None], weighted.swapaxes(0, 1)])  # weighted[i, i] is 0, and x - 0.0 is x
        table[diag, diag, diag] = np.subtract.reduce(terms, axis=0)
        return table


def natural_connection(sys: DiagonalSystem) -> ConnectionTable:
    """The natural connection of a diagonal system, a new table per call over the
    system's one generator, the only caller of christoffel_primary."""
    return ConnectionTable(sys.dim, "natural", sys._christoffel_primary, "natural")


def dual_connection(sys: DiagonalSystem) -> ConnectionTable:
    """The second connection: the dual assembly over the natural table's
    generator, so it evaluates no symbol the natural table has."""
    return natural_connection(sys).dual("dual")


# ---------------------------------------------------------------------------
# Residuals
#
# Each family takes its jets once per point set and works on arrays over the
# points; an index loop at most runs over components, never over points.  Its
# values go to the one constructor ResidualReport.of as blocks: one array
# (nlabels, npoints) beside its points and a label tuple built once per n.  Sums
# over components are ordered reductions (module docstring), signed zeros and NaN included.


@quiet
def sh_residual(sys: DiagonalSystem, points: Sequence[Point], tolerance: float = TOL_SECOND) -> ResidualReport:
    """Integrability of the off-diagonal symbols over all distinct index triples.

    Two families: the first-order system
    d_i G^k_{kj} - G^k_{kj} G^j_{ij} + G^k_{ik} G^k_{kj} - G^k_{ik} G^i_{ij} = 0
    and the derivative symmetry d_j G^i_{ik} = d_k G^i_{ij}.  Vacuous for n = 2.
    """
    n = sys.dim
    points = point_set(points)
    labels, (i, j, k) = _sh_plan(n)
    values = np.empty((0, len(points)))
    if n >= 3:
        g = natural_connection(sys).generators(points, 1)
        v, d = g[:, :, 0], jets.gradient(g, n)  # d[a, b, l] = d_l G^a_{ab}
        sh = d[k, j, i] - v[k, j] * v[j, i] + v[k, i] * v[k, j] - v[k, i] * v[i, j]
        dsym = d[i, k, j] - d[i, j, k]
        values = np.stack([sh, dsym], axis=1).reshape(len(labels), -1)  # sh, then dsym, per triple
    return ResidualReport.of("semi-hamiltonian", tolerance, (points, labels, values))


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
    v1, d1 = g1[..., 0, :], jets.gradient(g1, n)  # d1[i, j, k, l] = d_l G^i_{jk}
    v0 = conn.christoffels(points, 0)[..., 0, :]
    i, q = off_pairs(n)  # (i, q) with q != i, i-major
    iki = d1[i, i, i, q] - d1[i, i, q, i]
    giq = v1[i, q, i]
    qqi = d1[i, q, i, q] - d1[i, q, q, i] + giq * (giq - v0[q, i, q])
    m, i1, q1 = np.arange(n), i[:, None], q[:, None]
    terms = np.where(((m != i1) & (m != q1))[..., None], v0[i1, m, i1] * v0[m, q1, q1], 0.0).swapaxes(0, 1)
    qqi = np.subtract.reduce(np.concatenate([qqi[None], terms]), axis=0)  # G^i_{mi} G^m_{qq} over m != i, q
    qqi = qqi - v1[i, i, i] * v1[i, q, q] - giq * v0[q, q, q]
    values = np.stack([iki.reshape(n, n - 1, -1), qqi.reshape(n, n - 1, -1)], axis=1)  # at each i: iki, then qqi
    block = points, _curvature_labels(n), values.reshape(2 * len(i), -1)
    return ResidualReport.of(f"curvature[{conn.kind}]", tolerance, block)


@quiet
def curvature_oracle(conn: ConnectionTable, points: Point | PointSet) -> np.ndarray:
    """The full curvature tensor R^i_{jkl} over the points, an array
    (n, n, n, n, npoints), from the generic formula

        R^i_{jkl} = d_k G^i_{lj} - d_l G^i_{kj} + sum_m (G^i_{km} G^m_{lj} - G^i_{lm} G^m_{kj})

    independent of any structural shortcut; flatness <=> all entries vanish.
    The last sum is the first with k and l swapped: one einsum, same m order.
    """
    g = conn.christoffels(points, 1)
    val, der = g[..., 0, :], jets.gradient(g, conn.dim)  # der[i, a, b, l] = d_l G^i_{ab}
    s = np.einsum("ikmp,mljp->ijklp", val, val)  # s[i, j, l, k] = sum_m G^i_{lm} G^m_{kj}
    return np.einsum("iljkp->ijklp", der) - np.einsum("ikjlp->ijklp", der) + s - s.swapaxes(2, 3)


def curvature_full_residual(
    conn: ConnectionTable, points: Sequence[Point], tolerance: float = TOL_SECOND
) -> ResidualReport:
    """Max-norm of the full curvature tensor at each point (oracle route)."""
    points = point_set(points)
    flat = curvature_oracle(conn, points).reshape(conn.dim**4, -1)  # the largest |R^i_jkl| at each point
    worst = np.argmax(np.abs(flat), axis=0)
    labels = zip(itertools.repeat("R"), *(k.tolist() for k in np.unravel_index(worst, (conn.dim,) * 4)))
    entries = zip(points, labels, flat[worst, np.arange(len(points))].tolist())
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
    terms = np.empty((n + 1, n, n, len(points)))  # the start, then G^i_{jl} X^l in l order
    terms[0] = (np.eye(n) if field == "E" else np.zeros((n, n)))[:, :, None]
    np.multiply(g.transpose(2, 0, 1, 3), x[:, None, None], out=terms[1:])
    s = np.add.reduce(terms, axis=0).reshape(n * n, -1)
    return ResidualReport.of(f"parallel-{field}[{conn.kind}]", tolerance, (points, square_labels(n), s))
