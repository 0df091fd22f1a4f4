"""Connections of diagonal systems and their curvature / compatibility residuals.

A diagonal system is its velocity stack: the jets of its characteristic
velocities v^i over a point set as one array.  Its off-diagonal Christoffel symbols
G^i_{ij} = d_j v^i / (v^j - v^i) determine a unique "natural" connection
through three structural identities (zero on distinct triples, G^i_{jj} =
-G^i_{ji}, zero row sums including the diagonal), and a "dual" connection
through their u-weighted variants.  Every table is one of the two, and
PRODUCTS names its assembly's product and field: the natural connection pairs
with (circ, e), the dual with (star, E).  A table takes all n(n-1) symbols at once,
as the columns of one jet quotient over that array's partials, and assembles
the dual entries with one quotient and one product over the set's lifts, each
one jet kernel call.  A sum over a component index reduces its terms, stacked
in index order on axis 0, one after another: bit for bit a loop over the index.
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
from .exprlang import ScalarField, stack_of
from .jets import Point, PointSet, point_set, quiet

TOL_SECOND = 1e-8  # residuals built from second derivatives of the inputs
TOL_THIRD = 1e-6  # recorded in reports as inputs.tolerances.third; no check reads it
MIN_PAIR_GAP = 0.25
VELOCITY_GAP = 1e-9
MAX_REJECTIONS = 1000
PRODUCTS = {"natural": ("circ", "e"), "dual": ("star", "E")}  # each assembly's product and field


class GeometryError(ValueError):
    pass


class DegenerateSystemError(GeometryError):
    """Characteristic velocities coincide at an evaluation point."""


class SamplingError(GeometryError):
    """The admissible sample region was exhausted."""


@dataclass(frozen=True, eq=False)
class DiagonalSystem:
    """A diagonal quasilinear system given by its characteristic velocities, as one stack.

    stack(points, order) gives every velocity's jet as one array (n, ncoeff,
    npoints), memoized in the set by velocity_jets; it must not refer to the
    system.  Two systems are equal only if they are one object."""

    dim: int
    stack: Callable[[PointSet, int], np.ndarray] = field(repr=False)

    @classmethod
    def of_fields(cls, velocities: Iterable[ScalarField]) -> "DiagonalSystem":
        """The system whose stack holds the velocity fields' jets, in order."""
        fields = tuple(velocities)
        if len(fields) < 2:
            raise GeometryError("a diagonal system needs at least 2 components")
        if {v.dim for v in fields} != {len(fields)}:
            raise GeometryError(f"velocity fields must all live on {len(fields)} coordinates")
        return cls(len(fields), stack_of(fields))

    def velocity_jets(self, points: PointSet, order: int) -> np.ndarray:
        """Every velocity's jet over the points as one read-only array (n, ncoeff, npoints), one
        column spread: the set's memo entry for stack, lower orders read off a finite higher one."""
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
    for them all; a coordinate_predicate takes one draw's coordinate tuple and
    returns a bool.  See _seeded_points for how candidates are judged.

    The points come as one PointSet, which every residual family evaluates at
    once.  The set owns every memo over it: what families compute over it,
    field jets and table arrays alike, is shared while the caller holds the
    set and freed when the set is dropped."""
    half = 2.0 if dim < 8 else dim / 2.0

    def draw(rng: random.Random) -> Point | None:
        coords = tuple(_draw_coord(rng, half) for _ in range(dim))
        s = sorted(coords)  # rounding is monotone, so the least pairwise gap is an adjacent one
        if dim > 1 and min(map(operator.sub, s[1:], s[:-1])) < MIN_PAIR_GAP:
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


def coordinate_predicate(pred: Callable[[tuple[float, ...]], bool]) -> Callable[[tuple[float, ...]], bool]:
    """pred, a test of one draw's coordinate tuple, marked so that sampling
    applies it to each draw as the draw is made (see _seeded_points), without
    evaluating anything over the draws."""
    pred.coordinate_only = True
    return pred


def _seeded_points(draw, count: int, seed: int, predicates, why: str) -> PointSet:
    """The set of count points from draw(rng) that pass every predicate; draw
    returns None to reject a draw, and a SamplingError says why after
    MAX_REJECTIONS rejections in a row.

    A coordinate predicate (coordinate_predicate) judges each draw as it is
    made, wherever it stands, and a draw it rejects is a rejected draw, as
    None is.  The other predicates judge candidates in blocks, in draw order.
    A block ends once it holds as many candidates as points are missing, or
    where the rejection budget would run out, so it holds no draw that
    judging one candidate at a time would not judge: the points, their order,
    the rejections and any error are those of the one-at-a-time loop.  A
    first block of count candidates that all pass is the sample, as the set
    they were judged as, with what the predicates computed (a density
    window's jet) in its memo; any other sample is a new set, holding no
    candidate's jets."""
    coordinate = [pred for pred in predicates if getattr(pred, "coordinate_only", False)]
    others = [pred for pred in predicates if not getattr(pred, "coordinate_only", False)]
    rng = random.Random(seed)
    out: list[Point] = []
    rejected = 0
    while len(out) < count:
        block, missing = [], count - len(out)
        while missing and len(block) < MAX_REJECTIONS - rejected:
            p = draw(rng)
            block.append(p if p is None or all(pred(p.coords) for pred in coordinate) else None)
            missing -= block[-1] is not None
        candidates = [p for p in block if p is not None]
        judged, verdicts = _judge(candidates, others)
        if not out and len(candidates) == count and all(verdicts):
            return judged
        verdicts = iter(verdicts)
        for p in block:
            if p is not None and next(verdicts):
                out.append(p)
                rejected = 0
            else:
                rejected += 1
        if rejected == MAX_REJECTIONS:
            raise SamplingError(why)
    return point_set(out)


def _judge(candidates: list[Point], predicates) -> tuple[PointSet | None, list[bool]]:
    """The candidates as one PointSet (None if there are none), and whether
    each passes every predicate.  Each predicate judges, as one PointSet, the
    candidates that the ones before it kept: that set itself while they all
    live, else a set of those kept, so a later predicate never sees a point an
    earlier one rejected (orbit's composite density window judges only where
    the generator's holds).  Judging that raises is done again one candidate
    at a time, in draw order, so the same error comes from the same candidate."""
    whole = point_set(candidates) if candidates else None
    keep = np.ones(len(candidates), dtype=bool)
    try:
        for pred in predicates:
            live = keep.nonzero()[0]
            if not live.size:
                break
            keep[live] = pred(whole if live.size == len(candidates) else point_set([candidates[k] for k in live]))
    except (ValueError, ArithmeticError):
        return whole, [all(np.all(pred(point_set(p))) for pred in predicates) for p in candidates]
    return whole, keep.tolist()


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


def _gather(*patterns) -> tuple[np.ndarray, ...]:
    """The fancy index reading each pattern, index arrays and ints over one shape, in turn, flattened; read-only."""
    axes = zip(*(np.broadcast_arrays(*p) for p in patterns))
    return jets._frozen(*(np.concatenate([a.ravel() for a in axis]) for axis in axes))


@functools.lru_cache(maxsize=None)
def _sh_plan(n: int) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """sh_residual's labels, ("sh", i, j, k) then ("dsym", i, j, k) for each
    distinct triple in permutation order, and the gather off the generators of
    d_i G^k_{kj}, G^k_{kj}, G^j_{ji}, G^k_{ki}, G^i_{ij}, d_j G^i_{ik}, d_k G^i_{ij}, each over the triples."""
    triples = tuple(itertools.permutations(range(n), 3))
    labels = tuple(label for t in triples for label in (("sh", *t), ("dsym", *t)))
    (i, j, k), d = np.array(triples, dtype=int).reshape(-1, 3).T, jets._unit_rows(n)
    return labels, _gather((k, j, d[i]), (k, j, 0), (j, i, 0), (k, i, 0), (i, j, 0), (i, k, d[j]), (i, j, d[k]))


@functools.lru_cache(maxsize=None)
def _curvature_plan(n: int) -> tuple[tuple, np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """curvature_natural_residual's labels, at each i ("iki", i, q) for every q != i,
    then ("qqi", i, q); the mask (pairs, n, 1) of the m distinct from each
    off_pairs pair (i, q); the gather off the order-1 table of d_q G^i_{ii},
    d_i G^i_{iq}, d_q G^i_{qi}, d_i G^i_{qq}, G^i_{qi}, G^i_{ii}, G^i_{qq}, each
    over the pairs; and the one off the order-0 table of G^q_{iq}, G^i_{mi} for
    each m, G^q_{qq}, G^m_{qq} for each m; shared, so read-only."""
    labels = tuple((name, i, q) for i in range(n) for name in ("iki", "qqi") for q in range(n) if q != i)
    m, (i, q), d = np.arange(n)[:, None], off_pairs(n), jets._unit_rows(n)
    (mask,) = jets._frozen(((m != i) & (m != q)).T[..., None])
    one = (i, i, i, d[q]), (i, i, q, d[i]), (i, q, i, d[q]), (i, q, q, d[i]), (i, q, i, 0), (i, i, i, 0), (i, q, q, 0)
    return labels, mask, _gather(*one), _gather((q, i, q, 0), (i, m, i, 0), (q, q, q, 0), (m, q, q, 0))


@functools.lru_cache(maxsize=None)
def _dual_plan(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The dual assembly's gathers over the off_pairs pairs (i, j): the lifts u^j,
    then every u^l, over which its quotient divides u^i, then one; the quotient
    rows u^i/u^j, then u^j/u^i, the row of the swapped pair, and the entries
    G^i_{ij} twice, which its product multiplies; the slots (1 + j, i) of the
    weighted row sum's terms; shared, so read-only."""
    i, j = off_pairs(n)
    swap = j * (n - 1) + i - (i > j)  # the position of (j, i) in off_pairs
    den, ratio = np.concatenate([j, np.arange(n)]), np.concatenate([np.arange(len(i)), swap])
    return (*jets._frozen(den, ratio), _gather((i, j), (i, j)), _gather((1 + j, i)))


def pair_table(n: int, values: np.ndarray) -> np.ndarray:
    """The array (n, n, ...) with values[k] at the k-th off-diagonal pair, zero on the diagonal."""
    out = np.zeros((n, n) + values.shape[1:])
    out[off_pairs(n)] = values
    return out


@quiet
def christoffel_primary(sys: DiagonalSystem, points: PointSet, order: int) -> np.ndarray:
    """Every G^i_{ij} = d_j v^i / (v^j - v^i) over the points as one array (n, n,
    ncoeff, npoints), zero on the diagonal: the columns of one jet division, whose
    numerators are jets.partials of velocity_jets at order + 1 and whose
    denominators read velocity_jets at order, read off the former if it is all finite."""
    n = sys.dim
    i, j = off_pairs(n)
    hi, lo = sys.velocity_jets(points, order + 1), sys.velocity_jets(points, order)
    den = lo[j] - hi[i, : lo.shape[1]]
    close = np.abs(den[:, 0]) < VELOCITY_GAP
    if np.count_nonzero(close):
        k = int(np.argmax(close.any(axis=1)))  # the first pair, then its first point
        where = points[int(np.argmax(close[k]))]
        raise DegenerateSystemError(f"coincident characteristic velocities v^{i[k] + 1} and v^{j[k] + 1} at {where}")
    return pair_table(n, jets.div(jets.partials(hi, n)[i, j], den, n))


class ConnectionTable:
    """Evaluator of the Christoffel table G^i_{jk} of a natural or a dual connection over point sets.

    Built from generate(points, order), which returns the ``generators`` array
    G^i_{ij} whole, and its assembly, 'natural' or 'dual', which gives the
    entries G^i_{jj} (any j) and names the table in reports; PRODUCTS[assembly]
    is the table's product and field.  The other entries vanish or read
    G^i_{ik} = G^i_{ki} off the generators.  The table keeps nothing: both
    arrays are memoized in the point set per order, the generators owned by
    generate and the full table by (generate, assembly), so all tables over one
    generator (a table and its ``dual``) build each generator array once between them.
    A lower order is read off a higher one held for the set, as its leading
    coefficient rows (bit for bit what evaluating it would give), unless that
    one holds a non-finite entry; so curvature, which asks order 1 first,
    builds no order 0.
    """

    def __init__(self, dim: int, generate: Callable[[PointSet, int], np.ndarray], assembly: str):
        if assembly not in PRODUCTS:
            raise GeometryError(f"unknown assembly rule {assembly!r}; use 'natural' or 'dual'")
        self.dim = dim
        self._generate = generate
        self.assembly = assembly

    def dual(self) -> "ConnectionTable":
        """The dual-assembly table over the same generator, so over the same memo."""
        return ConnectionTable(self.dim, self._generate, "dual")

    def generators(self, points: PointSet, order: int) -> np.ndarray:
        """Every generator over the points as one array (n, n, ncoeff, npoints):
        [i, j] holds the coefficients of G^i_{ij}, zero on the diagonal."""
        return jets.memoized(points, self._generate, order, lambda: self._generate(points, order))

    def christoffels(self, points: PointSet, order: int) -> np.ndarray:
        """The full table over the points as one array (n, n, n, ncoeff, npoints):
        [i, j, k] holds the coefficients of G^i_{jk}."""
        owner = self._generate, self.assembly
        return jets.memoized(points, owner, order, lambda: self._assemble(points, order))

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
        terms = np.zeros((n + 1,) + off.shape[1:])  # the start, -1/u^i or 0, then the weighted row in l order
        if self.assembly == "natural":
            jj, terms[1:] = off[i, j], off.swapaxes(0, 1)
        else:  # the ratios u^i/u^j and 1/u^l in one quotient, both products in one product
            den, ratio, gen, slots = _dual_plan(n)
            m, u = len(i), points.lifts(order)
            num = np.zeros((m + n,) + u.shape[1:])
            num[:m], num[m:, 0] = u[i], 1.0  # u^i, then the constant one
            q = jets.div(num, u[den], n)
            prod = jets.mul(q[ratio], off[gen], n)
            jj, terms[slots] = prod[:m], prod[m:]  # slot (1 + i, i) stays 0.0, and x - 0.0 is x
            np.negative(q[m:], out=terms[0])
        table[i, j, j] = -jj
        table[diag, diag, diag] = np.subtract.reduce(terms, axis=0)
        return table


def natural_connection(sys: DiagonalSystem) -> ConnectionTable:
    """The natural connection of a diagonal system, a new table per call over the
    system's one generator, the only caller of christoffel_primary."""
    return ConnectionTable(sys.dim, sys._christoffel_primary, "natural")


def dual_connection(sys: DiagonalSystem) -> ConnectionTable:
    """The second connection: the dual assembly over the natural table's
    generator, so it evaluates no symbol the natural table has."""
    return natural_connection(sys).dual()


# ---------------------------------------------------------------------------
# Residuals
#
# Each family takes its jets once per point set and works on arrays over the
# points; an index loop at most runs over components, never over points.  Its
# values go to the one constructor ResidualReport.of as blocks: one array
# (nlabels, npoints) beside its points and a label tuple built once per n.  Sums
# over components are ordered reductions (module docstring), signed zeros and NaN included.


@quiet
def sh_residual(sys: DiagonalSystem, points: PointSet, tolerance: float = TOL_SECOND) -> ResidualReport:
    """Integrability of the off-diagonal symbols over all distinct index triples.

    Two families: the first-order system
    d_i G^k_{kj} - G^k_{kj} G^j_{ij} + G^k_{ik} G^k_{kj} - G^k_{ik} G^i_{ij} = 0
    and the derivative symmetry d_j G^i_{ik} = d_k G^i_{ij}.  Vacuous for n = 2.
    """
    n = sys.dim
    labels, entries = _sh_plan(n)
    values = np.empty((0, len(points)))
    if n >= 3:
        g = natural_connection(sys).generators(points, 1)
        d_kji, v_kj, v_ji, v_ki, v_ij, d_ikj, d_ijk = g[entries].reshape(7, len(labels) // 2, -1)
        sh = d_kji - v_kj * v_ji + v_ki * v_kj - v_ki * v_ij
        dsym = d_ikj - d_ijk
        values = np.stack([sh, dsym], axis=1).reshape(len(labels), -1)  # sh, then dsym, per triple
    return ResidualReport.of("semi-hamiltonian", tolerance, (points, labels, values))


@quiet
def curvature_natural_residual(
    conn: ConnectionTable, points: PointSet, tolerance: float = TOL_SECOND
) -> ResidualReport:
    """The two families of possibly non-vanishing curvature components of a
    natural-form table: R^i_{iki} and R^i_{qqi}."""
    if conn.assembly != "natural":
        raise GeometryError(f"curvature_natural_residual needs a natural-assembly table, got {conn.assembly!r}")
    n = conn.dim
    labels, distinct, one, zero = _curvature_plan(n)
    d_iii, d_iiq, d_iqi, d_iqq, giq, gii, gqq = conn.christoffels(points, 1)[one].reshape(7, len(labels) // 2, -1)
    left, right = conn.christoffels(points, 0)[zero].reshape(2, n + 1, len(labels) // 2, -1)
    iki = d_iii - d_iiq
    qqi = d_iqi - d_iqq + giq * (giq - left[0])
    terms = np.where(distinct.swapaxes(0, 1), left[1:] * right[1:], 0.0)  # G^i_{mi} G^m_{qq}, m-major
    qqi = np.subtract.reduce(np.concatenate([qqi[None], terms]), axis=0)  # over m != i, q
    qqi = qqi - gii * gqq - giq * right[0]
    values = np.stack([iki.reshape(n, n - 1, -1), qqi.reshape(n, n - 1, -1)], axis=1)  # at each i: iki, then qqi
    block = points, labels, values.reshape(len(labels), -1)
    return ResidualReport.of(f"curvature[{conn.assembly}]", tolerance, block)


@quiet
def curvature_oracle(conn: ConnectionTable, points: PointSet) -> np.ndarray:
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


def curvature_full_residual(conn: ConnectionTable, points: PointSet, tolerance: float = TOL_SECOND) -> ResidualReport:
    """Max-norm of the full curvature tensor at each point (oracle route)."""
    flat = curvature_oracle(conn, points).reshape(conn.dim**4, -1)  # the largest |R^i_jkl| at each point
    worst = np.argmax(np.abs(flat), axis=0)
    labels = zip(itertools.repeat("R"), *(k.tolist() for k in np.unravel_index(worst, (conn.dim,) * 4)))
    entries = zip(points, labels, flat[worst, np.arange(len(points))].tolist())
    return ResidualReport.build(f"curvature-full[{conn.assembly}]", entries, tolerance)


@quiet
def identity_parallel_residual(
    conn: ConnectionTable,
    field: str,
    points: PointSet,
    tolerance: float = 1e-10,
) -> ResidualReport:
    """Parallelism of the table's field, the unit field e (natural) or the Euler
    field E (dual): residual d_j X^i + G^i_{jl} X^l."""
    paired = PRODUCTS[conn.assembly][1]
    if field != paired:
        raise GeometryError(f"the {conn.assembly} connection pairs with the field {paired!r}, got {field!r}")
    n = conn.dim
    g = conn.christoffels(points, 0)[..., 0, :]
    terms = np.empty((n + 1, n, n, len(points)))  # d_j X^i, then G^i_{jl} X^l in l order
    if field == "E":
        terms[0] = np.eye(n)[:, :, None]
        np.multiply(g.transpose(2, 0, 1, 3), points.coords[:, None, None], out=terms[1:])
    else:  # d_j 1 = 0, and G^i_{jl} 1.0 is G^i_{jl}
        terms[0] = 0.0
        terms[1:] = g.transpose(2, 0, 1, 3)
    s = np.add.reduce(terms, axis=0).reshape(n * n, -1)
    return ResidualReport.of(f"parallel-{field}[{conn.assembly}]", tolerance, (points, square_labels(n), s))
