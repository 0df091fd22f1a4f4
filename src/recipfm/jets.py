"""Truncated multivariate Taylor (jet) arithmetic, up to third order, over point sets.

A jet stores the scaled partial derivatives ``d^alpha f / alpha!`` of a scalar
field for every multi-index ``alpha`` with ``|alpha| <= order``, at every point
of a ``PointSet`` at once (Neidinger, SIAM Review 52(3), 2010; Griewank and
Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13): ``coeffs`` is one
float64 array of shape ``(ncoeff, npoints)`` whose row ``r`` belongs to
``multi_indices(dim, order)[r]``.  A lone point is a set of one, and a jet with
one column is the same at every point and broadcasts against any set.  With
the scaled normalization multiplication is a plain truncated Cauchy product,
``scale`` multiplies by a constant as one scaled array, bit for bit that
product with the constant's jet.  One plan, ``_partials_plan``, locates every
derivative: ``partials`` gathers each first partial as a jet one order lower,
``gradient`` reads each e_l's row, cached once per dim, ``hessian`` is the
gradient of the partials, the lifts set the same rows to 1, and ``from_partials``,
the inverse gather, builds the jet of value 0 whose first partials are given
(a current known by its one-form); so no other module knows where a derivative lies.

Every operation works column by column, adds in a fixed order and evaluates
``exp``, ``ln`` and real powers with ``math.exp``, ``math.log`` and ``**`` on
each element, so a column is bit for bit what the same operations give at
that point alone.  ``mul``, ``div`` and ``scale`` (with one constant per jet)
also take the coefficient arrays (..., ncoeff, npoints) of jets stacked on
leading axes, which broadcast as the points do, so a whole table is one call.
A Jet a kernel builds may hold such a stack too: ``add``, ``sub``, ``mul``,
``div``, negation, ``scale``, ``compose_univariate`` and ``jet_exp`` treat
each of its jets as a call of its own would, and so a compiled program's
pack of sibling instructions is one call.  ``mul`` and
``div`` gather their products once per call into a (..., layers, rows,
points) grid and reduce it over the layers, with rows and points inner, so
each coefficient still sums its products left to right, by ascending first
index, as one product at a time would; only the sign and payload of a NaN
may depend on how the products are grouped.
``hyp2f1_value`` sums the Gauss series at every element of its broadcast
arguments at once, in blocks of terms whose first is sized from the largest
|z|, each element stopping where its own term-by-term sum would, so
``jet_hypergeom_2f1`` sums the order + 1 parameter shifts of a jet as one
series.  ``compose_univariate`` writes an order-1 composition's rows directly,
bit for bit its Horner start through ``scale``.  Under ``quiet`` non-finite
values propagate without warnings, as in Python float arithmetic; only the
outermost quiet call of a context enters numpy's errstate, and a nested one
trusts a context-local flag, not numpy's state, since no recipfm code changes
the errstate inside a quiet call.  Domain
checks test every element: an operation fails for the whole set if any
element leaves its domain, and the error names the first such element.  Jets
are immutable values: no operation writes into an array once its jet is
returned, so arrays may be shared.

Truncation commutes with every operation here: the coefficients of grade g of
a result read only coefficients of grade <= g of its operands, in the same
order at every order, and grade-major storage makes ``multi_indices(dim, m)``
a prefix of ``multi_indices(dim, k)`` for m <= k.  So the order-m jet of a
field is bit for bit the first ``ncoeff(dim, m)`` rows of its order-k jet.
``memoized``, the one memo of field jets, velocity and table arrays and lifts,
stores every entry as a read-only array in its point set, and reads a missing
lower order off a higher one of the same owner there, unless that one is non-finite.
Tables, systems and residual families take the PointSet they evaluate over
(from ``sample_points``, ``banded_points`` or ``point_set``); only a field
takes a lone Point.  Hold the set to share work across families.
"""

from __future__ import annotations

import contextvars
import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

MAX_ORDER = 3
HYP2F1_REL_TOL = 1e-16
HYP2F1_MAX_TERMS = 10000
HYP2F1_BLOCK = 80  # terms per block after the first, which _first_block sizes from max |z|
HYP2F1_SLACK = 8  # a first block's terms past those z^k needs to settle
HYP2F1_FIRST_WORK = 16 * HYP2F1_BLOCK  # a first block longer than HYP2F1_BLOCK sums at most this many terms in all
_VALUE_ROW, _HIGHER_ROWS = (..., slice(1), slice(None)), (..., slice(1, None), slice(None))  # prebuilt for small jets

_QUIET = contextvars.ContextVar("recipfm_quiet", default=False)  # whether a quiet call is running in this context


def quiet(fn):
    """fn with IEEE semantics for array arithmetic: overflow, 0/0 and inf - inf
    give inf or NaN without a warning, as Python floats do, and residuals then
    fail closed.  Fields, connection tables and residual families evaluate under it.

    Only the outermost quiet call of a context enters ``np.errstate(all="ignore")``;
    a nested one trusts the flag _QUIET, not numpy's state, and runs fn
    directly.  That holds because no recipfm code changes the errstate inside
    a quiet call.  The flag is a ContextVar, as numpy's errstate is, so the two
    travel together: a new thread starts with neither and enters its own."""
    ignoring = np.errstate(all="ignore")(fn)

    @wraps(fn)
    def quietly(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            return ignoring(*args, **kwargs)
        finally:
            _QUIET.reset(token)

    return quietly


class JetError(ValueError):
    """Structural misuse of the jet algebra (dimension/order mismatch)."""


class JetDomainError(JetError):
    """Evaluation left the domain of an operation (ln of <= 0, division by zero value, ...)."""


@dataclass(frozen=True)
class Point:
    """A base point in canonical coordinates; at least two finite coordinates."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if len(coords) < 2:
            raise ValueError(f"a point needs at least 2 coordinates, got {len(coords)}")
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite coordinate in {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __repr__(self) -> str:
        return f"Point{self.coords}"


class PointSet(Sequence):
    """Points evaluated together: a sequence of Points whose coordinates are
    also one read-only array ``coords`` of shape (dim, npoints), and whose
    coordinate lifts are one array per order, ``lifts``.  A set is one
    evaluation scope and owns every memo over it: what each evaluator (a field,
    a system's velocity stack, a table's generator, the coordinate lifts)
    computes over the set is kept by ``memoized`` in the set, until it goes."""

    __slots__ = ("coords", "_points", "_memo", "__weakref__")

    def __init__(self, coords, points: tuple[Point, ...] | None = None):
        """The set with coordinates coords (dim, npoints); its Points, unless
        given, are built when first read."""
        coords = np.array(coords, dtype=float, order="C")
        if coords.ndim != 2 or coords.shape[0] < 2 or coords.shape[1] < 1 or not _finite(coords):
            raise ValueError(f"a point set needs finite coordinates, shape (dim >= 2, npoints >= 1): {coords.shape}")
        coords.flags.writeable = False
        self.coords, self._points, self._memo = coords, points, defaultdict(dict)  # owner -> {key: entry}

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def lifts(self, order: int) -> np.ndarray:
        """Every coordinate lift as one array (dim, ncoeff, npoints), [l] bit for bit
        variable(dim, order, l, coords[l]); memoized, so a lower order is a prefix.
        Order 0 is the read-only view coords[:, None, :], no copy."""

        def build():
            if not order:
                return self.coords[:, None, :]
            out = np.zeros((self.dim, len(multi_indices(self.dim, order)), len(self)))
            out[:, 0] = self.coords
            out[np.arange(self.dim), _unit_rows(self.dim)] = 1.0
            return out

        return memoized(self, variable, order, build)

    def lift(self, index: int, order: int) -> "Jet":
        """The coordinate u^{index} (0-based) as a jet over the set: row index of lifts(order)."""
        if not 0 <= index < self.dim:
            raise JetError(f"coordinate index {index} out of range for dimension {self.dim}")
        return _built(self.dim, order, self.lifts(order)[index])

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = tuple(Point(tuple(c)) for c in self.coords.T.tolist())
        return self._points

    def __len__(self) -> int:
        return self.coords.shape[1]

    def __getitem__(self, k):
        return self.points[k]

    def __iter__(self):
        return iter(self.points)  # the Sequence mixin's would read points once per element

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, npoints={len(self)})"


def point_set(points) -> PointSet:
    """A PointSet itself, a lone Point as a set of one, or a sequence of Points as a set."""
    if isinstance(points, PointSet):
        return points
    points = (points,) if isinstance(points, Point) else tuple(points)
    return PointSet(np.array([p.coords for p in points]).T, points)


def memoized(points: PointSet, owner, order: int, compute):
    """points._memo[owner][order], stored read-only: the set keeps it until the set goes.

    The owner is the evaluator the entry belongs to (a field, a velocity
    stack, a table's or a frame's generators, or a (generator, assembly) pair
    for a full table), and the entry an array (..., ncoeff, npoints) of jet
    coefficients over the set.  A missing order is read off the lowest present
    higher order of the same owner when that entry is all finite, as its
    leading coefficient rows; otherwise compute() makes it, under quiet.
    So only orders asked for are ever computed, and a hit, which does no
    arithmetic, enters no errstate."""
    per = points._memo[owner]
    got = per.get(order)
    if got is None:
        got = _prefix(per, order, points.dim) if per else None  # an owner's first entry has nothing to read off
        if got is None:
            got = _quietly(compute)
        got.setflags(write=False)
        per[order] = got
    return got


@quiet
def _quietly(compute):
    """compute() under quiet: a miss inside a quiet call runs it directly."""
    return compute()


def _prefix(per: dict, order: int, dim: int):
    """The entry for order read off the lowest higher order in per, if that one is all finite, else None."""
    for k in range(order + 1, MAX_ORDER + 1):
        higher = per.get(k)
        if higher is not None:
            if not _finite(higher):
                return None
            return higher[..., : len(multi_indices(dim, order)), :]
    return None


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite: one reduce, without ndarray.all's wrapper."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


@lru_cache(maxsize=None)
def multi_indices(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with |alpha| <= order, grade-major then lexicographic.

    Grade-major ordering makes ``multi_indices(dim, m)`` a prefix of
    ``multi_indices(dim, k)`` for m <= k, so truncation is a slice.
    """
    if dim < 1:
        raise JetError(f"jet dimension must be >= 1, got {dim}")
    if not 0 <= order <= MAX_ORDER:
        raise JetError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
    return tuple(alpha for total in range(order + 1) for alpha in _compositions(dim, total))


def _compositions(dim: int, total: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        out.extend((first,) + rest for rest in _compositions(dim - 1, total - first))
    return sorted(out)


@lru_cache(maxsize=None)
def _positions(dim: int, order: int) -> dict[tuple[int, ...], int]:
    return {alpha: pos for pos, alpha in enumerate(multi_indices(dim, order))}


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cached plan hands the same ones to every caller."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _mul_table(dim: int, order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row r lists the (pa, pb) coefficient pairs whose product lands on index r,
    by ascending pa."""
    idx = multi_indices(dim, order)
    pos = _positions(dim, order)
    rows: list[list[tuple[int, int]]] = [[] for _ in idx]
    for pa, alpha in enumerate(idx):
        ta = sum(alpha)
        for pb, beta in enumerate(idx):
            if ta + sum(beta) > order:
                continue
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            rows[pos[gamma]].append((pa, pb))
    return tuple(tuple(r) for r in rows)


def _grid(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (pa, pb) pairs of rows as index grids (layers, rows), layer l holding
    each row's l-th pair, and the mask (layers, rows, 1) of the rows without
    one, whose entries point at pair (0, 0)."""
    depth = max(map(len, rows))
    pairs = np.array([row + ((0, 0),) * (depth - len(row)) for row in rows], dtype=np.intp)
    pad = np.array([[l >= len(row) for row in rows] for l in range(depth)])
    return _frozen(pairs[:, :, 0].T.copy(), pairs[:, :, 1].T.copy(), pad[:, :, None])


@lru_cache(maxsize=None)
def _mul_grid(dim: int, order: int):
    """The grid of the Cauchy product's pairs of every row."""
    return _grid(_mul_table(dim, order))


@lru_cache(maxsize=None)
def _div_grids(dim: int, order: int):
    """Per grade >= 2: the slice of its rows and the grid of their pairs with pa != 0."""
    rows, grids, start = _mul_table(dim, order), [], dim + 1
    for grade in range(2, order + 1):
        stop = start + math.comb(grade + dim - 1, dim - 1)
        grids.append((slice(start, stop), *_grid([tuple(p for p in row if p[0]) for row in rows[start:stop]])))
        start = stop
    return tuple(grids)


@lru_cache(maxsize=None)
def _order(dim: int, ncoeff: int) -> int:
    """The order of the dim-variable jets with ncoeff coefficient rows."""
    sizes = [len(multi_indices(dim, k)) for k in range(MAX_ORDER + 1)]
    if ncoeff not in sizes:
        raise JetError(f"no jet of dim {dim} has {ncoeff} coefficient rows")
    return sizes.index(ncoeff)


@lru_cache(maxsize=None)
def _partials_plan(dim: int, ncoeff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first partials of the jets with ncoeff rows, of order m >= 1: row k
    of d_l f, one order lower, is factor[l, k] times row src[l, k] of f, the
    row of multi_indices(dim, m - 1)[k] + e_l.  Inverse: row r >= 1 of f is entry
    (l, k) = back[:, r - 1] of the partials over factor[l, k], at the least l whose src[l] holds r."""
    order = _order(dim, ncoeff)
    if not order:
        raise JetError(f"no jet of dim {dim} and order >= 1 has {ncoeff} coefficient rows")
    pos, lower, unit = _positions(dim, order), multi_indices(dim, order - 1), np.eye(dim, dtype=int)
    src = [[pos[tuple(beta + e)] for beta in lower] for e in unit]
    first = {r: (l, k) for l in reversed(range(dim)) for k, r in enumerate(src[l])}  # the least l is kept
    factor = np.array([[[beta[l] + 1.0] for beta in lower] for l in range(dim)])
    back = np.array([first[r] for r in range(1, ncoeff)], dtype=np.intp).T
    return _frozen(np.array(src, dtype=np.intp), factor, back)


@lru_cache(maxsize=None)
def _unit_rows(dim: int) -> np.ndarray:
    """The row of each e_l in a jet of any order >= 1: the value row of its partial, of factor 1."""
    return _partials_plan(dim, dim + 1)[0][:, 0]  # a view of a read-only array, read-only itself


class Jet:
    """Truncated Taylor expansion over a point set; coeffs[r] holds d^alpha f / alpha!
    at every point (one column: the same at every point) for multi_indices[r].

    Jets combine through the functions below (add, mul, ...); negation is the
    one operator."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        expected = len(multi_indices(dim, order))
        if coeffs.ndim != 2 or coeffs.shape[0] != expected:
            raise JetError(f"jet of dim {dim}, order {order} needs {expected} coefficient rows, got {coeffs.shape}")
        self.dim, self.order, self.coeffs = dim, order, coeffs

    @property
    def value(self) -> np.ndarray:
        """The values over the points (one entry if the jet has one column)."""
        return self.coeffs[0]

    def coefficient(self, alpha: tuple[int, ...]) -> np.ndarray:
        """The Taylor coefficient d^alpha f / alpha! over the points."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise JetError(f"multi-index {alpha} does not match dimension {self.dim}")
        if sum(alpha) > self.order:
            raise JetError(f"multi-index {alpha} exceeds jet order {self.order}")
        return self.coeffs[_positions(self.dim, self.order)[alpha]]

    def __neg__(self):
        return _built(self.dim, self.order, -self.coeffs)


def _built(dim: int, order: int, coeffs: np.ndarray) -> Jet:
    """Jet(dim, order, coeffs) unchecked: only for a float64 (ncoeff, npoints) array a kernel has just built,
    or a stack (..., ncoeff, npoints) of them that goes to the kernels that take one."""
    out = object.__new__(Jet)
    out.dim, out.order, out.coeffs = dim, order, coeffs
    return out


def _operands(a: Jet | np.ndarray, b: Jet | np.ndarray, dim: int | None = None):
    """(x, y, dim, order) of two jets of one dim and order, or of two coefficient arrays (..., ncoeff, npoints)
    of dim-variable jets as for gradient, whose rows the caller vouches for."""
    if not isinstance(a, Jet):
        return a, b, dim, _order(dim, a.shape[-2])
    if a.dim != b.dim or a.order != b.order:
        raise JetError(f"incompatible jets: (dim {a.dim}, order {a.order}) vs (dim {b.dim}, order {b.order})")
    return a.coeffs, b.coeffs, a.dim, a.order


def _first_violation(value: np.ndarray, bad: np.ndarray) -> float | None:
    """None where the domain condition ``bad`` holds nowhere, else the first
    offending value."""
    return float(np.ravel(value)[np.argmax(bad)]) if bad.any() else None


def constant(dim: int, order: int, value) -> Jet:
    """The constant jet; ``value`` is a number (one column) or one value per point."""
    value = np.asarray(value, dtype=float).reshape(-1)
    coeffs = np.zeros((len(multi_indices(dim, order)), value.size))
    coeffs[0] = value
    return _built(dim, order, coeffs)


def variable(dim: int, order: int, index: int, value) -> Jet:
    """The coordinate lift u^{index} (0-based) as a jet at the given values."""
    if not 0 <= index < dim:
        raise JetError(f"coordinate index {index} out of range for dimension {dim}")
    out = constant(dim, order, value)
    if order >= 1:
        out.coeffs[_unit_rows(dim)[index]] = 1.0
    return out


def add(a: Jet, b: Jet) -> Jet:
    x, y, dim, order = _operands(a, b)
    return _built(dim, order, x + y)


def sub(a: Jet, b: Jet) -> Jet:
    x, y, dim, order = _operands(a, b)
    return _built(dim, order, x - y)


def mul(a: Jet | np.ndarray, b: Jet | np.ndarray, dim: int | None = None) -> Jet | np.ndarray:
    """Cauchy product of two jets or two coefficient arrays; each coefficient adds
    its products left to right from 0.0, by ascending pa.  Orders 0 and 1 slice;
    higher orders gather each operand once over the padded grid of every row's
    pairs, whose padding contributes -0.0, which adds exactly nothing."""
    x, y, dim, order = _operands(a, b, dim)
    if order < 2:
        out = 0.0 + x[_VALUE_ROW] * y  # every row's first pair, (0, r)
        if order:
            out[_HIGHER_ROWS] += x[_HIGHER_ROWS] * y[_VALUE_ROW]  # a grade-1 row's second, (r, 0)
    else:
        pa, pb, pad = _mul_grid(dim, order)
        terms = x.take(pa, axis=-2) * y.take(pb, axis=-2)
        np.copyto(terms, -0.0, where=pad)
        out = np.add.reduce(terms, axis=-3, initial=0.0)  # layer by layer: rows and points stay inner
    return _built(dim, order, out) if isinstance(a, Jet) else out


def scale(c, a: Jet | np.ndarray, dim: int | None = None) -> Jet | np.ndarray:
    """c * a, of a jet or of coefficient arrays as for mul; c is a number, one
    value per point, or, for a stack, one per jet (and point), shaped (..., 1, 1)
    or (..., 1, npoints): bit for bit mul of c's constant jets and a.  The
    constant's rows past the value are zeros, and their products with a's
    value row (order 1) or rows (order >= 2) add 0.0 or -0.0 to a coefficient
    summed from 0.0, which changes nothing while those rows are finite: the
    product is then 0.0 + c * a, the 0.0 turning -0.0 into 0.0 as the sum
    does.  Otherwise, jet by jet, it is that product, so 0 * inf is NaN."""
    x, _, dim, order = _operands(a, a, dim)
    out = c * x
    out += 0.0
    if order and not _finite(v := x[_VALUE_ROW] if order == 1 else x):
        c = np.array(c, dtype=float, ndmin=2)  # the constant jets' value rows, (..., 1, ncols)
        const = np.zeros((*c.shape[:-2], x.shape[-2], c.shape[-1]))
        const[_VALUE_ROW] = c
        product = mul(const, x, dim)
        finite = np.logical_and.reduce(np.isfinite(v), axis=(-2, -1))[..., None, None]  # one per jet of x
        out = product if x.ndim == 2 else np.where(finite, out, product)
    return _built(dim, order, out) if isinstance(a, Jet) else out


def div(a: Jet | np.ndarray, b: Jet | np.ndarray, dim: int | None = None) -> Jet | np.ndarray:
    """Quotient of two jets or two coefficient arrays; solves the triangular system
    grade by grade, each coefficient subtracting its products left to right, by
    ascending pa.  Grades 0 and 1 slice; each higher grade gathers once over the
    padded grid of its rows' pairs, whose padding subtracts 0.0, and appends its rows."""
    x, y, dim, order = _operands(a, b, dim)
    b0 = y[_VALUE_ROW]
    if np.count_nonzero(b0 == 0.0):
        raise JetDomainError("division by a jet with zero value")
    inv = 1.0 / b0
    q = x[_VALUE_ROW] * inv
    if order:
        q = np.concatenate((q, (x[..., 1 : dim + 1, :] - y[..., 1 : dim + 1, :] * q) * inv), axis=-2)
        for rows, pa, pb, pad in _div_grids(dim, order):
            terms = np.empty((*q.shape[:-2], len(pa) + 1, pa.shape[1], q.shape[-1]))
            terms[..., 0, :, :] = x[..., rows, :]
            np.multiply(y.take(pa, axis=-2), q.take(pb, axis=-2), out=terms[..., 1:, :, :])
            np.copyto(terms[..., 1:, :, :], 0.0, where=pad)
            q = np.concatenate((q, np.subtract.reduce(terms, axis=-3) * inv), axis=-2)
    return _built(dim, order, q) if isinstance(a, Jet) else q


def stack(js: Sequence[Jet], npoints: int) -> np.ndarray:
    """The jets' coefficients as one array (len(js), ncoeff, npoints); one column spreads."""
    return np.array([j.coeffs if j.coeffs.shape[1] == npoints else np.repeat(j.coeffs, npoints, axis=1) for j in js])


def partials(a: Jet | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Every first partial d_l f as jets one order lower, one array (..., dim,
    ncoeff', npoints), of a jet or stacked coefficients as for gradient, in one
    gather: row k of entry [..., l, :, :], of multi-index beta, is the row of
    beta + e_l times beta[l] + 1."""
    coeffs, dim = (a.coeffs, a.dim) if isinstance(a, Jet) else (a, dim)
    src, factor, _ = _partials_plan(dim, coeffs.shape[-2])
    return coeffs[..., src, :] * factor


def from_partials(d: np.ndarray, dim: int, order: int) -> Jet:
    """The order-`order` jet of value 0 whose first partials are d, one array
    (dim, ncoeff', npoints) as partials gives: the inverse gather.  Row r >= 1,
    of multi-index alpha, is row alpha - e_l of d[l] over alpha[l], at the first l with alpha[l] > 0."""
    _, factor, (ls, ks) = _partials_plan(dim, len(multi_indices(dim, order)))
    return _built(dim, order, np.concatenate([np.zeros((1, d.shape[-1])), d[ls, ks] / factor[ls, ks]]))


def gradient(a: Jet | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Every first partial d_l f as one array (..., dim, npoints), of a jet of
    order >= 1 or of stacked coefficients (..., ncoeff, npoints) of such
    dim-variable jets.  Entry [..., l, :] is d_l f: the row of e_l, whose factor is 1."""
    coeffs, dim = (a.coeffs, a.dim) if isinstance(a, Jet) else (a, dim)
    return coeffs[..., _unit_rows(dim), :]


def hessian(a: Jet | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Every second partial d_k d_l f as one array (..., dim, dim, npoints), of a
    jet of order >= 2 or of stacked coefficients as for gradient: the gradient
    of the partials.  Entry [..., k, l, :] is d_l d_k f, the row of e_k + e_l
    times e_l[k] + 1, which is alpha!."""
    coeffs, dim = (a.coeffs, a.dim) if isinstance(a, Jet) else (a, dim)
    return gradient(partials(coeffs, dim), dim)


def compose_univariate(g: Jet, series) -> Jet:
    """(f o g) for f given by Taylor coefficients of f at g's value, of a jet or
    of a stack of jets held in one Jet, as jet_exp passes it.

    ``series[j]`` must be f^(j)(g.value)/j! (a number, one value per point, or,
    for a stack, an array (..., 1, npoints) of one value row per jet); only the
    first order+1 entries are used.  Evaluated by Horner's scheme in the
    zero-value jet w = g - g0, which starts with ``scale`` by the top
    coefficient, bit for bit the product of its constant jet and w.  At order 1
    that is all, and its rows are written directly: s1 * g_r + 0.0 for r >= 1,
    and the value row (s1 * 0.0 + 0.0) + s0, so g's value row is never
    multiplied and cannot overflow or warn.
    """
    x, dim, order = g.coeffs, g.dim, g.order
    series = list(series)[: order + 1]
    if not order:
        out = np.array(series[0], dtype=float, ndmin=2)  # the constant jet of value s0
    elif order == 1:
        s0, s1 = series
        out = np.empty(np.broadcast(x, s1).shape)  # one column spreads, as in a product
        np.multiply(s1, x[_HIGHER_ROWS], out=out[_HIGHER_ROWS])
        np.multiply(s1, 0.0, out=out[_VALUE_ROW])
        out += 0.0
        out[_VALUE_ROW] += s0
    else:
        w = x.copy()
        w[_VALUE_ROW] = 0.0
        w = _built(dim, order, w)
        acc = scale(series[-1], w)
        acc.coeffs[_VALUE_ROW] += series[-2]
        for c in reversed(series[:-2]):
            acc = mul(acc, w)
            acc.coeffs[_VALUE_ROW] += c  # the constant's other rows would add 0.0 to a product, never -0.0: nothing
        out = acc.coeffs
    return _built(dim, order, out)


def _each(fn, v: np.ndarray, what: str, series: bool = True) -> np.ndarray:
    """fn at each element of v, stacked: a list of series terms each, or, unless
    series, a number each, read straight into the array; an element at which
    fn overflows, or divides by an underflowed zero, leaves the domain and is named."""
    values = v.tolist()
    try:
        return np.array(list(map(fn, values))) if series else np.fromiter(map(fn, values), float, len(values))
    except (OverflowError, ZeroDivisionError):
        for x in values:
            try:
                fn(x)
            except (OverflowError, ZeroDivisionError):
                raise JetDomainError(f"{what} overflows at value {x}") from None
        raise


def jet_exp(a: Jet) -> Jet:
    """exp of a jet, or of a stack of jets as one Jet, whose series terms are then (..., 1, npoints)."""
    v = a.coeffs[_VALUE_ROW] if a.coeffs.ndim > 2 else a.value
    e0 = _each(math.exp, v.ravel(), "exp", series=False).reshape(v.shape)
    return compose_univariate(a, [e0, e0, *(e0 / math.factorial(j) for j in range(2, a.order + 1))])


def jet_ln(a: Jet) -> Jet:
    v = a.value
    bad = _first_violation(v, v <= 0.0)
    if bad is not None:
        raise JetDomainError(f"ln of non-positive value {bad}")
    terms = lambda x: [math.log(x)] + [(-1.0) ** (j - 1) / (j * x**j) for j in range(1, a.order + 1)]
    return compose_univariate(a, _each(terms, v, "ln series").T)


def jet_pow(a: Jet, r: float) -> Jet:
    """a**r; integer exponents work for any nonzero value, real ones need value > 0
    and a finite power."""
    r = float(r)
    if r == 0.0:
        return constant(a.dim, a.order, 1.0)
    if r.is_integer():
        return _int_pow(a, int(r))
    v = a.value
    bad = _first_violation(v, v <= 0.0)
    if bad is not None:
        raise JetDomainError(f"pow with non-integer exponent {r} at non-positive value {bad}")
    binoms = [1.0]
    for j in range(a.order):
        binoms.append(binoms[-1] * ((r - j) / (j + 1)))
    terms = lambda x: [b * x ** (r - j) for j, b in enumerate(binoms)]
    return compose_univariate(a, _each(terms, v, f"pow with exponent {r}").T)


def _int_pow(a: Jet, n: int) -> Jet:
    """a**n, n != 0, by square-and-multiply; the first factor is scaled by 1.0,
    bit for bit its product with the constant jet 1."""
    if n < 0:
        if (a.value == 0.0).any():
            raise JetDomainError("negative power of a jet with zero value")
        return div(constant(a.dim, a.order, 1.0), _int_pow(a, -n))
    out, base = None, a
    while n:
        if n & 1:
            out = scale(1.0, base) if out is None else mul(out, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return out


def _spread(x, shape: tuple[int, ...]) -> np.ndarray:
    """x broadcast to shape, as a new flat array."""
    out = np.empty(shape)
    out[...] = x
    return out.reshape(-1)


@quiet
def hyp2f1_value(a, b, c, z) -> np.ndarray:
    """Gauss hypergeometric series 2F1(a,b;c;z), |z| < 1, by direct summation
    at each element of a, b, c and z broadcast together, so one call sums
    several parameter sets at once.  Terms come in blocks, as running products
    and running sums (``accumulate`` works left to right), and each element
    stops at its first term below HYP2F1_REL_TOL relative to its partial sum,
    so it sums exactly what a term-by-term loop would, however the blocks fall.
    The first block is sized from the largest |z| (``_first_block``); each
    later one is HYP2F1_BLOCK terms, the last cut at HYP2F1_MAX_TERMS.  The error
    names the first element, in the broadcast's order, whose c is a
    non-positive integer, else whose |z| >= 1, else that does not converge."""
    shape = np.broadcast(a, b, c, z).shape
    pa, pb, pc, flat = (_spread(x, shape) for x in (a, b, c, z))
    bad = _first_violation(pc, np.isfinite(pc) & (pc <= 0.0) & (pc == np.floor(pc)))
    if bad is not None:
        raise JetDomainError(f"2F1 parameter c={c if np.ndim(c) == 0 else bad} is a non-positive integer")
    bad = _first_violation(flat, abs(flat) >= 1.0)
    if bad is not None:
        raise JetDomainError(f"2F1 series requires |z| < 1, got z={bad}")
    out = np.empty(flat.shape)
    live = np.arange(flat.size)
    term = total = np.ones((1, flat.size))
    k0, k1 = 0, _first_block(np.fmax.reduce(abs(flat), initial=0.0), flat.size)  # a NaN z, never settling, counts 0
    while k0 < HYP2F1_MAX_TERMS:
        k = np.arange(k0, k1, dtype=float)[:, None]
        ratio = (pa[live] + k) * (pb[live] + k) * flat[live] / ((pc[live] + k) * (k + 1.0))
        terms = np.multiply.accumulate(np.concatenate([term, ratio]))[1:]
        sums = np.add.accumulate(np.concatenate([total, terms]))[1:]
        done = abs(terms) <= HYP2F1_REL_TOL * np.fmax(abs(sums), 1.0)  # fmax takes a NaN sum as 1
        stop, hit = done.argmax(axis=0), done.any(axis=0)
        out[live[hit]] = sums[stop[hit], hit.nonzero()[0]]
        term, total, live = terms[-1:, ~hit], sums[-1:, ~hit], live[~hit]
        if not live.size:
            return out.reshape(shape)
        k0, k1 = k1, min(k1 + HYP2F1_BLOCK, HYP2F1_MAX_TERMS)
    raise JetDomainError(f"2F1 series did not converge for z={flat[live[0]]}")


def _first_block(zmax: float, size: int) -> int:
    """The terms of hyp2f1_value's first block over size elements of largest |z| zmax < 1: the
    log(HYP2F1_REL_TOL) / log(zmax) terms z^k takes to settle, and HYP2F1_SLACK more for the
    parameters' growth.  It runs past HYP2F1_BLOCK only while the block holds at most
    HYP2F1_FIRST_WORK terms in all: a long block saves its later blocks' fixed costs, which rule
    a few elements, but sums every element as far as the slowest, which costs more over many."""
    settle = HYP2F1_SLACK + (int(math.log(HYP2F1_REL_TOL) / math.log(zmax)) if zmax > 0.0 else 0)
    return min(settle, max(HYP2F1_BLOCK, HYP2F1_FIRST_WORK // max(size, 1)), HYP2F1_MAX_TERMS)


def jet_hypergeom_2f1(a: float, b: float, c: float, z: Jet) -> Jet:
    """2F1(a,b;c;z) for a jet argument.

    Derivatives come from the parameter-shift recurrence
    d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z): the order + 1 shifts
    (a+j, b+j, c+j) are summed as one series, one row per shift, each element
    bit for bit its own call of hyp2f1_value, and the first error is the one
    the shifts would raise in turn.
    """
    shifts = np.arange(z.order + 1.0)[:, None]
    values = hyp2f1_value(a + shifts, b + shifts, c + shifts, z.value)
    series = []
    prefactor = 1.0
    for j, value in enumerate(values):
        value = prefactor * value
        series.append(value / math.factorial(j) if j > 1 else value)  # x / 1 is x
        prefactor *= (a + j) * (b + j) / (c + j)
    return compose_univariate(z, series)
