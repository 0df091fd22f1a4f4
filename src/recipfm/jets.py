"""Truncated multivariate Taylor (jet) arithmetic, up to third order, over point sets.

A jet stores the scaled partial derivatives ``d^alpha f / alpha!`` of a scalar
field for every multi-index ``alpha`` with ``|alpha| <= order``, at every point
of a ``PointSet`` at once (Neidinger, SIAM Review 52(3), 2010; Griewank and
Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13): ``coeffs`` is one
float64 array of shape ``(ncoeff, npoints)`` whose row ``r`` belongs to
``multi_indices(dim, order)[r]``.  A lone point is a set of one, and a jet with
one column is the same at every point and broadcasts against any set.  With
the scaled normalization multiplication is a plain truncated Cauchy product,
and the readers ``gradient`` and ``hessian`` rescale every first or second
partial on the way out.  ``partials`` gathers every first partial as a jet one
order lower, and ``from_partials``, the inverse gather, builds the jet of value
0 whose first partials are given (a current known by its one-form), both from
one plan; so no other module knows where a derivative lies.

Every operation works column by column, adds in a fixed order and evaluates
``exp``, ``ln`` and real powers with ``math.exp``, ``math.log`` and ``**`` on
each element, so a column is bit for bit what the same operations give at
that point alone.  ``mul`` and ``div`` gather their products once per call
into a (layers, rows, points) grid and reduce it over the layers, with rows
and points inner, so each coefficient still sums its products left to right,
by ascending first index, as one product at a time would; only the sign and
payload of a NaN may depend on how the products are grouped.  Under ``quiet``
non-finite values propagate without warnings, as in Python float arithmetic.
Domain checks test every element: an operation fails for the whole set if
any element leaves its domain, and the error names the first such element.
Jets are immutable values: no operation writes into an array once its jet is
returned, so arrays may be shared.

Truncation commutes with every operation here: the coefficients of grade g of
a result read only coefficients of grade <= g of its operands, in the same
order at every order, and grade-major storage makes ``multi_indices(dim, m)``
a prefix of ``multi_indices(dim, k)`` for m <= k.  So the order-m jet of a
field is bit for bit the first ``ncoeff(dim, m)`` rows of its order-k jet.
``memoized``, the one memo of field jets, velocity and table arrays and lifts,
stores every entry read-only in its point set, and reads a missing lower order
off a higher one of the same owner there, unless that one is non-finite.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 3
HYP2F1_REL_TOL = 1e-16
HYP2F1_MAX_TERMS = 10000
HYP2F1_BLOCK = 64  # divides HYP2F1_MAX_TERMS

# IEEE semantics for array arithmetic: overflow, 0/0 and inf - inf give inf or
# NaN without a warning, as Python floats do, and residuals then fail closed.
# Fields, connection tables and residual families evaluate under it.
quiet = np.errstate(all="ignore")


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

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

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
        if coords.ndim != 2 or coords.shape[0] < 2 or coords.shape[1] < 1 or not np.isfinite(coords).all():
            raise ValueError(f"a point set needs finite coordinates, shape (dim >= 2, npoints >= 1): {coords.shape}")
        coords.flags.writeable = False
        self.coords, self._points, self._memo = coords, points, defaultdict(dict)  # owner -> {key: entry}

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def lifts(self, order: int) -> np.ndarray:
        """Every coordinate lift as one array (dim, ncoeff, npoints), [l] bit for bit
        variable(dim, order, l, coords[l]); memoized, so a lower order is a prefix."""

        def build():
            out = np.zeros((self.dim, len(multi_indices(self.dim, order)), len(self)))
            out[:, 0] = self.coords
            if order:
                out[np.arange(self.dim), _reader_plan(self.dim)[0]] = 1.0  # the grade-1 rows
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

    def __repr__(self) -> str:
        return f"PointSet(dim={self.dim}, npoints={len(self)})"


def point_set(points) -> PointSet:
    """A PointSet itself, a lone Point as a set of one, or a sequence of Points as a set."""
    if isinstance(points, PointSet):
        return points
    points = (points,) if isinstance(points, Point) else tuple(points)
    return PointSet(np.array([p.coords for p in points]).T, points)


def memoized(points: PointSet, owner, key, compute):
    """points._memo[owner][key], stored read-only: the set keeps it until the set goes.

    The owner is the evaluator the entry belongs to, and the key an order, or
    a (tag, order) pair, of a Jet or of an array (..., ncoeff, npoints) of jet
    coefficients over the set.  A missing order is read off the lowest present
    higher order of the same owner and tag when that entry is all finite, as
    its leading coefficient rows; otherwise compute() makes it, under quiet.
    So only orders asked for are ever computed, and a hit, which does no
    arithmetic, enters no errstate."""
    per = points._memo[owner]
    got = per.get(key)
    if got is None:
        got = _prefix(per, key, points.dim) if per else None  # an owner's first entry has nothing to read off
        if got is None:
            got = _quietly(compute)
        (got.coeffs if isinstance(got, Jet) else got).setflags(write=False)
        per[key] = got
    return got


@quiet
def _quietly(compute):
    """compute() under quiet; the decorator form nests, where ``with quiet`` may be entered once."""
    return compute()


def _prefix(per: dict, key, dim: int):
    """The entry for key read off the lowest higher order in per, if that one is all finite, else None."""
    tag, order = key if isinstance(key, tuple) else (None, key)
    for k in range(order + 1, MAX_ORDER + 1):
        higher = per.get(k if tag is None else (tag, k))
        if higher is not None:
            coeffs = higher.coeffs if isinstance(higher, Jet) else higher
            if not np.isfinite(coeffs).all():
                return None
            rows = coeffs[..., : len(multi_indices(dim, order)), :]
            return Jet(dim, order, rows) if isinstance(higher, Jet) else rows
    return None


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


@lru_cache(maxsize=None)
def _reader_plan(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the first partials d_l (dim,) and second partials d_k d_l (dim, dim)
    in a jet of high enough order, and the second's alpha! (2 on the diagonal)."""
    pos, unit = _positions(dim, 2), np.eye(dim, dtype=int)
    second = [[pos[tuple(a + b)] for b in unit] for a in unit]
    return np.array([pos[tuple(a)] for a in unit]), np.array(second), np.where(unit == 1, 2.0, 1.0)[:, :, None]


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
    return pairs[:, :, 0].T.copy(), pairs[:, :, 1].T.copy(), pad[:, :, None]


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
    return grids


@lru_cache(maxsize=None)
def _partials_plan(dim: int, ncoeff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first partials of the jets with ncoeff rows, of order m >= 1: row k
    of d_l f, one order lower, is factor[l, k] times row src[l, k] of f, the
    row of multi_indices(dim, m - 1)[k] + e_l.  Inverse: row r >= 1 of f is entry
    (l, k) = back[:, r - 1] of the partials over factor[l, k], at the least l whose src[l] holds r."""
    sizes = [len(multi_indices(dim, k)) for k in range(MAX_ORDER + 1)]
    if ncoeff not in sizes[1:]:
        raise JetError(f"no jet of dim {dim} and order >= 1 has {ncoeff} coefficient rows")
    order = sizes.index(ncoeff)
    pos, lower, unit = _positions(dim, order), multi_indices(dim, order - 1), np.eye(dim, dtype=int)
    src = [[pos[tuple(beta + e)] for beta in lower] for e in unit]
    first = {r: (l, k) for l in reversed(range(dim)) for k, r in enumerate(src[l])}  # the least l is kept
    factor = np.array([[[beta[l] + 1.0] for beta in lower] for l in range(dim)])
    return np.array(src, dtype=np.intp), factor, np.array([first[r] for r in range(1, ncoeff)], dtype=np.intp).T


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
    """Jet(dim, order, coeffs) unchecked: only for a float64 (ncoeff, npoints) array a kernel has just built."""
    out = object.__new__(Jet)
    out.dim, out.order, out.coeffs = dim, order, coeffs
    return out


def _check_compatible(a: Jet, b: Jet) -> None:
    if a.dim != b.dim or a.order != b.order:
        raise JetError(f"incompatible jets: (dim {a.dim}, order {a.order}) vs (dim {b.dim}, order {b.order})")


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
        out.coeffs[_reader_plan(dim)[0][index]] = 1.0
    return out


def add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return _built(a.dim, a.order, a.coeffs + b.coeffs)


def sub(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return _built(a.dim, a.order, a.coeffs - b.coeffs)


def mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product; each coefficient adds its products left to right from
    0.0, by ascending pa.  Orders 0 and 1 slice; higher orders gather each
    operand once over the padded grid of every row's pairs, whose padding
    contributes -0.0, which adds exactly nothing."""
    _check_compatible(a, b)
    x, y = a.coeffs, b.coeffs
    if a.order < 2:
        out = 0.0 + x[0] * y  # every row's first pair, (0, r)
        if a.order:
            out[1:] += x[1:] * y[0]  # a grade-1 row's second, (r, 0)
        return _built(a.dim, a.order, out)
    pa, pb, pad = _mul_grid(a.dim, a.order)
    terms = x[pa] * y[pb]
    np.copyto(terms, -0.0, where=pad)
    return _built(a.dim, a.order, np.add.reduce(terms, axis=0, initial=0.0))  # layer by layer: rows stay inner


def div(a: Jet, b: Jet) -> Jet:
    """Quotient jet; solves the triangular system grade by grade, each
    coefficient subtracting its products left to right, by ascending pa.
    Grades 0 and 1 slice; each higher grade gathers once over the padded grid
    of its rows' pairs, whose padding subtracts 0.0."""
    _check_compatible(a, b)
    x, y = a.coeffs, b.coeffs
    b0 = y[0]
    if np.count_nonzero(b0 == 0.0):
        raise JetDomainError("division by a jet with zero value")
    inv = 1.0 / b0
    q = np.empty((len(x), max(x.shape[1], y.shape[1])))
    q[0] = x[0] * inv
    if a.order:
        k = a.dim + 1
        q[1:k] = (x[1:k] - y[1:k] * q[0]) * inv
        for rows, pa, pb, pad in _div_grids(a.dim, a.order):
            terms = np.empty((len(pa) + 1, *q[rows].shape))
            terms[0] = x[rows]
            np.multiply(y[pa], q[pb], out=terms[1:])
            np.copyto(terms[1:], 0.0, where=pad)
            q[rows] = np.subtract.reduce(terms, axis=0) * inv
    return _built(a.dim, a.order, q)


def derivative(a: Jet, index: int) -> Jet:
    """The jet of d f / d u^{index}, one order lower: entry index of partials(a)."""
    if a.order < 1:
        raise JetError("cannot differentiate an order-0 jet")
    if not 0 <= index < a.dim:
        raise JetError(f"coordinate index {index} out of range for dimension {a.dim}")
    src, factor, _ = _partials_plan(a.dim, len(a.coeffs))
    return Jet(a.dim, a.order - 1, a.coeffs[src[index]] * factor[index])


def stack(js: Sequence[Jet], npoints: int) -> np.ndarray:
    """The jets' coefficients as one array (len(js), ncoeff, npoints); one column spreads."""
    return np.array([j.coeffs if j.coeffs.shape[1] == npoints else np.repeat(j.coeffs, npoints, axis=1) for j in js])


def stacked(op, dim: int, order: int, *operands: np.ndarray) -> np.ndarray:
    """op on m jets at once, each operand an array (m, ncoeff, npoints) of their
    coefficients: one call on the m * npoints columns.  Columns are independent,
    so slice k of the result (m, ncoeff', npoints) is bit for bit op on the k-th jets."""
    m, _, npoints = operands[0].shape
    out = op(*(Jet(dim, order, x.transpose(1, 0, 2).reshape(-1, m * npoints)) for x in operands)).coeffs
    return out.reshape(-1, m, npoints).transpose(1, 0, 2)


def partials(a: Jet | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Every first partial d_l f as jets one order lower, one array (..., dim,
    ncoeff', npoints), of a jet or stacked coefficients as for gradient, in one
    gather: entry [..., l, :, :] is bit for bit derivative(a, l)."""
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
    dim-variable jets.  Entry [..., l, :] is d_l f: its row, since alpha! is 1."""
    coeffs, dim = (a.coeffs, a.dim) if isinstance(a, Jet) else (a, dim)
    return coeffs[..., _reader_plan(dim)[0], :]


def hessian(a: Jet | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Every second partial d_k d_l f as one array (..., dim, dim, npoints), of a
    jet of order >= 2 or of stacked coefficients as for gradient.  Entry
    [..., k, l, :] is d_k d_l f: its row times alpha!."""
    coeffs, dim = (a.coeffs, a.dim) if isinstance(a, Jet) else (a, dim)
    _, rows, factorial = _reader_plan(dim)
    return coeffs[..., rows, :] * factorial


def compose_univariate(g: Jet, series) -> Jet:
    """(f o g) for f given by Taylor coefficients of f at g.value.

    ``series[j]`` must be f^(j)(g.value)/j! (a number or one value per point);
    only the first order+1 entries are used.  Evaluated by Horner's scheme in
    the zero-value jet g - g0.
    """
    series = list(series)[: g.order + 1]
    w = g.coeffs.copy()
    w[0] = 0.0
    w = _built(g.dim, g.order, w)
    out = constant(g.dim, g.order, series[-1])
    for c in reversed(series[:-1]):
        out = mul(out, w)
        out.coeffs[0] += c  # the constant's other rows would add 0.0 to a product, never -0.0: nothing
    return out


def _each(fn, v: np.ndarray, what: str) -> np.ndarray:
    """fn at each element of v, stacked; an element at which fn overflows, or
    divides by an underflowed zero, leaves the domain and is named."""
    values = v.tolist()
    try:
        return np.array(list(map(fn, values)))
    except (OverflowError, ZeroDivisionError):
        for x in values:
            try:
                fn(x)
            except (OverflowError, ZeroDivisionError):
                raise JetDomainError(f"{what} overflows at value {x}") from None
        raise


def jet_exp(a: Jet) -> Jet:
    e0 = _each(math.exp, a.value, "exp")
    return compose_univariate(a, [e0 / math.factorial(j) for j in range(a.order + 1)])


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
    if n < 0:
        if (a.value == 0.0).any():
            raise JetDomainError("negative power of a jet with zero value")
        return div(constant(a.dim, a.order, 1.0), _int_pow(a, -n))
    out = constant(a.dim, a.order, 1.0)
    base = a
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base) if n > 1 else base
        n >>= 1
    return out


@quiet
def hyp2f1_value(a: float, b: float, c: float, z) -> np.ndarray:
    """Gauss hypergeometric series 2F1(a,b;c;z), |z| < 1, by direct summation
    at each element of z.  Terms come HYP2F1_BLOCK at a time, as running
    products and running sums (``accumulate`` works left to right), and each
    element stops at its first term below HYP2F1_REL_TOL relative to its
    partial sum, so it sums exactly what a term-by-term loop would."""
    if c <= 0.0 and float(c).is_integer():
        raise JetDomainError(f"2F1 parameter c={c} is a non-positive integer")
    z = np.asarray(z, dtype=float)
    bad = _first_violation(z, abs(z) >= 1.0)
    if bad is not None:
        raise JetDomainError(f"2F1 series requires |z| < 1, got z={bad}")
    flat = z.reshape(-1)
    out = np.empty(flat.shape)
    live = np.arange(flat.size)
    term = total = np.ones((1, flat.size))
    for k0 in range(0, HYP2F1_MAX_TERMS, HYP2F1_BLOCK):
        k = np.arange(k0, k0 + HYP2F1_BLOCK, dtype=float)[:, None]
        ratio = (a + k) * (b + k) * flat[live] / ((c + k) * (k + 1.0))
        terms = np.multiply.accumulate(np.concatenate([term, ratio]))[1:]
        sums = np.add.accumulate(np.concatenate([total, terms]))[1:]
        size = abs(sums)
        done = abs(terms) <= HYP2F1_REL_TOL * np.where(size > 1.0, size, 1.0)
        stop, hit = done.argmax(axis=0), done.any(axis=0)
        out[live[hit]] = sums[stop[hit], hit.nonzero()[0]]
        term, total, live = terms[-1:, ~hit], sums[-1:, ~hit], live[~hit]
        if not live.size:
            return out.reshape(z.shape)
    raise JetDomainError(f"2F1 series did not converge for z={flat[live[0]]}")


def jet_hypergeom_2f1(a: float, b: float, c: float, z: Jet) -> Jet:
    """2F1(a,b;c;z) for a jet argument.

    Derivatives come from the parameter-shift recurrence
    d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z).
    """
    series = []
    prefactor = 1.0
    for j in range(z.order + 1):
        series.append(prefactor * hyp2f1_value(a + j, b + j, c + j, z.value) / math.factorial(j))
        prefactor *= (a + j) * (b + j) / (c + j)
    return compose_univariate(z, series)
