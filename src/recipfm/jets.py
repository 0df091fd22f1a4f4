"""Truncated multivariate Taylor (jet) arithmetic, up to third order, over point sets.

A jet stores the scaled partial derivatives ``d^alpha f / alpha!`` of a scalar
field for every multi-index ``alpha`` with ``|alpha| <= order``, at every point
of a ``PointSet`` at once (Neidinger, SIAM Review 52(3), 2010; Griewank and
Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 13): ``coeffs`` is one
float64 array of shape ``(ncoeff, npoints)`` whose row ``r`` belongs to
``multi_indices(dim, order)[r]``.  A lone point is a set of one, and a jet with
one column is the same at every point and broadcasts against any set.  With
the scaled normalization multiplication is a plain truncated Cauchy product,
and ``partial`` rescales on the way out.

Every operation works column by column, adds in a fixed order and evaluates
``exp``, ``ln`` and real powers with ``math.exp``, ``math.log`` and ``**`` on
each element, so a column is bit for bit what the same operations give at
that point alone.  Under ``quiet`` non-finite values propagate without
warnings, as in Python float arithmetic.  Domain checks test every element:
an operation fails for the whole set if any element leaves its domain, and
the error names the first such element.  Jets are immutable values: no
operation writes into an array it did not create, so arrays may be shared.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

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

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self) -> str:
        return f"Point{self.coords}"


def point(*coords: float) -> Point:
    return Point(tuple(coords))


class PointSet(Sequence):
    """Points evaluated together: a sequence of Points whose coordinates are
    also one read-only array ``coords`` of shape (dim, npoints).  A set is one
    evaluation scope: it keeps its coordinate jets (``lift``), and field memos
    and connection-table caches are keyed weakly by it, so what is computed
    over a set lives as long as the set."""

    __slots__ = ("coords", "_points", "_lifts", "__weakref__")

    def __init__(self, coords, points: tuple[Point, ...] | None = None):
        """The set with coordinates coords (dim, npoints); its Points, unless
        given, are built when first read."""
        coords = np.array(coords, dtype=float, order="C")
        if coords.ndim != 2 or coords.shape[0] < 2 or coords.shape[1] < 1 or not np.isfinite(coords).all():
            raise ValueError(f"a point set needs finite coordinates, shape (dim >= 2, npoints >= 1): {coords.shape}")
        coords.flags.writeable = False
        self.coords, self._points, self._lifts = coords, points, {}

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def lift(self, index: int, order: int) -> "Jet":
        """The coordinate u^{index} (0-based) as a jet over the set, made once per order."""
        got = self._lifts.get((index, order))
        if got is None:
            got = self._lifts[index, order] = variable(self.dim, order, index, self.coords[index])
        return got

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


def memoized(cache, points: PointSet, key, compute):
    """cache[points][key], computed once; cache is a weakref.WeakKeyDictionary,
    so the entries of a set go when the set goes."""
    per = cache.get(points)
    if per is None:
        per = cache[points] = {}
    got = per.get(key)
    if got is None:
        got = per[key] = compute()
    return got


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
def unit_positions(dim: int) -> np.ndarray:
    """Row of the first partial d / d u^l in any jet of order >= 1, for each l."""
    return np.array([_positions(dim, 1)[_unit(dim, l)] for l in range(dim)])


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


def _layers(rows) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """The (pa, pb) pairs of rows layer by layer: layer l holds each row's l-th
    pair as index arrays, and the mask of the rows without one (None if every
    row has one), whose entries point at pair (0, 0)."""
    layers = []
    for l in range(max(map(len, rows), default=0)):
        pa, pb = (np.array(x, dtype=np.intp) for x in zip(*(row[l] if l < len(row) else (0, 0) for row in rows)))
        pad = np.array([[l >= len(row)] for row in rows])
        layers.append((pa, pb, pad if pad.any() else None))
    return layers


@lru_cache(maxsize=None)
def _mul_plan(dim: int, order: int):
    """Layers of the Cauchy product's pairs after each row's first, (0, r), for rows 1.. ."""
    return _layers([row[1:] for row in _mul_table(dim, order)[1:]])


@lru_cache(maxsize=None)
def _div_plan(dim: int, order: int):
    """Per grade: the slice of its rows and the layers of their pairs with pa != 0."""
    rows, plan, start = _mul_table(dim, order), [], 0
    for grade in range(order + 1):
        stop = start + math.comb(grade + dim - 1, dim - 1)
        plan.append((slice(start, stop), _layers([[pair for pair in row if pair[0]] for row in rows[start:stop]])))
        start = stop
    return plan


@lru_cache(maxsize=None)
def _derivative_plan(dim: int, order: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Source rows and factors of d / d u^{index} of an order-`order` jet."""
    pos = _positions(dim, order)
    lower = multi_indices(dim, order - 1)
    src = [pos[tuple(b + (1 if i == index else 0) for i, b in enumerate(beta))] for beta in lower]
    return np.array(src, dtype=np.intp), np.array([[beta[index] + 1.0] for beta in lower])


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
        return self.coeffs[_position_of(self, alpha)]

    def __neg__(self):
        return Jet(self.dim, self.order, -self.coeffs)


def _position_of(j: Jet, alpha: Iterable[int]) -> int:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != j.dim:
        raise JetError(f"multi-index {alpha} does not match dimension {j.dim}")
    if sum(alpha) > j.order:
        raise JetError(f"multi-index {alpha} exceeds jet order {j.order}")
    return _positions(j.dim, j.order)[alpha]


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
    return Jet(dim, order, coeffs)


def variable(dim: int, order: int, index: int, value) -> Jet:
    """The coordinate lift u^{index} (0-based) as a jet at the given values."""
    if not 0 <= index < dim:
        raise JetError(f"coordinate index {index} out of range for dimension {dim}")
    out = constant(dim, order, value)
    if order >= 1:
        out.coeffs[unit_positions(dim)[index]] = 1.0
    return out


def _unit(dim: int, index: int) -> tuple[int, ...]:
    """The multi-index of the first partial d / d u^{index}."""
    return tuple(1 if m == index else 0 for m in range(dim))


def add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.dim, a.order, a.coeffs + b.coeffs)


def sub(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.dim, a.order, a.coeffs - b.coeffs)


def mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product; each coefficient adds its products left to right from 0,
    padding contributing -0.0, which adds exactly nothing."""
    _check_compatible(a, b)
    out = 0.0 + a.coeffs[0] * b.coeffs  # every row's first pair, (0, r)
    for pa, pb, pad in _mul_plan(a.dim, a.order):
        terms = a.coeffs[pa] * b.coeffs[pb]
        if pad is not None:
            np.copyto(terms, -0.0, where=pad)
        out[1:] += terms
    return Jet(a.dim, a.order, out)


def div(a: Jet, b: Jet) -> Jet:
    """Quotient jet; solves the triangular system grade by grade, each
    coefficient subtracting its products left to right (padding subtracts 0.0)."""
    _check_compatible(a, b)
    b0 = b.coeffs[0]
    if np.count_nonzero(b0 == 0.0):
        raise JetDomainError("division by a jet with zero value")
    inv = 1.0 / b0
    q = np.empty((a.coeffs.shape[0], max(a.coeffs.shape[1], b.coeffs.shape[1])))
    for rows, layers in _div_plan(a.dim, a.order):
        s = a.coeffs[rows]
        for pa, pb, pad in layers:
            terms = b.coeffs[pa] * q[pb]
            if pad is not None:
                np.copyto(terms, 0.0, where=pad)
            s = s - terms
        q[rows] = s * inv
    return Jet(a.dim, a.order, q)


def truncate(a: Jet, order: int) -> Jet:
    if order > a.order:
        raise JetError(f"cannot extend a jet of order {a.order} to order {order}")
    return Jet(a.dim, order, a.coeffs[: len(multi_indices(a.dim, order))])


def derivative(a: Jet, index: int) -> Jet:
    """The jet of d f / d u^{index}, one order lower."""
    if a.order < 1:
        raise JetError("cannot differentiate an order-0 jet")
    if not 0 <= index < a.dim:
        raise JetError(f"coordinate index {index} out of range for dimension {a.dim}")
    src, factor = _derivative_plan(a.dim, a.order, index)
    return Jet(a.dim, a.order - 1, a.coeffs[src] * factor)


def partial(a: Jet, alpha: Iterable[int]) -> np.ndarray:
    """The plain partial derivative d^alpha f over the points (factorial rescaling applied)."""
    alpha = tuple(int(x) for x in alpha)
    return a.coeffs[_position_of(a, alpha)] * math.prod(map(math.factorial, alpha))


def compose_univariate(g: Jet, series) -> Jet:
    """(f o g) for f given by Taylor coefficients of f at g.value.

    ``series[j]`` must be f^(j)(g.value)/j! (a number or one value per point);
    only the first order+1 entries are used.  Evaluated by Horner's scheme in
    the zero-value jet g - g0.
    """
    series = list(series)[: g.order + 1]
    w = g.coeffs.copy()
    w[0] = 0.0
    w = Jet(g.dim, g.order, w)
    out = constant(g.dim, g.order, series[-1])
    for c in reversed(series[:-1]):
        out = add(mul(out, w), constant(g.dim, g.order, c))
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
