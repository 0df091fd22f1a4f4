"""Truncated multivariate Taylor (jet) arithmetic, up to third order.

A jet stores the scaled partial derivatives ``d^alpha f / alpha!`` of a scalar
field at a base point, for every multi-index ``alpha`` with ``|alpha| <= order``.
With that normalization multiplication is a plain truncated Cauchy product and
``partial`` rescales on the way out.  Jets are immutable values and every
operation here is a pure function.

A coefficient is either a float (a jet at one ``Point``) or a numpy array of
shape ``(npoints,)`` (the same jet at every point of a ``PointBatch``, after
Neidinger, SIAM Review 52(3), 2010).  Both kinds go through the same
functions.  The arithmetic is elementwise float64, so batch coefficients equal
the scalar ones exactly wherever ``sum`` adds left to right (Python < 3.12;
later versions compensate float sums only); ``exp``, ``ln`` and real powers
use numpy's elementwise versions on arrays and agree to rounding.  Domain checks test every element,
and an operation fails for the whole batch if any element leaves its domain.
Coefficients are never updated in place, so arrays may be shared between jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_ORDER = 3
HYP2F1_REL_TOL = 1e-16
HYP2F1_MAX_TERMS = 10000


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


class PointBatch:
    """Base points evaluated together: one finite array of shape (npoints,) per
    coordinate, read-only.  Hashes by identity, so a batch never equals a Point."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Sequence[float]]):
        arrays = tuple(np.array(c, dtype=float) for c in coords)
        if len(arrays) < 2:
            raise ValueError(f"a point needs at least 2 coordinates, got {len(arrays)}")
        shape = arrays[0].shape
        if len(shape) != 1 or shape[0] < 1 or any(a.shape != shape for a in arrays):
            raise ValueError(f"batch coordinates need one common shape (npoints,), got {[a.shape for a in arrays]}")
        for i, a in enumerate(arrays):
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite value in batch coordinate u{i + 1}")
            a.flags.writeable = False
        self.coords = arrays

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def npoints(self) -> int:
        return self.coords[0].shape[0]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.coords[i]

    def point(self, k: int) -> Point:
        """The k-th point of the batch."""
        return Point(tuple(float(c[k]) for c in self.coords))

    def __repr__(self) -> str:
        return f"PointBatch(dim={self.dim}, npoints={self.npoints})"


def _first_violation(value, bad):
    """None where the domain condition ``bad`` holds nowhere, else the (first)
    offending value; ``value`` is a float or a batch array, ``bad`` its mask."""
    if isinstance(value, np.ndarray):
        return float(value[np.argmax(bad)]) if bad.any() else None
    return value if bad else None


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
    out: list[tuple[int, ...]] = []
    for total in range(order + 1):
        out.extend(_compositions(dim, total))
    return tuple(out)


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
def _mul_table(dim: int, order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row r lists the (pa, pb) coefficient pairs whose product lands on index r."""
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


@lru_cache(maxsize=None)
def _alpha_factorial(alpha: tuple[int, ...]) -> float:
    out = 1.0
    for a in alpha:
        out *= math.factorial(a)
    return out


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor expansion; coeffs[i] is d^alpha f / alpha! for multi_indices[i].

    Jets combine through the functions below (add, mul, ...); negation is the
    one operator."""

    dim: int
    order: int
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        expected = len(multi_indices(self.dim, self.order))
        if len(self.coeffs) != expected:
            raise JetError(
                f"jet of dim {self.dim}, order {self.order} needs {expected} "
                f"coefficients, got {len(self.coeffs)}"
            )

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def coefficient(self, alpha: tuple[int, ...]) -> float:
        """The Taylor coefficient d^alpha f / alpha!."""
        return self.coeffs[_position_of(self, alpha)]

    def __neg__(self):
        return Jet(self.dim, self.order, tuple(-c for c in self.coeffs))


def _position_of(j: Jet, alpha: Iterable[int]) -> int:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != j.dim:
        raise JetError(f"multi-index {alpha} does not match dimension {j.dim}")
    if sum(alpha) > j.order:
        raise JetError(f"multi-index {alpha} exceeds jet order {j.order}")
    return _positions(j.dim, j.order)[alpha]


def _check_compatible(a: Jet, b: Jet) -> None:
    if a.dim != b.dim or a.order != b.order:
        raise JetError(
            f"incompatible jets: (dim {a.dim}, order {a.order}) vs (dim {b.dim}, order {b.order})"
        )


def constant(dim: int, order: int, value) -> Jet:
    """The constant jet; ``value`` is a float or a batch array."""
    coeffs = [0.0] * len(multi_indices(dim, order))
    coeffs[0] = value if isinstance(value, np.ndarray) else float(value)
    return Jet(dim, order, tuple(coeffs))


def variable(dim: int, order: int, index: int, value) -> Jet:
    """The coordinate lift u^{index} (0-based) as a jet at the given value
    (a float or a batch array)."""
    if not 0 <= index < dim:
        raise JetError(f"coordinate index {index} out of range for dimension {dim}")
    coeffs = [0.0] * len(multi_indices(dim, order))
    coeffs[0] = value if isinstance(value, np.ndarray) else float(value)
    if order >= 1:
        coeffs[_positions(dim, order)[_unit(dim, index)]] = 1.0
    return Jet(dim, order, tuple(coeffs))


def _unit(dim: int, index: int) -> tuple[int, ...]:
    """The multi-index of the first partial d / d u^{index}."""
    return tuple(1 if m == index else 0 for m in range(dim))


def add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.dim, a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def sub(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.dim, a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def mul(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    rows = _mul_table(a.dim, a.order)
    ac, bc = a.coeffs, b.coeffs
    return Jet(a.dim, a.order, tuple(sum(ac[pa] * bc[pb] for pa, pb in row) for row in rows))


def div(a: Jet, b: Jet) -> Jet:
    """Quotient jet; solves the triangular system value-first."""
    _check_compatible(a, b)
    b0 = b.coeffs[0]
    if _first_violation(b0, b0 == 0.0) is not None:
        raise JetDomainError("division by a jet with zero value")
    rows = _mul_table(a.dim, a.order)
    inv = 1.0 / b0
    q = [0.0] * len(rows)
    for pos, row in enumerate(rows):
        s = a.coeffs[pos]
        for pa, pb in row:
            if pa != 0:
                s = s - b.coeffs[pa] * q[pb]
        q[pos] = s * inv
    return Jet(a.dim, a.order, tuple(q))


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
    pos = _positions(a.dim, a.order)
    out = []
    for beta in multi_indices(a.dim, a.order - 1):
        shifted = tuple(b + (1 if i == index else 0) for i, b in enumerate(beta))
        out.append(a.coeffs[pos[shifted]] * (beta[index] + 1))
    return Jet(a.dim, a.order - 1, tuple(out))


def partial(a: Jet, alpha: Iterable[int]) -> float:
    """The plain partial derivative d^alpha f (factorial rescaling applied)."""
    alpha = tuple(int(x) for x in alpha)
    return a.coeffs[_position_of(a, alpha)] * _alpha_factorial(alpha)


def compose_univariate(g: Jet, series: Iterable[float]) -> Jet:
    """(f o g) for f given by Taylor coefficients of f at g.value.

    ``series[j]`` must be f^(j)(g.value)/j!; only the first order+1 entries
    are used.  Evaluated by Horner's scheme in the zero-value jet g - g0.
    """
    series = list(series)[: g.order + 1]
    w = Jet(g.dim, g.order, (0.0,) + g.coeffs[1:])
    out = constant(g.dim, g.order, series[-1])
    for c in reversed(series[:-1]):
        out = add(mul(out, w), constant(g.dim, g.order, c))
    return out


def _no_overflow(fn, v, what: str):
    """fn(v) for a float or a batch array; an overflowing result leaves the domain."""
    try:
        if isinstance(v, np.ndarray):
            with np.errstate(over="raise"):
                return fn(v)
        return fn(v)
    except (OverflowError, FloatingPointError):
        raise JetDomainError(f"{what} overflows at value {float(np.max(v))}") from None


def jet_exp(a: Jet) -> Jet:
    v = a.value
    e0 = _no_overflow(np.exp if isinstance(v, np.ndarray) else math.exp, v, "exp")
    return compose_univariate(a, [e0 / math.factorial(j) for j in range(a.order + 1)])


def jet_ln(a: Jet) -> Jet:
    v = a.value
    bad = _first_violation(v, v <= 0.0)
    if bad is not None:
        raise JetDomainError(f"ln of non-positive value {bad}")
    series = [np.log(v) if isinstance(v, np.ndarray) else math.log(v)]
    for j in range(1, a.order + 1):
        series.append((-1.0) ** (j - 1) / (j * v**j))
    return compose_univariate(a, series)


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
    series = _no_overflow(
        lambda x: [b * x ** (r - j) for j, b in enumerate(binoms)], v, f"pow with exponent {r}"
    )
    return compose_univariate(a, series)


def _int_pow(a: Jet, n: int) -> Jet:
    if n < 0:
        if _first_violation(a.value, a.value == 0.0) is not None:
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


def _bad_c(c: float) -> bool:
    return c <= 0.0 and float(c).is_integer()


def hyp2f1_value(a: float, b: float, c: float, z):
    """Gauss hypergeometric series 2F1(a,b;c;z), |z| < 1, by direct summation.

    ``z`` is a float or a batch array.  On an array every element stops at the
    term where its own scalar series would stop, so both give the same value.
    """
    if _bad_c(c):
        raise JetDomainError(f"2F1 parameter c={c} is a non-positive integer")
    bad = _first_violation(z, abs(z) >= 1.0)
    if bad is not None:
        raise JetDomainError(f"2F1 series requires |z| < 1, got z={bad}")
    batch = isinstance(z, np.ndarray)
    live = np.ones(z.shape, dtype=bool) if batch else True
    total = 1.0
    term = 1.0
    for k in range(HYP2F1_MAX_TERMS):
        term = term * ((a + k) * (b + k) * z / ((c + k) * (k + 1.0)))
        if batch:
            total = np.where(live, total + term, total)
            size = abs(total)
            live = live & ~(abs(term) <= HYP2F1_REL_TOL * np.where(size > 1.0, size, 1.0))
            if not live.any():
                return total
        else:
            total += term
            if abs(term) <= HYP2F1_REL_TOL * max(1.0, abs(total)):
                return total
    raise JetDomainError(f"2F1 series did not converge for z={_first_violation(z, live) if batch else z}")


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
