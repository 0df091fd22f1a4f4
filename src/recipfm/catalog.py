"""Built-in systems and the closed-form density/current library.

Every family is expression-language source with named constants, turned into
entries by the one family builder ``_family``: one entry per unit vector of the
constants appearing in the density (so each basis function is exercised on its
own) plus one generic combination (c0, c1, c2, c3) = (1, 2, -1, 0.5).  The two
homogeneous flat coordinates are single entries of their own.  Three-component
families are written in the difference variables x21 = u2 - u1 and
x32 = u3 - u2 exactly as derived, then recomposed through the exp(h*u2) factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from . import jets
from .exprlang import MAX_DIM, ScalarField, field
from .geometry import DiagonalSystem, coordinate_predicate
from .jets import PointSet
from .reciprocal import RotationFrame, density_window

GENERIC_CONSTANTS = {"c0": 1.0, "c1": 2.0, "c2": -1.0, "c3": 0.5}
Z_WINDOW = 0.9

# difference variables of the three-component families
_X21 = "(u2-u1)"
_X32 = "(u3-u2)"
_XS = "((u3-u2)+(u2-u1))"  # = u3 - u1


def epsilon_system(n: int, eps: float) -> DiagonalSystem:
    """The running-example system v^i = u^i - eps * sum_k u^k.  Its velocity jets are one array over
    the set's coordinate lifts: the jet operations of the source u<i> - eps*(u1+...+un), bit for bit."""
    if n < 2:
        raise ValueError(f"the system needs at least 2 components, got n={n}")
    if n > MAX_DIM:
        raise ValueError(f"dimension must be in 2..{MAX_DIM}, got {n}")
    eps = float(eps)

    def closed_form(points: PointSet, order: int) -> np.ndarray:
        u = points.lifts(order)  # accumulate adds u1 + ... + un in index order, as the source's + does
        return u - jets.scale(eps, np.add.accumulate(u, axis=0)[-1], n)

    return DiagonalSystem(n, closed_form)


class _ReadOnlyParams(dict):
    """A dict that refuses every change, so that an entry's fields, built once, stay its own."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a catalog entry's params are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse


@dataclass(frozen=True)
class CatalogEntry:
    """A concrete density (constants bound), with grading metadata and optional current.

    The density and the current are compiled once per entry, on first use, and
    shared by every caller after; params are read-only, so they cannot go stale."""

    entry_id: str
    family: str
    dim: int
    eps: float
    h: float
    k: float | None
    density_src: str
    current_src: str | None
    params: Mapping[str, float]
    current_bands: tuple[tuple[float, float], ...] | None
    z_window: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _ReadOnlyParams(self.params))

    def density_field(self) -> ScalarField:
        return self._density

    def current_field(self) -> ScalarField | None:
        return self._current

    @functools.cached_property
    def _density(self) -> ScalarField:
        return field(self.density_src, self.dim, self.params)

    @functools.cached_property
    def _current(self) -> ScalarField | None:
        return None if self.current_src is None else field(self.current_src, self.dim, self.params)

    def sample_predicates(self, order: int = 0) -> tuple[Callable[[PointSet], np.ndarray], ...]:
        """Point-set filters for this entry, each giving one bool per point: the
        hypergeometric argument inside its disk when one is involved (first, a
        coordinate window judging each draw, so the density is never evaluated
        outside it), and density_window(A, order) of this entry's density field A."""
        window = density_window(self.density_field(), order)
        return (_in_z_window, window) if self.z_window else (window,)


@coordinate_predicate
def _in_z_window(points: PointSet) -> np.ndarray:
    """Keeps the points with u1 != u2 and |(u3 - u1) / (u2 - u1)| <= Z_WINDOW: a coordinate window, which
    judges each draw before the density window sees it."""
    u1, u2, u3 = points.coords[:3]
    den = u2 - u1
    apart = den != 0.0
    return apart & (np.abs((u3 - u1) / np.where(apart, den, 1.0)) <= Z_WINDOW)


_DIM2_WIDE = ((-1.8, -0.7), (0.7, 1.8))
_DIM2_NARROW = ((-0.95, -0.7), (0.7, 0.95))
_DIM3_Z = ((-2.0, -1.3), (0.5, 2.0), (-0.9, -0.4))


def _family(
    family: str,
    dim: int,
    eps: float,
    h: float,
    density: str,
    ks: dict[str, float | None],
    current: str | None = None,
    bands: tuple[tuple[float, float], ...] | None = None,
) -> Iterator[CatalogEntry]:
    """The entries of one family: one per constant of ks, with that constant 1
    and the others 0, then the generic combination under the family id.  ks
    maps each constant of the density to its entry's Euler grading k (None
    where unknown); the generic entry has k only where all of them agree.  A
    current's additive constant c3 is 0 in the unit entries."""
    base = {"h": h} if h != 0.0 else {}
    names = (*ks, "c3") if current is not None and "c3" in current else tuple(ks)
    common = dict(family=family, dim=dim, eps=eps, h=h, density_src=density, current_src=current, current_bands=bands)
    for c, k in ks.items():
        yield CatalogEntry(f"{family}:{c}", k=k, params={**base, **{o: float(o == c) for o in names}}, **common)
    shared = set(ks.values())
    generic = {**base, **{o: GENERIC_CONSTANTS[o] for o in names}}
    yield CatalogEntry(family, k=shared.pop() if len(shared) == 1 else None, params=generic, **common)


def _flat_sources(eps: float) -> tuple[tuple[str, dict] | None, tuple[str, dict] | None]:
    """Expression sources for the two homogeneous flat coordinates at a given eps.

    Each one exists only where its own hypergeometric c-parameter is not a
    non-positive integer; the excluded one is returned as None.
    """
    if eps == 1.0 / 3.0:
        raise ValueError("eps = 1/3 degenerates the homogeneity degree; excluded")
    z = "(u3-u1)/(u2-u1)"
    first = None
    second = None
    c1 = 2.0 * eps
    if not (c1 <= 0.0 and float(c1).is_integer()):
        params = {"pw": 1.0 - 3.0 * eps, "av": eps, "bv": 3.0 * eps - 1.0, "cv": c1}
        first = (f"pow(u2-u1, pw)*hyp2f1(av, bv, cv, {z})", params)
    c2 = 2.0 - 2.0 * eps
    if not (c2 <= 0.0 and float(c2).is_integer()):
        params = {
            "pw": 1.0 - 3.0 * eps,
            "qw": 1.0 - 2.0 * eps,
            "av": eps,
            "bv": 1.0 - eps,
            "cv": c2,
        }
        second = (f"pow(u2-u1, pw)*pow({z}, qw)*hyp2f1(av, bv, cv, {z})", params)
    return first, second


@functools.cache
def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All built-in density instances (unit-vector and generic constants), built once."""
    entries: list[CatalogEntry] = []
    for h, tag in ((1.0, "h1"), (-0.5, "hm05")):
        # exponential densities
        entries += _family(
            f"dim2-eps1-{tag}", 2, 1.0, h,
            "c1*exp(h*u1)/(u2-u1) + c2*exp(h*u2)/(u2-u1)",
            dict.fromkeys(("c1", "c2")),
            current="c1*exp(h*u1)*u2/(u1-u2) + c2*exp(h*u2)*u1/(u1-u2) + c3",
            bands=_DIM2_WIDE,
        )
        # polynomial-exponential densities
        entries += _family(
            f"dim2-eps-1-{tag}", 2, -1.0, h,
            "c1*exp(h*u1)*(h*u2-h*u1+2) + c2*exp(h*u2)*(h*u2-h*u1-2)",
            dict.fromkeys(("c1", "c2")),
            current=(
                "c1*exp(h*u1)*(6*u1-(2*u1+u2)*(u1-u2)*h-6/h)"
                " + c2*exp(h*u2)*(-6*u2-(2*u2+u1)*(u1-u2)*h+6/h) + c3"
            ),
            bands=_DIM2_NARROW,
        )
    entries += _family(
        "dim2-eps1-h0", 2, 1.0, 0.0,
        "c1 + c2/(u2-u1)",
        {"c1": 0.0, "c2": -1.0},
        current="c2*u2/(u1-u2) + c3",
        bands=_DIM2_WIDE,
    )
    # cubic densities
    entries += _family(
        "dim2-eps-1-h0", 2, -1.0, 0.0,
        "c1 + c2*(u2-u1)^3",
        {"c1": 0.0, "c2": 3.0},
        current="c2*(3/2)*(u1+u2)*(u2-u1)^3 + c3",
        bands=_DIM2_WIDE,
    )
    for h, tag in ((1.0, "h1"), (-0.5, "hm05")):
        F = (
            f"c0/({_X32}*{_X21})"
            f" + c1*exp(h*{_X32})/({_X32}*{_XS})"
            f" + c2*exp(-h*{_X21})/({_X21}*{_XS})"
        )
        entries += _family(f"dim3-eps1-{tag}", 3, 1.0, h, f"({F})*exp(h*u2)", dict.fromkeys(("c0", "c1", "c2")))
        # the c2 term divides by h, so the family needs h != 0
        F = (
            f"c0*(h*{_X32}/3 + 1 - h^2*{_X21}*{_X32}/6 - h*{_X21}/3)"
            f" + c1*exp(-h*{_X21})*(6 + 4*h*{_X21} + h^2*{_X21}^2 + 2*h*{_X32} + h^2*{_X32}*{_X21})"
            f" + c2*exp(h*{_X32})*(6 + h^2*{_X32}^2 + h^2*{_X32}*{_X21} - 2*h*{_X21} - 4*h*{_X32})/h"
        )
        entries += _family(f"dim3-eps-1-{tag}", 3, -1.0, h, f"({F})*exp(h*u2)", dict.fromkeys(("c0", "c1", "c2")))
    entries += _family(
        "dim3-eps1-h0", 3, 1.0, 0.0,
        f"c1*(1/({_X32}*({_X21}+{_X32})) + 1/({_X21}*({_X32}+{_X21}))) + c2",
        {"c1": -2.0, "c2": 0.0},
    )
    # quartic family
    entries += _family(
        "dim3-eps-1-h0", 3, -1.0, 0.0,
        f"c1 + c2*({_X32}*{_X21}^3 + {_X21}^4/2) + c3*({_X32}^4/12 + {_X21}*{_X32}^3/6)",
        {"c1": 0.0, "c2": 4.0, "c3": 4.0},
    )
    # the homogeneous flat coordinates (hypergeometric route): the first at eps=1, the second at eps=-1
    (src1, params1), _ = _flat_sources(1.0)
    entries.append(
        CatalogEntry(
            entry_id="dim3-eps1-flatcoord", family="dim3-eps1-flatcoord", dim=3, eps=1.0, h=0.0, k=-2.0,
            density_src=src1, current_src="(u1+u3)/((u3-u2)*(u2-u1)) + c3", params={**params1, "c3": 0.0},
            current_bands=_DIM3_Z, z_window=True,
        )
    )
    _, (src2, params2) = _flat_sources(-1.0)
    entries.append(
        CatalogEntry(
            entry_id="dim3-eps-1-flatcoord", family="dim3-eps-1-flatcoord", dim=3, eps=-1.0, h=0.0, k=4.0,
            density_src=src2, current_src=None, params=params2, current_bands=None, z_window=True,
        )
    )
    return tuple(entries)


def entry(entry_id: str) -> CatalogEntry:
    for e in catalog_entries():
        if e.entry_id == entry_id:
            return e
    raise ValueError(f"no catalog entry {entry_id!r}")


def epsilon_frame_n2(eps: float) -> RotationFrame:
    """The closed-form two-component rotation frame reproducing the running
    example's Christoffel symbols: beta_12 = eps/(u1-u2), beta_21 = eps/(u2-u1),
    H_1 = H_2 = (u1-u2)^(-eps), degree eps.  Restricted to eps = +-1 so the
    Lame power stays integral on both sides of the diagonal."""
    if eps not in (1.0, -1.0, 1, -1):
        raise ValueError("the built-in frame is defined for eps in {1, -1}")
    eps = float(eps)
    beta = {
        (0, 1): field("eps/(u1-u2)", 2, {"eps": eps}),
        (1, 0): field("eps/(u2-u1)", 2, {"eps": eps}),
    }
    lame_src = field("pow(u1-u2, me)", 2, {"me": -eps})
    return RotationFrame.of_fields(2, beta, (lame_src, lame_src), eps)
