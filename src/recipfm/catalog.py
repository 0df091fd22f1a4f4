"""Built-in systems and the closed-form density/current library.

Every family is stored as expression-language source with named constants, and
instantiated once per unit vector of the constants appearing in the density
(so each basis function is exercised on its own) plus one generic combination
(c0, c1, c2, c3) = (1, 2, -1, 0.5).  Three-component families are written in
the difference variables x21 = u2 - u1 and x32 = u3 - u2 exactly as derived,
then recomposed through the exp(h*u2) factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .exprlang import ScalarField, field
from .geometry import DiagonalSystem
from .jets import Point
from .reciprocal import RotationFrame, density_window

GENERIC_CONSTANTS = {"c0": 1.0, "c1": 2.0, "c2": -1.0, "c3": 0.5}
Z_WINDOW = 0.9

# difference variables of the three-component families
_X21 = "(u2-u1)"
_X32 = "(u3-u2)"
_XS = "((u3-u2)+(u2-u1))"  # = u3 - u1


def epsilon_system(n: int, eps: float) -> DiagonalSystem:
    """The running-example system with velocities v^i = u^i - eps * sum_k u^k."""
    if n < 2:
        raise ValueError(f"the system needs at least 2 components, got n={n}")
    shift = field("eps*(" + "+".join(f"u{k}" for k in range(1, n + 1)) + ")", n, {"eps": eps})  # shared by every v^i
    return DiagonalSystem(tuple(field(f"u{i}", n) - shift for i in range(1, n + 1)))


@dataclass(frozen=True)
class CatalogEntry:
    """A concrete density (constants bound), with grading metadata and optional current."""

    entry_id: str
    family: str
    description: str
    dim: int
    eps: float
    h: float
    k: float | None
    density_src: str
    current_src: str | None
    params: dict
    current_bands: tuple[tuple[float, float], ...] | None
    z_window: bool = False

    def density_field(self) -> ScalarField:
        return field(self.density_src, self.dim, self.params)

    def current_field(self) -> ScalarField | None:
        if self.current_src is None:
            return None
        return field(self.current_src, self.dim, self.params)

    def sample_predicates(self, A: ScalarField | None = None) -> tuple[Callable[[Point], bool], ...]:
        """Point filters for this entry: density away from zero, and the
        hypergeometric argument inside its disk when one is involved.  A is
        this entry's density field if the caller has compiled it already."""
        window = density_window(A if A is not None else self.density_field())
        return (_in_z_window, window) if self.z_window else (window,)


def _in_z_window(p: Point) -> bool:
    den = p[1] - p[0]
    return den != 0.0 and abs((p[2] - p[0]) / den) <= Z_WINDOW


_DIM2_WIDE = ((-1.8, -0.7), (0.7, 1.8))
_DIM2_NARROW = ((-0.95, -0.7), (0.7, 0.95))
_DIM3_Z = ((-2.0, -1.3), (0.5, 2.0), (-0.9, -0.4))


def _families() -> list[dict]:
    fams: list[dict] = []
    for h, tag in ((1.0, "h1"), (-0.5, "hm05")):
        fams.append(
            dict(
                family=f"dim2-eps1-{tag}",
                description="two-component exponential densities, eps=1, nonzero unit grading",
                dim=2,
                eps=1.0,
                h=h,
                density="c1*exp(h*u1)/(u2-u1) + c2*exp(h*u2)/(u2-u1)",
                current="c1*exp(h*u1)*u2/(u1-u2) + c2*exp(h*u2)*u1/(u1-u2) + c3",
                a_constants=("c1", "c2"),
                basis_k={},
                bands=_DIM2_WIDE,
            )
        )
        fams.append(
            dict(
                family=f"dim2-eps-1-{tag}",
                description="two-component polynomial-exponential densities, eps=-1, nonzero unit grading",
                dim=2,
                eps=-1.0,
                h=h,
                density="c1*exp(h*u1)*(h*u2-h*u1+2) + c2*exp(h*u2)*(h*u2-h*u1-2)",
                current=(
                    "c1*exp(h*u1)*(6*u1-(2*u1+u2)*(u1-u2)*h-6/h)"
                    " + c2*exp(h*u2)*(-6*u2-(2*u2+u1)*(u1-u2)*h+6/h) + c3"
                ),
                a_constants=("c1", "c2"),
                basis_k={},
                bands=_DIM2_NARROW,
            )
        )
    fams.append(
        dict(
            family="dim2-eps1-h0",
            description="two-component densities, eps=1, unit-invariant",
            dim=2,
            eps=1.0,
            h=0.0,
            density="c1 + c2/(u2-u1)",
            current="c2*u2/(u1-u2) + c3",
            a_constants=("c1", "c2"),
            basis_k={"c1": 0.0, "c2": -1.0},
            bands=_DIM2_WIDE,
        )
    )
    fams.append(
        dict(
            family="dim2-eps-1-h0",
            description="two-component cubic densities, eps=-1, unit-invariant",
            dim=2,
            eps=-1.0,
            h=0.0,
            density="c1 + c2*(u2-u1)^3",
            current="c2*(3/2)*(u1+u2)*(u2-u1)^3 + c3",
            a_constants=("c1", "c2"),
            basis_k={"c1": 0.0, "c2": 3.0},
            bands=_DIM2_WIDE,
        )
    )
    for h, tag in ((1.0, "h1"), (-0.5, "hm05")):
        F = (
            f"c0/({_X32}*{_X21})"
            f" + c1*exp(h*{_X32})/({_X32}*{_XS})"
            f" + c2*exp(-h*{_X21})/({_X21}*{_XS})"
        )
        fams.append(
            dict(
                family=f"dim3-eps1-{tag}",
                description="three-component family, eps=1, nonzero unit grading",
                dim=3,
                eps=1.0,
                h=h,
                density=f"({F})*exp(h*u2)",
                current=None,
                a_constants=("c0", "c1", "c2"),
                basis_k={},
                bands=None,
            )
        )
        F = (
            f"c0*(h*{_X32}/3 + 1 - h^2*{_X21}*{_X32}/6 - h*{_X21}/3)"
            f" + c1*exp(-h*{_X21})*(6 + 4*h*{_X21} + h^2*{_X21}^2 + 2*h*{_X32} + h^2*{_X32}*{_X21})"
            f" + c2*exp(h*{_X32})*(6 + h^2*{_X32}^2 + h^2*{_X32}*{_X21} - 2*h*{_X21} - 4*h*{_X32})/h"
        )
        fams.append(
            dict(
                family=f"dim3-eps-1-{tag}",
                description="three-component family, eps=-1, nonzero unit grading (needs h != 0)",
                dim=3,
                eps=-1.0,
                h=h,
                density=f"({F})*exp(h*u2)",
                current=None,
                a_constants=("c0", "c1", "c2"),
                basis_k={},
                bands=None,
            )
        )
    fams.append(
        dict(
            family="dim3-eps1-h0",
            description="three-component family, eps=1, unit-invariant",
            dim=3,
            eps=1.0,
            h=0.0,
            density=f"c1*(1/({_X32}*({_X21}+{_X32})) + 1/({_X21}*({_X32}+{_X21}))) + c2",
            current=None,
            a_constants=("c1", "c2"),
            basis_k={"c1": -2.0, "c2": 0.0},
            bands=None,
        )
    )
    fams.append(
        dict(
            family="dim3-eps-1-h0",
            description="three-component quartic family, eps=-1, unit-invariant",
            dim=3,
            eps=-1.0,
            h=0.0,
            density=f"c1 + c2*({_X32}*{_X21}^3 + {_X21}^4/2) + c3*({_X32}^4/12 + {_X21}*{_X32}^3/6)",
            current=None,
            a_constants=("c1", "c2", "c3"),
            basis_k={"c1": 0.0, "c2": 4.0, "c3": 4.0},
            bands=None,
        )
    )
    return fams


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


def hypergeom_flat_coordinates(eps: float) -> tuple[ScalarField | None, ScalarField | None]:
    """The pair of homogeneous flat coordinates of the three-component system,
    as hypergeometric scalar fields; an entry is None where its parameters are
    excluded (first needs 2*eps, second needs 2-2*eps, valid)."""
    return tuple(None if src is None else field(src[0], 3, src[1]) for src in _flat_sources(eps))


@functools.cache
def catalog_entries() -> tuple[CatalogEntry, ...]:
    """All built-in density instances (unit-vector and generic constants), built once."""
    entries: list[CatalogEntry] = []
    for fam in _families():
        base_params = {"h": fam["h"]} if fam["h"] != 0.0 else {}
        names = fam["a_constants"]
        has_c3 = fam["current"] is not None and "c3" in fam["current"]
        instances = []
        for c in names:
            params = dict(base_params)
            for other in names:
                params[other] = 1.0 if other == c else 0.0
            if has_c3:
                params["c3"] = 0.0
            instances.append((f"{fam['family']}:{c}", params, fam["basis_k"].get(c)))
        generic = dict(base_params)
        for other in names:
            generic[other] = GENERIC_CONSTANTS[other]
        if has_c3:
            generic["c3"] = GENERIC_CONSTANTS["c3"]
        mixed_k = fam["basis_k"].get(names[0]) if len(set(fam["basis_k"].values())) == 1 and len(
            fam["basis_k"]
        ) == len(names) else None
        instances.append((fam["family"], generic, mixed_k))
        for entry_id, params, k in instances:
            entries.append(
                CatalogEntry(
                    entry_id=entry_id,
                    family=fam["family"],
                    description=fam["description"],
                    dim=fam["dim"],
                    eps=fam["eps"],
                    h=fam["h"],
                    k=k,
                    density_src=fam["density"],
                    current_src=fam["current"],
                    params=params,
                    current_bands=fam["bands"],
                )
            )
    # homogeneous flat coordinates (hypergeometric route)
    src1, _ = _flat_sources(1.0)
    entries.append(
        CatalogEntry(
            entry_id="dim3-eps1-flatcoord",
            family="dim3-eps1-flatcoord",
            description="first homogeneous flat coordinate of the eps=1 three-component system",
            dim=3,
            eps=1.0,
            h=0.0,
            k=-2.0,
            density_src=src1[0],
            current_src="(u1+u3)/((u3-u2)*(u2-u1)) + c3",
            params={**src1[1], "c3": 0.0},
            current_bands=_DIM3_Z,
            z_window=True,
        )
    )
    _, src2 = _flat_sources(-1.0)
    entries.append(
        CatalogEntry(
            entry_id="dim3-eps-1-flatcoord",
            family="dim3-eps-1-flatcoord",
            description="second homogeneous flat coordinate of the eps=-1 three-component system",
            dim=3,
            eps=-1.0,
            h=0.0,
            k=4.0,
            density_src=src2[0],
            current_src=None,
            params=src2[1],
            current_bands=None,
            z_window=True,
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
    return RotationFrame(2, beta, (lame_src, lame_src), eps)
