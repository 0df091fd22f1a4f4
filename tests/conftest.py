"""Shared test helpers: a high-precision finite-difference oracle and the
elementary-field corpus it is run against."""

from __future__ import annotations

import gc
import math
from unittest import mock

import mpmath as mp
import numpy as np

from recipfm import jets
from recipfm.catalog import _flat_sources
from recipfm.exprlang import FieldExpr, evaluate_value, field, parse_field
from recipfm.geometry import sample_points
from recipfm.jets import Jet


def partial(a: Jet, alpha) -> np.ndarray:
    """The plain partial derivative d^alpha f over the points: one coefficient
    times alpha!.  The tests' reference reader, independent of the row plans
    behind jets.gradient and jets.hessian."""
    alpha = tuple(int(x) for x in alpha)
    return a.coefficient(alpha) * math.prod(map(math.factorial, alpha))


def entries_by_point(points, rows: dict) -> list:
    """Residual entries (point, label, value), point by point and in label order
    at each point, from a dict label -> its values over the points (or one value
    for all of them).  The tests' reference builder, independent of the
    one-array layout of ResidualReport.of that the families use."""
    table = np.empty((len(rows), len(points)))
    for dst, row in zip(table, rows.values()):
        dst[...] = row
    return [(p, label, v) for p, values in zip(points, table.T.tolist()) for label, v in zip(rows, values)]


def flat_coordinates(eps: float):
    """The two homogeneous flat coordinates of the three-component eps-system
    as fields, compiled from the catalog's sources; None where excluded."""
    return tuple(None if src is None else field(src[0], 3, src[1]) for src in _flat_sources(eps))


def every_order_from_scratch():
    """A context in which a memo miss always computes, never reading a lower
    order off a higher one: the reference evaluation for that reuse."""
    return mock.patch.object(jets, "_prefix", lambda per, key, dim: None)


def cyclic_recipfm_objects(run) -> list[str]:
    """Call run() with the collector off, then collect: the type names of the
    recipfm objects that only the collector could free, i.e. that run() left
    in a reference cycle.  The collector's state and debug flags are restored."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    start = len(gc.garbage)
    try:
        run()
        gc.collect()
        return [type(o).__qualname__ for o in gc.garbage[start:] if type(o).__module__.startswith("recipfm")]
    finally:
        del gc.garbage[start:]
        gc.set_debug(flags)
        if enabled:
            gc.enable()


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shape and bit patterns, so signed zeros and NaN payloads count."""
    return got.shape == want.shape and bool((got.view(np.int64) == want.view(np.int64)).all())


def _mp_pow(base, exponent):
    e = float(exponent)
    if e.is_integer():
        return mp.power(base, int(e))
    return mp.power(base, exponent)


MP_FUNCS = {"exp": mp.exp, "ln": mp.log, "pow": _mp_pow, "hyp2f1": mp.hyp2f1}


def fd_partial(fexpr: FieldExpr, coords, alpha, step: float = 1e-4) -> float:
    """Central finite difference of order |alpha|, nested per index, evaluated
    in 50-digit arithmetic so the stated step stays meaningful at third order."""
    with mp.workdps(50):
        h = mp.mpf(repr(step))

        def base(c):
            return evaluate_value(fexpr, c, funcs=MP_FUNCS)

        def derive(fn, i):
            def d(c):
                up = list(c)
                dn = list(c)
                up[i] = up[i] + h
                dn[i] = dn[i] - h
                return (fn(up) - fn(dn)) / (2 * h)

            return d

        fn = base
        for i, a in enumerate(alpha):
            for _ in range(a):
                fn = derive(fn, i)
        return float(fn([mp.mpf(repr(c)) for c in coords]))


# Elementary fields exercising every jet primitive; sampled with a wide
# coordinate gap so third derivatives stay O(10) and the absolute
# finite-difference comparison is meaningful.
ELEMENTARY_CORPUS = (
    "u1 + u2",
    "u1*u2 - 3*u2",
    "1/(u2-u1)",
    "exp(0.5*u1)/(u2-u1)",
    "pow(u2-u1, -2)",
    "ln(u1+3)",
    "(u1-u2)^3",
    "hyp2f1(0.5, 1.5, 2.5, (u2-u1)/5)",
)


def corpus_points(count: int = 20, seed: int = 2024):
    return sample_points(2, count, seed, predicates=(lambda ps: np.abs(ps.coords[0] - ps.coords[1]) >= 1.2,))


def corpus_exprs():
    return [parse_field(src, 2) for src in ELEMENTARY_CORPUS]
