"""Seeded fuzz tests over random expressions in u1, u2.

An expression either evaluates to order-2 jets or fails with one of the errors
the CLI reports as exit code 2 (every one a ValueError); nothing else may escape.
Evaluated over the test points as one set, it fails exactly when some point
fails on its own, and otherwise gives each point's own jet bit for bit.
Where an expression evaluates to moderate order-3 jets, every partial agrees
with the mpmath finite-difference oracle, an independent code path.
"""

import random

import numpy as np
import pytest

from conftest import fd_partial, partial
from recipfm import jets
from recipfm.exprlang import compile_field, parse_field
from recipfm.jets import Point, point_set

SEED = 20121
COUNT = 1500
DEPTH = 3
POINTS = (Point((0.7, -1.3)), Point((1.5, 0.4)), Point((-0.9, 1.1)))


def _number(rng: random.Random) -> str:
    """A small integer, or a literal with magnitude between 1e-300 and 1e300."""
    if rng.random() < 0.4:
        return str(rng.randint(0, 9))
    return f"{rng.uniform(1.0, 9.999):.3f}e{rng.randint(-300, 299)}"


def _expr(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(("u1", "u2", _number(rng)))
    sub = lambda: _expr(rng, depth - 1)
    op = rng.choice(("+", "-", "*", "/", "^", "neg", "exp", "ln", "pow", "hyp2f1"))
    if op in ("+", "-", "*", "/"):
        return f"({sub()} {op} {sub()})"
    if op == "^":
        # mostly small integer exponents; constant expressions and huge integers too
        exponent = rng.choice(("2", "3", "-1", "-2", "0", f"({_number(rng)})", f"-({sub()})"))
        return f"({sub()})^{exponent}"
    if op == "neg":
        return f"-({sub()})"
    if op in ("exp", "ln"):
        return f"{op}({sub()})"
    if op == "pow":
        return f"pow({sub()}, {rng.choice(('0.5', '-1.5', '2.5', _number(rng)))})"
    a, b, c = (rng.choice(("0.5", "1", "-1.5", "2", _number(rng))) for _ in range(3))
    return f"hyp2f1({a}, {b}, {c}, {sub()})"


def _jet_or_none(f, where):
    """The order-2 jet of f over where, or None if it fails with a config error."""
    try:
        return f.jet(where, 2)
    except ValueError:
        return None


def test_random_expressions_raise_only_config_errors():
    rng = random.Random(SEED)
    together = point_set(POINTS)
    evaluated = 0
    for _ in range(COUNT):
        src = _expr(rng, DEPTH)
        try:
            try:
                f = compile_field(parse_field(src, 2))
            except ValueError:
                continue
            alone = [_jet_or_none(f, p) for p in POINTS]
            got = _jet_or_none(f, together)
        except Exception as exc:  # anything else would escape the CLI as a traceback
            pytest.fail(f"{src!r} raised {type(exc).__name__}: {exc}")
        # the set fails exactly when some point fails on its own ...
        assert (got is None) == (None in alone), src
        if got is None:
            continue
        evaluated += 1
        # ... and otherwise each column is that point's jet, bit for bit
        columns = np.broadcast_to(got.coeffs, (got.coeffs.shape[0], len(POINTS)))
        for k, one in enumerate(alone):
            assert columns[:, k].tobytes() == one.coeffs[:, 0].tobytes(), (src, POINTS[k])
    # the generator must exercise evaluation, not only the parser's rejections
    assert evaluated >= COUNT // 4


FD_COUNT = 60
FD_MAX_COEFF = 1e6
FD_STEP = 1e-6  # the oracle runs in 50 digits, so a small step costs no cancellation


def _moderate_order3_jets(rng: random.Random):
    """Expressions with a coordinate whose order-3 jets at POINTS are finite and
    have every coefficient within FD_MAX_COEFF, with those jets."""
    while True:
        src = _expr(rng, DEPTH)
        if "u" not in src:
            continue
        try:
            expr = parse_field(src, 2)
            f = compile_field(expr)
            found = [f.jet(p, 3) for p in POINTS]
        except ValueError:
            continue
        coeffs = np.concatenate([np.ravel(j.coeffs) for j in found])
        if np.isfinite(coeffs).all() and np.abs(coeffs).max() <= FD_MAX_COEFF:
            yield src, expr, found


def test_random_order3_jets_match_finite_differences():
    drawn = _moderate_order3_jets(random.Random(SEED))
    for _ in range(FD_COUNT):
        src, expr, found = next(drawn)
        for p, j in zip(POINTS, found):
            for alpha in jets.multi_indices(2, 3):
                got = np.asarray(partial(j, alpha)).item()
                want = fd_partial(expr, p.coords, alpha, step=FD_STEP)
                assert got == pytest.approx(want, abs=1e-5 * max(1.0, abs(want))), (src, p.coords, alpha)
