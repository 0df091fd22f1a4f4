"""Seeded error-contract fuzz test: a random expression over u1, u2 either
evaluates to order-2 jets or fails with one of the errors the CLI reports as
exit code 2 (cli._CONFIG_ERRORS); nothing else may escape."""

import random

import pytest

from recipfm.cli import _CONFIG_ERRORS
from recipfm.exprlang import compile_field, parse_field
from recipfm.jets import point

SEED = 20121
COUNT = 1500
DEPTH = 3
POINTS = (point(0.7, -1.3), point(1.5, 0.4), point(-0.9, 1.1))


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


def test_random_expressions_raise_only_config_errors():
    rng = random.Random(SEED)
    evaluated = 0
    for _ in range(COUNT):
        src = _expr(rng, DEPTH)
        try:
            f = compile_field(parse_field(src, 2))
            for p in POINTS:
                f.jet(p, 2)
            evaluated += 1
        except _CONFIG_ERRORS:
            pass
        except Exception as exc:  # anything else would escape the CLI as a traceback
            pytest.fail(f"{src!r} raised {type(exc).__name__}: {exc}")
    # the generator must exercise evaluation, not only the parser's rejections
    assert evaluated >= COUNT // 4
