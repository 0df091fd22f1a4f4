"""Blockwise sampling against the one-candidate-at-a-time loop it replaced,
and the set-valued sample predicates it judges with."""

import random
import warnings
from unittest import mock

import numpy as np
import pytest

from recipfm import catalog as cat
from recipfm import cli
from recipfm import geometry as geo
from recipfm import jets
from recipfm import reciprocal as rec
from recipfm.catalog import Z_WINDOW, _in_z_window, catalog_entries
from recipfm.exprlang import EvalError, ScalarField, field
from recipfm.geometry import MAX_REJECTIONS, SamplingError, banded_points, sample_points
from recipfm.jets import PointSet, point_set
from recipfm.reciprocal import density_window


def _pointwise(draw, count, seed, predicates, why):
    """The reference loop: one candidate at a time, judged first by each
    coordinate predicate on its coordinates, then by each other predicate as
    a set of one, in order, until one rejects it."""
    coordinate = [pred for pred in predicates if getattr(pred, "coordinate_only", False)]
    others = [pred for pred in predicates if not getattr(pred, "coordinate_only", False)]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        for _attempt in range(MAX_REJECTIONS):
            p = draw(rng)
            if (
                p is not None
                and all(pred(p.coords) for pred in coordinate)
                and all(np.all(pred(point_set(p))) for pred in others)
            ):
                out.append(p)
                break
        else:
            raise SamplingError(why)
    return point_set(out)


def _outcome(sample):
    """The coordinates' bytes, or the error's type and text."""
    try:
        return sample().coords.tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def assert_same_as_pointwise(sample):
    blockwise = _outcome(sample)
    with mock.patch.object(geo, "_seeded_points", _pointwise):
        pointwise = _outcome(sample)
    assert blockwise == pointwise
    return blockwise


@pytest.mark.parametrize("e", catalog_entries(), ids=lambda e: e.entry_id)
def test_catalog_sampling_matches_the_pointwise_loop(e):
    predicates = e.sample_predicates()
    for seed in range(20):
        for count in (1, 5, 20):
            got = assert_same_as_pointwise(lambda: sample_points(e.dim, count, seed, predicates=predicates))
            assert isinstance(got, bytes), (e.entry_id, seed, count, got)
            if e.current_bands:
                assert_same_as_pointwise(lambda: banded_points(e.current_bands, count, seed, predicates=predicates))


@pytest.mark.parametrize(
    "srcs", [("u1*u2",), ("1/(u2-u1)",), ("u1-u2+0.3",), ("ln(u1)",), ("ln(u1+1.5)",), ("ln(u1+1.5)", "ln(u2+1.5)")]
)
def test_density_windows_match_the_pointwise_loop_errors_included(srcs):
    # with two raising windows, the first candidate to raise may do so in the second
    predicates = tuple(density_window(field(src, 2)) for src in srcs)
    outcomes = {
        assert_same_as_pointwise(lambda: sample_points(2, count, seed, predicates=predicates))
        for seed in range(20)
        for count in (1, 5, 20)
    }
    errors = {o for o in outcomes if not isinstance(o, bytes)}
    assert bool(errors) == srcs[0].startswith("ln")
    assert all(kind is EvalError and "ln of non-positive value" in why for kind, why in errors)


def test_exhaustion_matches_the_pointwise_loop_and_keeps_the_rejection_budget():
    predicates = (density_window(field("0", 2)),)
    for seed in range(3):
        for count in (1, 5):
            got = assert_same_as_pointwise(lambda: sample_points(2, count, seed, predicates=predicates))
            why = f"no admissible point found after {MAX_REJECTIONS} rejections (dim 2, seed {seed})"
            assert got == (SamplingError, why)
    shown = []
    with mock.patch.object(geo, "MAX_REJECTIONS", 7), pytest.raises(SamplingError, match="after 7 rejections"):
        banded_points(((0.5, 1.0), (1.5, 2.0)), 3, seed=1, predicates=(lambda ps: shown.append(len(ps)) or False,))
    assert sum(shown) == 7  # blocks of 3, 3 and 1: none past the budget


class EveryOther:
    """Rejects every other candidate it is shown, counting across calls."""

    def __init__(self):
        self.seen = 0

    def __call__(self, points: PointSet) -> np.ndarray:
        k = np.arange(self.seen, self.seen + len(points))
        self.seen += len(points)
        return k % 2 == 0


def test_many_blocks_match_the_pointwise_loop():
    calls = []
    window = density_window(field("u1*u2", 3))
    counted = lambda points: calls.append(len(points)) or window(points)
    for seed in range(5):
        for count in (1, 5, 20):
            sample = lambda: sample_points(3, count, seed, predicates=(EveryOther(), counted))
            assert isinstance(assert_same_as_pointwise(sample), bytes)
    calls.clear()
    sample_points(3, 20, 0, predicates=(EveryOther(), counted))
    assert calls == [10, 5, 3, 1, 1]  # each block about half the last, each candidate judged once


class CountingField(ScalarField):
    """A field that records, for every run of its program (a jet the memo
    neither holds nor reads off a higher order), whether points are being
    sampled, the set size and the order."""

    def __init__(self, A: ScalarField, sampling: list, log: list):
        run = lambda points, order: log.append((sampling[0], len(points), order)) or A._fn(points, order)
        super().__init__(A.dim, run)


def _counted_call(monkeypatch, argv):
    """Runs cli.main(argv) with the catalog's density fields counted, one
    counting field per entry; returns the (sampling, set size, order) of each
    run of a density's program, and the (shown, kept) counts of each z-window call."""
    sampling, log, windows, counted = [False], [], [], {}
    density_field = cat.CatalogEntry.density_field
    counting = lambda e: counted.setdefault(e.entry_id, CountingField(density_field(e), sampling, log))
    monkeypatch.setattr(cat.CatalogEntry, "density_field", counting)

    @geo.coordinate_predicate
    def in_z_window(coords, real=cat._in_z_window):
        kept = real(coords)
        windows.append((1, int(kept)))
        return kept

    def sample_points(*args, real=geo.sample_points, **kwargs):
        sampling[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            sampling[0] = False

    monkeypatch.setattr(cat, "_in_z_window", in_z_window)
    monkeypatch.setattr(geo, "sample_points", sample_points)
    assert cli.main([*argv, "--output", "/dev/null"]) == 0
    return log, windows


def _catalog_argv(command, entry_id, *extra):
    e = cat.entry(entry_id)
    system = ["--builtin", "eps-system", "--dim", str(e.dim), "--eps", str(e.eps), "--catalog", entry_id]
    return [command, *system, "--num-points", "5", *extra]


def test_sampling_judges_the_density_once_per_block(monkeypatch):
    # the one block is the sample: A's program runs once, at the order the checks read, and never again
    runs, windows = _counted_call(monkeypatch, _catalog_argv("check", "dim3-eps1-h1", "--suite", "all"))
    assert runs == [(True, 5, rec.DENSITY_ORDER)] and windows == []


@pytest.mark.parametrize(
    "command, extra, order",
    [("check", ["--suite", "flatness,sh"], 0), ("check", ["--suite", "density"], 2), ("transform", ["--biflat"], 2)],
)
def test_the_window_takes_the_order_its_command_reads(monkeypatch, command, extra, order):
    runs, _ = _counted_call(monkeypatch, _catalog_argv(command, "dim2-eps1-h0:c2", *extra))
    assert runs == [(True, 5, order)]


def test_z_window_entry_judges_each_block_once_inside_the_disk(monkeypatch):
    for entry_id in ("dim3-eps1-flatcoord", "dim3-eps-1-flatcoord"):
        for command, extra in (("check", ["--suite", "all"]), ("transform", ["--biflat"])):
            with monkeypatch.context() as patched:
                z_seen = []
                hyp2f1_value = jets.hyp2f1_value
                record = lambda a, b, c, z: z_seen.append(np.abs(z).max()) or hyp2f1_value(a, b, c, z)
                patched.setattr(jets, "hyp2f1_value", record)
                runs, windows = _counted_call(patched, _catalog_argv(command, entry_id, *extra))
            # the z window judged every draw on its coordinates, rejecting some, before the density saw any:
            # the first block filled the sample and is the sample, so A's program ran once, at the checks'
            # order, and its one 2F1 node summed one series for all its parameter shifts
            assert sum(shown for shown, _ in windows) > 5 and sum(kept for _, kept in windows) == 5, entry_id
            assert runs == [(True, 5, rec.DENSITY_ORDER)], (entry_id, command)
            assert len(z_seen) == 1 and max(z_seen) <= Z_WINDOW, (entry_id, command)


def test_coordinate_windows_judge_each_draw_once_wherever_they_stand():
    shown, real = [], cat._in_z_window
    counted = geo.coordinate_predicate(lambda coords: shown.append(1) or real(coords))
    window = density_window(field("u1*u2", 3))
    seen = []
    density = lambda points: seen.append(len(points)) or window(points)
    for seed in range(10):
        predicates = (counted, density)
        assert isinstance(assert_same_as_pointwise(lambda: sample_points(3, 20, seed, predicates=predicates)), bytes)
        del shown[:], seen[:]
        with mock.patch.object(geo, "_seeded_points", _pointwise):
            sample_points(3, 20, seed, predicates=predicates)
        draws = sum(shown)  # the pointwise loop shows the window each admissible draw once
        del shown[:], seen[:]
        sample_points(3, 20, seed, predicates=predicates)
        assert seen == [20] and sum(shown) == draws > 20  # each draw judged once on its coordinates, the density once
        del shown[:], seen[:]
        sample_points(3, 20, seed, predicates=(density, counted))  # behind the density: still judged on each draw
        assert seen == [20] and sum(shown) == draws


def test_a_first_block_with_a_rejection_gives_a_new_set():
    A = field("u1*u2", 3)
    for first in (True, False):
        predicates = lambda: (EveryOther(), density_window(A, 2))[:: 1 if first else -1]  # a fresh EveryOther per sample
        sample = lambda: sample_points(3, 5, 0, predicates=predicates())
        assert isinstance(assert_same_as_pointwise(sample), bytes)
        assert A not in sample()._memo  # no candidate's jet is left in the sample
    filled = sample_points(3, 5, 0, predicates=(density_window(A, 2),))
    assert set(filled._memo[A]) == {0, 2}  # the judged block itself, holding the window's jet and its order-0 view


def test_a_window_whose_higher_rows_raise_keeps_its_points_and_later_error(monkeypatch, capsys):
    # ln's order-1 rows overflow at 1e-300 * u1^2, its value does not: the window judges off the value alone
    A = field("ln(1e-300*u1^2)", 2)
    with pytest.raises(EvalError, match="ln series overflows"):
        A.jet(sample_points(2, 1, 42), 2)
    assert_same_as_pointwise(lambda: sample_points(2, 5, 42, predicates=(density_window(A, 2),)))
    drawn = []
    real = geo.sample_points
    monkeypatch.setattr(geo, "sample_points", lambda *a, **k: drawn.append(real(*a, **k)) or drawn[-1])
    argv = ["check", "--builtin", "eps-system", "--dim", "2", "--eps", "1", "--density", "ln(1e-300*u1^2)",
            "--num-points", "5"]
    assert cli.main(argv) == 2
    assert tuple(capsys.readouterr()) == ("", "error: ln series overflows at value 8.432388845275894e-301 "
                                              "in 'ln(1e-300 * u1^2.0)'\n")
    assert [list(p.coords) for p in drawn[0]] == [  # as drawn with the window judging A's order-0 jet alone
        [0.9182803953736514, -1.9249677343319993],
        [1.6765387031145362, -1.7391835021117514],
        [-0.7342345409441888, -1.9106083416857889],
        [-1.34408607558919, 0.5160658643100873],
        [-1.9203920909484091, -1.4034870479400545],
    ]


def _overflowing_rows(src):
    """The field of src whose jets above order 0 have every derivative row infinite."""
    base = field(src, 2)

    def fn(points, order):
        coeffs = base.jet(points, order).coeffs.copy()
        coeffs[1:] = np.inf
        return jets.Jet(2, order, coeffs)

    return ScalarField(2, fn)


@pytest.mark.parametrize(
    "make", [lambda: field("u1*u2", 2), lambda: field("1/(u2-u1)", 2), lambda: field("u1-u2+0.3", 2),
             lambda: field("ln(u1+1.5)", 2), lambda: field("ln(1e-300*u1^2)", 2), lambda: _overflowing_rows("u1-u2+0.3")],
    ids=["product", "pole", "zero-line", "ln-raises", "ln-rows-raise", "rows-overflow"],
)
def test_windows_at_every_order_judge_alike(make):
    for seed in range(5):
        for count in (1, 5):
            outcomes = {
                _outcome(lambda: sample_points(2, count, seed, predicates=(density_window(make(), order),)))
                for order in range(jets.MAX_ORDER + 1)
            }
            assert len(outcomes) == 1, (seed, count, outcomes)


def test_in_z_window_matches_the_scalar_rule_without_warnings():
    coords = np.random.default_rng(2012).uniform(-2.0, 2.0, (3, 1000))
    coords[1, :10] = coords[0, :10]  # u1 == u2
    coords[2, 10:20] = coords[0, 10:20] + 0.95 * (coords[1, 10:20] - coords[0, 10:20])  # |z| = 0.95
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = [_in_z_window(p.coords) for p in PointSet(coords)]
    assert all(type(k) is bool for k in kept)
    assert not any(kept[:20])

    u1, u2, u3 = coords  # the array rule over the same points, with the same IEEE operations
    den = u2 - u1
    apart = den != 0.0
    assert kept == (apart & (np.abs((u3 - u1) / np.where(apart, den, 1.0)) <= Z_WINDOW)).tolist()
    assert 100 < sum(kept) < 900
