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
from recipfm.catalog import Z_WINDOW, _in_z_window, catalog_entries
from recipfm.exprlang import EvalError, ScalarField, field
from recipfm.geometry import MAX_REJECTIONS, SamplingError, banded_points, sample_points
from recipfm.jets import PointSet, point_set
from recipfm.reciprocal import density_window


def _pointwise(draw, count, seed, predicates, why):
    """The reference loop: one candidate at a time, each predicate judging it
    as a set of one, in order, until one rejects it."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        for _attempt in range(MAX_REJECTIONS):
            p = draw(rng)
            if p is not None and all(np.all(pred(point_set(p))) for pred in predicates):
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
    """A field that records, for every jet asked of it, whether points are
    being sampled, the set size and the order."""

    def __init__(self, A: ScalarField, sampling: list, log: list):
        super().__init__(A.dim, A._fn)
        self.sampling, self.log = sampling, log

    def jet(self, points, order):
        self.log.append((self.sampling[0], len(point_set(points)), order))
        return super().jet(points, order)


def _counted_check(monkeypatch, entry_id):
    """Runs check --suite all on entry_id at 5 points; returns the (set size,
    order) of each density jet taken while sampling, and the (shown, kept)
    counts of each z-window call."""
    sampling, log, windows = [False], [], []
    density_field = cat.CatalogEntry.density_field
    monkeypatch.setattr(cat.CatalogEntry, "density_field", lambda e: CountingField(density_field(e), sampling, log))

    def in_z_window(points, real=cat._in_z_window):
        kept = real(points)
        windows.append((len(points), int(kept.sum())))
        return kept

    def sample_points(*args, real=geo.sample_points, **kwargs):
        sampling[0] = True
        try:
            return real(*args, **kwargs)
        finally:
            sampling[0] = False

    monkeypatch.setattr(cat, "_in_z_window", in_z_window)
    monkeypatch.setattr(geo, "sample_points", sample_points)
    e = cat.entry(entry_id)
    argv = ["check", "--builtin", "eps-system", "--dim", str(e.dim), "--eps", str(e.eps), "--suite", "all",
            "--catalog", entry_id, "--num-points", "5", "--output", "/dev/null"]
    assert cli.main(argv) == 0
    return [(size, order) for during, size, order in log if during], windows


def test_sampling_judges_the_density_once_per_block(monkeypatch):
    seen, windows = _counted_check(monkeypatch, "dim3-eps1-h1")
    assert seen == [(5, 0)] and windows == []


def test_z_window_entry_judges_each_block_once_inside_the_disk(monkeypatch):
    z_seen = []
    hyp2f1_value = jets.hyp2f1_value
    record = lambda a, b, c, z: z_seen.append(np.abs(z).max()) or hyp2f1_value(a, b, c, z)
    monkeypatch.setattr(jets, "hyp2f1_value", record)
    seen, windows = _counted_check(monkeypatch, "dim3-eps1-flatcoord")
    # the density sees, in one set per block, just the candidates the z window kept
    assert [size for size, _ in seen] == [kept for _, kept in windows if kept]
    assert {order for _, order in seen} == {0}
    assert len(seen) < 5 and max(z_seen) <= Z_WINDOW


def test_in_z_window_matches_the_scalar_rule_without_warnings():
    coords = np.random.default_rng(2012).uniform(-2.0, 2.0, (3, 1000))
    coords[1, :10] = coords[0, :10]  # u1 == u2
    coords[2, 10:20] = coords[0, 10:20] + 0.95 * (coords[1, 10:20] - coords[0, 10:20])  # |z| = 0.95
    points = PointSet(coords)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept = _in_z_window(points)
    assert kept.dtype == bool and kept.shape == (1000,)
    assert not kept[:20].any()

    def scalar(p):
        den = p[1] - p[0]
        return den != 0.0 and abs((p[2] - p[0]) / den) <= Z_WINDOW

    assert kept.tolist() == [scalar(p) for p in points]
    assert 100 < kept.sum() < 900
