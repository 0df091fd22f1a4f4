import dataclasses
import hashlib
import json
import re

import pytest

from conftest import flat_coordinates, same_bits, velocity_values
from recipfm import jets
from recipfm.catalog import (
    CatalogEntry,
    catalog_entries,
    entry,
    epsilon_frame_n2,
    epsilon_system,
)
from recipfm.exprlang import field
from recipfm.geometry import banded_points, sample_points
from recipfm.reciprocal import a_system_residual, density_residual, grading_residual


def test_epsilon_system_velocities():
    sys2 = epsilon_system(2, 1.0)
    assert velocity_values(sys2, jets.Point((2.0, 1.0))) == pytest.approx((-1.0, -2.0))
    decoupled = epsilon_system(2, 0.0)
    p = jets.Point((1.3, -0.8))
    assert velocity_values(decoupled, p) == pytest.approx((1.3, -0.8))
    sys3 = epsilon_system(3, 1.0)
    assert velocity_values(sys3, jets.Point((0.0, 1.0, 3.0))) == pytest.approx((-4.0, -3.0, -1.0))
    with pytest.raises(ValueError):
        epsilon_system(1, 1.0)


@pytest.mark.parametrize("n", range(2, 17))
def test_epsilon_system_is_its_parsed_source_bit_for_bit(n):
    """The velocities, built from per-n coordinate fields and a constant eps,
    are the fields of u<i> - eps*(u1+...+un) compiled from source, at every order."""
    coords = sample_points(n, 3, seed=n).coords
    total = "+".join(f"u{k}" for k in range(1, n + 1))
    for eps in (1.0, -1.0, 0.5, 0.0, -0.0, 1e-300, -3.7e5):
        parsed = [field(f"u{i} - eps*({total})", n, {"eps": eps}) for i in range(1, n + 1)]
        built = epsilon_system(n, eps)
        for order in range(4):  # a fresh set per order, so no order is read off another
            pts = jets.PointSet(coords)
            for got, want in zip(built.velocity_jets(pts, order), parsed, strict=True):
                assert same_bits(got, want.jet(pts, order).coeffs)


def test_catalog_has_all_families_and_lookup_works():
    entries = catalog_entries()
    families = {e.family for e in entries}
    assert {
        "dim2-eps1-h1",
        "dim2-eps1-hm05",
        "dim2-eps1-h0",
        "dim2-eps-1-h1",
        "dim2-eps-1-hm05",
        "dim2-eps-1-h0",
        "dim3-eps1-h1",
        "dim3-eps1-hm05",
        "dim3-eps1-h0",
        "dim3-eps-1-h1",
        "dim3-eps-1-hm05",
        "dim3-eps-1-h0",
        "dim3-eps1-flatcoord",
        "dim3-eps-1-flatcoord",
    } <= families
    assert len(entries) >= 10
    e = entry("dim2-eps1-h0")
    assert isinstance(e, CatalogEntry) and e.dim == 2 and e.h == 0.0
    with pytest.raises(ValueError, match="^no catalog entry 'no-such-entry'$"):
        entry("no-such-entry")
    # ids are unique
    ids = [e.entry_id for e in entries]
    assert len(ids) == len(set(ids))


def _ids(family, constants):
    return [f"{family}:{c}" for c in constants] + [family]


def test_catalog_ids_come_in_order():
    want = []
    for tag in ("h1", "hm05"):
        want += _ids(f"dim2-eps1-{tag}", ("c1", "c2")) + _ids(f"dim2-eps-1-{tag}", ("c1", "c2"))
    want += _ids("dim2-eps1-h0", ("c1", "c2")) + _ids("dim2-eps-1-h0", ("c1", "c2"))
    for tag in ("h1", "hm05"):
        want += _ids(f"dim3-eps1-{tag}", ("c0", "c1", "c2")) + _ids(f"dim3-eps-1-{tag}", ("c0", "c1", "c2"))
    want += _ids("dim3-eps1-h0", ("c1", "c2")) + _ids("dim3-eps-1-h0", ("c1", "c2", "c3"))
    want += ["dim3-eps1-flatcoord", "dim3-eps-1-flatcoord"]
    assert [e.entry_id for e in catalog_entries()] == want and len(want) == 43


def test_catalog_entries_are_pinned_by_digest():
    # every field, with its JSON spelling, so a 1 written for 1.0 shows
    text = json.dumps([dataclasses.asdict(e) for e in catalog_entries()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "4c99575fdafe76484772b77fc8adfb85c160b76598b8490b7e39dc8538683043"


def test_entry_fields_are_built_once_over_read_only_params():
    e = entry("dim2-eps1-h1")
    assert e.density_field() is e.density_field() and e.current_field() is e.current_field()
    assert entry("dim3-eps-1-flatcoord").current_field() is None
    params = dict(e.params)
    for mutate in (
        lambda q: q.__setitem__("c1", 5.0),
        lambda q: q.__delitem__("c1"),
        lambda q: q.update(c1=5.0),
        lambda q: q.setdefault("c9", 5.0),
        lambda q: q.pop("c1"),
        lambda q: q.popitem(),
        lambda q: q.clear(),
        lambda q: q.__ior__({"c1": 5.0}),
    ):
        with pytest.raises(TypeError, match="read-only"):
            mutate(e.params)
    assert e.params == params and e.params == dict(e.params) and json.dumps(e.params) == json.dumps(params)


@pytest.mark.parametrize("e", catalog_entries(), ids=lambda e: e.entry_id)
def test_every_entry_is_an_admissible_density(e):
    sys = epsilon_system(e.dim, e.eps)
    A = e.density_field()
    pts = sample_points(e.dim, 20, seed=42, predicates=e.sample_predicates())
    assert density_residual(sys, A, pts).max_abs <= 1e-8
    assert a_system_residual(sys, A, pts).max_abs <= 1e-8
    h_est, h_rep = grading_residual(A, "e", pts)
    assert h_rep.passed and h_est == pytest.approx(e.h, abs=1e-8)
    if e.k is not None:
        k_est, k_rep = grading_residual(A, "E", pts)
        assert k_rep.passed and k_est == pytest.approx(e.k, abs=1e-8)


@pytest.mark.parametrize("e", [e for e in catalog_entries() if e.dim == 3], ids=lambda e: e.entry_id)
def test_relabelled_density_is_the_density_at_relabelled_points(e):
    """The eps-system is symmetric under every permutation sigma of u1..u3.
    With u_i renamed u_sigma(i), sigma = (2, 3, 1), the density read at the
    points whose coordinate sigma(i) is their old coordinate i runs the same
    operations on the same numbers as A at the old points, and is a density too."""
    sys, A = epsilon_system(3, e.eps), e.density_field()
    src = re.sub(r"\bu([123])\b", lambda m: f"u{int(m[1]) % 3 + 1}", e.density_src)
    assert src != e.density_src
    renamed = field(src, 3, e.params)
    pts = sample_points(3, 8, seed=7, predicates=e.sample_predicates(2))
    moved = jets.PointSet(pts.coords[[2, 0, 1]])  # moved.coords[sigma(i)] = pts.coords[i], 0-based
    assert same_bits(renamed.jet(moved, 0).value, A.jet(pts, 0).value)
    before, after = density_residual(sys, A, pts), density_residual(sys, renamed, moved)
    assert before.passed and after.passed
    assert abs(before.max_abs - after.max_abs) <= 1e-13


@pytest.mark.parametrize(
    "e",
    [e for e in catalog_entries() if e.current_src is not None],
    ids=lambda e: e.entry_id,
)
def test_paper_current_solves_the_current_equations(e):
    # the closed-form current satisfies d_i B = v^i d_i A pointwise (jet route)
    sys = epsilon_system(e.dim, e.eps)
    A = e.density_field()
    B = e.current_field()
    pts = sample_points(e.dim, 15, seed=31, predicates=e.sample_predicates())
    for p in pts:
        vals = velocity_values(sys, p)
        gA = jets.gradient(A.jet(p, 1))[:, 0]
        gB = jets.gradient(B.jet(p, 1))[:, 0]
        for i in range(e.dim):
            assert gB[i] == pytest.approx(vals[i] * gA[i], abs=1e-8), (e.entry_id, i)


def test_flat_coordinate_pair_parameter_exclusions():
    A1, A2 = flat_coordinates(1.0)
    assert A1 is not None and A2 is None
    B1, B2 = flat_coordinates(-1.0)
    assert B1 is None and B2 is not None
    C1, C2 = flat_coordinates(0.7)
    assert C1 is not None and C2 is not None
    with pytest.raises(ValueError):
        flat_coordinates(1.0 / 3.0)


def test_flat_coordinate_elementary_reduction():
    A1, _ = flat_coordinates(1.0)
    elementary = field("1/((u2-u1)*(u2-u3))", 3)
    e = entry("dim3-eps1-flatcoord")
    pts = sample_points(3, 20, seed=33, predicates=e.sample_predicates())
    for p in pts:
        assert A1.value(p) == pytest.approx(elementary.value(p), abs=1e-10)
    # the elementary form extends beyond the series disk
    assert elementary.value(jets.Point((0.0, 1.0, 3.0))) == pytest.approx(-0.5)


def test_flat_coordinate_gradings_generic_eps():
    bands = ((-2.0, -1.3), (0.5, 2.0), (-0.9, -0.4))
    for eps in (1.0, -1.0, 0.7):
        A1, A2 = flat_coordinates(eps)
        pts = banded_points(bands, 12, seed=35)
        for A in (A1, A2):
            if A is None:
                continue
            h, h_rep = grading_residual(A, "e", pts)
            k, k_rep = grading_residual(A, "E", pts)
            assert h_rep.passed and abs(h) <= 1e-9
            assert k_rep.passed and k == pytest.approx(1.0 - 3.0 * eps, abs=1e-8)


def test_flat_coordinates_are_densities_for_their_systems():
    bands = ((-2.0, -1.3), (0.5, 2.0), (-0.9, -0.4))
    pts = banded_points(bands, 12, seed=36)
    for eps in (1.0, -1.0, 0.7):
        sys3 = epsilon_system(3, eps)
        for A in flat_coordinates(eps):
            if A is not None:
                assert density_residual(sys3, A, pts).max_abs <= 1e-8


def test_builtin_frame_requires_unit_eps():
    with pytest.raises(ValueError):
        epsilon_frame_n2(0.5)
    frame = epsilon_frame_n2(-1.0)
    assert frame.degree == -1.0
