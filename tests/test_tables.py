"""Stacked connection tables against per-pair references.

The tables build every generator G^i_{ij} with one jet quotient over all pairs,
the natural entries by one ordered reduction, and the dual entries with one
stacked quotient and one stacked product.  Jet operations work column by
column, so each entry must be bit for bit what a jet call on that pair alone
gives: the references below are such per-pair loops."""

import numpy as np
import pytest

from conftest import derivative, eps2_frame_fields, every_order_from_scratch, same_bits
from recipfm import jets
from recipfm.catalog import entry, epsilon_frame_n2, epsilon_system
from recipfm.exprlang import field
from recipfm.geometry import (
    DegenerateSystemError,
    DiagonalSystem,
    VELOCITY_GAP,
    christoffel_primary,
    dual_connection,
    natural_connection,
    sample_points,
)
from recipfm.jets import Point, PointSet, point_set
from recipfm.reciprocal import ConservationDensity, transform

ORDERS = (0, 1, 2)


def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def pair_generators(n: int, points, order: int, pair) -> np.ndarray:
    """(n, n, ncoeff, npoints) from pair(i, j) -> Jet, one call per i != j."""
    out = np.zeros((n, n, len(jets.multi_indices(n, order)), len(points)))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = pair(i, j).coeffs
    return out


def system_generators(sys: DiagonalSystem, points, order: int) -> np.ndarray:
    def pair(i, j):
        vi = jets.Jet(sys.dim, order + 1, sys.velocity_jets(points, order + 1)[i])
        vj = jets.Jet(sys.dim, order, sys.velocity_jets(points, order)[j])
        return jets.div(derivative(vi, j), jets.sub(vj, jets.Jet(sys.dim, order, vi.coeffs[: len(vj.coeffs)])))

    return pair_generators(sys.dim, points, order, pair)


def natural_table(off: np.ndarray) -> np.ndarray:
    """The natural assembly as a loop over pairs, one subtraction per entry."""
    n = off.shape[0]
    table = np.zeros((n,) + off.shape)
    for i in range(n):
        total = np.zeros(off.shape[2:])
        for j in range(n):
            if j != i:
                table[i, i, j] = table[i, j, i] = off[i, j]
                table[i, j, j] = -off[i, j]
                total = total - off[i, j]
        table[i, i, i] = total
    return table


def dual_table(off: np.ndarray, points, order: int) -> np.ndarray:
    """The dual assembly as a loop over pairs, one jet call per entry."""
    n = off.shape[0]
    table = np.zeros((n,) + off.shape)
    diag = np.arange(n)
    table[diag, diag] = off
    table[diag, :, diag] = off
    u = [points.lift(l, order) for l in range(n)]
    ratio = {(a, b): jets.div(u[a], u[b]) for a in range(n) for b in range(n) if a != b}
    g = lambda i, j: jets.Jet(n, order, off[i, j])
    for i in range(n):
        total = -jets.div(jets.constant(n, order, 1.0), u[i])
        for j in range(n):
            if j != i:
                table[i, j, j] = (-jets.mul(ratio[i, j], g(i, j))).coeffs
                total = jets.sub(total, jets.mul(ratio[j, i], g(i, j)))
        table[i, i, i] = total.coeffs
    return table


NONLINEAR = ("u1 + 0.3*u2*u3", "u2 - 0.2*u1^2 + exp(0.1*u3)", "u3 + u1/(3 + u2^2)")
SYSTEMS = [pytest.param(epsilon_system(n, eps), n, id=f"eps{eps:g}-n{n}") for n in range(2, 7) for eps in (1.0, -1.0)]
SYSTEMS.append(pytest.param(DiagonalSystem.of_fields(field(s, 3) for s in NONLINEAR), 3, id="velocity-nonlinear"))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("sys, n", SYSTEMS)
def test_system_tables_match_per_pair_loops(sys, n, order):
    points = sample_points(n, 4, seed=n)
    want = system_generators(sys, points, order)
    assert_bitwise(christoffel_primary(sys, points, order), want)
    assert_bitwise(natural_connection(sys).generators(points, order), want)
    assert_bitwise(natural_connection(sys).christoffels(points, order), natural_table(want))
    assert_bitwise(dual_connection(sys).christoffels(points, order), dual_table(want, points, order))


@pytest.mark.parametrize("order", ORDERS)
def test_frame_generators_match_per_pair_loop(order):
    beta, lame = eps2_frame_fields(1.0)  # epsilon_frame_n2(1.0)'s fields
    points = sample_points(2, 5, seed=43)

    def pair(i, j):
        hi, hj = (lame[k].jet(points, order) for k in (i, j))
        return jets.mul(jets.div(hj, hi), beta[(i, j)].jet(points, order))

    got = epsilon_frame_n2(1.0).generators(points, order)
    assert_bitwise(got, pair_generators(2, points, order, pair))


@pytest.mark.parametrize("order", ORDERS)
def test_transformed_tables_match_per_pair_loops(order):
    e = entry("dim3-eps1-h1:c0")
    sys, A = epsilon_system(3, e.eps), e.density_field()
    points = sample_points(3, 4, seed=5, predicates=e.sample_predicates())
    result = transform(sys, ConservationDensity(A), points[0], with_dual=True, points=points)
    base = system_generators(sys, points, order)
    dlog = lambda j: jets.div(derivative(A.jet(points, order + 1), j), A.jet(points, order))  # d_j A / A
    shift = lambda i, j: jets.sub(jets.Jet(3, order, base[i, j]), dlog(j))
    want = pair_generators(3, points, order, shift)
    assert_bitwise(result.natural.generators(points, order), want)
    assert_bitwise(result.natural.christoffels(points, order), natural_table(want))
    assert_bitwise(result.dual.christoffels(points, order), dual_table(want, points, order))


def test_degeneracy_names_the_first_pair_then_its_first_point():
    # v^2 = v^3 at the first point, v^1 = v^3 only at the last: pair (1, 3)
    # comes first in i-major order, so its point is named, not the earlier one
    sys = DiagonalSystem.of_fields(field(f"u{k}", 3) for k in (1, 2, 3))
    points = point_set([Point((1.0, 3.0, 3.0)), Point((0.5, 1.0, 2.0)), Point((2.0, 5.0, 2.0))])
    first, v = None, sys.velocity_jets(points, 0)[:, 0]
    for i in range(3):  # the per-pair loop's order
        for j in range(3):
            den = np.abs(v[j] - v[i])
            if i != j and first is None and (den < VELOCITY_GAP).any():
                first = (i, j, points[int(np.argmax(den < VELOCITY_GAP))])
    assert first == (0, 2, Point((2.0, 5.0, 2.0)))
    for build in (lambda: christoffel_primary(sys, points, 0), lambda: natural_connection(sys).generators(points, 1)):
        with pytest.raises(DegenerateSystemError) as err:
            build()
        assert str(err.value) == f"coincident characteristic velocities v^1 and v^3 at {first[2]}"


def _table_pairs(sys: DiagonalSystem, A=None):
    """The (natural, dual) tables of sys, or of its image under the density A."""
    if A is None:
        return natural_connection(sys), dual_connection(sys)
    result = transform(sys, ConservationDensity(A), Point((-1.5, 0.7, 1.9)), with_dual=True, check_generator=False)
    return result.natural, result.dual


TRANSFORMED = entry("dim3-eps1-h1:c0")
TABLE_CASES = [pytest.param(p.values[0], None, (), id=p.id) for p in SYSTEMS] + [
    pytest.param(epsilon_system(3, 1.0), TRANSFORMED.density_field(), TRANSFORMED.sample_predicates(), id="transformed")
]


@pytest.mark.parametrize("sys, A, predicates", TABLE_CASES)
def test_order_zero_tables_read_off_order_one_bit_for_bit(sys, A, predicates):
    """Generators and both assemblies at order 0 over a set that holds order 1
    are views of order 1, and bit for bit what a fresh set gives when order 0
    alone is asked and evaluated from scratch."""
    coords = sample_points(sys.dim, 4, seed=11, predicates=predicates).coords
    held, fresh = PointSet(coords), PointSet(coords)
    natural, dual = _table_pairs(sys, A)
    high = [natural.christoffels(held, 1), dual.christoffels(held, 1), natural.generators(held, 1)]
    got = [natural.christoffels(held, 0), dual.christoffels(held, 0), natural.generators(held, 0)]
    with every_order_from_scratch():
        ref_natural, ref_dual = _table_pairs(sys, A)
        want = [ref_natural.christoffels(fresh, 0), ref_dual.christoffels(fresh, 0), ref_natural.generators(fresh, 0)]
    for g, w, h in zip(got, want, high):
        assert same_bits(g, w) and np.shares_memory(g, h)
