import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_basis_matrix
from discretum import (
    DiscretumError,
    FoldedVector,
    GVector,
    LatticeBasis,
    ReciprocalBasis,
    fold_to_bz,
    g_vector,
    lattice_phase,
    lattice_point,
    reciprocal_basis,
)
from discretum.lattice import FOLD_MAX_ZONES

TWO_PI = 2.0 * math.pi


def brute_force_fold(recip, k, shells=6):
    """Oracle: scan a wide block of reciprocal translations for the shortest image."""
    k = np.asarray(k, dtype=float)
    dim = recip.dim
    best = None
    for idx in itertools.product(range(-shells, shells + 1), repeat=dim):
        g = np.asarray(idx, dtype=float) @ recip.vectors
        cand = k - g
        norm = float(cand @ cand)
        if best is None or norm < best[0] - 1e-12 * (1.0 + best[0]):
            best = (norm, cand, idx)
        elif abs(norm - best[0]) <= 1e-12 * (1.0 + best[0]):
            if tuple(cand) > tuple(best[1]):
                best = (norm, cand, idx)
    return best[1], best[2]


def test_cubic_reciprocal_is_scaled_identity():
    for a0 in (1.0, 2.0, 0.25):
        basis = LatticeBasis.cubic(a0, dim=3)
        recip = reciprocal_basis(basis)
        np.testing.assert_allclose(recip.vectors, (TWO_PI / a0) * np.eye(3), rtol=0, atol=1e-14 / a0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_duality_relation_random_bases(dim, seed):
    """A_i . a_j = 2 pi delta_ij for random non-degenerate bases."""
    rng = np.random.default_rng(seed)
    mat = random_basis_matrix(rng, dim)
    basis = LatticeBasis(vectors=mat)
    recip = reciprocal_basis(basis)
    dots = recip.vectors @ basis.vectors.T
    np.testing.assert_allclose(dots, TWO_PI * np.eye(dim), rtol=0, atol=1e-10)


def test_g_vector_examples():
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=3))
    zero = g_vector(recip, 0, 0, 0)
    assert zero.indices == (0, 0, 0)
    np.testing.assert_array_equal(zero.cartesian, np.zeros(3))
    g = g_vector(recip, 1, 2, -1)
    np.testing.assert_allclose(g.cartesian, [TWO_PI, 2 * TWO_PI, -TWO_PI], rtol=1e-15)


def test_g_vector_1d_ignores_trailing_indices():
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=1))
    g = g_vector(recip, 2)
    assert g.indices == (2,)
    np.testing.assert_allclose(g.cartesian, [2 * TWO_PI], rtol=1e-15)


def test_lattice_point_integer_combinations():
    basis = LatticeBasis(vectors=np.array([[1.0, 0.0], [0.5, 2.0]]))
    np.testing.assert_allclose(lattice_point(basis, 2, -1), [1.5, -2.0], rtol=1e-15)
    np.testing.assert_array_equal(lattice_point(basis, 0, 0), np.zeros(2))


@pytest.mark.parametrize("call,message", [
    (lambda r, b: g_vector(r, 1.5), "index h must be an integer, got 1.5"),
    (lambda r, b: g_vector(r, 1, True), "index k must be an integer, got True"),
    (lambda r, b: lattice_point(b, 2, 0, 0.5),
     "index p must be an integer, got 0.5"),
    (lambda r, b: g_vector(r, 1, 5),
     "indices beyond dimension 1 must be 0, got (1, 5, 0)"),
    (lambda r, b: lattice_point(b, 1, 2),
     "indices beyond dimension 1 must be 0, got (1, 2, 0)"),
    (lambda r, b: g_vector(r, 1, 0, -1),
     "indices beyond dimension 1 must be 0, got (1, 0, -1)"),
], ids=["g-float", "g-bool", "point-float", "g-beyond-dim", "point-beyond-dim",
        "g-beyond-dim-l"])
def test_indices_are_integers_within_the_dimension(call, message):
    """A 1-D basis takes one index; a float index or a nonzero index past
    the dimension raises instead of being truncated or dropped."""
    basis = LatticeBasis.cubic(1.0, dim=1)
    with pytest.raises(DiscretumError) as info:
        call(reciprocal_basis(basis), basis)
    assert str(info.value) == message
    g = g_vector(reciprocal_basis(basis), np.int64(2), 0, 0)
    assert g.indices == (2,) and lattice_point(basis, 3, 0).tolist() == [3.0]


@pytest.mark.parametrize("indices,message", [
    ((1.5,), "index h must be an integer, got 1.5"),
    ((1, 2.0), "index k must be an integer, got 2.0"),
    ((0, 0, True), "index l must be an integer, got True"),
], ids=["float", "integral-float", "bool"])
def test_gvector_built_directly_rejects_non_integer_indices(indices, message):
    """Truncating would store GVector((1.5,), [3.0]) as indices (1,) beside
    the cartesian 3.0; the integer rule of g_vector holds for the type."""
    with pytest.raises(DiscretumError) as info:
        GVector(indices, np.zeros(len(indices)))
    assert str(info.value) == message
    g = GVector((np.int64(2), -1), [1.0, 2.0])
    assert g.indices == (2, -1) and all(type(i) is int for i in g.indices)


def test_lattice_phase_unity_on_lattice_points():
    basis = LatticeBasis.cubic(1.0, dim=3)
    recip = reciprocal_basis(basis)
    g = g_vector(recip, 1, 0, 0)
    rho = lattice_point(basis, 3, 0, 0)
    assert abs(lattice_phase(g, rho) - 1.0) < 1e-12
    # half a lattice vector picks up a sign
    assert abs(lattice_phase(g, np.array([0.5, 0.0, 0.0])) + 1.0) < 1e-12
    # the zero vector gives exactly 1
    assert lattice_phase(g_vector(recip, 0, 0, 0), rho) == 1.0


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_lattice_phase_random_pairs(seed):
    rng = np.random.default_rng(seed)
    dim = 3
    mat = random_basis_matrix(rng, dim)
    basis = LatticeBasis(vectors=mat)
    recip = reciprocal_basis(basis)
    for _ in range(100):
        hkl = rng.integers(-3, 4, size=dim)
        mnp = rng.integers(-20, 21, size=dim)
        g = g_vector(recip, *hkl)
        rho = lattice_point(basis, *mnp)
        assert abs(lattice_phase(g, rho) - 1.0) < 1e-12


def test_lattice_phase_large_arguments_degrade_gracefully():
    """Far-out pairs accumulate rounding in the G.rho product; the phase
    still returns to 1 at the scale the argument magnitude permits."""
    rng = np.random.default_rng(70)
    basis = LatticeBasis(vectors=random_basis_matrix(rng, 3))
    recip = reciprocal_basis(basis)
    for _ in range(100):
        g = g_vector(recip, *rng.integers(-5, 6, size=3))
        rho = lattice_point(basis, *rng.integers(-50, 51, size=3))
        assert abs(lattice_phase(g, rho) - 1.0) < 1e-10


def test_fold_identity_inside_zone():
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=1))
    for k in (0.0, 0.5, -2.0, 3.0):
        out = fold_to_bz(recip, [k])
        np.testing.assert_allclose(out.k_folded, [k], rtol=0, atol=1e-13)
        assert out.g.indices == (0,)


def test_fold_1d_known_value():
    """k = 1.5 * (2 pi / a) / 2 ... i.e. three-quarters out along the zone."""
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=1))
    out = fold_to_bz(recip, [1.5 * math.pi])
    np.testing.assert_allclose(out.k_folded, [-0.5 * math.pi], rtol=1e-12)
    assert out.g.indices == (1,)
    # decomposition identity holds exactly
    np.testing.assert_array_equal(out.k_folded + out.g.cartesian, np.array([1.5 * math.pi]))


def test_fold_boundary_tie_prefers_positive_edge():
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=1))
    plus = fold_to_bz(recip, [math.pi])
    minus = fold_to_bz(recip, [-math.pi])
    np.testing.assert_allclose(plus.k_folded, [math.pi], rtol=1e-12)
    np.testing.assert_allclose(minus.k_folded, [math.pi], rtol=1e-12)
    assert plus.g.indices == (0,)
    assert minus.g.indices == (-1,)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_fold_matches_brute_force(dim, seed):
    rng = np.random.default_rng(seed)
    mat = random_basis_matrix(rng, dim)
    recip = reciprocal_basis(LatticeBasis(vectors=mat))
    for _ in range(25):
        k = rng.uniform(-12.0, 12.0, size=dim)
        out = fold_to_bz(recip, k)
        k_ref, idx_ref = brute_force_fold(recip, k)
        np.testing.assert_allclose(out.k_folded, k_ref, rtol=0, atol=1e-9)
        assert out.g.indices == idx_ref


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fold_translation_invariance(dim):
    rng = np.random.default_rng(100 + dim)
    mat = random_basis_matrix(rng, dim)
    recip = reciprocal_basis(LatticeBasis(vectors=mat))
    for _ in range(50):
        k = rng.uniform(-8.0, 8.0, size=dim)
        shift = rng.integers(-3, 4, size=dim)
        g = g_vector(recip, *shift)
        a = fold_to_bz(recip, k)
        b = fold_to_bz(recip, k + g.cartesian)
        np.testing.assert_allclose(a.k_folded, b.k_folded, rtol=0, atol=1e-9)


def test_fold_idempotent():
    rng = np.random.default_rng(55)
    mat = random_basis_matrix(rng, 2)
    recip = reciprocal_basis(LatticeBasis(vectors=mat))
    for _ in range(50):
        k = rng.uniform(-10.0, 10.0, size=2)
        once = fold_to_bz(recip, k)
        twice = fold_to_bz(recip, once.k_folded)
        assert twice.g.indices == (0, 0)
        np.testing.assert_allclose(twice.k_folded, once.k_folded, rtol=0, atol=1e-12)


fold_cases = dict(dim=st.integers(1, 3), basis_seed=st.integers(0, 2**32 - 1),
                  k=st.lists(st.floats(-12.0, 12.0), min_size=3, max_size=3))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(**fold_cases)
def test_fold_idempotent_property(dim, basis_seed, k):
    """Folding a first-zone representative returns it with G = 0."""
    mat = random_basis_matrix(np.random.default_rng(basis_seed), dim)
    recip = reciprocal_basis(LatticeBasis(vectors=mat))
    once = fold_to_bz(recip, k[:dim])
    twice = fold_to_bz(recip, once.k_folded)
    assert twice.g.indices == (0,) * dim
    np.testing.assert_array_equal(twice.k_folded, once.k_folded)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(shift=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       **fold_cases)
def test_fold_translation_invariance_property(dim, basis_seed, k, shift):
    """k and k + G fold to the same representative; the removed G differs
    by exactly the shift."""
    mat = random_basis_matrix(np.random.default_rng(basis_seed), dim)
    recip = reciprocal_basis(LatticeBasis(vectors=mat))
    k, shift = np.array(k[:dim]), shift[:dim]
    g = g_vector(recip, *shift)
    a = fold_to_bz(recip, k)
    b = fold_to_bz(recip, k + g.cartesian)
    scale = 1.0 + float(np.max(np.abs(k)))
    np.testing.assert_allclose(a.k_folded, b.k_folded, rtol=0,
                               atol=1e-12 * scale)
    assert np.array_equal(np.subtract(b.g.indices, a.g.indices), shift)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(exponent=st.integers(-80, 80), **fold_cases)
def test_fold_is_independent_of_the_unit_of_length(dim, basis_seed, k,
                                                    exponent):
    """A cell scaled by s = 2**exponent, with k scaled by 1/s, is accepted
    and folds to the same G and to k_folded/s.  Scaling by a power of two
    is exact, so the results are expected to be bit-equal."""
    mat = random_basis_matrix(np.random.default_rng(basis_seed), dim)
    k = np.array(k[:dim])
    unit = fold_to_bz(reciprocal_basis(LatticeBasis(mat)), k)
    scaled = fold_to_bz(reciprocal_basis(LatticeBasis(np.ldexp(mat, exponent))),
                        np.ldexp(k, -exponent))
    assert scaled.g.indices == unit.g.indices
    np.testing.assert_allclose(np.ldexp(scaled.k_folded, exponent),
                               unit.k_folded, rtol=1e-12, atol=0)


@pytest.mark.parametrize("exponent", [-1000, -600, 600, 1000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fold_is_independent_of_the_unit_of_length_at_float_extremes(
        dim, exponent):
    """Past 2**500 the squared lengths and the volume of the cell overflow
    or underflow; folding the scaled cell still gives the same answer."""
    rng = np.random.default_rng(dim)
    mat = random_basis_matrix(rng, dim)
    for k in rng.uniform(-12.0, 12.0, size=(20, dim)):
        unit = fold_to_bz(reciprocal_basis(LatticeBasis(mat)), k)
        scaled = fold_to_bz(
            reciprocal_basis(LatticeBasis(np.ldexp(mat, exponent))),
            np.ldexp(k, -exponent))
        assert scaled.g.indices == unit.g.indices
        assert np.array_equal(np.ldexp(scaled.k_folded, exponent),
                              unit.k_folded)


def test_folded_vector_is_shortest_image():
    rng = np.random.default_rng(77)
    mat = random_basis_matrix(rng, 3)
    recip = reciprocal_basis(LatticeBasis(vectors=mat))
    offsets = list(itertools.product(range(-2, 3), repeat=3))
    for _ in range(20):
        k = rng.uniform(-6.0, 6.0, size=3)
        out = fold_to_bz(recip, k)
        n0 = np.linalg.norm(out.k_folded)
        for idx in offsets:
            g = np.asarray(idx, dtype=float) @ recip.vectors
            assert n0 <= np.linalg.norm(out.k_folded - g) + 1e-9


def test_is_equivalent():
    """Wave vectors one reciprocal vector apart fold to the same k_folded."""
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=1))

    def gap(k1, k2):
        return np.max(np.abs(fold_to_bz(recip, k1).k_folded
                             - fold_to_bz(recip, k2).k_folded))

    assert gap([0.3], [0.3 + TWO_PI]) <= 1e-9
    assert gap([0.3], [0.3 - 3 * TWO_PI]) <= 1e-9
    assert gap([math.pi], [-math.pi]) <= 1e-9
    assert gap([0.1], [0.2]) > 1e-9


def test_degenerate_basis_rejected():
    with pytest.raises(DiscretumError, match="^degenerate basis"):
        reciprocal_basis(LatticeBasis(vectors=np.array([[1.0, 0.0], [2.0, 0.0]])))
    with pytest.raises(DiscretumError, match="^degenerate basis"):
        reciprocal_basis(LatticeBasis(vectors=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])))


@pytest.mark.parametrize("vectors", [
    [[1.0, 0.0], [0.0]], [["a"]], [[{}]], [[math.nan]], [[math.inf]],
    [[1.0, 0.0], [0.0, -math.inf]], [[None]],
], ids=["ragged", "string", "object", "nan", "inf", "minus-inf", "none"])
def test_basis_rejects_non_numeric_entries(vectors):
    with pytest.raises(DiscretumError, match="^basis vectors must be"):
        LatticeBasis(vectors)


def test_fold_shape_mismatch_rejected():
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=2))
    with pytest.raises(DiscretumError):
        fold_to_bz(recip, [1.0, 2.0, 3.0])


def test_fold_rejects_non_finite_k():
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DiscretumError, match="finite"):
            fold_to_bz(recip, [0.5, bad])


def test_fold_rejects_k_beyond_the_zone_bound():
    """The bound is on the fractional reciprocal coordinate of k, in zones:
    inside it k - G is resolved to 1e-9 of a zone width, beyond it k is
    rejected rather than folded to a representative with no digits left."""
    assert 4.4e6 < FOLD_MAX_ZONES < 4.6e6
    recip = reciprocal_basis(LatticeBasis(np.array([[2.0, 0.0], [0.5, 1.0]])))
    inside = np.array([4.0e6, -3.0e6]) @ recip.vectors + [0.1, 0.2]
    out = fold_to_bz(recip, inside)
    assert out.g.indices == (4_000_000, -3_000_000)
    np.testing.assert_allclose(out.k_folded, [0.1, 0.2], rtol=0, atol=1e-8)
    for zones in ([5.0e6, 0.0], [0.0, -5.0e6], [1e300, 1.0]):
        with pytest.raises(DiscretumError, match="^k is .* zones from the"):
            fold_to_bz(recip, np.array(zones) @ recip.vectors)


def test_fold_rejects_a_singular_reciprocal_basis():
    """A ReciprocalBasis built directly is not checked for degeneracy; the
    fold cannot take fractional coordinates on it and says so."""
    recip = ReciprocalBasis([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DiscretumError) as info:
        fold_to_bz(recip, np.array([0.3, 0.1]))
    assert str(info.value) == "reciprocal basis is singular"


def test_fold_rejects_direct_basis():
    basis = LatticeBasis(np.array([[2.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(DiscretumError):
        fold_to_bz(basis, [1.0, 2.0])


def test_result_types_are_frozen():
    recip = reciprocal_basis(LatticeBasis.cubic(1.0, dim=1))
    out = fold_to_bz(recip, [1.0])
    assert isinstance(out, FoldedVector)
    assert isinstance(out.g, GVector)
    with pytest.raises(AttributeError):
        out.g = None
