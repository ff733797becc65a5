import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import action_quantum_from_frequency, dense_band_matrix
from discretum import (
    CONSTANTS,
    DiscretumError,
    NcExpression,
    OperatorMatrix,
    PhysicalConstants,
    build_qp_matrices,
    commutator_defect,
    ground_energy,
    lattice_spacing_from_cutoff,
    medium_atom_mass,
    mode_hamiltonian,
    oscillator_hamiltonian,
    oscillator_spectrum,
    planck_from_lattice,
    reduce_mode_hamiltonian,
)
from discretum.quantum_bridge import MAX_DIMENSION

P = NcExpression.symbol("p")
Q = NcExpression.symbol("q")


def test_expression_basics():
    assert NcExpression.zero().is_zero
    assert (P - P).is_zero
    assert not (P + Q).is_zero
    assert P + Q == Q + P
    assert P - Q != Q - P
    # scaling keeps exact rationals
    e = P.scaled(Fraction(1, 3)) + P.scaled(Fraction(2, 3))
    assert e == P
    assert P.scaled(0).is_zero


def test_expression_multiplication_is_ordered():
    pq = P * Q
    qp = Q * P
    assert pq != qp
    assert not (pq - qp).is_zero
    assert (pq - qp).commutative_image().is_zero
    # word concatenation
    assert (P * Q) * P == P * (Q * P)
    assert pq.terms == {("p", "q"): {0: Fraction(1)}}


def test_expression_omega_powers():
    e = P.scaled(1, 2).scaled(1, -2)
    assert e == P
    f = Q.scaled(Fraction(3, 2), 1)
    assert f.terms == {("q",): {1: Fraction(3, 2)}}
    # different powers do not collapse
    assert Q.scaled(1, 1) != Q.scaled(1, 2)


def test_expression_hash_and_set_membership():
    s = {P + Q, Q + P, P * Q}
    assert len(s) == 2


def test_mode_hamiltonian_structure():
    h = mode_hamiltonian()
    assert h.terms == {
        ("p", "p*"): {0: Fraction(1, 2)},
        ("q", "q*"): {2: Fraction(1, 2)},
    }
    assert not h.commutative_image().is_zero


def test_substitute_identity_and_plain_square():
    h = mode_hamiltonian()
    assert h.substitute({}) == h
    plain = h.substitute({"p*": P, "q*": Q})
    assert plain.terms == {
        ("p", "p"): {0: Fraction(1, 2)},
        ("q", "q"): {2: Fraction(1, 2)},
    }


def test_reduction_collapses_to_commutator_form():
    got = reduce_mode_hamiltonian()
    expected = (P * Q).scaled(Fraction(1, 2), 1) + (Q * P).scaled(Fraction(-1, 2), 1)
    assert got == expected
    # sign matters: the reversed form is different
    assert got != (Q * P).scaled(Fraction(1, 2), 1) + (P * Q).scaled(Fraction(-1, 2), 1)
    # and the ordered difference vanishes only commutatively
    assert not got.is_zero
    assert got.commutative_image().is_zero


def test_reduction_repr_is_stable():
    assert repr(reduce_mode_hamiltonian()) == "(1/2)*w*pq + (-1/2)*w*qp"
    assert repr(NcExpression.zero()) == "0"


def test_operator_matrix_validation():
    # a complex diagonal is the one way a band matrix can fail Hermiticity
    with pytest.raises(DiscretumError, match="not Hermitian"):
        OperatorMatrix({0: [0.0, 1j], 2: []}, "hamiltonian")
    # position and momentum are tridiagonal with a zero diagonal
    with pytest.raises(DiscretumError):
        OperatorMatrix({0: [1.0, 0.0], 1: [1.0]}, "position")
    with pytest.raises(DiscretumError):
        OperatorMatrix({1: [1.0]}, "banana")
    # bands of one square matrix: band k has N - k entries
    with pytest.raises(DiscretumError):
        OperatorMatrix({0: np.ones(2), 2: np.ones(2)}, "hamiltonian")
    with pytest.raises(DiscretumError):
        OperatorMatrix({1: np.ones((2, 3))}, "position")
    # the hamiltonian role holds a real diagonal and band 2
    h = OperatorMatrix({0: [1.0, 2.0, 3.0], 2: [0.5]}, "hamiltonian")
    assert h.dimension == 3
    np.testing.assert_array_equal(
        dense_band_matrix(h),
        [[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.5, 0.0, 3.0]])
    # the stored bands are read-only copies
    band = np.ones(3)
    q = OperatorMatrix({1: band}, "position")
    band[0] = 7.0
    assert q.bands[1][0] == 1.0 and not q.bands[1].flags.writeable


def test_build_qp_smallest_truncation():
    q, p = build_qp_matrices(2, 1.0, 1.0)
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(dense_band_matrix(q), [[0, r], [r, 0]],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(dense_band_matrix(p), [[0, -1j * r], [1j * r, 0]],
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
def test_build_qp_structure(n):
    q, p = build_qp_matrices(n, 1.3, 0.7)
    assert q.dimension == p.dimension == n
    assert sorted(q.bands) == sorted(p.bands) == [1]
    for mat in map(dense_band_matrix, (q, p)):
        assert np.max(np.abs(mat - mat.conj().T)) == 0.0
        assert np.all(np.diag(mat) == 0)
        off = np.triu(mat, 2)
        assert np.max(np.abs(off)) == 0.0


def test_build_qp_validation():
    with pytest.raises(DiscretumError):
        build_qp_matrices(1, 1.0, 1.0)
    with pytest.raises(DiscretumError):
        build_qp_matrices(4, -1.0, 1.0)
    with pytest.raises(DiscretumError):
        build_qp_matrices(4, 1.0, 1.0, hbar=0.0)


def test_build_qp_dimension_cap():
    with pytest.raises(DiscretumError, match=r"\[2, 4096\], got 4097"):
        build_qp_matrices(MAX_DIMENSION + 1, 1.0, 1.0)
    # the cap is checked before anything is allocated
    with pytest.raises(DiscretumError):
        build_qp_matrices(10**18, 1.0, 1.0)
    q, p = build_qp_matrices(MAX_DIMENSION, 1.0, 1.0)
    assert q.dimension == MAX_DIMENSION
    assert q.bands[1].shape == p.bands[1].shape == (MAX_DIMENSION - 1,)


@pytest.mark.parametrize("seed", range(6))
def test_bands_match_dense_products(seed):
    """Commutator and Hamiltonian from the bands against dense matmuls."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    m, omega, hbar = 10 ** rng.uniform(-2, 2, 3)
    q, p = build_qp_matrices(n, m, omega, hbar)
    qd, pd = dense_band_matrix(q), dense_band_matrix(p)
    comm = qd @ pd - pd @ qd
    defect, corner = commutator_defect(q, p, hbar)
    scale = hbar * n
    assert abs(corner - comm[-1, -1]) <= 1e-15 * scale
    off = comm - np.diag(np.diag(comm))
    dense_defect = max(np.max(np.abs(np.diag(comm)[:-1] - 1j * hbar)),
                       np.max(np.abs(off)))
    assert abs(defect - dense_defect) <= 1e-14 * scale
    h = oscillator_hamiltonian(q, p, m, omega)
    hd = pd @ pd / (2 * m) + 0.5 * m * omega**2 * (qd @ qd)
    np.testing.assert_allclose(dense_band_matrix(h), hd, rtol=0,
                               atol=1e-14 * hbar * omega * n)
    lowest = np.linalg.eigvalsh(hd).min()
    assert abs(ground_energy(q, p, m, omega) - lowest) <= 4e-16 * lowest


def test_hamiltonian_scales_beyond_the_coefficient_range():
    """0.5*m*omega**2 overflows, H = hbar*omega*(n + 1/2) stays finite."""
    q, p = build_qp_matrices(64, 1e150, 1e150)
    with np.errstate(all="raise"):
        got = ground_energy(q, p, 1e150, 1e150)
    assert abs(got - 5e149) <= 2 * np.spacing(5e149)


def test_hamiltonian_overflow_raises():
    q, p = build_qp_matrices(256, 1e-5, 1e7, hbar=1e300)
    with np.errstate(all="raise"):
        with pytest.raises(DiscretumError, match="overflows"):
            oscillator_hamiltonian(q, p, 1e-5, 1e7)


@pytest.mark.parametrize("n", [2, 4, 16, 64, 256])
def test_commutator_canonical_up_to_corner(n):
    q, p = build_qp_matrices(n, 2.0, 0.5)
    defect, corner = commutator_defect(q, p)
    assert defect < 1e-12
    np.testing.assert_allclose(corner, -1j * (n - 1), rtol=1e-10)


def test_commutator_scales_with_hbar():
    n = 8
    q, p = build_qp_matrices(n, 1.0, 1.0, hbar=2.0)
    defect, corner = commutator_defect(q, p, hbar=2.0)
    assert defect < 1e-12
    np.testing.assert_allclose(corner, -2j * (n - 1), rtol=1e-10)
    # measured against the wrong hbar the defect is exactly the difference
    wrong_defect, _ = commutator_defect(q, p, hbar=1.0)
    np.testing.assert_allclose(wrong_defect, 1.0, rtol=1e-10)


def test_commutator_dimension_mismatch():
    q, _ = build_qp_matrices(4, 1.0, 1.0)
    _, p = build_qp_matrices(6, 1.0, 1.0)
    with pytest.raises(DiscretumError):
        commutator_defect(q, p)


def test_real_form_defect_documents_failure():
    """The imaginary-unit-free convention pq - qp = h fails: the matrices
    give -i*hbar on the diagonal, h*sqrt(2) away from h for hbar = h."""
    q, p = build_qp_matrices(4, 1.0, 1.0)
    qd, pd = dense_band_matrix(q), dense_band_matrix(p)
    diag = np.diag(pd @ qd - qd @ pd)[:-1]  # without the truncation corner

    def real_form_defect(h):
        return np.max(np.abs(diag - h))

    np.testing.assert_allclose(real_form_defect(1.0), math.sqrt(2.0), rtol=1e-12)
    # scaling h moves the target, not the matrices
    np.testing.assert_allclose(real_form_defect(3.0), math.sqrt(10.0), rtol=1e-12)


def test_hamiltonian_is_diagonal_with_corner_anomaly():
    q, p = build_qp_matrices(6, 1.0, 1.0)
    h = oscillator_hamiltonian(q, p, 1.0, 1.0)
    assert h.role == "hamiltonian"
    mat = dense_band_matrix(h)
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-13
    np.testing.assert_allclose(np.diag(mat).real,
                               [0.5, 1.5, 2.5, 3.5, 4.5, 2.5], rtol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 16, 64])
@pytest.mark.parametrize("m,omega,hbar", [(1.0, 1.0, 1.0), (3.0, 0.5, 1.0), (1.0, 2.0, 2.0)])
def test_ground_energy_half_quantum(n, m, omega, hbar):
    q, p = build_qp_matrices(n, m, omega, hbar)
    np.testing.assert_allclose(ground_energy(q, p, m, omega),
                               0.5 * hbar * omega, rtol=1e-12)


@pytest.mark.parametrize("n_levels", [1, 4, 16, 256])
def test_spectrum_exact_ladder(n_levels):
    got = oscillator_spectrum(n_levels, 1.0, 1.0)
    np.testing.assert_allclose(got, np.arange(n_levels) + 0.5, rtol=1e-10)


def test_spectrum_physical_scales():
    hbar = CONSTANTS.hbar
    omega = 1e10
    got = oscillator_spectrum(6, 1e-27, omega, hbar=hbar)
    np.testing.assert_allclose(got, hbar * omega * (np.arange(6) + 0.5), rtol=1e-8)


def test_relation_inputs_validation():
    with pytest.raises(DiscretumError, match="^m must be > 0"):
        planck_from_lattice(CONSTANTS, 0.0, 1.0)
    with pytest.raises(DiscretumError, match="^a must be > 0"):
        planck_from_lattice(CONSTANTS, 1.0, -1.0)
    # omega = c/a must be finite too
    with pytest.raises(DiscretumError, match="^omega must be a finite number"):
        planck_from_lattice(CONSTANTS, 1.0, 1e-301)
    assert planck_from_lattice(CONSTANTS, 1.0, 1.0) == CONSTANTS.c


def test_action_quantum_values():
    assert planck_from_lattice(PhysicalConstants(c=5.0), 2.0, 3.0) == 30.0
    assert action_quantum_from_frequency(2.0, 1.0, 3.0) == 18.0


def test_frequency_form_equals_momentum_form_on_sound_cone():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m, a, c = rng.uniform(0.1, 10.0, size=3)
        np.testing.assert_allclose(
            action_quantum_from_frequency(m, c / a, a),
            planck_from_lattice(PhysicalConstants(c=c), m, a), rtol=1e-14)


def test_medium_atom_mass_frozen_value():
    got = medium_atom_mass(CONSTANTS, 1e-25)
    np.testing.assert_allclose(got, 2.2102190943e-17, rtol=1e-9)
    with pytest.raises(DiscretumError):
        medium_atom_mass(CONSTANTS, 0.0)


def test_planck_roundtrip_identity():
    for a in (1e-25, 1e-10, 1.0, 17.3):
        m = medium_atom_mass(CONSTANTS, a)
        np.testing.assert_allclose(planck_from_lattice(CONSTANTS, m, a),
                                   CONSTANTS.h, rtol=1e-12)
        np.testing.assert_allclose(
            action_quantum_from_frequency(m, CONSTANTS.c / a, a),
            CONSTANTS.h, rtol=1e-12)


def test_mass_for_momentum_cutoff_spacing():
    """Cross-module chain: spacing from a momentum cutoff, then the atom mass
    that makes the medium's action quantum equal h."""
    a_s = lattice_spacing_from_cutoff(CONSTANTS, 1e-9)
    m = medium_atom_mass(CONSTANTS, a_s)
    np.testing.assert_allclose(m, 1e-9 / CONSTANTS.c, rtol=1e-12)
    np.testing.assert_allclose(planck_from_lattice(CONSTANTS, m, a_s),
                               CONSTANTS.h, rtol=1e-12)


@pytest.mark.parametrize("n_dim", [4.5, 4.0, True, np.float64(3.0)])
def test_build_qp_rejects_non_integer_dimension(n_dim):
    with pytest.raises(DiscretumError,
                       match="^truncation dimension must be an integer"):
        build_qp_matrices(n_dim, 1.0, 1.0)


def test_build_qp_rejects_subnormal_scale_factors():
    with pytest.raises(DiscretumError, match=r"^hbar\*m\*omega/2 is subnormal"):
        build_qp_matrices(16, 1e-10, 1e-150, hbar=2e-150)
    with pytest.raises(DiscretumError,
                       match=r"^hbar/\(2\*m\*omega\) is subnormal"):
        build_qp_matrices(16, 1e150, 1e150, hbar=1e-10)
    # p's scale factor hbar*m*omega/2 at the smallest normal float passes
    q, p = build_qp_matrices(4, 1.0, 2.0**-1021)
    assert p.bands[1][0] == -1j * math.sqrt(2.0**-1022)
    with pytest.raises(DiscretumError, match="is subnormal"):
        build_qp_matrices(4, 1.0, 2.0**-1022)
