import math

import numpy as np
import pytest

from discretum import (
    ELECTRON_VOLT,
    PLANCK_CONSTANT,
    PROTON_MASS,
    SPEED_OF_LIGHT,
    CutoffEstimate,
    DiscretumError,
    ModeGrid,
    OscillatorParams,
    bz_extent,
    chain_dispersion,
    compare_cutoffs,
    cutoff_momentum,
    lattice_spacing_from_cutoff,
    sound_speed,
)
from discretum.errors import require_finite, require_int, require_positive


def test_constants_values():
    assert SPEED_OF_LIGHT == 2.99792458e8
    assert PLANCK_CONSTANT == 6.62607015e-34
    assert ELECTRON_VOLT == 1.602176634e-19
    # proton rest mass from its rest energy in MeV
    np.testing.assert_allclose(PROTON_MASS, 1.6726217665e-27, rtol=1e-9)


def test_oscillator_frequency_examples():
    """The single-oscillator frequency sqrt(kappa/m) is half of omega_max."""
    assert OscillatorParams(kappa=4.0, m=1.0, a=1.0).omega_max / 2 == 2.0
    assert OscillatorParams(kappa=1.0, m=1.0, a=1.0).omega_max / 2 == 1.0
    np.testing.assert_allclose(
        OscillatorParams(kappa=9.0, m=4.0, a=1.0).omega_max / 2, 1.5, rtol=1e-15)


def test_sound_speed_examples():
    p = OscillatorParams(kappa=4.0, m=1.0, a=0.5)
    np.testing.assert_allclose(sound_speed(p), 1.0, rtol=1e-15)
    # with unit spacing the sound speed equals the oscillator frequency
    q = OscillatorParams(kappa=7.3, m=2.1, a=1.0)
    assert sound_speed(q) == q.omega_max / 2


def test_params_validation():
    for bad in ({"kappa": 0.0, "m": 1.0, "a": 1.0},
                {"kappa": 1.0, "m": -1.0, "a": 1.0},
                {"kappa": 1.0, "m": 1.0, "a": 0.0}):
        with pytest.raises(DiscretumError):
            OscillatorParams(**bad)


@pytest.mark.parametrize("name", ["kappa", "m", "a"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, "1"])
def test_params_reject_non_finite(name, value):
    good = {"kappa": 1.0, "m": 1.0, "a": 1.0}
    with pytest.raises(DiscretumError, match="%s must be a finite number" % name):
        OscillatorParams(**{**good, name: value})


def test_require_finite():
    for value in (0, -2, 1.5, np.float64(3.0), np.int64(4)):
        require_finite("x", value)
    for value in (math.nan, math.inf, -math.inf, False, None, "1.0", [1.0]):
        with pytest.raises(DiscretumError, match="^x must be a finite number"):
            require_finite("x", value)


def test_require_positive():
    for value in (5e-324, 1, 1.5, 1.7e308, np.float64(3.0), np.int64(4)):
        require_positive("x", value)
    # the finiteness check comes first, with its own message
    for value in (math.nan, math.inf, -math.inf, True, None, "1.0"):
        with pytest.raises(DiscretumError, match="^x must be a finite number"):
            require_positive("x", value)
    for value, text in ((0, "0"), (0.0, "0.0"), (-0.0, "-0.0"), (-2, "-2"),
                        (-1e-300, "-1e-300")):
        with pytest.raises(DiscretumError) as info:
            require_positive("x", value)
        assert str(info.value) == "x must be > 0, got %s" % text


@pytest.mark.parametrize("kappa,m,value", [
    (1e308, 1e-10, "a finite number, got inf"),
    (1e-300, 1e300, "> 0, got 0.0"),
])
def test_params_reject_overflowing_omega_max(kappa, m, value):
    with pytest.raises(DiscretumError) as info:
        OscillatorParams(kappa=kappa, m=m, a=1.0)
    assert str(info.value) == "omega_max must be " + value


def test_chain_dispersion_special_points():
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    assert chain_dispersion(p, 0.0) == 0.0
    np.testing.assert_allclose(chain_dispersion(p, math.pi), 2.0, rtol=1e-15)
    np.testing.assert_allclose(chain_dispersion(p, -math.pi), 2.0, rtol=1e-15)
    p2 = OscillatorParams(kappa=4.0, m=1.0, a=2.0)
    np.testing.assert_allclose(chain_dispersion(p2, math.pi / 2), 4.0, rtol=1e-15)


def test_chain_dispersion_array_and_symmetry():
    p = OscillatorParams(kappa=2.0, m=3.0, a=0.7)
    q = np.linspace(-4.0, 4.0, 41)
    w = chain_dispersion(p, q)
    assert w.shape == q.shape
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w, chain_dispersion(p, -q), rtol=0, atol=1e-15)


def test_chain_dispersion_periodicity():
    p = OscillatorParams(kappa=1.3, m=0.9, a=1.7)
    rng = np.random.default_rng(3)
    q = rng.uniform(-5.0, 5.0, size=64)
    w1 = chain_dispersion(p, q)
    w2 = chain_dispersion(p, q + 2 * math.pi / p.a)
    np.testing.assert_allclose(w1, w2, rtol=0, atol=1e-12)


def test_chain_dispersion_linear_limit():
    p = OscillatorParams(kappa=2.0, m=0.5, a=1.3)
    vs = sound_speed(p)
    q = 1e-3 / p.a
    np.testing.assert_allclose(chain_dispersion(p, q), vs * q, rtol=1e-3)
    # and tighter for even smaller q
    q = 1e-5 / p.a
    np.testing.assert_allclose(chain_dispersion(p, q), vs * q, rtol=1e-9)


def test_cutoff_momentum_threshold_and_massless():
    c = SPEED_OF_LIGHT
    # at the rest energy the momentum vanishes
    m = 1e-27
    assert cutoff_momentum(m * c * c, m) == 0.0
    # massless limit: p = E/c, exactly for p a power of two
    assert cutoff_momentum(c * 0.125, 0.0) == 0.125
    np.testing.assert_allclose(
        cutoff_momentum(3.0e8, 0.0), 1.0006922855944561, rtol=1e-12)


def test_cutoff_momentum_extreme_energy_proton():
    e_b = 1.0e21 * ELECTRON_VOLT
    p = cutoff_momentum(e_b, PROTON_MASS)
    np.testing.assert_allclose(p, 5.3442859927e-7, rtol=1e-9)
    # ultra-relativistic: indistinguishable from E/c at this energy
    np.testing.assert_allclose(p, e_b / SPEED_OF_LIGHT, rtol=1e-12)


def test_cutoff_momentum_monotone_in_energy():
    m = PROTON_MASS
    energies = np.geomspace(1.1, 1e12, 25) * m * SPEED_OF_LIGHT ** 2
    ps = [cutoff_momentum(e, m) for e in energies]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_cutoff_momentum_below_rest_energy_raises():
    m = 1e-27
    with pytest.raises(DiscretumError, match="^energy bound .* is below rest "
                                             "energy"):
        cutoff_momentum(0.5 * m * SPEED_OF_LIGHT ** 2, m)


def test_lattice_spacing_examples():
    a1 = lattice_spacing_from_cutoff(1.0e-9)
    np.testing.assert_allclose(a1, 6.62607015e-25, rtol=1e-12)
    assert 6e-25 < a1 < 7e-25
    # h itself as momentum gives 1 m
    np.testing.assert_allclose(lattice_spacing_from_cutoff(PLANCK_CONSTANT), 1.0, rtol=1e-15)
    with pytest.raises(DiscretumError):
        lattice_spacing_from_cutoff(0.0)


def test_bz_extent_examples():
    np.testing.assert_allclose(bz_extent(2 * math.pi), 1.0, rtol=1e-15)
    np.testing.assert_allclose(bz_extent(1.0e-25), 6.2831853072e25, rtol=1e-9)
    np.testing.assert_allclose(bz_extent(6.63e-25), 9.4769e24, rtol=1e-4)
    with pytest.raises(DiscretumError):
        bz_extent(-1.0)


def test_momentum_spacing_roundtrip():
    rng = np.random.default_rng(17)
    for p in rng.uniform(1e-12, 1e3, size=40):
        a = lattice_spacing_from_cutoff(p)
        np.testing.assert_allclose(
            bz_extent(a) * PLANCK_CONSTANT / (2 * math.pi), p, rtol=1e-12)


def test_cutoff_estimate_consistency():
    est = CutoffEstimate.from_energy(1.0e21 * ELECTRON_VOLT, PROTON_MASS)
    np.testing.assert_allclose(est.a_s * est.p_cut, PLANCK_CONSTANT, rtol=1e-12)
    np.testing.assert_allclose(est.a_s, 1.2398419843e-27, rtol=1e-9)
    est2 = CutoffEstimate.from_momentum(1.0e-9, PROTON_MASS)
    np.testing.assert_allclose(est2.a_s * est2.p_cut, PLANCK_CONSTANT, rtol=1e-12)
    # back-filled energy reproduces the momentum
    np.testing.assert_allclose(
        cutoff_momentum(est2.E_b, PROTON_MASS), 1.0e-9, rtol=1e-9)


def test_compare_cutoffs_headline_numbers_disagree():
    cmp = compare_cutoffs(1.0e21 * ELECTRON_VOLT, PROTON_MASS, 1.0e-9)
    assert not cmp.consistent
    # the two momentum scales differ by hundreds of times
    assert cmp.exact.p_cut / cmp.stated.p_cut > 100.0
    np.testing.assert_allclose(cmp.stated.a_s, 6.62607015e-25, rtol=1e-9)
    np.testing.assert_allclose(cmp.exact.bz_extent, 2 * math.pi / cmp.exact.a_s, rtol=1e-12)


def test_compare_cutoffs_agrees_on_matching_momentum():
    e_b = 1.0e21 * ELECTRON_VOLT
    p_exact = cutoff_momentum(e_b, PROTON_MASS)
    cmp = compare_cutoffs(e_b, PROTON_MASS, p_exact * 1.001)
    assert cmp.consistent
    cmp2 = compare_cutoffs(e_b, PROTON_MASS, p_exact * 1.02)
    assert not cmp2.consistent


def test_cutoff_formulas_on_si_inputs():
    """E_b = 5*c*X and m_p = 3*X/c give p = sqrt(25 - 9)*X = 4*X."""
    x, c = 1e-9, SPEED_OF_LIGHT
    np.testing.assert_allclose(cutoff_momentum(5 * c * x, 3 * x / c), 4 * x, rtol=1e-15)
    np.testing.assert_allclose(lattice_spacing_from_cutoff(4 * x),
                               PLANCK_CONSTANT / (4 * x), rtol=1e-15)


@pytest.mark.parametrize("kappa,m,a", [
    (1.0, 1.0, 1.0), (9.0, 4.0, 0.3), (2.5, 0.7, 3.1), (1e300, 1e-5, 2.0),
    (1e-300, 3.0, 1e-10),
])
def test_frequency_and_speed_equal_the_sqrt_formula(kappa, m, a):
    """Both are read off omega_max, and halving it is exact."""
    p = OscillatorParams(kappa=kappa, m=m, a=a)
    assert p.omega_max / 2 == math.sqrt(kappa / m)
    assert sound_speed(p) == a * math.sqrt(kappa / m)


def test_require_int():
    for value in (0, -3, 7, np.int64(4)):
        require_int("x", value)
    for value in (1.5, 2.0, True, None, "3", np.float64(2.0)):
        with pytest.raises(DiscretumError, match="^x must be an integer, got"):
            require_int("x", value)
    require_int("x", 2, minimum=2)
    with pytest.raises(DiscretumError) as info:
        require_int("x", 1, minimum=2)
    assert str(info.value) == "x must be >= 2, got 1"


@pytest.mark.parametrize("n_sites,message", [
    (8.5, "n_sites must be an integer, got 8.5"),
    (8.0, "n_sites must be an integer, got 8.0"),
    (True, "n_sites must be an integer, got True"),
    (1, "n_sites must be >= 2, got 1"),
], ids=["float", "integral-float", "bool", "one"])
def test_mode_grid_rejects_bad_site_count(n_sites, message):
    with pytest.raises(DiscretumError) as info:
        ModeGrid(n_sites, OscillatorParams(kappa=1.0, m=1.0, a=1.0))
    assert str(info.value) == message
