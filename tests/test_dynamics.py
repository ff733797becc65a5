import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (accelerations, dft_kernel, dft_mode_weights,
                      zero_crossing_frequency)
from discretum import (
    ChainState,
    DiscretumError,
    InitSpec,
    ModeAmplitudes,
    ModeGrid,
    OscillatorParams,
    SimConfig,
    StabilityWarning,
    advance,
    chain_dispersion,
    init_plane_wave,
    mode_energies,
    mode_wave_number,
    random_state,
    run_sim,
    step,
    to_modes,
    total_energy,
)
from discretum.dynamics import (_FR_DRIFT, _FR_KICK, STABILITY_LIMIT,
                                _step_matrix)

UNIT = OscillatorParams(kappa=1.0, m=1.0, a=1.0)


def test_state_validation():
    with pytest.raises(DiscretumError):
        ChainState(UNIT, np.zeros(3), np.zeros(4))
    with pytest.raises(DiscretumError):
        ChainState(UNIT, np.zeros(1), np.zeros(1))
    with pytest.raises(DiscretumError):
        ChainState(UNIT, np.zeros((2, 2)), np.zeros((2, 2)))


def test_state_copy_is_independent():
    s = random_state(8, UNIT, seed=1)
    c = s.copy()
    step(c, 0.01)
    assert c.t != s.t
    assert not np.array_equal(c.u, s.u)


@pytest.mark.parametrize("n_sites,message", [
    (8.5, "n_sites must be an integer, got 8.5"),
    (True, "n_sites must be an integer, got True"),
    (1, "n_sites must be >= 2, got 1")], ids=["float", "bool", "one"])
def test_random_state_rejects_bad_site_counts(n_sites, message):
    with pytest.raises(DiscretumError) as info:
        random_state(n_sites, UNIT)
    assert str(info.value) == message


def test_mode_wave_number():
    np.testing.assert_allclose(mode_wave_number(8, 1.0, 4), math.pi, rtol=1e-15)
    np.testing.assert_allclose(mode_wave_number(16, 2.0, 1), math.pi / 16, rtol=1e-15)
    assert mode_wave_number(8, 1.0, 0) == 0.0


def test_init_plane_wave_layout():
    s = init_plane_wave(2, UNIT, 1, 1.0)
    np.testing.assert_allclose(s.u, [1.0, -1.0], rtol=1e-14)
    np.testing.assert_allclose(s.v, [0.0, 0.0], rtol=0, atol=1e-14)
    z = init_plane_wave(4, UNIT, 0, 0.5)
    np.testing.assert_array_equal(z.u, 0.5 * np.ones(4))
    np.testing.assert_array_equal(z.v, np.zeros(4))


def test_init_plane_wave_index_range():
    init_plane_wave(8, UNIT, 4, 1.0)
    init_plane_wave(8, UNIT, -3, 1.0)
    for bad in (5, -4, 9, 1.5, 2.0, True):
        with pytest.raises(DiscretumError):
            init_plane_wave(8, UNIT, bad, 1.0)


def test_accelerations_examples():
    s = ChainState(UNIT, np.array([1.0, -1.0]), np.zeros(2))
    np.testing.assert_allclose(accelerations(s), [-4.0, 4.0], rtol=1e-15)
    # uniform translation feels no force
    t = ChainState(UNIT, 0.7 * np.ones(6), np.zeros(6))
    np.testing.assert_array_equal(accelerations(t), np.zeros(6))


def test_accelerations_plane_wave_eigenvector():
    """A plane wave is an eigenvector of the coupling: a = -omega^2 u."""
    p = OscillatorParams(kappa=3.0, m=2.0, a=1.5)
    for n in (1, 3, 8):
        s = init_plane_wave(16, p, n, 0.8)
        k = mode_wave_number(16, p.a, n)
        w2 = chain_dispersion(p, k) ** 2
        np.testing.assert_allclose(accelerations(s), -w2 * s.u, rtol=0, atol=1e-12)


def test_step_requires_positive_dt():
    s = random_state(4, UNIT, seed=0)
    with pytest.raises(DiscretumError):
        step(s, 0.0)
    with pytest.raises(DiscretumError):
        step(s, -0.1)


def test_step_zero_state_stays_zero():
    s = ChainState(UNIT, np.zeros(8), np.zeros(8))
    step(s, 0.05)
    np.testing.assert_array_equal(s.u, np.zeros(8))
    np.testing.assert_array_equal(s.v, np.zeros(8))
    np.testing.assert_allclose(s.t, 0.05, rtol=1e-15)


def test_step_time_accumulates():
    s = random_state(4, UNIT, seed=3)
    for _ in range(5):
        step(s, 0.01)
    np.testing.assert_allclose(s.t, 0.05, rtol=1e-12)


def test_stability_warning_threshold():
    # omega_max = 2 for unit params
    for dt in (0.79, 1.0):  # dt*omega_max = 1.58, 2.0
        s = random_state(8, UNIT, seed=0)
        with pytest.warns(StabilityWarning):
            step(s, dt)
    for dt in (0.75, 0.5):  # dt*omega_max = 1.5, 1.0
        s = random_state(8, UNIT, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            step(s, dt)


@pytest.mark.parametrize("n_sites", [2, 3, 64, 4096])
@pytest.mark.parametrize("kappa,m,a", [(1.0, 1.0, 1.0), (2.3, 0.7, 1.3)])
def test_advance_matches_repeated_step(n_sites, kappa, m, a):
    p = OscillatorParams(kappa=kappa, m=m, a=a)
    dt = 0.02 / p.omega_max
    for n in (1, 7, 1000):
        fast = random_state(n_sites, p, seed=n)
        ref = fast.copy()
        advance(fast, dt, n)
        for _ in range(n):
            step(ref, dt)
        assert np.max(np.abs(fast.u - ref.u)) <= 1e-12 * np.max(np.abs(ref.u))
        assert np.max(np.abs(fast.v - ref.v)) <= 1e-12 * np.max(np.abs(ref.v))
        assert fast.t == ref.t
    s = random_state(n_sites, p, seed=0)
    for bad in (0.0, -dt):
        with pytest.raises(DiscretumError):
            advance(s, bad, 3)
    for bad in (-1, 2.5):
        with pytest.raises(DiscretumError):
            advance(s, dt, bad)
    with pytest.warns(StabilityWarning):
        advance(s, STABILITY_LIMIT / p.omega_max, 3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n_sites=st.integers(2, 48), kappa=st.floats(0.1, 10.0),
       m=st.floats(0.1, 10.0), a=st.floats(0.1, 10.0),
       dt_factor=st.floats(1e-3, 1.5), n=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1))
def test_advance_matches_repeated_step_property(n_sites, kappa, m, a,
                                                dt_factor, n, seed):
    """advance(n) and n calls of step agree to rounding for any stable dt
    (omega_max*dt below the warning bound): error grows at most linearly."""
    p = OscillatorParams(kappa=kappa, m=m, a=a)
    dt = dt_factor / p.omega_max
    fast = random_state(n_sites, p, seed=seed)
    ref = fast.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        advance(fast, dt, n)
        for _ in range(n):
            step(ref, dt)
    scale = max(np.max(np.abs(ref.u)), np.max(np.abs(ref.v)) / p.omega_max)
    tol = 1e-14 * (n + 1) * scale
    assert np.max(np.abs(fast.u - ref.u)) <= tol
    assert np.max(np.abs(fast.v - ref.v)) / p.omega_max <= tol
    assert fast.t == ref.t


def test_stability_limit_is_the_trace_bound():
    """|tr M(k)| < 2 on every oscillating bin just below the limit, > 2 above.

    Bin 0 (uniform translation, omega = 0) is a pure drift with trace
    exactly 2 at any dt, so the bound is taken over k != 0.
    """
    for p in (UNIT, OscillatorParams(kappa=2.3, m=0.7, a=1.3)):
        def max_trace(x):
            m = _step_matrix(64, p, x / p.omega_max)
            return np.max(np.abs(np.trace(m[1:], axis1=1, axis2=2)))
        assert max_trace(STABILITY_LIMIT) < 2.0
        assert max_trace(1.58) > 2.0


def test_large_stable_step_does_not_blow_up():
    """Steps just under the warning bound stay bounded for many periods."""
    s = init_plane_wave(8, UNIT, 4, 1.0)
    e0 = total_energy(s)
    for _ in range(2000):
        step(s, 0.70)  # dt*omega_max = 1.4
    assert total_energy(s) < 10.0 * e0


def test_total_energy_examples():
    assert total_energy(ChainState(UNIT, np.zeros(4), np.zeros(4))) == 0.0
    s = ChainState(UNIT, np.array([1.0, -1.0]), np.zeros(2))
    np.testing.assert_allclose(total_energy(s), 4.0, rtol=1e-15)
    # kinetic only
    k = ChainState(OscillatorParams(kappa=1.0, m=3.0, a=1.0),
                   np.zeros(4), 2.0 * np.ones(4))
    np.testing.assert_allclose(total_energy(k), 0.5 * 3.0 * 4 * 4.0, rtol=1e-15)


def test_plane_wave_energy_value():
    """Travelling wave carries E = N m U0^2 omega^2 / 2 exactly (any N >= 3 mode)."""
    p = OscillatorParams(kappa=2.0, m=1.5, a=1.0)
    n_sites, n, u0 = 12, 5, 0.3
    s = init_plane_wave(n_sites, p, n, u0)
    w = chain_dispersion(p, mode_wave_number(n_sites, p.a, n))
    np.testing.assert_allclose(
        total_energy(s), 0.5 * n_sites * p.m * u0**2 * w**2, rtol=1e-12)


def test_energy_conservation_random_state():
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    s = random_state(32, p, seed=11)
    e0 = total_energy(s)
    dt = 0.02 / s.params.omega_max
    worst = 0.0
    for i in range(10_000):
        step(s, dt)
        if i % 500 == 0:
            worst = max(worst, abs(total_energy(s) - e0) / e0)
    worst = max(worst, abs(total_energy(s) - e0) / e0)
    assert worst < 1e-6


def test_measured_frequency_and_mass_scaling():
    """Zero-crossing frequency of u_0 matches the dispersion law to 0.1%,
    and quadrupling the mass halves it."""
    n_sites, n = 16, 3
    measured = {}
    for m in (0.5, 2.0):
        p = OscillatorParams(kappa=2.0, m=m, a=1.0)
        w_pred = chain_dispersion(p, mode_wave_number(n_sites, p.a, n))
        s = init_plane_wave(n_sites, p, n, 1.0)
        dt = 5e-3 / w_pred
        trace = [s.u[0]]
        for _ in range(4500):
            step(s, dt)
            trace.append(s.u[0])
        w_meas = zero_crossing_frequency(trace, dt)
        np.testing.assert_allclose(w_meas, w_pred, rtol=1e-3)
        measured[m] = w_meas
    np.testing.assert_allclose(measured[0.5] / measured[2.0], 2.0, rtol=2e-3)


def test_mode_basis_labels_and_matrix():
    b = ModeGrid(8, UNIT)
    np.testing.assert_array_equal(b.dft_labels, [0, 1, 2, 3, 4, -3, -2, -1])
    b5 = ModeGrid(5, UNIT)
    np.testing.assert_array_equal(b5.dft_labels, [0, 1, 2, -2, -1])
    k = dft_kernel(8)
    np.testing.assert_allclose(k @ k.conj().T, np.eye(8), rtol=0, atol=1e-12)
    with pytest.raises(DiscretumError):
        ModeGrid(1, UNIT)


def test_to_modes_matches_explicit_dft():
    """FFT path against a literal O(N^2) transform written independently."""
    p = OscillatorParams(kappa=1.0, m=2.5, a=1.0)
    s = random_state(16, p, seed=21)
    amps = to_modes(s)
    sm = math.sqrt(p.m)
    np.testing.assert_allclose(amps.q, sm * dft_mode_weights(s.u), rtol=0, atol=1e-12)
    np.testing.assert_allclose(amps.p, sm * dft_mode_weights(s.v), rtol=0, atol=1e-12)


def test_to_modes_roundtrip_and_mismatch():
    s = random_state(12, UNIT, seed=4)
    amps = to_modes(s)
    u_back = np.fft.ifft(amps.q, norm="ortho") / math.sqrt(UNIT.m)
    np.testing.assert_allclose(u_back.real, s.u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u_back.imag, np.zeros(12), rtol=0, atol=1e-12)


def test_uniform_translation_is_pure_zero_mode():
    s = ChainState(UNIT, 3.0 * np.ones(8), np.zeros(8))
    amps = to_modes(s)
    np.testing.assert_allclose(amps.q[0], 3.0 * math.sqrt(8), rtol=1e-14)
    assert np.max(np.abs(amps.q[1:])) < 1e-12
    # and it carries no energy
    assert np.max(mode_energies(amps)) < 1e-24
    assert total_energy(s) == 0.0


def test_reality_defect():
    s = random_state(10, UNIT, seed=5)
    amps = to_modes(s)
    assert amps.reality_defect() < 1e-12
    broken = ModeAmplitudes(labels=amps.labels,
                            q=amps.q + 1j * np.eye(10)[1],
                            p=amps.p, omega=amps.omega)
    assert broken.reality_defect() > 0.5


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kappa,m,a", [(1.0, 1.0, 1.0), (3.7, 0.4, 1.0), (0.2, 5.0, 2.0)])
def test_parseval_mode_energy_sum(seed, kappa, m, a):
    p = OscillatorParams(kappa=kappa, m=m, a=a)
    s = random_state(24, p, seed=seed)
    amps = to_modes(s)
    np.testing.assert_allclose(
        float(np.sum(mode_energies(amps))), total_energy(s), rtol=1e-9)


def test_parseval_holds_along_a_trajectory():
    p = OscillatorParams(kappa=2.0, m=0.7, a=1.0)
    s = random_state(16, p, seed=9)
    dt = 0.02 / s.params.omega_max
    for _ in range(50):
        for _ in range(20):
            step(s, dt)
        amps = to_modes(s)
        np.testing.assert_allclose(
            float(np.sum(mode_energies(amps))), total_energy(s), rtol=1e-9)
        assert amps.reality_defect() < 1e-10


def test_plane_wave_mode_energy_concentration():
    n_sites, n = 32, 5
    s = init_plane_wave(n_sites, UNIT, n, 1.0)
    dt = 0.02 / s.params.omega_max
    for _ in range(10_000):
        step(s, dt)
    e = mode_energies(to_modes(s))
    total = float(np.sum(e))
    inside = float(e[n] + e[(-n) % n_sites])
    assert inside / total >= 1.0 - 1e-10


def test_init_spec_and_config_validation():
    with pytest.raises(DiscretumError):
        InitSpec.from_dict({"type": "bogus"})
    with pytest.raises(DiscretumError):
        InitSpec.from_dict({"mode_index": 1})
    with pytest.raises(DiscretumError):
        InitSpec.from_dict({"type": "random", "sneed": 3})
    with pytest.raises(DiscretumError):
        SimConfig.from_dict({"n_sites": 8, "steps": 10})
    with pytest.raises(DiscretumError):
        SimConfig.from_dict({"n_sites": 8, "steps": 10, "init": "plane_wave"})
    with pytest.raises(DiscretumError):
        SimConfig.from_dict({"n_sites": 8, "steps": 10,
                             "init": {"type": "random"}, "extra": 1})
    with pytest.raises(DiscretumError):
        SimConfig(n_sites=8, steps=-1, init=InitSpec(type="random"))
    with pytest.raises(DiscretumError):
        SimConfig(n_sites=8, steps=1, init=InitSpec(type="random"), stride=0)


@pytest.mark.parametrize("chain", [
    {"kappa": -1.0}, {"m": 0.0}, {"a": -2.0}, {"kappa": 1e-300, "m": 1e300},
    {"kappa": 1e308, "m": 1e-10},
], ids=["kappa", "m", "a", "omega-underflow", "omega-overflow"])
def test_config_rejects_bad_chain_at_construction(chain):
    with pytest.raises(DiscretumError):
        SimConfig(n_sites=8, steps=1, init=InitSpec(type="random"), **chain)


def test_config_dt_default():
    cfg = SimConfig(n_sites=8, steps=1, init=InitSpec(type="random"))
    np.testing.assert_allclose(cfg.dt_effective, 0.01, rtol=1e-15)
    cfg2 = SimConfig(n_sites=8, steps=1, init=InitSpec(type="random"),
                     kappa=4.0, dt=0.123)
    assert cfg2.dt_effective == 0.123


def test_run_sim_sampling_rows():
    cfg = SimConfig(n_sites=4, steps=10, init=InitSpec(type="random", seed=2),
                    stride=3)
    res = run_sim(cfg)
    dt = cfg.dt_effective
    np.testing.assert_allclose(res.times, np.array([0, 3, 6, 9, 10]) * dt, rtol=1e-12)
    assert res.mode_energies.shape == (5, 4)
    assert res.total_energy.shape == (5,)
    # zero steps: a single initial row
    res0 = run_sim(SimConfig(n_sites=4, steps=0, init=InitSpec(type="random")))
    assert res0.times.shape == (1,)
    assert res0.times[0] == 0.0


def test_run_sim_plane_wave_end_to_end():
    cfg = SimConfig(n_sites=16, steps=2000, init=InitSpec(
        type="plane_wave", mode_index=3, amplitude=0.5), kappa=2.0, stride=100)
    res = run_sim(cfg)
    e0 = res.total_energy[0]
    assert np.max(np.abs(res.total_energy - e0)) / e0 < 1e-8
    off = res.mode_energies.sum(axis=1) - res.mode_energies[:, 3] - res.mode_energies[:, 13]
    assert np.max(off / res.total_energy) < 1e-10


def test_run_sim_raises_at_first_non_finite_row():
    unstable = SimConfig(n_sites=8, steps=1000, dt=1.0,
                         init=InitSpec("random", seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # StabilityWarning, numpy overflow
        with pytest.raises(DiscretumError,
                           match=r"row at t = 177\.0 is not finite"):
            run_sim(unstable)
    # the initial row already overflows: raised before any step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DiscretumError, match=r"row at t = 0\.0 "):
            run_sim(SimConfig(n_sites=8, steps=10, kappa=1e308,
                              init=InitSpec("random", seed=1)))


def test_run_sim_deterministic():
    cfg = SimConfig(n_sites=8, steps=50, init=InitSpec(type="random", seed=42))
    a = run_sim(cfg)
    b = run_sim(cfg)
    np.testing.assert_array_equal(a.mode_energies, b.mode_energies)
    np.testing.assert_array_equal(a.total_energy, b.total_energy)


def test_step_matches_index_array_neighbours_bitwise():
    """np.roll neighbours give the same values in the same operation order
    as gathering with explicit periodic index arrays."""
    s = random_state(16, UNIT, seed=3)
    u, v = s.u.copy(), s.v.copy()
    ip1, im1 = np.arange(1, 17) % 16, np.arange(-1, 15) % 16
    np.testing.assert_array_equal(accelerations(s),
                                  u.take(ip1) - 2.0 * u + u.take(im1))
    dt = 0.05
    for _ in range(500):
        step(s, dt)
        for i in range(3):
            u += v * (_FR_DRIFT[i] * dt)
            v += (u.take(ip1) + u.take(im1) - u - u) * (_FR_KICK[i] * dt)
        u += v * (_FR_DRIFT[3] * dt)
    np.testing.assert_array_equal(s.u, u)
    np.testing.assert_array_equal(s.v, v)
    stretch = u.take(ip1) - u
    assert total_energy(s) == float(0.5 * np.dot(v, v)
                                    + 0.5 * np.dot(stretch, stretch))


def test_mode_amplitudes_copy_the_caller_arrays():
    q = np.ones(4, dtype=complex)
    amps = ModeAmplitudes(labels=np.arange(4), q=q, p=q, omega=np.ones(4))
    assert q.flags.writeable and not amps.q.flags.writeable
    q[0] = 5.0
    assert amps.q[0] == amps.p[0] == 1.0


@pytest.mark.parametrize("make,message", [
    (lambda: InitSpec.from_dict({"mode_index": 1}), "init needs 'type'"),
    (lambda: InitSpec.from_dict({"type": "random", "sneed": 3, "b": 1}),
     "unknown init key(s): b, sneed"),
    (lambda: SimConfig.from_dict({"n_sites": 8, "init": {"type": "random"}}),
     "config needs 'steps'"),
    (lambda: SimConfig.from_dict({"steps": 8, "x": 1, "init": {}}),
     "unknown config key(s): x"),
    (lambda: SimConfig.from_dict({"n_sites": 8, "steps": 1, "init": {}}),
     "init needs 'type'"),
], ids=["init-missing", "init-unknown", "config-missing", "config-unknown",
        "nested-init-missing"])
def test_config_keys_are_the_dataclass_fields(make, message):
    with pytest.raises(DiscretumError) as info:
        make()
    assert str(info.value) == message
