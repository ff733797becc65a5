import math

import numpy as np
import pytest

from discretum import (
    DEFAULT_TOL_FACTOR,
    DiscretumError,
    KmcTrace,
    ModeGrid,
    OscillatorParams,
    PhononPopulation,
    ScatteringEvent,
    biased_population,
    classify,
    enumerate_three_phonon,
    kmc_run,
)

UNIT = OscillatorParams(kappa=1.0, m=1.0, a=1.0)


def brute_force_events(grid, tol):
    """Oracle: literal triple loop over all label combinations."""
    labels = [int(n) for n in grid.labels if n != 0]
    found = set()
    for n1 in labels:
        for n2 in labels:
            if n2 < n1:
                continue
            for n3 in labels:
                if (n1 + n2 - n3) % grid.n_sites != 0:
                    continue
                g = (n1 + n2 - n3) // grid.n_sites
                res = abs(float(grid.omega(n1)) + float(grid.omega(n2))
                          - float(grid.omega(n3)))
                if res <= tol:
                    found.add((n1, n2, n3, g))
    return found


def test_grid_labels():
    np.testing.assert_array_equal(ModeGrid(4, UNIT).labels, [-1, 0, 1, 2])
    np.testing.assert_array_equal(ModeGrid(5, UNIT).labels, [-2, -1, 0, 1, 2])
    np.testing.assert_array_equal(ModeGrid(8, UNIT).labels,
                                  [-3, -2, -1, 0, 1, 2, 3, 4])
    with pytest.raises(DiscretumError):
        ModeGrid(1, UNIT)
    with pytest.raises(DiscretumError):
        ModeGrid(4, object())


def test_grid_frequencies():
    g = ModeGrid(8, UNIT)
    np.testing.assert_allclose(g.omega(4), 2.0, rtol=1e-15)
    np.testing.assert_allclose(g.omega(1), 2.0 * math.sin(math.pi / 8), rtol=1e-14)
    np.testing.assert_allclose(g.omega(-3), g.omega(3), rtol=0, atol=1e-15)
    assert g.omega(0) == 0.0
    assert g.params.omega_max == 2.0


def test_grid_wrap():
    g = ModeGrid(8, UNIT)
    assert g.wrap(5) == -3
    assert g.wrap(-5) == 3
    assert g.wrap(4) == 4
    assert g.wrap(-4) == 4
    assert g.wrap(8) == 0
    assert g.wrap(3) == 3


def test_event_validation_and_classify():
    ev = ScatteringEvent(1, 2, 3, 0, 0.1)
    assert classify(ev) == "normal"
    assert classify(ScatteringEvent(3, 3, -2, 1, 0.0)) == "umklapp"
    assert classify(ScatteringEvent(-3, -3, 2, -1, 0.0)) == "umklapp"
    with pytest.raises(DiscretumError):
        ScatteringEvent(1, 2, 3, 0, -0.5)


def test_enumerate_small_grids_empty():
    g = ModeGrid(4, UNIT)
    for tol_factor in (0.0, 0.1, 0.2):
        assert enumerate_three_phonon(g, tol_factor * g.params.omega_max) == []
    with pytest.raises(DiscretumError):
        enumerate_three_phonon(g, -1.0)


def test_enumerate_n8_frozen_event_table():
    g = ModeGrid(8, UNIT)
    events = enumerate_three_phonon(g, 0.2 * g.params.omega_max)
    got = [(e.n1, e.n2, e.n3, e.g) for e in events]
    assert got == [(-2, -1, -3, 0), (-1, -1, -2, 0), (1, 1, 2, 0), (1, 2, 3, 0)]
    s = [2.0 * math.sin(math.pi * k / 8) for k in range(4)]
    np.testing.assert_allclose(events[0].delta_omega, s[2] + s[1] - s[3], rtol=1e-12)
    np.testing.assert_allclose(events[1].delta_omega, 2 * s[1] - s[2], rtol=1e-12)
    np.testing.assert_allclose(events[1].delta_omega, 0.1165201670872642, rtol=1e-12)
    np.testing.assert_allclose(events[0].delta_omega, 0.33182136208070112, rtol=1e-12)
    assert all(classify(e) == "normal" for e in events)


def test_enumerate_umklapp_channel_arithmetic():
    """With a wide-open tolerance the (3, 3) channel flips over the zone edge."""
    g = ModeGrid(8, UNIT)
    events = enumerate_three_phonon(g, 10.0 * g.params.omega_max)
    table = {(e.n1, e.n2): e for e in events}
    e = table[(3, 3)]
    assert (e.n3, e.g) == (-2, 1)
    assert classify(e) == "umklapp"
    e2 = table[(-3, -3)]
    assert (e2.n3, e2.g) == (2, -1)
    # the zero mode never appears in any slot
    assert all(0 not in (e.n1, e.n2, e.n3) for e in events)
    # conservation identity holds for every channel
    assert all(e.n1 + e.n2 - e.n3 == e.g * g.n_sites for e in events)


@pytest.mark.parametrize("n_sites", [4, 5, 8, 16])
@pytest.mark.parametrize("tol_factor", [0.0, 0.1, 0.2])
def test_enumerate_matches_brute_force(n_sites, tol_factor):
    g = ModeGrid(n_sites, UNIT)
    tol = tol_factor * g.params.omega_max
    got = {(e.n1, e.n2, e.n3, e.g) for e in enumerate_three_phonon(g, tol)}
    assert got == brute_force_events(g, tol)


def test_enumerate_ordering_is_deterministic():
    g = ModeGrid(16, UNIT)
    events = enumerate_three_phonon(g, 0.3 * g.params.omega_max)
    keys = [(e.n1, e.n2) for e in events]
    assert keys == sorted(keys)
    assert events == enumerate_three_phonon(g, 0.3 * g.params.omega_max)


def test_population_construction():
    g = ModeGrid(8, UNIT)
    pop = PhononPopulation.from_counts(g, {1: 3, -2: 1, 4: 2})
    assert pop.occupation(1) == 3
    assert pop.occupation(-2) == 1
    assert pop.occupation(0) == 0
    assert pop.drift == 3 * 1 - 2 + 4 * 2
    np.testing.assert_allclose(
        pop.total_energy,
        3 * g.omega(1) + g.omega(-2) + 2 * g.omega(4), rtol=1e-12)


def test_population_validation():
    g = ModeGrid(8, UNIT)
    with pytest.raises(DiscretumError):
        PhononPopulation.from_counts(g, {5: 1})
    with pytest.raises(DiscretumError):
        PhononPopulation.from_counts(g, {-4: 1})
    with pytest.raises(DiscretumError):
        PhononPopulation(g, np.array([1, 2, 3]))
    with pytest.raises(DiscretumError):
        PhononPopulation(g, -np.ones(8, dtype=int))
    # counts are frozen
    pop = PhononPopulation.from_counts(g, {1: 1})
    with pytest.raises(ValueError):
        pop.counts[0] = 5


def test_empty_population():
    g = ModeGrid(8, UNIT)
    pop = PhononPopulation.from_counts(g, {})
    assert pop.drift == 0
    assert pop.total_energy == 0.0


def test_biased_population_round_robin():
    g = ModeGrid(8, UNIT)
    pop = biased_population(g, 10)
    # labels 1..4, dealt 10 phonons: 3, 3, 2, 2
    assert [pop.occupation(n) for n in (1, 2, 3, 4)] == [3, 3, 2, 2]
    assert all(pop.occupation(n) == 0 for n in (-3, -2, -1, 0))
    assert pop.drift == 3 + 6 + 6 + 8
    custom = biased_population(g, 5, labels=[2, 3])
    assert custom.occupation(2) == 3 and custom.occupation(3) == 2


def test_kmc_zero_events():
    g = ModeGrid(8, UNIT)
    events = enumerate_three_phonon(g, 0.2 * g.params.omega_max)
    pop = biased_population(g, 20)
    tr = kmc_run(g, pop, events, 0, seed=0)
    assert tr.n_applied == 0
    assert tr.status == "completed"
    assert tr.initial_drift == pop.drift
    np.testing.assert_array_equal(tr.final_counts, pop.counts)


def test_kmc_argument_validation():
    g = ModeGrid(8, UNIT)
    pop = biased_population(g, 10)
    with pytest.raises(DiscretumError):
        kmc_run(g, pop, [], 10, seed=0)
    with pytest.raises(DiscretumError):
        kmc_run(g, pop, [ScatteringEvent(3, 3, -2, 1, 0.0)], 10, seed=0,
                mode="normal_only")
    with pytest.raises(DiscretumError):
        kmc_run(g, pop, [ScatteringEvent(1, 1, 2, 0, 0.1)], 10, seed=0,
                mode="bogus")
    with pytest.raises(DiscretumError):
        kmc_run(g, pop, [ScatteringEvent(1, 1, 2, 0, 0.1)], -1, seed=0)


def test_kmc_no_applicable_event_terminates():
    g = ModeGrid(8, UNIT)
    events = enumerate_three_phonon(g, 0.2 * g.params.omega_max)  # touch only |n| <= 3
    pop = PhononPopulation.from_counts(g, {4: 5})
    tr = kmc_run(g, pop, events, 100, seed=1)
    assert tr.status == "no_applicable_event"
    assert tr.n_applied == 0
    np.testing.assert_array_equal(tr.final_counts, pop.counts)


def test_kmc_determinism():
    g = ModeGrid(16, UNIT)
    events = enumerate_three_phonon(g, 0.3 * g.params.omega_max)
    pop = biased_population(g, 40)
    a = kmc_run(g, pop, events, 500, seed=7)
    b = kmc_run(g, pop, events, 500, seed=7)
    np.testing.assert_array_equal(a.event_indices, b.event_indices)
    np.testing.assert_array_equal(a.directions, b.directions)
    np.testing.assert_array_equal(a.drifts, b.drifts)
    np.testing.assert_array_equal(a.energies, b.energies)
    c = kmc_run(g, pop, events, 500, seed=8)
    assert not np.array_equal(a.event_indices, c.event_indices)


def test_kmc_ledger_invariants():
    """Per-step bookkeeping: drift jumps by -direction*g*N, energy by at most
    the enumeration tolerance, phonon number by exactly -direction."""
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    g = ModeGrid(32, p)
    tol = 0.5 * g.params.omega_max
    events = enumerate_three_phonon(g, tol)
    assert any(e.g != 0 for e in events)
    pop = biased_population(g, 100)
    tr = kmc_run(g, pop, events, 2000, seed=3)
    assert isinstance(tr, KmcTrace)
    assert tr.n_applied == 2000

    prev_drift = tr.initial_drift
    prev_energy = tr.initial_energy
    for s in range(tr.n_applied):
        e = events[tr.event_indices[s]]
        d = tr.directions[s]
        assert tr.drifts[s] - prev_drift == -d * e.g * g.n_sites
        de = tr.energies[s] - prev_energy
        assert abs(de) <= tol + 1e-9
        np.testing.assert_allclose(abs(de), e.delta_omega, rtol=0, atol=1e-9)
        prev_drift = tr.drifts[s]
        prev_energy = tr.energies[s]

    final = PhononPopulation(g, tr.final_counts)
    assert final.drift == tr.drifts[-1]
    np.testing.assert_allclose(final.total_energy, tr.energies[-1], rtol=1e-9)
    assert int(np.sum(tr.final_counts)) == 100 - int(np.sum(tr.directions))


def test_kmc_normal_only_conserves_drift():
    g = ModeGrid(32, UNIT)
    events = enumerate_three_phonon(g, 0.5 * g.params.omega_max)
    pop = biased_population(g, 100)
    tr = kmc_run(g, pop, events, 2000, seed=5, mode="normal_only")
    assert tr.n_applied == 2000
    assert np.all(tr.drifts == tr.initial_drift)
    # umklapp runs from the same start do change the drift
    tr2 = kmc_run(g, pop, events, 2000, seed=5, mode="all")
    assert np.any(tr2.drifts != tr2.initial_drift)


def test_default_tol_factor_value():
    assert DEFAULT_TOL_FACTOR == 0.05
