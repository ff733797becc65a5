import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discretum import (
    DEFAULT_TOL_FACTOR,
    ChannelTable,
    DiscretumError,
    KmcTrace,
    ModeGrid,
    OscillatorParams,
    PhononPopulation,
    biased_population,
    enumerate_three_phonon,
    kmc_run,
    scattering,
)

COLUMNS = ("n1", "n2", "n3", "g", "delta_omega")

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


def reference_enumerate(grid, tol_omega):
    """Oracle: the scalar double loop over n1 <= n2, one omega call a label."""
    labels = [int(n) for n in grid.labels if n != 0]
    omega = {n: float(grid.omega(n)) for n in labels}
    columns = ([], [], [], [], [])
    for i, n1 in enumerate(labels):
        for n2 in labels[i:]:
            n3 = (n1 + n2) % grid.n_sites
            if n3 > grid.n_sites // 2:
                n3 -= grid.n_sites
            if n3 == 0:
                continue
            g = (n1 + n2 - n3) // grid.n_sites
            residual = abs(omega[n1] + omega[n2] - omega[n3])
            if residual <= tol_omega:
                for column, value in zip(columns, (n1, n2, n3, g, residual)):
                    column.append(value)
    return ChannelTable(*columns)


def channel_rows(table):
    """The table as a list of (n1, n2, n3, g, delta_omega) tuples."""
    return list(zip(*(getattr(table, c).tolist() for c in COLUMNS)))


def assert_tables_identical(got, ref):
    assert isinstance(got, ChannelTable)
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def reference_kmc_run(initial, table, n_events, seed, mode="all"):
    """Oracle: rescan every (channel, direction) pair before every event."""
    grid = initial.grid
    rows = channel_rows(table)
    keep = np.array([i for i, r in enumerate(rows)
                     if mode == "all" or r[3] == 0], dtype=np.int64)
    rows = [rows[i] for i in keep]
    base = int(grid.labels[0])
    i1 = np.array([r[0] - base for r in rows])
    i2 = np.array([r[1] - base for r in rows])
    i3 = np.array([r[2] - base for r in rows])
    gs = np.array([r[3] for r in rows])
    d_omega = np.array([float(grid.omega(n3)) - float(grid.omega(n1))
                        - float(grid.omega(n2)) for n1, n2, n3, _, _ in rows])
    same = i1 == i2
    n_ev = len(rows)
    counts = initial.counts.copy()
    drift = initial.drift
    energy = initial.total_energy
    ev_rec, dir_rec, drift_rec, energy_rec = [], [], [], []
    rng = np.random.default_rng(seed)
    status = "completed"
    for _ in range(n_events):
        o1 = counts[i1]
        o2 = counts[i2]
        merge_ok = np.where(same, o1 >= 2, (o1 >= 1) & (o2 >= 1))
        split_ok = counts[i3] >= 1
        cand = np.flatnonzero(np.concatenate([merge_ok, split_ok]))
        if cand.size == 0:
            status = "no_applicable_event"
            break
        pick = int(cand[rng.integers(cand.size)])
        if pick < n_ev:
            e = pick
            counts[i1[e]] -= 1
            counts[i2[e]] -= 1
            counts[i3[e]] += 1
            drift -= int(gs[e]) * grid.n_sites
            energy += d_omega[e]
            dir_rec.append(1)
        else:
            e = pick - n_ev
            counts[i3[e]] -= 1
            counts[i1[e]] += 1
            counts[i2[e]] += 1
            drift += int(gs[e]) * grid.n_sites
            energy -= d_omega[e]
            dir_rec.append(-1)
        ev_rec.append(e)
        drift_rec.append(drift)
        energy_rec.append(energy)
    return KmcTrace(event_indices=keep[np.array(ev_rec, dtype=np.int64)],
                    directions=np.array(dir_rec, dtype=np.int64),
                    drifts=np.array(drift_rec, dtype=np.int64),
                    energies=np.array(energy_rec, dtype=np.float64),
                    status=status,
                    initial_drift=initial.drift,
                    initial_energy=initial.total_energy,
                    final_counts=counts)


def assert_traces_identical(got, ref):
    for name in ("event_indices", "directions", "drifts", "energies",
                 "final_counts"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.status == ref.status
    assert got.initial_drift == ref.initial_drift
    assert got.initial_energy == ref.initial_energy


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
    sums = np.array([5, -5, 4, -4, 8, 3])
    np.testing.assert_array_equal(g.wrap(sums), [-3, 3, 4, 4, 0, 3])
    odd = ModeGrid(7, UNIT)
    np.testing.assert_array_equal(
        odd.wrap(np.arange(-7, 8)),
        [0, 1, 2, 3, -3, -2, -1, 0, 1, 2, 3, -3, -2, -1, 0])
    assert all(type(odd.wrap(n)) is int for n in range(-7, 8))


def test_channel_table_validation_and_kind():
    table = ChannelTable([1, 3, -3], [2, 3, -3], [3, -2, 2], [0, 1, -1],
                         [0.1, 0.0, 0.0])
    assert len(table) == 3
    assert [c.dtype for c in (table.n1, table.n2, table.n3, table.g)] == \
        [np.int64] * 4
    assert table.delta_omega.dtype == np.float64
    # the processes kind column: g != 0 is umklapp
    np.testing.assert_array_equal(table.g != 0, [False, True, True])
    with pytest.raises(ValueError):
        table.g[0] = 1  # columns are read-only
    assert len(ChannelTable([], [], [], [], [])) == 0
    with pytest.raises(DiscretumError):
        ChannelTable([1], [2], [3], [0], [-0.5])
    with pytest.raises(DiscretumError):
        ChannelTable([1, 1], [2], [3], [0], [0.1])  # unequal lengths
    with pytest.raises(DiscretumError):
        ChannelTable([[1]], [[2]], [[3]], [[0]], [[0.1]])  # not 1-D


@pytest.mark.parametrize("column", ["n1", "n2", "n3", "g"])
@pytest.mark.parametrize("values", [[1.5], [2.0], [True]],
                         ids=["fraction", "integral-float", "bool"])
def test_channel_table_rejects_non_integer_columns(column, values):
    """Truncating would turn ChannelTable([1.5], [1], [2.7], [0], [0.1])
    into the valid but different channel 1 + 1 -> 2, so a non-integer
    column is rejected; an empty column of any dtype still passes."""
    row = {"n1": [1], "n2": [1], "n3": [2], "g": [0], "delta_omega": [0.1]}
    row[column] = values
    with pytest.raises(DiscretumError) as info:
        ChannelTable(**row)
    assert str(info.value) == "%s must hold integers, got %s" % (
        column, np.array(values).dtype)
    table = ChannelTable(*(np.array(v, dtype) for v, dtype in zip(
        ([1], [1], [2], [0], [1]), (np.int32, np.uint8, np.int16, np.int8,
                                    np.int64))))
    assert [getattr(table, c).dtype for c in COLUMNS] == \
        [np.int64] * 4 + [np.float64]
    assert len(ChannelTable(*[np.array([])] * 5)) == 0


def test_channel_table_copies_its_input():
    n1 = np.array([1])
    table = ChannelTable(n1, [2], [3], [0], [0.1])
    n1[0] = 7
    assert table.n1.tolist() == [1] and n1.flags.writeable


def test_enumerate_small_grids_empty():
    g = ModeGrid(4, UNIT)
    empty = ChannelTable([], [], [], [], [])
    for tol_factor in (0.0, 0.1, 0.2):
        assert_tables_identical(
            enumerate_three_phonon(g, tol_factor * g.params.omega_max), empty)
    with pytest.raises(DiscretumError):
        enumerate_three_phonon(g, -1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-300])
def test_enumerate_rejects_bad_tolerance(tol):
    with pytest.raises(DiscretumError, match="tol"):
        enumerate_three_phonon(ModeGrid(8, UNIT), tol)


def test_enumerate_n8_frozen_event_table():
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 0.2 * g.params.omega_max)
    np.testing.assert_array_equal(table.n1, [-2, -1, 1, 1])
    np.testing.assert_array_equal(table.n2, [-1, -1, 1, 2])
    np.testing.assert_array_equal(table.n3, [-3, -2, 2, 3])
    np.testing.assert_array_equal(table.g, [0, 0, 0, 0])
    s = [2.0 * math.sin(math.pi * k / 8) for k in range(4)]
    np.testing.assert_allclose(table.delta_omega[0], s[2] + s[1] - s[3], rtol=1e-12)
    np.testing.assert_allclose(table.delta_omega[1], 2 * s[1] - s[2], rtol=1e-12)
    np.testing.assert_allclose(table.delta_omega[1], 0.1165201670872642, rtol=1e-12)
    np.testing.assert_allclose(table.delta_omega[0], 0.33182136208070112, rtol=1e-12)
    assert not (table.g != 0).any()


def test_enumerate_umklapp_channel_arithmetic():
    """With a wide-open tolerance the (3, 3) channel flips over the zone edge."""
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 10.0 * g.params.omega_max)
    by_pair = {(r[0], r[1]): r for r in channel_rows(table)}
    assert by_pair[(3, 3)][2:4] == (-2, 1)
    assert by_pair[(-3, -3)][2:4] == (2, -1)
    # the zero mode never appears in any slot
    assert not ((table.n1 == 0) | (table.n2 == 0) | (table.n3 == 0)).any()
    # conservation identity holds for every channel
    np.testing.assert_array_equal(table.n1 + table.n2 - table.n3,
                                  table.g * g.n_sites)


@pytest.mark.parametrize("n_sites", [4, 5, 8, 16])
@pytest.mark.parametrize("tol_factor", [0.0, 0.1, 0.2])
def test_enumerate_matches_brute_force(n_sites, tol_factor):
    g = ModeGrid(n_sites, UNIT)
    tol = tol_factor * g.params.omega_max
    got = {r[:4] for r in channel_rows(enumerate_three_phonon(g, tol))}
    assert got == brute_force_events(g, tol)


@pytest.mark.parametrize("n_sites", [2, 3, 5, 16, 17, 255, 256])
@pytest.mark.parametrize("params", [UNIT, OscillatorParams(2.3, 0.7, 1.3)],
                         ids=["unit", "scaled"])
def test_enumerate_matches_reference_loop(n_sites, params, monkeypatch):
    """Same channels, same order, bit-equal residuals; residuals never exceed
    2*omega_max, so the largest tolerance admits every channel.  The N rows
    are enumerated in blocks of B rows with the module's budget and with
    budgets that make N equal to B - 1, B, B + 1 and 2B + 1 (2B + 2 for
    even N)."""
    g = ModeGrid(n_sites, params)
    budgets = [scattering.ENUM_BLOCK_FLOATS] + [
        block_rows * n_sites for block_rows in
        (n_sites + 1, n_sites, n_sites - 1, (n_sites - 1) // 2)]
    for tol_factor in (0.0, 0.05, 0.3, 1.0, 2.5):
        tol = tol_factor * g.params.omega_max
        ref = reference_enumerate(g, tol)
        for budget in budgets:
            monkeypatch.setattr(scattering, "ENUM_BLOCK_FLOATS", budget)
            assert_tables_identical(enumerate_three_phonon(g, tol), ref)


def test_enumerate_ordering_is_deterministic():
    g = ModeGrid(16, UNIT)
    table = enumerate_three_phonon(g, 0.3 * g.params.omega_max)
    keys = list(zip(table.n1.tolist(), table.n2.tolist()))
    assert keys == sorted(keys)
    assert_tables_identical(
        table, enumerate_three_phonon(g, 0.3 * g.params.omega_max))


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
    # the total and the sum of count*|label| must fit int64, exactly
    int64_max = 2**63 - 1
    with pytest.raises(DiscretumError, match="^phonon total must be <= "):
        PhononPopulation.from_counts(g, {0: 2**62, 1: 2**62})
    with pytest.raises(DiscretumError, match=r"^sum of count\*\|label\| must"):
        PhononPopulation.from_counts(g, {4: int64_max // 4 + 1})
    assert PhononPopulation.from_counts(g, {4: int64_max // 4}).drift == (
        int64_max // 4 * 4)
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
    assert biased_population(g, 0).counts.sum() == 0
    with pytest.raises(DiscretumError):
        biased_population(g, -5)


def dealt_one_at_a_time(total, labels):
    """Oracle: deal phonons one by one round-robin over `labels`."""
    counts = {}
    for i in range(total):
        n = labels[i % len(labels)]
        counts[n] = counts.get(n, 0) + 1
    return counts


@pytest.mark.parametrize("total,labels", [
    (0, [1]), (1, [1, 2, 3]), (10, [1, 2, 3, 4]), (7, [1, 2]),
    (11, [1, 2, 3, 4, 5]), (5, [1]), (1000, [1, 2, 3]),
    (12345, [1, 2, 3, 4, 5, 6, 7]), (9, [1, 2, 3, 4])])
def test_biased_population_closed_form_equals_loop(total, labels):
    """`labels` are the positive labels 1..K of the grids with N = 2K and
    N = 2K + 1 sites; both deal `total` over them one phonon at a time."""
    for n_sites in (2 * len(labels), 2 * len(labels) + 1):
        g = ModeGrid(n_sites, UNIT)
        expected = PhononPopulation.from_counts(
            g, dealt_one_at_a_time(total, labels))
        np.testing.assert_array_equal(biased_population(g, total).counts,
                                      expected.counts)


def test_kmc_zero_events():
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 0.2 * g.params.omega_max)
    pop = biased_population(g, 20)
    tr = kmc_run(pop, table, 0, seed=0)
    assert tr.n_applied == 0
    assert tr.status == "completed"
    assert tr.initial_drift == pop.drift
    np.testing.assert_array_equal(tr.final_counts, pop.counts)


def test_kmc_argument_validation():
    g = ModeGrid(8, UNIT)
    pop = biased_population(g, 10)
    with pytest.raises(DiscretumError):
        kmc_run(pop, ChannelTable([], [], [], [], []), 10, seed=0)
    with pytest.raises(DiscretumError):
        kmc_run(pop, ChannelTable([3], [3], [-2], [1], [0.0]), 10, seed=0,
                mode="normal")
    with pytest.raises(DiscretumError):
        kmc_run(pop, ChannelTable([1], [1], [2], [0], [0.1]), 10, seed=0,
                mode="bogus")
    with pytest.raises(DiscretumError):
        kmc_run(pop, ChannelTable([1], [1], [2], [0], [0.1]), -1, seed=0)


def test_kmc_rejects_a_budget_that_can_overflow_the_drift():
    """Each event moves the drift by at most N, so |drift| + events*N must
    fit int64; a budget at that bound is accepted.  The drift sits 803
    below the int64 maximum, on a label no channel touches."""
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 0.2 * g.params.omega_max)
    pop = PhononPopulation.from_counts(g, {4: (2**63 - 1) // 4 - 200})
    limit = (2**63 - 1 - pop.drift) // 8
    assert limit == 100
    trace = kmc_run(pop, table, limit, seed=0)
    assert trace.status == "no_applicable_event"
    with pytest.raises(DiscretumError) as info:
        kmc_run(pop, table, limit + 1, seed=0)
    assert str(info.value) == ("|drift| + events*N must be <= %d, got %d"
                               % (2**63 - 1, pop.drift + 8 * (limit + 1)))


def test_kmc_no_applicable_event_terminates():
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 0.2 * g.params.omega_max)  # touch only |n| <= 3
    pop = PhononPopulation.from_counts(g, {4: 5})
    tr = kmc_run(pop, table, 100, seed=1)
    assert tr.status == "no_applicable_event"
    assert tr.n_applied == 0
    np.testing.assert_array_equal(tr.final_counts, pop.counts)


def test_kmc_determinism():
    g = ModeGrid(16, UNIT)
    table = enumerate_three_phonon(g, 0.3 * g.params.omega_max)
    pop = biased_population(g, 40)
    a = kmc_run(pop, table, 500, seed=7)
    b = kmc_run(pop, table, 500, seed=7)
    np.testing.assert_array_equal(a.event_indices, b.event_indices)
    np.testing.assert_array_equal(a.directions, b.directions)
    np.testing.assert_array_equal(a.drifts, b.drifts)
    np.testing.assert_array_equal(a.energies, b.energies)
    c = kmc_run(pop, table, 500, seed=8)
    assert not np.array_equal(a.event_indices, c.event_indices)


def test_kmc_ledger_invariants():
    """Per-step bookkeeping: drift jumps by -direction*g*N, energy by at most
    the enumeration tolerance, phonon number by exactly -direction."""
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    g = ModeGrid(32, p)
    tol = 0.5 * g.params.omega_max
    table = enumerate_three_phonon(g, tol)
    assert (table.g != 0).any()
    pop = biased_population(g, 100)
    tr = kmc_run(pop, table, 2000, seed=3)
    assert isinstance(tr, KmcTrace)
    assert tr.n_applied == 2000

    prev_drift = tr.initial_drift
    prev_energy = tr.initial_energy
    for s in range(tr.n_applied):
        e = tr.event_indices[s]
        d = tr.directions[s]
        assert tr.drifts[s] - prev_drift == -d * table.g[e] * g.n_sites
        de = tr.energies[s] - prev_energy
        assert abs(de) <= tol + 1e-9
        np.testing.assert_allclose(abs(de), table.delta_omega[e], rtol=0,
                                   atol=1e-9)
        prev_drift = tr.drifts[s]
        prev_energy = tr.energies[s]

    final = PhononPopulation(g, tr.final_counts)
    assert final.drift == tr.drifts[-1]
    np.testing.assert_allclose(final.total_energy, tr.energies[-1], rtol=1e-9)
    assert int(np.sum(tr.final_counts)) == 100 - int(np.sum(tr.directions))


# (n_sites, tol_factor, dense phonon count); each grid has n1 == n2 channels
# and umklapp channels, so both modes and the doubled-count rule are covered.
# N=512 with 300 phonons is a sparse gas: most modes hold 0 or 1 phonons, so
# applicability flags flip on most events.
KMC_SHAPES = [(8, 10.0, 60), (16, 0.3, 200), (64, 0.4, 600),
              (256, 0.05, 2000), (512, 0.05, 300)]


@pytest.mark.parametrize("mode", ["all", "normal"])
@pytest.mark.parametrize("n_sites,tol_factor,dense", KMC_SHAPES)
def test_kmc_matches_full_rescan(n_sites, tol_factor, dense, mode):
    """The cached candidate set draws the same pairs as a rescan per event."""
    g = ModeGrid(n_sites, UNIT)
    table = enumerate_three_phonon(g, tol_factor * g.params.omega_max)
    assert (table.n1 == table.n2).any()
    assert (table.g != 0).any()
    # (gas, events, seeds); the empty gas, last, stops before its first event.
    gases = [(biased_population(g, dense), 1000, range(6)),
             (biased_population(g, n_sites // 2), 300, range(6)),
             (biased_population(g, 3), 100, range(3)),
             (PhononPopulation.from_counts(g, {1: 1}), 10, range(1)),
             (biased_population(g, 0), 10, range(1))]
    for pop, n_events, seeds in gases:
        for seed in seeds:
            ref = reference_kmc_run(pop, table, n_events, seed, mode)
            assert_traces_identical(
                kmc_run(pop, table, n_events, seed, mode), ref)
    assert ref.status == "no_applicable_event"


@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data(),
       n_sites=st.sampled_from([8, 16, 64]),
       tol_factor=st.sampled_from([0.1, 0.3, 1.0, 2.5]),
       n_events=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["all", "normal"]))
def test_kmc_matches_full_rescan_on_small_gases(data, n_sites, tol_factor,
                                                n_events, seed, mode):
    """Gases of 0 to 3 phonons a mode, where most events flip some flag: the
    incremental flags draw the same pairs as a rescan before every event."""
    g = ModeGrid(n_sites, UNIT)
    table = enumerate_three_phonon(g, tol_factor * g.params.omega_max)
    assume(len(table) > 0 if mode == "all" else (table.g == 0).any())
    counts = data.draw(st.lists(st.integers(0, 3), min_size=n_sites,
                                max_size=n_sites))
    pop = PhononPopulation(g, counts)
    assert_traces_identical(kmc_run(pop, table, n_events, seed, mode),
                            reference_kmc_run(pop, table, n_events, seed, mode))


DRAW_BOUNDS = [1, 2, 3, 7100, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", range(30))
def test_draw_helper_equals_generator_integers(seed):
    """The raw-word draws equal Generator.integers call for call.  2**31 + 1
    rejects about half of all words; 700 draws from a first block of 33
    outputs cross a block refill."""
    rng = np.random.default_rng(seed)
    draw = scattering._integers(seed, 50)
    bounds = np.random.default_rng([seed, 1]).choice(DRAW_BOUNDS, 700)
    for n in bounds.tolist():
        assert draw(n) == rng.integers(n), n
    for n in (0, -1, 2**32 + 1):
        with pytest.raises(ValueError):
            draw(n)


def test_kmc_matches_full_rescan_past_one_word_block():
    """10 000 events at N=8 read more words than the first block holds."""
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 10.0 * g.params.omega_max)
    pop = biased_population(g, 60)
    assert 2 * scattering.WORD_BLOCK < 10_000
    for mode in ("all", "normal"):
        ref = reference_kmc_run(pop, table, 10_000, 11, mode)
        assert ref.n_applied == 10_000
        assert_traces_identical(kmc_run(pop, table, 10_000, 11, mode), ref)


def test_kmc_twin_merge_flag_follows_its_mode_across_two():
    """A split n3 -> (m, m) takes mode m from 0 to 2 phonons and the merge
    (m, m) -> n3 takes it back: the twin flag turns on and off with it."""
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 10.0 * g.params.omega_max)
    pop = PhononPopulation.from_counts(g, {4: 1})
    base = int(g.labels[0])
    rows = channel_rows(table)
    up = down = 0
    for seed in range(8):
        tr = kmc_run(pop, table, 200, seed)
        assert_traces_identical(tr, reference_kmc_run(pop, table, 200, seed))
        counts = pop.counts.copy()
        for e, d in zip(tr.event_indices.tolist(), tr.directions.tolist()):
            n1, n2, n3 = rows[e][:3]
            before = counts[n1 - base]
            for n, step in ((n1, -d), (n2, -d), (n3, d)):
                counts[n - base] += step
            if n1 == n2:
                up += before == 0 and counts[n1 - base] == 2
                down += before == 2 and counts[n1 - base] == 0
    assert up > 0 and down > 0


def test_kmc_repeated_twin_rows_each_keep_a_flag():
    """A table may list the merge (m, m) -> n3 more than once; every copy is
    applicable exactly when m holds two phonons."""
    g = ModeGrid(8, UNIT)
    table = ChannelTable([1, 1, 1, 2], [1, 1, 2, 2], [2, 2, 3, 4],
                         [0, 0, 0, 0], [0.0] * 4)
    pop = PhononPopulation.from_counts(g, {2: 1, 3: 1})
    for seed in range(6):
        assert_traces_identical(kmc_run(pop, table, 300, seed),
                                reference_kmc_run(pop, table, 300, seed))


def test_kmc_normal_only_conserves_drift():
    g = ModeGrid(32, UNIT)
    table = enumerate_three_phonon(g, 0.5 * g.params.omega_max)
    pop = biased_population(g, 100)
    tr = kmc_run(pop, table, 2000, seed=5, mode="normal")
    assert tr.n_applied == 2000
    assert np.all(tr.drifts == tr.initial_drift)
    # umklapp runs from the same start do change the drift
    tr2 = kmc_run(pop, table, 2000, seed=5, mode="all")
    assert np.any(tr2.drifts != tr2.initial_drift)


def test_default_tol_factor_value():
    assert DEFAULT_TOL_FACTOR == 0.05


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n_sites=st.integers(4, 40),
       tol_factor=st.floats(0.05, 2.5),
       phonons=st.integers(0, 300),
       n_events=st.integers(0, 400),
       seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["all", "normal"]))
def test_kmc_ledger_property(n_sites, tol_factor, phonons, n_events, seed,
                             mode):
    """Replaying the trace reproduces every drift, energy and count; every
    event is reversible, so a run that stops early applied nothing."""
    g = ModeGrid(n_sites, UNIT)
    table = enumerate_three_phonon(g, tol_factor * g.params.omega_max)
    assume(len(table) > 0 if mode == "all" else (table.g == 0).any())
    pop = biased_population(g, phonons)
    tr = kmc_run(pop, table, n_events, seed, mode)
    if tr.status == "completed":
        assert tr.n_applied == n_events
    else:
        assert tr.status == "no_applicable_event" and tr.n_applied == 0
    omega = g.omega(g.labels)
    base = int(g.labels[0])
    rows = channel_rows(table)
    counts = pop.counts.copy()
    drift, energy = pop.drift, pop.total_energy
    for s in range(tr.n_applied):
        n1, n2, n3, eg, residual = rows[tr.event_indices[s]]
        d = int(tr.directions[s])
        assert mode == "all" or eg == 0
        for n, step in ((n1, -d), (n2, -d), (n3, d)):
            counts[n - base] += step
        assert (counts >= 0).all()
        drift -= d * eg * n_sites
        de = d * (omega[n3 - base] - omega[n1 - base] - omega[n2 - base])
        assert abs(abs(de) - residual) <= 1e-12
        energy += de
        assert tr.drifts[s] == drift == int(np.dot(counts, g.labels))
        assert abs(tr.energies[s] - energy) <= 1e-9 * (1.0 + abs(energy))
    np.testing.assert_array_equal(tr.final_counts, counts)


def test_population_rejects_labels_outside_the_grid():
    g = ModeGrid(8, UNIT)  # labels -3..4
    assert [g.row(n) for n in (-3, 0, 4)] == [0, 3, 7]
    pop = biased_population(g, 10)
    for n in (-10, 9, -4, 5):
        with pytest.raises(DiscretumError) as info:
            pop.occupation(n)
        assert str(info.value) == "label %d outside the grid" % n
        with pytest.raises(DiscretumError):
            PhononPopulation.from_counts(g, {n: 1})
    with pytest.raises(DiscretumError, match="^label must be an integer"):
        pop.occupation(1.5)
    assert pop.occupation(np.int64(1)) == 3 and pop.occupation(-3) == 0


@pytest.mark.parametrize("total", [2.5, 2.0, True])
def test_biased_population_rejects_non_integer_total(total):
    with pytest.raises(DiscretumError) as info:
        biased_population(ModeGrid(8, UNIT), total)
    assert str(info.value) == "phonon count must be an integer, got %r" % total


@pytest.mark.parametrize("kwargs,message", [
    ({"n_events": 2.5}, "n_events must be an integer, got 2.5"),
    ({"n_events": True}, "n_events must be an integer, got True"),
    ({"n_events": -1}, "n_events must be >= 0, got -1"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
], ids=["events-float", "events-bool", "events-negative", "seed-negative",
        "seed-float"])
def test_kmc_rejects_bad_counts(kwargs, message):
    g = ModeGrid(8, UNIT)
    table = enumerate_three_phonon(g, 0.2 * g.params.omega_max)
    with pytest.raises(DiscretumError) as info:
        kmc_run(biased_population(g, 10), table,
                **{"n_events": 10, "seed": 0, **kwargs})
    assert str(info.value) == message


@pytest.mark.parametrize("table_sites", [16, 9])
def test_kmc_rejects_a_table_of_another_grid(table_sites):
    """A table enumerated on another grid raises before the first event."""
    g = ModeGrid(8, UNIT)
    other = ModeGrid(table_sites, UNIT)
    table = enumerate_three_phonon(other, 0.3 * other.params.omega_max)
    with pytest.raises(DiscretumError) as info:
        kmc_run(biased_population(g, 10), table, 10, seed=0)
    assert str(info.value) == "table is not on the 8-site grid"


@pytest.mark.parametrize("row", [(1, 1, 2, 1), (3, 3, -3, 1), (-4, 1, -3, 0)],
                         ids=["wrong-g", "wrong-n3", "label-outside"])
def test_kmc_rejects_a_row_that_is_not_a_channel(row):
    """Rows (n1, n2, n3, g) on N=8 that break n1 + n2 = n3 + 8g or leave
    the labels -3..4."""
    g = ModeGrid(8, UNIT)
    table = ChannelTable(*[[v] for v in row], [0.0])
    with pytest.raises(DiscretumError, match="^table is not on the 8-site"):
        kmc_run(biased_population(g, 10), table, 10, seed=0)


def test_population_rejects_non_integer_counts():
    g = ModeGrid(8, UNIT)
    for counts in ([0.5] * 8, np.ones(8), [True] * 8):
        with pytest.raises(DiscretumError, match="^counts must be 8 integers"):
            PhononPopulation(g, counts)
    with pytest.raises(DiscretumError, match="^counts must be 8 integers"):
        PhononPopulation.from_counts(g, {1: 2.5})
    for dtype in (np.int32, np.uint8):
        assert PhononPopulation(g, np.ones(8, dtype)).counts.dtype == np.int64
