"""Acceptance gate: one test per published capability claim.

Each test prints a single PASS/FAIL line (bypassing capture, so the lines
appear in any pytest run) and then asserts.  Stated runtime budgets are
asserted where a claim carries one.
"""

import json
import time

import numpy as np

import conftest
from conftest import random_basis_matrix, run_cli, zero_crossing_frequency
from discretum import (
    ELECTRON_VOLT,
    PLANCK_CONSTANT,
    PROTON_MASS,
    ChannelTable,
    LatticeBasis,
    ModeGrid,
    OscillatorParams,
    PhononPopulation,
    bz_extent,
    build_qp_matrices,
    chain_dispersion,
    commutator_defect,
    compare_cutoffs,
    enumerate_three_phonon,
    fold_to_bz,
    g_vector,
    ground_energy,
    init_plane_wave,
    InitSpec,
    kmc_run,
    lattice_phase,
    lattice_point,
    lattice_spacing_from_cutoff,
    medium_atom_mass,
    mode_energies,
    mode_wave_number,
    NcExpression,
    oscillator_spectrum,
    planck_from_lattice,
    random_state,
    reciprocal_basis,
    reduce_mode_hamiltonian,
    run_sim,
    SimConfig,
    sound_speed,
    step,
    to_modes,
    total_energy,
)


def _report(num, ok, detail):
    line = "ACCEPTANCE %02d %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)  # captured per-test; shown inline on failure
    conftest.ACCEPTANCE_LINES.append(line)


def test_01_folding_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst_shift = 0.0
    worst_phase = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        basis = LatticeBasis(random_basis_matrix(rng, dim))
        recip = reciprocal_basis(basis)
        k = rng.uniform(-8.0, 8.0, size=dim)
        g = g_vector(recip, *rng.integers(-3, 4, size=dim))
        a = fold_to_bz(recip, k)
        b = fold_to_bz(recip, k + g.cartesian)
        worst_shift = max(worst_shift, float(np.max(np.abs(a.k_folded - b.k_folded))))
        rho = lattice_point(basis, *rng.integers(-20, 21, size=dim))
        worst_phase = max(worst_phase, abs(lattice_phase(g, rho) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_shift <= 1e-9 and worst_phase <= 1e-12 and elapsed < 1.0
    _report(1, ok,
            "fold translation defect %.2e (<=1e-9), phase defect %.2e "
            "(<=1e-12), %.2f s (<1 s)" % (worst_shift, worst_phase, elapsed))
    assert worst_shift <= 1e-9
    assert worst_phase <= 1e-12
    assert elapsed < 1.0


def test_02_cutoff_estimation_chain():
    a_stated = lattice_spacing_from_cutoff(1.0e-9)
    cmp = compare_cutoffs(1.0e21 * ELECTRON_VOLT, PROTON_MASS, 1.0e-9)
    extent = bz_extent(1.0e-25)
    in_band = 6.0e-25 <= a_stated <= 7.0e-25
    exact_ok = abs(cmp.exact.p_cut - 5.34e-7) <= 1e-2 * 5.34e-7
    flagged = not cmp.consistent
    extent_ok = 1.0e25 <= extent < 1.0e26
    ok = in_band and exact_ok and flagged and extent_ok
    _report(2, ok,
            "a_s(1e-9)=%.4e in [6e-25,7e-25]; exact p=%.4e ~5.34e-7; "
            "inconsistency flagged=%s; extent=%.3e in [1e25,1e26)"
            % (a_stated, cmp.exact.p_cut, flagged, extent))
    assert in_band and exact_ok and flagged and extent_ok


def test_03_energy_conservation_long_run():
    t0 = time.perf_counter()
    cfg = SimConfig(n_sites=64, steps=100_000, stride=100,
                    init=InitSpec(type="random", seed=7))
    res = run_sim(cfg)
    np.testing.assert_allclose(cfg.dt_effective, 0.01, rtol=1e-15)
    e0 = res.total_energy[0]
    dev = float(np.max(np.abs(res.total_energy - e0)) / e0)
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-6 and elapsed < 5.0
    _report(3, ok, "N=64, dt=0.02/omega_max, 1e5 steps: max rel energy "
                   "deviation %.2e (<1e-6), %.2f s (<5 s)" % (dev, elapsed))
    assert dev < 1e-6
    assert elapsed < 5.0


def test_04_parseval_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        kappa, m, a = rng.uniform(0.2, 5.0, size=3)
        n = int(rng.choice([8, 16, 24, 64]))
        s = random_state(n, OscillatorParams(kappa=kappa, m=m, a=a),
                         seed=int(rng.integers(1 << 31)))
        e_modes = float(np.sum(mode_energies(to_modes(s))))
        e_pos = total_energy(s)
        worst = max(worst, abs(e_modes - e_pos) / e_pos)
    ok = worst <= 1e-9
    _report(4, ok, "100 random states: worst relative mode-sum defect %.2e "
                   "(<=1e-9)" % worst)
    assert worst <= 1e-9


def test_05_measured_dispersion_agreement():
    t0 = time.perf_counter()
    n_sites = 64
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    worst_rel = 0.0
    slope_rel = None
    for n in (1, 8, 16, 32):
        k = mode_wave_number(n_sites, p.a, n)
        w_pred = chain_dispersion(p, k)
        s = init_plane_wave(n_sites, p, n, 1.0)
        dt = 1e-3 / w_pred
        trace = np.empty(20_000)
        for i in range(trace.size):
            trace[i] = s.u[0]
            step(s, dt)
        w_meas = zero_crossing_frequency(trace, dt)
        worst_rel = max(worst_rel, abs(w_meas - w_pred) / w_pred)
        if n == 1:
            slope_rel = abs(w_meas / k - sound_speed(p)) / sound_speed(p)
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-3 and slope_rel < 1e-3 and elapsed < 10.0
    _report(5, ok,
            "modes {1,8,16,32}: worst frequency error %.2e (<1e-3), "
            "long-wave slope error %.2e (<1e-3), %.2f s (<10 s)"
            % (worst_rel, slope_rel, elapsed))
    assert worst_rel < 1e-3
    assert slope_rel < 1e-3
    assert elapsed < 10.0


def test_06_mode_decoupling():
    n_sites, n = 64, 7
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    s = init_plane_wave(n_sites, p, n, 1.0)
    dt = 0.02 / s.params.omega_max
    worst_fraction = 1.0
    for _ in range(10):
        for _ in range(1000):
            step(s, dt)
        e = mode_energies(to_modes(s))
        inside = float(e[n] + e[(-n) % n_sites])
        worst_fraction = min(worst_fraction, inside / float(np.sum(e)))
    ok = worst_fraction >= 1.0 - 1e-10
    _report(6, ok, "plane wave n=7, 1e4 steps: min energy fraction in +-k "
                   "pair %.12f (>=1-1e-10)" % worst_fraction)
    assert worst_fraction >= 1.0 - 1e-10


def test_07_scattering_enumeration_oracle():
    t0 = time.perf_counter()
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    checked = 0
    for n_sites in (4, 8, 16):
        grid = ModeGrid(n_sites, p)
        labels = [int(x) for x in grid.labels if x != 0]
        for tol_factor in (0.0, 0.1, 0.2):
            tol = tol_factor * grid.params.omega_max
            brute = set()
            for n1 in labels:
                for n2 in labels:
                    if n2 < n1:
                        continue
                    for n3 in labels:
                        if (n1 + n2 - n3) % n_sites != 0:
                            continue
                        res = abs(float(grid.omega(n1)) + float(grid.omega(n2))
                                  - float(grid.omega(n3)))
                        if res <= tol:
                            brute.add((n1, n2, n3, (n1 + n2 - n3) // n_sites))
            table = enumerate_three_phonon(grid, tol)
            got = set(zip(table.n1.tolist(), table.n2.tolist(),
                          table.n3.tolist(), table.g.tolist()))
            assert got == brute, (n_sites, tol_factor)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 9 and elapsed < 1.0
    _report(7, ok, "enumeration equals N^3 brute force on %d (N, tol) "
                   "combinations, %.2f s (<1 s)" % (checked, elapsed))
    assert ok


def test_08_momentum_ledger_and_umklapp_damping():
    t0 = time.perf_counter()
    p = OscillatorParams(kappa=1.0, m=1.0, a=1.0)
    grid = ModeGrid(32, p)
    tol = 0.5 * grid.params.omega_max
    full = enumerate_three_phonon(grid, tol)
    edge = (np.abs(full.n1) == 16) | (np.abs(full.n2) == 16) | \
        (np.abs(full.n3) == 16)
    table = ChannelTable(*(getattr(full, c)[~edge] for c in
                           ("n1", "n2", "n3", "g", "delta_omega")))
    assert (table.g != 0).any()
    initial = PhononPopulation.from_counts(grid, {15: 100})
    d0 = initial.drift
    assert d0 == 1500

    # per-event ledger identity on one umklapp-enabled trace
    tr = kmc_run(initial, table, 2000, seed=0)
    prev = tr.initial_drift
    ledger_ok = True
    for s in range(tr.n_applied):
        expected = -int(tr.directions[s]) * table.g[tr.event_indices[s]] * 32
        ledger_ok = ledger_ok and (tr.drifts[s] - prev == expected)
        prev = tr.drifts[s]

    # normal-only runs conserve the drift exactly
    tr_n = kmc_run(initial, table, 2000, seed=0, mode="normal")
    normal_ok = bool(np.all(tr_n.drifts == d0))

    # 32-seed ensemble: mean drift decays under the 10% line within 1e4 events
    n_events = 10_000
    traces = np.empty((32, n_events))
    for seed in range(32):
        t = kmc_run(initial, table, n_events, seed=seed)
        assert t.n_applied == n_events
        traces[seed] = t.drifts
    mean_abs = np.abs(traces.mean(axis=0))
    crossing = int(np.argmax(mean_abs < 0.1 * d0)) if np.any(
        mean_abs < 0.1 * d0) else -1
    damped_ok = crossing >= 0
    elapsed = time.perf_counter() - t0
    ok = ledger_ok and normal_ok and damped_ok and elapsed < 30.0
    _report(8, ok,
            "per-event drift ledger exact=%s; normal-only constant=%s; "
            "ensemble mean |drift| < 150 first at event %d (<=1e4); "
            "%.2f s (<30 s)" % (ledger_ok, normal_ok, crossing + 1, elapsed))
    assert ledger_ok
    assert normal_ok
    assert damped_ok
    assert elapsed < 30.0


def test_09_commutator_and_ground_state():
    t0 = time.perf_counter()
    n = 64
    q, p = build_qp_matrices(n, 1.0, 1.0)
    defect, corner = commutator_defect(q, p)
    ground = ground_energy(q, p, 1.0, 1.0)
    spectrum = oscillator_spectrum(n, 1.0, 1.0)
    spec_rel = float(np.max(np.abs(spectrum - (np.arange(n) + 0.5))
                            / (np.arange(n) + 0.5)))
    elapsed = time.perf_counter() - t0
    defect_ok = defect < 1e-12
    corner_ok = abs(corner - (-1j * (n - 1))) <= 1e-10 * (n - 1)
    ground_ok = abs(ground - 0.5) <= 1e-12 * 0.5
    spec_ok = spec_rel <= 1e-10
    ok = defect_ok and corner_ok and ground_ok and spec_ok and elapsed < 1.0
    _report(9, ok,
            "N=64: off-corner defect %.2e (<1e-12), corner %s, ground %.15f "
            "(hbar*omega/2 within 1e-12), spectrum rel error %.2e (<=1e-10), "
            "%.2f s (<1 s)" % (defect, corner, ground, spec_rel, elapsed))
    assert defect_ok and corner_ok and ground_ok and spec_ok
    assert elapsed < 1.0


def test_10_symbolic_reduction():
    got = reduce_mode_hamiltonian()
    pq = NcExpression.symbol("p") * NcExpression.symbol("q")
    qp = NcExpression.symbol("q") * NcExpression.symbol("p")
    from fractions import Fraction
    expected = pq.scaled(Fraction(1, 2), 1) + qp.scaled(Fraction(-1, 2), 1)
    exact = got == expected
    collapses = got.commutative_image().is_zero
    ok = exact and collapses
    _report(10, ok, "reduction == (1/2)*w*(pq-qp) exactly=%s; commutative "
                    "specialization zero=%s" % (exact, collapses))
    assert exact
    assert collapses


def test_11_planck_relation_roundtrip():
    mass = medium_atom_mass(1.0e-25)
    mass_ok = abs(mass - 2.21e-17) <= 1e-3 * 2.21e-17
    h_back = planck_from_lattice(mass, 1.0e-25)
    rel = abs(h_back - PLANCK_CONSTANT) / PLANCK_CONSTANT
    round_ok = rel <= 1e-12
    ok = mass_ok and round_ok
    _report(11, ok, "medium mass %.6e ~ 2.21e-17 kg; h roundtrip rel error "
                    "%.2e (<=1e-12)" % (mass, rel))
    assert mass_ok
    assert round_ok


def test_12_cli_byte_determinism(tmp_path):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps({"dim": 2, "vectors": [[1.0, 0.1], [0.0, 0.9]]}))
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "n_sites": 16, "steps": 200, "stride": 50,
        "init": {"type": "random", "seed": 3}}))
    runs = (
        ("thermalize", "--n", "16", "--tol", "0.3", "--events", "300",
         "--seed", "5"),
        ("simulate", "--config", str(config)),
        ("fold", "--basis", str(basis), "--k", "5.5,-2.25"),
        ("cutoff",),
        ("processes", "--n", "8", "--tol", "0.2"),
        ("dispersion", "--q-samples", "17"),
        ("commutator", "--N", "16"),
        ("planck",),
    )
    identical = True
    for argv in runs:
        s1, o1, _ = run_cli(*argv)
        s2, o2, _ = run_cli(*argv)
        identical = identical and s1 == 0 and s2 == 0 and o1 == o2 and o1 != ""
    ok = identical
    _report(12, ok, "%d CLI commands repeated byte-identically=%s"
            % (len(runs), identical))
    assert ok
