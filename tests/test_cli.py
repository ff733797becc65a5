import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from discretum import (
    CONSTANTS,
    DEFAULT_TOL_FACTOR,
    LatticeBasis,
    ModeGrid,
    OscillatorParams,
    SimConfig,
    biased_population,
    build_qp_matrices,
    chain_dispersion,
    commutator_defect,
    compare_cutoffs,
    enumerate_three_phonon,
    fold_to_bz,
    ground_energy,
    kmc_run,
    medium_atom_mass,
    planck_from_lattice,
    reciprocal_basis,
    run_sim,
)
UNIT = OscillatorParams(kappa=1.0, m=1.0, a=1.0)


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def write_basis(tmp_path, dim, vectors, name="basis.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": dim, "vectors": vectors}))
    return str(path)


# ------------------------------------------------------------------- fold

def test_fold_1d(tmp_path):
    basis = write_basis(tmp_path, 1, [[1.0]])
    status, out, err = run_cli("fold", "--basis", basis, "--k", repr(1.5 * math.pi))
    assert status == 0 and err == ""
    data = json.loads(out)
    np.testing.assert_allclose(data["k_folded"], [-0.5 * math.pi], rtol=1e-12)
    assert data["g_indices"] == [1]


def test_fold_2d_matches_library(tmp_path):
    vectors = [[1.0, 0.2], [-0.3, 0.9]]
    basis = write_basis(tmp_path, 2, vectors)
    status, out, _ = run_cli("fold", "--basis", basis, "--k", "7.25,-3.5")
    assert status == 0
    data = json.loads(out)
    ref = fold_to_bz(reciprocal_basis(LatticeBasis(np.array(vectors))),
                     np.array([7.25, -3.5]))
    np.testing.assert_array_equal(data["k_folded"], ref.k_folded)
    assert tuple(data["g_indices"]) == ref.g.indices


def test_fold_malformed_k(tmp_path):
    basis = write_basis(tmp_path, 1, [[1.0]])
    status, out, err = run_cli("fold", "--basis", basis, "--k", "1.0,zap")
    assert status == 2 and out == ""
    assert err.startswith("discretum fold:")


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_fold_non_finite_k(tmp_path, k):
    basis = write_basis(tmp_path, 1, [[1.0]])
    status, out, err = run_cli("fold", "--basis", basis, "--k=" + k)
    assert status == 2 and out == ""
    assert err.startswith("discretum fold:") and err.count("\n") == 1


@pytest.mark.parametrize("k", ["1e15", "1e17", "1e300"])
def test_fold_rejects_k_beyond_the_zone_bound(tmp_path, k):
    """Far out, k - G has no digits left at zone scale (1e15 would fold to
    2.125, 1e17 and 1e300 to 0 with g_indices of up to 300 digits), so
    fold exits 2 with one line on stderr."""
    basis = write_basis(tmp_path, 1, [[1.0]])
    status, out, err = run_cli("fold", "--basis", basis, "--k=" + k)
    assert status == 2 and out == ""
    assert err.startswith("discretum fold: k is ") and err.count("\n") == 1
    assert "beyond 4.5e+06 zones" in err


@pytest.mark.parametrize("vectors,message", [
    ("[[1, 0], [0]]", "basis vectors must be equal-length rows of numbers"),
    ('[["a"]]', "basis vectors must be equal-length rows of numbers"),
    ("[[NaN]]", "basis vectors must be finite"),
    ("[[Infinity]]", "basis vectors must be finite"),
], ids=["ragged", "string", "nan", "inf"])
def test_fold_rejects_bad_basis_entries(tmp_path, vectors, message):
    path = tmp_path / "basis.json"
    path.write_text('{"dim": 1, "vectors": %s}' % vectors)
    status, out, err = run_cli("fold", "--basis", str(path), "--k", "1.0")
    assert (status, out) == (2, "")
    assert err == "discretum fold: %s\n" % message


def test_fold_degenerate_basis(tmp_path):
    basis = write_basis(tmp_path, 2, [[1.0, 0.0], [2.0, 0.0]])
    status, _, err = run_cli("fold", "--basis", basis, "--k", "1.0,1.0")
    assert status == 2
    assert "degenerate" in err


def test_fold_basis_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "vectors": [[1.0]], "spin": 2}))
    status, _, err = run_cli("fold", "--basis", str(path), "--k", "1.0")
    assert status == 2 and "spin" in err

    path.write_text(json.dumps({"vectors": [[1.0]]}))
    status, _, err = run_cli("fold", "--basis", str(path), "--k", "1.0")
    assert status == 2 and "dim" in err

    path.write_text("{not json")
    status, _, err = run_cli("fold", "--basis", str(path), "--k", "1.0")
    assert status == 2 and err.startswith("discretum fold:")

    status, _, err = run_cli("fold", "--basis", str(tmp_path / "nope.json"),
                             "--k", "1.0")
    assert status == 2 and "nope.json" in err


# ----------------------------------------------------------- usage errors

def test_usage_error_missing_value():
    status, _, err = run_cli("thermalize", "--seed")
    assert status == 2
    assert "--seed" in err and "usage" in err


def test_usage_error_unknown_command():
    status, _, err = run_cli("transmogrify")
    assert status == 2 and "usage" in err


def test_usage_error_no_command():
    status, _, err = run_cli()
    assert status == 2 and "usage" in err


# ----------------------------------------------------------- cached parser

def test_parser_built_once_and_not_at_import():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    probe = (
        "import discretum, discretum.cli as cli\n"
        "print(cli._parser.cache_info().misses)\n"
        "for argv in (['planck'], ['cutoff'], ['processes', '--n', '4']):\n"
        "    cli.parse_args(argv)\n"
        "print(cli._parser.cache_info().misses)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_parses_give_independent_namespaces():
    from discretum import cli

    fresh = cli._parser.__wrapped__  # the uncached builder
    runs = [["processes", "--n", "17", "--kappa", "2.5", "--output", "x"],
            ["thermalize", "--mode", "normal", "--seed", "3"],
            ["processes"], ["dispersion", "--q-samples", "5"], ["thermalize"],
            ["commutator", "--N", "9"], ["fold", "--basis", "b", "--k=-1"]]
    seen = []
    for argv in runs:
        got = cli.parse_args(argv)
        assert vars(got) == vars(fresh().parse_args(argv))
        assert all(got is not other for other in seen)
        seen.append(got)
    # no value set by an earlier parse shows up in a later one
    assert vars(seen[2]) == vars(fresh().parse_args(["processes"]))
    assert seen[2].n == 8 and seen[2].kappa == 1.0 and seen[2].output == "-"
    assert seen[4].mode == "all" and seen[4].seed == 0
    assert not hasattr(seen[4], "q_samples")


def _parse_with(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            status = None
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


HELP_AND_USAGE = [
    ["--help"], [], ["transmogrify"], ["processes", "--n", "x"],
    ["processes", "--bogus"], ["fold"], ["thermalize", "--mode", "weird"],
    ["commutator", "--N"],
] + [[sub, "--help"] for sub in ("fold", "processes", "thermalize",
                                 "simulate", "dispersion", "cutoff",
                                 "commutator", "planck")]


@pytest.mark.parametrize("argv", HELP_AND_USAGE,
                         ids=[" ".join(a) or "empty" for a in HELP_AND_USAGE])
def test_help_and_usage_match_a_fresh_parser(argv):
    """--help and usage errors give the same bytes and status from the
    cached tree, every time, as from a tree built for this one call."""
    from discretum import cli

    expected = _parse_with(cli._parser.__wrapped__(), argv)
    assert expected[0] in (0, 2) and (expected[1] or expected[2])
    assert run_cli(*argv) == expected
    assert run_cli(*argv) == expected


# -------------------------------------------------------------- processes

def test_processes_table_matches_library():
    status, out, err = run_cli("processes", "--n", "8", "--tol", "0.2")
    assert status == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["n1", "n2", "n3", "g", "delta_omega", "kind"]
    table = enumerate_three_phonon(ModeGrid(8, UNIT), 0.2 * 2.0)
    assert len(rows) == len(table) == 4
    for i, row in enumerate(rows):
        assert [int(row[0]), int(row[1]), int(row[2]), int(row[3])] == \
            [table.n1[i], table.n2[i], table.n3[i], table.g[i]]
        assert float(row[4]) == table.delta_omega[i]
        assert row[5] == "normal"


def test_processes_empty_table():
    status, out, _ = run_cli("processes", "--n", "4", "--tol", "0.2")
    assert status == 0
    assert out == "n1,n2,n3,g,delta_omega,kind\n"


@pytest.mark.parametrize("command", ["processes", "thermalize"])
def test_non_finite_tolerance_exits_2(command):
    status, out, err = run_cli(command, "--tol", "nan")
    assert status == 2 and out == ""
    assert err.startswith("discretum %s:" % command) and "tol" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,name,value", [
    (("dispersion", "--a", "inf"), "a", "inf"),
    (("dispersion", "--kappa", "nan"), "kappa", "nan"),
    (("processes", "--n", "3", "--kappa", "inf"), "kappa", "inf"),
    (("thermalize", "--m=-inf"), "m", "-inf"),
], ids=["dispersion-a", "dispersion-kappa", "processes-kappa",
        "thermalize-m"])
def test_non_finite_chain_parameter_exits_2(argv, name, value):
    status, out, err = run_cli(*argv)
    assert status == 2 and out == ""
    assert err == "discretum %s: %s must be a finite number, got %s\n" % (
        argv[0], name, value)


@pytest.mark.parametrize("argv,message", [
    (("dispersion", "--q-samples", "3", "--kappa", "1e308", "--m", "1e-10"),
     "omega_max must be a finite number, got inf"),
    (("processes", "--n", "4", "--kappa", "1e308", "--m", "1e-10"),
     "omega_max must be a finite number, got inf"),
    (("processes", "--n", "4", "--kappa", "1e-300", "--m", "1e300"),
     "omega_max must be > 0, got 0.0"),
    (("commutator", "--N", "4", "--hbar", "inf"),
     "hbar must be a finite number, got inf"),
    (("commutator", "--N", "4", "--m", "inf"),
     "m must be a finite number, got inf"),
    (("commutator", "--N", "4", "--m", "1e-300", "--omega", "1e-300"),
     "m*omega must be > 0, got 0.0"),
    (("commutator", "--N", "4", "--omega", "-1"),
     "omega must be > 0, got -1.0"),
    (("commutator", "--N", "4", "--hbar", "1e-320", "--m", "1e10"),
     "hbar/(2*m*omega) must be > 0, got 0.0"),
    (("commutator", "--N", "4", "--hbar", "1e300", "--m", "1e10"),
     "hbar*m*omega/2 must be a finite number, got inf"),
    (("cutoff", "--stated-momentum", "nan"),
     "cutoff momentum must be a finite number, got nan"),
    (("cutoff", "--Eb-eV", "nan"), "E_b must be a finite number, got nan"),
    (("cutoff", "--mp-MeV", "nan"), "m_p must be a finite number, got nan"),
    (("planck", "--a", "nan"), "spacing must be a finite number, got nan"),
    (("dispersion", "--q-samples", "3", "--a", "1e-320"),
     "zone edge pi/a must be a finite number, got inf"),
    (("commutator", "--N", "100000000"),
     "truncation dimension must be in [2, 4096], got 100000000"),
    (("commutator", "--N", "256", "--hbar", "1e300", "--m", "1e-5",
      "--omega", "1e7"),
     "oscillator Hamiltonian overflows for N=256, m=1e-05, omega=10000000.0"),
    (("commutator", "--N", "16", "--hbar", "2e-150", "--omega", "1e-150",
      "--m", "1e-10"),
     "hbar*m*omega/2 is subnormal, got 1e-310"),
    (("thermalize", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("dispersion", "--q-samples", "-1"), "--q-samples must be >= 0, got -1"),
    # The cap passes its check (the zone edge fails after it); the cap + 1
    # does not.  Neither allocates the table.
    (("dispersion", "--q-samples", "1048576", "--a", "1e-320"),
     "zone edge pi/a must be a finite number, got inf"),
    (("dispersion", "--q-samples", "1048577", "--a", "1e-320"),
     "--q-samples must be <= 1048576, got 1048577"),
    (("cutoff", "--Eb-eV", "1e308"),
     "E_b/c must be below 1.34078e+154, got 5.344285992678308e+280"),
    (("cutoff", "--stated-momentum", "1e308"),
     "cutoff momentum must be below 1.34078e+154, got 1e+308"),
    (("cutoff", "--mp-MeV=-1e200", "--Eb-eV", "1"),
     "m_p*c must be below 1.34078e+154, got -5.344285992678308e+178"),
    # Drifts are int64: a population or budget that could wrap one exits 2.
    (("thermalize", "--n", "8", "--tol", "1", "--phonons",
      "4611686018427387904", "--events", "0"),
     "sum of count*|label| must be <= 9223372036854775807, "
     "got 11529215046068469760"),
    (("thermalize", "--n", "8", "--tol", "1", "--phonons",
      "9223372036854775807", "--events", "3"),
     "sum of count*|label| must be <= 9223372036854775807, "
     "got 23058430092136939516"),
    (("thermalize", "--n", "8", "--phonons", "18446744073709551616"),
     "phonon count must be <= 9223372036854775807, "
     "got 18446744073709551616"),
    (("thermalize", "--n", "8", "--tol", "1", "--phonons", "10", "--events",
      "1152921504606846976"),
     "|drift| + events*N must be <= 9223372036854775807, "
     "got 9223372036854775831"),
], ids=["dispersion-omega-inf", "processes-omega-inf", "processes-omega-0",
        "commutator-hbar", "commutator-m", "commutator-m-omega",
        "commutator-omega", "commutator-q-scale", "commutator-p-scale",
        "cutoff-stated", "cutoff-Eb", "cutoff-mp",
        "planck-a", "dispersion-zone-edge", "commutator-N-cap",
        "commutator-H-overflow", "commutator-p-subnormal",
        "thermalize-seed", "dispersion-q-samples",
        "dispersion-q-samples-at-cap", "dispersion-q-samples-over-cap",
        "cutoff-Eb-square", "cutoff-stated-square", "cutoff-mp-square",
        "thermalize-label-sum", "thermalize-label-sum-max-phonons",
        "thermalize-phonons-2**64", "thermalize-event-budget"])
def test_numeric_boundary_exits_2(argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        status, out, err = run_cli(*argv)
    assert (status, out) == (2, "")
    assert err == "discretum %s: %s\n" % (argv[0], message)


def test_simulate_underflowing_omega_max_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"n_sites": 8, "steps": 2, "kappa": 1e-300,
                                  "m": 1e300, "init": {"type": "random"}})
    status, out, err = run_cli("simulate", "--config", cfg)
    assert (status, out) == (2, "")
    assert err == "discretum simulate: omega_max must be > 0, got 0.0\n"


# sha256 of stdout for fixed arguments and seeds.  Acceptance 12 only
# repeats a run within one version; these digests catch any change of bytes
# from one version of the code to the next.
GOLDEN_STDOUT = [
    (("processes", "--n", "512", "--tol", "0.05"),
     "f8d66ed53ce891a890f28abc9d5343498db92e5af69c112e7b01aa38c3e3bf5a"),
    (("thermalize", "--n", "256", "--phonons", "2000", "--events", "1000",
      "--seed", "7", "--mode", "all"),
     "04a1e671811bdfefd8d4aad269e7ebc40c54385fc252c1b63632b76286b5df4c"),
    (("thermalize", "--n", "256", "--phonons", "2000", "--events", "1000",
      "--seed", "7", "--mode", "normal"),
     "8a1994f974db1403e0e2e9bc1d24b95a8378e86a17e253056daa67ff4b3c505f"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT,
                         ids=["processes", "thermalize-all",
                              "thermalize-normal"])
def test_golden_stdout_digest(argv, digest):
    status, out, err = run_cli(*argv)
    assert status == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------- byte reference

# The emitters as they were when every cell was formatted by its Python
# type.  Each test below builds the text they give for library results in
# this process and requires the CLI's stdout to equal it byte for byte, so
# the comparison does not depend on the machine's libm or BLAS.

def _reference_fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return str(value)


def reference_json(obj):
    if isinstance(obj, dict):
        return "{" + ", ".join(
            "%s: %s" % (json.dumps(str(k)), reference_json(v))
            for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(reference_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, float, int, np.integer, np.floating)):
        return _reference_fmt(float(obj) if isinstance(obj, np.floating)
                              else obj)
    raise TypeError("cannot serialize %r" % type(obj))


def reference_csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(map(_reference_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def assert_stdout(argv, expected):
    status, out, _ = run_cli(*argv)
    assert status == 0
    assert out == expected


@pytest.mark.parametrize("n,tol,kappa,m,n_rows,n_umklapp", [
    (8, DEFAULT_TOL_FACTOR, 1.0, 1.0, 0, 0),
    (8, 0.2, 1.0, 1.0, 4, 0),
    (17, 2.5, 1.0, 1.0, 128, 40),
    (512, DEFAULT_TOL_FACTOR, 2.5, 0.7, 14534, 71),
], ids=["n8", "n8-tol", "n17-umklapp", "n512-kappa-m"])
def test_processes_bytes_match_reference(n, tol, kappa, m, n_rows, n_umklapp):
    grid = ModeGrid(n, OscillatorParams(kappa=kappa, m=m, a=1.0))
    table = enumerate_three_phonon(grid, tol * grid.params.omega_max)
    rows = [(table.n1[i], table.n2[i], table.n3[i], table.g[i],
             float(table.delta_omega[i]),
             "umklapp" if table.g[i] != 0 else "normal")
            for i in range(len(table))]
    assert len(rows) == n_rows
    assert sum(row[5] == "umklapp" for row in rows) == n_umklapp
    assert_stdout(("processes", "--n", str(n), "--tol", repr(tol),
                   "--kappa", repr(kappa), "--m", repr(m)),
                  reference_csv(("n1", "n2", "n3", "g", "delta_omega",
                                 "kind"), rows))


@pytest.mark.parametrize("mode,phonons", [
    ("all", 60), ("normal", 60), ("all", 0),
], ids=["all", "normal", "no-phonons"])
def test_thermalize_bytes_match_reference(mode, phonons):
    grid = ModeGrid(32, OscillatorParams(kappa=1.0, m=1.0, a=1.0))
    table = enumerate_three_phonon(grid, 0.5 * grid.params.omega_max)
    trace = kmc_run(biased_population(grid, phonons), table, 80, 4, mode)
    rows = [(0, trace.initial_drift, trace.initial_energy, "")]
    rows.extend((s + 1, trace.drifts[s], float(trace.energies[s]),
                 table.g[trace.event_indices[s]])
                for s in range(trace.n_applied))
    assert len(rows) == (1 if phonons == 0 else 81)
    assert_stdout(("thermalize", "--n", "32", "--tol", "0.5", "--events",
                   "80", "--seed", "4", "--mode", mode, "--phonons",
                   str(phonons)),
                  reference_csv(("step", "drift", "energy", "event_g"), rows))


@pytest.mark.parametrize("config", [
    {"n_sites": 12, "steps": 30, "stride": 7, "kappa": 2.5, "m": 0.7,
     "a": 1.3, "init": {"type": "plane_wave", "mode_index": 3,
                        "amplitude": 0.4}},
    {"n_sites": 1024, "steps": 4, "stride": 1,
     "init": {"type": "random", "seed": 11, "amplitude": 1.5}},
], ids=["plane-wave", "random-1024"])
def test_simulate_bytes_match_reference(tmp_path, config):
    result = run_sim(SimConfig.from_dict(config))
    n = config["n_sites"]
    rows = [[float(result.times[i]), float(result.total_energy[i])]
            + [float(e) for e in result.mode_energies[i]]
            for i in range(result.times.size)]
    assert_stdout(("simulate", "--config", write_config(tmp_path, config)),
                  reference_csv(["t", "E_total"]
                                + ["E_mode_%d" % j for j in range(n)], rows))


@pytest.mark.parametrize("samples", [0, 1, 200])
def test_dispersion_bytes_match_reference(samples):
    params = OscillatorParams(kappa=2.5, m=0.7, a=1.3)
    qs = np.linspace(-math.pi / params.a, math.pi / params.a, samples)
    rows = [(float(q), float(w))
            for q, w in zip(qs, chain_dispersion(params, qs))]
    assert_stdout(("dispersion", "--q-samples", str(samples), "--kappa",
                   "2.5", "--m", "0.7", "--a", "1.3"),
                  reference_csv(("q", "omega"), rows))


@pytest.mark.parametrize("vectors,k", [
    ([[1.0]], [3.0 * math.pi]),
    ([[1.0, 0.2, 0.0], [-0.3, 0.9, 0.1], [0.05, 0.0, 1.1]],
     [7.25, -3.5, 2.0]),
], ids=["1d-boundary", "3d"])
def test_fold_bytes_match_reference(tmp_path, vectors, k):
    folded = fold_to_bz(reciprocal_basis(LatticeBasis(vectors)),
                        np.array(k))
    if len(k) == 1:
        assert folded.k_folded[0] == math.pi  # the +pi side of the boundary
    expected = reference_json({
        "k_folded": [float(x) for x in folded.k_folded],
        "g_indices": list(folded.g.indices)}) + "\n"
    assert_stdout(("fold", "--basis", write_basis(tmp_path, len(k), vectors),
                   "--k", ",".join(map(repr, k))), expected)


def _cutoff_chain(est):
    return {"E_b": est.E_b, "p_cut": est.p_cut, "a_s": est.a_s,
            "bz_extent": est.bz_extent}


@pytest.mark.parametrize("eb_ev,mp_mev,stated", [
    (1e21, 938.272, 1e-9), (1e21, 938.272, 5.3442859927e-7),
    (2.5e12, 0.511, 3e-15),
], ids=["default", "consistent", "electron"])
def test_cutoff_bytes_match_reference(eb_ev, mp_mev, stated):
    m_p = mp_mev * 1e6 * CONSTANTS.eV / CONSTANTS.c**2
    comp = compare_cutoffs(CONSTANTS, eb_ev * CONSTANTS.eV, m_p, stated)
    expected = reference_json({"exact": _cutoff_chain(comp.exact),
                               "stated": _cutoff_chain(comp.stated),
                               "consistent": comp.consistent}) + "\n"
    assert_stdout(("cutoff", "--Eb-eV", repr(eb_ev), "--mp-MeV", repr(mp_mev),
                   "--stated-momentum", repr(stated)), expected)


@pytest.mark.parametrize("n,hbar,m,omega", [
    (8, 1.0, 1.0, 1.0), (64, 0.3, 2.0, 1.7),
], ids=["n8", "n64-scaled"])
def test_commutator_bytes_match_reference(n, hbar, m, omega):
    q, p = build_qp_matrices(n, m, omega, hbar)
    defect, corner = commutator_defect(q, p, hbar)
    expected = reference_json({
        "max_defect": defect,
        "corner": {"re": corner.real, "im": corner.imag},
        "ground_energy": ground_energy(q, p, m, omega)}) + "\n"
    assert_stdout(("commutator", "--N", str(n), "--hbar", repr(hbar), "--m",
                   repr(m), "--omega", repr(omega)), expected)


@pytest.mark.parametrize("a", [1e-25, 3.7e-19])
def test_planck_bytes_match_reference(a):
    mass = medium_atom_mass(CONSTANTS, a)
    expected = reference_json({
        "mass_kg": mass,
        "h_roundtrip": planck_from_lattice(CONSTANTS, mass, a)}) + "\n"
    assert_stdout(("planck", "--a", repr(a)), expected)


# -------------------------------------------------------------- thermalize

def test_thermalize_normal_mode_conserves_drift():
    status, out, err = run_cli("thermalize", "--n", "8", "--tol", "0.2",
                               "--events", "50", "--seed", "3",
                               "--phonons", "12", "--mode", "normal")
    assert status == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["step", "drift", "energy", "event_g"]
    assert rows[0][0] == "0" and rows[0][3] == ""
    drifts = {row[1] for row in rows}
    assert len(drifts) == 1
    assert all(row[3] == "0" for row in rows[1:])
    assert [int(r[0]) for r in rows] == list(range(len(rows)))


@pytest.mark.parametrize("mode", ["all", "normal"])
def test_thermalize_matches_library_run(mode):
    argv = ("thermalize", "--n", "16", "--tol", "0.3", "--events", "40",
            "--seed", "9", "--phonons", "10", "--mode", mode)
    status, out, _ = run_cli(*argv)
    assert status == 0
    _, rows = parse_csv(out)
    grid = ModeGrid(16, UNIT)
    table = enumerate_three_phonon(grid, 0.3 * grid.params.omega_max)
    assert table.g[0] != 0  # normal-only indices must skip this channel
    trace = kmc_run(biased_population(grid, 10), table, 40, 9, mode)
    assert len(rows) == trace.n_applied + 1
    assert int(rows[0][1]) == trace.initial_drift
    assert float(rows[0][2]) == trace.initial_energy
    drift = trace.initial_drift
    for s in range(trace.n_applied):
        g = table.g[trace.event_indices[s]]
        # the indexed channel must be the one that moved the drift
        assert trace.drifts[s] - drift == -trace.directions[s] * g * 16
        drift = trace.drifts[s]
        assert int(rows[s + 1][1]) == trace.drifts[s]
        assert float(rows[s + 1][2]) == trace.energies[s]
        assert int(rows[s + 1][3]) == g


def test_thermalize_umklapp_changes_drift():
    status, out, _ = run_cli("thermalize", "--n", "32", "--tol", "0.5",
                             "--events", "200", "--seed", "0")
    assert status == 0
    _, rows = parse_csv(out)
    drifts = {row[1] for row in rows}
    assert len(drifts) > 1
    assert any(row[3] not in ("", "0") for row in rows)


def test_thermalize_rejects_negative_phonons():
    status, out, err = run_cli("thermalize", "--phonons", "-5")
    assert status == 2 and out == ""
    assert err.startswith("discretum thermalize:") and err.count("\n") == 1


def test_thermalize_early_stop_warns_on_stderr():
    argv = ("thermalize", "--n", "16", "--tol", "0.3", "--events", "10")
    status, out, err = run_cli(*argv, "--phonons", "0")
    assert status == 0
    assert out == "step,drift,energy,event_g\n0,0,0,\n"
    assert err == ("warning: KMC stopped after 0 of 10 events: "
                   "no_applicable_event\n")
    status, out, err = run_cli(*argv, "--phonons", "40")
    assert status == 0 and err == "" and out.count("\n") == 12


def test_thermalize_huge_budget_stops_before_its_first_event():
    """Nothing is allocated per budgeted event: a run of 10^9 events that
    cannot start exits 0 at once with the early-stop warning."""
    status, out, err = run_cli("thermalize", "--n", "8", "--tol", "1",
                               "--phonons", "0", "--events", "1000000000")
    assert status == 0
    assert out == "step,drift,energy,event_g\n0,0,0,\n"
    assert err == ("warning: KMC stopped after 0 of 1000000000 events: "
                   "no_applicable_event\n")


def test_thermalize_byte_determinism():
    argv = ("thermalize", "--n", "16", "--tol", "0.3", "--events", "100",
            "--seed", "5")
    out1 = run_cli(*argv)[1]
    out2 = run_cli(*argv)[1]
    assert out1 == out2
    out3 = run_cli(*argv[:-1], "6")[1]
    assert out3 != out1


# ---------------------------------------------------------------- simulate

def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_plane_wave_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "n_sites": 8, "steps": 40, "stride": 10,
        "init": {"type": "plane_wave", "mode_index": 2, "amplitude": 1.0},
    })
    status, out, err = run_cli("simulate", "--config", cfg)
    assert status == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["t", "E_total"] + ["E_mode_%d" % j for j in range(8)]
    assert len(rows) == 5
    e_total = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(e_total, e_total[0], rtol=1e-9)
    for row in rows:
        inside = float(row[2 + 2]) + float(row[2 + 6])
        np.testing.assert_allclose(inside, float(row[1]), rtol=1e-9)


def test_simulate_stability_warning_on_stderr(tmp_path):
    cfg = write_config(tmp_path, {
        "n_sites": 8, "steps": 2, "dt": 1.0,
        "init": {"type": "random", "seed": 1},
    })
    status, out, err = run_cli("simulate", "--config", cfg)
    assert status == 0
    assert out.startswith("t,E_total")
    assert "warning:" in err
    assert sum(line.startswith("warning: dt") for line in err.splitlines()) == 1
    # stderr does not depend on what an earlier in-process run cached; a run
    # that blows up exits 2 with its one error line (no warning lines)
    unstable = write_config(tmp_path, {
        "n_sites": 8, "steps": 1000, "stride": 500, "dt": 1.0,
        "init": {"type": "random", "seed": 1},
    })
    first = run_cli("simulate", "--config", unstable)
    assert first == run_cli("simulate", "--config", unstable)
    assert first[:2] == (2, "") and len(first[2].splitlines()) == 1
    assert first[2].startswith("discretum simulate: row at t = 500.0 is not "
                               "finite (omega_max*dt = 2, stable below 1.57)")


@pytest.mark.parametrize("payload,t_blown", [
    ({"n_sites": 8, "steps": 1000, "dt": 1.0}, "177.0"),
    ({"n_sites": 8, "steps": 10, "kappa": 1e308}, "0.0"),
], ids=["dt-beyond-stable", "kappa-overflows-energy"])
def test_simulate_blown_up_run_exits_2(tmp_path, payload, t_blown):
    cfg = write_config(tmp_path, dict(payload,
                                      init={"type": "random", "seed": 1}))
    status, out, err = run_cli("simulate", "--config", cfg)
    assert (status, out) == (2, "")
    assert err.count("\n") == 1 and "Warning" not in err
    assert err.startswith("discretum simulate: row at t = %s is not finite"
                          % t_blown)


def test_simulate_config_validation(tmp_path):
    bad = write_config(tmp_path, {"n_sites": 8, "steps": 1,
                                  "init": {"type": "random"}, "colour": 3})
    status, _, err = run_cli("simulate", "--config", bad)
    assert status == 2 and "colour" in err

    bad = write_config(tmp_path, {"n_sites": 8, "steps": 1,
                                  "init": {"type": "random", "sneed": 1}})
    status, _, err = run_cli("simulate", "--config", bad)
    assert status == 2 and "sneed" in err

    bad = write_config(tmp_path, {"n_sites": 8, "steps": 1, "init": "random"})
    status, _, err = run_cli("simulate", "--config", bad)
    assert status == 2

    bad = write_config(tmp_path, {"n_sites": 8, "steps": -2,
                                  "init": {"type": "random"}})
    status, _, err = run_cli("simulate", "--config", bad)
    assert status == 2

    status, _, err = run_cli("simulate", "--config", str(tmp_path / "gone.json"))
    assert status == 2 and "gone.json" in err

    for key, value in (("n_sites", 8.5), ("n_sites", True), ("n_sites", 1),
                       ("steps", 2.5), ("stride", True), ("stride", 1.0),
                       ("dt", "x"), ("dt", float("nan")), ("dt", float("inf")),
                       ("dt", 0.0), ("kappa", float("inf")), ("m", "1"),
                       ("a", float("nan")), ("kappa", False)):
        cfg = {"n_sites": 8, "steps": 2, "init": {"type": "random"}, key: value}
        status, out, err = run_cli("simulate", "--config",
                                   write_config(tmp_path, cfg))
        assert (status, out) == (2, ""), (key, value)
        assert err.startswith("discretum simulate:") and err.count("\n") == 1
    for key, value in (("mode_index", 1.5), ("mode_index", True),
                       ("seed", 2.0), ("seed", -1), ("amplitude", "big"),
                       ("amplitude", float("inf"))):
        cfg = {"n_sites": 8, "steps": 2,
               "init": {"type": "plane_wave", key: value}}
        status, out, err = run_cli("simulate", "--config",
                                   write_config(tmp_path, cfg))
        assert (status, out) == (2, ""), (key, value)
        assert err.startswith("discretum simulate:") and err.count("\n") == 1


# --------------------------------------------------------------- dispersion

def test_dispersion_table():
    status, out, err = run_cli("dispersion", "--q-samples", "5", "--a", "2.0")
    assert status == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["q", "omega"]
    assert len(rows) == 5
    p = OscillatorParams(kappa=1.0, m=1.0, a=2.0)
    qs = np.linspace(-math.pi / 2, math.pi / 2, 5)
    for row, q in zip(rows, qs):
        assert float(row[0]) == q
        assert float(row[1]) == chain_dispersion(p, q)


def test_dispersion_rejects_negative_samples():
    status, out, err = run_cli("dispersion", "--q-samples", "-1")
    assert status == 2 and out == ""
    assert err.startswith("discretum dispersion:") and err.count("\n") == 1
    status, out, err = run_cli("dispersion", "--q-samples", "0")
    assert (status, out, err) == (0, "q,omega\n", "")


def test_dispersion_byte_determinism():
    argv = ("dispersion", "--q-samples", "33", "--kappa", "2.5")
    assert run_cli(*argv)[1] == run_cli(*argv)[1]


# ------------------------------------------------------------------ cutoff

def test_cutoff_default_chain():
    status, out, err = run_cli("cutoff")
    assert status == 0 and err == ""
    data = json.loads(out)
    assert data["consistent"] is False
    np.testing.assert_allclose(data["exact"]["p_cut"], 5.3442859927e-7, rtol=1e-9)
    np.testing.assert_allclose(data["stated"]["a_s"], 6.62607015e-25, rtol=1e-9)
    np.testing.assert_allclose(data["stated"]["bz_extent"],
                               2 * math.pi / data["stated"]["a_s"], rtol=1e-12)
    assert 6e-25 < data["stated"]["a_s"] < 7e-25


def test_cutoff_consistent_when_momenta_agree():
    status, out, _ = run_cli("cutoff", "--Eb-eV", "1e21",
                             "--stated-momentum", "5.3442859927e-7")
    assert status == 0
    assert json.loads(out)["consistent"] is True


# -------------------------------------------------------------- commutator

def test_commutator_json_matches_library():
    status, out, err = run_cli("commutator", "--N", "8")
    assert status == 0 and err == ""
    data = json.loads(out)
    q, p = build_qp_matrices(8, 1.0, 1.0, 1.0)
    defect, corner = commutator_defect(q, p, 1.0)
    assert data["max_defect"] == defect
    assert data["corner"]["re"] == corner.real
    assert data["corner"]["im"] == corner.imag
    np.testing.assert_allclose(data["corner"]["im"], -7.0, rtol=1e-10)
    np.testing.assert_allclose(data["ground_energy"], 0.5, rtol=1e-12)


def test_commutator_rejects_tiny_truncation():
    status, _, err = run_cli("commutator", "--N", "1")
    assert status == 2 and "discretum commutator:" in err


def test_commutator_large_scales_give_half_quantum():
    """m*omega^2 overflows here, but H = hbar*omega*(n + 1/2) does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, out, err = run_cli("commutator", "--N", "256", "--m", "1e150",
                                   "--omega", "1e150")
    assert (status, err) == (0, "")
    data = json.loads(out)
    assert data["corner"] == {"re": 0, "im": -255}
    assert 0 <= data["max_defect"] < 1e-12
    assert abs(data["ground_energy"] - 5e149) <= 2 * np.spacing(5e149)


# ------------------------------------------------------------------ planck

def test_planck_json():
    status, out, err = run_cli("planck", "--a", "1e-25")
    assert status == 0 and err == ""
    data = json.loads(out)
    np.testing.assert_allclose(data["mass_kg"], 2.2102190943e-17, rtol=1e-9)
    np.testing.assert_allclose(data["h_roundtrip"], CONSTANTS.h, rtol=1e-12)


def test_planck_byte_determinism():
    assert run_cli("planck")[1] == run_cli("planck")[1]


# ------------------------------------------------------------------ output

def test_output_file_matches_stdout(tmp_path):
    stdout_text = run_cli("dispersion", "--q-samples", "7")[1]
    target = tmp_path / "disp.csv"
    status, out, err = run_cli("dispersion", "--q-samples", "7",
                               "--output", str(target))
    assert status == 0 and out == "" and err == ""
    assert target.read_text() == stdout_text


def test_output_unwritable_path():
    status, _, err = run_cli("planck", "--output", "/nonexistent-dir/out.json")
    assert status == 2 and "discretum planck:" in err


# ------------------------------------------------------------ console script

def test_console_script_installed(tmp_path):
    """The `discretum` command declared in pyproject.toml runs as an executable.

    Builds the standard entry-point launcher (import the object, call it,
    pass its return value to sys.exit) from `[project.scripts]` in tmp_path
    instead of relying on an installed copy, and runs it against this
    checkout's `src`.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["discretum"]
    module, attr = target.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "discretum"
    launcher.write_text("#!%s\nimport sys\nfrom %s import %s\nsys.exit(%s())\n"
                        % (sys.executable, module, attr, attr))
    launcher.chmod(0o755)
    exe = shutil.which("discretum", path=str(bindir))
    assert exe is not None, "console script 'discretum' not on PATH"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))

    proc = subprocess.run([exe, "planck"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == run_cli("planck")[1]

    # Status 2 comes back from main() itself, not from an argparse SystemExit,
    # so this checks that the launcher carries main()'s return value out.
    missing = str(tmp_path / "missing.json")
    proc = subprocess.run([exe, "fold", "--basis", missing, "--k", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("discretum fold:")


def test_module_invocation_matches():
    proc = subprocess.run([sys.executable, "-m", "discretum.cli", "planck"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == run_cli("planck")[1]
