import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from discretum import (
    CONSTANTS,
    LatticeBasis,
    ModeGrid,
    OscillatorParams,
    biased_population,
    build_qp_matrices,
    chain_dispersion,
    commutator_defect,
    enumerate_three_phonon,
    fold_to_bz,
    kmc_run,
    reciprocal_basis,
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


@pytest.mark.parametrize("cli_mode,lib_mode",
                         [("all", "all"), ("normal", "normal_only")],
                         ids=["all", "normal"])
def test_thermalize_matches_library_run(cli_mode, lib_mode):
    argv = ("thermalize", "--n", "16", "--tol", "0.3", "--events", "40",
            "--seed", "9", "--phonons", "10", "--mode", cli_mode)
    status, out, _ = run_cli(*argv)
    assert status == 0
    _, rows = parse_csv(out)
    grid = ModeGrid(16, UNIT)
    table = enumerate_three_phonon(grid, 0.3 * grid.params.omega_max)
    assert table.g[0] != 0  # normal-only indices must skip this channel
    trace = kmc_run(grid, biased_population(grid, 10), table, 40, 9,
                    lib_mode)
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
    # stderr does not depend on what an earlier in-process run cached
    unstable = write_config(tmp_path, {
        "n_sites": 8, "steps": 1000, "stride": 500, "dt": 1.0,
        "init": {"type": "random", "seed": 1},
    })
    first = run_cli("simulate", "--config", unstable)
    assert first == run_cli("simulate", "--config", unstable)
    assert sum(line.startswith("warning: dt")
               for line in first[2].splitlines()) == 1


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
