"""Tests of the benchmark itself.

Every checker accepts a real output and rejects a corrupted one, and a short
run of each workload reports exactly the metrics BENCHMARK.json names.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on sys.path and imports discretum)
import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def real_output(workload, tmp_path, command):
    """First call of `command` in op 1 of `workload`, run and checked."""
    calls = workloads.make_op(workload, 7, 1, tmp_path)
    call = next(c for c in calls if c.argv[0] == command)
    status, out, err = run.invoke(call.argv)
    assert status == 0, err
    call.check(out)
    return call, out


def rejects(call, text):
    with pytest.raises(checks.CheckFailed):
        call.check(text)


def test_simulate_rejects_perturbed_energy_row(tmp_path):
    call, out = real_output("chain-long", tmp_path, "simulate")
    lines = out.split("\n")
    cells = lines[2].split(",")
    cells[7] = "%.17g" % (float(cells[7]) * (1 + 1e-6))
    lines[2] = ",".join(cells)
    rejects(call, "\n".join(lines))
    cells = lines[1].split(",")
    cells[1] = "%.17g" % (float(cells[1]) * (1 + 1e-5))
    lines[1] = ",".join(cells)
    rejects(call, "\n".join(lines))


def test_thermalize_rejects_broken_drift_step(tmp_path):
    call, out = real_output("gas", tmp_path, "thermalize")
    lines = out.split("\n")
    cells = lines[10].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[10] = ",".join(cells)
    rejects(call, "\n".join(lines))


def test_processes_rejects_missing_and_misordered_rows(tmp_path):
    call, out = real_output("survey", tmp_path, "processes")
    lines = out.split("\n")
    rejects(call, "\n".join(lines[:5] + lines[6:]))
    lines[5], lines[6] = lines[6], lines[5]
    rejects(call, "\n".join(lines))


def test_fold_rejects_wrong_representative(tmp_path):
    call, out = real_output("survey", tmp_path, "fold")
    folded = json.loads(out)
    recip = checks.reciprocal(call.check.keywords["vectors"])
    # Shifting by a reciprocal vector keeps k_folded + G = k but leaves the
    # first zone, so only the shortest-representative test can catch it.
    folded["k_folded"] = list(np.array(folded["k_folded"]) + recip[0])
    folded["g_indices"][0] -= 1
    rejects(call, json.dumps(folded) + "\n")


def test_commutator_rejects_wrong_corner(tmp_path):
    call, out = real_output("survey", tmp_path, "commutator")
    result = json.loads(out)
    result["corner"]["im"] -= 1.0
    rejects(call, json.dumps(result) + "\n")


def test_closed_form_checks_reject_perturbed_values(tmp_path):
    call, out = real_output("survey", tmp_path, "dispersion")
    lines = out.split("\n")
    q, omega = lines[3].split(",")
    lines[3] = "%s,%.17g" % (q, float(omega) * (1 + 1e-9))
    rejects(call, "\n".join(lines))
    call, out = real_output("survey", tmp_path, "planck")
    result = json.loads(out)
    result["mass_kg"] *= 1 + 1e-9
    rejects(call, json.dumps(result) + "\n")
    call, out = real_output("survey", tmp_path, "cutoff")
    result = json.loads(out)
    result["consistent"] = not result["consistent"]
    rejects(call, json.dumps(result) + "\n")


def test_channel_count_matches_the_known_total():
    strict, loose = checks.channel_counts(512, 0.05)
    assert strict == loose == 14534


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(100, 0, -1))) == (90, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *comments, last = proc.stdout.strip().split("\n")
    assert all(line.startswith("#") for line in comments)
    result = json.loads(last)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "# error_rate 0.000000" in proc.stdout
        assert "# span recorder imported: no" in proc.stdout


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "gas", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
