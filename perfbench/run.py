"""discretum benchmark: one client, one process, a closed loop of CLI calls.

    python3 perfbench/run.py --workload chain-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each op calls `discretum.cli.main(argv)` in process with stdout
captured in memory, and the next op starts only after the previous one has
returned and its output has passed the checks in `checks.py` (off the
clock).  Ops run until their summed latency reaches `--seconds`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json and never
imports the span recorder.  --trace 1 runs each op twice, untraced and under
the span recorder in `tracer.py`, until the untraced ops reach half of
`--seconds`, and reports the per-layer metrics plus `trace.overhead_ratio`,
the traced time over the untraced time of the same ops.

Human-readable lines start with '#'; the last line is the JSON result.
"""

import time

T_START = time.perf_counter()

import os

# One BLAS/OpenMP thread: the benchmark is single-threaded by design.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np

import checks
import workloads

if not (SRC / "discretum").is_dir():
    sys.exit("perfbench: no discretum source tree at %s" % SRC)
import discretum
from discretum import cli

if Path(discretum.__file__).resolve().parent != SRC / "discretum":
    sys.exit("perfbench: imported discretum from %s, not %s"
             % (discretum.__file__, SRC))

SETUP_PROBES = 4  # fresh interpreters timed in addition to this one
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def invoke(argv):
    """Call the CLI in process; returns (exit status or error, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a raising op is a failed op, not a crash
            status = "%s: %s" % (type(exc).__name__, exc)
    return status, out.getvalue(), err.getvalue()


def run_op(calls):
    """Time one op, then check it; returns (seconds, stdouts, counts, error)."""
    results = []
    t0 = time.perf_counter()
    for call in calls:
        results.append(invoke(call.argv))
    elapsed = time.perf_counter() - t0
    counts = {}
    for call, (status, out, err) in zip(calls, results):
        if status != 0:
            return elapsed, None, counts, "%s exited %r: %s" % (
                call.argv[0], status, err.strip()[-300:])
        try:
            for key, value in call.check(out).items():
                counts[key] = counts.get(key, 0) + value
        except (checks.CheckFailed, ValueError, KeyError,
                TypeError) as exc:
            return elapsed, None, counts, "%s: %s" % (call.argv[0], exc)
    return elapsed, [out for _, out, _ in results], counts, None


class Run:
    """Latencies, outcomes and work counts of a sequence of ops."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.latencies = []
        self.ok = []
        self.counts = {}
        self.attempted = 0
        self.failed = 0
        self.next_index = 1

    def op(self, index):
        calls = workloads.make_op(self.workload, self.seed, index, self.workdir)
        elapsed, outputs, counts, error = run_op(calls)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print("# op %d failed: %s" % (index, error), file=sys.stderr)
        self.latencies.append(elapsed)
        self.ok.append(error is None)
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value
        return outputs

    def determinism(self):
        """Warm up on op 0, twice and untimed; both must give the same bytes.

        The pair counts as one attempted op.
        """
        first = self.op(0)
        second = self.op(0)
        deterministic = first is not None and first == second
        if first is not None and second is not None and not deterministic:
            print("# op 0 is not deterministic", file=sys.stderr)
        self.latencies.clear()
        self.ok.clear()
        self.counts.clear()
        self.attempted = 1
        self.failed = 0 if deterministic else 1

    def until(self, seconds):
        """Run the next ops until their summed latency reaches `seconds`."""
        while self.busy < seconds:
            self.op(self.next_index)
            self.next_index += 1

    @property
    def busy(self):
        return sum(self.latencies)


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "discretum").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(), "source_sha256_16": source_digest(),
        "machine": platform.machine(),
    }


def probe_setup(args):
    """Setup seconds of a fresh interpreter, waited for."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("setup probe failed: " + proc.stderr[-500:])
    return float(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setup_times):
    tail_s, tail_pct = tail(run.latencies)
    completed = sum(run.ok)
    busy = run.busy
    n = len(run.latencies)
    print("# %d ops in %.3f s of op time" % (n, busy))
    print("# setup_s %.4f s (median of %d: %s)" % (
        statistics.median(setup_times), len(setup_times),
        ", ".join("%.4f" % t for t in setup_times)))
    print("# op_p50_s %.6f s (n=%d)" % (statistics.median(run.latencies), n))
    print("# op_tail_s %.6f s (p%.1f, n=%d)" % (tail_s, tail_pct, n))
    print("# ops_per_s %.4f 1/s" % (completed / busy))
    for key, name in (("site_steps", "site_steps_per_s"),
                      ("rows", "rows_per_s"), ("events", "kmc_events_per_s")):
        if key in run.counts:
            print("# %s %.1f 1/s (%d in %d ops)"
                  % (name, run.counts[key] / busy, run.counts[key], n))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# peak_rss_mb %.2f MB" % peak_rss_mb)
    print("# error_rate %.6f (%d of %d ops failed)"
          % (run.failed / run.attempted, run.failed, run.attempted))
    # Only these go into the result.  On a machine whose speed switches
    # between two levels every few seconds, the median and the mean of a run
    # follow the share of time spent at each level; the tail stays at the
    # slower level, so it repeats from run to run.
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def untraced(args, workdir, setup_s):
    run = Run(args.workload, args.seed, workdir)
    run.determinism()
    setup_times = [setup_s]
    # Probes are spread over the run (off the op clock) so that their
    # median samples the machine across the run, not in one second.
    for k in range(1, SETUP_PROBES + 1):
        run.until(args.seconds * k / SETUP_PROBES)
        setup_times.append(probe_setup(args))
    if "tracer" in sys.modules:
        raise RuntimeError("the untraced run imported the span recorder")
    print("# span recorder imported: no")
    metrics = end_to_end(run, setup_times)
    return run.attempted, run.failed, metrics


def traced(args, workdir):
    """Each op untraced and traced in turn, alternating which goes first.

    Pairing the two sides op by op exposes both to the same machine state,
    so their ratio is the tracing overhead rather than drift between halves.
    """
    import tracer

    recorder = tracer.Tracer(discretum)
    plain = Run(args.workload, args.seed, workdir)
    spans = Run(args.workload, args.seed, workdir)
    plain.determinism()
    n_ops = 0
    while plain.busy < args.seconds / 2.0:
        n_ops += 1
        if n_ops % 2:
            plain.op(n_ops)
        recorder.install()
        try:
            spans.op(n_ops)
        finally:
            recorder.uninstall()
        if not n_ops % 2:
            plain.op(n_ops)
    metrics = {"trace.overhead_ratio":
               metric(spans.busy / plain.busy, "ratio")}
    for name, (value, unit) in recorder.metrics(n_ops).items():
        metrics[name] = metric(value, unit)
    print("# %d ops untraced in %.3f s, traced in %.3f s"
          % (n_ops, plain.busy, spans.busy))
    for name, m in metrics.items():
        print("# %s %.6g %s" % (name, m["value"], m["unit"]))
    return (plain.attempted + spans.attempted, plain.failed + spans.failed,
            metrics)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Closed-loop benchmark of the discretum CLI.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="summed op latency to measure (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced replay")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workloads.make_op(args.workload, args.seed, 0, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        print("# env " + json.dumps(environment(args)))
        attempted, failed, metrics = (
            traced(args, workdir) if args.trace
            else untraced(args, workdir, setup_s))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
