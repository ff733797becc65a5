"""Workloads: the seed-generated CLI calls that make up one op.

An op is a list of calls to `discretum.cli.main`.  Op `index` of a run with
workload seed `seed` draws all of its inputs from
`numpy.random.default_rng([seed, index])`, so the same seed gives the same
inputs however many ops a run gets through.  Config and basis files go to
the run's work directory; the program sees only those files and the argv.
"""

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

import checks

# Sizes.  chain-long keeps sampling under 0.2% of steps; chain-sampled
# samples and emits every step of a wide chain; gas spends most of an op in
# kmc_run's O(channels) work over 3550 channels, with ops short enough that
# a 20 s run holds over 100 of them and the tail is a high percentile; a
# survey round touches every other subcommand once and fold twenty times.
CHAIN_LONG = {"n_sites": 64, "steps": 2000, "stride": 1000}
CHAIN_SAMPLED = {"n_sites": 1024, "steps": 50, "stride": 1}
GAS = {"n_sites": 256, "phonons": 2000, "events": 1000}
TOL = 0.05  # the CLI's default channel tolerance, passed explicitly
SURVEY_FOLDS = 20
SURVEY_PROCESSES_N = 512
SURVEY_COMMUTATOR_N = 256


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its stdout must pass."""

    argv: list
    check: partial


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _num(x):
    return "%.17g" % x


def _simulate(rng, workdir, n_sites, steps, stride):
    config = {"n_sites": n_sites, "steps": steps, "stride": stride,
              "init": {"type": "random",
                       "seed": int(rng.integers(2**31)),
                       "amplitude": float(rng.uniform(0.5, 2.0))}}
    path = _write_json(workdir / "chain.json", config)
    return Call(["simulate", "--config", path],
                partial(checks.check_simulate, n_sites=n_sites, steps=steps,
                        stride=stride))


def chain_long(rng, workdir):
    return [_simulate(rng, workdir, **CHAIN_LONG)]


def chain_sampled(rng, workdir):
    return [_simulate(rng, workdir, **CHAIN_SAMPLED)]


def gas(rng, workdir):
    argv = ["thermalize", "--n", str(GAS["n_sites"]), "--tol", _num(TOL),
            "--phonons", str(GAS["phonons"]), "--events", str(GAS["events"]),
            "--seed", str(int(rng.integers(2**31))), "--mode", "all"]
    return [Call(argv, partial(checks.check_thermalize, n_sites=GAS["n_sites"],
                               phonons=GAS["phonons"], events=GAS["events"],
                               tol=TOL))]


def random_basis(rng):
    """A rotated, mildly sheared 3-D cell: well conditioned but not cubic."""
    a0 = rng.uniform(0.5, 2.0)
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return a0 * (np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))) @ rotation


def _fold(rng, workdir, i):
    vectors = random_basis(rng)
    k = rng.uniform(-4.0, 4.0, 3) * 2.0 * math.pi / np.linalg.norm(vectors[0])
    path = _write_json(workdir / ("basis_%02d.json" % i),
                       {"dim": 3, "vectors": vectors.tolist()})
    # "--k=" keeps argparse from reading a leading minus as an option.
    return Call(["fold", "--basis", path, "--k=" + ",".join(map(_num, k))],
                partial(checks.check_fold, vectors=vectors, k=k))


def survey(rng, workdir):
    calls = [_fold(rng, workdir, i) for i in range(SURVEY_FOLDS)]
    kappa, m = rng.uniform(0.5, 2.0, 2)
    calls.append(Call(
        ["processes", "--n", str(SURVEY_PROCESSES_N), "--tol", _num(TOL),
         "--kappa", _num(kappa), "--m", _num(m)],
        partial(checks.check_processes, n_sites=SURVEY_PROCESSES_N, tol=TOL,
                kappa=kappa, m=m)))
    m, omega = rng.uniform(0.5, 2.0, 2)
    calls.append(Call(
        ["commutator", "--N", str(SURVEY_COMMUTATOR_N), "--m", _num(m),
         "--omega", _num(omega)],
        partial(checks.check_commutator, n_dim=SURVEY_COMMUTATOR_N, m=m,
                omega=omega)))
    kappa, m, a = rng.uniform(0.5, 2.0, 3)
    samples = int(rng.integers(64, 257))
    calls.append(Call(
        ["dispersion", "--q-samples", str(samples), "--kappa", _num(kappa),
         "--m", _num(m), "--a", _num(a)],
        partial(checks.check_dispersion, kappa=kappa, m=m, a=a,
                samples=samples)))
    eb_ev = 10.0 ** rng.uniform(19.0, 22.0)
    stated = 10.0 ** rng.uniform(-10.0, -8.5)
    calls.append(Call(
        ["cutoff", "--Eb-eV", _num(eb_ev), "--mp-MeV", "938.272",
         "--stated-momentum", _num(stated)],
        partial(checks.check_cutoff, eb_ev=eb_ev, mp_mev=938.272,
                stated_momentum=stated)))
    a = 10.0 ** rng.uniform(-26.0, -24.0)
    calls.append(Call(["planck", "--a", _num(a)],
                      partial(checks.check_planck, a=a)))
    return calls


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "chain-long": chain_long,
    "chain-sampled": chain_sampled,
    "gas": gas,
    "survey": survey,
}


def make_op(workload, seed, index, workdir):
    """The calls of op `index`; same (seed, index) gives the same calls."""
    return WORKLOADS[workload](np.random.default_rng([seed, index]), workdir)
