"""Command-line entry point: argument parsing, dispatch, CSV/JSON emission.

Every run is deterministic: one seed drives all randomness, dict/field
order is fixed, and floats are serialized with 17 significant digits, so
identical configs produce byte-identical output.
"""

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import dynamics, lattice, quantum_bridge, scattering
from .dispersion import (CONSTANTS, PROTON_MASS, ModeGrid, OscillatorParams,
                         chain_dispersion, compare_cutoffs)
from .errors import DiscretumError


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return str(value)


def emit_json(obj):
    """Compact deterministic JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        return "{" + ", ".join(
            "%s: %s" % (json.dumps(str(k)), emit_json(v))
            for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(emit_json(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, float, int, np.integer, np.floating)):
        return _fmt(float(obj) if isinstance(obj, np.floating) else obj)
    raise TypeError("cannot serialize %r" % type(obj))


def emit_csv(header, rows):
    """CSV text with a header row; cells formatted per type."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if c != "" else "" for c in row))
    return "\n".join(lines) + "\n"


def _write(text, path):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json_file(path, required, optional=()):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DiscretumError("%s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise DiscretumError("%s: top level must be an object" % path)
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise DiscretumError(
            "%s: unknown key(s): %s" % (path, ", ".join(sorted(unknown))))
    missing = set(required) - set(data)
    if missing:
        raise DiscretumError(
            "%s: missing key(s): %s" % (path, ", ".join(sorted(missing))))
    return data


def _parse_vector(text):
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise DiscretumError("malformed vector %r" % text)


# ---------------------------------------------------------------- handlers

def _cmd_fold(args):
    data = _load_json_file(args.basis, ("dim", "vectors"))
    vectors = np.array(data["vectors"], dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != data["dim"]:
        raise DiscretumError(
            "%s: 'vectors' must be %s row vectors" % (args.basis, data["dim"]))
    basis = lattice.LatticeBasis(vectors)
    folded = lattice.fold_to_bz(lattice.reciprocal_basis(basis),
                                _parse_vector(args.k))
    return emit_json({
        "k_folded": [float(x) for x in folded.k_folded],
        "g_indices": list(folded.g.indices),
    }) + "\n"


def _grid(args):
    params = OscillatorParams(kappa=args.kappa, m=args.m, a=args.a)
    return ModeGrid(args.n, params)


def _cmd_processes(args):
    grid = _grid(args)
    events = scattering.enumerate_three_phonon(
        grid, args.tol * grid.params.omega_max)
    rows = [(e.n1, e.n2, e.n3, e.g, e.delta_omega, scattering.classify(e))
            for e in events]
    return emit_csv(("n1", "n2", "n3", "g", "delta_omega", "kind"), rows)


def _cmd_thermalize(args):
    grid = _grid(args)
    events = scattering.enumerate_three_phonon(
        grid, args.tol * grid.params.omega_max)
    mode = {"all": "all", "normal": "normal_only"}[args.mode]
    initial = scattering.biased_population(grid, args.phonons)
    trace = scattering.kmc_run(grid, initial, events, args.events, args.seed,
                               mode)
    rows = [(0, trace.initial_drift, trace.initial_energy, "")]
    for s in range(trace.n_applied):
        rows.append((s + 1, int(trace.drifts[s]), float(trace.energies[s]),
                     events[trace.event_indices[s]].g))
    return emit_csv(("step", "drift", "energy", "event_g"), rows)


def _cmd_simulate(args):
    data = _load_json_file(args.config,
                           ("n_sites", "steps", "init"),
                           ("kappa", "m", "a", "dt", "stride"))
    config = dynamics.SimConfig.from_dict(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = dynamics.run_sim(config)
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)
    header = ["t", "E_total"] + ["E_mode_%d" % j for j in range(config.n_sites)]
    rows = [
        (float(result.times[i]), float(result.total_energy[i]),
         *(float(x) for x in result.mode_energies[i]))
        for i in range(result.times.size)
    ]
    return emit_csv(header, rows)


def _cmd_dispersion(args):
    params = OscillatorParams(kappa=args.kappa, m=args.m, a=args.a)
    edge = math.pi / args.a
    qs = np.linspace(-edge, edge, args.q_samples)
    omegas = chain_dispersion(params, qs)
    return emit_csv(("q", "omega"),
                    [(float(q), float(w)) for q, w in zip(qs, omegas)])


def _cmd_cutoff(args):
    m_p = args.mp_MeV * 1e6 * CONSTANTS.eV / CONSTANTS.c**2
    comp = compare_cutoffs(CONSTANTS, args.Eb_eV * CONSTANTS.eV, m_p,
                           args.stated_momentum)
    def chain(est):
        return {"E_b": est.E_b, "p_cut": est.p_cut, "a_s": est.a_s,
                "bz_extent": est.bz_extent}
    return emit_json({
        "exact": chain(comp.exact),
        "stated": chain(comp.stated),
        "consistent": comp.consistent,
    }) + "\n"


def _cmd_commutator(args):
    q, p = quantum_bridge.build_qp_matrices(args.N, args.m, args.omega,
                                            args.hbar)
    max_defect, corner = quantum_bridge.commutator_defect(q, p, args.hbar)
    return emit_json({
        "max_defect": max_defect,
        "corner": {"re": corner.real, "im": corner.imag},
        "ground_energy": quantum_bridge.ground_energy(q, p, args.m,
                                                      args.omega),
    }) + "\n"


def _cmd_planck(args):
    mass = quantum_bridge.medium_atom_mass(CONSTANTS, args.a)
    inputs = quantum_bridge.RelationInputs(m=mass, a=args.a,
                                           omega=CONSTANTS.c / args.a)
    return emit_json({
        "mass_kg": mass,
        "h_roundtrip": quantum_bridge.planck_from_lattice(inputs),
    }) + "\n"


# ----------------------------------------------------------------- parsing

def _add_chain_flags(sub):
    sub.add_argument("--kappa", type=float, default=1.0,
                     help="spring constant (default 1)")
    sub.add_argument("--m", type=float, default=1.0, help="mass (default 1)")
    sub.add_argument("--a", type=float, default=1.0,
                     help="lattice spacing (default 1)")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="discretum",
        description="Harmonic-lattice toolkit: zone folding, chain dynamics, "
                    "phonon scattering, oscillator operator checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("fold", help="fold a wave vector into the first zone")
    sub.add_argument("--basis", required=True,
                     help="JSON file with 'dim' and 'vectors'")
    sub.add_argument("--k", required=True,
                     help="comma-separated wave-vector components")
    sub.set_defaults(func=_cmd_fold)

    sub = subs.add_parser("processes", help="enumerate three-phonon channels")
    sub.add_argument("--n", type=int, default=8, help="grid sites (default 8)")
    sub.add_argument("--tol", type=float, default=scattering.DEFAULT_TOL_FACTOR,
                     help="frequency tolerance as a fraction of omega_max "
                          "(default %g)" % scattering.DEFAULT_TOL_FACTOR)
    _add_chain_flags(sub)
    sub.set_defaults(func=_cmd_processes)

    sub = subs.add_parser("thermalize", help="run the Monte Carlo phonon gas")
    sub.add_argument("--n", type=int, default=32, help="grid sites (default 32)")
    sub.add_argument("--tol", type=float, default=scattering.DEFAULT_TOL_FACTOR,
                     help="frequency tolerance as a fraction of omega_max "
                          "(default %g)" % scattering.DEFAULT_TOL_FACTOR)
    sub.add_argument("--events", type=int, default=10000,
                     help="event budget (default 10000)")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--mode", choices=("all", "normal"), default="all",
                     help="event classes to allow (default all)")
    sub.add_argument("--phonons", type=int, default=100,
                     help="initial phonons, dealt round-robin over positive "
                          "labels (default 100)")
    _add_chain_flags(sub)
    sub.set_defaults(func=_cmd_thermalize)

    sub = subs.add_parser("simulate", help="integrate a chain per JSON config")
    sub.add_argument("--config", required=True, help="JSON config file")
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("dispersion", help="tabulate omega(q) over the zone")
    sub.add_argument("--q-samples", type=int, default=64,
                     help="number of q samples (default 64)")
    _add_chain_flags(sub)
    sub.set_defaults(func=_cmd_dispersion)

    sub = subs.add_parser("cutoff", help="energy-bound -> spacing estimators")
    sub.add_argument("--Eb-eV", type=float, default=1e21,
                     help="energy bound in eV (default 1e21)")
    sub.add_argument("--mp-MeV", type=float, default=938.272,
                     help="particle mass in MeV/c^2 (default proton)")
    sub.add_argument("--stated-momentum", type=float, default=1e-9,
                     help="separately quoted momentum in kg m/s "
                          "(default 1e-9)")
    sub.set_defaults(func=_cmd_cutoff)

    sub = subs.add_parser("commutator",
                          help="truncated-matrix commutator and ground energy")
    sub.add_argument("--N", type=int, default=64,
                     help="truncation dimension (default 64)")
    sub.add_argument("--hbar", type=float, default=1.0,
                     help="reduced action quantum (default 1)")
    sub.add_argument("--m", type=float, default=1.0, help="mass (default 1)")
    sub.add_argument("--omega", type=float, default=1.0,
                     help="frequency (default 1)")
    sub.set_defaults(func=_cmd_commutator)

    sub = subs.add_parser("planck",
                          help="medium atom mass and action-quantum roundtrip")
    sub.add_argument("--a", type=float, default=1e-25,
                     help="lattice spacing in m (default 1e-25)")
    sub.set_defaults(func=_cmd_planck)

    for sub_parser in subs.choices.values():
        sub_parser.add_argument("--output", default="-",
                                help="output file (default stdout)")

    return parser.parse_args(argv)


def dispatch(args):
    """Run the selected subcommand; returns the process exit status."""
    try:
        _write(args.func(args), args.output)
    except (DiscretumError, OSError) as exc:
        print("discretum %s: %s" % (args.command, exc), file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    return dispatch(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
