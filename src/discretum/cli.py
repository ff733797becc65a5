"""Command-line entry point: argument parsing, dispatch, CSV/JSON emission.

Every run is deterministic: one seed drives all randomness, dict/field
order is fixed, and floats are written as %.17g, so identical configs
produce byte-identical output.  `processes` builds its rows by gathering
the text of each cell, made once per call or block; each other CSV table
has one row format, a %-string given by the handler that knows its column
types.
"""

import argparse
import functools
import itertools
import json
import math
import sys
import warnings

import numpy as np

from . import dynamics, lattice, quantum_bridge, scattering
from .dispersion import (ELECTRON_VOLT, MAX_Q_SAMPLES, SPEED_OF_LIGHT,
                         ModeGrid, OscillatorParams, chain_dispersion,
                         compare_cutoffs)
from .errors import DiscretumError, require_finite, require_int


def emit_json(obj):
    """Compact deterministic JSON of dicts, lists, str, bool, int, float.

    Floats are written as %.17g; everything else that is not a container
    goes through json.dumps.
    """
    if isinstance(obj, dict):
        return "{" + ", ".join("%s: %s" % (json.dumps(k), emit_json(v))
                               for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(emit_json, obj)) + "]"
    if isinstance(obj, float):
        return "%.17g" % obj
    return json.dumps(obj)


EMIT_BLOCK_ROWS = 2**16


def emit_csv(header, blocks):
    """The header line, then each text block of `blocks` (an iterable of
    strings, each a whole number of rows), joined into one string."""
    return "".join(itertools.chain([",".join(header) + "\n"], blocks))


def _formatted(row_format, rows):
    """Text blocks of `row_format % row` for each row (a sequence).

    Rows are read and joined EMIT_BLOCK_ROWS at a time, so the list of row
    strings is one block long whatever the length of the table.
    """
    rows = iter(rows)
    while block := "".join([row_format % tuple(row) for row in
                            itertools.islice(rows, EMIT_BLOCK_ROWS)]):
        yield block


def _write(text, path):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json_file(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DiscretumError("%s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise DiscretumError("%s: top level must be an object" % path)
    return data


def _parse_vector(text):
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise DiscretumError("malformed vector %r" % text)


# ---------------------------------------------------------------- handlers

def _cmd_fold(args):
    data = _load_json_file(args.basis)
    if sorted(data) != ["dim", "vectors"]:
        raise DiscretumError("%s: keys must be 'dim' and 'vectors', got %s"
                             % (args.basis, ", ".join(sorted(data)) or "none"))
    basis = lattice.LatticeBasis(data["vectors"])
    if basis.dim != data["dim"]:
        raise DiscretumError(
            "%s: 'vectors' must be %s row vectors" % (args.basis, data["dim"]))
    folded = lattice.fold_to_bz(lattice.reciprocal_basis(basis),
                                _parse_vector(args.k))
    return emit_json({"k_folded": folded.k_folded.tolist(),
                      "g_indices": list(folded.g.indices)}) + "\n"


def _channels(args):
    grid = ModeGrid(args.n, OscillatorParams(args.kappa, args.m, args.a))
    return grid, scattering.enumerate_three_phonon(
        grid, args.tol * grid.params.omega_max)


def _cmd_processes(args):
    grid, table = _channels(args)
    # A row is gathered from the text of its cells: "n1," and "n2," from the
    # label text, "n3,g," from the text of the label sum n1 + n2, the residual
    # from the text of the block's distinct residuals, then ",kind\n".
    n = args.n
    sums = np.arange(-n, n + 1)
    wrapped = grid.wrap(sums)
    label = np.array(["%d," % i for i in sums.tolist()], dtype=object)
    merged = label.take(wrapped + n) + label.take((sums - wrapped) // n + n)
    kinds = np.array([",normal\n", ",umklapp\n"], dtype=object)

    def blocks():
        for start in range(0, len(table), EMIT_BLOCK_ROWS):
            cut = slice(start, start + EMIT_BLOCK_ROWS)
            values, inverse = np.unique(table.delta_omega[cut],
                                        return_inverse=True)
            residual = np.array(["%.17g" % v for v in values.tolist()],
                                dtype=object)
            i1, i2 = table.n1[cut] + n, table.n2[cut] + n
            cells = np.column_stack((
                label.take(i1), label.take(i2), merged.take(i1 + i2 - n),
                residual.take(inverse), kinds.take(table.g[cut] != 0)))
            yield "".join(cells.ravel().tolist())
    return emit_csv(("n1", "n2", "n3", "g", "delta_omega", "kind"), blocks())


def _cmd_thermalize(args):
    grid, table = _channels(args)
    initial = scattering.biased_population(grid, args.phonons)
    trace = scattering.kmc_run(initial, table, args.events, args.seed,
                               args.mode)
    if trace.status != "completed":
        print("warning: KMC stopped after %d of %d events: %s"
              % (trace.n_applied, args.events, trace.status), file=sys.stderr)
    rows = [(0, trace.initial_drift, trace.initial_energy, "")]
    rows.extend(zip(range(1, trace.n_applied + 1), trace.drifts.tolist(),
                    trace.energies.tolist(),
                    table.g[trace.event_indices].tolist()))
    # %s writes the initial row's empty event_g and an int as %d would.
    return emit_csv(("step", "drift", "energy", "event_g"),
                    _formatted("%d,%d,%.17g,%s\n", rows))


def _cmd_simulate(args):
    config = dynamics.SimConfig.from_dict(_load_json_file(args.config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = dynamics.run_sim(config)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print("warning: %s" % message, file=sys.stderr)
    header = ["t", "E_total"] + ["E_mode_%d" % j for j in range(config.n_sites)]
    rows = ((t, e, *modes.tolist()) for t, e, modes in zip(
        result.times.tolist(), result.total_energy.tolist(),
        result.mode_energies))
    return emit_csv(header, _formatted(
        ",".join(["%.17g"] * len(header)) + "\n", rows))


def _cmd_dispersion(args):
    require_int("--q-samples", args.q_samples, minimum=0, maximum=MAX_Q_SAMPLES)
    params = OscillatorParams(kappa=args.kappa, m=args.m, a=args.a)
    edge = math.pi / args.a
    require_finite("zone edge pi/a", edge)
    qs = np.linspace(-edge, edge, args.q_samples)
    return emit_csv(("q", "omega"), _formatted("%.17g,%.17g\n", zip(
        qs.tolist(), chain_dispersion(params, qs).tolist())))


def _cmd_cutoff(args):
    m_p = args.mp_MeV * 1e6 * ELECTRON_VOLT / SPEED_OF_LIGHT**2
    comp = compare_cutoffs(args.Eb_eV * ELECTRON_VOLT, m_p,
                           args.stated_momentum)
    keys = ("E_b", "p_cut", "a_s", "bz_extent")
    return emit_json({
        "exact": {k: getattr(comp.exact, k) for k in keys},
        "stated": {k: getattr(comp.stated, k) for k in keys},
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
    mass = quantum_bridge.medium_atom_mass(args.a)
    h = quantum_bridge.planck_from_lattice(mass, args.a)
    return emit_json({"mass_kg": mass, "h_roundtrip": h}) + "\n"


# ----------------------------------------------------------------- parsing

def _add_chain_flags(sub):
    sub.add_argument("--kappa", type=float, default=1.0,
                     help="spring constant (default 1)")
    sub.add_argument("--m", type=float, default=1.0, help="mass (default 1)")
    sub.add_argument("--a", type=float, default=1.0,
                     help="lattice spacing (default 1)")


@functools.cache  # the argparse tree is built on the first parse, then reused
def _parser():
    parser = argparse.ArgumentParser(
        prog="discretum",
        description="Harmonic-lattice toolkit: zone folding, chain dynamics, "
                    "phonon scattering, oscillator operator checks.")
    subs = parser.add_subparsers(dest="command", required=True)
    tol = dict(type=float, default=scattering.DEFAULT_TOL_FACTOR,
               help="frequency tolerance as a fraction of omega_max "
                    "(default %g)" % scattering.DEFAULT_TOL_FACTOR)

    sub = subs.add_parser("fold", help="fold a wave vector into the first zone")
    sub.add_argument("--basis", required=True,
                     help="JSON file with 'dim' and 'vectors'")
    sub.add_argument("--k", required=True,
                     help="comma-separated wave-vector components")
    sub.set_defaults(func=_cmd_fold)

    sub = subs.add_parser("processes", help="enumerate three-phonon channels")
    sub.add_argument("--n", type=int, default=8, help="grid sites (default 8)")
    sub.add_argument("--tol", **tol)
    _add_chain_flags(sub)
    sub.set_defaults(func=_cmd_processes)

    sub = subs.add_parser("thermalize", help="run the Monte Carlo phonon gas")
    sub.add_argument("--n", type=int, default=32, help="grid sites (default 32)")
    sub.add_argument("--tol", **tol)
    sub.add_argument("--events", type=int, default=10000,
                     help="event budget (default 10000)")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--mode", choices=scattering.KMC_MODES, default="all",
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
    return parser


def parse_args(argv):
    return _parser().parse_args(argv)


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
