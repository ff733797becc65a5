"""Span recorder for the traced run; the untraced run never imports it.

`Tracer` wraps every public function of the six discretum modules, and
`install()` rebinds each wrapper wherever a module looks the original up
(`dynamics.step`, `cli.chain_dispersion`, `scattering.chain_dispersion`,
...), so calls between layers are recorded as nested spans.  Spans are
aggregated in memory per function: calls, inclusive seconds and self seconds
(inclusive minus the spans nested directly inside).  A function that
re-enters itself (`emit_json` recurses) is recorded once, at the outermost
call.  `uninstall()` puts the originals back.
"""

import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("lattice", "dispersion", "dynamics", "scattering", "quantum_bridge",
          "cli")

# Floating-point operations of one Forest-Ruth `step` per site: three
# drift-kick stages of seven array operations each, then a final drift of
# two.  Counted from the array operations in the source, not measured.
STEP_FLOPS_PER_SITE = 3 * 7 + 2


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {}  # "module.function" -> [calls, seconds, self seconds]
        self.counters = defaultdict(float)
        self._child = [0.0]  # nested-span time of each open span
        self._observers = {
            "dynamics.step": self._observe_step,
            "scattering.enumerate_three_phonon": self._observe_enumerate,
            "scattering.kmc_run": self._observe_kmc,
            "cli.emit_csv": self._observe_emit,
            "cli.emit_json": self._observe_emit,
        }
        self._patches = self._bind()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        observe = self._observers.get(name)
        active = [False]

        def span(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = child.pop()
                child[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - nested
                active[0] = False
            if observe is not None:
                observe(fn, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    def _bind(self):
        """(module, name, original, wrapper) for every lookup to rebind."""
        modules = [getattr(self.package, layer) for layer in LAYERS]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap("%s.%s" % (short, name), obj)
        return [(module, name, obj, wrappers[id(obj)])
                for module in modules + [self.package]
                for name, obj in vars(module).items() if id(obj) in wrappers]

    def install(self):
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    # Counts taken at the layer boundaries, where the work happens.
    def _observe_step(self, fn, args, kwargs, result):
        self.counters["step_sites"] += result.n_sites

    def _observe_enumerate(self, fn, args, kwargs, result):
        self.counters["channels"] += len(result)

    def _observe_kmc(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        applied = result.n_applied
        drifts = np.concatenate([[result.initial_drift], result.drifts])
        self.counters["kmc_requested"] += bound.arguments["n_events"]
        self.counters["kmc_applied"] += applied
        self.counters["kmc_umklapp"] += np.count_nonzero(np.diff(drifts))
        self.counters["kmc_early_stops"] += result.status != "completed"

    def _observe_emit(self, fn, args, kwargs, result):
        self.counters["emit_bytes"] += len(result)

    def seconds(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_seconds(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_seconds(self, layer):
        """Time whose innermost open span is a function of `layer`."""
        return sum(s[2] for name, s in self.stats.items()
                   if name.split(".", 1)[0] == layer)

    def metrics(self, n_ops):
        """Per-layer metrics as {name: (value, unit)}; extensive ones per op."""
        c = self.counters

        def per_op(x):
            return x / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        def timed(name):
            return {name + ".calls": (per_op(self.calls(name)), "calls/op"),
                    name + ".s": (per_op(self.seconds(name)), "s/op")}

        step_s = self.seconds("dynamics.step")
        step_calls = self.calls("dynamics.step")
        kmc_s = self.seconds("scattering.kmc_run")
        fold_s = self.seconds("lattice.fold_to_bz")
        enumerations = self.calls("scattering.enumerate_three_phonon")
        out = {}
        out.update(timed("cli.main"))
        out.update(timed("cli.parse_args"))
        out["cli.emit.s"] = (per_op(self.seconds("cli.emit_csv")
                                    + self.seconds("cli.emit_json")), "s/op")
        out["cli.emit.bytes"] = (per_op(c["emit_bytes"]), "bytes/op")
        out.update(timed("dynamics.step"))
        out["dynamics.step.us_per_call"] = (1e6 * ratio(step_s, step_calls),
                                            "us")
        out["dynamics.step.flops_computed"] = (
            per_op(STEP_FLOPS_PER_SITE * c["step_sites"]), "flop/op")
        out["dynamics.sample.s"] = (per_op(sum(
            self.seconds("dynamics." + f)
            for f in ("total_energy", "to_modes", "mode_energies"))), "s/op")
        out["dynamics.to_modes.calls"] = (
            per_op(self.calls("dynamics.to_modes")), "calls/op")
        out["dynamics.run_sim.self_s"] = (
            per_op(self.self_seconds("dynamics.run_sim")), "s/op")
        out["scattering.kmc_run.s"] = (per_op(kmc_s), "s/op")
        out["scattering.kmc.events_applied"] = (per_op(c["kmc_applied"]),
                                                "events/op")
        out["scattering.kmc.us_per_event"] = (
            1e6 * ratio(kmc_s, c["kmc_applied"]), "us")
        out["scattering.kmc.applied_ratio"] = (
            ratio(c["kmc_applied"], c["kmc_requested"]), "ratio")
        out["scattering.kmc.umklapp_share"] = (
            ratio(c["kmc_umklapp"], c["kmc_applied"]), "ratio")
        out["scattering.kmc.early_stops"] = (per_op(c["kmc_early_stops"]),
                                             "stops/op")
        out.update(timed("scattering.enumerate_three_phonon"))
        out["scattering.channels"] = (ratio(c["channels"], enumerations),
                                      "count")
        out.update(timed("lattice.fold_to_bz"))
        out["lattice.fold_to_bz.us_per_call"] = (
            1e6 * ratio(fold_s, self.calls("lattice.fold_to_bz")), "us")
        for name in ("lattice.reciprocal_basis",
                     "quantum_bridge.build_qp_matrices",
                     "quantum_bridge.commutator_defect",
                     "quantum_bridge.ground_energy",
                     "dispersion.compare_cutoffs"):
            out[name + ".s"] = (per_op(self.seconds(name)), "s/op")
        out.update(timed("dispersion.chain_dispersion"))
        for layer in LAYERS:
            out[layer + ".self_s"] = (per_op(self.layer_self_seconds(layer)),
                                      "s/op")
        return out
