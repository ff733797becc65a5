"""Three-phonon processes on the chain and kinetic Monte Carlo relaxation.

A process (n1, n2) -> n3 conserves mode label modulo N exactly:
n1 + n2 = n3 + g*N with integer g; g != 0 marks a flip-over event that hands
g*N grid units of quasi-momentum to the lattice as a whole.  Frequency
matching is enforced only to a configurable tolerance, since exact triples
are nearly absent on the sine dispersion; the per-event residual is kept on
the event.

The Monte Carlo gas treats phonons as distinguishable counters: at each step
one applicable (event, direction) pair is drawn uniformly — merge needs both
inputs occupied, split needs the output occupied — and applied.  Identical
seeds give identical traces.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import ModeGrid
from .errors import DiscretumError

# Default frequency-residual tolerance as a fraction of omega_max.
DEFAULT_TOL_FACTOR = 0.05


@dataclass(frozen=True)
class ScatteringEvent:
    """One three-phonon channel (n1, n2) <-> n3 with its flip-over count g."""

    n1: int
    n2: int
    n3: int
    g: int
    delta_omega: float

    def __post_init__(self):
        if self.delta_omega < 0:
            raise DiscretumError("delta_omega must be >= 0")


def classify(event):
    """'umklapp' for g != 0, else 'normal'."""
    return "umklapp" if event.g != 0 else "normal"


@dataclass(frozen=True)
class PhononPopulation:
    """Integer occupation per grid label (row i holds label grid.labels[i])."""

    grid: ModeGrid
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape != self.grid.labels.shape:
            raise DiscretumError(
                "counts shape %s does not match the %d grid labels"
                % (counts.shape, self.grid.labels.size))
        if (counts < 0).any():
            raise DiscretumError("occupations must be >= 0")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, grid, mapping):
        """Build from a {label: count} mapping; unlisted labels are empty."""
        labels = grid.labels
        counts = np.zeros(labels.size, dtype=np.int64)
        base = int(labels[0])
        for n, c in mapping.items():
            if not (labels[0] <= n <= labels[-1]):
                raise DiscretumError("label %r outside the grid" % (n,))
            counts[int(n) - base] = c
        return cls(grid, counts)

    @property
    def total_energy(self):
        return float(np.dot(self.counts, self.grid.omega(self.grid.labels)))

    @property
    def drift(self):
        return int(np.dot(self.counts, self.grid.labels))

    def occupation(self, n):
        return int(self.counts[int(n) - int(self.grid.labels[0])])


def biased_population(grid, total, labels=None):
    """`total` phonons dealt round-robin over `labels` (default 1..N/2)."""
    if labels is None:
        labels = [int(n) for n in grid.labels if n > 0]
    labels = list(labels)
    counts = {}
    for i in range(total):
        n = labels[i % len(labels)]
        counts[n] = counts.get(n, 0) + 1
    return PhononPopulation.from_counts(grid, counts)


def enumerate_three_phonon(grid, tol_omega):
    """All channels (n1 <= n2) -> n3 with frequency residual <= tol_omega.

    The zero label never participates (it is the uniform translation).  The
    output is ordered by (n1, n2) ascending and is deterministic.
    """
    if tol_omega < 0:
        raise DiscretumError("tol_omega must be >= 0")
    labels = [int(n) for n in grid.labels if n != 0]
    omega = {n: float(grid.omega(n)) for n in labels}
    events = []
    for i, n1 in enumerate(labels):
        for n2 in labels[i:]:
            n3 = grid.wrap(n1 + n2)
            if n3 == 0:
                continue
            g = (n1 + n2 - n3) // grid.n_sites
            residual = abs(omega[n1] + omega[n2] - omega[n3])
            if residual <= tol_omega:
                events.append(ScatteringEvent(n1, n2, n3, g, residual))
    return events


@dataclass(frozen=True)
class KmcTrace:
    """Per-step record of one Monte Carlo run plus the final occupation.

    `event_indices` index the `events` list given to kmc_run.  direction +1
    is a merge (n1, n2) -> n3, -1 the reverse split.  Arrays are truncated
    at early termination and `status` says why.
    """

    event_indices: np.ndarray
    directions: np.ndarray
    drifts: np.ndarray
    energies: np.ndarray
    status: str
    initial_drift: int
    initial_energy: float
    final_counts: np.ndarray

    @property
    def n_applied(self):
        return self.event_indices.size


def kmc_run(grid, initial, events, n_events, seed, mode="all"):
    """Run `n_events` uniformly sampled applicable events from `initial`.

    `mode` 'normal_only' restricts the event set to g == 0 channels; 'all'
    uses it unchanged.  Each event is usable in both directions (merge and
    split) whenever its input modes are occupied.
    """
    if mode not in ("all", "normal_only"):
        raise DiscretumError("mode must be 'all' or 'normal_only', got %r" % mode)
    if n_events < 0:
        raise DiscretumError("n_events must be >= 0")
    keep = (np.arange(len(events)) if mode == "all"
            else np.flatnonzero([e.g == 0 for e in events]))
    if keep.size == 0:
        raise DiscretumError("event set is empty for mode %r" % mode)
    events = [events[i] for i in keep]

    base = int(grid.labels[0])
    i1 = np.array([e.n1 - base for e in events])
    i2 = np.array([e.n2 - base for e in events])
    i3 = np.array([e.n3 - base for e in events])
    gs = np.array([e.g for e in events])
    d_omega = np.array([float(grid.omega(e.n3))
                        - float(grid.omega(e.n1)) - float(grid.omega(e.n2))
                        for e in events])
    same = i1 == i2
    n_ev = len(events)

    counts = initial.counts.copy()
    drift = initial.drift
    energy = initial.total_energy
    labels_arr = grid.labels

    ev_rec = np.empty(n_events, dtype=np.int64)
    dir_rec = np.empty(n_events, dtype=np.int64)
    drift_rec = np.empty(n_events, dtype=np.int64)
    energy_rec = np.empty(n_events, dtype=np.float64)

    rng = np.random.default_rng(seed)
    status = "completed"
    applied = 0
    for s in range(n_events):
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
            dir_rec[s] = 1
        else:
            e = pick - n_ev
            counts[i3[e]] -= 1
            counts[i1[e]] += 1
            counts[i2[e]] += 1
            drift += int(gs[e]) * grid.n_sites
            energy -= d_omega[e]
            dir_rec[s] = -1
        ev_rec[s] = e
        drift_rec[s] = drift
        energy_rec[s] = energy
        applied += 1
    assert drift == int(np.dot(counts, labels_arr))

    counts.setflags(write=False)
    return KmcTrace(event_indices=keep[ev_rec[:applied]],
                    directions=dir_rec[:applied],
                    drifts=drift_rec[:applied],
                    energies=energy_rec[:applied],
                    status=status,
                    initial_drift=initial.drift,
                    initial_energy=initial.total_energy,
                    final_counts=counts)
