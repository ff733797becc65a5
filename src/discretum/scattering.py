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
seeds give identical traces.  The ascending array of applicable pairs is
kept between events and rescanned only after an event leaves one of its
three modes below 4 phonons, the only case in which an applicability flag
can change; the draw from it, and so the random stream, is the same as with
a rescan before every event.  Channel enumeration works one n1 at a time
over all n2 >= n1 as arrays.
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
    if total < 0:
        raise DiscretumError("phonon count must be >= 0, got %r" % (total,))
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
    output is ordered by (n1, n2) ascending and is deterministic.  Each n1
    handles its whole row of n2 >= n1 as arrays, so memory stays at the size
    of the result.
    """
    if tol_omega < 0:
        raise DiscretumError("tol_omega must be >= 0")
    n_sites = grid.n_sites
    all_labels = grid.labels
    base = int(all_labels[0])
    omega = grid.omega(all_labels)
    labels = all_labels[all_labels != 0]
    events = []
    for i, n1 in enumerate(labels.tolist()):
        n2 = labels[i:]
        total = n1 + n2
        n3 = grid.wrap(total)
        residual = np.abs(omega[n1 - base] + omega[n2 - base]
                          - omega[n3 - base])
        keep = (n3 != 0) & (residual <= tol_omega)
        for b, c, g, r in zip(n2[keep].tolist(), n3[keep].tolist(),
                              ((total[keep] - n3[keep]) // n_sites).tolist(),
                              residual[keep].tolist()):
            events.append(ScatteringEvent(n1, b, c, g, r))
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

    labels_arr = grid.labels
    base = int(labels_arr[0])
    i1 = np.array([e.n1 - base for e in events])
    i2 = np.array([e.n2 - base for e in events])
    i3 = np.array([e.n3 - base for e in events])
    gs = np.array([e.g for e in events])
    om = grid.omega(labels_arr)
    d_omega = om[i3] - om[i1] - om[i2]
    n_ev = len(events)
    # Pair p (merges first, then splits) can fire when both of its input
    # modes in_a[p], in_b[p] hold at least need[p] phonons: a merge with
    # n1 == n2 takes two from one mode, a split one from n3.
    in_a = np.concatenate([i1, i3])
    in_b = np.concatenate([i2, i3])
    need = np.concatenate([np.where(i1 == i2, 2, 1), np.ones(n_ev, int)])

    counts = initial.counts.copy()
    drift = initial.drift
    energy = initial.total_energy

    def applicable():
        """Ascending indices of the pairs that can fire."""
        return (np.minimum(counts[in_a], counts[in_b]) >= need).nonzero()[0]

    ev_rec = np.empty(n_events, dtype=np.int64)
    dir_rec = np.empty(n_events, dtype=np.int64)
    drift_rec = np.empty(n_events, dtype=np.int64)
    energy_rec = np.empty(n_events, dtype=np.float64)

    rng = np.random.default_rng(seed)
    status = "completed"
    applied = 0
    cand = applicable()
    for s in range(n_events):
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
        # A flag reads a count only through >= 1 and >= 2, and one event
        # moves a count by at most 2, so while every touched count is >= 4
        # no flag changed and `cand` is still exactly what a rescan returns.
        if min(counts[i1[e]], counts[i2[e]], counts[i3[e]]) < 4:
            cand = applicable()
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
