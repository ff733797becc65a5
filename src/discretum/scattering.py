"""Three-phonon processes on the chain and kinetic Monte Carlo relaxation.

A process (n1, n2) -> n3 conserves mode label modulo N exactly:
n1 + n2 = n3 + g*N with integer g; g != 0 marks a flip-over (umklapp)
channel that hands g*N grid units of quasi-momentum to the lattice as a
whole.  Frequency matching is enforced only to a configurable tolerance,
since exact triples are nearly absent on the sine dispersion.  The channels
form one ChannelTable: a row per channel, with integer columns n1, n2, n3, g
and the frequency residual delta_omega.

The Monte Carlo gas treats phonons as distinguishable counters: at each step
one applicable (channel, direction) pair is drawn uniformly — merge needs
both inputs occupied, split needs the output occupied — and applied.
Identical seeds give identical traces.  The ascending array of applicable
pairs is kept between events and rescanned only after an event leaves one
of its three modes below 4 phonons, the only case in which an applicability
flag can change; the draw from it, and so the random stream, is the same as
with a rescan before every event.
"""

from dataclasses import dataclass, fields

import numpy as np

from .dispersion import ModeGrid
from .errors import DiscretumError, require_finite

# Default frequency-residual tolerance as a fraction of omega_max.
DEFAULT_TOL_FACTOR = 0.05


@dataclass(frozen=True)
class ChannelTable:
    """Three-phonon channels (n1, n2) <-> n3 as read-only columns, one row each.

    `g` is the flip-over count, `delta_omega` the frequency residual
    |omega(n1) + omega(n2) - omega(n3)|.
    """

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    g: np.ndarray
    delta_omega: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            dtype = np.float64 if f.name == "delta_omega" else np.int64
            column = np.array(getattr(self, f.name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, f.name, column)
        shapes = {getattr(self, f.name).shape for f in fields(self)}
        if len(shapes) != 1 or self.n1.ndim != 1:
            raise DiscretumError(
                "channel columns must be 1-D and of equal length, got shapes %s"
                % sorted(shapes))
        if not (self.delta_omega >= 0).all():
            raise DiscretumError("delta_omega must be >= 0")

    def __len__(self):
        return self.n1.size


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
    labels = list(grid.labels[grid.labels > 0] if labels is None else labels)
    if total > 0 and not labels:
        raise DiscretumError("cannot deal %d phonons over no labels" % total)
    counts = {}
    for i, n in enumerate(labels):
        share = total // len(labels) + (i < total % len(labels))
        counts[n] = counts.get(n, 0) + share
    return PhononPopulation.from_counts(grid, counts)


def enumerate_three_phonon(grid, tol_omega):
    """All channels (n1 <= n2) -> n3 with frequency residual <= tol_omega.

    The zero label never participates (it is the uniform translation).  Rows
    of the returned ChannelTable are ordered by (n1, n2) ascending and are
    deterministic.  Each n1 handles its whole row of n2 >= n1 as arrays, so
    memory stays at the size of the result.
    """
    require_finite("tol_omega", tol_omega)
    if tol_omega < 0:
        raise DiscretumError("tol_omega must be >= 0")
    labels = grid.labels
    base, n_labels = int(labels[0]), labels.size
    omega = grid.omega(labels)
    # Label 0 never takes part: its NaN frequency fails every residual test.
    omega[-base] = np.nan
    # omega of wrap(n1 + n2), indexed by n1 + n2 - 2*base.
    omega_sum = omega[grid.wrap(np.arange(2 * base, 2 * labels[-1] + 1)) - base]
    row_n2, row_residual = [], []
    for i, n1 in enumerate(labels.tolist()):
        residual = np.abs(omega[i] + omega[i:] - omega_sum[2 * i:i + n_labels])
        keep = np.flatnonzero(residual <= tol_omega)
        row_n2.append(n1 + keep)
        row_residual.append(residual[keep])
    n1 = np.repeat(labels, [b.size for b in row_n2])
    n2 = np.concatenate(row_n2)
    n3 = grid.wrap(n1 + n2)
    return ChannelTable(n1, n2, n3, (n1 + n2 - n3) // grid.n_sites,
                        np.concatenate(row_residual))


@dataclass(frozen=True)
class KmcTrace:
    """Per-step record of one Monte Carlo run plus the final occupation.

    `event_indices` index the rows of the ChannelTable given to kmc_run.
    direction +1 is a merge (n1, n2) -> n3, -1 the reverse split.  Arrays
    are truncated at early termination and `status` says why.
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


def kmc_run(grid, initial, table, n_events, seed, mode="all"):
    """Run `n_events` uniformly sampled applicable events from `initial`.

    `table` is a ChannelTable on `grid`.  `mode` 'normal_only' restricts the
    run to its g == 0 rows; 'all' uses every row.  Each channel is usable in
    both directions (merge and split) whenever its input modes are occupied.
    """
    if mode not in ("all", "normal_only"):
        raise DiscretumError("mode must be 'all' or 'normal_only', got %r" % mode)
    if n_events < 0:
        raise DiscretumError("n_events must be >= 0")
    keep = (np.arange(len(table)) if mode == "all"
            else np.flatnonzero(table.g == 0))
    if keep.size == 0:
        raise DiscretumError("event set is empty for mode %r" % mode)

    labels_arr = grid.labels
    base = int(labels_arr[0])
    i1, i2, i3 = (n[keep] - base for n in (table.n1, table.n2, table.n3))
    gs = table.g[keep]
    om = grid.omega(labels_arr)
    d_omega = om[i3] - om[i1] - om[i2]
    n_ev = keep.size
    # Pair p (merges first, then splits) can fire when both of its input
    # modes in_a[p], in_b[p] hold at least need[p] phonons: a merge with
    # n1 == n2 takes two from one mode, a split one from n3.
    in_a = np.concatenate([i1, i3])
    in_b = np.concatenate([i2, i3])
    need = np.concatenate([np.where(i1 == i2, 2, 1), np.ones(n_ev, int)])

    counts, drift, energy = (initial.counts.copy(), initial.drift,
                             initial.total_energy)

    def applicable():  # ascending indices of the pairs that can fire
        return (np.minimum(counts[in_a], counts[in_b]) >= need).nonzero()[0]

    ev_rec, dir_rec, drift_rec = np.empty((3, n_events), dtype=np.int64)
    energy_rec = np.empty(n_events, dtype=np.float64)

    rng = np.random.default_rng(seed)
    applied = 0
    cand = applicable()
    while applied < n_events and cand.size:
        pick = int(cand[rng.integers(cand.size)])
        # Direction d: +1 merges (n1, n2) -> n3, -1 splits n3 -> (n1, n2).
        e, d = (pick, 1) if pick < n_ev else (pick - n_ev, -1)
        counts[i1[e]] -= d
        counts[i2[e]] -= d
        counts[i3[e]] += d
        drift -= d * int(gs[e]) * grid.n_sites
        energy += d * d_omega[e]
        ev_rec[applied] = e
        dir_rec[applied] = d
        drift_rec[applied] = drift
        energy_rec[applied] = energy
        applied += 1
        # A flag reads a count only through >= 1 and >= 2, and one event
        # moves a count by at most 2, so while every touched count is >= 4
        # no flag changed and `cand` is still exactly what a rescan returns.
        if min(counts[i1[e]], counts[i2[e]], counts[i3[e]]) < 4:
            cand = applicable()
    assert drift == int(np.dot(counts, labels_arr))
    status = "completed" if applied == n_events else "no_applicable_event"

    counts.setflags(write=False)
    return KmcTrace(event_indices=keep[ev_rec[:applied]],
                    directions=dir_rec[:applied], drifts=drift_rec[:applied],
                    energies=energy_rec[:applied], status=status,
                    initial_drift=initial.drift,
                    initial_energy=initial.total_energy, final_counts=counts)
