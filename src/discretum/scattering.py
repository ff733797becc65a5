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
Identical seeds give identical traces.  Each pair keeps an applicability
flag, and each mode knows the pairs whose flags read it.  A flag reads a
count only through >= 1 and >= 2, so after an event only the flags of the
pairs that read one of its modes holding fewer than 2 phonons before or
after it are recomputed, and the ascending array of applicable pairs is
rebuilt only when a flag changed.  The draw from it, and so the random
stream, is the same as with a rescan before every event.
"""

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dispersion import ModeGrid
from .errors import DiscretumError, require_finite, require_int

# Default frequency-residual tolerance as a fraction of omega_max.
DEFAULT_TOL_FACTOR = 0.05
KMC_MODES = ("all", "normal")  # kmc_run's event sets: every row, or g == 0
# enumerate_three_phonon computes the residuals of whole n1 rows in blocks of
# about this many floats (128 kB), so its scratch memory does not grow as N^2.
ENUM_BLOCK_FLOATS = 1 << 14


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
            column = np.array(getattr(self, f.name))
            if f.name == "delta_omega":
                column = column.astype(np.float64, copy=False)
            elif column.size and column.dtype.kind not in "iu":
                raise DiscretumError("%s must hold integers, got %s"
                                     % (f.name, column.dtype))
            else:
                column = column.astype(np.int64, copy=False)
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
        counts = np.array(self.counts)
        if counts.shape != (self.grid.n_sites,) or counts.dtype.kind not in "iu":
            raise DiscretumError("counts must be %d integers, got %s %s" % (
                self.grid.n_sites, counts.dtype, counts.shape))
        counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise DiscretumError("occupations must be >= 0")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, grid, mapping):
        """Build from a {label: count} mapping; unlisted labels are empty."""
        counts = [0] * grid.n_sites
        for n, c in mapping.items():
            counts[grid.row(n)] = c
        return cls(grid, counts)

    @property
    def total_energy(self):
        return float(np.dot(self.counts, self.grid.omega(self.grid.labels)))

    @property
    def drift(self):
        return int(np.dot(self.counts, self.grid.labels))

    def occupation(self, n):
        return int(self.counts[self.grid.row(n)])


def biased_population(grid, total):
    """`total` phonons dealt round-robin over labels 1..N/2, from 1 up;
    `total` must be an integer >= 0, a float or bool is rejected."""
    require_int("phonon count", total, minimum=0)
    k = grid.n_sites // 2  # labels 1..k are the last k rows
    counts = np.zeros(grid.n_sites, dtype=np.int64)
    counts[-k:] = total // k + (np.arange(k) < total % k)
    return PhononPopulation(grid, counts)


def enumerate_three_phonon(grid, tol_omega):
    """All channels (n1 <= n2) -> n3 with frequency residual <= tol_omega.

    The zero label never participates (it is the uniform translation).  Rows
    of the returned ChannelTable are ordered by (n1, n2) ascending and are
    deterministic.  The n1 rows are handled as arrays in blocks of about
    ENUM_BLOCK_FLOATS residuals each, so memory stays at one block plus the
    size of the result.
    """
    require_finite("tol_omega", tol_omega)
    if tol_omega < 0:
        raise DiscretumError("tol_omega must be >= 0")
    labels = grid.labels
    base, n_labels = int(labels[0]), labels.size
    omega = grid.omega(labels)
    # Label 0 never takes part: its NaN frequency fails every residual test.
    omega[-base] = np.nan
    # omega of wrap(n1 + n2), indexed by n1 + n2 - 2*base, so that
    # window[i, j] is the frequency of the mode that rows i and j merge into.
    omega_sum = omega[grid.wrap(np.arange(2 * base, 2 * labels[-1] + 1)) - base]
    window = sliding_window_view(omega_sum, n_labels)
    rows = np.arange(n_labels)
    step = max(1, ENUM_BLOCK_FLOATS // n_labels)
    blocks = []
    for start in range(0, n_labels, step):
        # Rows start.. of the block pair with columns start.. only: n2 >= n1.
        n1_rows, n2_rows = rows[start:start + step, None], rows[start:]
        residual = np.abs((omega[n1_rows] + omega[start:])
                          - window[start:start + step, start:])
        i, j = ((residual <= tol_omega) & (n2_rows >= n1_rows)).nonzero()
        blocks.append((start + i, start + j, residual[i, j]))
    i, j, residual = (np.concatenate(c) for c in zip(*blocks))
    n1, n2 = labels[i], labels[j]
    n3 = grid.wrap(n1 + n2)
    return ChannelTable(n1, n2, n3, (n1 + n2 - n3) // grid.n_sites, residual)


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


def kmc_run(initial, table, n_events, seed, mode="all"):
    """Run `n_events` uniformly sampled applicable events from `initial`.

    `table` holds channels n1 + n2 = n3 + g*N of the grid of `initial`;
    `mode` 'normal' keeps its g == 0 rows, 'all' every row.  Each channel is
    usable in both directions (merge and split) whenever its input modes are
    occupied.  `n_events` and `seed` must be integers >= 0, not bools.
    """
    if mode not in KMC_MODES:
        raise DiscretumError("mode must be 'all' or 'normal', got %r" % mode)
    require_int("n_events", n_events, minimum=0)
    require_int("seed", seed, minimum=0)
    grid = initial.grid
    base = int(grid.labels[0])
    rows = np.stack((table.n1, table.n2, table.n3)) - base
    if (((rows < 0) | (rows >= grid.n_sites)).any() or (
            table.n1 + table.n2 - table.n3 != table.g * grid.n_sites).any()):
        raise DiscretumError("table is not on the %d-site grid" % grid.n_sites)
    keep = np.flatnonzero((table.g == 0) | (mode == "all"))
    if keep.size == 0:
        raise DiscretumError("event set is empty for mode %r" % mode)

    i1, i2, i3 = rows[:, keep]
    gs = table.g[keep]
    om = grid.omega(grid.labels)
    d_omega = om[i3] - om[i1] - om[i2]
    n_ev = keep.size
    # Pair p (merges first, then splits) can fire when both of its input
    # modes in_a[p], in_b[p] hold at least need[p] phonons: a merge with
    # n1 == n2 takes two from one mode, a split one from n3.  Mode rows are
    # kept in the smallest unsigned dtype, which makes the stable sort below
    # a radix sort.
    small = np.min_scalar_type(grid.n_sites - 1)
    in_a = np.concatenate([i1, i3]).astype(small)
    in_b = np.concatenate([i2, i3]).astype(small)
    need = np.ones(2 * n_ev, dtype=np.uint8)
    need[:n_ev] += i1 == i2
    # Entries first[m]:first[m + 1] list the pairs `readers` whose flags
    # read mode m, with the other input mode `other` and the `need` of each
    # (a pair whose two inputs are one mode is listed twice).
    reads = np.concatenate([in_a, in_b])
    readers = np.argsort(reads, kind="stable")
    other = np.concatenate([in_b, in_a])[readers]
    readers %= 2 * n_ev
    least = need[readers]
    first = memoryview(np.concatenate(
        [[0], np.bincount(reads, minlength=grid.n_sites).cumsum()]))

    counts, drift, energy = (initial.counts.copy(), initial.drift,
                             initial.total_energy)
    ok = np.minimum(counts[in_a], counts[in_b]) >= need
    cand = ok.nonzero()[0]
    ev_rec, dir_rec, drift_rec = np.empty((3, n_events), dtype=np.int64)
    energy_rec = np.empty(n_events, dtype=np.float64)
    # The event loop reads and writes single elements through memoryviews,
    # as Python ints and floats: no numpy scalar per access.  The float
    # arithmetic is the same IEEE float64 as numpy's.
    c, a1, a2, a3, g_of, dw, ev, dr, dft, en = map(memoryview, (
        counts, i1, i2, i3, gs, d_omega, ev_rec, dir_rec, drift_rec,
        energy_rec))
    n_sites = grid.n_sites

    draw = np.random.default_rng(seed).integers
    applied, n_cand, cv = 0, cand.size, memoryview(cand)
    while applied < n_events and n_cand:
        pick = cv[draw(n_cand)]
        # Direction d: +1 merges (n1, n2) -> n3, -1 splits n3 -> (n1, n2).
        if pick < n_ev:
            e, d = pick, 1
        else:
            e, d = pick - n_ev, -1
        m1, m2, m3 = a1[e], a2[e], a3[e]
        b1, b2, b3 = c[m1], c[m2], c[m3]
        c[m1] -= d
        c[m2] -= d
        c[m3] += d
        drift -= d * g_of[e] * n_sites
        energy += d * dw[e]
        ev[applied] = e
        dr[applied] = d
        dft[applied] = drift
        en[applied] = energy
        applied += 1
        # A flag reads a count only through >= 1 and >= 2, so only the flags
        # that read a mode holding 0 or 1 phonons before or after the event
        # can change; an event moves a count by at most 2, so a mode that
        # held 4 or more before it is not one of them.
        if b1 < 4 or b2 < 4 or b3 < 4:
            changed = False
            for m, before in ((m1, b1), (m2, b2), (m3, b3)):
                now = c[m]
                if before < 2 or now < 2:
                    lo, hi = first[m], first[m + 1]
                    p = readers[lo:hi]
                    flags = (np.minimum(counts[other[lo:hi]], now)
                             >= least[lo:hi])
                    if (flags != ok[p]).any():
                        ok[p] = flags
                        changed = True
            if changed:
                cand = ok.nonzero()[0]
                n_cand, cv = cand.size, memoryview(cand)
    assert drift == int(np.dot(counts, grid.labels))
    status = "completed" if applied == n_events else "no_applicable_event"

    counts.setflags(write=False)
    return KmcTrace(event_indices=keep[ev_rec[:applied]],
                    directions=dir_rec[:applied], drifts=drift_rec[:applied],
                    energies=energy_rec[:applied], status=status,
                    initial_drift=initial.drift,
                    initial_energy=initial.total_energy, final_counts=counts)
