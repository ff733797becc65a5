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
flag.  A flag reads a count only through >= 1 and >= 2: a pair that takes
one phonon from each of two modes, or splits one, is indexed under its input
modes and reset only when one of them fills from or drains to 0, and the
merge of two phonons of one mode changes only when that mode crosses 2.
The ascending array of applicable pairs is rebuilt only when a flag
changed.  The draw from it is numpy's `Generator.integers`, computed from
the generator's raw PCG64 words, so the random stream is the one a rescan
before every event with a scalar `integers` call per event gives.
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
# kmc_run reads its random words in blocks of at most this many PCG64 outputs.
WORD_BLOCK = 4096
INT64_MAX = int(np.iinfo(np.int64).max)  # drifts and counts are int64


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
    """Integer occupation per grid label (row i holds label grid.labels[i]);
    the total and the sum of count*|label| must fit int64."""

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
        exact = counts.astype(object)  # Python ints: these sums cannot wrap
        for name, value in (("phonon total", exact.sum()), (
                "sum of count*|label|", exact @ np.abs(self.grid.labels))):
            require_int(name, value, maximum=INT64_MAX)
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
    require_int("phonon count", total, minimum=0, maximum=INT64_MAX)
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


def _integers(seed, n_draws):
    """draw(n) for 1 <= n <= 2**32, equal call for call to the calls
    `integers(n)` of `np.random.default_rng(seed)`.

    For such n numpy's Generator uses Lemire's multiply-and-reject (ACM
    TOMACS 29(1), 2019) on the 32-bit words of PCG64: the low, then the high
    half of each 64-bit output.  The outputs are read with `random_raw`, the
    first block sized for `n_draws` draws of one word, all blocks at most
    WORD_BLOCK long.
    """
    def words():
        bits = np.random.PCG64(seed)
        block = min(n_draws // 2 + 8, WORD_BLOCK)
        while True:
            raw = bits.random_raw(block)
            yield from np.column_stack(
                (raw & 0xFFFFFFFF, raw >> 32)).ravel().tolist()
            block = WORD_BLOCK

    next_word = words().__next__

    def draw(n):
        if not 1 <= n <= 1 << 32:
            raise ValueError("draw bound must be in [1, 2**32], got %r" % n)
        if n == 1:
            return 0  # numpy reads no word for a single value
        m = next_word() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next_word() * n
        return m >> 32

    return draw


def kmc_run(initial, table, n_events, seed, mode="all"):
    """Run `n_events` uniformly sampled applicable events from `initial`.

    `table` holds channels n1 + n2 = n3 + g*N of the grid of `initial`;
    `mode` 'normal' keeps its g == 0 rows, 'all' every row.  Each channel is
    usable in both directions (merge and split) whenever its input modes are
    occupied.  `n_events` and `seed` must be integers >= 0, not bools; as an
    event moves the drift by at most N, |drift| + n_events*N must fit int64.

    The pair applied at each event is `cand[integers(cand.size)]` of
    `np.random.default_rng(seed)`, with `cand` the ascending applicable
    pairs (all merges, then all splits), the draw computed from the
    generator's raw words by `_integers`.  A pair that takes one phonon from
    each of two modes, or splits one, is indexed under its input modes, and
    its flag is reset only when one of them fills from or drains to 0; the
    flag of a merge of two phonons of one mode flips when that mode crosses
    2.  The loop keeps only the picks; drifts and energies follow from them.
    """
    if mode not in KMC_MODES:
        raise DiscretumError("mode must be 'all' or 'normal', got %r" % mode)
    require_int("n_events", n_events, minimum=0)
    require_int("seed", seed, minimum=0)
    grid = initial.grid
    n_sites = grid.n_sites
    base = int(grid.labels[0])
    rows = np.stack((table.n1, table.n2, table.n3)) - base
    if rows.size and (rows.min() < 0 or rows.max() >= n_sites or (
            table.n1 + table.n2 - table.n3 != table.g * n_sites).any()):
        raise DiscretumError("table is not on the %d-site grid" % n_sites)
    gs, keep = table.g, None  # keep: the rows used, when not all of them
    if mode == "normal" and gs.any():
        keep = np.flatnonzero(gs == 0)
        rows, gs = rows[:, keep], gs[keep]
    if not gs.size:
        raise DiscretumError("event set is empty for mode %r" % mode)
    i1, i2, i3 = rows
    n_ev = i1.size
    om = grid.omega(grid.labels)
    d_omega = om.take(i3) - om.take(i1) - om.take(i2)
    drift0, energy0 = initial.drift, initial.total_energy
    require_int("|drift| + events*N", abs(drift0) + n_events * n_sites,
                maximum=INT64_MAX)
    counts = initial.counts.copy()

    # Pair p < n_ev merges (n1, n2) -> n3 of row p, pair n_ev + p splits it.
    # A merge with n1 != n2 or a split fires when each input mode holds a
    # phonon: entries first[m]:first[m + 1] list those pairs `readers` that
    # read mode m, with their other input mode `other` (m itself for a
    # split).  A merge with n1 == n2 == m fires when m holds two: entries
    # twin_first[m]:twin_first[m + 1] of `twins` list them.  The modes that
    # are sorted and stored are of the smallest unsigned dtype, which makes
    # the stable sort a radix sort; pair ids stay intp, since numpy would
    # convert any other index dtype at each flag assignment.
    twin = i1 == i2
    merge = np.flatnonzero(~twin)
    s1, s2, s3 = rows.astype(np.min_scalar_type(n_sites - 1))
    reads = np.concatenate([s1.take(merge), s2.take(merge), s3])
    order = np.argsort(reads, kind="stable")
    other = np.concatenate([s2.take(merge), s1.take(merge), s3]).take(order)
    readers = np.concatenate([merge, merge, np.arange(n_ev, 2 * n_ev)]).take(
        order)
    first = memoryview(np.concatenate(
        [[0], np.bincount(reads, minlength=n_sites).cumsum()]))
    same = np.flatnonzero(twin)
    twin_modes = s1.take(same)
    twins = memoryview(same.take(np.argsort(twin_modes, kind="stable")))
    twin_first = memoryview(np.concatenate(
        [[0], np.bincount(twin_modes, minlength=n_sites).cumsum()]))

    ok = np.concatenate([
        np.minimum(counts.take(i1), counts.take(i2)) >= 1 + twin,
        counts.take(i3) > 0])
    cand = ok.nonzero()[0]
    # The event loop reads and writes single elements through memoryviews,
    # as Python ints: no numpy scalar per access.
    c, a1, a2, a3, okv = map(memoryview, (counts, i1, i2, i3, ok))
    draw = _integers(seed, n_events)
    picks = []
    record = picks.append
    n_cand, cv = cand.size, memoryview(cand)
    # Each event can be undone by the reverse pair, so a run that can start
    # never runs out of applicable pairs.
    for _ in range(n_events if n_cand else 0):
        pick = cv[draw(n_cand)]
        record(pick)
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
        # A flag reads a count only through >= 1 and >= 2; an event moves a
        # count by at most 2, so a mode that held 4 or more crosses neither.
        if b1 < 4 or b2 < 4 or b3 < 4:
            changed = False
            for m, before in ((m1, b1), (m2, b2), (m3, b3)):
                now = c[m]
                if (before == 0) != (now == 0):
                    # Every flag listed under m is off while m is empty; as
                    # it fills, each turns on where its other mode is
                    # occupied (counts are >= 0, so nonzero means >= 1).
                    lo, hi = first[m], first[m + 1]
                    p = readers[lo:hi]
                    flags = counts.take(other[lo:hi]).astype(bool) if now \
                        else ok.take(p)
                    if np.count_nonzero(flags):
                        ok[p] = flags if now else False
                        changed = True
                if (before >= 2) != (now >= 2):
                    for k in range(twin_first[m], twin_first[m + 1]):
                        okv[twins[k]] = now >= 2
                        changed = True
            if changed:
                cand = ok.nonzero()[0]
                n_cand, cv = cand.size, memoryview(cand)

    picks = np.array(picks, dtype=np.int64)
    splits = picks >= n_ev
    events = picks - n_ev * splits
    directions = 1 - 2 * splits
    drifts = drift0 - np.cumsum(directions * gs[events]) * n_sites
    # add.accumulate adds left to right, so each energy is the running
    # float64 sum that adding one event at a time gives.
    energies = np.add.accumulate(
        np.concatenate([[energy0], directions * d_omega[events]]))[1:]
    assert (drifts[-1] if picks.size else drift0) == int(
        np.dot(counts, grid.labels))
    status = "completed" if picks.size == n_events else "no_applicable_event"

    counts.setflags(write=False)
    return KmcTrace(event_indices=events if keep is None else keep[events],
                    directions=directions, drifts=drifts, energies=energies,
                    status=status, initial_drift=drift0,
                    initial_energy=energy0, final_counts=counts)
