"""Output checks for the benchmark's CLI calls.

Each check parses one subcommand's stdout and tests physical invariants and
closed forms, never golden bytes, so a change to the KMC random stream or to
the mode grids keeps them valid.  Every check raises CheckFailed on a bad
output and otherwise returns a dict of work counts taken from the output.

The checks use numpy only and never call into discretum: they are the
independent side of the comparison.
"""

import json
import math
from functools import lru_cache
from itertools import product

import numpy as np

# Exact SI defining values, kept apart from the package's own constants.
C = 299792458.0
H = 6.62607015e-34
EV = 1.602176634e-19


class CheckFailed(Exception):
    """An output broke an invariant; the message says which."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _csv(text, header):
    """Split CSV text into its data rows after verifying the header."""
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text[:-1].split("\n")
    _require(lines[0].split(",") == list(header),
             "unexpected header %r" % lines[0][:80])
    return [line.split(",") for line in lines[1:]]


def _floats(rows, width):
    _require(all(len(r) == width for r in rows), "ragged CSV rows")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _close(actual, expected, rtol, what):
    _require(abs(actual - expected) <= rtol * abs(expected),
             "%s: %r differs from %r" % (what, actual, expected))


def expected_sample_rows(steps, stride):
    """Rows run_sim samples: t=0, every stride-th step, and the last step."""
    return 1 + steps // stride + (1 if steps % stride else 0)


def check_simulate(text, n_sites, steps, stride):
    """Energy conservation and the Parseval mode sum on every sampled row."""
    header = ["t", "E_total"] + ["E_mode_%d" % j for j in range(n_sites)]
    rows = _csv(text, header)
    _require(len(rows) == expected_sample_rows(steps, stride),
             "%d rows, expected %d" % (len(rows),
                                       expected_sample_rows(steps, stride)))
    data = _floats(rows, n_sites + 2)
    _require(np.isfinite(data).all(), "non-finite value")
    _require(data[0, 0] == 0.0 and (np.diff(data[:, 0]) > 0).all(),
             "times do not start at 0 and increase")
    energy = data[:, 1]
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    _require(drift < 1e-6, "relative E_total drift %.3e >= 1e-6" % drift)
    defect = np.abs(data[:, 2:].sum(axis=1) - energy) / energy
    bad = np.flatnonzero(defect > 1e-9)
    _require(bad.size == 0, "row %d: mode energies miss E_total by %.3e"
             % (bad[0] if bad.size else 0, defect.max()))
    return {"rows": len(rows), "site_steps": n_sites * steps}


def round_robin_drift(n_sites, phonons):
    """Drift of `phonons` phonons dealt over labels 1..N/2 in turn."""
    labels = np.arange(1, n_sites // 2 + 1)
    full, rest = divmod(phonons, labels.size)
    return int(full * labels.sum() + labels[:rest].sum())


def check_thermalize(text, n_sites, phonons, events, tol):
    """The drift ledger: each event moves the drift by +-g*N and no more."""
    rows = _csv(text, ("step", "drift", "energy", "event_g"))
    _require(1 <= len(rows) <= events + 1,
             "%d rows for an event budget of %d" % (len(rows), events))
    _require(all(len(r) == 4 for r in rows), "ragged CSV rows")
    _require(rows[0][0] == "0" and rows[0][3] == "", "bad initial row")
    _require(int(rows[0][1]) == round_robin_drift(n_sites, phonons),
             "initial drift %s, expected %d"
             % (rows[0][1], round_robin_drift(n_sites, phonons)))
    step = np.array([int(r[0]) for r in rows])
    drift = np.array([int(r[1]) for r in rows])
    energy = np.array([float(r[2]) for r in rows])
    g = np.array([0] + [int(r[3]) for r in rows[1:]])
    _require((step == np.arange(len(rows))).all(), "steps not consecutive")
    _require(np.isin(g[1:], (-1, 0, 1)).all(), "flip-over count outside -1..1")
    d_drift = np.diff(drift)
    ledger = (d_drift == g[1:] * n_sites) | (d_drift == -g[1:] * n_sites)
    bad = np.flatnonzero(~ledger)
    _require(bad.size == 0, "row %d: drift moves by %d for g=%d"
             % ((bad[0] + 1, d_drift[bad[0]], g[bad[0] + 1]) if bad.size
                else (0, 0, 0)))
    omega_max = 2.0  # kappa = m = 1
    _require(np.isfinite(energy).all() and energy.min() >= 0.0,
             "negative or non-finite gas energy")
    _require(np.max(np.abs(np.diff(energy)), initial=0.0)
             <= tol * omega_max * (1.0 + 1e-9),
             "an event changes the energy by more than tol*omega_max")
    return {"events": len(rows) - 1}


def _wrap_labels(n, n_sites):
    m = n % n_sites
    return np.where(m <= n_sites // 2, m, m - n_sites)


@lru_cache(maxsize=8)
def channel_counts(n_sites, tol_factor):
    """Independent count of channels (n1 <= n2) -> n3 within tolerance.

    Returns (strict, loose): counts with the tolerance shrunk and grown by
    one part in 1e9, so a residual within rounding of the bound cannot make
    an exact comparison ambiguous.
    """
    labels = np.arange(-((n_sites - 1) // 2), n_sites // 2 + 1)
    labels = labels[labels != 0]
    i, j = np.triu_indices(labels.size)
    n1, n2 = labels[i], labels[j]
    n3 = _wrap_labels(n1 + n2, n_sites)
    keep = n3 != 0
    n1, n2, n3 = n1[keep], n2[keep], n3[keep]

    def omega(n):
        return 2.0 * np.abs(np.sin(np.pi * n / n_sites))

    residual = np.abs(omega(n1) + omega(n2) - omega(n3)) / 2.0
    return (int(np.count_nonzero(residual <= tol_factor * (1 - 1e-9))),
            int(np.count_nonzero(residual <= tol_factor * (1 + 1e-9))))


def check_processes(text, n_sites, tol, kappa, m):
    """Label conservation, tolerance, kind, order and the channel count."""
    rows = _csv(text, ("n1", "n2", "n3", "g", "delta_omega", "kind"))
    _require(all(len(r) == 6 for r in rows), "ragged CSV rows")
    ints = np.array([r[:4] for r in rows], dtype=np.int64).reshape(-1, 4)
    n1, n2, n3, g = ints.T
    d_omega = np.array([r[4] for r in rows], dtype=float)
    omega_max = 2.0 * math.sqrt(kappa / m)
    half = n_sites // 2
    for name, n in (("n1", n1), ("n2", n2), ("n3", n3)):
        _require(((n > half - n_sites) & (n <= half) & (n != 0)).all(),
                 "%s outside the nonzero labels" % name)
    _require((n1 <= n2).all(), "a row has n1 > n2")
    _require((n1 + n2 - n3 == g * n_sites).all(), "n1+n2-n3 != g*N")
    _require((d_omega >= 0).all() and (d_omega <= tol * omega_max).all(),
             "delta_omega outside [0, tol*omega_max]")
    def omega(n):
        return omega_max * np.abs(np.sin(np.pi * n / n_sites))

    recomputed = np.abs(omega(n1) + omega(n2) - omega(n3))
    _require(np.allclose(d_omega, recomputed, rtol=0, atol=1e-12 * omega_max),
             "delta_omega differs from the dispersion residual")
    kinds = np.array([r[5] for r in rows])
    _require((kinds == np.where(g != 0, "umklapp", "normal")).all(),
             "kind does not match g")
    key = n1 * (2 * n_sites) + n2
    _require((np.diff(key) > 0).all(), "rows not strictly ordered by (n1, n2)")
    strict, loose = channel_counts(n_sites, tol)
    _require(strict <= len(rows) <= loose,
             "%d channels, independent count %d" % (len(rows), loose))
    return {"channels": len(rows)}


def reciprocal(vectors):
    return 2.0 * np.pi * np.linalg.inv(np.asarray(vectors, dtype=float)).T


def check_fold(text, vectors, k):
    """k_folded + G = k, and no reciprocal-lattice neighbour is closer."""
    out = json.loads(text)
    _require(set(out) == {"k_folded", "g_indices"}, "unexpected keys")
    recip = reciprocal(vectors)
    k = np.asarray(k, dtype=float)
    kf = np.array(out["k_folded"], dtype=float)
    indices = np.array(out["g_indices"])
    _require(kf.shape == k.shape and indices.shape == k.shape
             and indices.dtype.kind == "i", "wrong shapes")
    scale = 1.0 + float(k @ k)
    _require(np.max(np.abs(kf + indices @ recip - k)) <= 1e-9 * math.sqrt(scale),
             "k_folded + G != k")
    shell = np.array([o for o in product(range(-2, 3), repeat=k.size) if any(o)])
    others = kf - shell @ recip
    shortest = float(np.min(np.einsum("ij,ij->i", others, others)))
    _require(shortest >= float(kf @ kf) - 1e-9 * scale,
             "a shell neighbour is shorter than k_folded")
    return {}


def check_commutator(text, n_dim, m, omega):
    """Corner -i(N-1), diagonal defect below 1e-12, ground energy omega/2."""
    out = json.loads(text)
    _require(list(out) == ["max_defect", "corner", "ground_energy"],
             "unexpected keys")
    _require(0.0 <= out["max_defect"] < 1e-12,
             "max_defect %r not below 1e-12" % out["max_defect"])
    corner = complex(out["corner"]["re"], out["corner"]["im"])
    _require(abs(corner + 1j * (n_dim - 1)) <= 1e-9 * n_dim,
             "corner %r != -i(N-1)" % corner)
    _close(out["ground_energy"], 0.5 * omega, 1e-9, "ground energy")
    return {}


def check_dispersion(text, kappa, m, a, samples):
    """Rows sample omega = 2 sqrt(kappa/m) |sin(q a/2)| on [-pi/a, pi/a]."""
    data = _floats(_csv(text, ("q", "omega")), 2)
    _require(len(data) == samples, "%d rows, expected %d"
             % (len(data), samples))
    q = np.linspace(-math.pi / a, math.pi / a, samples)
    _require(np.allclose(data[:, 0], q, rtol=1e-12, atol=0), "q grid differs")
    omega_max = 2.0 * math.sqrt(kappa / m)
    expected = omega_max * np.abs(np.sin(0.5 * q * a))
    _require(np.allclose(data[:, 1], expected, rtol=0, atol=1e-12 * omega_max),
             "omega differs from the closed form")
    return {}


def check_cutoff(text, eb_ev, mp_mev, stated_momentum):
    """Both estimation chains against their closed forms."""
    out = json.loads(text)
    _require(list(out) == ["exact", "stated", "consistent"], "unexpected keys")
    m_p = mp_mev * 1e6 * EV / C**2
    e_b = eb_ev * EV
    p = math.sqrt((e_b / C) ** 2 - (m_p * C) ** 2)
    expected = {
        "exact": (e_b, p),
        "stated": (C * math.sqrt(stated_momentum**2 + (m_p * C) ** 2),
                   stated_momentum),
    }
    for chain, (energy, momentum) in expected.items():
        got = out[chain]
        _close(got["E_b"], energy, 1e-12, chain + " E_b")
        _close(got["p_cut"], momentum, 1e-12, chain + " p_cut")
        _close(got["a_s"], H / momentum, 1e-12, chain + " a_s")
        _close(got["bz_extent"], 2 * math.pi * momentum / H, 1e-12,
               chain + " bz_extent")
    _require(out["consistent"] == (abs(p - stated_momentum) <= 0.01 * p),
             "consistent flag wrong")
    return {}


def check_planck(text, a):
    """Atom mass h/(c a) and the round trip m c a = h."""
    out = json.loads(text)
    _require(list(out) == ["mass_kg", "h_roundtrip"], "unexpected keys")
    _close(out["mass_kg"], H / (C * a), 1e-12, "mass")
    _close(out["h_roundtrip"], H, 1e-12, "h round trip")
    return {}
