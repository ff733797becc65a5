"""Oscillator operator checks: exact symbolic reduction and truncated matrices.

The symbolic side works in the free algebra over non-commuting symbols with
coefficients that are exact rationals times integer powers of the frequency
omega, so the reduction of the per-mode energy form to half*omega*(pq - qp)
is tolerance-free.  The matrix side realizes position/momentum as truncated
ladder-operator combinations, held as their bands, where the canonical
commutator holds on every diagonal entry except the truncation corner.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DiscretumError, require_int, require_positive


def _collect(pairs):
    """Sum (word, {omega_power: coeff}) pairs into canonical terms."""
    out = {}
    for word, poly in pairs:
        tgt = out.setdefault(tuple(word), {})
        for k, v in poly.items():
            tgt[k] = tgt.get(k, 0) + v
    return {w: kept for w, p in out.items()
            if (kept := {k: v for k, v in p.items() if v != 0})}


class NcExpression:
    """Linear combination of ordered words in non-commuting symbols.

    Coefficients are Laurent polynomials in omega with Fraction
    coefficients, stored as {word: {omega_power: Fraction}}.  Equality is
    structural on the canonical form (zero terms pruned).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _collect((terms or {}).items())

    @classmethod
    def symbol(cls, name):
        return cls({(name,): {0: Fraction(1)}})

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self):
        return not self.terms

    def scaled(self, coeff, omega_power=0):
        """Multiply by coeff * omega**omega_power."""
        return self * NcExpression({(): {omega_power: Fraction(coeff)}})

    def __add__(self, other):
        return NcExpression(_collect([*self.terms.items(),
                                      *other.terms.items()]))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        return NcExpression(_collect(
            (w1 + w2, {k1 + k2: v1 * v2})
            for w1, p1 in self.terms.items() for w2, p2 in other.terms.items()
            for k1, v1 in p1.items() for k2, v2 in p2.items()))

    def substitute(self, mapping):
        """Replace symbols by expressions (identity for unlisted symbols)."""
        result = NcExpression.zero()
        for word, poly in self.terms.items():
            prod = NcExpression({(): dict(poly)})
            for sym in word:
                prod = prod * mapping.get(sym, NcExpression.symbol(sym))
            result = result + prod
        return result

    def commutative_image(self):
        """Forget ordering: sort each word's symbols and re-collect."""
        return NcExpression(_collect((sorted(word), poly)
                                     for word, poly in self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, NcExpression) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(
            (w, frozenset(p.items())) for w, p in self.terms.items()))

    def __repr__(self):
        return " + ".join(
            "(%s)%s*%s" % (poly[k], {0: "", 1: "*w"}.get(k, "*w^%d" % k),
                           "".join(word) or "1")
            for word, poly in sorted(self.terms.items()) for k in sorted(poly)
        ) or "0"


def mode_hamiltonian():
    """The per-mode energy form (1/2)*(p p* + w^2 q q*) over free symbols."""
    return NcExpression({("p", "p*"): {0: Fraction(1, 2)},
                         ("q", "q*"): {2: Fraction(1, 2)}})


def reduce_mode_hamiltonian():
    """Insert p* := w*q and q* := -p/w into the per-mode energy form.

    The substitution rules are the source text's verbatim pairing (they drop
    the imaginary units a literal complex conjugation would keep; the
    identity-substitution behaviour is checked separately in tests).  The
    result canonicalizes to exactly (1/2)*w*(pq - qp).
    """
    return mode_hamiltonian().substitute({
        "p*": NcExpression.symbol("q").scaled(1, 1),
        "q*": NcExpression.symbol("p").scaled(-1, -1),
    })


MAX_DIMENSION = 4096  # bounds the dense N/2 x N/2 ground-energy blocks


@dataclass(frozen=True)
class OperatorMatrix:
    """Hermitian band matrix tagged with its operator role: `bands[k]` is
    superdiagonal k (N - k entries; k = 0 the real diagonal), subdiagonal k
    its conjugate.  Position and momentum hold band 1 only (tridiagonal with
    a zero diagonal); the Hamiltonian holds bands 0 and 2."""

    bands: dict
    role: str

    def __post_init__(self):
        offsets = {"position": [1], "momentum": [1], "hamiltonian": [0, 2]}
        if sorted(self.bands) != offsets.get(self.role):
            raise DiscretumError("operator roles and bands are %s, got %r with %s"
                                 % (offsets, self.role, sorted(self.bands)))
        bands = {k: np.array(band) for k, band in self.bands.items()}
        object.__setattr__(self, "bands", bands)
        n = self.dimension
        if (any(band.shape != (n - k,) for k, band in bands.items())
                or np.any(np.imag(bands.get(0, 0.0)) != 0)):
            raise DiscretumError("%s matrix is not Hermitian N x N: band k "
                                 "needs N - k entries, band 0 real" % self.role)
        for band in bands.values():
            band.setflags(write=False)

    @property
    def dimension(self):
        return min(k + band.size for k, band in self.bands.items())


def build_qp_matrices(n_dim, m, omega, hbar=1.0):
    """Truncated position/momentum matrices from ladder combinations.

    q = sqrt(hbar/(2 m omega)) (A + A+), p = i sqrt(hbar m omega/2) (A+ - A)
    with A[j, j+1] = sqrt(j+1), each held as its band 1.  n_dim is an integer
    in [2, MAX_DIMENSION]; floats, bools and subnormal scale factors are rejected.
    """
    require_int("truncation dimension", n_dim)
    if not 2 <= n_dim <= MAX_DIMENSION:
        raise DiscretumError("truncation dimension must be in [2, %d], got %d"
                             % (MAX_DIMENSION, n_dim))
    for name, value in (("m", m), ("omega", omega), ("hbar", hbar)):
        require_positive(name, value)
    # Products of finite inputs can still overflow or underflow.
    require_positive("m*omega", m * omega)
    q2, p2 = hbar / (2.0 * m * omega), hbar * m * omega / 2.0
    for name, value in (("hbar/(2*m*omega)", q2), ("hbar*m*omega/2", p2)):
        require_positive(name, value)
        if value < sys.float_info.min:  # subnormal: its sqrt loses digits
            raise DiscretumError("%s is subnormal, got %r" % (name, value))
    ladder = np.sqrt(np.arange(1.0, n_dim))
    return (OperatorMatrix({1: math.sqrt(q2) * ladder}, "position"),
            OperatorMatrix({1: -1j * (math.sqrt(p2) * ladder)}, "momentum"))


def _band_pair(q, p):
    if q.dimension != p.dimension:
        raise DiscretumError("dimension mismatch: %d vs %d"
                             % (q.dimension, p.dimension))
    return q.bands[1], p.bands[1]


def commutator_defect(q, p, hbar=1.0):
    """Deviation of qp - pq from i*hbar*I, excluding the truncation corner.

    Returns (max_defect, corner): max_defect is the worst of the first
    N-1 diagonal deviations and every off-diagonal magnitude; corner is the
    (N-1, N-1) entry, which for the ladder construction equals
    -i*hbar*(N-1).  O(N), from the bands.
    """
    # With a, b the bands of q, p and x_j = a_j conj(b_j), entry (j, j) of
    # qp - pq is 2i (Im x_j - Im x_{j-1}) and entry (j, j+2) is
    # a_j b_{j+1} - b_j a_{j+1}; band -2 is minus its conjugate.
    a, b = _band_pair(q, p)
    diag = 2.0 * np.diff((a * b.conj()).imag, prepend=0.0, append=0.0)
    band = a[:-1] * b[1:] - b[:-1] * a[1:]
    max_defect = max(np.max(np.abs(diag[:-1] - hbar)),
                     np.max(np.abs(band), initial=0.0))
    return float(max_defect), complex(0.0, diag[-1])


def oscillator_hamiltonian(q, p, m, omega):
    """H = p^2/(2m) + (1/2) m omega^2 q^2 from the bands; raises if H overflows."""
    q_band, p_band = _band_pair(q, p)

    def square(a):  # bands 0 and 2 of A @ A, for A with band 1 a
        norm2 = (a * a.conj()).real
        return (np.append(norm2, 0.0) + np.insert(norm2, 0, 0.0),
                (a[:-1] * a[1:]).real)

    # 0.5*m*omega**2 overflows long before H does (m = omega = 1e150): apply
    # omega's power of two last, exactly, so each entry rounds as before.
    frac, exp = math.frexp(omega)
    with np.errstate(over="ignore", invalid="ignore"):
        bands = {k: 0.5 * p2 / m + np.ldexp(0.5 * m * frac**2 * q2, 2 * exp)
                 for k, p2, q2 in zip((0, 2), square(p_band), square(q_band))}
    if not all(np.isfinite(band).all() for band in bands.values()):
        raise DiscretumError("oscillator Hamiltonian overflows for N=%d, "
                             "m=%r, omega=%r" % (q.dimension, m, omega))
    return OperatorMatrix(bands, "hamiltonian")


def _levels(h, n):
    """Ascending eigenvalues of H's leading n x n block: bands 0 and 2 couple
    equal parities only, so it splits into two real tridiagonal blocks."""
    diag, band = h.bands[0][:n], h.bands[2][:max(n - 2, 0)]
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(np.diag(diag[s::2]) + np.diag(band[s::2], -1))
        for s in range(min(n, 2))]))


def ground_energy(q, p, m, omega):
    """Smallest eigenvalue of p^2/(2m) + (1/2) m omega^2 q^2."""
    h = oscillator_hamiltonian(q, p, m, omega)
    return float(_levels(h, h.dimension)[0])


def oscillator_spectrum(n_levels, m, omega, hbar=1.0):
    """First n_levels oscillator energies hbar*omega*(n + 1/2), by matrices.

    Products of matrices truncated at n_levels corrupt the top level (the
    commutator corner), so the ladder is built one dimension larger, the
    energy form taken, and only then the top row/column dropped; the kept
    block is exactly diagonal with the untruncated energies.
    """
    q, p = build_qp_matrices(n_levels + 1, m, omega, hbar)
    return _levels(oscillator_hamiltonian(q, p, m, omega), n_levels)


def planck_from_lattice(consts, m, a):
    """Action quantum m*c*a = m*omega*a^2 of atom mass m, spacing a and
    frequency omega = c/a, each of which must be finite and positive."""
    require_positive("m", m)
    require_positive("a", a)
    require_positive("omega", consts.c / a)
    return m * consts.c * a


def medium_atom_mass(consts, a):
    """Mass h/(c*a) for which the medium's action quantum is Planck's h."""
    require_positive("spacing", a)
    return consts.h / (consts.c * a)
