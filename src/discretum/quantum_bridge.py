"""Oscillator operator checks: exact symbolic reduction and truncated matrices.

The symbolic side works in the free algebra over non-commuting symbols with
coefficients that are exact rationals times integer powers of the frequency
omega, so the reduction of the per-mode energy form to half*omega*(pq - qp)
is tolerance-free.  The matrix side realizes position/momentum as truncated
ladder-operator combinations, where the canonical commutator holds exactly
on every diagonal entry except the truncation corner.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dispersion import CONSTANTS
from .errors import DiscretumError, require_positive


def _canon(terms):
    out = {}
    for word, poly in terms.items():
        clean = {k: v for k, v in poly.items() if v != 0}
        if clean:
            out[tuple(word)] = clean
    return out


class NcExpression:
    """Linear combination of ordered words in non-commuting symbols.

    Coefficients are Laurent polynomials in omega with Fraction
    coefficients, stored as {word: {omega_power: Fraction}}.  Equality is
    structural on the canonical form (zero terms pruned).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _canon(terms or {})

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
        coeff = Fraction(coeff)
        return NcExpression({
            word: {k + omega_power: v * coeff for k, v in poly.items()}
            for word, poly in self.terms.items()})

    def __add__(self, other):
        out = {word: dict(poly) for word, poly in self.terms.items()}
        for word, poly in other.terms.items():
            tgt = out.setdefault(word, {})
            for k, v in poly.items():
                tgt[k] = tgt.get(k, Fraction(0)) + v
        return NcExpression(out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __mul__(self, other):
        out = {}
        for w1, p1 in self.terms.items():
            for w2, p2 in other.terms.items():
                word = w1 + w2
                tgt = out.setdefault(word, {})
                for k1, v1 in p1.items():
                    for k2, v2 in p2.items():
                        k = k1 + k2
                        tgt[k] = tgt.get(k, Fraction(0)) + v1 * v2
        return NcExpression(out)

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
        out = {}
        for word, poly in self.terms.items():
            key = tuple(sorted(word))
            tgt = out.setdefault(key, {})
            for k, v in poly.items():
                tgt[k] = tgt.get(k, Fraction(0)) + v
        return NcExpression(out)

    def __eq__(self, other):
        return isinstance(other, NcExpression) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(
            (w, frozenset(p.items())) for w, p in self.terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for word in sorted(self.terms):
            for power in sorted(self.terms[word]):
                coeff = self.terms[word][power]
                om = {0: "", 1: "*w"}.get(power, "*w^%d" % power)
                bits.append("(%s)%s*%s" % (coeff, om, "".join(word) or "1"))
        return " + ".join(bits)


def mode_hamiltonian():
    """The per-mode energy form (1/2)*(p p* + w^2 q q*) over free symbols."""
    return NcExpression({
        ("p", "p*"): {0: Fraction(1, 2)},
        ("q", "q*"): {2: Fraction(1, 2)},
    })


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


@dataclass(frozen=True)
class OperatorMatrix:
    """Complex square matrix tagged with its operator role."""

    matrix: np.ndarray
    role: str

    _ROLES = ("position", "momentum", "hamiltonian")
    _HERM_TOL = 1e-12

    def __post_init__(self):
        if self.role not in self._ROLES:
            raise DiscretumError("role must be one of %s" % (self._ROLES,))
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DiscretumError("operator matrix must be square")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.role in ("position", "momentum"):
            scale = 1.0 + float(np.max(np.abs(mat))) if mat.size else 1.0
            if self.hermiticity_defect() > self._HERM_TOL * scale:
                raise DiscretumError("%s matrix is not Hermitian" % self.role)

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def hermiticity_defect(self):
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


def _ladder(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def build_qp_matrices(n_dim, m, omega, hbar=1.0):
    """Truncated position/momentum matrices from ladder combinations.

    q = sqrt(hbar/(2 m omega)) (A + A+), p = i sqrt(hbar m omega/2) (A+ - A);
    both tridiagonal with zero diagonal and Hermitian by construction.
    """
    if n_dim < 2:
        raise DiscretumError("need at least a 2-dimensional truncation")
    for name, value in (("m", m), ("omega", omega), ("hbar", hbar)):
        require_positive(name, value)
    # Products of finite inputs can still overflow or underflow.
    require_positive("m*omega", m * omega)
    q2, p2 = hbar / (2.0 * m * omega), hbar * m * omega / 2.0
    require_positive("hbar/(2*m*omega)", q2)
    require_positive("hbar*m*omega/2", p2)
    a = _ladder(n_dim)
    q = math.sqrt(q2) * (a + a.T)
    p = 1j * math.sqrt(p2) * (a.T - a)
    return (OperatorMatrix(q, "position"), OperatorMatrix(p, "momentum"))


def commutator_defect(q, p, hbar=1.0):
    """Deviation of qp - pq from i*hbar*I, excluding the truncation corner.

    Returns (max_defect, corner): max_defect is the worst of the first
    N-1 diagonal deviations and every off-diagonal magnitude; corner is the
    (N-1, N-1) entry, which for the ladder construction equals
    -i*hbar*(N-1).
    """
    if q.dimension != p.dimension:
        raise DiscretumError("dimension mismatch: %d vs %d"
                             % (q.dimension, p.dimension))
    comm = q.matrix @ p.matrix - p.matrix @ q.matrix
    diag = np.diag(comm)
    off = comm - np.diag(diag)
    max_defect = float(max(np.max(np.abs(diag[:-1] - 1j * hbar)),
                           np.max(np.abs(off))))
    return max_defect, complex(diag[-1])


def real_form_defect(q, p, h=1.0):
    """Residual of the imaginary-unit-free convention pq - qp = h.

    With the actual matrices the left side is -i*hbar on the diagonal, so
    this is large (h*sqrt(2) per entry for hbar = h); reported for
    comparison against the standard i*hbar form, never used as a check.
    """
    comm = p.matrix @ q.matrix - q.matrix @ p.matrix
    return float(np.max(np.abs(np.diag(comm)[:-1] - h)))


def oscillator_hamiltonian(q, p, m, omega):
    """H = p^2/(2m) + (1/2) m omega^2 q^2 from the given matrices."""
    if q.dimension != p.dimension:
        raise DiscretumError("dimension mismatch: %d vs %d"
                             % (q.dimension, p.dimension))
    h = (p.matrix @ p.matrix) / (2.0 * m) \
        + 0.5 * m * omega**2 * (q.matrix @ q.matrix)
    return OperatorMatrix(h, "hamiltonian")


def ground_energy(q, p, m, omega):
    """Smallest eigenvalue of p^2/(2m) + (1/2) m omega^2 q^2."""
    h = oscillator_hamiltonian(q, p, m, omega)
    return float(np.linalg.eigvalsh(h.matrix).min())


def oscillator_spectrum(n_levels, m, omega, hbar=1.0):
    """First n_levels oscillator energies hbar*omega*(n + 1/2), by matrices.

    Products of matrices truncated at n_levels corrupt the top level (the
    commutator corner), so the ladder is built one dimension larger, the
    energy form taken, and only then the top row/column dropped; the kept
    block is exactly diagonal with the untruncated energies.
    """
    q, p = build_qp_matrices(n_levels + 1, m, omega, hbar)
    h = oscillator_hamiltonian(q, p, m, omega).matrix[:n_levels, :n_levels]
    return np.sort(np.linalg.eigvalsh(h))


@dataclass(frozen=True)
class RelationInputs:
    """Scalar inputs of the action-quantum relations."""

    m: float
    a: float
    omega: float
    c: float = CONSTANTS.c

    def __post_init__(self):
        for name in ("m", "a", "omega", "c"):
            require_positive(name, getattr(self, name))


def planck_from_lattice(inputs):
    """Action quantum m*c*a of a medium with atom mass m and spacing a."""
    return inputs.m * inputs.c * inputs.a


def action_quantum_from_frequency(inputs):
    """Equivalent chain m*omega*a^2; equals m*c*a when omega = c/a."""
    return inputs.m * inputs.omega * inputs.a**2


def medium_atom_mass(consts, a):
    """Mass h/(c*a) for which the medium's action quantum is Planck's h."""
    require_positive("spacing", a)
    return consts.h / (consts.c * a)
