"""Direct/reciprocal lattice algebra and first-Brillouin-zone folding.

Basis vectors are stored as rows of a (dim, dim) float matrix, dim in
{1, 2, 3}.  The reciprocal rows A_i are fixed by the duality relation
A_i . a_j = 2*pi*delta_ij, so every integer combination G = h*A + k*B + l*C
satisfies exp(i G . rho) = 1 on direct-lattice points rho.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DegenerateBasisError, DiscretumError, require_int

EPS_DEGENERATE = 1e-12

# Folding searches candidate reciprocal vectors in integer shells
# |h|,|k|,|l| <= FOLD_SHELLS around the pre-reduced guess.
FOLD_SHELLS = 3

# fold_to_bz rejects k more than FOLD_MAX_ZONES zones (in any fractional
# reciprocal coordinate) from the origin: there the spacing of float64
# numbers near k exceeds 1e-9 of a zone width, so k - G has too few digits.
FOLD_MAX_ZONES = 1e-9 / np.finfo(float).eps  # about 4.5e6

# Two candidate representatives whose squared norms differ by less than
# _TIE_EPS*(1 + |k|^2) count as a tie (zone-boundary case) and the
# lexicographically largest representative wins.  The window is far above
# float noise and far below any genuine norm gap.
_TIE_EPS = 1e-12


def _as_matrix(vectors):
    try:
        mat = np.array(vectors, dtype=float)
    except (TypeError, ValueError):
        raise DegenerateBasisError(
            "basis vectors must be equal-length rows of numbers") from None
    if not np.isfinite(mat).all():
        raise DegenerateBasisError("basis vectors must be finite")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DegenerateBasisError(
            "basis must be a square matrix of row vectors, got shape %s"
            % (mat.shape,))
    if mat.shape[0] not in (1, 2, 3):
        raise DegenerateBasisError("dim must be 1, 2 or 3, got %d" % mat.shape[0])
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class LatticeBasis:
    """Direct-lattice basis; rows of `vectors` are the basis vectors."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _as_matrix(self.vectors))
        det = np.linalg.det(self.vectors)
        if abs(det) <= EPS_DEGENERATE:
            raise DegenerateBasisError("degenerate basis: |det| = %.3e <= %.3e"
                                       % (abs(det), EPS_DEGENERATE))

    @property
    def dim(self):
        return self.vectors.shape[0]

    @classmethod
    def cubic(cls, a0, dim=3):
        """Simple cubic (square / segment) basis with spacing a0."""
        return cls(a0 * np.eye(dim))


@dataclass(frozen=True)
class ReciprocalBasis:
    """Reciprocal basis; rows of `vectors` are A, B, C."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _as_matrix(self.vectors))

    @property
    def dim(self):
        return self.vectors.shape[0]


@dataclass(frozen=True)
class GVector:
    """A reciprocal-lattice vector with its integer indices h, k, l.

    Indices must be integers, not floats or bools.
    """

    indices: tuple
    cartesian: np.ndarray

    def __post_init__(self):
        for name, value in zip("hkl", self.indices):
            require_int("index " + name, value)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        cart = np.array(self.cartesian, dtype=float)
        cart.setflags(write=False)
        object.__setattr__(self, "cartesian", cart)


@dataclass(frozen=True)
class FoldedVector:
    """First-zone representative k_folded plus the removed lattice vector g.

    The decomposition k_input = k_folded + g.cartesian holds exactly as
    evaluated: k_folded is computed as the difference.
    """

    k_folded: np.ndarray
    g: GVector

    def __post_init__(self):
        kf = np.array(self.k_folded, dtype=float)
        kf.setflags(write=False)
        object.__setattr__(self, "k_folded", kf)


def reciprocal_basis(basis):
    """Reciprocal basis dual to `basis`: A_i . a_j = 2*pi*delta_ij.

    Computed as 2*pi * inverse-transpose, which in 3D coincides with the
    familiar cross-product construction A = 2*pi (b x c)/(a . (b x c)).
    """
    return ReciprocalBasis(2.0 * np.pi * np.linalg.inv(basis.vectors).T)


def _combination(vectors, names, values):
    """Integer `values` (0 past the dimension) and their sum over `vectors`."""
    for name, value in zip(names, values):
        require_int("index " + name, value)
    dim = vectors.shape[0]
    if any(values[dim:]):
        raise DiscretumError("indices beyond dimension %d must be 0, got %r"
                             % (dim, values))
    return values[:dim], np.asarray(values[:dim], dtype=float) @ vectors


def g_vector(recip, h, k=0, l=0):
    """Integer combination h*A + k*B + l*C as a GVector.

    Indices must be integers; those beyond the basis dimension must be 0.
    """
    return GVector(*_combination(recip.vectors, "hkl", (h, k, l)))


def lattice_point(basis, m, n=0, p=0):
    """Direct-lattice point m*a + n*b + p*c, with indices as in g_vector."""
    return _combination(basis.vectors, "mnp", (m, n, p))[1]


def lattice_phase(g, rho):
    """exp(i g . rho) for a reciprocal vector g and a cartesian point rho.

    Equals 1 (to rounding) whenever rho is a direct-lattice point of the
    basis that generated g; arbitrary rho is allowed and then the phase is
    generally not 1.
    """
    rho = np.asarray(rho, dtype=float)
    return complex(np.exp(1j * float(np.dot(g.cartesian, rho))))


@lru_cache(maxsize=8)
def _shell_offsets(dim):
    rng = range(-FOLD_SHELLS, FOLD_SHELLS + 1)
    return np.array(sorted(product(rng, repeat=dim)), dtype=float)


def fold_to_bz(recip, k):
    """Fold wave vector k into the first Brillouin zone.

    Returns a FoldedVector whose representative minimizes the Euclidean
    norm over k - G; at zone boundaries (norm ties) the lexicographically
    largest representative is chosen, so in 1D the boundary maps to +pi/a
    rather than -pi/a.

    The input is first pre-reduced by rounding its fractional reciprocal
    coordinates, then all integer shells within FOLD_SHELLS of that guess
    are scanned, which is exhaustive after pre-reduction.  A k with a
    fractional coordinate beyond FOLD_MAX_ZONES is rejected.
    """
    if not isinstance(recip, ReciprocalBasis):
        raise DiscretumError(
            "fold_to_bz needs a ReciprocalBasis, got %s (use reciprocal_basis)"
            % type(recip).__name__)
    k = np.asarray(k, dtype=float)
    if k.shape != (recip.dim,):
        raise DiscretumError(
            "k has shape %s, expected (%d,)" % (k.shape, recip.dim))
    if not np.isfinite(k).all():
        raise DiscretumError("k must be finite, got %s" % (k.tolist(),))
    frac = np.linalg.solve(recip.vectors.T, k)
    reach = np.abs(frac).max()
    if reach > FOLD_MAX_ZONES:
        raise DiscretumError(
            "k is %.3g zones from the origin; beyond %.3g zones k - G is not "
            "resolved to 1e-9 of a zone width" % (reach, FOLD_MAX_ZONES))
    base = np.rint(frac)
    cand = base + _shell_offsets(recip.dim)
    reps = k - cand @ recip.vectors
    norms2 = np.einsum("ij,ij->i", reps, reps)
    nmin = norms2.min()
    eligible = np.flatnonzero(norms2 <= nmin + _TIE_EPS * (1.0 + nmin))
    best = max(eligible, key=lambda i: tuple(reps[i]))
    g = g_vector(recip, *(int(c) for c in cand[best]))
    return FoldedVector(k - g.cartesian, g)
