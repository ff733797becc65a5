"""Frequency/velocity relations of the discrete medium and cutoff estimators.

The chain dispersion is the nearest-neighbour monatomic law
omega(q) = 2*sqrt(kappa/m)*|sin(q a/2)|, whose small-q slope is the sound
speed a*sqrt(kappa/m).  ModeGrid holds the chain's integer mode labels and
their frequencies.  The cutoff estimators map an upper bound on particle
energy to a relativistic momentum, from there to a lattice spacing a_s = h/p,
and on to the zone extent 2*pi/a_s.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DiscretumError, require_finite, require_int,
                     require_positive)


# SI defining constants, exact under the 2019 SI.
SPEED_OF_LIGHT = 2.99792458e8     # m/s
PLANCK_CONSTANT = 6.62607015e-34  # J s
ELECTRON_VOLT = 1.602176634e-19   # J
PROTON_MASS = 938.272e6 * ELECTRON_VOLT / SPEED_OF_LIGHT**2  # 938.272 MeV/c^2
CUTOFF_RTOL = 0.01  # compare_cutoffs' relative tolerance on the momenta
_SQUARE_LIMIT = math.sqrt(np.finfo(float).max)
# The dispersion command's cap on --q-samples: its table is ~40 MB of text.
MAX_Q_SAMPLES = 2**20


@dataclass(frozen=True)
class OscillatorParams:
    """Spring constant, mass and spacing of the harmonic chain."""

    kappa: float
    m: float
    a: float

    def __post_init__(self):
        for name in ("kappa", "m", "a"):
            require_positive(name, getattr(self, name))
        # kappa/m can overflow to inf or underflow to 0.
        require_positive("omega_max", self.omega_max)

    @property
    def omega_max(self):
        """Band-top frequency 2*sqrt(kappa/m) of the chain."""
        return 2.0 * math.sqrt(self.kappa / self.m)


def sound_speed(params):
    """Long-wavelength acoustic speed a*sqrt(kappa/m)."""
    return params.a * (0.5 * params.omega_max)


def chain_dispersion(params, q):
    """Acoustic dispersion 2*sqrt(kappa/m)*|sin(q a/2)|.

    Accepts scalar or array q; periodic in q with period 2*pi/a and linear
    with slope sound_speed(params) as q -> 0.
    """
    q = np.asarray(q, dtype=float)
    return params.omega_max * np.abs(np.sin(0.5 * q * params.a))


def mode_wave_number(n_sites, a, n):
    """Wave number k_n = 2*pi*n/(N*a) of integer mode label(s) n."""
    return 2.0 * math.pi * n / (n_sites * a)


@dataclass(frozen=True)
class ModeGrid:
    """Integer mode labels n in (-N/2, N/2] of an N-site chain.

    `labels` runs in ascending order.  `dft_labels` lists the same set in
    DFT bin order (bin j holds n = j for j <= N/2 and n = j - N above), the
    row order of the kernel chi(l;k_n) = exp(i 2 pi n l/N)/sqrt(N).
    `n_sites` must be an integer >= 2; a float or bool is rejected.
    """

    n_sites: int
    params: OscillatorParams

    def __post_init__(self):
        require_int("n_sites", self.n_sites, minimum=2)
        if not isinstance(self.params, OscillatorParams):
            raise DiscretumError(
                "mode grid needs OscillatorParams, got %r" % (self.params,))

    @property
    def labels(self):
        n = self.n_sites
        return np.arange(-((n - 1) // 2), n // 2 + 1)

    def row(self, n):
        """Index of label n in `labels`; raises unless n is an integer label."""
        require_int("label", n)
        row = n + (self.n_sites - 1) // 2  # labels[0] is -((N - 1) // 2)
        if not 0 <= row < self.n_sites:
            raise DiscretumError("label %r outside the grid" % (n,))
        return row

    @property
    def dft_labels(self):
        j = np.arange(self.n_sites)
        return np.where(j <= self.n_sites // 2, j, j - self.n_sites)

    def omega(self, n):
        return chain_dispersion(
            self.params, mode_wave_number(self.n_sites, self.params.a, n))

    def wrap(self, n):
        """Fold integer label sum(s), scalar or array, into (-N/2, N/2]."""
        m = n % self.n_sites
        return m - self.n_sites * (m > self.n_sites // 2)


def _require_squarable(*named):
    """Raise DiscretumError unless each (name, value) squares to a finite float."""
    for name, value in named:
        if not abs(value) < _SQUARE_LIMIT:
            raise DiscretumError("%s must be below %.6g, got %r"
                                 % (name, _SQUARE_LIMIT, value))


def cutoff_momentum(E_b, m_p):
    """Relativistic momentum sqrt(E_b^2/c^2 - m_p^2 c^2) for total energy E_b."""
    require_positive("E_b", E_b)
    require_finite("m_p", m_p)
    rest = m_p * SPEED_OF_LIGHT**2
    if E_b < rest:
        raise DiscretumError(
            "energy bound %.6e J is below rest energy %.6e J" % (E_b, rest))
    _require_squarable(("E_b/c", E_b / SPEED_OF_LIGHT),
                       ("m_p*c", m_p * SPEED_OF_LIGHT))
    # Guard the radicand: at the threshold E_b == rest the two squared terms
    # cancel and rounding may leave a signless residue either side of zero.
    diff = (E_b / SPEED_OF_LIGHT) ** 2 - (m_p * SPEED_OF_LIGHT) ** 2
    return math.sqrt(diff) if diff > 0.0 else 0.0


def lattice_spacing_from_cutoff(p_cut):
    """Spacing a_s = h/p_cut at which the zone edge sits at momentum p_cut."""
    require_positive("cutoff momentum", p_cut)
    return PLANCK_CONSTANT / p_cut


def bz_extent(a_s):
    """Extent 2*pi/a_s of the first zone for spacing a_s."""
    require_positive("spacing", a_s)
    return 2.0 * math.pi / a_s


@dataclass(frozen=True)
class CutoffEstimate:
    """One full estimation chain: energy bound -> momentum -> spacing -> zone."""

    E_b: float
    p_cut: float
    a_s: float
    bz_extent: float

    @classmethod
    def from_energy(cls, E_b, m_p):
        """Chain starting from an energy bound, via the exact momentum formula."""
        p = cutoff_momentum(E_b, m_p)
        a_s = lattice_spacing_from_cutoff(p)
        return cls(E_b=E_b, p_cut=p, a_s=a_s, bz_extent=bz_extent(a_s))

    @classmethod
    def from_momentum(cls, p_cut, m_p):
        """Chain starting from a quoted momentum; E_b back-filled from it."""
        a_s = lattice_spacing_from_cutoff(p_cut)
        _require_squarable(("cutoff momentum", p_cut),
                           ("m_p*c", m_p * SPEED_OF_LIGHT))
        E_b = SPEED_OF_LIGHT * math.sqrt(p_cut**2 + (m_p * SPEED_OF_LIGHT) ** 2)
        require_finite("back-filled E_b", E_b)
        return cls(E_b=E_b, p_cut=p_cut, a_s=a_s, bz_extent=bz_extent(a_s))


@dataclass(frozen=True)
class CutoffComparison:
    """Exact-formula chain vs a separately quoted momentum, with agreement flag."""

    exact: CutoffEstimate
    stated: CutoffEstimate
    consistent: bool


def compare_cutoffs(E_b, m_p, stated_momentum):
    """Run both estimation chains and flag whether their momenta agree.

    `consistent` is True when the exact-formula momentum for (E_b, m_p) and
    the separately stated momentum agree within CUTOFF_RTOL relative.
    """
    exact = CutoffEstimate.from_energy(E_b, m_p)
    stated = CutoffEstimate.from_momentum(stated_momentum, m_p)
    consistent = abs(exact.p_cut - stated.p_cut) <= CUTOFF_RTOL * exact.p_cut
    return CutoffComparison(exact=exact, stated=stated, consistent=consistent)
