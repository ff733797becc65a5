"""Periodic harmonic-chain dynamics and normal-mode (phonon) decomposition.

The chain is N equal masses on a ring coupled to nearest neighbours by
identical springs.  Time integration uses a 4th-order symplectic composition
(Forest-Ruth coefficients), so the total energy stays bounded within a few
parts in 1e9 at the step sizes used in the tests, with no secular drift.

`step` takes one such step in real space and is the reference integrator.
The chain is linear and translation-invariant, so one step acts on each DFT
bin (u(k), v(k)) as a fixed real 2x2 matrix M(k) and n steps as M(k)^n;
`advance` applies n steps at once in the DFT basis, and `run_sim` uses it
to go from one sampled row to the next.

Mode amplitudes are mass-weighted unitary-DFT coordinates
q(k) = sqrt(m) * sum_l chi*(l;k) u_l with chi(l;k_n) = exp(i 2 pi n l/N)/sqrt(N),
so the per-mode energies 0.5*(|p|^2 + omega^2 |q|^2) sum exactly to the
position-space total for any mass.
"""

import math
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np

from .dispersion import (ModeGrid, OscillatorParams, chain_dispersion,
                         mode_wave_number)
from .errors import (DiscretumError, StabilityWarning, require_finite,
                     require_int, require_positive)

# Forest-Ruth composition coefficients (4th order, 3 force evaluations).
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_FR_DRIFT = (0.5 * _W1, 0.5 * (_W0 + _W1), 0.5 * (_W0 + _W1), 0.5 * _W1)
_FR_KICK = (_W1, _W0, _W1)

# The composition above is stable on the harmonic chain for
# omega_max*dt below ~1.574 (propagator trace bound); warn from here on.
STABILITY_LIMIT = 1.57


@dataclass
class ChainState:
    """Displacements and velocities of the N-site ring at time t.

    Mutable and single-owner during integration; use copy() to take an
    immutable-by-convention snapshot for analysis.
    """

    params: OscillatorParams
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.u = np.array(self.u, dtype=float)
        self.v = np.array(self.v, dtype=float)
        if self.u.ndim != 1 or self.u.shape != self.v.shape:
            raise DiscretumError(
                "u and v must be equal-length 1D arrays, got %s and %s"
                % (self.u.shape, self.v.shape))
        if self.u.size < 2:
            raise DiscretumError("chain needs at least 2 sites")

    @property
    def n_sites(self):
        return self.u.size

    def copy(self):
        return ChainState(self.params, self.u.copy(), self.v.copy(), self.t)


def init_plane_wave(n_sites, params, mode_index, amplitude):
    """Travelling-wave initial condition for one mode label.

    u_l = U0*cos(k_n l a) and v_l = U0*omega(k_n)*sin(k_n l a), the t=0
    slice of the real travelling wave U0*cos(omega t - k_n l a), which is an
    exact solution of the chain.  Valid labels are integers -N/2 < n <= N/2.
    """
    ModeGrid(n_sites, params).row(mode_index)  # raises unless it is a label
    k = mode_wave_number(n_sites, params.a, mode_index)
    omega = chain_dispersion(params, k)
    phase = k * params.a * np.arange(n_sites)
    return ChainState(params, amplitude * np.cos(phase),
                      amplitude * omega * np.sin(phase))


def random_state(n_sites, params, amplitude=1.0, seed=0):
    """Gaussian random displacements and velocities (deterministic per seed)."""
    require_int("n_sites", n_sites, minimum=2)
    rng = np.random.default_rng(seed)
    return ChainState(params, *(amplitude * rng.standard_normal((2, n_sites))))


def _check_dt(params, dt):
    """Reject dt <= 0; warn (to the integrator's caller) near the stable bound."""
    require_positive("dt", dt)
    omega_max = params.omega_max
    if dt * omega_max >= STABILITY_LIMIT:
        warnings.warn(
            "dt = %g is at or beyond the stable step %g for this chain"
            % (dt, STABILITY_LIMIT / omega_max), StabilityWarning,
            stacklevel=3)


def step(state, dt):
    """Advance the state by one symplectic step of size dt (in place).

    Emits StabilityWarning when omega_max*dt reaches the scheme's stable
    bound; the step is still taken.
    """
    _check_dt(state.params, dt)
    u, v = state.u, state.v
    km = state.params.kappa / state.params.m
    for i in range(3):
        u += v * (_FR_DRIFT[i] * dt)
        ring = np.concatenate((u[-1:], u, u[:1]))  # np.roll is 4x slower here
        v += (ring[2:] + ring[:-2] - u - u) * (_FR_KICK[i] * dt * km)
    u += v * (_FR_DRIFT[3] * dt)
    state.t += dt
    return state


def _step_matrix(n_sites, params, dt):
    """M(k) of one `step` for each rfft bin k, shape (N//2 + 1, 2, 2).

    Composed from the same drift and kick stages as `step`; in the DFT
    basis the kick's neighbour difference is the factor -omega(k)^2.
    """
    bins = np.arange(n_sites // 2 + 1)
    w2 = chain_dispersion(params, mode_wave_number(n_sites, params.a, bins))**2
    m = np.tile(np.eye(2), (bins.size, 1, 1))
    for i in range(4):
        m[:, 0, :] += (_FR_DRIFT[i] * dt) * m[:, 1, :]
        if i < 3:
            m[:, 1, :] -= (_FR_KICK[i] * dt * w2)[:, None] * m[:, 0, :]
    return m


@lru_cache(maxsize=4)
def _propagator(n_sites, params, dt, n):
    """M(k)^n by repeated squaring, as (2, 2, N//2 + 1) for `advance`."""
    power = np.broadcast_to(np.eye(2), (n_sites // 2 + 1, 2, 2))
    square = _step_matrix(n_sites, params, dt)
    # An unstable dt overflows here; keep the warnings a run emits the same
    # whether or not this power is already cached.
    with np.errstate(all="ignore"):
        while n:
            if n & 1:
                power = power @ square
            n >>= 1
            if n:
                square = square @ square
    return np.ascontiguousarray(power.transpose(1, 2, 0))


def advance(state, dt, n):
    """Advance the state by n steps of size dt (in place) in the DFT basis.

    Equal to n calls of `step` up to rounding, with the same dt check and
    StabilityWarning; t is accumulated by the same repeated addition.
    """
    _check_dt(state.params, dt)
    require_int("step count", n, minimum=0)
    m = _propagator(state.n_sites, state.params, dt, n)
    uv = np.fft.rfft(np.stack((state.u, state.v)))
    state.u[:], state.v[:] = np.fft.irfft((m * uv).sum(axis=1), state.n_sites)
    t = state.t
    for _ in range(n):
        t += dt
    state.t = t
    return state


def total_energy(state):
    """Kinetic plus spring energy: sum 0.5 m v^2 + sum 0.5 kappa (u_{l+1}-u_l)^2."""
    stretch = np.roll(state.u, -1) - state.u
    return float(0.5 * state.params.m * np.dot(state.v, state.v)
                 + 0.5 * state.params.kappa * np.dot(stretch, stretch))


@dataclass(frozen=True)
class ModeAmplitudes:
    """Mass-weighted complex normal coordinates per mode label."""

    labels: np.ndarray
    q: np.ndarray
    p: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("labels", "q", "p", "omega"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def reality_defect(self):
        """Max deviation from q(-k) = q(k)* and p(-k) = p(k)*."""
        conj_bin = -self.labels % self.labels.size
        return float(max(np.max(np.abs(self.q[conj_bin] - np.conj(self.q))),
                         np.max(np.abs(self.p[conj_bin] - np.conj(self.p)))))


def to_modes(state):
    """Project a chain state onto mass-weighted normal coordinates.

    q(k) = sqrt(m) * DFT_ortho(u), p(k) = sqrt(m) * DFT_ortho(v), in the
    DFT label order of the chain's ModeGrid; the inverse DFT of q/sqrt(m)
    reconstructs u to rounding.
    """
    grid = ModeGrid(state.n_sites, state.params)
    q, p = math.sqrt(state.params.m) * np.fft.fft(
        np.stack((state.u, state.v)), norm="ortho")
    return ModeAmplitudes(grid.dft_labels, q, p, grid.omega(grid.dft_labels))


def mode_energies(amps):
    """Per-mode energies 0.5*(|p(k)|^2 + omega(k)^2 |q(k)|^2)."""
    return 0.5 * (np.abs(amps.p) ** 2 + amps.omega**2 * np.abs(amps.q) ** 2)


def _check_keys(cls, what, d):
    """Reject keys of `d` that name no field of `cls` or miss a required one."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise DiscretumError("unknown %s key(s): %s" % (what, ", ".join(unknown)))
    for f in fields(cls):
        if f.default is MISSING and f.name not in d:
            raise DiscretumError("%s needs %r" % (what, f.name))


@dataclass(frozen=True)
class InitSpec:
    """Initial-condition block of a simulation config."""

    type: str
    mode_index: int = 1
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.type not in ("plane_wave", "random"):
            raise DiscretumError(
                "init type must be plane_wave or random, got %r" % self.type)
        require_int("mode_index", self.mode_index)
        require_int("seed", self.seed, minimum=0)
        require_finite("amplitude", self.amplitude)

    @classmethod
    def from_dict(cls, d):
        _check_keys(cls, "init", d)
        return cls(**d)


@dataclass(frozen=True)
class SimConfig:
    """Full simulation description; dt defaults to 0.02/omega_max."""

    n_sites: int
    steps: int
    init: InitSpec
    kappa: float = 1.0
    m: float = 1.0
    a: float = 1.0
    dt: float = None
    stride: int = 1

    def __post_init__(self):
        require_int("n_sites", self.n_sites, minimum=2)
        require_int("steps", self.steps, minimum=0)
        require_int("stride", self.stride, minimum=1)
        self.params  # builds OscillatorParams: checks kappa, m, a, omega_max
        if self.dt is not None:
            require_positive("dt", self.dt)

    @property
    def params(self):
        return OscillatorParams(kappa=self.kappa, m=self.m, a=self.a)

    @property
    def dt_effective(self):
        if self.dt is not None:
            return self.dt
        return 0.02 / self.params.omega_max

    @classmethod
    def from_dict(cls, d):
        _check_keys(cls, "config", d)
        if not isinstance(d["init"], dict):
            raise DiscretumError("'init' must be an object")
        return cls(**{**d, "init": InitSpec.from_dict(d["init"])})


@dataclass(frozen=True)
class SimResult:
    """Sampled rows of one run: times, total energies and per-mode energies."""

    times: np.ndarray
    total_energy: np.ndarray
    mode_energies: np.ndarray


def _initial_state(config):
    if config.init.type == "plane_wave":
        return init_plane_wave(config.n_sites, config.params,
                               config.init.mode_index, config.init.amplitude)
    return random_state(config.n_sites, config.params,
                        config.init.amplitude, config.init.seed)


def run_sim(config):
    """Integrate per config, sampling every `stride` steps (plus first/last
    row); raises DiscretumError at the first sampled row that is not finite."""
    state = _initial_state(config)
    dt = config.dt_effective
    rows = []

    def sample():
        energy = total_energy(state)
        modes = mode_energies(to_modes(state))
        if not (math.isfinite(energy) and np.isfinite(modes).all()):
            raise DiscretumError(
                "row at t = %r is not finite (omega_max*dt = %g, stable below "
                "%g)" % (state.t, state.params.omega_max * dt, STABILITY_LIMIT))
        rows.append((state.t, energy, modes))

    sample()
    for done in range(0, config.steps, config.stride):
        advance(state, dt, min(config.stride, config.steps - done))
        sample()
    return SimResult(*map(np.array, zip(*rows)))
