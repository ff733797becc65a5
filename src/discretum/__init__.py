"""discretum: harmonic-lattice kinematics, dynamics, scattering and operator checks."""

from .dispersion import (ELECTRON_VOLT, PLANCK_CONSTANT, PROTON_MASS,
                         SPEED_OF_LIGHT, CutoffComparison, CutoffEstimate,
                         ModeGrid, OscillatorParams, bz_extent,
                         chain_dispersion, compare_cutoffs, cutoff_momentum,
                         lattice_spacing_from_cutoff, mode_wave_number,
                         sound_speed)
from .dynamics import (ChainState, InitSpec, ModeAmplitudes, SimConfig,
                       SimResult, advance, init_plane_wave, mode_energies,
                       random_state, run_sim, step, to_modes, total_energy)
from .errors import DiscretumError, StabilityWarning
from .lattice import (FoldedVector, GVector, LatticeBasis, ReciprocalBasis,
                      fold_to_bz, g_vector, lattice_phase, lattice_point,
                      reciprocal_basis)
from .quantum_bridge import (NcExpression, OperatorMatrix, build_qp_matrices,
                             commutator_defect, ground_energy,
                             medium_atom_mass, mode_hamiltonian,
                             oscillator_hamiltonian, oscillator_spectrum,
                             planck_from_lattice, reduce_mode_hamiltonian)
from .scattering import (DEFAULT_TOL_FACTOR, ChannelTable, KmcTrace,
                         PhononPopulation, biased_population,
                         enumerate_three_phonon, kmc_run)

__version__ = "0.1.0"
