"""Transverse-mode spectroscopy and thermometry of planar ion crystals.

Pipeline: relax a rotating-frame Coulomb crystal (`crystal`), diagonalize its
transverse stiffness (`modes`), drive it with a spin-dependent optical lattice
(`odf`, `dynamics`), and fit mode occupations from the resulting decoherence
lineshapes (`thermometry`). All value types are immutable and safe to share
across threads.
"""

from .config import RunConfig, SweepGrid, ThermalSpec, from_dict, load_config
from .constants import BE9_ION_MASS, COULOMB_K, HBAR, K_B
from .crystal import (
    CrystalLattice,
    LatticeStats,
    lattice_stats,
    length_scale,
    potential_gradient,
    solve_equilibrium,
    total_potential,
)
from .dynamics import (
    DisplacementField,
    MeanExcursion,
    SpectrumTrace,
    ThermalState,
    Trajectory,
    ValidityRatio,
    alpha_single_arm,
    alpha_spin_echo,
    mean_excursion,
    phase_space_trajectory,
    sweep_spectrum,
    validity_ratio,
)
from .errors import (
    CoincidentIonsError,
    ConfigError,
    DrumheadError,
    EquilibriumNotConverged,
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSpanError,
    NonPlanarLatticeError,
    NoRadialConfinementError,
    TrapParameterError,
    UnphysicalBackgroundError,
)
from .modes import (
    ModeHistogram,
    ModeSpectrum,
    StiffnessMatrix,
    com_mode_deviation,
    diagonalize,
    mode_histogram,
    transverse_stiffness,
)
from .odf import DriveConfig, Ramsey, SpinEcho, effective_wavevector
from .thermometry import (
    FitMetadata,
    FitResult,
    ObservedSpectrum,
    fit_occupation,
    occupation_to_temperature,
)
from .trap import TrapParams, beta, radial_confinement

__version__ = "0.1.0"
