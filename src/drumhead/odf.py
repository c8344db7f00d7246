"""Two-beam optical-dipole-force geometry, polarization algebra, and drive setup.

Two linearly polarized beams crossing at angle theta_r interfere into a 1D
traveling lattice along z with beat frequency mu_r and effective wavevector
delta_k = 2 k sin(theta_r / 2). Choosing the polarization angle phi_p where
the differential AC Stark shift vanishes yields equal-and-opposite forces on
the two qubit states. The differential Stark coefficients themselves are
inputs (measured or computed elsewhere); the force-per-intensity anchor
carries that calibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import NoStarkNullError

# Calibration anchor: lattice force per unit single-beam intensity at the
# operating detuning/geometry, newtons per (W/cm^2).
FORCE_PER_INTENSITY = 1.5e-23

_ANTISYMMETRY_RTOL = 1e-6


def effective_wavevector(wavelength: float, theta_r: float) -> float:
    """|delta_k| = 2 (2 pi / lambda) sin(theta_r / 2) for crossing angle theta_r.

    Valid for theta_r in (0, pi]; theta_r = pi is the counter-propagating
    limit delta_k = 2k.
    """
    if wavelength <= 0.0:
        raise ValueError("wavelength must be positive")
    if not 0.0 <= theta_r <= math.pi:
        raise ValueError("crossing angle must lie in [0, pi]")
    return 2.0 * (2.0 * math.pi / wavelength) * math.sin(theta_r / 2.0)


@dataclass(frozen=True)
class StarkCoefficients:
    """Single-beam AC Stark shifts (rad/s) of the two qubit states.

    a_* apply for pi-polarized light, b_* for sigma-polarized light.
    """

    a_up: float
    a_dn: float
    b_up: float
    b_dn: float


def qubit_stark_shift(coeffs: StarkCoefficients, phi_p: float) -> float:
    """Differential Stark shift of the qubit transition at polarization angle phi_p."""
    da = coeffs.a_up - coeffs.a_dn
    db = coeffs.b_up - coeffs.b_dn
    return da * math.cos(phi_p) ** 2 + db * math.sin(phi_p) ** 2


def acss_null_angle(coeffs: StarkCoefficients) -> float:
    """Polarization angle phi_p in (0, pi/2) where the qubit Stark shift vanishes.

    Exists only when the pi and sigma differential shifts have opposite
    signs: tan^2(phi_p) = -(a_up - a_dn)/(b_up - b_dn).
    """
    da = coeffs.a_up - coeffs.a_dn
    db = coeffs.b_up - coeffs.b_dn
    if db == 0.0 or da * db >= 0.0:
        raise NoStarkNullError(
            "differential pi and sigma Stark shifts must have opposite signs "
            f"(got {da:.3g} and {db:.3g})"
        )
    return math.atan(math.sqrt(-da / db))


@dataclass(frozen=True)
class ForcePair:
    """State-dependent lattice force amplitudes (N) and the F_up = -F_dn check."""

    f_up: float
    f_dn: float
    antisymmetric: bool


def state_dependent_forces(
    coeffs: StarkCoefficients, phi_p: float, delta_k: float
) -> ForcePair:
    """Forces on the two spin states from the polarization-gradient lattice.

    F = 2 hbar delta_k (A cos^2 phi_p - B sin^2 phi_p) for each state; the
    antisymmetric flag reports whether |F_up + F_dn| < 1e-6 |F|, the
    operating condition for a pure sigma_z drive.
    """
    c2 = math.cos(phi_p) ** 2
    s2 = math.sin(phi_p) ** 2
    f_up = 2.0 * HBAR * delta_k * (coeffs.a_up * c2 - coeffs.b_up * s2)
    f_dn = 2.0 * HBAR * delta_k * (coeffs.a_dn * c2 - coeffs.b_dn * s2)
    scale = max(abs(f_up), abs(f_dn))
    antisym = abs(f_up + f_dn) <= _ANTISYMMETRY_RTOL * scale if scale > 0.0 else True
    return ForcePair(f_up=f_up, f_dn=f_dn, antisymmetric=antisym)


def force_from_intensity(intensity_w_cm2: float) -> float:
    """Lattice force (N) at the calibrated operating point, linear in intensity."""
    if intensity_w_cm2 < 0.0:
        raise ValueError("intensity must be >= 0")
    return FORCE_PER_INTENSITY * intensity_w_cm2


# ---------------------------------------------------------------------------
# pulse sequences and drive configuration


@dataclass(frozen=True)
class Ramsey:
    """Single free-evolution arm of duration tau with the drive on."""

    tau: float

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")

    @property
    def total_odf_time(self) -> float:
        return self.tau


@dataclass(frozen=True)
class SpinEcho:
    """Two drive arms of duration tau separated by a pi pulse of length t_pi."""

    tau: float
    t_pi: float = 0.0

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.t_pi < 0.0:
            raise ValueError("t_pi must be >= 0")

    @property
    def total_odf_time(self) -> float:
        return 2.0 * self.tau


Sequence = Ramsey | SpinEcho


@dataclass(frozen=True)
class DriveConfig:
    """Spin-dependent drive: per-ion force, beat frequency, decoherence, sequence.

    forces is a scalar (uniform) or a per-ion array of magnitudes (N, >= 0).
    mu_r is the angular beat frequency (rad/s); it may be None in a template
    that a sweep fills in point by point. gamma is the spontaneous-emission
    decoherence rate (1/s).
    """

    forces: float | np.ndarray
    mu_r: float | None
    gamma: float
    sequence: Sequence

    def __post_init__(self):
        f = self.forces
        if np.ndim(f) == 0:
            if float(f) < 0.0:
                raise ValueError("force must be >= 0")
            object.__setattr__(self, "forces", float(f))
        else:
            arr = np.asarray(f, dtype=float)
            if np.any(arr < 0.0):
                raise ValueError("forces must be >= 0")
            arr.setflags(write=False)
            object.__setattr__(self, "forces", arr)
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")

    def force_array(self, n_ions: int) -> np.ndarray:
        if np.ndim(self.forces) == 0:
            return np.full(n_ions, float(self.forces))
        arr = np.asarray(self.forces, dtype=float)
        if len(arr) != n_ions:
            raise ValueError(f"per-ion force list has length {len(arr)}, expected {n_ions}")
        return arr

    def with_mu(self, mu_r: float) -> "DriveConfig":
        return DriveConfig(forces=self.forces, mu_r=mu_r, gamma=self.gamma, sequence=self.sequence)
