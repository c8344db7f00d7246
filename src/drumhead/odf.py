"""Two-beam optical-dipole-force geometry, pulse sequences, and drive setup.

Two linearly polarized beams crossing at angle theta_r interfere into a 1D
traveling lattice along z with beat frequency mu_r and effective wavevector
delta_k = 2 k sin(theta_r / 2). The experiment sets the polarization at the
angle where the differential AC Stark shift vanishes, so the lattice pushes
the two qubit states with equal and opposite forces. The package takes that
resulting force as input, in newtons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


# ---------------------------------------------------------------------------
# pulse sequences and drive configuration


@dataclass(frozen=True)
class Ramsey:
    """Single free-evolution arm of duration tau with the drive on."""

    tau: float

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")

    @property
    def total_odf_time(self) -> float:
        return self.tau


@dataclass(frozen=True)
class SpinEcho:
    """Two drive arms of duration tau separated by a pi pulse of length t_pi."""

    tau: float
    t_pi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0.0 <= self.t_pi < math.inf:
            raise ValueError("t_pi must be finite and >= 0")

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
        arr = np.asarray(self.forces, dtype=float)
        if not np.all((0.0 <= arr) & (arr < np.inf)):
            raise ValueError("forces must be finite and >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "forces", float(arr) if arr.ndim == 0 else arr)
        if self.mu_r is not None and not math.isfinite(self.mu_r):
            raise ValueError("mu_r must be finite")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")

    def force_array(self, n_ions: int) -> np.ndarray:
        if np.ndim(self.forces) == 0:
            return np.full(n_ions, float(self.forces))
        arr = np.asarray(self.forces, dtype=float)
        if len(arr) != n_ions:
            raise ValueError(f"per-ion force list has length {len(arr)}, expected {n_ions}")
        return arr

    def with_mu(self, mu_r: float) -> "DriveConfig":
        return DriveConfig(forces=self.forces, mu_r=mu_r, gamma=self.gamma, sequence=self.sequence)
