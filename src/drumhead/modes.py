"""Transverse (out-of-plane) normal modes of a planar crystal.

The mass-normalized stiffness matrix over the z coordinates of a planar
equilibrium has entries

    K_jj = w1^2 - sum_{k != j} (k_e q^2 / M) / d_jk^3
    K_jk = (k_e q^2 / M) / d_jk^3          (j != k)

so every row sums to w1^2 exactly and the uniform vector is always an
eigenvector at the bare axial frequency: the center-of-mass mode. All other
eigenvalues sit below it; a negative eigenvalue means the single plane is
mechanically unstable at these parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import COULOMB_K, HBAR
from .crystal import _ROW_BLOCK, CrystalLattice, z_stiffness
from .errors import EquilibriumNotConverged, NonPlanarLatticeError
from .trap import TWO_PI


@dataclass(frozen=True)
class StiffnessMatrix:
    """Symmetric (N, N) matrix of squared angular frequencies, (rad/s)^2."""

    entries: np.ndarray
    omega_1: float
    mass: float

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n_ions(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenfrequencies (descending; index 0 = COM) and orthonormal eigenvectors.

    b[:, m] is the displacement pattern of mode m, normalized so both
    sum_j b_jm^2 = 1 and sum_m b_jm^2 = 1. `eigenvalues` keeps the raw
    (possibly negative) squared frequencies; `omega` = sqrt(max(eigenvalue, 0))
    and `unstable_modes`, the indices with eigenvalue <= 0, are derived from them.
    """

    eigenvalues: np.ndarray
    b: np.ndarray
    mass: float
    omega: np.ndarray = field(init=False)
    unstable_modes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        evals = np.asarray(self.eigenvalues, dtype=float)
        omega = np.sqrt(np.clip(evals, 0.0, None))
        for name, arr in (("eigenvalues", evals), ("b", np.asarray(self.b)), ("omega", omega)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "unstable_modes", tuple(int(m) for m in np.flatnonzero(evals <= 0.0)))

    @property
    def n_modes(self) -> int:
        return len(self.omega)

    @property
    def stable(self) -> bool:
        return not self.unstable_modes

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.omega / TWO_PI

    def ground_state_lengths(self) -> np.ndarray:
        """z_0m = sqrt(hbar / (2 M omega_m)) per mode (meters)."""
        with np.errstate(divide="ignore"):
            return np.where(self.omega > 0.0, np.sqrt(HBAR / (2.0 * self.mass * self.omega)), np.inf)


def transverse_stiffness(lattice: CrystalLattice) -> StiffnessMatrix:
    """Analytic z-block stiffness at a converged planar equilibrium."""
    if not lattice.converged:
        raise EquilibriumNotConverged("lattice is not converged; stiffness would be unreliable")
    if not lattice.planar:
        raise NonPlanarLatticeError("transverse modes require a single-plane crystal")
    params = lattice.params
    coupling = COULOMB_K * params.charge**2 / params.mass
    return StiffnessMatrix(
        entries=z_stiffness(lattice.positions[:, :2], coupling, params.omega_1**2),
        omega_1=params.omega_1,
        mass=params.mass,
    )


def _require_symmetric(k: np.ndarray) -> None:
    """Refuse k unless square and finite with max |k - k^T| <= 1e-10 max |k|, checked a block of rows at a time."""
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("stiffness must be a square matrix")
    scratch, asym = np.empty_like(k[:_ROW_BLOCK]), 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        for a in range(0, len(k), _ROW_BLOCK):
            diff = np.subtract(k[a : a + _ROW_BLOCK], k[:, a : a + _ROW_BLOCK].T, out=scratch[: len(k) - a])
            asym = np.maximum(asym, np.max(np.abs(diff, out=diff)))  # keeps a nan, as max() does not
    if not math.isfinite(asym):  # a non-finite entry makes its own k - k^T entry nan or inf
        raise ValueError("stiffness must be finite")
    scale = max(np.max(k), -np.min(k))
    if asym > 1e-10 * scale:
        raise ValueError(f"stiffness is not symmetric (relative deviation {asym / scale:.2e})")


def diagonalize(stiffness: StiffnessMatrix) -> ModeSpectrum:
    """Eigenmodes of a stiffness matrix, sorted by descending frequency.

    `eigh` takes the stiffness as given (it reads the lower triangle); `b` is a view of its
    ascending eigenvectors with a reversed column stride. Sign convention: the largest-magnitude
    component of each eigenvector is positive (the first such component, on a tie).
    """
    _require_symmetric(stiffness.entries)
    evals, evecs = np.linalg.eigh(stiffness.entries)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    # a column's largest |entry| is negative where -min > max; on a tie the first such entry decides
    top, bottom = evecs.max(axis=0), -evecs.min(axis=0)
    negative, ties = bottom > top, np.flatnonzero(bottom == top)
    negative[ties] = evecs[np.argmax(np.abs(evecs[:, ties]), axis=0), ties] < 0.0
    evecs *= np.where(negative, -1.0, 1.0)
    return ModeSpectrum(eigenvalues=evals, b=evecs, mass=stiffness.mass)


MAX_HISTOGRAM_BINS = 10**6


@dataclass(frozen=True)
class ModeHistogram:
    """Counts of mode frequencies in [i*w, (i+1)*w) bins anchored at 0 Hz."""

    bin_edges_hz: np.ndarray
    counts: np.ndarray

    @property
    def bin_centers_hz(self) -> np.ndarray:
        return 0.5 * (self.bin_edges_hz[:-1] + self.bin_edges_hz[1:])


def mode_histogram(spectrum: ModeSpectrum, bin_width_hz: float) -> ModeHistogram:
    """Bin the mode density on a fixed grid anchored at 0 Hz.

    The width must give at most MAX_HISTOGRAM_BINS bins from the lowest mode's
    to the highest mode's, with bin indices below 2**53 so they count exactly.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
        idx = np.floor(spectrum.frequencies_hz / bin_width_hz)
    lo, hi = idx.min(), idx.max()
    if not (
        math.isfinite(bin_width_hz) and bin_width_hz > 0.0
        and hi < 2.0**53 and hi - lo < MAX_HISTOGRAM_BINS
    ):
        raise ValueError(
            f"bin width must be finite and positive and give at most {MAX_HISTOGRAM_BINS} bins, "
            f"got {bin_width_hz!r}"
        )
    lo, hi = int(lo), int(hi)
    counts = np.bincount(idx.astype(int) - lo, minlength=hi - lo + 1)
    edges = (np.arange(lo, hi + 2)) * bin_width_hz
    return ModeHistogram(bin_edges_hz=edges, counts=counts)


def com_mode_deviation(stiffness: StiffnessMatrix) -> float:
    """Relative residual of the uniform vector as a stiffness eigenvector."""
    n = stiffness.n_ions
    uniform = np.full(n, 1.0 / np.sqrt(n))
    target = stiffness.omega_1**2
    return float(np.max(np.abs(stiffness.entries @ uniform - target * uniform)) / target)
