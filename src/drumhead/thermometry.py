"""Mode-resolved thermometry: fit nbar from a measured lineshape.

The lineshape model has exactly one free parameter once the drive is
calibrated: the target mode's thermal occupation, which enters the
decoherence exponent linearly: per ion and data point the exponent is
c0 + c1 nbar. So chi^2, the weighted sum of squared residuals, has analytic
first and second derivatives in nbar, and the fit is a bracketed Newton search
for the root of chi^2' on [0, _NBAR_MAX] (Numerical Recipes' rtsafe). The
statistical error comes from the analytic curvature of chi^2, and an optional
beam-angle systematic is propagated by refitting at perturbed force
calibrations. Forces enter the exponent only as F^2, so a perturbed
calibration just rescales (c0, c1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, K_B
from .dynamics import ThermalState, bright_fraction, decoherence_exponent, lineshape_terms
from .errors import (
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSpanError,
    UnphysicalBackgroundError,
)
from .modes import ModeSpectrum
from .odf import DriveConfig, Sequence
from .trap import TWO_PI

_NBAR_MAX = 1e6
_BOUNDARY_NBAR = 1e-3
_NEWTON_XTOL = 1e-10  # stop when a step is at most this times max(1, nbar)
_MAX_NEWTON_STEPS = 100
_OFF_RESONANT_CYCLES = 4.0  # "far detuned" = this many lineshape widths 2pi/tau


def occupation_to_temperature(nbar: float, omega_m: float) -> float:
    """T = nbar hbar omega / k_B (high-occupation convention, no +1/2)."""
    if nbar < 0.0 or omega_m <= 0.0:
        raise ValueError("nbar must be >= 0 and omega_m positive")
    return nbar * HBAR * omega_m / K_B


def temperature_to_occupation(kelvin: float, omega_m: float) -> float:
    """nbar = k_B T / (hbar omega); exact inverse of occupation_to_temperature."""
    if kelvin < 0.0 or omega_m <= 0.0:
        raise ValueError("temperature must be >= 0 and omega_m positive")
    return K_B * kelvin / (HBAR * omega_m)


@dataclass(frozen=True)
class FitMetadata:
    """Experimental context carried with a measured spectrum."""

    n_ions: int | None = None
    theta_r: float | None = None       # beam crossing angle, rad
    theta_r_rel_err: float | None = None

    def __post_init__(self):
        if self.n_ions is not None and self.n_ions < 1:
            raise ValueError(f"n_ions must be a positive integer, got {self.n_ions!r}")
        if self.theta_r is not None and not 0.0 < self.theta_r < math.pi:
            raise ValueError(f"theta_r must be in (0, 180) degrees, got {math.degrees(self.theta_r)!r}")
        if self.theta_r_rel_err is not None and not 0.0 <= self.theta_r_rel_err < 1.0:
            raise ValueError(f"theta_r_rel_err must be in [0, 1), got {self.theta_r_rel_err!r}")


@dataclass(frozen=True)
class ObservedSpectrum:
    """Measured bright fraction vs beat frequency with per-point errors."""

    mu_hz: np.ndarray
    p_up: np.ndarray
    sigma: np.ndarray
    metadata: FitMetadata = FitMetadata()

    def __post_init__(self):
        mu = np.asarray(self.mu_hz, dtype=float)
        p = np.asarray(self.p_up, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        if not (mu.shape == p.shape == s.shape) or mu.ndim != 1:
            raise ValueError("mu_hz, p_up, sigma must be equal-length 1D arrays")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(p)) and np.all(np.isfinite(s))):
            raise ValueError("mu_hz, p_up, sigma must be finite")
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("p_up must lie in [0, 1]")
        if np.any(s <= 0.0):
            raise ValueError("sigma must be positive")
        for name, arr in (("mu_hz", mu), ("p_up", p), ("sigma", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.mu_hz)


@dataclass(frozen=True)
class FitResult:
    nbar: float
    nbar_err: float
    temperature: float
    temperature_err: float
    gamma_used: float
    chi2_reduced: float
    status: str  # "ok", "boundary_nbar_zero" or "boundary_nbar_max"
    systematic_note: str | None = None


@dataclass(frozen=True)
class _Lineshape:
    """Mean bright fraction at the data points; per-ion exponent c0 + c1 nbar, (N, G)."""

    c0: np.ndarray
    c1: np.ndarray
    drive: DriveConfig

    def per_ion(self, nbar: float) -> np.ndarray:
        drive = self.drive
        return bright_fraction(self.c0 + self.c1 * nbar, drive.gamma, drive.sequence.total_odf_time)

    def __call__(self, nbar: float) -> np.ndarray:
        return self.per_ion(nbar).mean(axis=0)


def _lineshape(
    data: ObservedSpectrum,
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    target_mode: int,
    background: ThermalState,
) -> _Lineshape:
    coupling, gain = lineshape_terms(drive, spectrum, data.mu_hz * TWO_PI)
    nbar = background.nbar.copy()
    nbar[target_mode] = 0.0
    return _Lineshape(
        c0=decoherence_exponent(coupling, gain, nbar),
        c1=4.0 * np.outer(coupling[:, target_mode], gain[target_mode]),
        drive=drive,
    )


def _chi2(model, data: ObservedSpectrum, nbar: float) -> float:
    r = (data.p_up - model(nbar)) / data.sigma
    return float(np.dot(r, r))


def _chi2_derivatives(model: _Lineshape, data: ObservedSpectrum, nbar: float) -> tuple[float, float]:
    """d chi^2 / d nbar and d^2 chi^2 / d nbar^2 from one per_ion evaluation.

    chi^2' = -2 sum_i (p_i - m_i) m_i' / sigma_i^2 and
    chi^2'' = 2 sum_i (m_i'^2 - (p_i - m_i) m_i'') / sigma_i^2. With
    E = e^{-Gamma T} e^{-(c0 + c1 nbar)} = 1 - 2 P per ion, the mean model has
    m' = mean_j c1 E / 2 and m'' = -mean_j c1^2 E / 2.
    """
    e = model.per_ion(nbar)
    resid = data.p_up - e.mean(axis=0)
    # in place: P -> E = 1 - 2P -> c1 E -> c1^2 E
    e *= -2.0
    e += 1.0
    e *= model.c1
    slope = 0.5 * np.mean(e, axis=0)
    e *= model.c1
    bend = -0.5 * np.mean(e, axis=0)
    var = data.sigma**2
    return -2.0 * float(np.sum(resid * slope / var)), 2.0 * float(np.sum((slope**2 - resid * bend) / var))


def _minimize_nbar(model: _Lineshape, data: ObservedSpectrum, start: float = 1.0) -> float:
    """The minimum of chi^2 on [0, _NBAR_MAX], as the root of chi^2' (rtsafe).

    Returns 0 when chi^2 rises from nbar = 0 and _NBAR_MAX when it still
    falls there. Otherwise a Newton step is taken when chi^2'' > 0 and the
    step stays in the bracket [lo, hi] (chi^2' < 0 at lo, >= 0 at hi); else
    nbar doubles while no hi is known, and the bracket is bisected after.
    """
    if _chi2_derivatives(model, data, 0.0)[0] >= 0.0:
        return 0.0
    lo, hi = 0.0, math.inf
    nbar = start
    for _ in range(_MAX_NEWTON_STEPS):
        slope, curvature = _chi2_derivatives(model, data, nbar)
        if slope >= 0.0:
            hi = nbar
        elif nbar == _NBAR_MAX:
            return _NBAR_MAX
        else:
            lo = nbar
        newton = nbar - slope / curvature if curvature > 0.0 else math.nan
        if lo <= newton <= min(hi, _NBAR_MAX):
            step = newton - nbar
        elif hi == math.inf:
            step = min(max(2.0 * nbar, 1.0), _NBAR_MAX) - nbar
        else:
            step = 0.5 * (lo + hi) - nbar
        nbar += step
        if abs(step) <= _NEWTON_XTOL * max(1.0, nbar):
            return nbar
    raise FitConvergenceError(
        f"occupation fit did not converge in {_MAX_NEWTON_STEPS} steps (bracket [{lo:.6g}, {hi:.6g}])"
    )


def fit_occupation(
    data: ObservedSpectrum,
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    target_mode: int = 0,
    background: ThermalState | None = None,
) -> FitResult:
    """Weighted least-squares fit of the target mode's occupation.

    Non-target occupations are frozen at `background` (zero if omitted),
    mirroring the usual procedure of fixing bath modes while one mode is
    thermometered. Requires the data to straddle the resonance: at least one
    point within half a lineshape width (|delta| tau / 2pi < 0.5) and one
    beyond a full width, and the data's `n_ions`, when given, to match the
    spectrum's mode count.
    """
    if not 0 <= target_mode < spectrum.n_modes:
        raise ValueError("target_mode out of range")
    if data.metadata.n_ions is not None and data.metadata.n_ions != spectrum.n_modes:
        raise ValueError(
            f"data are from {data.metadata.n_ions} ions, but the spectrum has {spectrum.n_modes} modes"
        )
    if len(data) < 3:
        raise InsufficientDataError("need at least 3 points to fit an occupation")
    if background is None:
        background = ThermalState(np.zeros(spectrum.n_modes))

    tau = drive.sequence.tau
    detuning_cycles = np.abs(data.mu_hz * TWO_PI - spectrum.omega[target_mode]) * tau / TWO_PI
    if not (np.any(detuning_cycles < 0.5) and np.any(detuning_cycles > 1.0)):
        raise InsufficientSpanError(
            "data must include a point with |delta| tau/2pi < 0.5 and one with > 1"
        )

    model = _lineshape(data, spectrum, drive, target_mode, background)
    nbar_hat = _minimize_nbar(model, data)
    status = "ok"
    if nbar_hat < _BOUNDARY_NBAR:
        status = "boundary_nbar_zero"
        nbar_hat = 0.0
    elif nbar_hat == _NBAR_MAX:
        status = "boundary_nbar_max"
    chi2_min = _chi2(model, data, nbar_hat)
    curv = _chi2_derivatives(model, data, nbar_hat)[1]
    stat_err = math.sqrt(2.0 / curv) if curv > 0.0 else math.inf

    # beam-angle systematic: force scales with the lattice wavevector
    sys_err = 0.0
    note = None
    meta = data.metadata
    if meta.theta_r is not None and meta.theta_r_rel_err:
        shifts = []
        for sign in (+1.0, -1.0):
            factor = math.sin(meta.theta_r * (1.0 + sign * meta.theta_r_rel_err) / 2.0) / math.sin(
                meta.theta_r / 2.0
            )
            perturbed = replace(model, c0=factor**2 * model.c0, c1=factor**2 * model.c1)
            shifts.append(abs(_minimize_nbar(perturbed, data, start=nbar_hat) - nbar_hat))
        sys_err = max(shifts)
        note = (
            f"beam-angle +/-{100 * meta.theta_r_rel_err:g}% refit shifts nbar by "
            f"{sys_err:.3g}; added in quadrature"
        )

    nbar_err = math.hypot(stat_err, sys_err) if math.isfinite(stat_err) else math.inf
    omega_t = float(spectrum.omega[target_mode])
    dof = max(len(data) - 1, 1)
    return FitResult(
        nbar=nbar_hat,
        nbar_err=nbar_err,
        temperature=occupation_to_temperature(nbar_hat, omega_t),
        temperature_err=(
            occupation_to_temperature(nbar_err, omega_t) if math.isfinite(nbar_err) else math.inf
        ),
        gamma_used=drive.gamma,
        chi2_reduced=chi2_min / dof,
        status=status,
        systematic_note=note,
    )


def off_resonant(mu_hz: np.ndarray, spectrum: ModeSpectrum, tau: float) -> np.ndarray:
    """True where mu_hz is >= _OFF_RESONANT_CYCLES widths 2pi/tau from every mode."""
    mu = np.asarray(mu_hz, dtype=float) * TWO_PI
    min_det = np.min(np.abs(mu[:, None] - spectrum.omega[None, :]), axis=1)
    return min_det * tau / TWO_PI >= _OFF_RESONANT_CYCLES


def fit_background_gamma(
    data: ObservedSpectrum, spectrum: ModeSpectrum, sequence: Sequence
) -> float:
    """Decoherence rate from the flat off-resonant background of a sequence.

    Every point must be `off_resonant` (at least 4 lineshape widths,
    4 * 2pi/tau, from every mode); the weighted mean background pbar then
    inverts pbar = 1/2 (1 - e^{-Gamma T}) with T the sequence's total drive
    time (2 tau for a spin echo, tau for Ramsey).
    """
    if len(data) < 3:
        raise InsufficientDataError("need at least 3 off-resonant points")
    if not np.all(off_resonant(data.mu_hz, spectrum, sequence.tau)):
        raise InsufficientDataError(
            f"points must be detuned by >= {_OFF_RESONANT_CYCLES} * 2pi/tau from every mode"
        )
    w = 1.0 / data.sigma**2
    pbar = float(np.sum(w * data.p_up) / np.sum(w))
    if pbar >= 0.5:
        raise UnphysicalBackgroundError(f"mean background {pbar:.3f} >= 0.5")
    return -math.log1p(-2.0 * pbar) / sequence.total_odf_time
