"""Mode-resolved thermometry: fit nbar from a measured lineshape.

Once the drive is calibrated the lineshape has one free parameter, the
target mode's thermal occupation, plus the background k = e^{-Gamma T} when
the data supply the decoherence rate (`drive.gamma == 0`). The occupation
enters the decoherence exponent linearly: per ion j and data point i the
exponent is c0 + nbar u_j v_i, a rank-one term. So one exponential per cell
and three column sums give chi^2 with its first two nbar-derivatives. The
model is linear in k, so k is profiled out in closed form at each nbar
(variable projection, Golub & Pereyra 1973), and the fit stays a bracketed
Newton search for the root of chi^2' on [0, _NBAR_MAX] (Numerical Recipes'
rtsafe). The search starts from a log-linear estimate of nbar, read from the
model at nbar = 0 that the boundary test evaluates anyway. The statistical
errors come from the analytic curvature of chi^2, and an optional beam-angle
systematic is propagated by refitting at perturbed force calibrations. Forces
enter the exponent only as F^2, so a perturbed calibration just rescales
(c0, u) by f^2, and each refit starts at nbar / f^2; it evaluates chi^2' at
nbar = 0 only when its bracket needs the boundary test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .constants import HBAR, K_B
from .dynamics import ThermalState, _coefficients, _gain_blocks, decoherence_exponent
from .errors import (
    FitConvergenceError,
    InsufficientDataError,
    InsufficientSpanError,
    UnphysicalBackgroundError,
)
from .modes import ModeSpectrum
from .odf import DriveConfig
from .trap import TWO_PI

_NBAR_MAX = 1e6
_BOUNDARY_NBAR = 1e-3
_NEWTON_XTOL = 1e-10  # stop when a step is at most this times max(1, nbar)
_MAX_NEWTON_STEPS = 100


def occupation_to_temperature(nbar: float, omega_m: float) -> float:
    """T = nbar hbar omega / k_B (high-occupation convention, no +1/2)."""
    if nbar < 0.0 or omega_m <= 0.0:
        raise ValueError("nbar must be >= 0 and omega_m positive")
    return nbar * HBAR * omega_m / K_B


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
    gamma_err: float | None = None  # set when the data supplied gamma_used


@dataclass(frozen=True)
class _Lineshape:
    """Mean bright fraction at the data points; per ion j and point i the exponent is
    Gamma T + c0[j, i] + nbar u[j] v[i], with u = 4 coupling[:, target], v = gain[target]."""

    c0: np.ndarray
    u: np.ndarray
    v: np.ndarray
    decay: float | None  # Gamma T; None when the data supply it, and `moments` then uses 0

    def moments(self, nbar: float) -> np.ndarray:
        """The mean bright fraction m and its nbar-derivatives m', m'', shape (3, G).

        With E = e^{-(c0 + nbar u v)} = e^{Gamma T} (1 - 2P) per ion, m = (1 - e^{-Gamma T} mean_j E) / 2,
        m' = e^{-Gamma T} v mean_j u E / 2 and m'' = -e^{-Gamma T} v^2 mean_j u^2 E / 2: one exponential
        per cell and three weighted column sums; einsum forms the outer product and adds the sums without BLAS.
        """
        e = np.einsum("j,i->ji", -nbar * self.u, self.v)
        e -= self.c0
        sums = np.einsum("kj,jg->kg", self._weights, np.exp(e, out=e))
        return np.array([0.5 - sums[0], self.v * sums[1], -(self.v**2) * sums[2]])

    @cached_property
    def _weights(self) -> np.ndarray:
        """(1, u, u^2) e^{-Gamma T} / (2 N), shape (3, N): the column sums' weights, free of nbar."""
        scale = 0.5 * math.exp(-(self.decay or 0.0)) / len(self.u)
        return np.vander(self.u, 3, increasing=True).T * scale


def _lineshape(
    data: ObservedSpectrum,
    spectrum: ModeSpectrum,
    drive: DriveConfig,
    target_mode: int,
    background: ThermalState,
) -> _Lineshape:
    coupling = _coefficients(drive, spectrum) ** 2
    nbar = background.nbar.copy()
    nbar[target_mode] = 0.0
    # the sweep's gain blocks, joined once `_gain_blocks` has freed its buffers: a c0 allocated first
    # left them atop the heap, which malloc trimmed and faulted in again (~700 faults a fit at N = 190)
    blocks = [(decoherence_exponent(coupling, gain, nbar), gain[target_mode].copy())
              for _, gain in _gain_blocks(drive, spectrum, data.mu_hz * TWO_PI)]
    c0, v = (np.concatenate(parts, axis=-1) for parts in zip(*blocks))
    return _Lineshape(
        c0=c0,
        u=4.0 * coupling[:, target_mode],
        v=v,
        decay=None if drive.gamma == 0.0 else drive.gamma * drive.sequence.total_odf_time,
    )


def _terms(
    model: _Lineshape, data: ObservedSpectrum, nbar: float, moments: np.ndarray | None = None
) -> tuple:
    """chi^2 and its nbar-derivatives from one model evaluation, then k = e^{-Gamma T} and its
    variance 2 (H^-1)_kk (None with Gamma given): chi^2' = -2 sum_i (p_i - m_i) m_i' / sigma_i^2
    and chi^2'' = 2 sum_i (m_i'^2 - (p_i - m_i) m_i'') / sigma_i^2. `moments`, when given, is
    `model.moments(nbar)`, already evaluated.

    With decay None, m = 1/2 - k w (w = 1/2 - m at k = 1) is linear in k, which takes its
    least-squares value, held at 1 (Gamma >= 0). chi^2' keeps its form (envelope theorem),
    and while k < 1 the profile's chi^2'' is chi^2_nn - chi^2_nk^2 / chi^2_kk.
    """
    if moments is None:
        moments = model.moments(nbar)
    m, slope, bend = moments / data.sigma  # each weighted by 1/sigma
    resid = data.p_up / data.sigma - m
    k = k_var = None
    if model.decay is None:
        wing = 0.5 / data.sigma - m
        h_kk = 2.0 * float(np.sum(wing**2))
        k = min(1.0 - 2.0 * float(np.sum(wing * resid)) / h_kk, 1.0)
        if k <= 0.0:
            raise UnphysicalBackgroundError(f"the data put the background e^(-Gamma T) at {k:.3g} <= 0")
        resid -= (1.0 - k) * wing
        h_nk = -2.0 * float(np.sum((resid + k * wing) * slope))
        slope, bend = k * slope, k * bend
    chi2, grad, curv = (float(np.sum(resid**2)), -2.0 * float(np.sum(resid * slope)),
                        2.0 * float(np.sum(slope**2 - resid * bend)))
    if k is not None:
        det = curv * h_kk - h_nk**2
        k_var = 2.0 * curv / det if det > 0.0 else math.inf
        if k < 1.0:
            curv -= h_nk**2 / h_kk
    return chi2, grad, curv, k, k_var


def _log_linear_nbar(model: _Lineshape, data: ObservedSpectrum, m0: np.ndarray) -> float:
    """A start for the search: nbar from the log-linear model 1 - 2p_i ~ (1 - 2m_i(0)) e^{-nbar u_bar v_i}.

    m0 is the model at nbar = 0 and u_bar the ion mean of u. Each point whose ratio
    (1 - 2p_i) / (1 - 2m_i(0)) is positive gives y_i = -log of it = nbar u_bar v_i, plus an
    intercept -log k when the data supply Gamma; nbar is their weighted least-squares slope,
    with the weights ((1 - 2p_i) / sigma_i)^2, y_i's inverse variance to first order. It is 0
    when fewer than two points qualify.
    """
    dip, dip0 = 1.0 - 2.0 * data.p_up, 1.0 - 2.0 * m0  # dip0 > 0 unless e^{-c0} underflows
    keep = (dip > 0.0) & (dip0 > 0.0)
    if np.count_nonzero(keep) < 2:
        return 0.0
    x = float(np.mean(model.u)) * model.v[keep]
    y = np.log(dip0[keep] / dip[keep])
    w = (dip[keep] / data.sigma[keep]) ** 2
    if model.decay is None:  # the intercept: centre x and y on their weighted means
        x = x - np.dot(w, x) / np.sum(w)
        y = y - np.dot(w, y) / np.sum(w)
    sxx = float(np.dot(w, x * x))
    return float(np.dot(w, x * y)) / sxx if sxx > 0.0 else 0.0


def _minimize_nbar(model: _Lineshape, data: ObservedSpectrum, start: float | None = None) -> float:
    """The minimum of chi^2 on [0, _NBAR_MAX], as the root of chi^2' (rtsafe).

    It is 0 when chi^2 rises from nbar = 0, _NBAR_MAX when it still falls at _NBAR_MAX. Else
    a Newton step is taken when chi^2'' > 0 and the step stays in the bracket
    [lo, hi] (chi^2' < 0 at lo, >= 0 at hi); else nbar doubles while no hi is
    known, and the bracket is bisected after.

    The main fit passes no `start`: chi^2 is evaluated at 0 first, as the boundary test, and
    the search starts from `_log_linear_nbar` on that evaluation's moments. A refit passes its
    `start`. Either start is clamped to [0, _NBAR_MAX]. The boundary test of a refit is lazy:
    chi^2' at 0 is evaluated only when an iterate has chi^2' >= 0 while the bracket's lower
    end is still 0.
    """
    zero = None  # chi^2' and chi^2'' at nbar = 0, once evaluated
    if start is None:
        moments = model.moments(0.0)
        zero = _terms(model, data, 0.0, moments)[1:3]
        if zero[0] >= 0.0:
            return 0.0
        start = _log_linear_nbar(model, data, moments[0])
    lo, hi = 0.0, math.inf
    nbar = min(max(start, 0.0), _NBAR_MAX)
    for _ in range(_MAX_NEWTON_STEPS):
        if zero is None and nbar == 0.0:
            zero = _terms(model, data, 0.0)[1:3]
        slope, curvature = zero if nbar == 0.0 else _terms(model, data, nbar)[1:3]
        if slope >= 0.0 and lo == 0.0:  # the lower end 0 brackets the root only if chi^2' < 0 there
            if zero is None:
                zero = _terms(model, data, 0.0)[1:3]
            if zero[0] >= 0.0:
                return 0.0
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
    spectrum's mode count. With `drive.gamma == 0` the data supply Gamma:
    e^{-Gamma T} is fitted with nbar (see `_terms`), and `gamma_err` is set.
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
        raise InsufficientSpanError("data must include a point with |delta| tau/2pi < 0.5 and one with > 1")

    model = _lineshape(data, spectrum, drive, target_mode, background)
    nbar_hat = _minimize_nbar(model, data)
    status = "ok"
    if nbar_hat < _BOUNDARY_NBAR:
        status = "boundary_nbar_zero"
        nbar_hat = 0.0
    elif nbar_hat == _NBAR_MAX:
        status = "boundary_nbar_max"
    chi2_min, _, curv, k, k_var = _terms(model, data, nbar_hat)
    stat_err = math.sqrt(2.0 / curv) if curv > 0.0 else math.inf

    # beam-angle systematic: force scales with the lattice wavevector
    sys_err, note, meta = 0.0, None, data.metadata
    if meta.theta_r is not None and meta.theta_r_rel_err:
        shifts = []
        for sign in (+1.0, -1.0):
            angle = meta.theta_r * (1.0 + sign * meta.theta_r_rel_err)
            factor = math.sin(angle / 2.0) / math.sin(meta.theta_r / 2.0)
            perturbed = replace(model, c0=factor**2 * model.c0, u=factor**2 * model.u)
            shifts.append(abs(_minimize_nbar(perturbed, data, start=nbar_hat / factor**2) - nbar_hat))
        sys_err = max(shifts)
        note = (
            f"beam-angle +/-{100 * meta.theta_r_rel_err:g}% refit shifts nbar by "
            f"{sys_err:.3g}; added in quadrature"
        )

    nbar_err = math.hypot(stat_err, sys_err)
    omega_t = float(spectrum.omega[target_mode])
    gamma, gamma_err, dof = drive.gamma, None, max(len(data) - 1, 1)
    if k is not None:
        total_time = drive.sequence.total_odf_time
        gamma = abs(math.log(k)) / total_time  # k <= 1, and abs keeps a gamma of 0 unsigned
        gamma_err = math.sqrt(k_var) / (k * total_time)
        dof = max(len(data) - 2, 1)
    return FitResult(
        nbar=nbar_hat,
        nbar_err=nbar_err,
        temperature=occupation_to_temperature(nbar_hat, omega_t),
        temperature_err=occupation_to_temperature(nbar_err, omega_t),
        gamma_used=gamma,
        chi2_reduced=chi2_min / dof,
        status=status,
        systematic_note=note,
        gamma_err=gamma_err,
    )

