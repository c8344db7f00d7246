"""Spin-dependent displacements, decoherence lineshapes, and spectra.

A sigma_z-dependent lattice force F_j cos(mu t + phi) drives each transverse
mode m into a spin-conditioned coherent displacement

    alpha_jm(t, phi) = (F_j b_jm z_0m / hbar) * G_m(t, phi),
    G_m(t, phi) = (i/2) [ e^{i phi} E(omega_m + mu, t) + e^{-i phi} E(omega_m - mu, t) ]
                = (i t/2) e^{i(b - phi)} [ e^{i(mu t + 2 phi)} sinc a + sinc b ],

with E(x, t) = integral_0^t e^{i x t'} dt' = t e^{i x t/2} sinc(x t/2),
z_0m = sqrt(hbar / 2 M omega_m), sinc(u) = sin(u)/u, a = (omega_m + mu) t/2
and b = (omega_m - mu) t/2, exact at resonance mu = omega_m too.

A spin echo applies the drive in two arms of length tau separated by a pi
pulse of length t_pi; the second arm enters with an accumulated drive-vs-mode
phase phi_m = (tau + t_pi)(mu - omega_m) and opposite spin sign, giving
alpha^SE = alpha(tau, 0) - alpha(tau, phi_m), i.e. (t = tau)

    G^SE_m = tau sin(phi_m/2) e^{i(b - phi_m/2)} [ e^{i theta} sinc a - sinc b ],
    theta = (2 tau + t_pi) mu - (tau + t_pi) omega_m,

which has no cancellation as phi_m -> 0. In real arithmetic the gain is
|G|^2 = S^2 (A^2 + B^2 + A B C), A = sinc a, B = sinc b, with S = tau sin(phi_m/2),
C = -2 cos theta (echo) or S = t/2, C = 2 cos(mu t) (Ramsey). On an (M modes,
G points) grid, a = x + y and b = x - y split into per-mode and per-point
phases, and every per-cell sine or cosine comes from M + G calls joined by
angle addition, one einsum of a per-mode and a per-point pair each, except on
cells with min(|a|, |b|) = ||x| - |y|| below _NEAR_PHASE: there sin a, sin b
and sin(phi_m/2) are taken directly, keeping their relative precision where
they vanish (the echo null is exactly 0). Those cells are found per mode by a
sorted search on |y|, so the grid may come in any order.

Tracing out the motion of a thermal crystal turns the residual entanglement
into a bright-state probability

    P_up^(j) = 1/2 [1 - e^{-Gamma T} exp(-2 sum_m |alpha_jm|^2 (2 nbar_m + 1))]
             = -1/2 expm1(-(Gamma T + 2 sum_m |alpha_jm|^2 (2 nbar_m + 1))),

with T the total drive-on time (2 tau for the echo, tau for Ramsey).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import DrumheadError
from .modes import ModeSpectrum
from .odf import DriveConfig, Ramsey, SpinEcho
from .trap import TWO_PI

_GAIN_BLOCK_CELLS = 50_000  # (mode, point) cells per block of the lineshape gain
_MIN_BLOCK_COLUMNS = 128  # grid points per block at least: each block's exponent repacks the coupling
_NEAR_PHASE = 16.0  # rad; below it a cell's sines are taken directly, not by angle addition


def _sinc(sin_x, x):
    """sin(x)/x from sin(x), with the limit 1 at x = 0."""
    return np.divide(sin_x, x, out=np.ones(np.shape(x)), where=x != 0.0)


def _sidebands(omega, mu, t, theta, sign):
    """Re and Im of e^{i theta} sinc a + sign sinc b, with theta a (per-mode, per-point) pair."""
    a = 0.5 * t * omega + 0.5 * t * mu
    sinc_a = _sinc(np.sin(a), a)  # the sine of the a it divides by keeps its precision as a -> 0
    (cos_m, sin_m), (cos_p, sin_p) = [(np.cos(x), np.sin(x)) for x in theta]
    b = 0.5 * t * (omega - mu)
    re = sinc_a * (cos_m * cos_p - sin_m * sin_p) + sign * _sinc(np.sin(b), b)
    return re, sinc_a * (sin_m * cos_p + cos_m * sin_p)


def _arm_factor(omega, mu, t, phi):
    """G(t, phi) such that alpha = (F b z0 / hbar) G for drive cos(mu t' + phi)."""
    re, im = _sidebands(omega, mu, t, (2.0 * phi, mu * t), 1.0)
    return 0.5j * t * np.exp(1j * (0.5 * t * (omega - mu) - phi)) * (re + 1j * im)


def _echo_factor(omega, mu, sequence: SpinEcho):
    """_arm_factor(tau, 0) - _arm_factor(tau, phi), without the cancellation at resonance."""
    tau, t_pi = sequence.tau, sequence.t_pi
    re, im = _sidebands(omega, mu, tau, (-(tau + t_pi) * omega, (2.0 * tau + t_pi) * mu), -1.0)
    scale = tau * np.sin(0.5 * (tau + t_pi) * (mu - omega))
    return scale * np.exp(0.5j * (2.0 * tau + t_pi) * (omega - mu)) * (re + 1j * im)


# ---------------------------------------------------------------------------
# thermal occupations


@dataclass(frozen=True)
class ThermalState:
    """Mean occupation nbar_m of each mode, ordered like the spectrum."""

    nbar: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.nbar, dtype=float)
        if not np.all((0.0 <= arr) & (arr < np.inf)):
            raise ValueError("occupations must be finite and >= 0")
        arr.setflags(write=False)
        object.__setattr__(self, "nbar", arr)

    @classmethod
    def uniform(cls, n_modes: int, nbar: float) -> "ThermalState":
        return cls(np.full(n_modes, float(nbar)))

    @classmethod
    def from_temperature(cls, spectrum: ModeSpectrum, kelvin: float) -> "ThermalState":
        """Single temperature for every mode, nbar_m = k_B T / (hbar omega_m)."""
        if not spectrum.stable:
            raise DrumheadError("cannot assign a temperature to an unstable spectrum")
        return cls(K_B * kelvin / (HBAR * spectrum.omega))

    @classmethod
    def com_plus_bath(
        cls, spectrum: ModeSpectrum, nbar_com: float, bath_temperature: float
    ) -> "ThermalState":
        """COM occupation set directly; every other mode thermal at one temperature."""
        nbar = cls.from_temperature(spectrum, bath_temperature).nbar.copy()
        nbar[0] = nbar_com
        return cls(nbar)


# ---------------------------------------------------------------------------
# displacement fields


@dataclass(frozen=True)
class DisplacementField:
    """alpha[j, m]: spin-conditioned displacement of mode m tied to ion j."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)


def _require_mu(drive: DriveConfig) -> float:
    if drive.mu_r is None:
        raise ValueError("drive.mu_r is unset; use drive.with_mu(...) or a sweep")
    return float(drive.mu_r)


def _coefficients(drive: DriveConfig, spectrum: ModeSpectrum) -> np.ndarray:
    """(N_ion, M) prefactors F_j b_jm z_0m / hbar."""
    if not spectrum.stable:
        raise DrumheadError("cannot drive an unstable mode spectrum")
    forces = drive.force_array(spectrum.b.shape[0])
    z0 = spectrum.ground_state_lengths()
    return (forces[:, None] / HBAR) * spectrum.b * z0[None, :]


def alpha_single_arm(
    drive: DriveConfig, spectrum: ModeSpectrum, tau: float, phi: float = 0.0
) -> DisplacementField:
    """Displacements after one drive arm of duration tau with phase offset phi."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    mu = _require_mu(drive)
    g = _arm_factor(spectrum.omega, mu, tau, phi)
    return DisplacementField(alpha=_coefficients(drive, spectrum) * g[None, :])


def alpha_spin_echo(drive: DriveConfig, spectrum: ModeSpectrum) -> DisplacementField:
    """Net displacements after the full spin-echo sequence."""
    if not isinstance(drive.sequence, SpinEcho):
        raise ValueError("alpha_spin_echo requires a SpinEcho sequence")
    mu = _require_mu(drive)
    g = _echo_factor(spectrum.omega, mu, drive.sequence)
    return DisplacementField(alpha=_coefficients(drive, spectrum) * g[None, :])


# ---------------------------------------------------------------------------
# bright-state probability


def _block_edges(n_modes: int, n_points: int) -> list:
    """Column edges of the gain's blocks: about _GAIN_BLOCK_CELLS cells, at least _MIN_BLOCK_COLUMNS columns."""
    edges = [*range(0, n_points, max(_MIN_BLOCK_COLUMNS, _GAIN_BLOCK_CELLS // n_modes)), n_points]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return edges


def _block(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous (rows, cols) view of the front of a flat scratch buffer."""
    return buffer[:rows * cols].reshape(rows, cols)


def _near_cells(abs_x, abs_y):
    """Rows and columns of the cells with ||x| - |y|| < _NEAR_PHASE, for per-mode |x| and per-point |y| in any order.

    Each mode's candidates come from a sorted search on |y|, widened by a
    relative 1e-9 against the rounding of |x| -+ _NEAR_PHASE; the exact test
    then keeps the same cells as a test of every cell would.
    """
    order = np.argsort(abs_y, kind="stable")
    sorted_y, slack = abs_y[order], 1e-9 * (abs_x + _NEAR_PHASE)
    lo = np.searchsorted(sorted_y, abs_x - _NEAR_PHASE - slack)
    counts = np.searchsorted(sorted_y, abs_x + _NEAR_PHASE + slack, side="right") - lo
    rows = np.repeat(np.arange(len(abs_x)), counts)
    cols = order[np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    near = np.abs(abs_x[rows] - abs_y[cols]) < _NEAR_PHASE
    return rows[near], cols[near]


def _gain_blocks(drive: DriveConfig, spectrum: ModeSpectrum, mu_grid: np.ndarray):
    """Yield (cols, gain) for column blocks of |G_m(mu)|^2, each (M, block) of about _GAIN_BLOCK_CELLS cells.

    A block has at least `_MIN_BLOCK_COLUMNS` columns, and a one-column tail
    joins the block before it: numpy takes the ion mean of an (N_ion, 1)
    block pairwise but of a wider one row by row, so `p_up_mean` keeps the
    bits of the per-ion table's mean. Each block is written in place in four
    reused buffers, so it is valid only until the next one. Every two-product
    cell sum (sin a, sin b, C and S) is one einsum of a per-mode (2, M) pair
    and a per-point (2, block) pair, and the near cells come from a sorted
    search per mode (`_near_cells`), so the grid may be in any order. Every
    cell is elementwise in (omega_m, mu), so the blocks do not change its
    bits. The sweep and the fit's model (`thermometry._lineshape`) both take
    the gain here.
    """
    seq = drive.sequence
    omega, mu = spectrum.omega, np.asarray(mu_grid, dtype=float)
    half = 0.5 * seq.tau
    x, y = half * omega, half * mu
    abs_x, abs_y = np.abs(x), np.abs(y)
    # sin a = sin x cos y + cos x sin y and sin b = sin x cos y + (-cos x) sin y
    sin_x, cos_x = np.sin(x), np.cos(x)
    mode_a, mode_b, point_y = np.array([sin_x, cos_x]), np.array([sin_x, -cos_x]), np.array([np.cos(y), np.sin(y)])
    # echo: C = -2 cos theta, S = tau sin(lag (mu - omega) / 2); Ramsey: lag = 0, C = 2 cos(mu tau), S = tau/2
    lag, weight = (seq.tau + seq.t_pi, -2.0) if isinstance(seq, SpinEcho) else (0.0, 2.0)
    theta_m, theta_p, phi_m, phi_p = lag * omega, (seq.tau + lag) * mu, 0.5 * lag * omega, 0.5 * lag * mu
    cos_theta = (np.array([weight * np.cos(theta_m), weight * np.sin(theta_m)]),
                 np.array([np.cos(theta_p), np.sin(theta_p)]))
    sin_phi = (np.array([np.cos(phi_m), -np.sin(phi_m)]), np.array([seq.tau * np.sin(phi_p), seq.tau * np.cos(phi_p)]))
    edges = _block_edges(len(omega), len(mu))
    buffers = np.empty((4, len(omega) * max(np.diff(edges), default=0)))
    for start, stop in zip(edges, edges[1:]):
        cols = slice(start, stop)
        sinc_a, sinc_b, tmp, cross = (_block(buf, len(omega), stop - start) for buf in buffers)
        np.einsum("ki,kj->ij", mode_a, point_y[:, cols], out=sinc_a)
        np.einsum("ki,kj->ij", mode_b, point_y[:, cols], out=sinc_b)
        with np.errstate(divide="ignore", invalid="ignore"):  # at a = 0 or b = 0; those cells are near
            sinc_a /= np.add(x[:, None], y[cols], out=tmp)
            sinc_b /= np.subtract(x[:, None], y[cols], out=tmp)
        near = _near_cells(abs_x, abs_y[cols])
        om_near, mu_near = omega[near[0]], mu[start + near[1]]
        for sinc, phase in ((sinc_a, half * om_near + half * mu_near), (sinc_b, half * (om_near - mu_near))):
            sinc[near] = _sinc(np.sin(phase), phase)
        np.einsum("ki,kj->ij", cos_theta[0], cos_theta[1][:, cols], out=cross)
        cross *= sinc_b
        cross += sinc_a
        cross *= sinc_a
        cross += np.square(sinc_b, out=sinc_b)
        scale = half**2
        if isinstance(seq, SpinEcho):
            scale = np.einsum("ki,kj->ij", sin_phi[0], sin_phi[1][:, cols], out=sinc_a)
            scale[near] = seq.tau * np.sin(0.5 * lag * (mu_near - om_near))
            scale *= scale
        cross *= scale
        yield cols, cross


def decoherence_exponent(coupling: np.ndarray, gain, nbar: np.ndarray, out=None) -> np.ndarray:
    """2 sum_m coupling_jm gain_m (2 nbar_m + 1), shape (N_ion, G) for gain (M, G).

    `out`, if given, is a pair of buffers for the weighted gain (M, G) and the
    exponent (N_ion, G), which is returned; the gain itself is never written.
    """
    if len(nbar) != coupling.shape[1]:
        raise ValueError("thermal occupations and coupling disagree on mode count")
    weighted, exponent = (None, None) if out is None else out
    # the leading 2 rides in the weights: a power of two scales every product and sum exactly, short of underflow
    weighted = np.multiply(gain, (2.0 * (2.0 * np.asarray(nbar, dtype=float) + 1.0))[:, None], out=weighted)
    return np.matmul(coupling, weighted, out=exponent)


def bright_fraction(exponent: np.ndarray, gamma: float, total_odf_time: float, out=None) -> np.ndarray:
    """P = 1/2 (1 - e^{-Gamma T} e^{-exponent}), through expm1 so small P keeps its digits.

    P is written into `out` (which may be the exponent itself), or into one
    new array, and every later step runs in place there; a scalar exponent
    gives a 0-d array.
    """
    # -Gamma T - x rounds to exactly -(Gamma T + x)
    p = np.subtract(-(gamma * total_odf_time), exponent, out=np.empty(np.shape(exponent)) if out is None else out)
    np.expm1(p, out=p)
    p *= -0.5
    return p


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumTrace:
    """Bright-state probability vs drive beat frequency (Hz at the boundary)."""

    mu_over_2pi: np.ndarray
    p_up_mean: np.ndarray
    p_up_per_ion: np.ndarray | None = None


def sweep_spectrum(
    drive: DriveConfig,
    spectrum: ModeSpectrum,
    thermal: ThermalState,
    mu_grid: np.ndarray,
    per_ion: bool = False,
) -> SpectrumTrace:
    """Evaluate the lineshape on an ascending grid of finite beat frequencies (rad/s).

    One pass over the gain's column blocks (`_gain_blocks`): each block's
    exponent, bright fraction and ion mean are taken before the next block
    is built, in two scratch blocks allocated once per sweep, so the sweep
    holds no (M, G) or (N_ion, G) array except the (N_ion, G) table that
    `per_ion=True` returns. The block width is fixed,
    so a sweep repeats bit for bit at a fixed BLAS thread count; against one
    matrix product over the whole grid, the exponent can differ in the last
    bits. A pure function, so callers may sweep concurrently.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.ndim != 1 or len(mu_grid) == 0:
        raise ValueError("mu_grid must be a non-empty 1D array")
    if not np.all(np.isfinite(mu_grid)):
        raise ValueError("mu_grid must be finite")
    if np.any(np.diff(mu_grid) < 0.0):
        raise ValueError("mu_grid must be sorted ascending")

    coupling = _coefficients(drive, spectrum) ** 2
    total_time = drive.sequence.total_odf_time
    p_up_mean = np.empty(len(mu_grid))
    per = np.empty((len(coupling), len(mu_grid))) if per_ion else None
    width = max(np.diff(_block_edges(spectrum.n_modes, len(mu_grid))))
    weighted, exponent = np.empty(spectrum.n_modes * width), np.empty(len(coupling) * width)
    for cols, gain in _gain_blocks(drive, spectrum, mu_grid):
        # the weighted gain and the exponent, then P in place of the exponent, in two scratch blocks
        out = (_block(weighted, *gain.shape), _block(exponent, len(coupling), gain.shape[1]))
        p = bright_fraction(decoherence_exponent(coupling, gain, thermal.nbar, out=out), drive.gamma, total_time,
                            out=out[1])
        np.mean(p, axis=0, out=p_up_mean[cols])
        if per_ion:
            per[:, cols] = p
    return SpectrumTrace(mu_over_2pi=mu_grid / TWO_PI, p_up_mean=p_up_mean, p_up_per_ion=per)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space path alpha(t) of one (ion, mode) pair."""

    times: np.ndarray
    alpha: np.ndarray
    arm_boundary: int | None  # sample index where the second echo arm starts


def phase_space_trajectory(
    drive: DriveConfig,
    spectrum: ModeSpectrum,
    mode_index: int,
    n_samples: int = 256,
) -> Trajectory:
    """Sample alpha_jm(t) through the pulse sequence, for plotting, on the ion that moves most."""
    if not 0 <= mode_index < spectrum.n_modes:
        raise ValueError("mode_index out of range")
    mu = _require_mu(drive)
    omega = float(spectrum.omega[mode_index])
    ion_index = int(np.argmax(np.abs(spectrum.b[:, mode_index])))
    coef = _coefficients(drive, spectrum)[ion_index, mode_index]
    seq = drive.sequence
    t = np.linspace(0.0, seq.tau, n_samples)
    first = coef * _arm_factor(omega, mu, t, 0.0)
    if isinstance(seq, Ramsey):
        return Trajectory(times=t, alpha=first, arm_boundary=None)
    phi = (seq.tau + seq.t_pi) * (mu - omega)
    second = first[-1] - coef * _arm_factor(omega, mu, t, phi)
    times = np.concatenate([t, seq.tau + seq.t_pi + t])
    return Trajectory(times=times, alpha=np.concatenate([first, second]), arm_boundary=n_samples)


@dataclass(frozen=True)
class MeanExcursion:
    meters: float
    convention: str


_EXCURSION_CONVENTION = (
    "rms over the equal-superposition spin ensemble and over ions: "
    "2 z0m sqrt(sum_j |alpha_jm|^2 / N)"
)


def mean_excursion(
    field: DisplacementField, spectrum: ModeSpectrum, mode_index: int
) -> MeanExcursion:
    """Typical real-space excursion (m) of mode `mode_index` for this field.

    For one spin configuration {s_j} the mode displacement is
    sum_j s_j alpha_jm; averaging |.|^2 over the 2^N equal-weight
    configurations gives sum_j |alpha_jm|^2, and ion i moves by
    2 b_im z0m |.|. The rms over ions (sum_i b_im^2 = 1) yields the
    convention recorded in the result.
    """
    if not 0 <= mode_index < spectrum.n_modes:
        raise ValueError("mode_index out of range")
    z0 = float(spectrum.ground_state_lengths()[mode_index])
    n = field.alpha.shape[0]
    amplitude = math.sqrt(float(np.sum(np.abs(field.alpha[:, mode_index]) ** 2)) / n)
    return MeanExcursion(meters=2.0 * z0 * amplitude, convention=_EXCURSION_CONVENTION)


# ---------------------------------------------------------------------------
# validity guardrail


@dataclass(frozen=True)
class ValidityRatio:
    ratio: float
    spin_motion_dominant: bool


def validity_ratio(force: float, z0_com: float, nbar_com: float, t: float) -> ValidityRatio:
    """Estimated spin-spin vs spin-motion signal ratio near the COM mode.

    ratio = (F^2 / 4 hbar^2) z0^2 t^2 / (2 nbar + 1); above 0.1 the
    neglected collective spin-spin terms start to matter.
    """
    if not (force >= 0.0 and z0_com > 0.0 and nbar_com >= 0.0 and t >= 0.0):
        raise ValueError("inputs must be non-negative (z0 positive)")
    ratio = (force**2 / (4.0 * HBAR**2)) * z0_com**2 * t**2 / (2.0 * nbar_com + 1.0)
    return ValidityRatio(ratio=ratio, spin_motion_dominant=ratio <= 0.1)
