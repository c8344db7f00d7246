"""Shared fixtures: trap parameter factories, a cross-module solve cache, lineshape oracles and a
reference occupation search."""

import math
from functools import lru_cache

import numpy as np
import pytest

from drumhead import (
    BE9_ION_MASS,
    ModeSpectrum,
    StiffnessMatrix,
    TrapParams,
    diagonalize,
    solve_equilibrium,
    transverse_stiffness,
)
from drumhead.crystal import _ROW_BLOCK
from drumhead.dynamics import (
    _GAIN_BLOCK_CELLS,
    _MIN_BLOCK_COLUMNS,
    _NEAR_PHASE,
    _coefficients,
    _gain_blocks,
    _sinc,
)
from drumhead.odf import SpinEcho
from drumhead.thermometry import _MAX_NEWTON_STEPS, _NBAR_MAX, _NEWTON_XTOL, _terms

AXIAL_HZ = 795e3
CYCLOTRON_HZ = 7.6e6


def paper_trap(rotation_hz: float = 43.2e3, wall: float = 0.0) -> TrapParams:
    return TrapParams.from_hz(AXIAL_HZ, CYCLOTRON_HZ, rotation_hz, delta_wall=wall)


@lru_cache(maxsize=64)
def solve_cached(n_ions: int, rotation_hz: float = 43.2e3, wall: float = 0.0, seed: int = 0):
    return solve_equilibrium(paper_trap(rotation_hz, wall), n_ions, seed=seed)


@lru_cache(maxsize=64)
def spectrum_cached(n_ions: int, rotation_hz: float = 43.2e3, wall: float = 0.0, seed: int = 0):
    return diagonalize(transverse_stiffness(solve_cached(n_ions, rotation_hz, wall, seed)))


def averaged(k: np.ndarray) -> np.ndarray:
    """(k + k^T) / 2 of a square k, refused unless max |k - k^T| <= 1e-10 max |k|; an exactly
    symmetric k is returned as it is, which is (k + k^T) / 2 to the bit."""
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("stiffness must be a square matrix")
    blocks = [slice(a, a + _ROW_BLOCK) for a in range(0, len(k), _ROW_BLOCK)]
    scratch, asym = np.empty_like(k[:_ROW_BLOCK]), 0.0
    for rows in blocks:
        diff = np.subtract(k[rows], k[:, rows].T, out=scratch[: len(k[rows])])
        asym = max(asym, np.max(np.abs(diff, out=diff)))
    if asym == 0.0:
        return k
    sym_dev = asym / max(np.max(k), -np.min(k), 1e-300)
    if sym_dev > 1e-10:
        raise ValueError(f"stiffness is not symmetric (relative deviation {sym_dev:.2e})")
    sym = np.empty_like(k)
    for rows in blocks:
        np.multiply(0.5, np.add(k[rows], k[:, rows].T, out=sym[rows]), out=sym[rows])
    return sym


def argsort_diagonalize(stiffness: StiffnessMatrix) -> ModeSpectrum:
    """The reference `diagonalize` must equal bit for bit: the stiffness averaged with its
    transpose, eigh's eigenvalues argsorted into descending order and its columns put in that
    order in place, a block of rows at a time, then the same sign convention."""
    evals, evecs = np.linalg.eigh(averaged(np.asarray(stiffness.entries, dtype=float)))
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    for a in range(0, len(evecs), _ROW_BLOCK):
        rows = evecs[a : a + _ROW_BLOCK]
        rows[:] = rows[:, order]
    top, bottom = evecs.max(axis=0), -evecs.min(axis=0)
    negative, ties = bottom > top, np.flatnonzero(bottom == top)
    negative[ties] = evecs[np.argmax(np.abs(evecs[:, ties]), axis=0), ties] < 0.0
    evecs *= np.where(negative, -1.0, 1.0)
    return ModeSpectrum(eigenvalues=evals, b=evecs, mass=stiffness.mass)


def one_mode_spectrum(omega: float) -> ModeSpectrum:
    """A one-ion spectrum whose single mode has angular frequency omega."""
    return ModeSpectrum(eigenvalues=np.array([omega**2]), b=np.eye(1), mass=BE9_ION_MASS)


@pytest.fixture(scope="session")
def lattice_190():
    return solve_cached(190, 44.7e3)


@pytest.fixture(scope="session")
def spectrum_190():
    return spectrum_cached(190, 44.7e3)


def whole_gain(drive, spectrum, mu_grid) -> np.ndarray:
    """The (M, G) gain |G_m(mu)|^2 joined from `_gain_blocks`.

    Each block is copied: the blocks are views into buffers the next block reuses.
    """
    return np.hstack([gain.copy() for _, gain in _gain_blocks(drive, spectrum, mu_grid)])


def flat_background(gamma: float, total_odf_time: float) -> float:
    """The bright fraction with no displacement, 1/2 (1 - e^{-Gamma T}), written out."""
    return 0.5 * (1.0 - math.exp(-gamma * total_odf_time))


def _add_products(mode, point, cols, out, tmp):
    """mode[0] point[0] + mode[1] point[1] into out, for per-mode and per-point pairs."""
    np.multiply(mode[0], point[0][cols], out=out)
    out += np.multiply(mode[1], point[1][cols], out=tmp)
    return out


def broadcast_gain_blocks(drive, spectrum, mu_grid):
    """The gain blocks as a broadcast pass per step, with every cell tested for nearness: the
    oracle that `_gain_blocks`, built from einsum pairs and a sorted near search, must equal
    bit for bit. Yields (cols, gain) like `_gain_blocks`, with the same reuse of buffers."""
    seq = drive.sequence
    om, mu = spectrum.omega[:, None], np.asarray(mu_grid, dtype=float)
    half = 0.5 * seq.tau
    x, y = half * om, half * mu
    sin_x, cos_x, sin_y, cos_y = np.sin(x), np.cos(x), np.sin(y), np.cos(y)
    lag, weight = (seq.tau + seq.t_pi, -2.0) if isinstance(seq, SpinEcho) else (0.0, 2.0)
    theta_m, theta_p, phi_m, phi_p = lag * om, (seq.tau + lag) * mu, 0.5 * lag * om, 0.5 * lag * mu
    cos_theta = ((weight * np.cos(theta_m), weight * np.sin(theta_m)), (np.cos(theta_p), np.sin(theta_p)))
    sin_phi = ((np.cos(phi_m), -np.sin(phi_m)), (seq.tau * np.sin(phi_p), seq.tau * np.cos(phi_p)))
    edges = [*range(0, len(mu), max(_MIN_BLOCK_COLUMNS, _GAIN_BLOCK_CELLS // len(om))), len(mu)]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    buffers = np.empty((4, len(om) * max(np.diff(edges), default=0)))
    for start, stop in zip(edges, edges[1:]):
        cols = slice(start, stop)
        shape = (len(om), len(mu[cols]))
        sinc_a, sinc_b, tmp, cross = (buf[:shape[0] * shape[1]].reshape(shape) for buf in buffers)
        np.multiply(sin_x, cos_y[cols], out=sinc_a)
        np.multiply(cos_x, sin_y[cols], out=tmp)
        np.subtract(sinc_a, tmp, out=sinc_b)
        sinc_a += tmp
        with np.errstate(divide="ignore", invalid="ignore"):
            sinc_a /= np.add(x, y[cols], out=tmp)
            sinc_b /= np.subtract(x, y[cols], out=tmp)
        near = np.flatnonzero(np.abs(np.subtract(np.abs(x), np.abs(y[cols]), out=tmp), out=tmp) < _NEAR_PHASE)
        om_near, mu_near = om[near // shape[1], 0], mu[start + near % shape[1]]
        for sinc, phase in ((sinc_a, half * om_near + half * mu_near), (sinc_b, half * (om_near - mu_near))):
            np.put(sinc, near, _sinc(np.sin(phase), phase))
        np.multiply(sinc_b, _add_products(*cos_theta, cols, cross, tmp), out=cross)
        cross += sinc_a
        cross *= sinc_a
        cross += np.square(sinc_b, out=sinc_b)
        scale = half**2
        if isinstance(seq, SpinEcho):
            scale = _add_products(*sin_phi, cols, sinc_a, tmp)
            np.put(scale, near, seq.tau * np.sin(0.5 * lag * (mu_near - om_near)))
            scale *= scale
        cross *= scale
        yield cols, cross


def broadcast_sweep(drive, spectrum, thermal, mu_grid):
    """The ion mean and per-ion table of the sweep, block by block from `broadcast_gain_blocks`,
    with each block's exponent and P written out in new arrays."""
    coupling = _coefficients(drive, spectrum) ** 2
    per = np.empty((len(coupling), len(mu_grid)))
    mean = np.empty(len(mu_grid))
    for cols, gain in broadcast_gain_blocks(drive, spectrum, mu_grid):
        exponent = 2.0 * (coupling @ (gain * (2.0 * thermal.nbar + 1.0)[:, None]))
        p = -0.5 * np.expm1(-(drive.gamma * drive.sequence.total_odf_time + exponent))
        mean[cols] = p.mean(axis=0)
        per[:, cols] = p
    return mean, per


def reference_minimize_nbar(model, data, start=0.0):
    """The occupation search as an oracle: rtsafe on chi^2' from `start`, with chi^2' at 0 evaluated
    first as the boundary test. The fit searches from 0 and each beam-angle refit from the fitted
    nbar; `thermometry._minimize_nbar`, which starts from estimates, must find the same roots."""
    at_zero = _terms(model, data, 0.0)[:3]
    if at_zero[1] >= 0.0:
        return 0.0
    lo, hi = 0.0, math.inf
    nbar = start
    for _ in range(_MAX_NEWTON_STEPS):
        _, slope, curvature = at_zero if nbar == 0.0 else _terms(model, data, nbar)[:3]
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
    raise AssertionError("the reference search did not converge")
