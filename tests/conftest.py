"""Shared fixtures: trap parameter factories, a cross-module solve cache and lineshape oracles."""

import math
from functools import lru_cache

import numpy as np
import pytest

from drumhead import TrapParams, diagonalize, solve_equilibrium, transverse_stiffness
from drumhead.dynamics import (
    _GAIN_BLOCK_CELLS,
    _MIN_BLOCK_COLUMNS,
    _NEAR_PHASE,
    _coefficients,
    _gain_blocks,
    _sinc,
)
from drumhead.odf import SpinEcho

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
