"""Shared fixtures: trap parameter factories, a cross-module solve cache and lineshape oracles."""

import math
from functools import lru_cache

import numpy as np
import pytest

from drumhead import TrapParams, diagonalize, solve_equilibrium, transverse_stiffness
from drumhead.dynamics import _gain_blocks

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
