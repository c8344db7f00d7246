"""Property-based invariants over randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drumhead import (
    BE9_ION_MASS,
    DriveConfig,
    HBAR,
    NoRadialConfinementError,
    Ramsey,
    SpinEcho,
    StiffnessMatrix,
    ThermalState,
    alpha_single_arm,
    alpha_spin_echo,
    diagonalize,
    effective_wavevector,
    mode_histogram,
    occupation_to_temperature,
    radial_confinement,
    sweep_spectrum,
    total_potential,
)
from drumhead.dynamics import _NEAR_PHASE, _arm_factor, _echo_factor, _sidebands
from drumhead.modes import ModeSpectrum
from conftest import one_mode_spectrum, paper_trap, whole_gain

TWO_PI = 2 * math.pi


@given(
    axial=st.floats(1e5, 5e6),
    cyclotron=st.floats(1e6, 5e7),
    fraction=st.floats(1e-4, 1.0 - 1e-4),
)
@settings(max_examples=60, deadline=None)
def test_radial_confinement_positive_or_raises(axial, cyclotron, fraction):
    omega_1 = TWO_PI * axial
    omega_c = TWO_PI * cyclotron
    omega_r = fraction * omega_c
    try:
        value = radial_confinement(omega_1, omega_c, omega_r)
    except NoRadialConfinementError:
        assert omega_r * (omega_c - omega_r) / omega_1**2 - 0.5 <= 0.0
    else:
        assert value > 0.0
        # never exceeds the midpoint maximum
        assert value <= omega_c**2 / (4 * omega_1**2) - 0.5 + 1e-12


@given(angle=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_potential_rotation_invariant_without_wall(angle, seed):
    params = paper_trap()
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1e-4, 1e-4, (6, 3))
    assume(_min_pair_distance(pos) > 1e-6)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    e0 = total_potential(pos, params)
    e1 = total_potential(pos @ rot.T, params)
    assert abs(e1 - e0) <= 1e-12 * abs(e0)


def _min_pair_distance(pos):
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    return d.min()


@given(seed=st.integers(0, 2**16), n=st.integers(2, 9))
@settings(max_examples=25, deadline=None)
def test_stiffness_row_sums_at_arbitrary_planar_positions(seed, n):
    # the row-sum identity is analytic: it holds at any planar configuration,
    # not just equilibria
    from drumhead import COULOMB_K

    params = paper_trap()
    rng = np.random.default_rng(seed)
    pos = np.zeros((n, 3))
    pos[:, :2] = rng.uniform(-2e-4, 2e-4, (n, 2))
    assume(_min_pair_distance(pos) > 5e-6)
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = (diff**2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    coupling = (COULOMB_K * params.charge**2 / params.mass) * d2**-1.5
    entries = coupling.copy()
    np.fill_diagonal(entries, params.omega_1**2 - coupling.sum(axis=1))
    target = params.omega_1**2
    assert np.max(np.abs(entries.sum(axis=1) - target)) <= 1e-9 * target
    spectrum = diagonalize(StiffnessMatrix(entries=entries, omega_1=params.omega_1, mass=params.mass))
    uniform = np.full(n, 1.0 / math.sqrt(n))
    assert np.min(np.abs(spectrum.b.T @ uniform)) >= 0.0  # completeness sanity
    assert spectrum.eigenvalues[0] == pytest.approx(target, rel=1e-9)


def _cisr_oracle(u):
    # (e^{iu} - 1)/(iu) = E(u, 1), cancellation-free: e^{iu} - 1 = -2 sin^2(u/2) + i sin(u)
    return (-2.0 * np.sin(u / 2.0) ** 2 + 1j * np.sin(u)) / (1j * u)


@given(u=st.floats(-50.0, 50.0))
@example(u=0.99e-2)
@example(u=1.01e-2)
@example(u=-0.99e-2)
@example(u=-1.01e-2)
@settings(max_examples=200, deadline=None)
def test_cisr_matches_direct_formula(u):
    assume(abs(u) > 1e-13)
    # with the sinc b term switched off the bracket is e^{i u/2} sinc(u/2) = E(u, 1),
    # a = u/2 split into equal per-mode and per-point halves
    re, im = _sidebands(0.5 * u, 0.5 * u, 1.0, (0.25 * u, 0.25 * u), 0.0)
    ours = complex(re, im)
    assert abs(ours - _cisr_oracle(u)) <= 1e-14 * max(1.0, abs(_cisr_oracle(u)))


@given(
    omega_hz=st.floats(1e5, 1e6),
    tau=st.floats(2e-5, 1e-3),
    t_pi=st.floats(0.0, 1e-4),
    span_cycles=st.floats(0.5, 20.0),
)
# the grid crosses mu = -omega, where a = (omega + mu) tau/2 passes through 0
@example(omega_hz=1e5, tau=6.103515625e-05, t_pi=0.0, span_cycles=17.95144987428854)
@settings(max_examples=60, deadline=None)
def test_echo_factor_matches_two_arms(omega_hz, tau, t_pi, span_cycles):
    omega = TWO_PI * omega_hz
    mu = omega + np.append(np.linspace(-span_cycles, span_cycles, 401) * TWO_PI / tau, 0.0)
    sequence = SpinEcho(tau=tau, t_pi=t_pi)
    phi = (tau + t_pi) * (mu - omega)
    arms = [_arm_factor(omega, mu, tau, p) for p in (0.0, phi)]
    for arm, p in zip(arms, (0.0, phi)):
        oracle = _oracle_arm(omega, mu, tau, p)
        assert np.max(np.abs(arm - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    reference = arms[0] - arms[1]
    ours = _echo_factor(omega, mu, sequence)
    assert np.max(np.abs(ours - reference)) <= 1e-13 * np.max(np.abs(reference))


def _oracle_arm(omega, mu, t, phi):
    """G(t, phi) built on _cisr_oracle: E(x, t) = t E(x t, 1), E(0, t) = t."""

    def phasor(x):
        u = x * t
        return t * np.where(u == 0.0, 1.0, _cisr_oracle(np.where(u == 0.0, 1.0, u)))

    return 0.5j * (np.exp(1j * phi) * phasor(omega + mu) + np.exp(-1j * phi) * phasor(omega - mu))


def _two_arm_gain(omega, mu, sequence):
    """|G|^2 from the complex oracle arms."""
    arm = _oracle_arm(omega, mu, sequence.tau, 0.0)
    if isinstance(sequence, Ramsey):
        return np.abs(arm) ** 2
    return np.abs(arm - _oracle_arm(omega, mu, sequence.tau, (sequence.tau + sequence.t_pi) * (mu - omega))) ** 2


@given(
    omega_hz=st.floats(1e5, 1e6),
    tau=st.floats(2e-5, 1e-3),
    t_pi=st.floats(0.0, 1e-4),
    span_cycles=st.floats(0.5, 20.0),
)
# the grid crosses mu = -omega, where a = (omega + mu) tau/2 passes through 0
@example(omega_hz=1e5, tau=6.103515625e-05, t_pi=0.0, span_cycles=17.95144987428854)
@settings(max_examples=60, deadline=None)
def test_lineshape_gain_matches_two_arm_oracle(omega_hz, tau, t_pi, span_cycles):
    spectrum = ModeSpectrum(b=np.eye(1), mass=BE9_ION_MASS, eigenvalues=np.array([(TWO_PI * omega_hz) ** 2]))
    omega = float(spectrum.omega[0])
    mu = np.sort(np.append(omega + np.linspace(-span_cycles, span_cycles, 401) * TWO_PI / tau, omega))
    on_resonance = np.searchsorted(mu, omega)
    for sequence in (SpinEcho(tau=tau, t_pi=t_pi), Ramsey(tau=tau)):
        drive = DriveConfig(forces=1e-23, mu_r=None, gamma=0.0, sequence=sequence)
        gain = whole_gain(drive, spectrum, mu)[0]
        reference = _two_arm_gain(omega, mu, sequence)
        assert np.max(np.abs(gain - reference)) <= 1e-13 * np.max(reference)
        if isinstance(sequence, SpinEcho):
            assert gain[on_resonance] == 0.0


@pytest.mark.parametrize("sequence", [SpinEcho(tau=5e-4, t_pi=65e-6), Ramsey(tau=5e-4)])
def test_multi_mode_gain_matches_two_arm_oracle(sequence):
    # modes across 100 kHz - 1 MHz; the grid holds every mu = omega_m and
    # points just inside and outside |b| = _NEAR_PHASE, where the kernel
    # switches between direct sines and angle addition
    omega_hz = np.geomspace(1e5, 1e6, 9)
    spectrum = ModeSpectrum(b=np.eye(9), mass=BE9_ION_MASS, eigenvalues=(TWO_PI * omega_hz) ** 2)
    omega = spectrum.omega
    edge = 2.0 * _NEAR_PHASE / sequence.tau
    offsets = np.concatenate([np.outer([-1.0, 1.0], edge * (1.0 + np.array([-1e-9, 1e-9]))).ravel(),
                              np.linspace(-3.0, 3.0, 61) * edge])
    mu = np.sort(np.concatenate([omega, (omega[:, None] + offsets).ravel()]))
    drive = DriveConfig(forces=1e-23, mu_r=None, gamma=0.0, sequence=sequence)
    gain = whole_gain(drive, spectrum, mu)
    for m in range(len(omega)):
        reference = _two_arm_gain(omega[m], mu, sequence)
        assert np.max(np.abs(gain[m] - reference)) <= 1e-13 * np.max(reference)
        if isinstance(sequence, SpinEcho):
            assert gain[m, np.searchsorted(mu, omega[m])] == 0.0


@given(
    wavelength=st.floats(2e-7, 2e-6),
    theta_a=st.floats(1e-3, math.pi - 1e-3),
    theta_b=st.floats(1e-3, math.pi - 1e-3),
)
@settings(max_examples=60, deadline=None)
def test_wavevector_monotone(wavelength, theta_a, theta_b):
    assume(abs(theta_a - theta_b) > 1e-9)
    lo, hi = sorted((theta_a, theta_b))
    assert effective_wavevector(wavelength, lo) < effective_wavevector(wavelength, hi)


@given(nbar=st.floats(0.0, 1e4), freq=st.floats(1e4, 1e7))
@settings(max_examples=60, deadline=None)
def test_occupation_temperature_inverse(nbar, freq):
    spectrum = one_mode_spectrum(TWO_PI * freq)
    kelvin = occupation_to_temperature(nbar, spectrum.omega[0])
    assert ThermalState.from_temperature(spectrum, kelvin).nbar[0] == pytest.approx(nbar, rel=1e-12, abs=1e-12)


@given(
    scale=st.floats(0.1, 4.0),
    detune_cycles=st.floats(-3.0, 3.0),
    tau=st.floats(5e-5, 8e-4),
)
@settings(max_examples=40, deadline=None)
def test_alpha_linear_in_force(scale, detune_cycles, tau):
    spectrum = _two_mode_spectrum()
    mu = float(spectrum.omega[0]) + detune_cycles * TWO_PI / tau
    assume(mu > 0)
    base = DriveConfig(forces=1e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=tau))
    scaled = DriveConfig(forces=scale * 1e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=tau))
    a_base = alpha_single_arm(base, spectrum, tau).alpha
    a_scaled = alpha_single_arm(scaled, spectrum, tau).alpha
    assert np.allclose(a_scaled, scale * a_base, rtol=1e-12, atol=0.0)


def _two_mode_spectrum():
    omegas = TWO_PI * np.array([795e3, 760e3])
    b = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    return ModeSpectrum(b=b, mass=BE9_ION_MASS, eigenvalues=omegas**2)


@given(
    nbar_a=st.floats(0.0, 500.0),
    nbar_b=st.floats(0.0, 500.0),
    gamma=st.floats(0.0, 2e3),
)
@settings(max_examples=60, deadline=None)
def test_bright_fraction_bounds_and_monotonicity(nbar_a, nbar_b, gamma):
    spectrum = _two_mode_spectrum()
    tau = 4e-4
    drive = DriveConfig(forces=1.5e-23, mu_r=None, gamma=gamma, sequence=SpinEcho(tau=tau, t_pi=5e-5))
    grid = np.array([float(spectrum.omega[0]) + TWO_PI * 2.5e3])
    lo, hi = sorted((nbar_a, nbar_b))
    p_lo = sweep_spectrum(drive, spectrum, ThermalState.uniform(2, lo), grid, per_ion=True)
    p_hi = sweep_spectrum(drive, spectrum, ThermalState.uniform(2, hi), grid, per_ion=True)
    for p in (p_lo, p_hi):
        assert np.all(p.p_up_per_ion >= 0.0) and np.all(p.p_up_per_ion <= 0.5 + 1e-12)
    assert p_hi.p_up_mean[0] >= p_lo.p_up_mean[0] - 1e-15


@given(loops=st.integers(1, 4), tau=st.floats(2e-4, 1e-3), t_pi=st.floats(0.0, 1e-4))
@settings(max_examples=40, deadline=None)
def test_echo_null_at_integer_loops(loops, tau, t_pi):
    # |alpha_SE| at integer delta tau / 2pi is tiny compared to the sweep peak
    spectrum = _two_mode_spectrum()
    omega = float(spectrum.omega[0])
    drive = DriveConfig(forces=1.5e-23, mu_r=None, gamma=0.0, sequence=SpinEcho(tau=tau, t_pi=t_pi))
    null_mu = omega + loops * TWO_PI / tau
    at_null = np.abs(alpha_spin_echo(drive.with_mu(null_mu), spectrum).alpha[0, 0])
    peak = max(
        np.abs(alpha_spin_echo(drive.with_mu(omega + f * TWO_PI / tau), spectrum).alpha[0, 0])
        for f in np.linspace(0.1, loops + 0.5, 60)
    )
    assert at_null <= 0.02 * peak


@given(
    freqs=st.lists(st.floats(1e4, 1e6), min_size=1, max_size=40),
    width=st.floats(1e2, 5e4),
)
@settings(max_examples=60, deadline=None)
def test_histogram_counts_sum(freqs, width):
    omegas = TWO_PI * np.sort(np.array(freqs))[::-1]
    n = len(omegas)
    spectrum = ModeSpectrum(b=np.eye(n), mass=BE9_ION_MASS, eigenvalues=omegas**2)
    hist = mode_histogram(spectrum, width)
    assert hist.counts.sum() == n
    assert np.all(hist.counts >= 0)
