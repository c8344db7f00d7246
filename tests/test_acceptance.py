"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Verdict lines print outside pytest's capture, so a plain
`pytest tests/test_acceptance.py -v` always shows them.
"""

import math

import numpy as np
import pytest

from drumhead import (
    COULOMB_K,
    DriveConfig,
    HBAR,
    ObservedSpectrum,
    Ramsey,
    SpinEcho,
    ThermalState,
    alpha_single_arm,
    alpha_spin_echo,
    beta,
    com_mode_deviation,
    effective_wavevector,
    fit_occupation,
    mean_excursion,
    occupation_to_temperature,
    sweep_spectrum,
    transverse_stiffness,
    validity_ratio,
)
from drumhead.modes import ModeSpectrum
from conftest import flat_background, paper_trap, solve_cached, spectrum_cached
from test_dynamics import integrate_arm
from test_modes import finite_difference_z_hessian

TWO_PI = 2 * math.pi
TAU = 500e-6
T_PI = 65e-6
GAMMA = -math.log(0.8) / (2 * TAU)  # flat background of 0.1


@pytest.fixture
def check(capsys):
    def _check(criterion: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion}: {status} - {detail}", flush=True)
        assert ok, f"criterion {criterion}: {detail}"

    return _check


def com_operating_point():
    """190-ion crystal with the drive calibrated to a 20% coherence loss at
    delta*tau/2pi = 1.4, COM occupation 60, bath at the Doppler limit."""
    spectrum = spectrum_cached(190, 44.7e3)
    thermal = ThermalState.com_plus_bath(spectrum, 60.0, 0.43e-3)
    weights = 2.0 * thermal.nbar + 1.0
    mu_cal = float(spectrum.omega[0]) + 1.4 * TWO_PI / TAU
    probe = DriveConfig(forces=1e-23, mu_r=mu_cal, gamma=GAMMA, sequence=SpinEcho(tau=TAU, t_pi=T_PI))
    exponent = 2.0 * float(np.mean((np.abs(alpha_spin_echo(probe, spectrum).alpha) ** 2) @ weights))
    force = 1e-23 * math.sqrt(-math.log(0.8) / exponent)  # exponent scales as force^2
    drive = DriveConfig(forces=force, mu_r=mu_cal, gamma=GAMMA, sequence=SpinEcho(tau=TAU, t_pi=T_PI))
    return spectrum, thermal, drive


def test_criterion_01_com_exactness(check):
    worst_vec = 0.0
    worst_row = 0.0
    for n, rotation_hz in ((7, 43.2e3), (50, 43.2e3), (190, 44.7e3), (331, 43.2e3)):
        stiffness = transverse_stiffness(solve_cached(n, rotation_hz))
        target = stiffness.omega_1**2
        worst_vec = max(worst_vec, com_mode_deviation(stiffness))
        worst_row = max(worst_row, float(np.max(np.abs(stiffness.entries.sum(axis=1) - target)) / target))
        spectrum = spectrum_cached(n, rotation_hz)
        worst_vec = max(worst_vec, abs(spectrum.omega[0] / stiffness.omega_1 - 1.0))
    check(
        1,
        worst_vec <= 1e-9 and worst_row <= 1e-9,
        f"N in (7,50,190,331): COM eigenvector/frequency residual {worst_vec:.2e}, "
        f"row-sum residual {worst_row:.2e} (tol 1e-9)",
    )


def test_criterion_02_two_ion_analytic_oracle(check):
    params = paper_trap()
    lattice = solve_cached(2)
    d = float(np.linalg.norm(lattice.positions[0] - lattice.positions[1]))
    d_exact = (
        2.0 * COULOMB_K * params.charge**2 / (params.mass * params.omega_1**2 * beta(params))
    ) ** (1.0 / 3.0)
    sep_err = abs(d / d_exact - 1.0)
    spectrum = spectrum_cached(2)
    tilt_err = abs(spectrum.omega[1] / (params.omega_1 * math.sqrt(1.0 - beta(params))) - 1.0)
    check(
        2,
        sep_err <= 1e-8 and tilt_err <= 1e-9,
        f"separation rel err {sep_err:.2e} (tol 1e-8), tilt frequency rel err {tilt_err:.2e} (tol 1e-9)",
    )


def test_criterion_03_hessian_oracle(check):
    worst = 0.0
    for n in (3, 7, 12, 20):
        lattice = solve_cached(n)
        analytic = transverse_stiffness(lattice).entries
        oracle = finite_difference_z_hessian(lattice)
        scale = np.max(np.abs(analytic))
        mask = np.abs(analytic) > 1e-12 * scale
        worst = max(worst, float(np.max(np.abs((oracle - analytic)[mask] / analytic[mask]))))
    check(3, worst <= 1e-6, f"N <= 20 entrywise relative deviation {worst:.2e} (tol 1e-6)")


def test_criterion_04_spectral_ordering_and_narrowing(check):
    slow = spectrum_cached(345, 43.2e3)
    fast = spectrum_cached(345, 44.7e3)
    omega_1 = paper_trap().omega_1
    ordered = bool(np.all(slow.omega <= omega_1 * (1 + 1e-9))) and bool(
        np.all(fast.omega <= omega_1 * (1 + 1e-9))
    )
    span_slow = float(slow.omega[0] - slow.omega[-1]) / TWO_PI
    span_fast = float(fast.omega[0] - fast.omega[-1]) / TWO_PI
    check(
        4,
        ordered and span_slow < span_fast,
        f"N=345: every mode <= COM; span {span_slow / 1e3:.1f} kHz at 43.2 kHz rotation < "
        f"{span_fast / 1e3:.1f} kHz at 44.7 kHz",
    )


def test_criterion_05_lineshape_nulls(check):
    spectrum, thermal, drive = com_operating_point()
    bg = flat_background(GAMMA, 2 * TAU)
    nulls = float(spectrum.omega[0]) + np.array([-2, -1, 1, 2]) * TWO_PI / TAU
    worst = float(np.max(np.abs(sweep_spectrum(drive, spectrum, thermal, nulls).p_up_mean - bg)))
    check(
        5,
        worst <= 0.01,
        f"N=190, tau=500us, nbar1=60: max |P - background| at one and two full loops "
        f"= {worst:.4f} (tol 0.01)",
    )


def test_criterion_06_thermometry_cross_check(check):
    temperature = occupation_to_temperature(60.0, TWO_PI * 795e3)
    conv_ok = abs(temperature / 2.3e-3 - 1.0) <= 0.05

    spectrum, thermal, drive = com_operating_point()
    deltas = np.linspace(-3.0, 3.0, 81) * TWO_PI / TAU
    grid = np.sort(spectrum.omega[0] + deltas)
    trace = sweep_spectrum(drive, spectrum, thermal, grid)
    sigma = np.full(len(grid), 0.02)
    bath = ThermalState.com_plus_bath(spectrum, 0.0, 0.43e-3)

    clean = ObservedSpectrum(mu_hz=trace.mu_over_2pi, p_up=trace.p_up_mean, sigma=sigma)
    exact = fit_occupation(clean, spectrum, drive, target_mode=0, background=bath)
    exact_ok = abs(exact.nbar / 60.0 - 1.0) <= 1e-6

    recovered = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = np.clip(trace.p_up_mean + rng.normal(0.0, 0.02, len(grid)), 1e-4, 1 - 1e-4)
        data = ObservedSpectrum(mu_hz=trace.mu_over_2pi, p_up=noisy, sigma=sigma)
        recovered.append(fit_occupation(data, spectrum, drive, target_mode=0, background=bath).nbar)
    median = float(np.median(recovered))
    noisy_ok = abs(median / 60.0 - 1.0) <= 0.10
    check(
        6,
        conv_ok and exact_ok and noisy_ok,
        f"T(nbar=60) = {temperature * 1e3:.3f} mK (vs 2.3 mK); noiseless recovery "
        f"{exact.nbar:.6f}; noisy median over 100 seeds {median:.2f} (within 10% of 60)",
    )


def test_criterion_07_geometry_anchor(check):
    delta_k = effective_wavevector(313.133e-9, math.radians(4.8))
    lattice_wavelength = TWO_PI / delta_k
    check(
        7,
        abs(lattice_wavelength / 3.7e-6 - 1.0) <= 0.02,
        f"lattice wavelength {lattice_wavelength * 1e6:.3f} um within 2% of 3.7 um",
    )


def test_criterion_08_validity_ratio(check):
    v = validity_ratio(1e-23, 30e-9, 10.0, 1e-3)
    check(
        8,
        abs(v.ratio / 0.1 - 1.0) <= 0.10 and v.spin_motion_dominant,
        f"spin-spin/spin-motion ratio {v.ratio:.4f} within 10% of 0.1",
    )


def test_criterion_09_displacement_oracle(check):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(2, 6))
        omegas = TWO_PI * rng.uniform(3e5, 9e5, size=n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = ModeSpectrum(b=q, mass=9.012 * 1.66054e-27, eigenvalues=omegas**2)
        tau = float(rng.uniform(5e-5, 5e-4))
        t_pi = float(rng.uniform(0.0, 1e-4))
        phi = float(rng.uniform(0.0, TWO_PI))
        force = float(rng.uniform(0.3, 3.0)) * 1e-23
        if case < 2:  # exercise exact resonance explicitly
            mu = float(omegas[0])
        else:
            mu = float(TWO_PI * rng.uniform(3e5, 9e5))
        z0 = spectrum.ground_state_lengths()

        ramsey = DriveConfig(forces=force, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=tau))
        field = alpha_single_arm(ramsey, spectrum, tau, phi)
        oracle = (force / HBAR) * q * np.array(
            [z0[m] * integrate_arm(omegas[m], mu, tau, phi) for m in range(n)]
        )[None, :]
        scale = np.max(np.abs(oracle))
        worst = max(worst, float(np.max(np.abs(field.alpha - oracle)) / scale))

        echo = DriveConfig(forces=force, mu_r=mu, gamma=0.0, sequence=SpinEcho(tau=tau, t_pi=t_pi))
        field_se = alpha_spin_echo(echo, spectrum)
        cols = []
        for m in range(n):
            phi_m = (tau + t_pi) * (mu - omegas[m])
            g = integrate_arm(omegas[m], mu, tau, 0.0) - integrate_arm(
                omegas[m], mu, tau, phi_m
            )
            cols.append(z0[m] * g)
        oracle_se = (force / HBAR) * q * np.array(cols)[None, :]
        scale_se = np.max(np.abs(oracle_se))
        worst = max(worst, float(np.max(np.abs(field_se.alpha - oracle_se)) / scale_se))
    check(
        9,
        worst <= 1e-6,
        f"20 randomized sets (both sequences, arbitrary phase, resonance included): "
        f"worst relative deviation {worst:.2e} (tol 1e-6)",
    )


def test_criterion_10_mean_excursion(check):
    spectrum, thermal, drive = com_operating_point()
    # confirm the operating point really sits at a 20% coherence loss
    weights = 2.0 * thermal.nbar + 1.0
    exponent = 2.0 * float(np.mean((np.abs(alpha_spin_echo(drive, spectrum).alpha) ** 2) @ weights))
    assert math.exp(-exponent) == pytest.approx(0.8, rel=1e-9)
    arm = alpha_single_arm(drive, spectrum, TAU, 0.0)
    excursion = mean_excursion(arm, spectrum, 0)
    check(
        10,
        0.3e-9 <= excursion.meters <= 2.0e-9,
        f"per-arm COM excursion {excursion.meters * 1e9:.3f} nm within [0.3, 2.0] nm "
        f"({excursion.convention})",
    )
