import numpy as np
import pytest
from scipy.integrate import solve_ivp

from drumhead import (
    BE9_ION_MASS,
    DriveConfig,
    HBAR,
    ModeSpectrum,
    Ramsey,
    SpinEcho,
    ThermalState,
    alpha_single_arm,
    alpha_spin_echo,
    background_probability,
    beta,
    bright_probability,
    mean_excursion,
    phase_space_trajectory,
    sweep_spectrum,
    validity_ratio,
)
from drumhead.dynamics import bright_fraction
from conftest import paper_trap, spectrum_cached

TWO_PI = 2 * np.pi


def synthetic_spectrum(omegas, b=None, mass=BE9_ION_MASS) -> ModeSpectrum:
    omegas = np.asarray(omegas, dtype=float)
    n = len(omegas)
    if b is None:
        b = np.eye(n)
    return ModeSpectrum(b=np.asarray(b, float), mass=mass, eigenvalues=omegas**2)


def com_only_spectrum(n_ions, omega=TWO_PI * 795e3) -> ModeSpectrum:
    return ModeSpectrum(
        b=np.full((n_ions, 1), 1.0 / np.sqrt(n_ions)),
        mass=BE9_ION_MASS,
        eigenvalues=np.array([omega**2]),
    )


def integrate_arm(omega, mu, tau, phi, rtol=1e-12):
    """Independent oracle: integrate d alpha/dt = i cos(mu t + phi) e^{i omega t}.

    Returns the per-mode drive integral; multiply by F b z0 / hbar for alpha.
    """

    def rhs(t, y):
        v = 1j * np.cos(mu * t + phi) * np.exp(1j * omega * t)
        return [v.real, v.imag]

    sol = solve_ivp(rhs, (0.0, tau), [0.0, 0.0], method="DOP853", rtol=rtol, atol=1e-16)
    return sol.y[0, -1] + 1j * sol.y[1, -1]


def oracle_alpha_single_arm(drive, spectrum, tau, phi):
    forces = drive.force_array(spectrum.b.shape[0])
    z0 = spectrum.ground_state_lengths()
    g = np.array([integrate_arm(om, drive.mu_r, tau, phi) for om in spectrum.omega])
    return (forces[:, None] / HBAR) * spectrum.b * (z0 * g)[None, :]


def oracle_alpha_spin_echo(drive, spectrum):
    seq = drive.sequence
    first = oracle_alpha_single_arm(drive, spectrum, seq.tau, 0.0)
    out = np.empty_like(first)
    for m, om in enumerate(spectrum.omega):
        phi = (seq.tau + seq.t_pi) * (drive.mu_r - om)
        g = integrate_arm(om, drive.mu_r, seq.tau, phi)
        z0 = spectrum.ground_state_lengths()[m]
        out[:, m] = first[:, m] - (drive.force_array(spectrum.b.shape[0]) / HBAR) * spectrum.b[:, m] * z0 * g
    return out


class TestAlphaSingleArm:
    def test_zero_force_zero_alpha(self):
        spectrum = spectrum_cached(3)
        drive = DriveConfig(forces=0.0, mu_r=spectrum.omega[0], gamma=0.0, sequence=Ramsey(tau=1e-4))
        field = alpha_single_arm(drive, spectrum, 1e-4)
        assert np.all(field.alpha == 0.0)

    def test_resonant_linear_growth(self):
        # |alpha| = F b z0 t / (2 hbar) up to O(1/(omega t)) corrections
        n = 190
        spectrum = com_only_spectrum(n)
        f = 1.6e-23
        tau = 5e-4
        drive = DriveConfig(forces=f, mu_r=float(spectrum.omega[0]), gamma=0.0, sequence=Ramsey(tau=tau))
        field = alpha_single_arm(drive, spectrum, tau)
        z0 = spectrum.ground_state_lengths()[0]
        expected = f * (1 / np.sqrt(n)) * z0 * tau / (2 * HBAR)
        correction = 1.0 / (spectrum.omega[0] * tau)
        assert abs(field.alpha[0, 0]) == pytest.approx(expected, rel=3 * correction)

    def test_closed_loop_at_integer_detuning(self):
        spectrum = com_only_spectrum(10)
        tau = 5e-4
        mu = float(spectrum.omega[0]) + TWO_PI / tau
        drive = DriveConfig(forces=1.5e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=tau))
        closing = np.abs(alpha_single_arm(drive, spectrum, tau).alpha[0, 0])
        # peak |alpha| over the loop for comparison
        peak = max(
            np.abs(alpha_single_arm(drive, spectrum, t).alpha[0, 0]) for t in np.linspace(tau / 20, tau, 40)
        )
        assert closing < 0.02 * peak

    def test_matches_time_integration_at_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            omegas = TWO_PI * rng.uniform(3e5, 9e5, size=3)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            spectrum = synthetic_spectrum(omegas, b=q)
            mu = TWO_PI * rng.uniform(3e5, 9e5)
            tau = rng.uniform(5e-5, 4e-4)
            phi = rng.uniform(0.0, TWO_PI)
            drive = DriveConfig(
                forces=rng.uniform(0.3, 3.0) * 1e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=tau)
            )
            field = alpha_single_arm(drive, spectrum, tau, phi)
            oracle = oracle_alpha_single_arm(drive, spectrum, tau, phi)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(field.alpha - oracle)) <= 1e-6 * scale

    def test_exact_resonance_consistent_with_integration(self):
        spectrum = com_only_spectrum(2)
        tau = 2e-4
        drive = DriveConfig(
            forces=1e-23, mu_r=float(spectrum.omega[0]), gamma=0.0, sequence=Ramsey(tau=tau)
        )
        field = alpha_single_arm(drive, spectrum, tau)
        oracle = oracle_alpha_single_arm(drive, spectrum, tau, 0.0)
        assert np.max(np.abs(field.alpha - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_com_column_uniform_for_uniform_force(self, spectrum_190):
        drive = DriveConfig(
            forces=1.5e-23, mu_r=spectrum_190.omega[0] + TWO_PI * 2e3, gamma=0.0,
            sequence=Ramsey(tau=5e-4),
        )
        field = alpha_single_arm(drive, spectrum_190, 5e-4)
        com = field.alpha[:, 0]
        assert np.max(np.abs(com - com[0])) <= 1e-12 * np.abs(com[0])

    def test_alpha_proportional_to_mode_pattern(self, spectrum_190):
        drive = DriveConfig(
            forces=1.5e-23, mu_r=spectrum_190.omega[3] + TWO_PI * 1e3, gamma=0.0,
            sequence=Ramsey(tau=5e-4),
        )
        field = alpha_single_arm(drive, spectrum_190, 5e-4)
        col = field.alpha[:, 3]
        b = spectrum_190.b[:, 3]
        mask = np.abs(b) > 1e-6
        ratios = col[mask] / b[mask]
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-10 * np.abs(ratios[0])

    def test_linearity_in_force(self, spectrum_190):
        mu = spectrum_190.omega[0] + TWO_PI * 1.3e3
        one = DriveConfig(forces=1e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=5e-4))
        two = DriveConfig(forces=2e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=5e-4))
        a1 = alpha_single_arm(one, spectrum_190, 5e-4).alpha
        a2 = alpha_single_arm(two, spectrum_190, 5e-4).alpha
        assert np.allclose(a2, 2.0 * a1, rtol=1e-12, atol=0.0)


class TestAlphaSpinEcho:
    def test_resonant_echo_cancels_with_zero_pi_time(self):
        spectrum = com_only_spectrum(5)
        drive = DriveConfig(
            forces=1e-23, mu_r=float(spectrum.omega[0]), gamma=0.0,
            sequence=SpinEcho(tau=3e-4, t_pi=0.0),
        )
        field = alpha_spin_echo(drive, spectrum)
        arm = alpha_single_arm(drive, spectrum, 3e-4)
        assert np.max(np.abs(field.alpha)) <= 1e-10 * np.max(np.abs(arm.alpha))

    def test_echo_nulls_at_integer_loops(self):
        spectrum = com_only_spectrum(8)
        tau = 5e-4
        drive_template = DriveConfig(
            forces=1.5e-23, mu_r=None, gamma=0.0, sequence=SpinEcho(tau=tau, t_pi=65e-6)
        )
        deltas = TWO_PI * np.linspace(0.2, 3.0, 141) / tau
        magnitudes = []
        for d in deltas:
            f = alpha_spin_echo(drive_template.with_mu(float(spectrum.omega[0] + d)), spectrum)
            magnitudes.append(np.abs(f.alpha[0, 0]))
        magnitudes = np.asarray(magnitudes)
        peak = magnitudes.max()
        for loops in (1, 2):
            idx = np.argmin(np.abs(deltas - loops * TWO_PI / tau))
            assert magnitudes[idx] <= 0.02 * peak

    def test_matches_two_arm_time_integration(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            omegas = TWO_PI * rng.uniform(4e5, 9e5, size=2)
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            spectrum = synthetic_spectrum(omegas, b=q)
            mu = float(omegas[0] + TWO_PI * rng.uniform(-6e3, 6e3))
            drive = DriveConfig(
                forces=1.2e-23, mu_r=mu, gamma=0.0,
                sequence=SpinEcho(tau=rng.uniform(1e-4, 5e-4), t_pi=rng.uniform(0.0, 1e-4)),
            )
            field = alpha_spin_echo(drive, spectrum)
            oracle = oracle_alpha_spin_echo(drive, spectrum)
            assert np.max(np.abs(field.alpha - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_requires_spin_echo_sequence(self):
        spectrum = com_only_spectrum(2)
        drive = DriveConfig(forces=1e-23, mu_r=5e6, gamma=0.0, sequence=Ramsey(tau=1e-4))
        with pytest.raises(ValueError):
            alpha_spin_echo(drive, spectrum)


class TestBrightProbability:
    def test_zero_force_zero_gamma_goes_dark(self):
        spectrum = com_only_spectrum(4)
        drive = DriveConfig(
            forces=0.0, mu_r=float(spectrum.omega[0]), gamma=0.0, sequence=SpinEcho(tau=5e-4)
        )
        field = alpha_spin_echo(drive, spectrum)
        result = bright_probability(field, ThermalState.uniform(1, 10.0), 0.0, 1e-3)
        assert result.mean == 0.0

    def test_zero_force_background_level(self):
        # gamma alone: P = (1 - e^{-2 Gamma tau}) / 2, about 0.1 in practice
        tau = 5e-4
        gamma = -np.log(0.8) / (2 * tau)
        spectrum = com_only_spectrum(4)
        drive = DriveConfig(forces=0.0, mu_r=float(spectrum.omega[0]), gamma=gamma,
                            sequence=SpinEcho(tau=tau))
        field = alpha_spin_echo(drive, spectrum)
        result = bright_probability(field, ThermalState.uniform(1, 10.0), gamma, 2 * tau)
        assert result.mean == pytest.approx(0.1, rel=1e-12)
        assert background_probability(gamma, 2 * tau) == pytest.approx(0.1, rel=1e-12)

    def test_small_exponent_keeps_its_digits(self):
        # 1/2 (1 - e^{-x}) = x/2 - x^2/4 + ...; 1 - e^{-x} in floats keeps only ~4 digits at 1e-12
        assert bright_fraction(1e-12, 0.0, 1e-3) == pytest.approx(5e-13 - 2.5e-25, rel=1e-15, abs=0.0)

    def test_bounds_and_monotonicity_in_nbar_and_gamma(self, spectrum_190):
        tau = 5e-4
        drive = DriveConfig(
            forces=1.5e-23, mu_r=spectrum_190.omega[0] + TWO_PI * 2.8e3, gamma=0.0,
            sequence=SpinEcho(tau=tau, t_pi=65e-6),
        )
        field = alpha_spin_echo(drive, spectrum_190)
        previous = -1.0
        for nbar in (0.0, 5.0, 60.0, 500.0):
            thermal = ThermalState.uniform(spectrum_190.n_modes, nbar)
            p = bright_probability(field, thermal, 100.0, 2 * tau)
            assert np.all(p.per_ion >= 0.0) and np.all(p.per_ion <= 0.5)
            assert p.mean > previous
            previous = p.mean
        lo = bright_probability(field, ThermalState.uniform(spectrum_190.n_modes, 10.0), 50.0, 2 * tau)
        hi = bright_probability(field, ThermalState.uniform(spectrum_190.n_modes, 10.0), 500.0, 2 * tau)
        assert hi.mean > lo.mean

    def test_mode_count_mismatch_rejected(self):
        spectrum = com_only_spectrum(4)
        drive = DriveConfig(forces=1e-23, mu_r=float(spectrum.omega[0]), gamma=0.0,
                            sequence=SpinEcho(tau=1e-4))
        field = alpha_spin_echo(drive, spectrum)
        with pytest.raises(ValueError):
            bright_probability(field, ThermalState.uniform(3, 1.0), 0.0, 2e-4)

    def test_mode_selectivity_on_separated_spectrum(self):
        # with mu within 2pi/tau of one mode and others >> 2pi/tau away,
        # the target mode carries > 95% of the decoherence exponent
        tau = 1e-3
        omegas = TWO_PI * np.array([795e3, 740e3, 700e3, 660e3])
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
        spectrum = synthetic_spectrum(omegas, b=q)
        mu = float(omegas[0] + 0.5 * TWO_PI / tau)
        drive = DriveConfig(forces=1e-23, mu_r=mu, gamma=0.0, sequence=SpinEcho(tau=tau, t_pi=0.0))
        field = alpha_spin_echo(drive, spectrum)
        weights = 2.0 * ThermalState.uniform(4, 10.0).nbar + 1.0
        contributions = (np.abs(field.alpha) ** 2 * weights[None, :]).sum(axis=0)
        assert contributions[0] / contributions.sum() > 0.95


class TestSweepSpectrum:
    def test_far_detuned_grid_is_flat_background(self, spectrum_190):
        tau = 5e-4
        gamma = -np.log(0.8) / (2 * tau)
        drive = DriveConfig(forces=1.5e-23, mu_r=None, gamma=gamma,
                            sequence=SpinEcho(tau=tau, t_pi=65e-6))
        thermal = ThermalState.uniform(spectrum_190.n_modes, 15.0)
        # grid far above the COM mode: |mu - omega_m| tau >> 2pi for all m
        grid = TWO_PI * np.linspace(900e3, 950e3, 40)
        trace = sweep_spectrum(drive, spectrum_190, thermal, grid)
        assert np.max(np.abs(trace.p_up_mean - background_probability(gamma, 2 * tau))) < 0.01

    def test_two_ion_sweep_shows_both_modes(self):
        spectrum = spectrum_cached(2, 44.7e3)
        tau = 2.5e-4
        gamma = 200.0
        drive = DriveConfig(forces=8e-24, mu_r=None, gamma=gamma,
                            sequence=SpinEcho(tau=tau, t_pi=30e-6))
        thermal = ThermalState.uniform(2, 15.0)
        grid = TWO_PI * np.arange(700e3, 810e3, 100.0)
        trace = sweep_spectrum(drive, spectrum, thermal, grid)
        bg = background_probability(gamma, 2 * tau)
        freqs = spectrum.frequencies_hz
        # strong signal near both mode frequencies
        for f in freqs:
            near = np.abs(trace.mu_over_2pi - f) < 1.2 / tau
            assert trace.p_up_mean[near].max() > bg + 0.05
        # flat background far below the lowest mode
        far = trace.mu_over_2pi < freqs.min() - 10.0 / tau
        assert np.max(np.abs(trace.p_up_mean[far] - bg)) < 0.01
        # global maximum sits within a lineshape width of a mode
        peak_mu = trace.mu_over_2pi[np.argmax(trace.p_up_mean)]
        assert np.min(np.abs(peak_mu - freqs)) < 1.0 / tau

    def test_full_sweep_span_narrows_at_slower_rotation(self):
        # the region of spin-motion signal mirrors the eigenfrequency span:
        # slower rotation compresses it toward the COM line
        tau = 1e-3
        gamma = -np.log(0.8) / (2 * tau)
        drive = DriveConfig(forces=1.5e-23, mu_r=None, gamma=gamma,
                            sequence=SpinEcho(tau=tau, t_pi=65e-6))
        bg = background_probability(gamma, 2 * tau)
        spans = {}
        for rotation_hz in (43.2e3, 44.7e3):
            spectrum = spectrum_cached(345, rotation_hz)
            thermal = ThermalState.from_temperature(spectrum, 0.43e-3)
            grid = TWO_PI * np.arange(30e3, 810e3, 1000.0)
            trace = sweep_spectrum(drive, spectrum, thermal, grid)
            active = trace.mu_over_2pi[trace.p_up_mean > bg + 0.02]
            spans[rotation_hz] = active.max() - active.min()
        assert spans[43.2e3] < spans[44.7e3]

    def test_per_ion_output_shape(self, spectrum_190):
        drive = DriveConfig(forces=1.5e-23, mu_r=None, gamma=223.0,
                            sequence=SpinEcho(tau=5e-4, t_pi=65e-6))
        thermal = ThermalState.uniform(spectrum_190.n_modes, 12.0)
        grid = TWO_PI * np.linspace(793e3, 797e3, 11)
        trace = sweep_spectrum(drive, spectrum_190, thermal, grid, per_ion=True)
        assert trace.p_up_per_ion.shape == (190, 11)
        assert np.allclose(trace.p_up_per_ion.mean(axis=0), trace.p_up_mean)

    def test_unsorted_grid_rejected(self, spectrum_190):
        drive = DriveConfig(forces=1e-23, mu_r=None, gamma=0.0, sequence=Ramsey(tau=1e-4))
        with pytest.raises(ValueError):
            sweep_spectrum(drive, spectrum_190, ThermalState.uniform(190, 1.0),
                           np.array([2.0, 1.0]))


class TestPhaseSpaceTrajectory:
    def test_zero_force_stays_at_origin(self):
        spectrum = com_only_spectrum(3)
        drive = DriveConfig(forces=0.0, mu_r=float(spectrum.omega[0]), gamma=0.0,
                            sequence=SpinEcho(tau=1e-4))
        traj = phase_space_trajectory(drive, spectrum, 0)
        assert np.all(traj.alpha == 0.0)

    def test_resonant_drive_goes_straight_out_and_back(self):
        spectrum = com_only_spectrum(3)
        drive = DriveConfig(forces=1e-23, mu_r=float(spectrum.omega[0]), gamma=0.0,
                            sequence=SpinEcho(tau=3e-4, t_pi=0.0))
        traj = phase_space_trajectory(drive, spectrum, 0, n_samples=200)
        radius = np.abs(traj.alpha).max()
        # excursion nearly pure imaginary (straight line) and returns to origin
        assert np.abs(traj.alpha.real).max() <= 0.01 * radius
        assert np.abs(traj.alpha[-1]) <= 0.01 * radius
        assert traj.arm_boundary == 200

    def test_single_loop_closes_at_one_cycle_detuning(self):
        spectrum = com_only_spectrum(3)
        tau = 3e-4
        drive = DriveConfig(forces=1e-23, mu_r=float(spectrum.omega[0]) + TWO_PI / tau,
                            gamma=0.0, sequence=SpinEcho(tau=tau, t_pi=0.0))
        traj = phase_space_trajectory(drive, spectrum, 0, n_samples=300)
        first_arm = traj.alpha[:300]
        radius = np.abs(first_arm).max()
        assert np.abs(first_arm[-1]) < 0.02 * radius

    def test_ramsey_single_arm(self):
        spectrum = com_only_spectrum(2)
        drive = DriveConfig(forces=1e-23, mu_r=float(spectrum.omega[0]), gamma=0.0,
                            sequence=Ramsey(tau=1e-4))
        traj = phase_space_trajectory(drive, spectrum, 0, n_samples=50)
        assert traj.arm_boundary is None
        assert len(traj.alpha) == 50


class TestMeanExcursion:
    def test_zero_field(self):
        spectrum = com_only_spectrum(4)
        drive = DriveConfig(forces=0.0, mu_r=float(spectrum.omega[0]), gamma=0.0,
                            sequence=Ramsey(tau=1e-4))
        field = alpha_single_arm(drive, spectrum, 1e-4)
        assert mean_excursion(field, spectrum, 0).meters == 0.0

    def test_linearity_in_force(self):
        spectrum = com_only_spectrum(4)
        mu = float(spectrum.omega[0]) + TWO_PI * 2e3
        one = DriveConfig(forces=1e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=5e-4))
        two = DriveConfig(forces=2e-23, mu_r=mu, gamma=0.0, sequence=Ramsey(tau=5e-4))
        e1 = mean_excursion(alpha_single_arm(one, spectrum, 5e-4), spectrum, 0).meters
        e2 = mean_excursion(alpha_single_arm(two, spectrum, 5e-4), spectrum, 0).meters
        assert e2 == pytest.approx(2 * e1, rel=1e-12, abs=0.0)

    def test_convention_recorded(self):
        spectrum = com_only_spectrum(4)
        drive = DriveConfig(forces=1e-23, mu_r=float(spectrum.omega[0]), gamma=0.0,
                            sequence=Ramsey(tau=1e-4))
        field = alpha_single_arm(drive, spectrum, 1e-4)
        assert "rms" in mean_excursion(field, spectrum, 0).convention


class TestValidityRatio:
    def test_reference_point(self):
        # F = 1e-23 N, z0 = 30 nm, nbar = 10, t = 1 ms -> about 0.096, i.e.
        # within 10% of the 0.1 guideline
        v = validity_ratio(1e-23, 30e-9, 10.0, 1e-3)
        assert v.ratio == pytest.approx(0.1, rel=0.1)
        assert v.spin_motion_dominant

    def test_zero_time(self):
        assert validity_ratio(1e-23, 30e-9, 10.0, 0.0).ratio == 0.0

    def test_occupation_scaling(self):
        base = validity_ratio(1e-23, 30e-9, 10.0, 1e-3).ratio
        quartered = validity_ratio(1e-23, 30e-9, 41.5, 1e-3).ratio  # 2n+1: 21 -> 84
        assert quartered == pytest.approx(base / 4.0, rel=1e-12, abs=0.0)

    def test_warning_status(self):
        assert not validity_ratio(4e-23, 30e-9, 10.0, 1e-3).spin_motion_dominant


class TestThermalState:
    def test_from_temperature_matches_conversion(self):
        spectrum = spectrum_cached(5)
        thermal = ThermalState.from_temperature(spectrum, 0.43e-3)
        from drumhead import temperature_to_occupation

        expected = [temperature_to_occupation(0.43e-3, om) for om in spectrum.omega]
        assert np.allclose(thermal.nbar, expected, rtol=1e-12)

    def test_com_plus_bath(self):
        spectrum = spectrum_cached(5)
        thermal = ThermalState.com_plus_bath(spectrum, 60.0, 0.43e-3)
        assert thermal.nbar[0] == 60.0
        assert np.all(thermal.nbar[1:] > 0.0)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            ThermalState(np.array([1.0, -0.5]))
