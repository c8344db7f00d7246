import math

import numpy as np
import pytest

from drumhead import (
    DriveConfig,
    HBAR,
    NoStarkNullError,
    Ramsey,
    SpinEcho,
    StarkCoefficients,
    acss_null_angle,
    effective_wavevector,
    force_from_intensity,
    qubit_stark_shift,
    state_dependent_forces,
)


class TestEffectiveWavevector:
    def test_paper_geometry(self):
        dk = effective_wavevector(313.133e-9, math.radians(4.8))
        assert dk == pytest.approx(1.681e6, rel=1e-3)
        # lattice period ~3.74 um, within 2% of the reported ~3.7 um
        assert 2 * math.pi / dk == pytest.approx(3.7e-6, rel=0.02)

    def test_parallel_beams_limit(self):
        assert effective_wavevector(313e-9, 0.0) == 0.0

    def test_counterpropagating_limit(self):
        k = 2 * math.pi / 313e-9
        assert effective_wavevector(313e-9, math.pi) == pytest.approx(2 * k, rel=1e-12)

    def test_monotone_in_angle(self):
        angles = np.linspace(1e-3, math.pi - 1e-3, 50)
        values = [effective_wavevector(313e-9, a) for a in angles]
        assert np.all(np.diff(values) > 0.0)


class TestStarkNull:
    def test_balanced_differences_give_45_degrees(self):
        coeffs = StarkCoefficients(a_up=2e5, a_dn=1e5, b_up=1e5, b_dn=2e5)
        assert acss_null_angle(coeffs) == pytest.approx(math.radians(45.0), rel=1e-12)

    def test_engineered_65_degrees(self):
        ratio = math.tan(math.radians(65.0)) ** 2
        coeffs = StarkCoefficients(a_up=ratio * 1e5, a_dn=0.0, b_up=0.0, b_dn=1e5)
        assert acss_null_angle(coeffs) == pytest.approx(math.radians(65.0), rel=1e-12)

    def test_shift_vanishes_at_null(self):
        coeffs = StarkCoefficients(a_up=3.7e5, a_dn=1.2e5, b_up=-2e5, b_dn=1e5)
        phi = acss_null_angle(coeffs)
        scale = max(abs(coeffs.a_up - coeffs.a_dn), abs(coeffs.b_up - coeffs.b_dn))
        assert abs(qubit_stark_shift(coeffs, phi)) <= 1e-12 * scale

    def test_same_sign_differences_have_no_null(self):
        with pytest.raises(NoStarkNullError):
            acss_null_angle(StarkCoefficients(a_up=2e5, a_dn=1e5, b_up=2e5, b_dn=1e5))

    def test_equal_sigma_shifts_have_no_null(self):
        with pytest.raises(NoStarkNullError):
            acss_null_angle(StarkCoefficients(a_up=2e5, a_dn=1e5, b_up=1e5, b_dn=1e5))


class TestStateDependentForces:
    def test_pure_pi_polarization(self):
        coeffs = StarkCoefficients(a_up=2e5, a_dn=-1e5, b_up=3e5, b_dn=4e5)
        dk = 1.68e6
        pair = state_dependent_forces(coeffs, 0.0, dk)
        assert pair.f_up == pytest.approx(2 * dk * HBAR * coeffs.a_up, rel=1e-12, abs=0.0)
        assert pair.f_dn == pytest.approx(2 * dk * HBAR * coeffs.a_dn, rel=1e-12, abs=0.0)

    def test_engineered_antisymmetric_pair(self):
        coeffs = StarkCoefficients(a_up=2e5, a_dn=-1e5, b_up=-1e5, b_dn=2e5)
        phi = acss_null_angle(coeffs)
        pair = state_dependent_forces(coeffs, phi, 1.68e6)
        assert pair.antisymmetric
        assert pair.f_up == pytest.approx(-pair.f_dn, rel=1e-9, abs=0.0)

    def test_generic_pair_not_antisymmetric(self):
        coeffs = StarkCoefficients(a_up=1e5, a_dn=-0.5e5, b_up=-2e5, b_dn=-0.5e5)
        pair = state_dependent_forces(coeffs, acss_null_angle(coeffs), 1.68e6)
        assert not pair.antisymmetric


class TestForceFromIntensity:
    def test_calibration_anchor(self):
        assert force_from_intensity(1.0) == 1.5e-23

    def test_zero(self):
        assert force_from_intensity(0.0) == 0.0

    def test_linear(self):
        assert force_from_intensity(2.0) == pytest.approx(3.0e-23, rel=1e-15, abs=0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            force_from_intensity(-0.1)


class TestSequencesAndDrive:
    def test_total_odf_times(self):
        assert Ramsey(tau=1e-3).total_odf_time == 1e-3
        assert SpinEcho(tau=1e-3, t_pi=65e-6).total_odf_time == 2e-3

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            Ramsey(tau=0.0)
        with pytest.raises(ValueError):
            SpinEcho(tau=1e-3, t_pi=-1e-6)

    def test_uniform_force_array(self):
        drive = DriveConfig(forces=2e-23, mu_r=None, gamma=0.0, sequence=Ramsey(tau=1e-3))
        assert np.all(drive.force_array(5) == 2e-23)

    def test_per_ion_force_length_checked(self):
        drive = DriveConfig(forces=np.full(4, 1e-23), mu_r=None, gamma=0.0, sequence=Ramsey(tau=1e-3))
        with pytest.raises(ValueError):
            drive.force_array(5)

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError):
            DriveConfig(forces=-1e-23, mu_r=None, gamma=0.0, sequence=Ramsey(tau=1e-3))

    def test_with_mu(self):
        drive = DriveConfig(forces=1e-23, mu_r=None, gamma=10.0, sequence=Ramsey(tau=1e-3))
        assert drive.with_mu(5e6).mu_r == 5e6
        assert drive.with_mu(5e6).gamma == 10.0
