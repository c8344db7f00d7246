import math

import numpy as np
import pytest

from drumhead import DriveConfig, Ramsey, SpinEcho, effective_wavevector


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

    @pytest.mark.parametrize("build", [
        lambda: Ramsey(tau=math.inf),
        lambda: SpinEcho(tau=math.nan, t_pi=0.0),
        lambda: SpinEcho(tau=1e-3, t_pi=math.inf),
        lambda: DriveConfig(forces=math.nan, mu_r=None, gamma=0.0, sequence=Ramsey(tau=1e-3)),
        lambda: DriveConfig(forces=np.array([1e-23, math.inf]), mu_r=None, gamma=0.0, sequence=Ramsey(tau=1e-3)),
        lambda: DriveConfig(forces=1e-23, mu_r=math.nan, gamma=0.0, sequence=Ramsey(tau=1e-3)),
        lambda: DriveConfig(forces=1e-23, mu_r=None, gamma=math.inf, sequence=Ramsey(tau=1e-3)),
    ], ids=["ramsey_tau", "echo_tau", "echo_t_pi", "force", "per_ion_forces", "mu_r", "gamma"])
    def test_nonfinite_value_rejected(self, build):
        # a NaN passes every `< 0` test, and a sweep would then return NaN without an error
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_with_mu(self):
        drive = DriveConfig(forces=1e-23, mu_r=None, gamma=10.0, sequence=Ramsey(tau=1e-3))
        assert drive.with_mu(5e6).mu_r == 5e6
        assert drive.with_mu(5e6).gamma == 10.0
