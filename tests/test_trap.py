import math

import pytest

from drumhead import (
    NoRadialConfinementError,
    TrapParameterError,
    TrapParams,
    beta,
    radial_confinement,
)

TWO_PI = 2 * math.pi


class TestRadialConfinement:
    def test_low_rotation_value(self):
        # 43.2 kHz rotation in the 795 kHz / 7.6 MHz trap
        value = radial_confinement(TWO_PI * 795e3, TWO_PI * 7.6e6, TWO_PI * 43.2e3)
        assert value == pytest.approx(0.016520, rel=1e-4)

    def test_high_rotation_value(self):
        value = radial_confinement(TWO_PI * 795e3, TWO_PI * 7.6e6, TWO_PI * 44.7e3)
        assert value == pytest.approx(0.034349, rel=1e-4)

    def test_midpoint_maximum(self):
        # at omega_r = Omega_c/2 with omega_1^2 = Omega_c^2/4 the value is exactly 1/2
        omega_c = TWO_PI * 4e6
        assert radial_confinement(omega_c / 2, omega_c, omega_c / 2) == pytest.approx(0.5, rel=1e-14)

    def test_unconfined_raises(self):
        # slow rotation: omega_r (Omega_c - omega_r) < omega_1^2 / 2
        with pytest.raises(NoRadialConfinementError):
            radial_confinement(TWO_PI * 795e3, TWO_PI * 7.6e6, TWO_PI * 5e3)

    def test_beta_matches_raw_formula(self):
        params = TrapParams.from_hz(795e3, 7.6e6, 44.7e3)
        expected = (TWO_PI * 44.7e3) * (TWO_PI * 7.6e6 - TWO_PI * 44.7e3) / (TWO_PI * 795e3) ** 2 - 0.5
        assert beta(params) == pytest.approx(expected, rel=1e-15)


class TestTrapParamsValidation:
    def test_builder_rejects_nonconfining_rotation(self):
        with pytest.raises(NoRadialConfinementError):
            TrapParams.from_hz(795e3, 7.6e6, 5e3)

    def test_rotation_must_be_below_cyclotron(self):
        with pytest.raises(TrapParameterError):
            TrapParams.from_hz(795e3, 7.6e6, 8e6)

    def test_rotation_must_be_positive(self):
        with pytest.raises(TrapParameterError):
            TrapParams.from_hz(795e3, 7.6e6, -10e3)

    def test_wall_must_stay_below_beta(self):
        with pytest.raises(TrapParameterError):
            TrapParams.from_hz(795e3, 7.6e6, 43.2e3, delta_wall=0.02)

    def test_negative_wall_rejected(self):
        with pytest.raises(TrapParameterError):
            TrapParams.from_hz(795e3, 7.6e6, 43.2e3, delta_wall=-0.001)

    @pytest.mark.parametrize("hz", [(1e200, 7.6e6, 43.2e3), (795e3, 1e308, 43.2e3),
                                    (795e3, 1e300, 1e150)],
                             ids=["axial_squared_overflows", "cyclotron_overflows", "beta_overflows"])
    def test_out_of_range_frequencies_rejected(self, hz):
        with pytest.raises(TrapParameterError):
            TrapParams.from_hz(*hz)

    def test_hz_round_trip(self):
        params = TrapParams.from_hz(795e3, 7.6e6, 43.2e3, delta_wall=0.001)
        d = params.to_hz_dict()
        assert d["axial_com_hz"] == pytest.approx(795e3, rel=1e-15)
        assert d["rotation_hz"] == pytest.approx(43.2e3, rel=1e-15)
        assert d["wall_delta"] == 0.001
