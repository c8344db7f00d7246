"""The CODATA 2022 literals in `drumhead.constants` against scipy's tables."""

import pytest

from drumhead import constants

scipy_constants = pytest.importorskip("scipy.constants")
scipy_version = tuple(int(part) for part in pytest.importorskip("scipy").__version__.split(".")[:2])


@pytest.mark.skipif(scipy_version < (1, 15), reason="scipy before 1.15 tabulates CODATA 2018 values")
def test_literals_match_scipy_bit_for_bit():
    c = scipy_constants
    expected = {
        "HBAR": c.hbar,
        "K_B": c.k,
        "ELEMENTARY_CHARGE": c.e,
        "ATOMIC_MASS": c.atomic_mass,
        "ELECTRON_MASS": c.m_e,
        "EPSILON_0": c.epsilon_0,
        "COULOMB_K": 1.0 / (4.0 * c.pi * c.epsilon_0),
        "BE9_ION_MASS": (9.0121831 - c.m_e / c.atomic_mass) * c.atomic_mass,
    }
    for name, value in expected.items():
        assert getattr(constants, name).hex() == value.hex(), name
