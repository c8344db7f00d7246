"""Physical constants (SI, CODATA 2022 as scipy.constants has them since 1.15) and default ion properties."""

import math

HBAR = 1.0545718176461565e-34
K_B = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19
ATOMIC_MASS = 1.66053906892e-27
ELECTRON_MASS = 9.1093837139e-31
EPSILON_0 = 8.8541878188e-12
COULOMB_K = 1.0 / (4.0 * math.pi * EPSILON_0)

# 9Be+ ion: neutral 9Be minus one electron mass.
BE9_ION_MASS = (9.0121831 - ELECTRON_MASS / ATOMIC_MASS) * ATOMIC_MASS
