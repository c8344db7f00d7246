"""Penning trap parameters in the rotating frame.

Internally everything is SI with angular frequencies in rad/s; the Hz
constructors/accessors exist for file and CLI boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import BE9_ION_MASS, ELEMENTARY_CHARGE
from .errors import NoRadialConfinementError, TrapParameterError

TWO_PI = 2.0 * math.pi


def radial_confinement(omega_1: float, omega_c: float, omega_r: float) -> float:
    """Dimensionless radial well strength beta = omega_r(Omega_c - omega_r)/omega_1^2 - 1/2.

    All arguments are angular frequencies (rad/s). Raises
    NoRadialConfinementError when the result is <= 0, in which case no
    planar crystal exists at this rotation frequency, and TrapParameterError
    when it is not a finite number.
    """
    if omega_1 <= 0.0:
        raise TrapParameterError("axial frequency must be positive")
    try:
        value = omega_r * (omega_c - omega_r) / omega_1**2 - 0.5
    except OverflowError as exc:  # omega_1**2 beyond the float range
        raise TrapParameterError(f"axial frequency {omega_1:.6g} rad/s is out of range") from exc
    if not math.isfinite(value):  # omega_r (omega_c - omega_r) beyond the float range
        raise TrapParameterError(
            f"beta = {value} is not finite: rotation or cyclotron frequency out of range"
        )
    if value <= 0.0:
        raise NoRadialConfinementError(
            f"beta = {value:.6g} <= 0: rotation at {omega_r / TWO_PI:.6g} Hz "
            "gives no radial confinement"
        )
    return value


@dataclass(frozen=True)
class TrapParams:
    """Trap and ion constants defining the rotating-frame potential.

    omega_1    axial center-of-mass angular frequency (rad/s)
    omega_c    cyclotron angular frequency (rad/s)
    omega_r    crystal rotation angular frequency (rad/s)
    delta_wall dimensionless rotating-wall quadrupole strength (>= 0, < beta)
    mass       single-ion mass (kg)
    charge     single-ion charge (C)
    """

    omega_1: float
    omega_c: float
    omega_r: float
    delta_wall: float = 0.0
    mass: float = BE9_ION_MASS
    charge: float = ELEMENTARY_CHARGE

    # the boundary (Hz) name of each field, in the order of from_hz's arguments
    _HZ_KEYS = ("axial_com_hz", "cyclotron_hz", "rotation_hz", "wall_delta", "mass_kg", "charge_c")

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise TrapParameterError("trap parameters must be finite")
        if self.omega_1 <= 0.0 or self.omega_c <= 0.0:
            raise TrapParameterError("omega_1 and omega_c must be positive")
        if not 0.0 < self.omega_r < self.omega_c:
            raise TrapParameterError("require 0 < omega_r < omega_c")
        if self.mass <= 0.0 or self.charge == 0.0:
            raise TrapParameterError("mass must be positive and charge nonzero")
        if self.delta_wall < 0.0:
            raise TrapParameterError("delta_wall must be >= 0")
        b = radial_confinement(self.omega_1, self.omega_c, self.omega_r)
        if self.delta_wall >= b:
            raise TrapParameterError(
                f"delta_wall = {self.delta_wall:.6g} must stay below beta = {b:.6g}"
            )

    @classmethod
    def from_hz(
        cls,
        axial_hz: float,
        cyclotron_hz: float,
        rotation_hz: float,
        delta_wall: float = 0.0,
        mass: float = BE9_ION_MASS,
        charge: float = ELEMENTARY_CHARGE,
    ) -> "TrapParams":
        return cls(
            omega_1=TWO_PI * axial_hz,
            omega_c=TWO_PI * cyclotron_hz,
            omega_r=TWO_PI * rotation_hz,
            delta_wall=delta_wall,
            mass=mass,
            charge=charge,
        )

    def to_hz_dict(self) -> dict:
        hz = (self.omega_1 / TWO_PI, self.omega_c / TWO_PI, self.omega_r / TWO_PI)
        return dict(zip(self._HZ_KEYS, (*hz, self.delta_wall, self.mass, self.charge)))


def beta(params: TrapParams) -> float:
    """Radial confinement strength for a validated parameter set."""
    return radial_confinement(params.omega_1, params.omega_c, params.omega_r)
