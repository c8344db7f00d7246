"""Exception types shared across the package."""


class DrumheadError(Exception):
    """Base class for all errors raised by this package."""


class NoRadialConfinementError(DrumheadError):
    """beta <= 0: the rotating-frame radial well is not confining."""


class TrapParameterError(DrumheadError):
    """Trap parameters violate a basic constraint (ordering, sign, wall strength)."""


class CoincidentIonsError(DrumheadError):
    """Two ions share a position; the Coulomb energy diverges."""


class EquilibriumNotConverged(DrumheadError):
    """The polish stopped on its budget or a rejected step (best lattice in `.best`), or
    `transverse_stiffness` was given an unconverged lattice."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NonPlanarLatticeError(DrumheadError):
    """Operation requires a single-plane crystal but the lattice is not planar."""


class UnphysicalBackgroundError(DrumheadError):
    """The data put the fitted background e^{-Gamma T} at or below 0."""


class InsufficientDataError(DrumheadError):
    """Too few data points for the requested estimate."""


class InsufficientSpanError(DrumheadError):
    """Fit data does not straddle the mode resonance well enough to constrain nbar."""


class FitConvergenceError(DrumheadError):
    """The occupation fit failed to converge."""


class ConfigError(DrumheadError):
    """An input document (config, lattice, spectrum or sidecar) is invalid.

    `where` is the JSON path of the offending field.
    """

    def __init__(self, where, message):
        super().__init__(f"{where}: {message}")
        self.where = where
