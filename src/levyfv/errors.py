"""Exception types shared across the package, and the rule for a number."""


class LevyFvError(Exception):
    """Base class for all package errors."""


# -- measure construction / validation ---------------------------------------

class NonSymmetric(LevyFvError):
    """Atomic measure has an explicitly unmirrored atom or a mirror conflict."""


class MassAtOrigin(LevyFvError):
    """Atom placed at z = 0."""


class DivergentLevyMoment(LevyFvError):
    """The (|z|^2 ^ 1)-moment is not finite: it diverges, or it overflows."""


class QuadratureNotConverged(LevyFvError):
    """The power-law symbol's cosine-tail continued fraction not converged
    within its iteration cap."""


class EmptyGrid(LevyFvError):
    """Frequency sampling grid contains no admissible points."""


# -- discretization -----------------------------------------------------------

class BadRadii(LevyFvError):
    """Radius ordering 0 < dx <= r <= Z violated, or Z / dx is no finite
    cell count below 2**52."""


class HaloTooSmall(LevyFvError):
    """Stored halo narrower than the stencil reach."""


class ShapeMismatch(LevyFvError):
    """Field arguments have incompatible shapes."""


class DegenerateGrid(LevyFvError):
    """Grid has no interior cells, no finite cell count below 2**52 or
    nonpositive spacing."""


# -- time stepping ------------------------------------------------------------

class CflViolation(LevyFvError):
    """Requested time step above the monotonicity bound."""


class NonfiniteValue(LevyFvError):
    """NaN or infinity produced during time stepping."""


class NoConvergence(LevyFvError):
    """Fixed-point iteration stagnated above tolerance at the iteration cap."""

    def __init__(self, message, gaps=None):
        super().__init__(message)
        self.gaps = list(gaps) if gaps is not None else []


# -- problem data -------------------------------------------------------------

class MissingExtensionDerivatives(LevyFvError):
    """Exterior extension lacks the closed-form derivatives a check needs."""


# -- diagnostics / orchestration ----------------------------------------------

class ConfigMismatch(LevyFvError):
    """Two runs are not comparable (grid, times, or exterior data differ), a
    frozen run is not of the march's problem, stencil or time grid, or two
    measures have no closed-form distance."""


class ConfigParse(LevyFvError):
    """Run configuration failed to parse."""


class UnknownPreset(LevyFvError):
    """Named problem or measure preset does not exist."""


class UnknownSuite(LevyFvError):
    """Named verification suite does not exist."""


def config_number(val, key) -> float:
    """`val`, the config entry `key`, as a float.  Only an int or a float
    is a number: text and a bool, which `float` would read, are refused
    (`ConfigParse`), and so is an int beyond the doubles."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            return float(val)
        except OverflowError:
            pass
    raise ConfigParse(f"{key} must be a number, got {val!r}")
