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
    """Adaptive quadrature error estimate above its certified tolerance, or a
    continued fraction not converged within its iteration cap."""


class EmptyGrid(LevyFvError):
    """Frequency sampling grid contains no admissible points."""


# -- discretization -----------------------------------------------------------

class BadRadii(LevyFvError):
    """Radius ordering 0 < dx <= r <= Z violated."""


class HaloTooSmall(LevyFvError):
    """Stored halo narrower than the stencil reach and no extension given."""


class ShapeMismatch(LevyFvError):
    """Field arguments have incompatible shapes."""


class DegenerateGrid(LevyFvError):
    """Grid has no interior cells or nonpositive spacing."""


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
    """Two runs are not comparable (grid, times, or exterior data differ)."""


class ConfigParse(LevyFvError):
    """Run configuration failed to parse."""


class UnknownPreset(LevyFvError):
    """Named problem or measure preset does not exist."""


class UnknownSuite(LevyFvError):
    """Named verification suite does not exist."""


class IoFailure(LevyFvError):
    """Artifact could not be written."""


def config_number(val, key) -> float:
    """`val`, the config entry `key`, as a float.  A bool, which `float`
    reads as 0 or 1, is refused (`ConfigParse`) like what `float` cannot."""
    if not isinstance(val, bool):
        try:
            return float(val)
        except (TypeError, ValueError):
            pass
    raise ConfigParse(f"{key} must be a number, got {val!r}")
