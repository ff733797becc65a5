"""Exception and warning types shared across discretum, plus require_finite."""

import math
import numbers


class DiscretumError(ValueError):
    """Base class for all discretum input/validation errors."""


class DegenerateBasisError(DiscretumError):
    """Raised when lattice basis vectors are collinear/coplanar."""


class SubRestMassError(DiscretumError):
    """Raised when an energy bound lies below the particle rest energy."""


class StabilityWarning(UserWarning):
    """Emitted when an integrator step size is at or beyond its stable range."""


def require_finite(name, value):
    """Raise DiscretumError unless `value` is a finite real number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise DiscretumError("%s must be a finite number, got %r" % (name, value))
