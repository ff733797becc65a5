"""Exception and warning types shared across discretum, plus the number checks."""

import math
import numbers


class DiscretumError(ValueError):
    """The error every discretum input or validation check raises."""


class StabilityWarning(UserWarning):
    """Emitted when an integrator step size is at or beyond its stable range."""


def require_finite(name, value):
    """Raise DiscretumError unless `value` is a finite real number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise DiscretumError("%s must be a finite number, got %r" % (name, value))


def require_positive(name, value):
    """Raise DiscretumError unless `value` is a finite real number above 0."""
    require_finite(name, value)
    if not value > 0:
        raise DiscretumError("%s must be > 0, got %r" % (name, value))


def require_int(name, value, minimum=None, maximum=None):
    """Raise DiscretumError unless `value` is an integer (not a bool) in bounds."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DiscretumError("%s must be an integer, got %r" % (name, value))
    if minimum is not None and value < minimum:
        raise DiscretumError("%s must be >= %d, got %d" % (name, minimum, value))
    if maximum is not None and value > maximum:
        raise DiscretumError("%s must be <= %d, got %d" % (name, maximum, value))
