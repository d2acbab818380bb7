"""Exception types shared across the package, and the config number reader."""

import math


class DilatestError(Exception):
    """Base class for all package errors."""


class EmptyIntersection(DilatestError):
    """A box does not contain a single full grid cell."""


class ResolutionExceeded(DilatestError):
    """A dyadic level is finer than the grid can resolve."""


class LevelPlanError(ResolutionExceeded):
    """A command would read a level or stage that its grid, K_max or depth
    rules out (``plan``); the message starts with the config key that decides it."""


class OutOfDomain(DilatestError):
    """An evaluation point (or a whole quadrature window) leaves the sampled box."""


class InvalidExponent(DilatestError):
    """An integrability exponent is outside its admissible range."""


class NonPositiveValue(DilatestError):
    """A weight evaluated to zero, a negative number, or a non-finite value, or
    a sum of values left the float range."""


class MissingLevels(DilatestError):
    """A weight sequence is shorter than the requested level truncation."""


class NyquistExceeded(DilatestError):
    """A frequency band does not fit below the grid Nyquist frequency."""


class ClippingExcessive(DilatestError):
    """Dilation pushed more than the tolerated share of mass outside the grid."""


class PreconditionFailed(DilatestError):
    """A documented precondition of an operation failed its diagnostic scan."""


class ConfigError(DilatestError):
    """A run configuration failed validation."""


class ImaginaryResidue(DilatestError):
    """A band piece came back from the inverse FFT with a non-negligible imaginary part."""


def config_number(value, where):
    """A config float: a number or the string 'inf', else ConfigError naming ``where``."""
    if isinstance(value, str):
        if value.lower() in ("inf", "+inf", "infinity"):
            return math.inf
        raise ConfigError(f"{where}: expected a number or 'inf', got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: {value!r} is out of the float range") from None
