"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations

import math
import numbers

__all__ = [
    "HvlabError",
    "ValidationError",
    "ConfigError",
    "ReductionUndefinedError",
    "UndefinedConditionalError",
    "WitnessUndefinedError",
    "ZeroProbabilityError",
    "ScenarioError",
]


class HvlabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HvlabError, ValueError):
    """Inputs violate a contract: domain, shape, norm, or config schema."""


class ConfigError(ValidationError):
    """A scenario configuration file or value is malformed."""


class ReductionUndefinedError(HvlabError):
    """State preparation on an (almost) orthogonal projector is undefined.

    Raised when the conditioning probability falls at or below the
    orthogonality cutoff.  ``index`` identifies the failing step for
    measurement sequences, and is None otherwise.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class UndefinedConditionalError(HvlabError):
    """Classical conditioning on a set of (almost) zero measure."""


class WitnessUndefinedError(HvlabError):
    """The requested conflict witness degenerates (e.g. collinear axes)."""


class ZeroProbabilityError(HvlabError):
    """A normalization factor of a zero-probability branch was requested."""


class ScenarioError(HvlabError):
    """A lower-level failure surfaced while running a named scenario."""


def _require(value, cls, name: str):
    """Return ``value`` if it is an instance of ``cls`` (a class or a tuple of them).

    Otherwise raise ``ValidationError("<name> must be a <A or B>, got <type>")``.
    Every public entry point checks an argument's class through this: a
    package class (``PureState``, ``StepFunction``, ...), a path type or
    numpy's random generator.
    """
    if isinstance(value, cls):
        return value
    names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    raise ValidationError(f"{name} must be a {names}, got {type(value).__name__}")


def _real(value, name: str) -> float:
    """A finite real number (numpy's too, not a bool) as a float, or a ValidationError."""
    real = type(value) is float or (not isinstance(value, bool) and isinstance(value, numbers.Real))
    try:
        if real and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValidationError(f"{name} must be a finite real number, got {value!r}")


def _integer(value, name: str, minimum: int) -> int:
    """An integer (numpy's too, not a bool) of at least ``minimum`` as an int, or a ValidationError."""
    # a plain int skips the slower abstract-base-class test
    integral = type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))
    if integral and value >= minimum:
        return int(value)
    raise ValidationError(f"{name} must be an integer of at least {minimum}, got {value!r}")
