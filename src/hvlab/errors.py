"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations

import math
import numbers
from typing import Iterable

import numpy as np

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


# A bool is an int, and numpy registers its timedelta64 as an Integral; neither
# is a number here.
_NOT_NUMBERS = (bool, np.timedelta64)
_EXACT_FLOAT = frozenset((float,))  # qubit's test for a tuple of exact floats


def _as_float(value) -> float:
    """The package's one rule for a real number: ``value`` as a float, or a TypeError.

    An int beyond the float range meets ``float()``'s OverflowError; finiteness
    is the caller's test.  README "Input rules" lists what is taken.
    """
    if type(value) is float:  # the package's own values, returned at once
        return value
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, numbers.Real) and not isinstance(value, _NOT_NUMBERS):
        return float(value)
    raise TypeError(f"got {type(value).__name__} {value!r}")


def _reals(items: Iterable) -> tuple[float, ...]:
    """Each item by ``_as_float``, as a tuple of floats; its error for the first that fails."""
    return tuple(map(_as_float, items))


def _real(value, name: str) -> float:
    """A finite real number by ``_as_float``, as a float, or a ValidationError."""
    try:
        x = _as_float(value)
        if math.isfinite(x):
            return x
    except (TypeError, OverflowError):  # no real number, or an int beyond the float range
        pass
    raise ValidationError(f"{name} must be a finite real number, got {value!r}")


def _integer(value, name: str, minimum: int) -> int:
    """An integer (not a bool or timedelta) of at least ``minimum`` as an int, or a ValidationError.

    A 0-d array is judged by the scalar it holds, as ``_as_float`` judges one.
    """
    x = value[()] if isinstance(value, np.ndarray) and value.ndim == 0 else value
    if not isinstance(x, _NOT_NUMBERS) and isinstance(x, numbers.Integral) and x >= minimum:
        return int(x)
    raise ValidationError(f"{name} must be an integer of at least {minimum}, got {value!r}")
