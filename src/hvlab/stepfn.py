"""Exact arithmetic on piecewise-constant functions over the interval [-1/2, 1/2].

Every dispersion-free value map in this package is a step function on the
hidden-variable interval ``Lambda = [-1/2, 1/2]`` carrying the uniform measure
``d(omega)``, so integrals reduce to finite sums of value * length terms and
carry no quadrature error.  Multi-level constructions live on product spaces
``Lambda x Lambda x ...`` and stay factored: a :class:`ProductFunction` is a
scalar prefactor times one :class:`StepFunction` per level, which makes
iterated integration order-independent by construction.

Conventions
-----------
* Breakpoints are exact floats in the open interval (-1/2, 1/2); arithmetic on
  them uses exact comparison (merging tolerance zero).  Breakpoints only ever
  come from closed-form expressions, never from iteration.
* A value query at a breakpoint returns the right-hand segment's value
  (right-continuity).  This matches the sign(0) = +1 convention used by
  :func:`indicator_from_sign`, so pointwise witnesses are deterministic.
  Endpoint conventions affect only measure-zero sets, never integrals.
* Step functions are canonicalized on construction: adjacent segments with
  exactly equal values are merged.
* ``StepFunction(breakpoints, values)`` runs the whole input rule: each item
  through the real-number rule, the count, the range and order scan, then
  ``_canonical`` (the finiteness test and the merge).  Step functions the
  package builds from values it has already checked skip what those values
  cannot fail, through ``StepFunction._from_canonical``:

  - ``_combine`` and ``_map`` (the arithmetic), ``bell_value_operator`` and
    ``disagreement_witness``'s region skip the conversion and the range and
    order scan: their breakpoints are those of canonical operands, or the
    sorted union of them.  They keep ``_canonical``: arithmetic can overflow
    to ``inf`` or make ``inf - inf``, rounding can make two eigenvalues
    equal, and adjacent cells of a 0/1 region can carry the same value.
  - ``constant`` and ``indicator_from_sign`` skip all of it after their own
    tests: one finite value, or the two distinct values 0.0 and 1.0 beside a
    breakpoint in the open interval.
  - ``branch``'s complement, ``1 - v`` of each value of the selected 0/1
    indicator, skips all of it: its breakpoints are the indicator's, and
    each ``1 - v`` is exact, so neighbouring values stay different.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError, _as_float, _integer, _real, _reals, _require

OMEGA_MIN = -0.5
OMEGA_MAX = 0.5

__all__ = [
    "OMEGA_MIN",
    "OMEGA_MAX",
    "StepFunction",
    "ProductFunction",
    "constant",
    "indicator_from_sign",
]


def _operand(other) -> float | None:
    # a scalar operand of the arithmetic operators, converted once by the one
    # rule; None for any other operand
    try:
        return _as_float(other)
    except TypeError:
        return None
    except OverflowError as exc:  # an int beyond the float range
        raise ValidationError(f"scalar operand must be a real number: {exc}") from exc


class StepFunction:
    """Piecewise-constant real function on [-1/2, 1/2] with exact breakpoints.

    ``values[i]`` is the constant on the i-th open subinterval; there is
    exactly one more value than breakpoints.  Instances are immutable and
    canonical (no two adjacent equal values), so ``==`` is a meaningful exact
    identity of functions up to measure zero.
    """

    __array_ufunc__ = None  # numpy operands defer to the operators below, and so to the one rule

    def __init__(self, breakpoints: Iterable[float], values: Iterable[float]):
        try:
            bps = _reals(breakpoints)
            vals = _reals(values)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"breakpoints and values must be real numbers: {exc}") from exc
        if len(vals) != len(bps) + 1:
            raise ValidationError(
                f"need exactly one more value than breakpoints, "
                f"got {len(vals)} values for {len(bps)} breakpoints"
            )
        # the range before the order, breakpoint by breakpoint (a NaN fails both)
        for b in bps:
            if not (OMEGA_MIN < b < OMEGA_MAX):
                raise ValidationError(f"breakpoint {b!r} outside open interval ({OMEGA_MIN}, {OMEGA_MAX})")
        if not all(map(operator.lt, bps, bps[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        self._breakpoints, self._values = _canonical(bps, vals)

    @classmethod
    def _from_canonical(cls, breakpoints: tuple[float, ...], values: tuple[float, ...]) -> "StepFunction":
        """A step function of two tuples the package built, stored as given, unchecked.

        The caller guarantees what ``__init__`` would otherwise establish: both
        are tuples of exact floats, there is one more value than breakpoints,
        the breakpoints increase strictly inside (-1/2, 1/2), and the values are
        finite with no two neighbours equal.  The module docstring lists the
        callers and why each may.
        """
        f = cls.__new__(cls)
        f._breakpoints = breakpoints
        f._values = values
        return f

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._breakpoints

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    def __call__(self, omega):
        """Evaluate at a scalar or array of omega values (right-continuous)."""
        try:
            scalar = np.ndim(omega) == 0
            if scalar:
                x = _as_float(omega)
            else:
                # a numeric ndarray holds only real samples; any other input is judged
                # sample by sample, as a list may hold a bool or text among numbers
                x = omega if type(omega) is np.ndarray else np.asarray(omega, dtype=object)
                if x.dtype.kind not in "fiu":
                    x = np.reshape(_reals(x.flat), x.shape)
                x = x.astype(float, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"omega must be real: {exc}") from exc
        if scalar:
            if not OMEGA_MIN <= x <= OMEGA_MAX:
                raise ValidationError(f"omega {x!r} outside [{OMEGA_MIN}, {OMEGA_MAX}]")
            return self._values[bisect_right(self._breakpoints, x)]
        # written so that a NaN, which propagates through min and max, fails it
        if x.size and not (OMEGA_MIN <= x.min() and x.max() <= OMEGA_MAX):
            raise ValidationError("omega samples outside [-1/2, 1/2]")
        return np.array(self._values)[np.searchsorted(self._breakpoints, x, side="right")]

    def integrate(self) -> float:
        """Exact integral over [-1/2, 1/2]: sum of value * segment length."""
        total = 0.0
        left = OMEGA_MIN
        for b, v in zip(self._breakpoints, self._values):
            total += v * (b - left)
            left = b
        total += self._values[-1] * (OMEGA_MAX - left)
        return total

    def _combine(self, other: "StepFunction", op: Callable[[float, float], float]) -> "StepFunction":
        breakpoints, pairs = _common_segments(self, other)
        return StepFunction._from_canonical(*_canonical(breakpoints, tuple([op(a, b) for a, b in pairs])))

    def _map(self, op: Callable[[float], float]) -> "StepFunction":
        return StepFunction._from_canonical(*_canonical(self._breakpoints, tuple(map(op, self._values))))

    # A scalar operand is converted once, into a bound float method: x.__add__(v)
    # and x.__mul__(v) are v + x and v * x bit for bit, and x.__rsub__(v) is v - x.

    def __add__(self, other):
        if isinstance(other, StepFunction):
            return self._combine(other, lambda a, b: a + b)
        x = _operand(other)
        return NotImplemented if x is None else self._map(x.__add__)

    __radd__ = __add__

    def __neg__(self):
        return self._map(float.__neg__)

    def __sub__(self, other):
        if isinstance(other, StepFunction):
            return self._combine(other, lambda a, b: a - b)
        x = _operand(other)
        return NotImplemented if x is None else self._map(x.__rsub__)

    def __rsub__(self, other):
        x = _operand(other)
        return NotImplemented if x is None else self._map(x.__sub__)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._combine(other, lambda a, b: a * b)
        x = _operand(other)
        return NotImplemented if x is None else self._map(x.__mul__)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self._breakpoints == other._breakpoints and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._breakpoints, self._values))

    def __repr__(self) -> str:
        return f"StepFunction(breakpoints={self._breakpoints!r}, values={self._values!r})"


def _canonical(
    breakpoints: tuple[float, ...], values: tuple[float, ...]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The canonical form of finite values: breakpoints between exactly equal values dropped.

    Raises ``ValidationError("non-finite segment value <v>")`` for the first
    NaN or infinite value.
    """
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValidationError(f"non-finite segment value {bad!r}")
    if not any(map(operator.eq, values, values[1:])):
        return breakpoints, values
    merged_b: list[float] = []
    merged_v: list[float] = [values[0]]
    for b, v in zip(breakpoints, values[1:]):
        if v == merged_v[-1]:
            continue
        merged_b.append(b)
        merged_v.append(v)
    return tuple(merged_b), tuple(merged_v)


def _common_segments(
    f: StepFunction, g: StepFunction
) -> tuple[tuple[float, ...], list[tuple[float, float]]]:
    """Breakpoints of the common partition and the (f value, g value) pair on each cell.

    The partition's breakpoints are the union of both functions'; each cell
    carries the (constant) value of either function on it.
    """
    bps = tuple(sorted({*f._breakpoints, *g._breakpoints}))
    pairs = [
        (f._values[bisect_right(f._breakpoints, left)], g._values[bisect_right(g._breakpoints, left)])
        for left in [OMEGA_MIN, *bps]
    ]
    return bps, pairs


def constant(value: float) -> StepFunction:
    """The constant function on [-1/2, 1/2]."""
    return StepFunction._from_canonical((), (_real(value, "constant value"),))


def indicator_from_sign(threshold: float, polarity: int) -> StepFunction:
    """Exact 0/1 step function (1/2)[1 + sign(omega + threshold) * polarity].

    ``threshold`` must lie in [0, 1/2]; the single breakpoint sits at
    ``-threshold``.  sign(0) = +1, so the (measure-zero) value at the
    breakpoint is the right-hand one, consistent with right-continuous
    evaluation.  A threshold of exactly 1/2 yields a constant function.
    """
    # a float already in range and an int polarity of +-1 need no checker; a
    # NaN fails the range test, so it meets _real
    if type(threshold) is not float or not 0.0 <= threshold <= 0.5:
        threshold = _real(threshold, "threshold")
        if not 0.0 <= threshold <= 0.5:
            raise ValidationError(f"threshold {threshold!r} outside [0, 1/2]")
    if type(polarity) is int and (polarity == 1 or polarity == -1):
        sign = polarity
    else:
        try:
            sign = _integer(polarity, "polarity", -1)
        except ValidationError:
            sign = 0
        if sign not in (1, -1):
            raise ValidationError(f"polarity must be +1 or -1, got {polarity!r}")
    high = 0.5 * (1 + sign)
    low = 0.5 * (1 - sign)
    if threshold == 0.5:
        # sign(omega + 1/2) >= 0 everywhere on Lambda under sign(0) = +1
        return StepFunction._from_canonical((), (high,))
    return StepFunction._from_canonical((0.0 if threshold == 0.0 else -threshold,), (low, high))


@dataclass(frozen=True)
class ProductFunction:
    """Factored function on the product space Lambda^k.

    The value at ``(omega_1, ..., omega_k)`` is
    ``prefactor * prod(factors[i](omega_i))``; levels are independent
    coordinates and are never expanded onto a joint grid, so iterated
    integrals are exact and order-independent (Fubini for finite products).
    An empty factor tuple is the scalar ``prefactor``.
    """

    factors: tuple[StepFunction, ...]
    prefactor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "prefactor", _real(self.prefactor, "prefactor"))
        try:
            object.__setattr__(self, "factors", tuple(self.factors))
        except TypeError as exc:  # factors is not iterable
            raise ValidationError(f"ProductFunction factors must be iterable, got {self.factors!r}") from exc
        for f in self.factors:
            _require(f, StepFunction, "ProductFunction factor")

    @property
    def levels(self) -> int:
        return len(self.factors)

    def __call__(self, point: Sequence[float]) -> float:
        try:
            mismatch = len(point) != len(self.factors)
        except TypeError as exc:  # point has no length
            raise ValidationError(
                f"point must be a sequence of {len(self.factors)} coordinates, got {point!r}"
            ) from exc
        if mismatch:
            raise ValidationError(f"expected {len(self.factors)} coordinates, got {len(point)}")
        out = self.prefactor
        for f, omega in zip(self.factors, point):
            out *= f(omega)
        return out

    def integrate(self) -> float:
        out = self.prefactor
        for f in self.factors:
            out *= f.integrate()
        return out

    def integrate_level(self, index: int) -> "ProductFunction":
        """Integrate out one level, folding its integral into the prefactor."""
        if _integer(index, "level index", 0) >= len(self.factors):
            raise ValidationError(f"level index {index} out of range for {len(self.factors)} factors")
        rest = self.factors[:index] + self.factors[index + 1 :]
        return ProductFunction(rest, self.prefactor * self.factors[index].integrate())
