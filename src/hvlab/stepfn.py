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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import ValidationError

OMEGA_MIN = -0.5
OMEGA_MAX = 0.5

__all__ = [
    "OMEGA_MIN",
    "OMEGA_MAX",
    "StepFunction",
    "ProductFunction",
    "constant",
    "indicator_from_sign",
    "mc_integrate",
]


class StepFunction:
    """Piecewise-constant real function on [-1/2, 1/2] with exact breakpoints.

    ``values[i]`` is the constant on the i-th open subinterval; there is
    exactly one more value than breakpoints.  Instances are immutable and
    canonical (no two adjacent equal values), so ``==`` is a meaningful exact
    identity of functions up to measure zero.
    """

    def __init__(self, breakpoints: Iterable[float], values: Iterable[float]):
        bps = tuple(float(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(vals) != len(bps) + 1:
            raise ValidationError(
                f"need exactly one more value than breakpoints, "
                f"got {len(vals)} values for {len(bps)} breakpoints"
            )
        for b in bps:
            if not (OMEGA_MIN < b < OMEGA_MAX):
                raise ValidationError(f"breakpoint {b!r} outside open interval ({OMEGA_MIN}, {OMEGA_MAX})")
        for i in range(1, len(bps)):
            if bps[i] <= bps[i - 1]:
                raise ValidationError("breakpoints must be strictly increasing")
        for v in vals:
            if not math.isfinite(v):
                raise ValidationError(f"non-finite segment value {v!r}")
        # canonical form: drop breakpoints between exactly equal values
        merged_b: list[float] = []
        merged_v: list[float] = [vals[0]]
        for b, v in zip(bps, vals[1:]):
            if v == merged_v[-1]:
                continue
            merged_b.append(b)
            merged_v.append(v)
        self._breakpoints = tuple(merged_b)
        self._values = tuple(merged_v)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._breakpoints

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    @cached_property
    def _breakpoint_array(self) -> np.ndarray:
        return np.asarray(self._breakpoints, dtype=float)

    @cached_property
    def _value_array(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def __call__(self, omega):
        """Evaluate at a scalar or array of omega values (right-continuous)."""
        if np.ndim(omega) == 0:
            x = float(omega)
            if not OMEGA_MIN <= x <= OMEGA_MAX:
                raise ValidationError(f"omega {x!r} outside [{OMEGA_MIN}, {OMEGA_MAX}]")
            return self._values[bisect_right(self._breakpoints, x)]
        arr = np.asarray(omega, dtype=float)
        # written so that a NaN, which propagates through min and max, fails it
        if arr.size and not (OMEGA_MIN <= arr.min() and arr.max() <= OMEGA_MAX):
            raise ValidationError("omega samples outside [-1/2, 1/2]")
        idx = np.searchsorted(self._breakpoint_array, arr, side="right")
        return self._value_array[idx]

    def integrate(self) -> float:
        """Exact integral over [-1/2, 1/2]: sum of value * segment length."""
        total = 0.0
        left = OMEGA_MIN
        for b, v in zip(self._breakpoints, self._values):
            total += v * (b - left)
            left = b
        total += self._values[-1] * (OMEGA_MAX - left)
        return total

    def segments(self) -> Iterator[tuple[float, float, float]]:
        """Yield (omega_left, omega_right, value) for each maximal segment."""
        left = OMEGA_MIN
        for b, v in zip(self._breakpoints, self._values):
            yield (left, b, v)
            left = b
        yield (left, OMEGA_MAX, self._values[-1])

    def _combine(self, other: "StepFunction", op: Callable[[float, float], float]) -> "StepFunction":
        breakpoints, pairs = _common_segments(self, other)
        return StepFunction(breakpoints, [op(a, b) for a, b in pairs])

    def _map(self, op: Callable[[float], float]) -> "StepFunction":
        return StepFunction(self._breakpoints, tuple(op(v) for v in self._values))

    def __add__(self, other):
        if isinstance(other, StepFunction):
            return self._combine(other, lambda a, b: a + b)
        if isinstance(other, (int, float)):
            return self._map(lambda v: v + float(other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._map(lambda v: -v)

    def __sub__(self, other):
        if isinstance(other, StepFunction):
            return self._combine(other, lambda a, b: a - b)
        if isinstance(other, (int, float)):
            return self._map(lambda v: v - float(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return self._map(lambda v: float(other) - v)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._combine(other, lambda a, b: a * b)
        if isinstance(other, (int, float)):
            return self._map(lambda v: v * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self._breakpoints == other._breakpoints and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._breakpoints, self._values))

    def __repr__(self) -> str:
        return f"StepFunction(breakpoints={self._breakpoints!r}, values={self._values!r})"


def _common_segments(
    f: StepFunction, g: StepFunction
) -> tuple[list[float], list[tuple[float, float]]]:
    """Breakpoints of the common partition and the (f value, g value) pair on each cell.

    The partition's breakpoints are the union of both functions'; each cell
    carries the (constant) value of either function on it.
    """
    bps = sorted({*f._breakpoints, *g._breakpoints})
    pairs = [
        (f._values[bisect_right(f._breakpoints, left)], g._values[bisect_right(g._breakpoints, left)])
        for left in [OMEGA_MIN, *bps]
    ]
    return bps, pairs


def constant(value: float) -> StepFunction:
    """The constant function on [-1/2, 1/2]."""
    return StepFunction((), (value,))


def indicator_from_sign(threshold: float, polarity: int) -> StepFunction:
    """Exact 0/1 step function (1/2)[1 + sign(omega + threshold) * polarity].

    ``threshold`` must lie in [0, 1/2]; the single breakpoint sits at
    ``-threshold``.  sign(0) = +1, so the (measure-zero) value at the
    breakpoint is the right-hand one, consistent with right-continuous
    evaluation.  A threshold of exactly 1/2 yields a constant function.
    """
    threshold = float(threshold)
    if not 0.0 <= threshold <= 0.5:
        raise ValidationError(f"threshold {threshold!r} outside [0, 1/2]")
    if polarity not in (1, -1):
        raise ValidationError(f"polarity must be +1 or -1, got {polarity!r}")
    high = 0.5 * (1 + polarity)
    low = 0.5 * (1 - polarity)
    if threshold == 0.5:
        # sign(omega + 1/2) >= 0 everywhere on Lambda under sign(0) = +1
        return StepFunction((), (high,))
    return StepFunction((0.0 if threshold == 0.0 else -threshold,), (low, high))


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
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "prefactor", float(self.prefactor))
        for f in self.factors:
            if not isinstance(f, StepFunction):
                raise ValidationError("ProductFunction factors must be StepFunction instances")

    @property
    def levels(self) -> int:
        return len(self.factors)

    def __call__(self, point: Sequence[float]) -> float:
        if len(point) != len(self.factors):
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
        if not 0 <= index < len(self.factors):
            raise ValidationError(f"level index {index} out of range for {len(self.factors)} factors")
        rest = self.factors[:index] + self.factors[index + 1 :]
        return ProductFunction(rest, self.prefactor * self.factors[index].integrate())


def mc_integrate(
    fn: Union[StepFunction, ProductFunction],
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate (mean, standard error) of an integral over Lambda^k.

    Draws ``n_samples`` uniform points per level from ``rng``; intended as an
    independent cross-check of the exact integrals, not as a primary route.
    """
    if n_samples < 2:
        raise ValidationError("need at least 2 samples for a standard error")
    if isinstance(fn, StepFunction):
        samples = fn(rng.uniform(OMEGA_MIN, OMEGA_MAX, n_samples))
    else:
        samples = np.full(n_samples, fn.prefactor)
        for f in fn.factors:
            samples = samples * f(rng.uniform(OMEGA_MIN, OMEGA_MAX, n_samples))
    estimate = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n_samples))
    return estimate, stderr

