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
import numbers
import operator
from bisect import bisect_right
from dataclasses import dataclass
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


def _is_int_at_least(value, minimum: int) -> bool:
    # an integer (numpy's too) but not a bool, at least ``minimum``; a plain
    # int skips the slower abstract-base-class test
    integral = type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))
    return integral and value >= minimum


def _is_finite_real(value) -> bool:
    # a real number (numpy's too) but not a bool, and finite
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


class StepFunction:
    """Piecewise-constant real function on [-1/2, 1/2] with exact breakpoints.

    ``values[i]`` is the constant on the i-th open subinterval; there is
    exactly one more value than breakpoints.  Instances are immutable and
    canonical (no two adjacent equal values), so ``==`` is a meaningful exact
    identity of functions up to measure zero.
    """

    def __init__(self, breakpoints: Iterable[float], values: Iterable[float]):
        try:
            bps = tuple(map(float, breakpoints))
            vals = tuple(map(float, values))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"breakpoints and values must be real numbers: {exc}") from exc
        if len(vals) != len(bps) + 1:
            raise ValidationError(
                f"need exactly one more value than breakpoints, "
                f"got {len(vals)} values for {len(bps)} breakpoints"
            )
        # strictly increasing breakpoints lie in the open interval when the
        # outer two do.  On a failure (a NaN fails every comparison) the range
        # is reported before the order, breakpoint by breakpoint.
        if bps and not (
            OMEGA_MIN < bps[0] and bps[-1] < OMEGA_MAX and all(map(operator.lt, bps, bps[1:]))
        ):
            for b in bps:
                if not (OMEGA_MIN < b < OMEGA_MAX):
                    raise ValidationError(
                        f"breakpoint {b!r} outside open interval ({OMEGA_MIN}, {OMEGA_MAX})"
                    )
            raise ValidationError("breakpoints must be strictly increasing")
        if not all(map(math.isfinite, vals)):
            bad = next(v for v in vals if not math.isfinite(v))
            raise ValidationError(f"non-finite segment value {bad!r}")
        if any(map(operator.eq, vals, vals[1:])):
            # canonical form: drop breakpoints between exactly equal values
            merged_b: list[float] = []
            merged_v: list[float] = [vals[0]]
            for b, v in zip(bps, vals[1:]):
                if v == merged_v[-1]:
                    continue
                merged_b.append(b)
                merged_v.append(v)
            bps, vals = tuple(merged_b), tuple(merged_v)
        self._breakpoints = bps
        self._values = vals

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return self._breakpoints

    @property
    def values(self) -> tuple[float, ...]:
        return self._values

    def __call__(self, omega):
        """Evaluate at a scalar or array of omega values (right-continuous)."""
        scalar = np.ndim(omega) == 0
        try:
            x = float(omega) if scalar else np.asarray(omega, dtype=float)
        except (TypeError, ValueError) as exc:
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
    try:
        threshold = float(threshold)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"threshold must be a real number: {exc}") from exc
    if not 0.0 <= threshold <= 0.5:
        raise ValidationError(f"threshold {threshold!r} outside [0, 1/2]")
    if not (_is_int_at_least(polarity, -1) and polarity in (1, -1)):
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
        if not _is_finite_real(self.prefactor):
            raise ValidationError(f"prefactor must be a finite real number, got {self.prefactor!r}")
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
    The mean and the ``ddof=1`` standard error of the sampled values come
    from how many samples fall in each cell, a cell being one segment per
    level; a sample on a breakpoint counts to its right, as evaluation does.
    """
    if not _is_int_at_least(n_samples, 2):
        raise ValidationError(
            f"need an integer of at least 2 samples for a standard error, got {n_samples!r}"
        )
    # rng.uniform(OMEGA_MIN, OMEGA_MAX, n_samples) draws OMEGA_MIN + 1.0 * u
    # for u from rng.random: the same floats, drawn here into one buffer
    omegas = np.empty(n_samples)
    if isinstance(fn, StepFunction):
        rng.random(out=omegas)
        omegas += OMEGA_MIN
        at_or_right = [np.count_nonzero(omegas >= b) for b in fn.breakpoints]
        counts = -np.diff([n_samples, *at_or_right, 0])
        values = np.array(fn.values)
    else:
        # one index per sample into the cells so far, C order over the levels
        cells = np.zeros(n_samples, np.intp)
        values = np.array([fn.prefactor])
        for f in fn.factors:
            rng.random(out=omegas)
            omegas += OMEGA_MIN
            cells *= len(f.values)
            for b in f.breakpoints:
                cells += omegas >= b
            values = np.multiply.outer(values, f.values).ravel()
            if len(values) > n_samples:
                # renumber the occupied cells, so the index stays below n_samples
                occupied, cells = np.unique(cells, return_inverse=True)
                values = values[occupied]
        counts = np.bincount(cells, minlength=len(values))
    estimate = float(counts @ values) / n_samples
    variance = float(counts @ (values - estimate) ** 2) / (n_samples - 1)
    return estimate, math.sqrt(variance) / math.sqrt(n_samples)

