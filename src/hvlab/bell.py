"""Dispersion-free value maps for qubit observables on the hidden-variable interval.

The core construction assigns to each pure state ``s`` and measurement axis
``m`` the exact 0/1 step function

    value(omega) = (1/2) [1 + sign(omega + |s.m|/2) sign(s.m)]

whose integral under the uniform measure reproduces the quantum probability
(1 + s.m)/2.  On top of it this module builds the two inequivalent
representations of a conditional measurement (via the updated state, and via
the operator product B A B divided by the conditioning probability), the
classical intersection-based conditional they both disagree with, the value
map for general observables a*1 + b.sigma, and explicit positive-measure
witnesses for every pointwise conflict.

Every map is returned as a plain :class:`StepFunction`; the observable it
stands for is the caller's input.  When s.m is exactly 0.0 the factor
sign(s.m) is replaced by p(s) p(m), where p(v) is the sign of v's first
non-zero component: the maps for m and -m then complement each other
pointwise everywhere, and the state-update route stays symmetric under
swapping its two axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import UndefinedConditionalError, ValidationError, WitnessUndefinedError, _real, _require
from .qubit import (
    ORTHOGONALITY_CUTOFF,
    HermitianOp,
    PureState,
    _cosine,
    _dot3,
    chain_probability,
    projector,
    unit_vector,
)
from .stepfn import (
    OMEGA_MAX,
    OMEGA_MIN,
    StepFunction,
    _canonical,
    _common_segments,
    constant,
    indicator_from_sign,
)

NONCOLLINEARITY_TOLERANCE = 1e-9

__all__ = [
    "NONCOLLINEARITY_TOLERANCE",
    "ConflictWitness",
    "bell_value",
    "bell_value_operator",
    "route_state_update",
    "route_operator_product",
    "nonuniqueness_witness",
    "classical_conditional",
    "sum_conflict_witness",
    "disagreement_witness",
]


# a NamedTuple, built in about half a frozen dataclass's time; the nonuniqueness and
# sum_conflict reports build them, one per disagreeing cell (the sweep builds no witness)
class _WitnessSample(NamedTuple):
    """One disagreement segment and the two sides' constant values on it."""

    omega_left: float
    omega_right: float
    lhs_value: float
    rhs_value: float


@dataclass(frozen=True)
class ConflictWitness:
    """Explicit region where two representations of one object disagree.

    ``omega_region`` is the 0/1 indicator of the disagreement set and
    ``measure`` its exact size; a zero-measure witness means the two step
    functions coincide identically.  ``samples`` holds one record per cell of
    the common breakpoint partition on which the two sides differ: the cell's
    edges and each side's constant value there.
    """

    omega_region: StepFunction
    measure: float
    samples: tuple[_WitnessSample, ...]

    def __bool__(self) -> bool:
        return self.measure > 0.0


def _polarity(v) -> int:
    # sign of the first non-zero component; a unit vector always has one
    first = next(x for x in v if x != 0.0)
    return 1 if first > 0.0 else -1


def bell_value(psi: PureState, m) -> StepFunction:
    """Dispersion-free 0/1 value map of the projector on axis ``m`` in state ``psi``.

    The indicator has a single breakpoint at -|s.m|/2 and integrates to
    exactly (1 + s.m)/2 under the uniform measure.  An exact tie s.m == 0.0
    takes the polarity p(s) p(m), so the maps for m and -m are complementary.
    """
    axis = unit_vector(m, "measurement axis")
    bloch = _require(psi, PureState, "psi").bloch
    c = _cosine(bloch, axis)
    if c == 0.0:
        # sign(s.m) at the exact tie (either zero) is p(s) p(m)
        return indicator_from_sign(0.0, _polarity(bloch) * _polarity(axis))
    return indicator_from_sign(0.5 * abs(c), 1 if c > 0.0 else -1)


def bell_value_operator(psi: PureState, op: HermitianOp) -> StepFunction:
    """Dispersion-free value map of a general observable ``a*1 + b.sigma``.

    For b != 0 the map is ``a + |b| sign(omega + |s.bhat|/2) sign(s.bhat)``:
    it is :func:`bell_value`'s map for the axis bhat = b/|b|, the tie
    included, with 1 and 0 relabelled as the eigenvalues a + |b| and a - |b|,
    so it integrates to the expectation a + b.s.  For b = 0 it is constant a.
    """
    radius = _require(op, HermitianOp, "observable").b_norm
    if radius == 0.0:
        return constant(op.a)
    ind = bell_value(psi, tuple(x / radius for x in op.b))
    low, high = op.eigenvalues
    values = tuple([high if v == 1.0 else low for v in ind.values])
    return StepFunction._from_canonical(*_canonical(ind.breakpoints, values))


def route_state_update(condition_axis, observed_axis) -> StepFunction:
    """Conditional measurement via state update: the value map of A in the reduced state.

    Measuring B (axis n) prepares the state with Bloch vector n; the returned
    map is the plain value map of A (axis m) in that state,
    ``(1/2)[1 + sign(omega + |n.m|/2) sign(n.m)]``.  It does not depend on the
    original state and is symmetric under swapping the two axes.
    """
    n = unit_vector(condition_axis, "condition axis")
    return bell_value(PureState(n), observed_axis)


def route_operator_product(psi: PureState, condition_axis, observed_axis) -> StepFunction:
    """Conditional measurement via the operator product B A B in the original state.

    Returns ``((1 + n.m)/(1 + n.s)) * bell_value(psi, n)``, the value map of
    B A B / Tr[rho B] evaluated without updating the state.  Its integral is
    (1 + n.m)/2, the same number the state-update route produces, but the
    omega dependence follows the *first* measurement axis n instead of m.
    Raises :class:`ReductionUndefinedError` (from :func:`chain_probability`,
    index 0) when Tr[rho B] = (1 + n.s)/2 falls at or below the cutoff.
    """
    n = unit_vector(condition_axis, "condition axis")
    m = unit_vector(observed_axis, "observed axis")
    # doubling Tr[rho B] is exact: denom is 1 + n.s bit for bit
    denom = 2.0 * chain_probability(psi, [n])
    ratio = (1.0 + _cosine(n, m)) / denom
    return bell_value(psi, n) * ratio


def disagreement_witness(lhs: StepFunction, rhs: StepFunction) -> ConflictWitness:
    """Indicator, measure, and per-segment samples of {omega : lhs != rhs}.

    Comparison is exact (tolerance zero): both operands are built from closed
    forms, so equal segments are bit-equal.  One sample is reported per
    segment of the common breakpoint partition on which the sides disagree,
    so both reported values are constant over the sampled interval.  For
    canonical operands, as every ``StepFunction`` is, ``measure > 0.0``
    exactly when ``lhs != rhs``: differing tuples leave a disagreeing cell
    between two distinct floats, whose width cannot round to zero.
    """
    breakpoints, pairs = _common_segments(
        _require(lhs, StepFunction, "lhs"), _require(rhs, StepFunction, "rhs")
    )
    region = StepFunction._from_canonical(
        *_canonical(breakpoints, tuple([1.0 if a != b else 0.0 for a, b in pairs]))
    )
    edges = zip([OMEGA_MIN, *breakpoints], [*breakpoints, OMEGA_MAX])
    samples = tuple(
        _WitnessSample(left, right, a, b)
        for (left, right), (a, b) in zip(edges, pairs)
        if a != b
    )
    return ConflictWitness(region, region.integrate(), samples)


def nonuniqueness_witness(psi: PureState, condition_axis, observed_axis) -> ConflictWitness:
    """Where the two conditional-measurement routes disagree pointwise.

    Both routes integrate to (1 + n.m)/2, yet for generic non-collinear
    inputs they differ on a set of positive measure; a zero-measure witness
    is returned when the two step functions coincide identically.
    """
    via_state = route_state_update(condition_axis, observed_axis)
    via_product = route_operator_product(psi, condition_axis, observed_axis)
    return disagreement_witness(via_state, via_product)


def _collinear(n, m) -> bool:
    # |n x m| at or below the tolerance: the axes (anti-)align and their projectors commute.
    # np.cross's components, from floats: np.cross costs about ten times more on 3-vectors
    (n1, n2, n3), (m1, m2, m3) = n, m
    cross = (n2 * m3 - n3 * m2, n3 * m1 - n1 * m3, n1 * m2 - n2 * m1)
    return math.sqrt(_dot3(cross, cross)) <= NONCOLLINEARITY_TOLERANCE


def classical_conditional(psi: PureState, observed_axis, condition_axis) -> float:
    """Classical conditional probability: mu[a and b] / mu[b] over the same state.

    Intersects the two 0/1 indicators drawn for the *original* state and
    normalizes by the condition's measure.  For non-commuting axes this does
    not reproduce the quantum conditional value (1 + n.m)/2; that failure is
    the point of comparing it.
    """
    observed = bell_value(psi, observed_axis)
    condition = bell_value(psi, condition_axis)
    return _classical_intersection(observed, condition)[1]


def _classical_intersection(
    observed: StepFunction, condition: StepFunction
) -> tuple[StepFunction, float]:
    """The intersection of two indicator maps and mu[intersection] / mu[condition]."""
    weight = condition.integrate()
    if weight <= ORTHOGONALITY_CUTOFF:
        raise UndefinedConditionalError(
            f"conditioning set has measure {weight!r}, at or below cutoff"
        )
    intersection = observed * condition
    return intersection, intersection.integrate() / weight


def _sum_conflict_maps(psi: PureState, n_axis, m_axis, weight: float):
    """Validated value maps of the projector mixture ``E = weight * P_n + (1 - weight) * P_m``.

    Returns ``(E, lhs, rhs, map_n, map_m)``: the value map of E, the same
    mixture of the projector maps, and the maps of P_n and P_m in ``psi``.
    Raises for a weight outside (0, 1) and for collinear axes.
    """
    weight = _real(weight, "mixture weight")
    if not 0.0 < weight < 1.0:
        raise ValidationError(f"mixture weight must lie strictly in (0, 1), got {weight!r}")
    n = unit_vector(n_axis, "first mixture axis")
    m = unit_vector(m_axis, "second mixture axis")
    if _collinear(n, m):
        raise WitnessUndefinedError("collinear axes degenerate the mixture conflict")
    mixture = weight * projector(n) + (1.0 - weight) * projector(m)
    lhs = bell_value_operator(psi, mixture)
    map_n = bell_value(psi, n)
    map_m = bell_value(psi, m)
    rhs = weight * map_n + (1.0 - weight) * map_m
    return mixture, lhs, rhs, map_n, map_m


def sum_conflict_witness(psi: PureState, n_axis, m_axis, weight: float) -> ConflictWitness:
    """Where the value map of a projector mixture differs from the mixture of maps.

    For ``E = weight * P_n + (1 - weight) * P_m`` with non-collinear axes, the
    left side takes only the eigenvalues of E (both strictly inside (0, 1)),
    while the right side takes {0, weight, 1 - weight, 1}; the witness
    necessarily contains every omega where both projector maps are 0 and every
    omega where both are 1, even though the two sides share the same integral.
    """
    _, lhs, rhs, _, _ = _sum_conflict_maps(psi, n_axis, m_axis, weight)
    return disagreement_witness(lhs, rhs)
