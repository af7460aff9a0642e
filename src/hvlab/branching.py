"""Measurement histories on growing product hidden-variable spaces.

Each projective measurement opens a fresh copy of the interval: a history of
k measurements lives on Lambda^k as a factored product of per-level 0/1 step
functions.  Selecting an outcome prepares the state on the measured axis (the
complement prepares the opposite axis), and dividing by the per-level
normalization factors realizes state reduction inside the dispersion-free
formalism.  Because the joint function stays factored, iterated integration
is exact and independent of the order of levels; integrating the levels in
different orders recovers the two single-level conditional-measurement
representations as intermediate marginals.

Normalization convention: the joint function divides by every level's
normalizer *except the last*, so its total integral is the conditional
probability of the final outcome given the history.  ``normalize_all_levels``
switches to dividing by every level (total integral 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product as _outcome_product
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .bell import bell_value
from .errors import ReductionUndefinedError, ValidationError, ZeroProbabilityError
from .qubit import (
    ORTHOGONALITY_CUTOFF,
    PureState,
    chain_probability,
    cosine_between,
    projector,
    unit_vector,
)
from .stepfn import ProductFunction, StepFunction, complement

SELECTED = "selected"
COMPLEMENT = "complement"
_OUTCOMES = (SELECTED, COMPLEMENT)

__all__ = [
    "SELECTED",
    "COMPLEMENT",
    "MeasurementStep",
    "BranchNode",
    "BranchHistory",
    "branch",
    "joint_function",
    "integrate_in_order",
    "repeated_measurement_check",
    "sequence_probability",
    "outcome_probabilities",
    "branch_records",
]


@dataclass(frozen=True)
class MeasurementStep:
    """A projector axis plus which branch (B or its complement) is followed."""

    axis: np.ndarray
    outcome: str

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_vector(self.axis, "measurement axis"))
        if self.outcome not in _OUTCOMES:
            raise ValidationError(f"outcome must be one of {_OUTCOMES}, got {self.outcome!r}")


@dataclass(frozen=True)
class BranchNode:
    """One level of a measurement history.

    ``level_function`` is the 0/1 indicator on this level's copy of the
    interval, ``normalizer`` its exact measure, and ``prepared_state`` the
    state the branch hands to the next measurement (+axis for the selected
    branch, -axis for the complement).  Zero-probability branches are flagged
    rather than raised so that outcome trees stay complete.
    """

    level: int
    step: MeasurementStep
    level_function: StepFunction
    normalizer: float
    prepared_state: PureState
    zero_probability: bool


@dataclass(frozen=True)
class BranchHistory:
    """An initial state plus an ordered tuple of branch nodes (immutable)."""

    initial_state: PureState
    nodes: tuple[BranchNode, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def depth(self) -> int:
        return len(self.nodes)

    @property
    def current_state(self) -> PureState:
        return self.nodes[-1].prepared_state if self.nodes else self.initial_state

    @property
    def probability(self) -> float:
        return prod(node.normalizer for node in self.nodes)

    @property
    def zero_probability(self) -> bool:
        return any(node.zero_probability for node in self.nodes)


def branch(history: BranchHistory, axis) -> tuple[BranchHistory, BranchHistory]:
    """Split a history on a new measurement axis.

    Returns the (selected, complement) extensions.  The selected branch's
    level function is the dispersion-free indicator of the projector in the
    current prepared state; the complement branch carries ``1 - indicator``.
    A branch whose outcome has (almost) zero probability is returned flagged,
    not raised, because sibling branches must still sum to probability 1.
    """
    u = unit_vector(axis, "measurement axis")
    current = history.current_state
    selected_fn = bell_value(current, u)
    complement_fn = complement(selected_fn)
    level = history.depth + 1
    branches = []
    for outcome, fn, bloch in (
        (SELECTED, selected_fn, u),
        (COMPLEMENT, complement_fn, np.negative(u)),
    ):
        normalizer = fn.integrate()
        node = BranchNode(
            level=level,
            step=MeasurementStep(u, outcome),
            level_function=fn,
            normalizer=normalizer,
            prepared_state=PureState(bloch),
            zero_probability=normalizer <= ORTHOGONALITY_CUTOFF,
        )
        branches.append(replace(history, nodes=history.nodes + (node,)))
    return branches[0], branches[1]


def joint_function(history: BranchHistory, normalize_all_levels: bool = False) -> ProductFunction:
    """Factored joint function of a history over Lambda^depth.

    One factor per level; the prefactor divides by each level's normalizer
    except the last (or every level with ``normalize_all_levels``), so the
    total integral is the conditional probability of the final outcome given
    the earlier ones (or exactly 1).
    """
    if not history.nodes:
        raise ValidationError("empty history has no joint function")
    normalized = history.nodes if normalize_all_levels else history.nodes[:-1]
    prefactor = 1.0
    for node in normalized:
        if node.normalizer <= ORTHOGONALITY_CUTOFF:
            raise ZeroProbabilityError(
                f"level {node.level} has normalizer {node.normalizer!r}; "
                "cannot divide by a zero-probability branch"
            )
        prefactor /= node.normalizer
    return ProductFunction(tuple(node.level_function for node in history.nodes), prefactor)


def integrate_in_order(
    history: BranchHistory,
    order: Sequence[int],
    normalize_all_levels: bool = False,
) -> float:
    """Iteratively integrate the joint function, one level at a time.

    ``order`` is a permutation of the 1-based levels.  The running product
    stays factored, so every order yields the same number; the intermediate
    single-level marginals are the two conditional-measurement routes (up to
    the normalization prefactors).
    """
    k = history.depth
    if sorted(order) != list(range(1, k + 1)):
        raise ValidationError(f"order {order!r} is not a permutation of 1..{k}")
    current = joint_function(history, normalize_all_levels=normalize_all_levels)
    remaining = list(range(1, k + 1))
    for level in order:
        index = remaining.index(level)
        current = current.integrate_level(index)
        remaining.pop(index)
    return current.prefactor


def _require_reducible(psi: PureState, u: np.ndarray) -> None:
    # the selected outcome of measuring u must have positive probability in psi
    if 0.5 * (1.0 + cosine_between(psi.bloch, u)) <= ORTHOGONALITY_CUTOFF:
        raise ReductionUndefinedError("state is orthogonal to the measured projector")


def repeated_measurement_check(psi: PureState, axis) -> StepFunction:
    """Measure the same projector twice; return the second level's value map.

    After the first selected branch prepares the state on ``axis``, the
    second measurement of the same axis has the constant-1 level function:
    repeating a measurement no longer changes anything.
    """
    u = unit_vector(axis, "measurement axis")
    _require_reducible(psi, u)
    first, _ = branch(BranchHistory(psi), u)
    second, _ = branch(first, u)
    return second.nodes[1].level_function


def sequence_probability(initial: PureState, steps: Iterable[MeasurementStep]) -> float:
    """Probability of one full outcome pattern along a measurement sequence.

    The quantum chain rule over the projectors on +axis (selected steps) or
    -axis (complement steps), so the per-step weights are (1 + s.n)/2 and
    (1 - s.n)/2 while the prepared state walks the axes.  A zero-probability
    step gives 0.0 rather than raising.
    """
    sequence = [
        projector(step.axis if step.outcome == SELECTED else np.negative(step.axis))
        for step in steps
    ]
    try:
        return chain_probability(initial, sequence)
    except ReductionUndefinedError:
        return 0.0


def outcome_probabilities(initial: PureState, axes: Sequence) -> dict[tuple[str, ...], float]:
    """Probabilities of all 2^k outcome patterns for a fixed axis sequence."""
    units = [unit_vector(a, "measurement axis") for a in axes]
    steps = {outcome: [MeasurementStep(u, outcome) for u in units] for outcome in _OUTCOMES}
    table: dict[tuple[str, ...], float] = {}
    for pattern in _outcome_product(_OUTCOMES, repeat=len(units)):
        table[pattern] = sequence_probability(
            initial, [steps[outcome][k] for k, outcome in enumerate(pattern)]
        )
    return table


def branch_records(history: BranchHistory) -> list[dict]:
    """JSON-shaped dump of a history, one record per level."""
    return [
        {
            "level": node.level,
            "axis": node.step.axis.tolist(),
            "outcome": node.step.outcome,
            "normalizer": node.normalizer,
            "breakpoints": list(node.level_function.breakpoints),
            "values": list(node.level_function.values),
            "prepared_bloch": node.prepared_state.bloch.tolist(),
            "zero_probability": node.zero_probability,
        }
        for node in history.nodes
    ]
