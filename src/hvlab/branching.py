"""Measurement histories on growing product hidden-variable spaces.

Each projective measurement opens a fresh copy of the interval: a history of
k measurements lives on Lambda^k as a factored product of per-level 0/1 step
functions, one :class:`BranchNode` per level (the measured unit axis, the
outcome followed, the level function and its normalizer).  Selecting an
outcome prepares the state on the measured axis (the complement prepares the
opposite axis), and dividing by the per-level normalization factors realizes
state reduction inside the dispersion-free formalism.  The quantum side is
the chain rule :func:`hvlab.qubit.chain_probability` over those signed axes.
Because the joint function stays factored, iterated integration is exact and
independent of the order of levels; integrating the levels in different
orders recovers the two single-level conditional-measurement representations
as intermediate marginals.

Normalization convention: the joint function divides by every level's
normalizer *except the last*, so its total integral is the conditional
probability of the final outcome given the history.  ``normalize_all_levels``
switches to dividing by every level (total integral 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _outcome_product
from math import prod
from typing import Sequence

from .bell import _bell_value, bell_value
from .errors import ReductionUndefinedError, ValidationError, ZeroProbabilityError, _integer, _require
from .qubit import ORTHOGONALITY_CUTOFF, PureState, _Axis, _chain_step, _cosine, _set
from .qubit import chain_probability, unit_vector
from .stepfn import ProductFunction, StepFunction

_SELECTED = "selected"
_COMPLEMENT = "complement"
_OUTCOMES = (_SELECTED, _COMPLEMENT)

__all__ = [
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


def _check_outcome(outcome: str) -> None:
    if not isinstance(outcome, str) or outcome not in _OUTCOMES:
        raise ValidationError(f"outcome must be one of {_OUTCOMES}, got {outcome!r}")


@dataclass(frozen=True, init=False)
class BranchNode:
    """One level of a measurement history.

    ``axis`` is the measured unit axis and ``outcome`` the branch followed:
    ``"selected"`` (B) or ``"complement"``.  ``level_function`` is the 0/1
    indicator on this level's copy of the interval and ``normalizer`` its
    exact measure, taken from ``level_function.integrate()`` when the node is
    built, so the two always agree.  A node's level is its 1-based position
    in :attr:`BranchHistory.nodes`.  Zero-probability branches are flagged
    rather than raised so that outcome trees stay complete.
    """

    axis: tuple[float, float, float]
    outcome: str
    level_function: StepFunction
    normalizer: float = field(init=False)

    def __init__(self, axis: tuple[float, float, float], outcome: str, level_function: StepFunction) -> None:
        _set(self, "axis", unit_vector(axis, "measurement axis"))
        _check_outcome(outcome)
        _set(self, "outcome", outcome)
        _set(self, "level_function", _require(level_function, StepFunction, "level_function"))
        _set(self, "normalizer", level_function.integrate())

    @property
    def prepared_state(self) -> PureState:
        """The state handed to the next measurement: +axis if selected, -axis if not."""
        axis = self.axis
        return PureState(axis if self.outcome == _SELECTED else (-axis[0], -axis[1], -axis[2]))

    @property
    def zero_probability(self) -> bool:
        return self.normalizer <= ORTHOGONALITY_CUTOFF


@dataclass(frozen=True, init=False)
class BranchHistory:
    """An initial state plus an ordered tuple of branch nodes (immutable)."""

    initial_state: PureState
    nodes: tuple[BranchNode, ...] = ()

    def __init__(self, initial_state: PureState, nodes: tuple[BranchNode, ...] = ()) -> None:
        _set(self, "initial_state", _require(initial_state, PureState, "initial_state"))
        try:
            checked = tuple(nodes)
        except TypeError as exc:  # nodes is not iterable
            raise ValidationError(f"BranchHistory nodes must be iterable, got {nodes!r}") from exc
        for node in checked:
            _require(node, BranchNode, "BranchHistory node")
        _set(self, "nodes", checked)

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
        # a plain loop: the sweep reads this once per branch step, and any() over
        # a generator of node properties costs several times as much
        for node in self.nodes:
            if node.normalizer <= ORTHOGONALITY_CUTOFF:
                return True
        return False


def branch(history: BranchHistory, axis) -> tuple[BranchHistory, BranchHistory]:
    """Split a history on a new measurement axis.

    Returns the (selected, complement) extensions.  The selected branch's
    level function is the dispersion-free indicator of the projector in the
    current prepared state; the complement branch carries ``1 - indicator``.
    A branch whose outcome has (almost) zero probability is returned flagged,
    not raised, because sibling branches must still sum to probability 1.
    """
    u = unit_vector(axis, "measurement axis")
    _require(history, BranchHistory, "history")
    state, initial, nodes = history.current_state, history.initial_state, history.nodes
    selected = bell_value(state, u)
    # selected is a 0/1 indicator: each 1 - v is exact and neighbours stay different
    complement = StepFunction._from_canonical(selected.breakpoints, tuple([1.0 - v for v in selected.values]))
    return (
        _history(initial, nodes + (_node(u, _SELECTED, selected),)),
        _history(initial, nodes + (_node(u, _COMPLEMENT, complement),)),
    )


# branch's own constructions.  Their inputs are already checked: the axis by
# unit_vector, the outcome is one of the module's two, the level function a
# StepFunction branch just built, and the nodes those of a checked history
# plus one more node.  So they store them as the checking __init__s would,
# without the checks.


def _node(axis: _Axis, outcome: str, level_function: StepFunction) -> BranchNode:
    node = object.__new__(BranchNode)
    _set(node, "axis", axis)
    _set(node, "outcome", outcome)
    _set(node, "level_function", level_function)
    _set(node, "normalizer", level_function.integrate())
    return node


def _history(initial_state: PureState, nodes: tuple[BranchNode, ...]) -> BranchHistory:
    history = object.__new__(BranchHistory)
    _set(history, "initial_state", initial_state)
    _set(history, "nodes", nodes)
    return history


def _prefactor(nodes: tuple[BranchNode, ...], normalize_all_levels: bool) -> float:
    # the joint function's prefactor: 1 over each normalized level's normalizer
    if not nodes:
        raise ValidationError("empty history has no joint function")
    normalized = nodes if _require(normalize_all_levels, bool, "normalize_all_levels") else nodes[:-1]
    prefactor = 1.0
    for level, node in enumerate(normalized, start=1):
        if node.normalizer <= ORTHOGONALITY_CUTOFF:
            raise ZeroProbabilityError(
                f"level {level} has normalizer {node.normalizer!r}; "
                "cannot divide by a zero-probability branch"
            )
        prefactor /= node.normalizer
    return prefactor


def joint_function(history: BranchHistory, normalize_all_levels: bool = False) -> ProductFunction:
    """Factored joint function of a history over Lambda^depth.

    One factor per level; the prefactor divides by each level's normalizer
    except the last (or every level with ``normalize_all_levels``), so the
    total integral is the conditional probability of the final outcome given
    the earlier ones (or exactly 1).
    """
    nodes = _require(history, BranchHistory, "history").nodes
    prefactor = _prefactor(nodes, normalize_all_levels)
    return ProductFunction(tuple(node.level_function for node in nodes), prefactor)


def integrate_in_order(
    history: BranchHistory,
    order: Sequence[int],
    normalize_all_levels: bool = False,
) -> float:
    """Iteratively integrate the joint function, one level at a time.

    ``order`` is a permutation of the 1-based levels, given as integers.
    Integrating out a level multiplies the running prefactor by that level's
    exact integral, which is the node's ``normalizer`` (taken from
    ``level_function.integrate()`` when the node was built), as
    :meth:`ProductFunction.integrate_level` does; the joint function stays
    factored, so every order yields the same number, and the intermediate
    single-level marginals are the two conditional-measurement routes (up to
    the normalization prefactors).  The product is ``_in_order``'s, which the
    scenarios' order check runs on each order from one prefactor.
    """
    nodes = _require(history, BranchHistory, "history").nodes
    k = len(nodes)
    try:
        levels = [_integer(level, "order level", 1) for level in order]
    except (TypeError, ValidationError):  # order is not iterable, or a level not an integer
        levels = None
    if levels is None or sorted(levels) != list(range(1, k + 1)):
        raise ValidationError(f"order {order!r} is not a permutation of 1..{k}")
    return _in_order(_prefactor(nodes, normalize_all_levels), [nodes[level - 1] for level in levels])


def _in_order(prefactor: float, nodes: Sequence[BranchNode]) -> float:
    # the prefactor times each node's normalizer, in the nodes' order
    for node in nodes:
        prefactor *= node.normalizer
    return prefactor


def repeated_measurement_check(psi: PureState, axis) -> StepFunction:
    """Measure the same projector twice; return the second level's value map.

    After the first selected branch prepares the state on ``axis``, the
    second measurement of the same axis has the constant-1 level function:
    repeating a measurement no longer changes anything.  The first outcome
    must have positive probability; the prepared state is then +axis, so the
    second level's map is ``bell_value`` of the axis in that state, the map
    :func:`branch` would give the second selected node.  No branch is built:
    the first level's maps and both complements would be thrown away.
    """
    u = unit_vector(axis, "measurement axis")
    return _repeated_measurement_check(_require(psi, PureState, "psi").bloch, u)


def _repeated_measurement_check(s: _Axis, u: _Axis) -> StepFunction:
    # repeated_measurement_check's core: chain step 0 must be possible to prepare +u
    _chain_step(_cosine(s, u), 0)
    return _bell_value(u, u, _cosine(u, u))


def sequence_probability(initial: PureState, axes: Sequence, pattern: Sequence[str]) -> float:
    """Probability of one full outcome pattern along a measurement sequence.

    The quantum chain rule over +axis for each ``"selected"`` outcome and
    -axis for each ``"complement"`` outcome, so the per-step weights are
    (1 + s.n)/2 and (1 - s.n)/2 while the prepared state walks the signed
    axes.  A zero-probability step gives 0.0 rather than raising.
    """
    try:
        mismatch = len(axes) != len(pattern)
    except TypeError as exc:
        raise ValidationError(
            f"axes and pattern must be sequences, got {type(axes).__name__} and {type(pattern).__name__}"
        ) from exc
    if mismatch:
        raise ValidationError(f"{len(axes)} axes but {len(pattern)} outcomes")
    signed = []
    for k, (axis, outcome) in enumerate(zip(axes, pattern)):
        _check_outcome(outcome)
        u = unit_vector(axis, f"axes[{k}]")
        signed.append(u if outcome == _SELECTED else (-u[0], -u[1], -u[2]))
    try:
        return chain_probability(initial, signed)
    except ReductionUndefinedError:
        return 0.0


def outcome_probabilities(initial: PureState, axes: Sequence) -> dict[tuple[str, ...], float]:
    """Probabilities of all 2^k outcome patterns for a fixed axis sequence.

    Each entry is :func:`sequence_probability` of its pattern: the chain rule
    over the signed axes, 0.0 where a step has zero probability.  Each axis
    and its negation are checked once, not once per pattern.
    """
    try:
        units = [unit_vector(a, "measurement axis") for a in axes]
    except TypeError as exc:  # axes is not iterable
        raise ValidationError(f"axes must be a sequence of unit 3-vectors, got {axes!r}") from exc
    signed = [
        {_SELECTED: u, _COMPLEMENT: unit_vector((-u[0], -u[1], -u[2]), "measurement axis")} for u in units
    ]
    table = {}
    for pattern in _outcome_product(_OUTCOMES, repeat=len(units)):
        try:
            table[pattern] = chain_probability(initial, [s[o] for s, o in zip(signed, pattern)])
        except ReductionUndefinedError:
            table[pattern] = 0.0
    return table


def branch_records(history: BranchHistory) -> list[dict]:
    """JSON-shaped dump of a history, one record per level."""
    return [
        {
            "level": level,
            "axis": list(node.axis),
            "outcome": node.outcome,
            "normalizer": node.normalizer,
            "breakpoints": list(node.level_function.breakpoints),
            "values": list(node.level_function.values),
            "prepared_bloch": list(node.prepared_state.bloch),
            "zero_probability": node.zero_probability,
        }
        for level, node in enumerate(_require(history, BranchHistory, "history").nodes, start=1)
    ]
