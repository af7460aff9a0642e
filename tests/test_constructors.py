"""The constructors of the checked value types keep the dataclass contract.

``PureState``, ``HermitianOp``, ``BranchNode`` and ``BranchHistory`` are
frozen dataclasses whose ``__init__`` checks its arguments.  Their fields,
``replace``, keyword construction, ``==``, ``hash``, ``repr`` and the
refusal of assignment are pinned here, and so is which check answers first
when an input has several faults.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from hvlab import (
    BranchHistory,
    BranchNode,
    HermitianOp,
    PureState,
    StepFunction,
    ValidationError,
    constant,
    indicator_from_sign,
)

from conftest import X, Y, Z

_LEVEL = indicator_from_sign(0.25, 1)


def _node():
    return BranchNode(X, "selected", _LEVEL)


def _history():
    return BranchHistory(PureState(Z), (_node(),))


_NODE_REPR = (
    "BranchNode(axis=(1.0, 0.0, 0.0), outcome='selected', "
    "level_function=StepFunction(breakpoints=(-0.25,), values=(0.0, 1.0)), normalizer=0.75)"
)

# class: (a value built positionally, its repr, each field as (name, init))
CASES = {
    "PureState": (
        lambda: PureState(Z),
        "PureState(bloch=(0.0, 0.0, 1.0))",
        [("bloch", True)],
    ),
    "HermitianOp": (
        lambda: HermitianOp(0.25, (0.5, -0.0, 1.5)),
        "HermitianOp(a=0.25, b=(0.5, -0.0, 1.5))",
        [("a", True), ("b", True)],
    ),
    "BranchNode": (
        _node,
        _NODE_REPR,
        [("axis", True), ("outcome", True), ("level_function", True), ("normalizer", False)],
    ),
    "BranchHistory": (
        _history,
        f"BranchHistory(initial_state=PureState(bloch=(0.0, 0.0, 1.0)), nodes=({_NODE_REPR},))",
        [("initial_state", True), ("nodes", True)],
    ),
}

# the parameters, so keyword construction: names, annotations and defaults
SIGNATURES = {
    "PureState": "(bloch: '_Axis')",
    "HermitianOp": "(a: 'float', b: 'tuple[float, float, float]')",
    "BranchNode": (
        "(axis: 'tuple[float, float, float]', outcome: 'str', level_function: 'StepFunction')"
    ),
    "BranchHistory": "(initial_state: 'PureState', nodes: 'tuple[BranchNode, ...]' = ())",
}


@pytest.mark.parametrize("name", CASES)
def test_fields_signature_repr_and_equality(name):
    build, text, fields = CASES[name]
    value = build()
    cls = type(value)
    assert [(f.name, f.init) for f in dataclasses.fields(cls)] == fields
    parameters = inspect.signature(cls).replace(return_annotation=inspect.Signature.empty)
    assert str(parameters) == SIGNATURES[name]
    assert repr(value) == text
    assert value == build() and value is not build()
    # the hash of the field values, in field order, as the dataclass defines it
    assert hash(value) == hash(tuple(getattr(value, f) for f, _ in fields))


def test_hash_of_float_only_values_is_pinned():
    # floats hash the same in every process, so these two are literal pins
    assert hash(PureState(Z)) == -7976055892424080169
    assert hash(HermitianOp(0.25, (0.5, -0.0, 1.5))) == -824246413842097314


@pytest.mark.parametrize("name", CASES)
def test_keyword_construction_and_replace(name):
    build, _, fields = CASES[name]
    value = build()
    keywords = {f: getattr(value, f) for f, init in fields if init}
    assert type(value)(**keywords) == value
    assert dataclasses.replace(value) == value
    assert dataclasses.replace(value, **keywords) == value


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned(name):
    value = CASES[name][0]()
    for f, _ in CASES[name][2]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{f}'$"):
            setattr(value, f, None)


def test_replace_checks_and_derives_again():
    node = _node()
    flipped = dataclasses.replace(node, outcome="complement")
    assert flipped.outcome == "complement" and flipped.normalizer == 0.75
    assert dataclasses.replace(node, level_function=constant(1.0)).normalizer == 1.0
    with pytest.raises(ValueError, match="^field normalizer is declared with init=False"):
        dataclasses.replace(node, normalizer=0.5)
    with pytest.raises(ValidationError, match="^outcome must be one of"):
        dataclasses.replace(node, outcome="maybe")
    history = dataclasses.replace(_history(), nodes=[node, flipped])
    assert type(history.nodes) is tuple and history.nodes == (node, flipped)
    assert dataclasses.replace(PureState(Z), bloch=[0.0, 0.6, 0.8]).bloch == (0.0, 0.6, 0.8)
    assert type(dataclasses.replace(HermitianOp(1, X), a=2).a) is float


def test_stored_fields_are_the_checked_values():
    state = PureState([0.0, 0.6, 0.8])
    assert type(state.bloch).__name__ == "_Axis" and state.bloch == (0.0, 0.6, 0.8)
    op = HermitianOp(np.int64(1), np.array([0.5, 0.0, 0.5]))
    assert type(op.a) is float and type(op.b).__name__ == "_Triple" and op.b == (0.5, 0.0, 0.5)
    node = BranchNode(np.array([0.0, 1.0, 0.0]), "complement", constant(0.25))
    assert type(node.axis).__name__ == "_Axis" and node.normalizer == 0.25
    history = BranchHistory(PureState(Z), [node])
    assert history.nodes == (node,)


_SEVERAL_FAULTS = {
    "state-nan-and-norm": (
        lambda: PureState([math.nan, 0.0, 5.0]),
        "state Bloch vector has non-finite components",
    ),
    "state-text": (
        lambda: PureState("abc"),
        "state Bloch vector must be a real 3-vector, got shape ()",
    ),
    "op-scalar-and-vector": (
        lambda: HermitianOp("x", None),
        "operator scalar part must be a finite real number, got 'x'",
    ),
    "op-nan-scalar-and-short-vector": (
        lambda: HermitianOp(math.nan, [1.0, 2.0]),
        "operator scalar part must be a finite real number, got nan",
    ),
    "op-vector": (
        lambda: HermitianOp(1.0, [1.0, math.inf, 0.0]),
        "operator vector part has non-finite components",
    ),
    "node-axis-outcome-level": (
        lambda: BranchNode([2.0, 0.0, 0.0], "maybe", None),
        "measurement axis must be a unit vector, got norm 2.0",
    ),
    "node-outcome-level": (
        lambda: BranchNode(X, "maybe", None),
        "outcome must be one of ('selected', 'complement'), got 'maybe'",
    ),
    "node-level": (
        lambda: BranchNode(Y, "selected", StepFunction),
        "level_function must be a StepFunction, got type",
    ),
    "history-state-and-nodes": (
        lambda: BranchHistory(None, 5),
        "initial_state must be a PureState, got NoneType",
    ),
    "history-nodes-not-iterable": (
        lambda: BranchHistory(PureState(Z), 5),
        "BranchHistory nodes must be iterable, got 5",
    ),
    "history-second-node": (
        lambda: BranchHistory(PureState(Z), (_node(), 1, "x")),
        "BranchHistory node must be a BranchNode, got int",
    ),
}


@pytest.mark.parametrize("probe", _SEVERAL_FAULTS)
def test_first_failing_check_answers(probe):
    build, message = _SEVERAL_FAULTS[probe]
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


def test_wrong_arity_is_a_type_error():
    with pytest.raises(TypeError, match=r"^BranchNode.__init__\(\) takes 4 positional arguments but 5 were given$"):
        BranchNode(X, "selected", constant(1.0), 0.25)
    with pytest.raises(TypeError, match=r"missing 2 required positional arguments: 'a' and 'b'$"):
        HermitianOp()
    with pytest.raises(TypeError, match="unexpected keyword argument 'foo'$"):
        PureState(bloch=Z, foo=1)
