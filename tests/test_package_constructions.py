"""Step functions, branch nodes, histories and projectors the package builds skip the input rule, safely.

``StepFunction._from_canonical``, ``branching._node``, ``branching._history``
and ``qubit.projector`` store values the package has already checked.  Each
test here holds them to the checking constructors: the same object from the
same inputs, the errors that arithmetic can still raise, and no checking
constructor (nor a disagreement witness) on the sweep's hot loop, and no
checking step function, order integral or real-number rule on the trace path.
"""

import math
import sys
from collections import Counter

import pytest

import test_pinned_numbers as pinned
from hvlab import (
    BranchHistory,
    BranchNode,
    HermitianOp,
    PureState,
    StepFunction,
    ValidationError,
    bell_value_operator,
    constant,
    disagreement_witness,
    run_scenario,
    run_sweep,
    unit_vector,
)
from hvlab import bell, branching, errors, qubit, scenarios, stepfn
from hvlab.scenarios import emit_trace, load_config

from test_scenarios import DEMO_CONFIGS


def _exact_floats(items) -> bool:
    return type(items) is tuple and all(type(x) is float for x in items)


@pytest.fixture
def routed(monkeypatch):
    """Build every unchecked object also through its public constructor, and count the two agreeing."""
    agreed = Counter()
    from_canonical, node, history = StepFunction._from_canonical, branching._node, branching._history
    projector = qubit.projector

    def checked_step_function(breakpoints, values):
        built = from_canonical(breakpoints, values)
        assert _exact_floats(built.breakpoints) and _exact_floats(built.values)
        assert built == StepFunction(breakpoints, values)
        agreed["StepFunction"] += 1
        return built

    def checked_node(axis, outcome, level_function):
        built = node(axis, outcome, level_function)
        public = BranchNode(axis, outcome, level_function)
        assert built == public and type(built.axis) is type(public.axis)
        agreed["BranchNode"] += 1
        return built

    def checked_history(initial_state, nodes):
        built = history(initial_state, nodes)
        assert built == BranchHistory(initial_state, nodes) and type(built.nodes) is tuple
        agreed["BranchHistory"] += 1
        return built

    def checked_projector(m):
        built = projector(m)
        public = HermitianOp(0.5, [x * 0.5 for x in unit_vector(m, "projector axis")])
        assert built == public and type(built.a) is float and type(built.b) is type(public.b)
        agreed["HermitianOp"] += 1
        return built

    monkeypatch.setattr(StepFunction, "_from_canonical", staticmethod(checked_step_function))
    monkeypatch.setattr(branching, "_node", checked_node)
    monkeypatch.setattr(branching, "_history", checked_history)
    # the modules that import projector by name call it through their own binding
    for module in list(sys.modules.values()):
        if module.__name__.startswith("hvlab") and getattr(module, "projector", None) is projector:
            monkeypatch.setattr(module, "projector", checked_projector)
    return agreed


ROUTED = ("StepFunction", "BranchNode", "BranchHistory", "HermitianOp")


def test_demo_configs_build_what_the_public_constructors_build(routed):
    assert len(DEMO_CONFIGS) == 9
    for path in DEMO_CONFIGS:
        run_scenario(load_config(path))
    assert min(routed[name] for name in ROUTED) > 0


def test_pinned_inputs_build_what_the_public_constructors_build(routed):
    # the pinned digests hold too, so the routed run changed no output; the
    # sweep summaries are those of seeds 0, 3 and 7
    pinned.test_outcome_probabilities_pinned()
    pinned.test_branch_records_pinned()
    pinned.test_sweep_summaries_pinned()
    pinned.test_thousand_trial_sweep_summaries_pinned()
    assert min(routed[name] for name in ROUTED) > 0


_HUGE = StepFunction((0.0,), (1e308, 1.0))

OVERFLOWS = {
    "f * g": lambda: _HUGE * _HUGE,
    "f + f": lambda: _HUGE + _HUGE,
    "f * 10.0": lambda: _HUGE * 10.0,
    "f - (-f)": lambda: _HUGE - (-_HUGE),
    "bell_value_operator": lambda: bell_value_operator(
        PureState((0.0, 0.0, 1.0)), HermitianOp(1.7e308, (1e308, 0.0, 0.0))
    ),
}


@pytest.mark.parametrize("case", OVERFLOWS)
def test_overflowing_arithmetic_still_raises(case):
    with pytest.raises(ValidationError, match=r"^non-finite segment value inf$"):
        OVERFLOWS[case]()


def test_package_built_maps_stay_canonical():
    # a + |b| and a - |b| round to the same float: the map merges to a constant
    op = HermitianOp(1e20, (0.0, 0.6, 0.8))
    assert bell_value_operator(PureState((0.0, 0.0, 1.0)), op) == constant(1e20)
    # the two disagreeing cells on either side of 0.1 merge into one
    region = disagreement_witness(
        StepFunction((-0.2, 0.1), (0.0, 1.0, 0.0)), StepFunction((0.1,), (0.0, 2.0))
    ).omega_region
    assert region.breakpoints == (-0.2,) and region.values == (0.0, 1.0)
    assert math.isclose(region.integrate(), 0.7)


def count_checking_calls(monkeypatch) -> Counter:
    """Count each call of a checking constructor, the public ``integrate_in_order`` and
    ``disagreement_witness``, and ``errors._reals``, the real-number rule for sequences."""
    calls = Counter()
    for cls in (StepFunction, BranchNode, BranchHistory, HermitianOp):

        def counted_init(self, *args, _init=cls.__init__, _name=cls.__name__):
            calls[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    # each function in every module that may call it through a name of its own
    for modules, name, function in (
        ((branching, scenarios), "integrate_in_order", branching.integrate_in_order),
        ((bell, scenarios), "disagreement_witness", bell.disagreement_witness),
        ((errors, stepfn, qubit), "_reals", errors._reals),
    ):
        for module in modules:
            monkeypatch.setattr(module, name, counted(name, function), raising=False)
    return calls


def test_sweep_calls_no_checking_constructor(monkeypatch):
    calls = count_checking_calls(monkeypatch)
    # the route phase tests canonical maps with != and builds no witness
    run_sweep(0, 20)
    assert calls == {}
    # the counters see public constructions and public calls
    level = StepFunction((), (1.0,))
    history = BranchHistory(PureState((0.0, 0.0, 1.0)), [BranchNode((1.0, 0.0, 0.0), "selected", level)])
    HermitianOp(0.5, (0.5, 0, 0))
    branching.integrate_in_order(history, [1])
    scenarios.disagreement_witness(level, level)
    # _reals: the step function's breakpoints and values, and the operator's int vector
    public = ["StepFunction", "BranchNode", "BranchHistory", "HermitianOp"]
    public += ["integrate_in_order", "disagreement_witness"]
    assert calls == {**dict.fromkeys(public, 1), "_reals": 3}


def test_traces_call_no_checking_step_function_or_real_number_rule(monkeypatch, tmp_path):
    # loading each demo config and writing its traces, as the trace benchmark
    # does, builds every step function and order integral on the unchecked paths
    calls = count_checking_calls(monkeypatch)
    written = [emit_trace(load_config(path), tmp_path / path.stem) for path in DEMO_CONFIGS]
    assert sum(map(len, written)) > 0
    assert [calls[name] for name in ("StepFunction", "integrate_in_order", "_reals")] == [0, 0, 0]
