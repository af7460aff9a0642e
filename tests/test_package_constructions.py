"""Step functions, branch nodes, histories and projectors the package builds skip the input rule, safely.

``StepFunction._from_canonical``, ``branching._node``, ``branching._history``
and ``qubit.projector`` store values the package has already checked.  Each
test here holds them to the checking constructors: the same object from the
same inputs, the errors that arithmetic can still raise, and no checking
constructor (nor a disagreement witness, nor a public wrapper of a core but
the ``bell_value`` that ``branch`` calls) on the sweep's hot loop, and no
checking step function, order integral or real-number rule on the trace
path.  The public wrappers are held to their cores the same way: equal
bits, or the same error, on every input.
"""

import math
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_pinned_numbers as pinned
from hvlab import (
    BranchHistory,
    BranchNode,
    HermitianOp,
    HvlabError,
    ORTHOGONALITY_CUTOFF,
    PureState,
    ReductionUndefinedError,
    StepFunction,
    ValidationError,
    bell_value,
    bell_value_operator,
    branch,
    chain_probability,
    conditional_expectation,
    constant,
    cosine_between,
    disagreement_witness,
    expectation,
    projector,
    repeated_measurement_check,
    route_operator_product,
    route_state_update,
    run_scenario,
    run_sweep,
    unit_vector,
)
import hvlab
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


# the public functions whose checks the sweep's cores skip, with their home modules
WRAPPERS = (
    (bell, "bell_value"),
    (bell, "route_state_update"),
    (bell, "route_operator_product"),
    (qubit, "conditional_expectation"),
    (qubit, "expectation"),
    (branching, "repeated_measurement_check"),
)


def count_checking_calls(monkeypatch) -> Counter:
    """Count each call of a checking constructor, the public ``integrate_in_order`` and
    ``disagreement_witness``, ``errors._reals``, the real-number rule for sequences,
    ``branch`` as the sweep calls it, and each of the ``WRAPPERS``."""
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
        ((scenarios,), "branch", branching.branch),
    ):
        for module in modules:
            monkeypatch.setattr(module, name, counted(name, function), raising=False)
    # each wrapper in every hvlab module that binds it, the package itself included
    for home, name in WRAPPERS:
        function = getattr(home, name)
        for module in list(sys.modules.values()):
            if module.__name__.split(".")[0] == "hvlab" and vars(module).get(name) is function:
                monkeypatch.setattr(module, name, counted(name, function))
    return calls


def test_sweep_calls_no_checking_constructor(monkeypatch):
    calls = count_checking_calls(monkeypatch)
    # the route phase tests canonical maps with != and builds no witness, and
    # every check runs the cores over the axes the sweep has checked; branch
    # calls bell_value by name, once a level, and no other wrapper is called
    run_sweep(0, 20)
    levels = calls.pop("branch")
    assert levels > 0 and calls == {"bell_value": levels}
    calls.clear()
    # the counters see public constructions and public calls
    level = StepFunction((), (1.0,))
    psi, x, y = PureState((0.0, 0.0, 1.0)), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    history = BranchHistory(psi, [BranchNode(x, "selected", level)])
    op = HermitianOp(0.5, (0.5, 0, 0))
    branching.integrate_in_order(history, [1])
    scenarios.disagreement_witness(level, level)
    # each wrapper once through the package's binding; none calls another
    hvlab.bell_value(psi, x)
    hvlab.route_state_update(x, y)
    hvlab.route_operator_product(psi, x, y)
    hvlab.conditional_expectation(psi, y, x)
    hvlab.expectation(psi, op)
    hvlab.repeated_measurement_check(psi, x)
    # _reals: the step function's breakpoints and values, and the operator's int vector
    public = ["StepFunction", "BranchNode", "BranchHistory", "HermitianOp"]
    public += ["integrate_in_order", "disagreement_witness", *(name for _, name in WRAPPERS)]
    assert calls == {**dict.fromkeys(public, 1), "_reals": 3}


def test_traces_call_no_checking_step_function_or_real_number_rule(monkeypatch, tmp_path):
    # loading each demo config and writing its traces, as the trace benchmark
    # does, builds every step function and order integral on the unchecked paths
    calls = count_checking_calls(monkeypatch)
    written = [emit_trace(load_config(path), tmp_path / path.stem) for path in DEMO_CONFIGS]
    assert sum(map(len, written)) > 0
    assert [calls[name] for name in ("StepFunction", "integrate_in_order", "_reals")] == [0, 0, 0]


# ---------------------------------------------------------------------------
# each public wrapper equals its core, and the checks and branch that call the cores
# ---------------------------------------------------------------------------


def _bits(value):
    # a step function or a float as exact text, so 0.0 and -0.0 differ
    if isinstance(value, StepFunction):
        return tuple(map(float.hex, value.breakpoints)), tuple(map(float.hex, value.values))
    return float.hex(value)


def _outcome(call):
    """The bits ``call()`` returns, or the type, message and index of the error it raises."""
    try:
        return _bits(call())
    except HvlabError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def _ways(s, n, m) -> dict:
    """Per wrapper: the wrapper, its core, the package's callers of the core and the chain-rule form.

    The chain-rule forms use public functions only: ``chain_probability`` for the
    conditioning step, ``cosine_between``, and ``bell_value`` in a ``PureState``.
    """
    psi, minus_n = PureState(s), unit_vector(tuple(-x for x in n))
    return {
        "bell_value": [
            lambda: bell_value(psi, m),
            lambda: bell._bell_value(s, m, qubit._cosine(s, m)),
            lambda: scenarios._measure_check(s, m)[3],
            lambda: branch(BranchHistory(psi), m)[0].nodes[-1].level_function,
        ],
        "bell_value in a complement's prepared state": [
            lambda: bell_value(PureState(minus_n), m),
            lambda: branch(branch(BranchHistory(psi), n)[1], m)[0].nodes[-1].level_function,
        ],
        "route_state_update": [
            lambda: route_state_update(n, m),
            lambda: bell._bell_value(n, m, qubit._cosine(n, m)),
            lambda: bell_value(PureState(n), m),
        ],
        "route_operator_product": [
            lambda: route_operator_product(psi, n, m),
            lambda: bell._routes(s, n, m)[1],
            lambda: scenarios._route_check(s, n, m)[4],
            lambda: bell_value(psi, n) * ((1.0 + cosine_between(n, m)) / (2.0 * chain_probability(psi, [n]))),
        ],
        "conditional_expectation": [
            lambda: conditional_expectation(psi, m, n),
            lambda: qubit._conditional_expectation(qubit._cosine(s, n), qubit._cosine(n, m)),
            lambda: scenarios._route_check(s, n, m)[1]["conditional_expectation"],
            lambda: chain_probability(psi, [n]) and 0.5 * (1.0 + cosine_between(n, m)),
        ],
        "expectation": [
            lambda: expectation(psi, projector(m)),
            lambda: qubit._expectation(s, projector(m)),
            lambda: scenarios._measure_check(s, m)[1]["expectation"],
        ],
        "repeated_measurement_check": [
            lambda: repeated_measurement_check(psi, n),
            lambda: branching._repeated_measurement_check(s, n),
            lambda: scenarios._idempotence_check(s, n)[0],
            lambda: chain_probability(psi, [n]) and bell_value(PureState(n), n),
        ],
    }


_UNIT = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: qubit._dot3(v, v) > 0.01)
    .map(lambda v: unit_vector(tuple(x / math.sqrt(qubit._dot3(v, v)) for x in v)))
)
_GEOMETRIES = {
    "drawn": lambda s, n, m: (s, n, m),
    "n = s": lambda s, n, m: (s, s, m),
    "m = n": lambda s, n, m: (s, n, n),
    "m = -n": lambda s, n, m: (s, n, unit_vector(tuple(-x for x in n))),
    "n = -s": lambda s, n, m: (s, unit_vector(tuple(-x for x in s)), m),
    "n = s = m": lambda s, n, m: (s, s, s),
}
Z3, X3, Y3 = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)


def _below_z(k):
    # the unit axis whose cosine with +z is -(1 - k * 2**-53): (1 + s.n)/2 is then exactly k * 2**-54
    z = 1.0 - k * 2.0**-53
    return (math.sqrt(1.0 - z * z), 0.0, -z)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(s=_UNIT, n=_UNIT, m=_UNIT, geometry=st.sampled_from(sorted(_GEOMETRIES)))
# exact ties s.m == 0.0 (and n.m, s.n), with either polarity
@example(s=Z3, n=X3, m=Y3, geometry="drawn")
@example(s=Z3, n=(-1.0, 0.0, 0.0), m=(0.0, -1.0, 0.0), geometry="drawn")
@example(s=(0.6, 0.8, 0.0), n=Z3, m=(0.8, -0.6, 0.0), geometry="drawn")
# identical and exactly opposite axes; n = -s conditions on an impossible outcome
@example(s=(0.6, 0.8, 0.0), n=Z3, m=Z3, geometry="n = s = m")
@example(s=Z3, n=Z3, m=(0.0, 0.0, -1.0), geometry="drawn")
@example(s=Z3, n=(0.0, 0.0, -1.0), m=X3, geometry="drawn")
# the conditioning step 18014 * 2**-54 is at or below ORTHOGONALITY_CUTOFF, 18015 * 2**-54 above it
@example(s=Z3, n=_below_z(18014), m=X3, geometry="drawn")
@example(s=Z3, n=_below_z(18015), m=X3, geometry="drawn")
def test_each_wrapper_equals_its_core_bit_for_bit(s, n, m, geometry):
    s, n, m = (unit_vector(v) for v in _GEOMETRIES[geometry](s, n, m))
    for wrapper, ways in _ways(s, n, m).items():
        outcomes = [_outcome(way) for way in ways]
        assert outcomes == [outcomes[0]] * len(ways), wrapper


def test_the_conditioning_step_at_the_cutoff_raises_one_error_everywhere():
    # the example at the cutoff raises the chain rule's error, with its message and index, on every way
    s, n = Z3, unit_vector(_below_z(18014))
    assert 0.5 * (1.0 + qubit._cosine(s, n)) == 18014 * 2.0**-54 <= ORTHOGONALITY_CUTOFF
    want = (ReductionUndefinedError, "chain hits an orthogonal projector at step 0", 0)
    for wrapper in ("route_operator_product", "conditional_expectation", "repeated_measurement_check"):
        assert {_outcome(way) for way in _ways(s, n, X3)[wrapper]} == {want}, wrapper
