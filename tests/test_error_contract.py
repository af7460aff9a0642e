"""Every public callable refuses a wrong argument with a typed error.

``VALID`` holds, for each callable in ``hvlab.__all__``, arguments that make
the call succeed.  Each required parameter is then given ``None`` and then
``np.zeros(3)``, the other arguments kept valid, and the call must raise an
:class:`HvlabError`, never a bare Python error.
"""

import inspect
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import hvlab
from hvlab import (
    BranchHistory,
    ConfigError,
    HermitianOp,
    HvlabError,
    ProductFunction,
    PureState,
    ScenarioConfig,
    StepFunction,
    ValidationError,
    branch,
    constant,
    indicator_from_sign,
    load_config,
    projector,
    sum_conflict_witness,
    unit_vector,
)
from hvlab.cli import main

from conftest import X, Y, Z

# the exception classes take any message; the two result records are built
# by the package, not from user input
EXEMPT = {
    "HvlabError",
    "ValidationError",
    "ConfigError",
    "ReductionUndefinedError",
    "UndefinedConditionalError",
    "WitnessUndefinedError",
    "ZeroProbabilityError",
    "ScenarioError",
    "ConflictWitness",
    "ScenarioReport",
}

ROUTE_CFG = """\
scenario = route_agreement
state = 0 0 1
n = 1 0 0
m = 0 1 0
"""


def _route_config_file(tmp_path):
    path = tmp_path / "route.cfg"
    path.write_text(ROUTE_CFG, encoding="utf-8")
    return path


def _history():
    return branch(BranchHistory(PureState(Z)), X)[0]


# arguments that make each call succeed, built afresh for every call
VALID = {
    "StepFunction": lambda tmp: dict(breakpoints=(0.0,), values=(0.0, 1.0)),
    "ProductFunction": lambda tmp: dict(factors=(constant(1.0),)),
    "constant": lambda tmp: dict(value=1.0),
    "indicator_from_sign": lambda tmp: dict(threshold=0.25, polarity=1),
    "unit_vector": lambda tmp: dict(v=X),
    "cosine_between": lambda tmp: dict(u=X, v=Y),
    "HermitianOp": lambda tmp: dict(a=0.5, b=0.5 * X),
    "PureState": lambda tmp: dict(bloch=Z),
    "projector": lambda tmp: dict(m=X),
    "expectation": lambda tmp: dict(psi=PureState(Z), op=projector(X)),
    "sandwich": lambda tmp: dict(outer_axis=X, inner_axis=Y),
    "conditional_expectation": lambda tmp: dict(psi=PureState(Z), observed_axis=X, condition_axis=Y),
    "chain_probability": lambda tmp: dict(psi=PureState(Z), axes=[X]),
    "bell_value": lambda tmp: dict(psi=PureState(Z), m=X),
    "bell_value_operator": lambda tmp: dict(psi=PureState(Z), op=projector(X)),
    "route_state_update": lambda tmp: dict(condition_axis=X, observed_axis=Y),
    "route_operator_product": lambda tmp: dict(psi=PureState(Z), condition_axis=X, observed_axis=Y),
    "nonuniqueness_witness": lambda tmp: dict(psi=PureState(Z), condition_axis=X, observed_axis=Y),
    "classical_conditional": lambda tmp: dict(psi=PureState(Z), observed_axis=X, condition_axis=Y),
    "sum_conflict_witness": lambda tmp: dict(psi=PureState(Z), n_axis=X, m_axis=Y, weight=0.5),
    "disagreement_witness": lambda tmp: dict(lhs=indicator_from_sign(0.25, 1), rhs=constant(1.0)),
    "BranchNode": lambda tmp: dict(axis=X, outcome="selected", level_function=constant(1.0)),
    "BranchHistory": lambda tmp: dict(initial_state=PureState(Z)),
    "branch": lambda tmp: dict(history=BranchHistory(PureState(Z)), axis=X),
    "joint_function": lambda tmp: dict(history=_history()),
    "integrate_in_order": lambda tmp: dict(history=_history(), order=[1]),
    "repeated_measurement_check": lambda tmp: dict(psi=PureState(Z), axis=X),
    "sequence_probability": lambda tmp: dict(initial=PureState(Z), axes=[X], pattern=["selected"]),
    "outcome_probabilities": lambda tmp: dict(initial=PureState(Z), axes=[X]),
    "branch_records": lambda tmp: dict(history=_history()),
    "ScenarioConfig": lambda tmp: dict(scenario="sweep"),
    "load_config": lambda tmp: dict(path=_route_config_file(tmp)),
    "run_scenario": lambda tmp: dict(config=load_config(_route_config_file(tmp))),
    "run_sweep": lambda tmp: dict(seed=0, trials=2),
    "emit_trace": lambda tmp: dict(config=load_config(_route_config_file(tmp)), out_dir=tmp / "traces"),
}

BAD = {"none": lambda: None, "zeros": lambda: np.zeros(3)}

# the zero vector is a valid operator vector part: 0.5 * identity
ACCEPTED = {("HermitianOp", "b", "zeros")}


def _required(name):
    parameters = inspect.signature(getattr(hvlab, name)).parameters.values()
    return [p.name for p in parameters if p.default is inspect.Parameter.empty]


CASES = [
    (name, param, bad)
    for name in VALID
    for param in _required(name)
    for bad in BAD
    if (name, param, bad) not in ACCEPTED
]


def test_table_covers_every_public_callable_exactly(tmp_path):
    assert EXEMPT <= set(hvlab.__all__)
    callables = {name for name in hvlab.__all__ if callable(getattr(hvlab, name))}
    assert set(VALID) == callables - EXEMPT
    for name, arguments in VALID.items():
        assert list(arguments(tmp_path)) == _required(name), name


@pytest.mark.parametrize("name", VALID)
def test_valid_arguments_are_accepted(name, tmp_path):
    getattr(hvlab, name)(**VALID[name](tmp_path))


@pytest.mark.parametrize("name, param, bad", CASES, ids=[f"{n}-{p}-{b}" for n, p, b in CASES])
def test_wrong_argument_raises_hvlab_error(name, param, bad, tmp_path):
    arguments = {**VALID[name](tmp_path), param: BAD[bad]()}
    with pytest.raises(HvlabError):
        getattr(hvlab, name)(**arguments)


def test_accepted_cases_are_valid(tmp_path):
    for name, param, bad in ACCEPTED:
        getattr(hvlab, name)(**{**VALID[name](tmp_path), param: BAD[bad]()})


# a scalar that float() takes (a string, a bool, or a numpy complex, whose
# imaginary part it drops with only a ComplexWarning), or a float for an integer
SCALAR_PROBES = {
    "weight-str": lambda: sum_conflict_witness(PureState(Z), X, Y, "0.5"),
    "weight-complex": lambda: sum_conflict_witness(PureState(Z), X, Y, np.complex128(0.5 + 1j)),
    "threshold-str": lambda: indicator_from_sign("0.25", 1),
    "scalar-part-str": lambda: HermitianOp("0.5", X),
    "scalar-part-bool": lambda: HermitianOp(True, X),
    "constant-str": lambda: constant("1.0"),
    "level-index-float": lambda: ProductFunction((constant(1.0),)).integrate_level(0.0),
}


@pytest.mark.parametrize("probe", SCALAR_PROBES)
def test_wrong_scalar_raises_validation_error(probe):
    with pytest.raises(ValidationError):
        SCALAR_PROBES[probe]()


@pytest.mark.parametrize("point", [5, None], ids=repr)
def test_product_function_point_without_length_raises_validation_error(point):
    # len() of it used to raise a bare TypeError
    with pytest.raises(ValidationError, match=rf"^point must be a sequence of 1 coordinates, got {point}$"):
        ProductFunction((constant(1.0),))(point)


@pytest.mark.parametrize("kind", ["missing-file", "directory"])
def test_unreadable_config_path_raises_config_error_naming_it(kind, tmp_path, capsys):
    # not the bare FileNotFoundError or IsADirectoryError of the read
    path = tmp_path / "missing.cfg" if kind == "missing-file" else tmp_path
    reason = "No such file or directory" if kind == "missing-file" else "Is a directory"
    message = f"{path}: cannot read config: {reason}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(path)
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# components that are no real numbers, or that no float holds; a numpy cast
# took the first four as numbers, and met the last with a bare OverflowError
BAD_COMPONENTS = {
    "text": ["1", "0", "0"],
    "numpy-text": np.array(["1", "0", "0"]),
    "bool": [True, False, False],
    "numpy-bool": np.array([True, False, False]),
    "int-beyond-float": [10**400, 0, 0],
}
VECTOR_TAKERS = {
    "unit_vector": unit_vector,
    "PureState": PureState,
    "HermitianOp": lambda v: HermitianOp(0.5, v),
    "ScenarioConfig-axis": lambda v: ScenarioConfig("sandwich", axes={"n": v, "m": [0, 1, 0]}),
}


@pytest.mark.parametrize("taker", VECTOR_TAKERS)
@pytest.mark.parametrize("component", BAD_COMPONENTS)
def test_vector_refuses_components_that_are_no_real_numbers(taker, component):
    error = ConfigError if taker.startswith("ScenarioConfig") else ValidationError
    with pytest.raises(error, match=r"must be a real 3-vector: "):
        VECTOR_TAKERS[taker](BAD_COMPONENTS[component])


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda omega: StepFunction((0.1,), (0.0, 1.0))(omega),
        lambda omega: ProductFunction((StepFunction((0.1,), (0.0, 1.0)),))((omega,)),
    ],
    ids=["StepFunction", "ProductFunction"],
)
def test_ragged_omega_raises_validation_error(evaluate):
    # np.ndim of it used to raise a bare numpy ValueError
    with pytest.raises(ValidationError, match=r"^omega must be real: setting an array element with a sequence"):
        evaluate([[0.2], 0.0])


# one of each kind of input: Python, numpy and exact reals and a 0-d array are
# taken; bools, text, complex numbers, an int beyond the float range and None are not
REALS = {
    "float": 0.25,
    "int": 0,
    "numpy-float32": np.float32(0.25),
    "numpy-int64": np.int64(0),
    "fraction": Fraction(1, 4),
    "decimal": Decimal("0.25"),
    "0-d-array": np.array(0.25),
}
NON_REALS = {
    "bool": True,
    "numpy-bool": np.True_,
    "str": "0.25",
    "bytes": b"0.25",
    "complex": 1j,
    "numpy-complex": np.complex128(0.25),
    "int-beyond-float": 10**400,
    "none": None,
}


@pytest.mark.parametrize("name", [*REALS, *NON_REALS])
def test_every_entry_point_takes_the_same_real_numbers(name):
    item = {**REALS, **NON_REALS}[name]
    # a value, a vector component, a scalar omega and an omega sample each
    # meet stepfn._floats, so each item is taken by all four or by none
    f = StepFunction((0.1,), (0.0, 1.0))
    calls = [
        lambda: StepFunction((), [item]),
        lambda: HermitianOp(0.0, [item, 0.0, 0.0]),
        lambda: f(item),
        lambda: f([item, 0.0]),
    ]
    outcomes = []
    for call in calls:
        try:
            call()
        except ValidationError:
            outcomes.append("refused")
        else:
            outcomes.append("taken")
    assert outcomes == ["taken" if name in REALS else "refused"] * 4
