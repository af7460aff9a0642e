"""Every public callable refuses a wrong argument with a typed error.

``VALID`` holds, for each callable in ``hvlab.__all__``, arguments that make
the call succeed.  Each required parameter is then given ``None`` and then
``np.zeros(3)``, the other arguments kept valid, and the call must raise an
:class:`HvlabError`, never a bare Python error.
"""

import ast
import inspect
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

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
    run_scenario,
    run_sweep,
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


class _FloatOnly:
    # defines __float__ but is no numbers.Real, so float() would take it
    def __float__(self):
        return 0.25

    def __repr__(self):
        return "_FloatOnly()"


# one of each kind of real number, each a converter of an in-range value:
# Python, numpy and exact reals and a 0-d array are taken, and "int" and
# "numpy-int64" get a site's integer value.  Text, bools, complex numbers,
# Decimal, __float__-only objects, timedeltas, an int beyond the float range
# and None are not.
REALS = {
    "float": float,
    "int": int,
    "numpy-float32": np.float32,
    "numpy-int64": np.int64,
    "fraction": Fraction,
    "0-d-array": np.array,
}
INTEGER_KINDS = {"int", "numpy-int64"}
NON_REALS = {
    "bool": True,
    "numpy-bool": np.True_,
    "str": "0.25",
    "bytes": b"0.25",
    "complex": 1j,
    "numpy-complex": np.complex128(0.25),
    "decimal": Decimal("0.25"),
    "float-only": _FloatOnly(),
    "numpy-timedelta": np.timedelta64(1),
    "numpy-timedelta-seconds": np.timedelta64(1, "s"),
    "int-beyond-float": 10**400,
    "none": None,
}

_F = StepFunction((0.1,), (0.0, 1.0))
# every site that takes a real number: (call, in-range value, in-range integer).
# An integer of None means the site's range holds none, so integer kinds skip it.
REAL_SITES = {
    "StepFunction-value": (lambda x: StepFunction((), [x]), 0.25, 2),
    "vector-component": (lambda x: HermitianOp(0.0, [x, 0.0, 0.0]), 0.25, 2),
    "omega": (_F, 0.25, 0),
    "omega-sample": (lambda x: _F([x, 0.0]), 0.25, 0),
    "constant": (constant, 0.25, 2),
    "threshold": (lambda x: indicator_from_sign(x, 1), 0.25, 0),
    "HermitianOp-scalar-part": (lambda x: HermitianOp(x, X), 0.25, 2),
    "ProductFunction-prefactor": (lambda x: ProductFunction((), x), 0.25, 2),
    # the weight, and lambda, which is that weight in sum_conflict, lie strictly in (0, 1)
    "mixture-weight": (lambda x: sum_conflict_witness(PureState(Z), X, Y, x), 0.25, None),
    "ScenarioConfig-lambda": (
        lambda x: ScenarioConfig("sum_conflict", state=Z, axes={"n": X, "m": Y}, lam=x),
        0.25,
        None,
    ),
    "ScenarioConfig-tolerance": (lambda x: ScenarioConfig("sweep", tolerance=x), 0.25, 1),
    "run_sweep-tolerance": (lambda x: run_sweep(0, 1, tolerance=x), 0.25, 1),
    "StepFunction-operand": (lambda x: _F * x, 0.25, 2),
    "HermitianOp-operand": (lambda x: projector(X) * x, 0.25, 2),
}


@pytest.mark.parametrize("name", [*REALS, *NON_REALS])
def test_every_entry_point_takes_the_same_real_numbers(name):
    # every site meets errors._as_float, so each kind is taken by all or by none.
    # An operator refuses an operand that is no number by Python's TypeError.
    outcomes = {}
    for site, (call, value, integer) in REAL_SITES.items():
        if name in NON_REALS:
            item = NON_REALS[name]
        elif name in INTEGER_KINDS:
            if integer is None:
                continue
            item = REALS[name](integer)
        else:
            item = REALS[name](value)
        refusals = (ValidationError, TypeError) if site.endswith("operand") else ValidationError
        try:
            call(item)
        except refusals:
            outcomes[site] = "refused"
        else:
            outcomes[site] = "taken"
    expected = "taken" if name in REALS else "refused"
    assert outcomes == dict.fromkeys(outcomes, expected)


def _report_json(config):
    report = run_scenario(config)
    report.runtime_ms = 0.0
    return report.to_json()


# config fields given as numpy integers or a Fraction, each beside the same value as a plain int or float
CONVERTED_CONFIGS = {
    "sweep-numpy-ints": (
        lambda: ScenarioConfig("sweep", seed=np.int64(3), trials=np.int64(2), tolerance=np.float32(0.25)),
        lambda: ScenarioConfig("sweep", seed=3, trials=2, tolerance=0.25),
    ),
    "sum-conflict-fraction": (
        lambda: ScenarioConfig("sum_conflict", state=Z, axes={"n": X, "m": Y}, lam=Fraction(1, 3)),
        lambda: ScenarioConfig("sum_conflict", state=Z, axes={"n": X, "m": Y}, lam=1 / 3),
    ),
    "trace-numpy-grid-points": (
        lambda: ScenarioConfig("idempotence", state=Z, axes={"n": X}, grid_points=np.int64(5)),
        lambda: ScenarioConfig("idempotence", state=Z, axes={"n": X}, grid_points=5),
    ),
}


@pytest.mark.parametrize("case", CONVERTED_CONFIGS)
def test_config_stores_scalars_as_its_checkers_return_them(case):
    # a numpy integer or a Fraction used to reach the report, whose to_json()
    # raised a bare TypeError for it
    given, plain = CONVERTED_CONFIGS[case]
    assert _report_json(given()) == _report_json(plain())


def test_run_sweep_reports_its_arguments_as_plain_numbers():
    summary = run_sweep(np.int64(3), np.int64(2), tolerance=Fraction(1, 4))
    assert summary == run_sweep(3, 2, tolerance=0.25)
    assert type(summary["seed"]) is int and type(summary["trials"]) is int


# numpy registers its timedelta64 as an Integral, and float() takes one of no
# unit; the real-number sites are in test_every_entry_point_takes_the_same_real_numbers
TIMEDELTA_PROBES = {
    "omega-array": lambda: StepFunction((0.1,), (0.0, 1.0))(np.array([0, 0], "m8")),
    "run_sweep-seed": lambda: run_sweep(np.timedelta64(3), 2),
    "ScenarioConfig-seed": lambda: ScenarioConfig("sweep", seed=np.timedelta64(3)),
}


@pytest.mark.parametrize("probe", TIMEDELTA_PROBES)
def test_timedelta_is_refused_with_a_typed_error(probe):
    error = ConfigError if probe.startswith("ScenarioConfig") else ValidationError
    with pytest.raises(error):
        TIMEDELTA_PROBES[probe]()


# every kind of integer site, each called with its in-range value
INTEGER_SITES = {
    "run_sweep-seed": lambda k: run_sweep(k, 1),
    "run_sweep-trials": lambda k: run_sweep(0, k),
    "ScenarioConfig-seed": lambda k: ScenarioConfig("sweep", seed=k),
    "integrate_level-index": lambda k: ProductFunction((constant(2.0), constant(3.0))).integrate_level(k),
    "polarity": lambda k: indicator_from_sign(0.25, k),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_sites_judge_a_0_d_array_by_its_scalar(site):
    # as errors._as_float does: run_sweep(np.array(3), 1) used to be refused
    # while constant(np.array(3)) was taken
    call = INTEGER_SITES[site]
    assert call(np.array(1)) == call(1)
    for refused in (np.array(True), np.array(np.timedelta64(1))):
        with pytest.raises(ValidationError, match=r"must be (an integer of at least -?\d|\+1 or -1), got array\("):
            call(refused)


BIG = 10**400
OVERFLOWING_OPERANDS = {
    "StepFunction-times-int": lambda: StepFunction((0.1,), (0.0, 1.0)) * BIG,
    "int-minus-StepFunction": lambda: BIG - StepFunction((0.1,), (0.0, 1.0)),
    "HermitianOp-times-int": lambda: projector(X) * BIG,
}


@pytest.mark.parametrize("case", OVERFLOWING_OPERANDS)
def test_operand_beyond_the_float_range_raises_validation_error(case):
    # it was the bare OverflowError of float()
    message = "scalar operand must be a real number: int too large to convert to float"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        OVERFLOWING_OPERANDS[case]()


def test_operators_take_a_fraction_operand():
    # StepFunction((), [Fraction(1, 2)]) was taken, but f * Fraction(1, 2) was a TypeError
    f = StepFunction((0.1,), (0.0, 1.0))
    assert f * Fraction(1, 2) == Fraction(1, 2) * f == f * 0.5
    assert Fraction(1, 2) - f == 0.5 - f
    assert projector(X) * Fraction(1, 2) == Fraction(1, 2) * projector(X) == projector(X) * 0.5


def test_vector_of_the_wrong_length_is_refused_before_an_array_is_built():
    # np.shape of it used to copy all of its items into an array first
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^vector must be a real 3-vector, got length 1000000$"):
            unit_vector(range(10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("given", [{1, 2}, {1, 2, 3}, {1: 0, 2: 0}, {1: 0, 2: 0, 3: 0}], ids=repr)
def test_set_or_dict_vector_reads_shape_at_every_size(given):
    # the length test takes sequences only: a two-item set used to read "got length 2"
    with pytest.raises(ValidationError, match=r"^vector must be a real 3-vector, got shape \(\)$"):
        unit_vector(given)


def _float_calls():
    """(module, top-level definition) of each call of the builtin float in src/hvlab.

    ``float(x)`` and ``map(float, xs)`` count; ``float.__repr__``, type tests
    and annotations do not.
    """
    for path in sorted(Path(hvlab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                callee = node.args[0] if node.func.id == "map" else node.func
                if isinstance(callee, ast.Name) and callee.id == "float":
                    yield path.stem, getattr(top, "name", None)


def test_only_the_one_rule_converts_to_float():
    # errors._as_float decides what a real number is; load_config parses its
    # text with float()
    assert set(_float_calls()) == {("errors", "_as_float"), ("scenarios", "load_config")}
