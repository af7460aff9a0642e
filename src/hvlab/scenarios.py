"""Named verification scenarios, seeded property sweeps, and omega-trace export.

Each scenario runs one hidden-variable construction against the exact qubit
oracle and produces a :class:`ScenarioReport`: inputs echoed, hidden-variable
numbers, quantum numbers, the worst absolute error, explicit disagreement
witnesses, and a pass flag.  Reports are deterministic for a fixed config and
seed (``runtime_ms`` is the only field that varies between runs).

Config files are flat ``key = value`` text; vectors are three whitespace
separated floats.  Recognized keys: ``scenario``, ``state``, ``n``, ``m``,
``c``, ``lambda``, ``seed``, ``trials``, ``grid_points``.  Lines starting
with ``#`` (or blank) are ignored.  A vector whose norm is off 1 by more
than 1e-9 but at most 1e-6 is normalized with a warning.  Each scenario
declares the keys it reads once, in its :class:`Scenario` row; its required
keys, its report's ``inputs`` echo and whether it has omega traces all
follow from that declaration.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, permutations
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

from . import branching
from .bell import (
    ConflictWitness,
    _classical_intersection,
    _collinear,
    _sum_conflict_maps,
    bell_value,
    disagreement_witness,
    route_operator_product,
    route_state_update,
)
from .branching import BranchHistory, _in_order, _prefactor, branch, joint_function
from .errors import (
    ConfigError,
    HvlabError,
    ReductionUndefinedError,
    ScenarioError,
    ValidationError,
    _integer,
    _real,
    _require,
)
from .qubit import (
    PureState,
    _Axis,
    _cosine,
    _dot3,
    _row_norms,
    _set,
    _unit_rows,
    chain_probability,
    conditional_expectation,
    expectation,
    projector,
    sandwich,
    unit_vector,
)
from .stepfn import OMEGA_MAX, OMEGA_MIN, StepFunction

DEFAULT_TOLERANCE = 1e-12
DEFAULT_GRID_POINTS = 2001
MAX_GRID_POINTS = 10**7
DEFAULT_SWEEP_TRIALS = 1000
NORMALIZE_LIMIT = 1e-6
# run_sweep skips or leaves uncounted draws this close to a degenerate case:
# a near-zero normal vector, orthogonal conditioning or (anti-)collinear axes
DEGENERACY_MARGIN = 1e-6
# the most rows _random_units draws at once; each default sweep call takes one block
_DRAW_BLOCK_ROWS = 4096

_AXIS_KEYS = ("n", "m", "c")
_KEYS = ("scenario", "state", *_AXIS_KEYS, "lambda", "seed", "trials", "grid_points")
# the keys a scenario that reads them must set; every other key has a default
_REQUIRED = ("state", "n", "m", "lambda")

__all__ = [
    "SCENARIO_NAMES",
    "DEFAULT_TOLERANCE",
    "DEFAULT_GRID_POINTS",
    "ScenarioConfig",
    "ScenarioReport",
    "load_config",
    "run_scenario",
    "run_sweep",
    "emit_trace",
]


def _check_tolerance(tolerance) -> float:
    # the one tolerance rule of ScenarioConfig and run_sweep
    value = _real(tolerance, "tolerance")
    if value <= 0.0:
        raise ValidationError(f"tolerance must be positive, got {tolerance!r}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of one named scenario (parsed from a config file or built in code)."""

    scenario: str
    state: tuple[float, float, float] | None = None
    axes: Mapping[str, tuple[float, float, float]] = field(default_factory=dict)
    lam: float | None = None
    seed: int | None = None
    trials: int | None = None
    grid_points: int = DEFAULT_GRID_POINTS
    normalize_all_levels: bool = False
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIO_NAMES:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {', '.join(SCENARIO_NAMES)}"
            )
        try:
            axes = dict(self.axes)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"axes must map axis names to vectors, got {self.axes!r}") from exc
        if not set(axes) <= set(_AXIS_KEYS):
            raise ConfigError(f"axis names must be among n, m, c, got {list(axes)!r}")
        try:  # each vector and scalar by its one rule, stored as it returns it; failures as ConfigError
            _set(self, "axes", {key: unit_vector(v, f"vector {key!r}") for key, v in axes.items()})
            if self.state is not None:
                _set(self, "state", unit_vector(self.state, "vector 'state'"))
            if self.lam is not None:
                _set(self, "lam", _real(self.lam, "lambda"))
            _require(self.normalize_all_levels, bool, "normalize_all_levels")
            _set(self, "grid_points", _integer(self.grid_points, "grid_points", 2))
            if self.grid_points > MAX_GRID_POINTS:
                raise ValidationError(
                    f"grid_points {self.grid_points} is too large: at most {MAX_GRID_POINTS}"
                )
            _set(self, "tolerance", _check_tolerance(self.tolerance))
            if self.seed is not None:
                _set(self, "seed", _integer(self.seed, "seed", 0))
            if self.trials is not None:
                _set(self, "trials", _integer(self.trials, "trials", 1))
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        given = {"state": self.state, "lambda": self.lam, **self.axes}
        reads = _scenario(self.scenario).reads
        missing = [key for key in _REQUIRED if key in reads and given.get(key) is None]
        if missing:
            raise ConfigError(
                f"scenario {self.scenario!r} is missing required keys: {', '.join(missing)}"
            )

    def axis(self, name: str) -> tuple[float, float, float]:
        return self.axes[name]


def load_config(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario config file."""
    try:
        with open(Path(_require(path, (str, os.PathLike), "config path")), "rb") as file:
            text = file.read().decode("utf-8")
        text = text.removeprefix("\ufeff")  # the byte-order mark some editors write
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text: {exc}") from exc
    except OSError as exc:  # a missing file, a directory, no permission
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from exc
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value

    if "scenario" not in entries:
        raise ConfigError(f"{path}: missing required key 'scenario'")

    def parse_vector(key: str) -> tuple[float, float, float]:
        parts = entries[key].split()
        if len(parts) != 3:
            raise ConfigError(f"{path}: vector {key!r} needs three components, got {entries[key]!r}")
        try:
            floats = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"{path}: vector {key!r} has a non-numeric component") from exc
        if not all(map(math.isfinite, floats)):
            raise ConfigError(f"{path}: vector {key!r} has a non-finite component")
        try:
            # the one check of a unit vector; ScenarioConfig passes it through
            return unit_vector(floats, f"vector {key!r}")
        except ValidationError:
            pass
        # off unit norm: only a file vector is rescaled, and only within NORMALIZE_LIMIT
        norm = math.sqrt(_dot3(floats, floats))
        if abs(norm - 1.0) > NORMALIZE_LIMIT:
            raise ConfigError(
                f"vector {key!r} has norm {norm!r}; beyond the auto-normalization limit {NORMALIZE_LIMIT}"
            )
        warnings.warn(f"vector {key!r} has norm {norm!r}; normalizing", stacklevel=2)
        return tuple(x / norm for x in floats)

    state = parse_vector("state") if "state" in entries else None
    axes = {key: parse_vector(key) for key in _AXIS_KEYS if key in entries}

    def parse_number(key: str, kind: type, what: str):
        if key not in entries:
            return None
        try:
            return kind(entries[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: {key!r} must be {what}") from exc

    lam = parse_number("lambda", float, "a real number")
    grid_points = parse_number("grid_points", int, "an integer")
    config = ScenarioConfig(
        scenario=entries["scenario"],
        state=state,
        axes=axes,
        lam=lam,
        seed=parse_number("seed", int, "an integer"),
        trials=parse_number("trials", int, "an integer"),
        grid_points=grid_points if grid_points is not None else DEFAULT_GRID_POINTS,
    )
    reads = _scenario(config.scenario).reads
    unread = [key for key in entries if key != "scenario" and key not in reads]
    if unread:
        raise ConfigError(f"{path}: scenario {config.scenario!r} does not read keys: {', '.join(unread)}")
    return config


def _json_float(x: float) -> str:
    # json's float text: repr, or NaN / Infinity / -Infinity as json.dumps writes them
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _indented_json(value) -> str:
    """The text of ``json.dumps`` with ``indent=2``, byte for byte, in one pass.

    With an indent, ``json.dumps`` always runs json's pure-Python generator
    encoder; this recursion appends the same text to one list and joins it
    once.  Types are tested in that encoder's order: str, None, True, False,
    int, float, list or tuple, dict.  Strings and keys go through json's C
    escaper, ints and floats through ``int.__repr__`` and ``float.__repr__``.
    Any other type, and a dict key that is not a str, raise ``TypeError``.
    """
    parts: list[str] = []
    append = parts.append

    def write(o, newline: str) -> None:
        # newline is "\n" plus the indent of the line that holds o
        if isinstance(o, str):
            append(_json_string(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, float):
            append(_json_float(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = newline + "  "
            separator = "[" + inner
            for item in o:
                append(separator)
                separator = "," + inner
                write(item, inner)
            append(newline + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = newline + "  "
            separator = "{" + inner
            for key, item in o.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                append(separator + _json_string(key) + ": ")
                separator = "," + inner
                write(item, inner)
            append(newline + "}")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(value, "\n")
    return "".join(parts)


@dataclass(kw_only=True)
class ScenarioReport:
    """Structured outcome of one scenario run.

    Each scenario executor fills in the findings; :func:`run_scenario` then
    sets ``scenario``, ``inputs`` and ``runtime_ms``.  ``traces`` maps a role
    name to a step function for CSV export; it is not part of the report's
    JSON.
    """

    scenario: str = ""
    inputs: dict = field(default_factory=dict)
    hv_values: dict = field(default_factory=dict)
    qm_values: dict = field(default_factory=dict)
    max_abs_error: float
    witnesses: list[dict] = field(default_factory=list)
    passed: bool
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    runtime_ms: float = 0.0
    traces: dict[str, StepFunction] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        # fixed field order; 'pass' is the documented JSON key
        return {
            "scenario": self.scenario,
            "inputs": self.inputs,
            "hv_values": self.hv_values,
            "qm_values": self.qm_values,
            "max_abs_error": self.max_abs_error,
            "witnesses": self.witnesses,
            "pass": self.passed,
            "notes": self.notes,
            "details": self.details,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return _indented_json(self.to_dict()) + "\n"


def _witness_dicts(witness: ConflictWitness) -> list[dict]:
    return [
        {
            "omega_left": s.omega_left,
            "omega_right": s.omega_right,
            "lhs": s.lhs_value,
            "rhs": s.rhs_value,
        }
        for s in witness.samples
    ]


def _inputs_echo(config: ScenarioConfig) -> dict:
    # the config fields the scenario reads, in this order; "axes" holds the
    # axes it reads, and a scenario that reads any axis requires one
    reads = _scenario(config.scenario).reads
    echo = {
        "state": None if config.state is None else list(config.state),
        "axes": {name: list(vec) for name, vec in sorted(config.axes.items()) if name in reads},
        "lambda": config.lam,
        "seed": config.seed,
        "trials": config.trials,
        "grid_points": config.grid_points,
        "normalize_all_levels": config.normalize_all_levels,
        "tolerance": config.tolerance,
    }
    return {key: value for key, value in echo.items() if key in reads or (key == "axes" and value)}


# ---------------------------------------------------------------------------
# invariant checks, each shared by its scenario executor and run_sweep
# ---------------------------------------------------------------------------


def _measure_check(psi: PureState, m) -> tuple[dict, dict, float, StepFunction]:
    """Measure reproduction: hv and qm values, their distance and the value map of ``m``."""
    value_map = bell_value(psi, m)
    hv = {"measure": value_map.integrate()}
    qm = {"expectation": expectation(psi, projector(m))}
    return hv, qm, abs(hv["measure"] - qm["expectation"]), value_map


def _route_check(psi: PureState, n, m) -> tuple[dict, dict, float, StepFunction, StepFunction]:
    """Route agreement of ``m`` given ``n``: hv and qm values, their distance, both route maps."""
    via_state = route_state_update(n, m)
    via_product = route_operator_product(psi, n, m)
    qm_value = conditional_expectation(psi, m, n)
    hv = {
        "route_state_update": via_state.integrate(),
        "route_operator_product": via_product.integrate(),
    }
    err = max(abs(v - qm_value) for v in hv.values())
    return hv, {"conditional_expectation": qm_value}, err, via_state, via_product


def _order_check(history: BranchHistory, normalize_all_levels: bool = False) -> tuple[list, float]:
    """Order independence: the iterated integrals in every order of the levels, and their spread.

    Each is ``integrate_in_order``'s for that order, bit for bit, from one prefactor.
    """
    prefactor = _prefactor(history.nodes, normalize_all_levels)
    values = [_in_order(prefactor, nodes) for nodes in permutations(history.nodes)]
    return values, max(values) - min(values)


def _idempotence_check(psi: PureState, axis) -> tuple[StepFunction, float]:
    """Idempotence: ``axis`` measured again after selecting it; its map and largest deviation from 1.

    Step functions are canonical, so the deviation is 0.0 exactly when the map is the constant 1.
    """
    repeated = branching.repeated_measurement_check(psi, axis)
    return repeated, max(abs(v - 1.0) for v in repeated.values)


# ---------------------------------------------------------------------------
# scenario executors
# ---------------------------------------------------------------------------


def _run_measure_reproduction(config: ScenarioConfig) -> ScenarioReport:
    hv, qm, err, value_map = _measure_check(PureState(config.state), config.axes["m"])
    return ScenarioReport(
        hv_values=hv,
        qm_values=qm,
        max_abs_error=err,
        passed=err <= config.tolerance,
        traces={"value_map": value_map},
    )


def _run_sandwich(config: ScenarioConfig) -> ScenarioReport:
    n = config.axes["n"]
    m = config.axes["m"]
    product = sandwich(n, m)
    coefficient = 2.0 * product.a
    expected = conditional_expectation(PureState(n), m, n)
    axis_deviation = max(abs(b - coefficient * 0.5 * x) for b, x in zip(product.b, n))
    err = max(abs(coefficient - expected), axis_deviation)
    return ScenarioReport(
        qm_values={"coefficient": coefficient, "expected_coefficient": expected},
        max_abs_error=err,
        passed=err <= config.tolerance,
        notes=["quantum-side identity check; no hidden-variable map involved"],
    )


def _run_route_agreement(config: ScenarioConfig) -> ScenarioReport:
    hv, qm, err, via_state, via_product = _route_check(
        PureState(config.state), config.axes["n"], config.axes["m"]
    )
    return ScenarioReport(
        hv_values=hv,
        qm_values=qm,
        max_abs_error=err,
        passed=err <= config.tolerance,
        traces={"route_a": via_state, "route_b": via_product, "difference": via_state - via_product},
    )


def _run_nonuniqueness(config: ScenarioConfig) -> ScenarioReport:
    # route agreement on averages, plus where the two routes differ pointwise
    report = _run_route_agreement(config)
    witness = disagreement_witness(report.traces["route_a"], report.traces["route_b"])
    report.hv_values["disagreement_measure"] = witness.measure
    report.witnesses = _witness_dicts(witness)
    if witness.measure == 0.0:
        report.notes.append("degenerate agreement: the two routes coincide identically")
    else:
        report.notes.append(
            "the two routes agree on averages but disagree pointwise on a set of "
            f"measure {witness.measure!r}"
        )
    return report


def _run_classical_rule(config: ScenarioConfig) -> ScenarioReport:
    psi = PureState(config.state)
    n = config.axes["n"]
    m = config.axes["m"]
    observed = bell_value(psi, m)
    condition = bell_value(psi, n)
    intersection, classical = _classical_intersection(observed, condition)
    qm_value = conditional_expectation(psi, m, n)
    violation = abs(classical - qm_value)
    hv = {"classical_conditional": classical, "violation": violation}
    qm = {"conditional_expectation": qm_value}
    traces = {
        "indicator_observed": observed,
        "indicator_condition": condition,
        "intersection": intersection,
    }
    if _collinear(n, m):
        notes = ["commuting axes: classical conditioning must match the quantum value"]
        err = violation
        passed = violation <= config.tolerance
    else:
        notes = [
            "non-commuting axes: the intersection rule conditions both indicators on the "
            "same original state, so a violation of the quantum conditional value is expected"
        ]
        if violation > config.tolerance:
            notes.append(f"violation observed: |classical - quantum| = {violation!r}")
        else:
            notes.append("no violation at this particular geometry")
        err = 0.0
        passed = True
    return ScenarioReport(
        hv_values=hv, qm_values=qm, max_abs_error=err, passed=passed, notes=notes, traces=traces
    )


def _run_sum_conflict(config: ScenarioConfig) -> ScenarioReport:
    psi = PureState(config.state)
    mixture, lhs, rhs, map_n, map_m = _sum_conflict_maps(
        psi, config.axes["n"], config.axes["m"], config.lam
    )
    witness = disagreement_witness(lhs, rhs)
    qm_value = expectation(psi, mixture)
    hv = {
        "mixture_map_integral": lhs.integrate(),
        "mixture_of_maps_integral": rhs.integrate(),
        "disagreement_measure": witness.measure,
    }
    err = max(
        abs(hv["mixture_map_integral"] - qm_value),
        abs(hv["mixture_of_maps_integral"] - qm_value),
    )
    both_zero = (1.0 - map_n) * (1.0 - map_m)
    both_one = map_n * map_m
    missing_zero = (both_zero * (1.0 - witness.omega_region)).integrate()
    missing_one = (both_one * (1.0 - witness.omega_region)).integrate()
    covered = missing_zero == 0.0 and missing_one == 0.0
    notes = [
        f"both-projectors-zero region has measure {both_zero.integrate()!r}",
        f"both-projectors-one region has measure {both_one.integrate()!r}",
    ]
    if not covered:
        notes.append("witness fails to cover a region it must contain")
    return ScenarioReport(
        hv_values=hv,
        qm_values={"mixture_expectation": qm_value},
        max_abs_error=err,
        passed=err <= config.tolerance and covered,
        witnesses=_witness_dicts(witness),
        notes=notes,
        traces={"mixture_map": lhs, "mixture_of_maps": rhs, "difference": lhs - rhs},
    )


def _run_branching_chain(config: ScenarioConfig) -> ScenarioReport:
    psi = PureState(config.state)
    axes = [config.axes[key] for key in _AXIS_KEYS if key in config.axes]  # n, m and maybe c
    history = BranchHistory(psi)
    for axis in axes:
        history, _ = branch(history, axis)
    values, spread = _order_check(history, config.normalize_all_levels)
    joint_integral = joint_function(history, config.normalize_all_levels).integrate()
    if config.normalize_all_levels:
        qm_value = 1.0
        qm = {"normalized_total": qm_value}
    else:
        try:
            qm_value = chain_probability(psi, axes) / chain_probability(psi, axes[:-1])
        except ReductionUndefinedError as exc:
            if exc.index != len(axes) - 1:
                raise
            # only the final outcome is (near) impossible: its conditional is
            # still the last chain step, and every earlier level was nonzero
            qm_value = 0.5 * (1.0 + _cosine(axes[-2], axes[-1]))
        qm = {"final_outcome_conditional": qm_value}
    hv = {
        "joint_integral": joint_integral,
        "order_spread": spread,
    }
    # the chain rule and the joint integral are this scenario's own checks
    err = max(spread, max(abs(v - qm_value) for v in values), abs(joint_integral - qm_value))
    return ScenarioReport(
        hv_values=hv,
        qm_values=qm,
        max_abs_error=err,
        passed=err <= config.tolerance,
        notes=[f"levels: {history.depth}; integration orders checked: {len(values)}"],
        traces={
            f"level_{level}": node.level_function
            for level, node in enumerate(history.nodes, start=1)
        },
        details={"branch_tree": branching.branch_records(history)},
    )


def _run_idempotence(config: ScenarioConfig) -> ScenarioReport:
    psi = PureState(config.state)
    axis = config.axes["n"]
    # first measurement, then three repetitions of the same axis: the first
    # starts from psi, the others from the +axis each selected outcome prepares
    prepared = PureState(axis)
    repeated, deviations = zip(
        *(_idempotence_check(state, axis) for state in (psi, prepared, prepared))
    )
    functions = (bell_value(psi, axis), *repeated)
    err = max(deviations)
    if err == 0.0:
        notes = ["levels 2..4 are identically the constant 1"]
    else:
        notes = ["a repeated level deviates from the constant 1"]
    return ScenarioReport(
        hv_values={
            "level_2_max_deviation": deviations[0],
            "levels_3_4_max_deviation": max(deviations[1:]),
        },
        qm_values={"repeated_outcome_probability": 1.0},
        max_abs_error=err,
        passed=err == 0.0,
        notes=notes,
        traces={f"level_{level}": fn for level, fn in enumerate(functions, start=1)},
    )


def _run_sweep_scenario(config: ScenarioConfig) -> ScenarioReport:
    seed = config.seed if config.seed is not None else 0
    trials = config.trials if config.trials is not None else DEFAULT_SWEEP_TRIALS
    summary = run_sweep(seed, trials, tolerance=config.tolerance)
    skip = ("pass", "failures", "trials", "seed", "max_abs_error")
    return ScenarioReport(
        hv_values={key: summary[key] for key in summary if key not in skip},
        max_abs_error=summary["max_abs_error"],
        passed=summary["pass"],
        notes=[f"seed={seed} trials={trials}"] + summary["failures"],
    )


@dataclass(frozen=True)
class Scenario:
    """A named scenario: its executor and the config keys it reads.

    ``reads`` uses the config-file keys (``lambda``, the axis names) plus the
    ``ScenarioConfig`` fields ``normalize_all_levels`` and ``tolerance``.
    The keys it reads among ``state``, ``n``, ``m`` and ``lambda`` are
    required, and its report echoes exactly the keys it reads.  Only a
    scenario with omega traces reads ``grid_points``, the grid
    :func:`emit_trace` samples them on.
    """

    name: str
    run: Callable[[ScenarioConfig], ScenarioReport]
    reads: tuple[str, ...]


# what a traced scenario on a state and two axes reads, graded against the tolerance
_GEOMETRY = ("state", "n", "m", "grid_points", "tolerance")
_SCENARIOS = (
    Scenario("measure_reproduction", _run_measure_reproduction, ("state", "m", "grid_points", "tolerance")),
    Scenario("sandwich", _run_sandwich, ("n", "m", "tolerance")),
    Scenario("route_agreement", _run_route_agreement, _GEOMETRY),
    Scenario("nonuniqueness", _run_nonuniqueness, _GEOMETRY),
    Scenario("classical_rule", _run_classical_rule, _GEOMETRY),
    Scenario("sum_conflict", _run_sum_conflict, (*_GEOMETRY, "lambda")),
    Scenario("branching_chain", _run_branching_chain, (*_GEOMETRY, "c", "normalize_all_levels")),
    Scenario("idempotence", _run_idempotence, ("state", "n", "grid_points")),
    Scenario("sweep", _run_sweep_scenario, ("seed", "trials", "tolerance")),
)

SCENARIO_NAMES = tuple(scenario.name for scenario in _SCENARIOS)


def _scenario(name: str) -> Scenario:
    return _SCENARIOS[SCENARIO_NAMES.index(name)]


def _config_scenario(config: ScenarioConfig) -> Scenario:
    # the scenario of a config handed to a public entry point
    return _scenario(_require(config, ScenarioConfig, "config").scenario)


def _execute(config: ScenarioConfig) -> ScenarioReport:
    run = _config_scenario(config).run
    try:
        return run(config)
    except HvlabError as exc:
        raise ScenarioError(f"scenario {config.scenario!r}: {exc}") from exc


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute one named scenario and return its report."""
    start = time.perf_counter()
    report = _execute(config)
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    report.scenario = config.scenario
    report.inputs = _inputs_echo(config)
    return report


def scenario_traces(config: ScenarioConfig) -> dict[str, StepFunction]:
    """The omega-trace functions a scenario produces (may be empty)."""
    return _execute(config).traces


# ---------------------------------------------------------------------------
# randomized property sweeps
# ---------------------------------------------------------------------------


def _random_units(rng: np.random.Generator, count: int) -> Iterator[_Axis]:
    """Yield ``count`` random unit axes: rows of ``rng.normal(size=(k, 3))`` over their norms.

    The norms are ``qubit._row_norms``, so each has the bits of the row's
    ``sqrt(_dot3(row, row))``, and ``qubit._unit_rows`` checks the divided
    block at once.  Rows with a norm at or below ``DEGENERACY_MARGIN`` are
    skipped and only they are drawn again, so the axes are those of
    ``count`` draws of ``size=3`` (the same stream, as :func:`_random_unit`
    takes it) and ``rng`` is left where they would leave it.  Blocks of at
    most ``_DRAW_BLOCK_ROWS`` rows are drawn as the axes are taken, so memory
    does not grow with ``count``; callers draw nothing else in between.
    """
    while count:
        rows = rng.normal(size=(min(count, _DRAW_BLOCK_ROWS), 3))
        norms = _row_norms(rows)
        kept = norms > DEGENERACY_MARGIN
        if not kept.all():
            rows, norms = rows[kept], norms[kept]
        count -= len(rows)
        yield from _unit_rows(rows / norms[:, np.newaxis], "random axis")


def _random_unit(rng: np.random.Generator) -> _Axis:
    """One random unit axis, the one ``_random_units(rng, 1)`` draws, in Python floats.

    The order and tree phases of :func:`run_sweep` interleave ``rng.integers``
    with these draws, so they cannot be drawn in blocks; for a single row this
    loop over ``rng.normal(size=3)`` is faster than the block's numpy path.
    """
    while True:
        components = rng.normal(size=3).tolist()
        norm = math.sqrt(_dot3(components, components))
        if norm > DEGENERACY_MARGIN:
            x, y, z = components
            return unit_vector((x / norm, y / norm, z / norm), "random axis")


def run_sweep(seed: int, trials: int, tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Seeded randomized sweep over the package's core invariants.

    Samples unit vectors from a fixed-seed generator and runs on each draw the
    checks the scenarios share: measure reproduction (``_measure_check``),
    route agreement (``_route_check``), order-independent integration
    (``_order_check``) and idempotence (``_idempotence_check``).  Only the
    sweep checks genericity of pointwise route disagreement, branch
    completeness and outcome-tree conservation, and skips draws within
    ``DEGENERACY_MARGIN`` of a degenerate case.  A route draw counts as
    disagreeing when ``via_state != via_product``: both maps are canonical,
    so that is ``disagreement_witness(via_state, via_product).measure > 0.0``
    without building the witness.  Reports counts, worst-case errors, and any
    failing inputs verbatim.
    """
    seed = _integer(seed, "seed", 0)
    trials = _integer(trials, "trials", 1)
    tolerance = _check_tolerance(tolerance)
    rng = np.random.default_rng(seed)
    failures: list[str] = []

    max_measure_error = 0.0
    draws = _random_units(rng, 2 * trials)
    for s, m in zip(draws, draws):
        err = _measure_check(PureState(s), m)[2]
        max_measure_error = max(max_measure_error, err)
        if err > tolerance:
            failures.append(f"measure_reproduction s={list(s)} m={list(m)} error={err!r}")

    max_route_error = 0.0
    disagreeing = 0
    route_trials = 0
    while route_trials < trials:
        # one draw of three axes per remaining trial; a skipped trial is drawn again
        draws = _random_units(rng, 3 * (trials - route_trials))
        for s, n, m in zip(draws, draws, draws):
            if 1.0 + _dot3(n, s) <= DEGENERACY_MARGIN:
                continue
            route_trials += 1
            _, _, err, via_state, via_product = _route_check(PureState(s), n, m)
            max_route_error = max(max_route_error, err)
            if err > tolerance:
                failures.append(f"route_agreement s={list(s)} n={list(n)} m={list(m)} error={err!r}")
            if (
                abs(_cosine(n, m)) < 1.0 - DEGENERACY_MARGIN
                and abs(_cosine(n, s)) < 1.0 - DEGENERACY_MARGIN
                and via_state != via_product
            ):
                disagreeing += 1

    order_trials = min(trials, 1000)
    max_order_spread = 0.0
    max_completeness_error = 0.0
    for _ in range(order_trials):
        s = _random_unit(rng)
        history = branching._history(PureState(s), ())
        depth = int(rng.integers(2, 4))
        for _ in range(depth):
            axis = _random_unit(rng)
            selected, comp = branch(history, axis)
            comp_total = selected.nodes[-1].normalizer + comp.nodes[-1].normalizer
            max_completeness_error = max(max_completeness_error, abs(comp_total - 1.0))
            if selected.zero_probability:
                break
            history = selected
        else:
            spread = _order_check(history)[1]
            max_order_spread = max(max_order_spread, spread)
            if spread > tolerance:
                failures.append(f"order_independence s={list(s)} spread={spread!r}")

    idempotence_failures = 0
    draws = _random_units(rng, 2 * order_trials)
    for s, axis in zip(draws, draws):
        if 1.0 + _dot3(s, axis) <= DEGENERACY_MARGIN:
            continue
        if _idempotence_check(PureState(s), axis)[1] != 0.0:
            idempotence_failures += 1
            failures.append(f"idempotence s={list(s)} axis={list(axis)}")

    tree_trials = min(trials, 100)
    max_tree_error = 0.0
    for _ in range(tree_trials):
        s = _random_unit(rng)
        depth = int(rng.integers(1, 5))
        axes = [_random_unit(rng) for _ in range(depth)]
        table = branching.outcome_probabilities(PureState(s), axes)
        err = abs(sum(table.values()) - 1.0)
        max_tree_error = max(max_tree_error, err)
        if err > tolerance:
            failures.append(f"tree_conservation s={list(s)} depth={depth} error={err!r}")

    disagreement_fraction = disagreeing / route_trials if route_trials else 1.0
    if disagreement_fraction < 0.99:
        failures.append(
            f"nonuniqueness fraction {disagreement_fraction!r} below the 99% genericity bound"
        )

    max_abs_error = max(
        max_measure_error, max_route_error, max_order_spread, max_completeness_error, max_tree_error
    )
    return {
        "seed": seed,
        "trials": trials,
        "max_measure_error": max_measure_error,
        "max_route_error": max_route_error,
        "nonuniqueness_fraction": disagreement_fraction,
        "max_order_spread": max_order_spread,
        "idempotence_failures": idempotence_failures,
        "max_completeness_error": max_completeness_error,
        "max_tree_error": max_tree_error,
        "max_abs_error": max_abs_error,
        "failures": failures,
        "pass": not failures and idempotence_failures == 0 and max_abs_error <= tolerance,
    }


# ---------------------------------------------------------------------------
# omega-grid traces
# ---------------------------------------------------------------------------


class _GridRows:
    """A grid's ``%.17g`` omega strings as one ASCII blob, shared by every trace at its size.

    Row ``i`` of the grid is ``text[offsets[i]:offsets[i + 1]]`` and ends in
    ``b"\\n"``.  The text and the offsets, the running sum of the rows'
    lengths, are built in one pass over ``grid.tolist()``.  The grid is
    increasing and ends at ``OMEGA_MAX``, to the right of every breakpoint.

    ``joined`` holds the whole text twice more, with ``,0`` and with ``,1``
    before every newline: Bell's value maps and the branch levels are 0/1
    indicators, and their rows are 75.4% of the benchmark's ``trace`` rows.
    The key is the row tail's bytes, not the value, so a ``-0.0`` segment
    (``,-0``) never takes the ``,0`` text.  Row ``i`` of a joined text starts at
    ``offsets[i] + 2 * i``.  :func:`_grid_rows` keeps two instances between
    trace calls, so ``grid`` and ``offsets`` are read-only and the texts are
    ``bytes``: about 78 bytes a point in all.
    """

    def __init__(self, grid: np.ndarray):
        rows = [b"%.17g\n" % x for x in grid.tolist()]
        self.grid = grid
        self.text = b"".join(rows)
        self.offsets = np.fromiter(accumulate(map(len, rows), initial=0), np.intp, len(rows) + 1)
        self.grid.setflags(write=False)
        self.offsets.setflags(write=False)
        self.joined = {tail: self.text.replace(b"\n", tail) for tail in (b",0\n", b",1\n")}

    def write(self, stream, fn: StepFunction) -> None:
        """Write ``fn``'s ``omega,value`` rows on the grid and its breakpoints, one segment at a time.

        The bytes are ``%.17g,%.17g`` over ``np.union1d(grid, fn.breakpoints)``
        and ``fn`` of each.  A breakpoint starts its segment at the first
        grid row at or to its right.  One equal to that row's float (``-0.0``
        to ``0.0`` too) is that row, as ``np.union1d`` keeps one of equal
        values; any other gets a row of its own.  A segment printing as
        exactly ``0`` or ``1`` writes its grid rows as one uncopied slice of
        its ``joined`` text; any other writes its slice of the grid text with
        ``,<value>`` put before every newline.
        """
        grid, breakpoints, offsets = self.grid, fn.breakpoints, self.offsets
        cuts = np.searchsorted(grid, breakpoints).tolist()
        for value, left, begin, end in zip(
            fn.values, (None, *breakpoints), [0, *cuts], [*cuts, len(grid)]
        ):
            tail = b",%.17g\n" % value
            if left is not None and grid[begin] != left:
                stream.write(b"%.17g" % left + tail)
            joined = self.joined.get(tail)
            if joined is not None:
                stream.write(memoryview(joined)[offsets[begin] + 2 * begin : offsets[end] + 2 * end])
            else:
                stream.write(self.text[offsets[begin] : offsets[end]].replace(b"\n", tail))


@lru_cache(maxsize=2)
def _grid_rows(points: int) -> _GridRows:
    """The rows of the ``points``-point trace grid, kept for the two sizes used last.

    ``lru_cache`` builds a new entry before it evicts the old one, so keeping
    two adds no peak: 1,713,673 bytes at 2,001 and 20,001 points.
    ``ScenarioConfig`` bounds ``points`` by ``MAX_GRID_POINTS``.
    """
    return _GridRows(np.linspace(OMEGA_MIN, OMEGA_MAX, points))


# what os.open needs to write bytes as given: O_BINARY stops Windows'
# C runtime from turning "\n" into "\r\n" (it exists only there)
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


class _Rewrite:
    """``path`` rewritten from its first byte through its descriptor, unbuffered.

    Created if missing and never opened with ``O_TRUNC``: on ext4,
    truncating at open frees the page cache, so the writes must allocate
    pages again and the close starts writeback.  :meth:`write` counts the
    bytes ``os.write`` takes; :meth:`cut` ends the file there, so after a
    failed write (a full disk, a file size limit) it holds exactly the bytes
    written before it.  Nothing is synced to disk.
    """

    def __init__(self, path):
        self.fd = os.open(path, _REWRITE_FLAGS, 0o666)
        self.written = 0

    def write(self, data) -> None:
        view = memoryview(data)
        while view:  # os.write may take fewer bytes than it is given
            count = os.write(self.fd, view)
            self.written += count
            view = view[count:]

    def cut(self) -> None:
        os.ftruncate(self.fd, self.written)

    def close(self) -> None:
        os.close(self.fd)


def emit_trace(config: ScenarioConfig, out_dir) -> list[Path]:
    """Write one ``omega,value`` CSV per step function the scenario produces.

    Rows are a uniform grid of ``grid_points`` united with every exact
    breakpoint, so no step edge is missed, written one segment of the step
    function at a time; values carry 17 significant digits and re-integrate
    (breakpoint-aware) to the reported integrals.  Rows end in ``\\n`` on
    every platform.  The grid's text, and two copies of it with ``,0`` and
    ``,1`` before every newline that a segment printing as exactly ``0`` or
    ``1`` writes as one slice, are shared by every role's file and kept by
    :func:`_grid_rows` for the two ``grid_points`` used last, about 78 bytes
    a point each: a loop tracing at one or two sizes formats each once; a
    one-shot ``hvlab trace`` gains nothing.  Each file is a :class:`_Rewrite`
    of the existing one, written in place through its descriptor and cut to
    its new length: a reader that has it open meanwhile can see a mix of old
    and new bytes.  Every role's path is opened before any is written, so a
    failed open (a directory at the path, no permission) changes no existing
    file and leaves a new one empty.  A failed write (a full disk, a file
    size limit) can still leave a mix: the roles before it hold the new
    rows, its own file exactly the bytes written before the failure, and
    those after it their previous bytes.  The error propagates
    (``hvlab trace`` exits 2).  Returns the written paths; a scenario
    without traces (``sandwich``, ``sweep``) returns an empty list without
    being run.
    """
    reads = _config_scenario(config).reads
    out = Path(_require(out_dir, (str, os.PathLike), "out_dir"))
    if "grid_points" not in reads:
        return []
    traces = scenario_traces(config)
    rows = _grid_rows(config.grid_points)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / f"{config.scenario}__{role}.csv" for role in traces]
    with ExitStack() as opened:
        files = [opened.enter_context(closing(_Rewrite(path))) for path in written]
        for file, fn in zip(files, traces.values()):
            try:
                file.write(b"omega,value\n")
                rows.write(file, fn)
            finally:
                file.cut()
    return written
