"""Named verification scenarios, seeded property sweeps, and omega-trace export.

Each scenario runs one hidden-variable construction against the exact qubit
oracle and produces a :class:`ScenarioReport`: inputs echoed, hidden-variable
numbers, quantum numbers, the worst absolute error, explicit disagreement
witnesses, and a pass flag.  Reports are deterministic for a fixed config and
seed (``runtime_ms`` is the only field that varies between runs).

Config files are flat ``key = value`` text; vectors are three whitespace
separated floats.  Recognized keys: ``scenario``, ``state``, ``n``, ``m``,
``c``, ``lambda``, ``seed``, ``trials``, ``grid_points``.  Lines starting
with ``#`` (or blank) are ignored.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Callable, Mapping

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
from .branching import BranchHistory, branch, integrate_in_order, joint_function
from .errors import ConfigError, HvlabError, ScenarioError, ValidationError
from .qubit import (
    UNIT_TOLERANCE,
    PureState,
    chain_probability,
    conditional_expectation,
    cosine_between,
    expectation,
    projector,
    sandwich,
    unit_vector,
)
from .stepfn import OMEGA_MAX, OMEGA_MIN, StepFunction, constant

DEFAULT_TOLERANCE = 1e-12
DEFAULT_GRID_POINTS = 2001
DEFAULT_SWEEP_TRIALS = 1000
NORMALIZE_LIMIT = 1e-6
# run_sweep skips or leaves uncounted draws this close to a degenerate case:
# a near-zero normal vector, orthogonal conditioning or (anti-)collinear axes
DEGENERACY_MARGIN = 1e-6

_SCALAR_KEYS = ("lambda", "seed", "trials", "grid_points")
_VECTOR_KEYS = ("state", "n", "m", "c")

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Inputs of one named scenario (parsed from a config file or built in code)."""

    scenario: str
    state: np.ndarray | None = None
    axes: Mapping[str, np.ndarray] = field(default_factory=dict)
    lam: float | None = None
    seed: int | None = None
    trials: int | None = None
    grid_points: int = DEFAULT_GRID_POINTS
    normalize_all_levels: bool = False
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {', '.join(SCENARIO_NAMES)}"
            )
        object.__setattr__(self, "axes", dict(self.axes))
        if self.grid_points < 2:
            raise ConfigError("grid_points must be at least 2")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed!r}")
        missing = [
            key
            for key in _scenario(self.scenario).required
            if (key == "state" and self.state is None)
            or (key == "lambda" and self.lam is None)
            or (key in ("n", "m", "c") and key not in self.axes)
        ]
        if missing:
            raise ConfigError(
                f"scenario {self.scenario!r} is missing required keys: {', '.join(missing)}"
            )

    def axis(self, name: str) -> np.ndarray:
        return self.axes[name]


def _normalize_config_vector(key: str, raw: np.ndarray) -> np.ndarray:
    norm = float(np.sqrt(raw @ raw))
    deviation = abs(norm - 1.0)
    if deviation > NORMALIZE_LIMIT:
        raise ConfigError(
            f"vector {key!r} has norm {norm!r}; beyond the auto-normalization limit {NORMALIZE_LIMIT}"
        )
    if deviation > UNIT_TOLERANCE:
        warnings.warn(
            f"vector {key!r} has norm {norm!r}; normalizing", stacklevel=3
        )
        raw = raw / norm
    return unit_vector(raw, f"vector {key!r}")


def load_config(path) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario config file."""
    text = Path(path).read_text(encoding="utf-8")
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
        if key != "scenario" and key not in _SCALAR_KEYS and key not in _VECTOR_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value

    if "scenario" not in entries:
        raise ConfigError(f"{path}: missing required key 'scenario'")

    def parse_vector(key: str) -> np.ndarray:
        parts = entries[key].split()
        if len(parts) != 3:
            raise ConfigError(f"{path}: vector {key!r} needs three components, got {entries[key]!r}")
        try:
            raw = np.array([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}: vector {key!r} has a non-numeric component") from exc
        if not np.all(np.isfinite(raw)):
            raise ConfigError(f"{path}: vector {key!r} has a non-finite component")
        return _normalize_config_vector(key, raw)

    state = parse_vector("state") if "state" in entries else None
    axes = {key: parse_vector(key) for key in ("n", "m", "c") if key in entries}

    def parse_int(key: str) -> int | None:
        if key not in entries:
            return None
        try:
            return int(entries[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: {key!r} must be an integer") from exc

    lam = None
    if "lambda" in entries:
        try:
            lam = float(entries["lambda"])
        except ValueError as exc:
            raise ConfigError(f"{path}: 'lambda' must be a real number") from exc

    grid_points = parse_int("grid_points")
    return ScenarioConfig(
        scenario=entries["scenario"],
        state=state,
        axes=axes,
        lam=lam,
        seed=parse_int("seed"),
        trials=parse_int("trials"),
        grid_points=grid_points if grid_points is not None else DEFAULT_GRID_POINTS,
    )


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
        return json.dumps(self.to_dict(), indent=2) + "\n"


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
    return {
        "state": None if config.state is None else [float(v) for v in config.state],
        "axes": {name: [float(v) for v in vec] for name, vec in sorted(config.axes.items())},
        "lambda": config.lam,
        "seed": config.seed,
        "trials": config.trials,
        "grid_points": config.grid_points,
        "normalize_all_levels": config.normalize_all_levels,
        "tolerance": config.tolerance,
    }


# ---------------------------------------------------------------------------
# scenario executors
# ---------------------------------------------------------------------------


def _run_measure_reproduction(config: ScenarioConfig) -> ScenarioReport:
    psi = PureState(config.state)
    m = config.axes["m"]
    value_map = bell_value(psi, m)
    hv = {"measure": value_map.integrate()}
    qm = {"expectation": expectation(psi, projector(m))}
    err = abs(hv["measure"] - qm["expectation"])
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
    product = sandwich(projector(n), projector(m))
    coefficient = 2.0 * product.a
    expected = 0.5 * (1.0 + cosine_between(n, m))
    axis_deviation = float(np.max(np.abs(product.b - coefficient * 0.5 * n)))
    err = max(abs(coefficient - expected), axis_deviation)
    return ScenarioReport(
        qm_values={"coefficient": coefficient, "expected_coefficient": expected},
        max_abs_error=err,
        passed=err <= config.tolerance,
        notes=["quantum-side identity check; no hidden-variable map involved"],
    )


def _run_route_agreement(config: ScenarioConfig) -> ScenarioReport:
    psi = PureState(config.state)
    n = config.axes["n"]
    m = config.axes["m"]
    via_state = route_state_update(n, m)
    via_product = route_operator_product(psi, n, m)
    qm_value = conditional_expectation(psi, projector(m), projector(n))
    hv = {
        "route_state_update": via_state.integrate(),
        "route_operator_product": via_product.integrate(),
    }
    err = max(abs(v - qm_value) for v in hv.values())
    traces = {
        "route_a": via_state,
        "route_b": via_product,
        "difference": via_state - via_product,
    }
    return ScenarioReport(
        hv_values=hv,
        qm_values={"conditional_expectation": qm_value},
        max_abs_error=err,
        passed=err <= config.tolerance,
        traces=traces,
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
    qm_value = conditional_expectation(psi, projector(m), projector(n))
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
    axes = [config.axes["n"], config.axes["m"]]
    if "c" in config.axes:
        axes.append(config.axes["c"])
    history = BranchHistory(psi)
    for axis in axes:
        history, _ = branch(history, axis)
    k = history.depth
    order_values = {
        order: integrate_in_order(history, order, config.normalize_all_levels)
        for order in permutations(range(1, k + 1))
    }
    values = list(order_values.values())
    spread = max(values) - min(values)
    joint_integral = joint_function(history, config.normalize_all_levels).integrate()
    if config.normalize_all_levels:
        qm_value = 1.0
        qm = {"normalized_total": qm_value}
    else:
        sequence = [projector(a) for a in axes]
        qm_value = chain_probability(psi, sequence) / chain_probability(psi, sequence[:-1])
        qm = {"final_outcome_conditional": qm_value}
    hv = {
        "joint_integral": joint_integral,
        "order_spread": spread,
    }
    err = max(spread, max(abs(v - qm_value) for v in values), abs(joint_integral - qm_value))
    return ScenarioReport(
        hv_values=hv,
        qm_values=qm,
        max_abs_error=err,
        passed=err <= config.tolerance,
        notes=[f"levels: {k}; integration orders checked: {len(order_values)}"],
        traces={
            f"level_{level}": node.level_function
            for level, node in enumerate(history.nodes, start=1)
        },
        details={"branch_tree": branching.branch_records(history)},
    )


def _run_idempotence(config: ScenarioConfig) -> ScenarioReport:
    psi = PureState(config.state)
    axis = config.axes["n"]
    branching._require_reducible(psi, axis)
    # first measurement, then three repetitions of the same axis
    history, _ = branch(BranchHistory(psi), axis)
    functions = [history.nodes[0].level_function]
    for _ in range(3):
        history, _ = branch(history, axis)
        functions.append(history.nodes[-1].level_function)
    unit = constant(1.0)
    deviations = [
        max(abs(v - 1.0) for v in fn.values) for fn in functions[1:]
    ]
    exactly_one = all(fn == unit for fn in functions[1:])
    hv = {
        "level_2_max_deviation": deviations[0],
        "levels_3_4_max_deviation": max(deviations[1:]),
    }
    err = max(deviations)
    if exactly_one:
        notes = ["levels 2..4 are identically the constant 1"]
    else:
        notes = ["a repeated level deviates from the constant 1"]
    return ScenarioReport(
        hv_values=hv,
        qm_values={"repeated_outcome_probability": 1.0},
        max_abs_error=err,
        passed=exactly_one and err == 0.0,
        notes=notes,
        traces={f"level_{i + 1}": fn for i, fn in enumerate(functions)},
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
    """A named scenario: the config keys it requires and its executor."""

    name: str
    required: tuple[str, ...]
    run: Callable[[ScenarioConfig], ScenarioReport]


_SCENARIOS = (
    Scenario("measure_reproduction", ("state", "m"), _run_measure_reproduction),
    Scenario("sandwich", ("n", "m"), _run_sandwich),
    Scenario("route_agreement", ("state", "n", "m"), _run_route_agreement),
    Scenario("nonuniqueness", ("state", "n", "m"), _run_nonuniqueness),
    Scenario("classical_rule", ("state", "n", "m"), _run_classical_rule),
    Scenario("sum_conflict", ("state", "n", "m", "lambda"), _run_sum_conflict),
    Scenario("branching_chain", ("state", "n", "m"), _run_branching_chain),
    Scenario("idempotence", ("state", "n"), _run_idempotence),
    Scenario("sweep", (), _run_sweep_scenario),
)

SCENARIO_NAMES = tuple(scenario.name for scenario in _SCENARIOS)


def _scenario(name: str) -> Scenario:
    return _SCENARIOS[SCENARIO_NAMES.index(name)]


def _execute(config: ScenarioConfig) -> ScenarioReport:
    try:
        return _scenario(config.scenario).run(config)
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


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = math.sqrt(float(v @ v))
        if norm > DEGENERACY_MARGIN:
            return unit_vector(v / norm, "random axis")


def run_sweep(seed: int, trials: int, tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Seeded randomized sweep over the package's core invariants.

    Samples unit vectors from a fixed-seed generator, checks measure
    reproduction, route agreement on averages, genericity of pointwise route
    disagreement, order-independent integration, idempotence, branch
    completeness and outcome-tree conservation, and reports counts, worst-case
    errors, and any failing inputs verbatim.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValidationError(f"trials must be an integer of at least 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    failures: list[str] = []

    max_measure_error = 0.0
    for _ in range(trials):
        s, m = _random_unit(rng), _random_unit(rng)
        psi = PureState(s)
        got = bell_value(psi, m).integrate()
        want = expectation(psi, projector(m))
        err = abs(got - want)
        if err > max_measure_error:
            max_measure_error = err
        if err > tolerance:
            failures.append(f"measure_reproduction s={s.tolist()} m={m.tolist()} error={err!r}")

    max_route_error = 0.0
    disagreeing = 0
    route_trials = 0
    while route_trials < trials:
        s, n, m = _random_unit(rng), _random_unit(rng), _random_unit(rng)
        if 1.0 + float(np.dot(n, s)) <= DEGENERACY_MARGIN:
            continue
        route_trials += 1
        psi = PureState(s)
        want = 0.5 * (1.0 + cosine_between(n, m))
        via_state = route_state_update(n, m)
        via_product = route_operator_product(psi, n, m)
        a = via_state.integrate()
        b = via_product.integrate()
        err = max(abs(a - want), abs(b - want))
        if err > max_route_error:
            max_route_error = err
        if err > tolerance:
            failures.append(f"route_agreement s={s.tolist()} n={n.tolist()} m={m.tolist()} error={err!r}")
        if (
            abs(cosine_between(n, m)) < 1.0 - DEGENERACY_MARGIN
            and abs(cosine_between(n, s)) < 1.0 - DEGENERACY_MARGIN
            and disagreement_witness(via_state, via_product).measure > 0.0
        ):
            disagreeing += 1

    order_trials = min(trials, 1000)
    max_order_spread = 0.0
    max_completeness_error = 0.0
    for _ in range(order_trials):
        s = _random_unit(rng)
        history = BranchHistory(PureState(s))
        depth = int(rng.integers(2, 4))
        dead = False
        for _ in range(depth):
            axis = _random_unit(rng)
            selected, comp = branch(history, axis)
            comp_total = selected.nodes[-1].normalizer + comp.nodes[-1].normalizer
            max_completeness_error = max(max_completeness_error, abs(comp_total - 1.0))
            if selected.zero_probability:
                dead = True
                break
            history = selected
        if dead:
            continue
        values = [
            integrate_in_order(history, order)
            for order in permutations(range(1, history.depth + 1))
        ]
        spread = max(values) - min(values)
        if spread > max_order_spread:
            max_order_spread = spread
        if spread > tolerance:
            failures.append(f"order_independence s={s.tolist()} spread={spread!r}")

    idempotence_failures = 0
    for _ in range(order_trials):
        s, axis = _random_unit(rng), _random_unit(rng)
        if 1.0 + float(np.dot(s, axis)) <= DEGENERACY_MARGIN:
            continue
        if branching.repeated_measurement_check(PureState(s), axis) != constant(1.0):
            idempotence_failures += 1
            failures.append(f"idempotence s={s.tolist()} axis={axis.tolist()}")

    tree_trials = min(trials, 100)
    max_tree_error = 0.0
    for _ in range(tree_trials):
        s = _random_unit(rng)
        depth = int(rng.integers(1, 5))
        axes = [_random_unit(rng) for _ in range(depth)]
        table = branching.outcome_probabilities(PureState(s), axes)
        err = abs(sum(table.values()) - 1.0)
        if err > max_tree_error:
            max_tree_error = err
        if err > tolerance:
            failures.append(f"tree_conservation s={s.tolist()} depth={depth} error={err!r}")

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


def emit_trace(config: ScenarioConfig, out_dir) -> list[Path]:
    """Write one ``omega,value`` CSV per step function the scenario produces.

    Sampling points are a uniform grid of ``grid_points`` plus every exact
    breakpoint, so no step edge is missed; values carry 17 significant digits
    and re-integrate (breakpoint-aware) to the reported integrals.  Returns
    the written paths; an empty list means the scenario has no traces.
    """
    traces = scenario_traces(config)
    out = Path(out_dir)
    if not traces:
        return []
    out.mkdir(parents=True, exist_ok=True)
    written = []
    grid = np.linspace(OMEGA_MIN, OMEGA_MAX, config.grid_points)
    for role, fn in traces.items():
        omegas = np.union1d(grid, np.asarray(fn.breakpoints, dtype=float))
        values = fn(omegas)
        path = out / f"{config.scenario}__{role}.csv"
        with path.open("w", encoding="utf-8") as stream:
            stream.write("omega,value\n")
            for omega, value in zip(omegas, values):
                stream.write(f"{omega:.17g},{value:.17g}\n")
        written.append(path)
    return written
