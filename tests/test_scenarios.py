import hashlib
import io
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvlab import (
    ConfigError,
    ScenarioConfig,
    ScenarioError,
    StepFunction,
    ValidationError,
    emit_trace,
    load_config,
    run_scenario,
    run_sweep,
    scenarios,
    unit_vector,
)

from conftest import X, Y, Z

REPO = Path(__file__).resolve().parent.parent
DEMO_CONFIGS = sorted((REPO / "demos" / "configs").glob("*.cfg"))
PINNED_REPORTS = Path(__file__).resolve().parent / "reports"

ROUTE_CFG = """\
# conditional measurement, both routes
scenario = route_agreement
state = 0 0 1
n = 1 0 0
m = 0 1 0
"""


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def test_public_names_resolve_and_are_unique():
    import hvlab

    assert len(hvlab.__all__) == len(set(hvlab.__all__))
    for name in hvlab.__all__:
        assert getattr(hvlab, name) is not None, name


def test_scenario_registry_matches_names_and_demo_configs():
    from hvlab import SCENARIO_NAMES
    from hvlab.scenarios import _SCENARIOS

    assert tuple(scenario.name for scenario in _SCENARIOS) == SCENARIO_NAMES
    assert sorted(path.stem for path in DEMO_CONFIGS) == sorted(SCENARIO_NAMES)
    for path in DEMO_CONFIGS:
        assert load_config(path).scenario == path.stem


def test_scenarios_read_only_config_keys_and_fields():
    from hvlab.scenarios import _KEYS, _SCENARIOS

    known = set(_KEYS) | {f.name for f in fields(ScenarioConfig)}
    for scenario in _SCENARIOS:
        assert set(scenario.reads) <= known, scenario.name


def test_demo_configs_set_only_keys_their_scenario_reads():
    from hvlab.scenarios import _scenario

    for path in DEMO_CONFIGS:
        lines = [line.split("#", 1)[0] for line in path.read_text(encoding="utf-8").splitlines()]
        keys = {line.partition("=")[0].strip() for line in lines if line.strip()}
        assert keys - {"scenario"} <= set(_scenario(path.stem).reads), path.name


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    config = load_config(write_config(tmp_path, ROUTE_CFG))
    assert config.scenario == "route_agreement"
    np.testing.assert_array_equal(config.state, Z)
    np.testing.assert_array_equal(config.axes["n"], X)
    np.testing.assert_array_equal(config.axes["m"], Y)
    assert config.seed is None
    assert config.trials is None
    # config vectors leave the parser validated: unit_vector passes them through
    for vector in (config.state, *config.axes.values()):
        assert unit_vector(vector) is vector
    assert config.grid_points == 2001


def test_load_config_rejects_unknown_and_duplicate_keys(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "scenario = sweep\nbogus = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "scenario = sweep\nseed = 1\nseed = 2\n"))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "seed = 1\n"))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "scenario = sweep\nnot a pair\n"))


def test_load_config_rejects_keys_the_scenario_does_not_read(tmp_path):
    # listed in file order, not in the order of the recognized keys
    text = "scenario = sandwich\nlambda = 0.5\nn = 1 0 0\nstate = 0 0 1\nm = 0 1 0\nseed = 7\n"
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: scenario 'sandwich' does not read keys: lambda, state, seed"
    # every other check comes first, with its own message
    for extra, message in (("seed = -1", "seed must be non-negative"), ("grid_points = 1", "grid_points")):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, f"scenario = sandwich\nn = 1 0 0\nm = 0 1 0\n{extra}\n"))
    with pytest.raises(ConfigError, match="missing required keys: m"):
        load_config(write_config(tmp_path, "scenario = sandwich\nn = 1 0 0\nseed = 7\n"))


def test_load_config_vector_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "scenario = idempotence\nstate = 0 0 1\nn = 1 0\n"))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "scenario = idempotence\nstate = 0 0 1\nn = a b c\n"))
    # norm off by more than the hard limit
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "scenario = idempotence\nstate = 0 0 1\nn = 0 0 1.001\n"))


def test_load_config_normalizes_with_warning(tmp_path):
    text = "scenario = idempotence\nstate = 0 0 1\nn = 0 0 1.00000003\n"
    with pytest.warns(UserWarning, match="normalizing"):
        config = load_config(write_config(tmp_path, text))
    assert abs(float(np.linalg.norm(config.axes["n"])) - 1.0) <= 1e-12
    assert unit_vector(config.axes["n"]) is config.axes["n"]


def test_load_config_accepts_tiny_deviation_silently(tmp_path, recwarn):
    text = "scenario = idempotence\nstate = 0 0 1\nn = 0 0 1.0000000000001\n"
    load_config(write_config(tmp_path, text))
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_missing_required_keys_reported():
    with pytest.raises(ConfigError, match="missing required keys"):
        ScenarioConfig("route_agreement", state=Z, axes={"n": X})
    with pytest.raises(ConfigError, match="lambda"):
        ScenarioConfig("sum_conflict", state=Z, axes={"n": X, "m": Y})
    with pytest.raises(ConfigError):
        ScenarioConfig("unknown_name")


def test_bad_config_field_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="trials must be an integer of at least 1"):
        load_config(write_config(tmp_path, "scenario = sweep\ntrials = 0\n"))
    for trials in (-3, 2.5, "5", True):
        with pytest.raises(ConfigError, match="trials must be an integer of at least 1"):
            ScenarioConfig("sweep", trials=trials)
    for seed in (-1, 2.5, "3", True):
        with pytest.raises(ConfigError, match=r"seed must be non-negative \(an integer\)"):
            ScenarioConfig("sweep", seed=seed)
    for grid_points in (1, 2.5, "5", True):
        with pytest.raises(ConfigError, match=r"grid_points must be at least 2 \(an integer\)"):
            ScenarioConfig("sweep", grid_points=grid_points)
    for tolerance in (0.0, -1e-9, math.inf, math.nan, "1e-9", True):
        with pytest.raises(ConfigError, match=r"tolerance must be positive and finite \(a real number\)"):
            ScenarioConfig("sweep", tolerance=tolerance)
    xy = {"n": X, "m": Y}
    for state in ([0, 0, 5], [0, 0, 2], [0, 0, 1, 0], [math.nan, 0, 1], "0 0 1"):
        with pytest.raises(ConfigError, match="vector 'state' (must be a|has non-finite)"):
            ScenarioConfig("sandwich", state=state, axes=xy)
    with pytest.raises(ConfigError, match="vector 'm' must be a unit vector"):
        ScenarioConfig("sandwich", axes={"n": X, "m": [0.0, 1.0 + 1.6e-9, 0.0]})
    for axes in ({**xy, "q": Z}, {1: Z, **xy}):
        with pytest.raises(ConfigError, match="axis names must be among n, m, c"):
            ScenarioConfig("sandwich", axes=axes)
    for lam in ("0.5", math.nan, math.inf, True):
        with pytest.raises(ConfigError, match="lambda must be a finite real number"):
            ScenarioConfig("sum_conflict", state=Z, axes=xy, lam=lam)
    for flag in ("no", 1, None, np.bool_(True)):
        with pytest.raises(ConfigError, match="normalize_all_levels must be a bool"):
            ScenarioConfig("branching_chain", state=Z, axes=xy, normalize_all_levels=flag)
    # the smallest accepted values still build
    ScenarioConfig("sweep", seed=0, grid_points=2, tolerance=1e-300)
    config = ScenarioConfig("sum_conflict", state=[0, 0, 1], axes=xy, lam=np.float64(0.5))
    assert unit_vector(config.state) is config.state
    assert run_scenario(config).inputs["state"] == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------


def test_route_agreement_scenario_passes():
    report = run_scenario(ScenarioConfig("route_agreement", state=Z, axes={"n": X, "m": Y}))
    assert report.passed
    assert report.hv_values["route_state_update"] == 0.5
    assert report.hv_values["route_operator_product"] == 0.5
    assert report.qm_values["conditional_expectation"] == 0.5
    assert report.max_abs_error == 0.0


def test_classical_rule_scenario_flags_expected_violation():
    report = run_scenario(ScenarioConfig("classical_rule", state=Z, axes={"n": X, "m": Y}))
    assert report.passed  # the violation is the expected physics
    assert report.hv_values["classical_conditional"] == 1.0
    assert report.hv_values["violation"] == 0.5
    assert any("violation observed" in note for note in report.notes)


def test_classical_rule_scenario_commuting_axes_must_agree():
    tilted = np.array([0.8, 0.0, 0.6])  # generic state, not orthogonal to the axes
    report = run_scenario(ScenarioConfig("classical_rule", state=tilted, axes={"n": X, "m": -X}))
    assert report.passed
    assert report.max_abs_error <= 1e-15


def test_classical_rule_scenario_orthogonal_state_degenerate_locus():
    # s exactly orthogonal to collinear axes: the maps for n and -n complement
    # each other there too, so classical conditioning matches the quantum value
    report = run_scenario(ScenarioConfig("classical_rule", state=Z, axes={"n": X, "m": -X}))
    assert report.passed
    assert report.max_abs_error == 0.0
    assert report.hv_values["classical_conditional"] == 0.0


def test_nonuniqueness_scenario_degenerate_note():
    report = run_scenario(ScenarioConfig("nonuniqueness", state=Z, axes={"n": Z, "m": Z}))
    assert report.passed
    assert report.hv_values["disagreement_measure"] == 0.0
    assert any("degenerate agreement" in note for note in report.notes)
    assert report.witnesses == []


def test_nonuniqueness_scenario_generic_witness():
    report = run_scenario(ScenarioConfig("nonuniqueness", state=Z, axes={"n": X, "m": X}))
    assert report.passed
    assert report.hv_values["disagreement_measure"] == 1.0
    assert report.witnesses  # (omega interval, lhs, rhs) records
    assert {"omega_left", "omega_right", "lhs", "rhs"} == set(report.witnesses[0])


def test_sum_conflict_scenario():
    s = (X + Y) / np.sqrt(2.0)
    report = run_scenario(
        ScenarioConfig("sum_conflict", state=s, axes={"n": X, "m": Y}, lam=0.5)
    )
    assert report.passed
    assert report.hv_values["disagreement_measure"] > 0.0
    assert report.max_abs_error <= 1e-12


def test_branching_chain_scenario_three_levels():
    report = run_scenario(
        ScenarioConfig("branching_chain", state=Z, axes={"n": X, "m": Y, "c": Z})
    )
    assert report.passed
    assert "final_outcome_conditional" in report.qm_values
    assert report.hv_values["order_spread"] <= 1e-12
    tree = report.details["branch_tree"]
    assert [node["level"] for node in tree] == [1, 2, 3]
    assert {"axis", "outcome", "normalizer", "breakpoints", "values", "prepared_bloch"} <= set(
        tree[0]
    )


def test_branching_chain_scenario_normalize_all_levels():
    report = run_scenario(
        ScenarioConfig(
            "branching_chain", state=Z, axes={"n": X, "m": Y}, normalize_all_levels=True
        )
    )
    assert report.passed
    assert report.qm_values["normalized_total"] == 1.0
    assert abs(report.hv_values["joint_integral"] - 1.0) <= 1e-12


def test_idempotence_scenario():
    report = run_scenario(ScenarioConfig("idempotence", state=Z, axes={"n": X}))
    assert report.passed
    assert report.hv_values["level_2_max_deviation"] == 0.0
    assert report.hv_values["levels_3_4_max_deviation"] == 0.0


@pytest.mark.parametrize("scenario", ["route_agreement", "nonuniqueness", "classical_rule"])
def test_conditional_oracle_near_orthogonality(tmp_path, scenario):
    # 1 + s.n = 8.04e-5: dividing Tr[rho B A B] by Tr[rho B] was off by 1.7e-12
    text = (
        f"scenario = {scenario}\n"
        "state = 0 0 1\n"
        "n = 0.012680439102806177 0.0 -0.9999196\n"
        "m = 0.6 0.8 0\n"
    )
    config = load_config(write_config(tmp_path, text))
    report = run_scenario(config)
    assert report.passed
    assert report.max_abs_error <= 1e-15
    want = 0.5 * (1.0 + float(config.axes["n"] @ config.axes["m"]))
    assert abs(report.qm_values["conditional_expectation"] - want) <= 1e-15


def test_scenario_error_carries_context():
    with pytest.raises(ScenarioError, match="idempotence"):
        run_scenario(ScenarioConfig("idempotence", state=Z, axes={"n": -Z}))


def test_sweep_scenario_and_run_sweep():
    summary = run_sweep(seed=11, trials=200)
    assert summary["pass"]
    assert summary["max_measure_error"] <= 1e-12
    assert summary["nonuniqueness_fraction"] > 0.99
    assert summary["idempotence_failures"] == 0
    assert summary["failures"] == []
    report = run_scenario(ScenarioConfig("sweep", seed=11, trials=200))
    assert report.passed
    assert report.hv_values["nonuniqueness_fraction"] == summary["nonuniqueness_fraction"]


ZERO = StepFunction((), (0.0,))

# (private check, a stand-in that reports an error, a scenario that runs the
# check, the prefix of the failure run_sweep records for it)
_SHARED_CHECKS = [
    (
        "_measure_check",
        lambda psi, m: ({}, {}, 1.0, ZERO),
        ScenarioConfig("measure_reproduction", state=Z, axes={"m": X}),
        "measure_reproduction ",
    ),
    (
        "_route_check",
        lambda psi, n, m: ({}, {}, 1.0, ZERO, ZERO),
        ScenarioConfig("route_agreement", state=Z, axes={"n": X, "m": Y}),
        "route_agreement ",
    ),
    (
        "_route_check",
        lambda psi, n, m: ({}, {}, 1.0, ZERO, ZERO),
        ScenarioConfig("nonuniqueness", state=Z, axes={"n": X, "m": Y}),
        "route_agreement ",
    ),
    (
        "_order_check",
        lambda history, normalize_all_levels=False: ([0.0], 1.0),
        ScenarioConfig("branching_chain", state=Z, axes={"n": X, "m": Y}),
        "order_independence ",
    ),
    (
        "_idempotence_check",
        lambda psi, axis: (ZERO, 1.0),
        ScenarioConfig("idempotence", state=Z, axes={"n": X}),
        "idempotence ",
    ),
]


@pytest.mark.parametrize(
    "check, broken, config, failure", _SHARED_CHECKS, ids=[case[2].scenario for case in _SHARED_CHECKS]
)
def test_scenario_and_sweep_share_each_check(monkeypatch, check, broken, config, failure):
    # a check that reports an error must fail both its scenario and the sweep
    monkeypatch.setattr(scenarios, check, broken)
    assert not run_scenario(config).passed
    summary = run_sweep(0, 5)
    assert not summary["pass"]
    assert any(line.startswith(failure) for line in summary["failures"])


# (seed, trials, tolerance, the name the error must give); tolerance None keeps
# the default and stays out of the test id
_BAD_SWEEP_INPUTS = [
    (-1, 5, None, "seed"),
    (1.5, 5, None, "seed"),
    (True, 5, None, "seed"),
    ("3", 5, None, "seed"),
    (0, 2.5, None, "trials"),
    (0, True, None, "trials"),
    (0, "5", None, "trials"),
    (0, 0, None, "trials"),
    (0, 3, math.nan, "tolerance"),
    (0, 3, math.inf, "tolerance"),
    (0, 3, 0, "tolerance"),
    (0, 3, -1e-9, "tolerance"),
    (0, 3, "x", "tolerance"),
    (0, 3, True, "tolerance"),
]


@pytest.mark.parametrize(
    "seed, trials, tolerance, bad",
    _BAD_SWEEP_INPUTS,
    ids=["-".join(str(v) for v in case if v is not None) for case in _BAD_SWEEP_INPUTS],
)
def test_run_sweep_rejects_bad_seed_and_trials(seed, trials, tolerance, bad):
    kwargs = {} if tolerance is None else {"tolerance": tolerance}
    with pytest.raises(ValidationError, match=bad):
        run_sweep(seed, trials, **kwargs)


# ---------------------------------------------------------------------------
# report determinism
# ---------------------------------------------------------------------------


def test_report_deterministic_up_to_runtime(tmp_path):
    config = load_config(write_config(tmp_path, ROUTE_CFG))
    first = run_scenario(config).to_dict()
    second = run_scenario(config).to_dict()
    first.pop("runtime_ms")
    second.pop("runtime_ms")
    assert json.dumps(first) == json.dumps(second)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e22, 0.1 + 0.2, 5e-324]),
    st.text(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=40, deadline=None)
@example(
    {
        "floats": [math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e22, 0.1 + 0.2, 5e-324, 1 / 3],
        "ints": [2**100, -(2**70), True, 1, False, 0, None],
        "tuple": (1, (2.5, "x"), ()),
        "text": "caf\u00e9 \x00\x1f\n\t\"\\ \u2028 \U0001f600",
        "k\u00e9y\x01": {},
        "empty": [[], {}, (), ""],
    }
)
@given(_JSON_VALUES)
def test_indented_json_matches_json_dumps(value):
    # json.dumps stays the reference for the writer behind to_json and the CLI
    assert scenarios._indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), np.bool_(True), {1}, object(), {1: 0}],
    ids=["int64", "bool_", "set", "object", "int_key"],
)
def test_indented_json_rejects_what_it_cannot_write(value):
    for container in (value, [0.5, value], {"key": {"inner": value}}):
        with pytest.raises(TypeError):
            scenarios._indented_json(container)


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_report_bytes_are_pinned(path):
    # tests/reports/<name>.json holds each demo config's to_json() text with the
    # last key, runtime_ms, removed; refactors must reproduce it byte for byte
    text = run_scenario(load_config(path)).to_json()
    masked, count = re.subn(r',\n  "runtime_ms": [^\n]*\n\}\n\Z', "\n}\n", text)
    assert count == 1
    pinned = (PINNED_REPORTS / f"{path.stem}.json").read_text(encoding="utf-8")
    assert masked == pinned


def test_report_carries_its_traces_outside_the_json(tmp_path):
    config = load_config(write_config(tmp_path, ROUTE_CFG))
    report = run_scenario(config)
    assert set(report.traces) == {"route_a", "route_b", "difference"}
    assert report.traces["route_a"].integrate() == report.hv_values["route_state_update"]
    assert "traces" not in report.to_dict()
    assert "traces" not in repr(report)


def test_report_echoes_only_the_axes_its_scenario_reads():
    config = ScenarioConfig("measure_reproduction", state=Z, axes={"m": X, "n": Y, "c": Z})
    assert run_scenario(config).inputs["axes"] == {"m": [1.0, 0.0, 0.0]}


def test_report_json_shape(tmp_path):
    config = load_config(write_config(tmp_path, ROUTE_CFG))
    report = run_scenario(config)
    data = json.loads(report.to_json())
    assert list(data) == [
        "scenario",
        "inputs",
        "hv_values",
        "qm_values",
        "max_abs_error",
        "witnesses",
        "pass",
        "notes",
        "details",
        "runtime_ms",
    ]
    assert data["inputs"]["axes"] == {"m": [0.0, 1.0, 0.0], "n": [1.0, 0.0, 0.0]}
    assert data["pass"] is True


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def reintegrate_csv(path) -> float:
    rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
    points = [tuple(float(part) for part in row.split(",")) for row in rows]
    total = 0.0
    for (omega0, value0), (omega1, _) in zip(points, points[1:]):
        total += value0 * (omega1 - omega0)
    return total


def test_emit_trace_route_pair(tmp_path):
    config = ScenarioConfig("nonuniqueness", state=Z, axes={"n": X, "m": X}, grid_points=101)
    written = emit_trace(config, tmp_path / "traces")
    names = sorted(p.name for p in written)
    assert names == [
        "nonuniqueness__difference.csv",
        "nonuniqueness__route_a.csv",
        "nonuniqueness__route_b.csv",
    ]
    by_role = {p.name.split("__")[1].removesuffix(".csv"): p for p in written}
    rows_a = by_role["route_a"].read_text().strip().splitlines()
    assert rows_a[0] == "omega,value"
    assert all(row.endswith(",1") for row in rows_a[1:])  # route A is constant 1
    values_b = {float(row.split(",")[1]) for row in by_role["route_b"].read_text().strip().splitlines()[1:]}
    assert values_b == {0.0, 2.0}

    report = run_scenario(config)
    assert abs(reintegrate_csv(by_role["route_a"]) - report.hv_values["route_state_update"]) <= 1e-12
    assert abs(reintegrate_csv(by_role["route_b"]) - report.hv_values["route_operator_product"]) <= 1e-12
    assert abs(reintegrate_csv(by_role["difference"])) <= 1e-12


def test_emit_trace_includes_exact_breakpoints(tmp_path):
    # a coarse even grid misses the breakpoint at -0.3 unless it is inserted
    config = ScenarioConfig(
        "measure_reproduction",
        state=Z,
        axes={"m": np.array([0.8, 0.0, 0.6])},
        grid_points=11,
    )
    (path,) = emit_trace(config, tmp_path)
    omegas = [float(row.split(",")[0]) for row in path.read_text().strip().splitlines()[1:]]
    assert -0.3 in omegas
    report = run_scenario(config)
    assert abs(reintegrate_csv(path) - report.hv_values["measure"]) <= 1e-12


def test_emit_trace_no_functions(tmp_path):
    config = ScenarioConfig("sandwich", axes={"n": X, "m": Y})
    assert emit_trace(config, tmp_path / "nothing") == []
    assert not (tmp_path / "nothing").exists()


def test_emit_trace_skips_scenarios_without_traces(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a scenario without traces was run")

    monkeypatch.setattr(scenarios, "run_sweep", never)
    monkeypatch.setattr(scenarios, "scenario_traces", never)
    assert emit_trace(ScenarioConfig("sweep", seed=3, trials=50), tmp_path / "sweep") == []
    assert emit_trace(ScenarioConfig("sandwich", axes={"n": X, "m": Y}), tmp_path / "sw") == []
    assert not any(tmp_path.iterdir())


def emit_hand_built_trace(monkeypatch, tmp_path, fn: StepFunction, grid_points: int) -> bytes:
    # the scenario only supplies the config; its traces are replaced by fn
    monkeypatch.setattr(scenarios, "scenario_traces", lambda config: {"f": fn})
    config = ScenarioConfig("idempotence", state=Z, axes={"n": X}, grid_points=grid_points)
    (path,) = emit_trace(config, tmp_path)
    assert path.name == "idempotence__f.csv"
    return path.read_bytes()


def reference_trace_bytes(fn: StepFunction, grid_points: int) -> bytes:
    # the row-by-row formatting the CSV format is defined by
    grid = np.linspace(-0.5, 0.5, grid_points)
    omegas = np.union1d(grid, np.asarray(fn.breakpoints, dtype=float))
    rows = "".join(f"{omega:.17g},{value:.17g}\n" for omega, value in zip(omegas, fn(omegas)))
    return ("omega,value\n" + rows).encode("ascii")


@pytest.mark.parametrize(
    "fn, expected",
    [
        (StepFunction((-0.0,), (-0.0, 1.0)), b"omega,value\n-0.5,-0\n0,1\n0.5,1\n"),
        (
            StepFunction((0.0, 0.25), (1.0, -0.0, 2.5)),
            b"omega,value\n-0.5,1\n0,-0\n0.25,2.5\n0.5,2.5\n",
        ),
    ],
)
def test_emit_trace_keeps_signed_zeros_apart(monkeypatch, tmp_path, fn, expected):
    assert emit_hand_built_trace(monkeypatch, tmp_path, fn, 3) == expected
    assert reference_trace_bytes(fn, 3) == expected


def test_emit_trace_across_write_blocks(monkeypatch, tmp_path):
    grid_points = 2 * scenarios._TRACE_BLOCK_ROWS + 1001
    grid = np.linspace(-0.5, 0.5, grid_points)
    # breakpoints on the grid, between grid points and on a block edge, in the
    # first and the last block
    edge = float(grid[scenarios._TRACE_BLOCK_ROWS])
    breakpoints = (float(grid[7]), 0.5 * float(grid[100] + grid[101]), edge, 0.49, float(grid[-3]))
    fn = StepFunction(breakpoints, (0.25, -0.0, 1.0 / 3.0, 0.0, 2.0, -1.5))
    assert emit_hand_built_trace(monkeypatch, tmp_path, fn, grid_points) == reference_trace_bytes(
        fn, grid_points
    )


def test_trace_rows_take_grid_text_for_an_equal_breakpoint():
    # a -0.0 breakpoint equals the grid's 0.0: one row, with the grid's text,
    # as np.union1d keeps one of them; a -0.0 segment value still prints as -0
    fn = StepFunction((-0.0, 0.375), (1.0, -0.0, 2.0))
    stream = io.BytesIO()
    scenarios._GridRows(np.linspace(-0.5, 0.5, 5)).write(stream, fn)
    assert stream.getvalue() == b"-0.5,1\n-0.25,1\n0,-0\n0.25,-0\n0.375,2\n0.5,2\n"


def percent_g_rows(values) -> bytes:
    # the row-by-row formatting the grid text is defined by
    return b"".join(b"%.17g\n" % w for w in values.tolist())


def test_grid_rows_are_the_percent_g_text():
    sizes = [*range(2, 601), 4095, 4096, 4097, 2 * scenarios._TRACE_BLOCK_ROWS + 1001, 20001]
    for grid_points in sizes:
        grid = np.linspace(-0.5, 0.5, grid_points)
        rows = scenarios._GridRows(grid)
        assert rows.text == percent_g_rows(grid), grid_points
        assert len(rows.offsets) == grid_points + 1 and rows.offsets[-1] == len(rows.text)


def dyadic_ties() -> np.ndarray:
    # every odd / 2**m in [1e-4, 0.5] whose 17th significant digit is followed
    # by exactly one half: m = k + 1 for the k = 17..20 decimals of its decade
    ties = []
    for k, low, high in ((17, 0.1, 0.5), (18, 0.01, 0.1), (19, 0.001, 0.01), (20, 1e-4, 0.001)):
        scale = 2.0 ** (k + 1)
        odd = np.arange(math.ceil(low * scale) | 1, math.floor(high * scale) + 1, 2)
        ties.append(odd / scale)
    ties = np.concatenate(ties)
    return np.concatenate([ties, -ties])


def ulps_around(x: float, count: int = 50) -> list[float]:
    below, above, out = x, x, [x]
    for _ in range(count):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def log_uniform(rng, size: int) -> np.ndarray:
    # magnitudes log-uniform in [1e-6, 0.5], with random signs
    magnitudes = np.exp(rng.uniform(math.log(1e-6), math.log(0.5), size))
    return rng.choice([-1.0, 1.0], size) * magnitudes


FORMATTER_INPUTS = {
    "dyadic ties": dyadic_ties,
    "ulps around 0.5 and the powers of ten": lambda: np.array(
        [s * x for p in (0.5, 1e-1, 1e-2, 1e-3, 1e-4) for x in ulps_around(p) for s in (1, -1)]
    ),
    "zeros and edges": lambda: np.array([0.0, -0.0, 5e-324, 1e-17, math.nextafter(1e-4, 0.0)]),
    "log-uniform magnitudes": lambda: log_uniform(np.random.default_rng(15), 10**5),
}


@pytest.mark.parametrize("name", FORMATTER_INPUTS)
def test_format_rows_is_percent_g(name):
    values = FORMATTER_INPUTS[name]()
    text, lengths = scenarios._format_rows(values)
    expected = percent_g_rows(values)
    assert text == expected
    newlines = np.flatnonzero(np.frombuffer(expected, np.uint8) == ord("\n"))
    np.testing.assert_array_equal(lengths, np.diff(newlines, prepend=-1))


@pytest.mark.parametrize("grid_points", [2, 5, 2001])
def test_trace_rows_match_the_union_reference(grid_points):
    grid = np.linspace(-0.5, 0.5, grid_points)
    rows = scenarios._GridRows(grid)
    rng = np.random.default_rng(grid_points)
    for _ in range(200):
        # breakpoints on interior grid values, anywhere, and a pair between
        # two adjacent grid points
        points = set(rng.choice(grid, 3).tolist()) | set(rng.uniform(-0.5, 0.5, 2).tolist())
        lo, hi = grid[(i := int(rng.integers(grid_points - 1))) : i + 2].tolist()
        points |= {lo + (hi - lo) / 3, hi - (hi - lo) / 3}
        breakpoints = sorted(p for p in points if -0.5 < p < 0.5)
        values = rng.choice([-1.5, -0.0, 0.0, 1.0 / 3.0, 1.0, 2.0], len(breakpoints) + 1)
        fn = StepFunction(breakpoints, values)
        stream = io.BytesIO()
        rows.write(stream, fn)
        u = np.union1d(grid, fn.breakpoints)
        assert stream.getvalue() == b"".join(b"%.17g,%.17g\n" % (w, v) for w, v in zip(u, fn(u)))


TRACE_PIN_GRIDS = (2, 2001, 20001)


def trace_digest(written) -> str:
    # each CSV's file name and then its bytes, in the order emit_trace returns them
    sha = hashlib.sha256()
    for path in written:
        sha.update(path.name.encode() + b"\n")
        sha.update(path.read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("grid_points", TRACE_PIN_GRIDS)
@pytest.mark.parametrize(
    "path", [p for p in DEMO_CONFIGS if p.stem != "sweep"], ids=lambda p: p.stem
)
def test_demo_config_trace_bytes_are_pinned(path, grid_points, tmp_path):
    # tests/reports/trace_digests.json holds the sha256 of each demo config's
    # CSVs at three grid sizes; rewrites of the write path must reproduce them
    config = replace(load_config(path), grid_points=grid_points)
    pinned = json.loads((PINNED_REPORTS / "trace_digests.json").read_text(encoding="utf-8"))
    assert trace_digest(emit_trace(config, tmp_path)) == pinned[path.stem][str(grid_points)]


def test_reintegration_across_all_trace_scenarios(tmp_path):
    cases = [
        ScenarioConfig("route_agreement", state=Z, axes={"n": X, "m": Y}, grid_points=301),
        ScenarioConfig(
            "sum_conflict",
            state=(X + Y) / np.sqrt(2.0),
            axes={"n": X, "m": Y},
            lam=0.25,
            grid_points=301,
        ),
        ScenarioConfig("idempotence", state=Z, axes={"n": X}, grid_points=301),
        ScenarioConfig("classical_rule", state=Z, axes={"n": X, "m": Y}, grid_points=301),
    ]
    from hvlab.scenarios import scenario_traces

    for config in cases:
        traces = scenario_traces(config)
        for path in emit_trace(config, tmp_path / config.scenario):
            role = path.name.split("__")[1].removesuffix(".csv")
            assert abs(reintegrate_csv(path) - traces[role].integrate()) <= 1e-12
