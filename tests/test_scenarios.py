import json
from pathlib import Path

import numpy as np
import pytest

from hvlab import (
    ConfigError,
    ScenarioConfig,
    ScenarioError,
    ValidationError,
    emit_trace,
    load_config,
    run_scenario,
    run_sweep,
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
seed = 7
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


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    config = load_config(write_config(tmp_path, ROUTE_CFG))
    assert config.scenario == "route_agreement"
    np.testing.assert_array_equal(config.state, Z)
    np.testing.assert_array_equal(config.axis("n"), X)
    np.testing.assert_array_equal(config.axis("m"), Y)
    assert config.seed == 7
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
    assert abs(float(np.linalg.norm(config.axis("n"))) - 1.0) <= 1e-12
    assert unit_vector(config.axis("n")) is config.axis("n")


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
    want = 0.5 * (1.0 + float(config.axis("n") @ config.axis("m")))
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


@pytest.mark.parametrize(
    "seed, trials, bad",
    [
        (-1, 5, "seed"),
        (1.5, 5, "seed"),
        (True, 5, "seed"),
        ("3", 5, "seed"),
        (0, 2.5, "trials"),
        (0, True, "trials"),
        (0, "5", "trials"),
        (0, 0, "trials"),
    ],
)
def test_run_sweep_rejects_bad_seed_and_trials(seed, trials, bad):
    with pytest.raises(ValidationError, match=bad):
        run_sweep(seed, trials)


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


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_report_bytes_are_pinned(path):
    # tests/reports/<name>.json holds each demo config's report with runtime_ms
    # removed; refactors must reproduce it byte for byte
    report = run_scenario(load_config(path)).to_dict()
    del report["runtime_ms"]
    pinned = (PINNED_REPORTS / f"{path.stem}.json").read_text(encoding="utf-8")
    assert json.dumps(report, indent=2) + "\n" == pinned


def test_report_carries_its_traces_outside_the_json(tmp_path):
    config = load_config(write_config(tmp_path, ROUTE_CFG))
    report = run_scenario(config)
    assert set(report.traces) == {"route_a", "route_b", "difference"}
    assert report.traces["route_a"].integrate() == report.hv_values["route_state_update"]
    assert "traces" not in report.to_dict()
    assert "traces" not in repr(report)


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
