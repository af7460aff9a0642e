import builtins
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
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
    route_state_update,
    run_scenario,
    run_sweep,
    scenarios,
    unit_vector,
)

from hvlab.cli import main

from conftest import X, Y, Z, random_unit

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


def test_load_config_skips_a_utf8_byte_order_mark(tmp_path):
    # the mark some editors write: one leading U+FEFF is dropped, a second is a key's text
    plain = load_config(write_config(tmp_path, ROUTE_CFG))
    assert load_config(write_config(tmp_path, "\ufeff" + ROUTE_CFG, "bom.cfg")) == plain
    with pytest.raises(ConfigError, match=r"unknown key '\\ufeffscenario'"):
        load_config(write_config(tmp_path, "\ufeff\ufeffscenario = sweep\n", "two.cfg"))


@pytest.mark.parametrize(
    "raw",
    [
        ROUTE_CFG.replace("\n", "\r\n").encode(),
        ROUTE_CFG.replace("\n", "\r").encode(),
        ROUTE_CFG.replace("\n", "\r\r\n").encode(),
        ("\ufeff" + ROUTE_CFG).replace("\n", "\r\n").encode(),
        ROUTE_CFG.replace("\n", "\x0c").encode(),
        b"scenario = sweep\r\n\rnot a pair\r\n",
    ],
    ids=["crlf", "cr", "cr-crlf", "bom-crlf", "form-feed", "error-line"],
)
def test_load_config_reads_bytes_as_text_with_universal_newlines(tmp_path, raw):
    # the config is decoded from its bytes, with no newline translation:
    # splitlines gives the lines Path.read_text would, and so the same config
    # or the same error, line number included
    path = tmp_path / "raw.cfg"
    path.write_bytes(raw)

    def loaded():
        try:
            return load_config(path)
        except ConfigError as exc:
            return str(exc)

    actual = loaded()
    text = path.read_text(encoding="utf-8")
    path.write_bytes(text.encode("utf-8"))
    assert loaded() == actual
    assert isinstance(actual, ScenarioConfig) or ":3: expected 'key = value'" in actual


@pytest.mark.parametrize("offset", [0, 37, 10_000])
def test_load_config_names_the_position_of_an_invalid_utf8_byte(tmp_path, offset):
    body = (ROUTE_CFG + "# " + "padding " * 2_000 + "\n").replace("\n", "\r\n").encode()
    path = tmp_path / "bad.cfg"
    path.write_bytes(body[:offset] + b"\xff" + body[offset:])
    with pytest.raises(UnicodeDecodeError) as decoding:
        path.read_text(encoding="utf-8")
    with pytest.raises(ConfigError) as failure:
        load_config(path)
    assert str(failure.value) == f"{path}: config is not UTF-8 text: {decoding.value}"
    assert f"position {offset}:" in str(failure.value)


def test_load_config_reads_past_one_chunk_and_through_short_reads(monkeypatch, tmp_path):
    # os.read returns at most _READ_CHUNK bytes, and may return fewer
    plain = load_config(write_config(tmp_path, ROUTE_CFG))
    padded = write_config(tmp_path, ("#" * 99 + "\n") * 3_072 + ROUTE_CFG, "padded.cfg")
    assert padded.stat().st_size > 300 * 1024 > scenarios._READ_CHUNK
    assert load_config(padded) == plain
    reads = []

    def short_read(fd, n, _read=os.read):
        reads.append(n)
        return _read(fd, min(n, 7))

    monkeypatch.setattr(scenarios.os, "read", short_read)
    assert load_config(write_config(tmp_path, "\ufeff" + ROUTE_CFG, "bom.cfg")) == plain
    monkeypatch.undo()
    assert len(reads) == math.ceil(len(("\ufeff" + ROUTE_CFG).encode()) / 7) + 1


def test_load_config_and_run_open_no_buffered_file(monkeypatch, tmp_path):
    # the config is read and the report written through descriptors alone
    path = write_config(tmp_path, ROUTE_CFG, "route.cfg")
    expected = load_config(path)

    def refused(*args, **kwargs):
        raise AssertionError(f"buffered open of {args[0]!r}")

    for module in (builtins, io):
        monkeypatch.setattr(module, "open", refused)
    assert load_config(path) == expected
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    assert (tmp_path / "out" / "route_agreement__report.json").is_file()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_load_config_closes_its_descriptor_on_every_outcome(tmp_path):
    good = write_config(tmp_path, ROUTE_CFG)
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"scenario = \xff\n")

    def descriptors():
        return len(os.listdir("/proc/self/fd"))

    for path, error in [(good, None), (tmp_path, "Is a directory"), (bad, "not UTF-8")]:
        before = descriptors()
        if error is None:
            load_config(path)
        else:
            with pytest.raises(ConfigError, match=error):
                load_config(path)
        assert descriptors() == before, path


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
    for extra, message in (
        ("seed = -1", "seed must be an integer of at least 0"),
        ("grid_points = 1", "grid_points"),
    ):
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
        with pytest.raises(ConfigError, match="seed must be an integer of at least 0"):
            ScenarioConfig("sweep", seed=seed)
    for grid_points in (1, 2.5, "5", True):
        with pytest.raises(ConfigError, match="grid_points must be an integer of at least 2"):
            ScenarioConfig("sweep", grid_points=grid_points)
    assert ScenarioConfig("sweep", grid_points=np.int64(10**7)).grid_points == 10**7
    for grid_points in (10**7 + 1, np.int64(10**14), 10**23):
        message = f"^grid_points {int(grid_points)} is too large: at most 10000000$"
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig("sweep", grid_points=grid_points)
    for tolerance in (0.0, -1e-9):
        with pytest.raises(ConfigError, match="tolerance must be positive, got"):
            ScenarioConfig("sweep", tolerance=tolerance)
    for tolerance in (math.inf, math.nan, "1e-9", True):
        with pytest.raises(ConfigError, match="tolerance must be a finite real number"):
            ScenarioConfig("sweep", tolerance=tolerance)
    xy = {"n": X, "m": Y}
    for state in ([0, 0, 5], [0, 0, 2], [0, 0, 1, 0], [math.nan, 0, 1], "0 0 1"):
        with pytest.raises(ConfigError, match="vector 'state' (must be a|has non-finite)"):
            ScenarioConfig("sandwich", state=state, axes=xy)
    with pytest.raises(ConfigError, match="vector 'm' must be a unit vector"):
        ScenarioConfig("sandwich", axes={"n": X, "m": [0.0, 1.0 + 1.6e-9, 0.0]})
    with pytest.raises(ConfigError, match="axes must map axis names to vectors, got None"):
        ScenarioConfig("sandwich", axes=None)
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


# a branching chain whose selected branch at the given level has probability 0
ZERO_LEVEL_CHAINS = {
    1: "scenario = branching_chain\nstate = 0 0 1\nn = 0 0 -1\nm = 1 0 0\n",
    2: "scenario = branching_chain\nstate = 0 0 1\nn = 1 0 0\nm = -1 0 0\nc = 0 0 1\n",
}


@pytest.mark.parametrize("level", ZERO_LEVEL_CHAINS)
def test_branching_chain_through_a_zero_probability_level_exits_two(tmp_path, capsys, level):
    message = (
        f"scenario 'branching_chain': level {level} has normalizer 0.0; "
        "cannot divide by a zero-probability branch"
    )
    config = write_config(tmp_path, ZERO_LEVEL_CHAINS[level])
    with pytest.raises(ScenarioError) as raised:
        run_scenario(load_config(config))
    assert str(raised.value) == message
    assert main(["run", str(config)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# branching chains where only the final selected outcome has probability 0
FINAL_ZERO_CHAINS = {
    2: "scenario = branching_chain\nstate = 0 0 1\nn = 1 0 0\nm = -1 0 0\n",
    3: "scenario = branching_chain\nstate = 0 0 1\nn = 1 0 0\nm = 0 1 0\nc = 0 -1 0\n",
}


@pytest.mark.parametrize("levels", FINAL_ZERO_CHAINS)
def test_branching_chain_with_an_impossible_final_outcome_passes(tmp_path, capsys, levels):
    # the quantum chain stops at the last step, but that outcome's
    # conditional (the last chain step) is defined and is 0
    config = write_config(tmp_path, FINAL_ZERO_CHAINS[levels])
    report = run_scenario(load_config(config))
    assert report.passed and report.max_abs_error == 0.0
    assert report.qm_values == {"final_outcome_conditional": 0.0}
    assert report.hv_values["joint_integral"] == 0.0
    tree = report.details["branch_tree"]
    assert [node["zero_probability"] for node in tree] == [False] * (levels - 1) + [True]
    assert main(["run", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    written = emit_trace(load_config(config), tmp_path / "traces")
    assert [p.name for p in written] == [f"branching_chain__level_{k}.csv" for k in range(1, levels + 1)]
    last = written[-1].read_text(encoding="utf-8").splitlines()
    assert last[0] == "omega,value" and all(row.endswith(",0") for row in last[1:])
    # dividing by every level still meets the zero one
    message = (
        f"scenario 'branching_chain': level {levels} has normalizer 0.0; "
        "cannot divide by a zero-probability branch"
    )
    assert main(["run", str(config), "--normalize-all-levels"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_sweep_fails_when_the_routes_always_agree(monkeypatch):
    # both routes then give equal maps on every draw, so no draw disagrees and
    # the genericity bound is the only check that fails; the patch is on the
    # route core that _route_check calls
    def agreeing(s, n, m, _routes=scenarios._routes):
        via_state, _, value = _routes(s, n, m)
        return via_state, route_state_update(n, m), value

    monkeypatch.setattr(scenarios, "_routes", agreeing)
    summary = run_sweep(0, 50)
    assert summary["nonuniqueness_fraction"] == 0.0
    assert summary["pass"] is False
    assert summary["failures"] == ["nonuniqueness fraction 0.0 below the 99% genericity bound"]


class _ShrunkRowRng:
    """A seeded generator whose normal draws, taken as rows of three, have one row scaled to about 1e-9."""

    def __init__(self, seed, shrunk_row):
        self.rng = np.random.default_rng(seed)
        self.shrunk_row = shrunk_row
        self.rows_drawn = 0

    def normal(self, size):
        draws = self.rng.normal(size=size)
        rows = draws.reshape(-1, 3)
        k = -1 if self.shrunk_row is None else self.shrunk_row - self.rows_drawn
        if 0 <= k < len(rows):
            rows[k] *= 1e-9
        self.rows_drawn += len(rows)
        return draws


@pytest.mark.parametrize(
    "count, shrunk_row",
    [
        *(pytest.param(10, row, id=str(row)) for row in (None, 0, 4, 9)),
        pytest.param(1001, 500, id="1001-rows-shrunk-500"),
        pytest.param(9000, scenarios._DRAW_BLOCK_ROWS - 1, id="9000-rows-shrunk-last-of-first-block"),
    ],
)
def test_random_units_yield_the_axes_of_one_at_a_time_draws(count, shrunk_row):
    # a block of k rows is the stream of k draws of three: the same axes, and
    # the generator left in the same state, also when a row is rejected and
    # drawn again; conftest.random_unit is the one-at-a-time draw
    block, single, reference = (_ShrunkRowRng(5, shrunk_row) for _ in range(3))
    axes = list(scenarios._random_units(block, count))
    assert all(unit_vector(axis) is axis for axis in axes)
    assert [list(axis) for axis in axes] == [list(scenarios._random_unit(single)) for _ in range(count)]
    assert [list(axis) for axis in axes] == [random_unit(reference).tolist() for _ in range(count)]
    states = {json.dumps(g.rng.bit_generator.state) for g in (block, single, reference)}
    assert len(states) == 1
    assert block.rows_drawn == single.rows_drawn == count + (shrunk_row is not None)


def test_random_units_taken_one_at_a_time_hold_one_block():
    # blocks are drawn as the axes are taken, so memory does not grow with the count
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        taken = sum(1 for _ in scenarios._random_units(rng, 50_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == 50_000
    assert peak < 3_000_000


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


def without_runtime(text: str) -> str:
    masked, count = re.subn(r',\n  "runtime_ms": [^\n]*\n\}\n\Z', "\n}\n", text)
    assert count == 1
    return masked


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_report_bytes_are_pinned(path):
    # tests/reports/<name>.json holds each demo config's to_json() text with the
    # last key, runtime_ms, removed; refactors must reproduce it byte for byte
    pinned = (PINNED_REPORTS / f"{path.stem}.json").read_text(encoding="utf-8")
    assert without_runtime(run_scenario(load_config(path)).to_json()) == pinned


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
    grid_points = 9193
    grid = np.linspace(-0.5, 0.5, grid_points)
    # breakpoints on the grid, between grid points and on row 4,096, near
    # either end of the grid
    edge = float(grid[4096])
    breakpoints = (float(grid[7]), 0.5 * float(grid[100] + grid[101]), edge, 0.49, float(grid[-3]))
    fn = StepFunction(breakpoints, (0.25, -0.0, 1.0 / 3.0, 0.0, 2.0, -1.5))
    assert emit_hand_built_trace(monkeypatch, tmp_path, fn, grid_points) == reference_trace_bytes(
        fn, grid_points
    )


SEGMENT_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 1.0 / 3.0)


def segment_breakpoints(grid: np.ndarray) -> list[float]:
    # breakpoints on grid points, between grid points and on rows 4,095 and
    # 4,096 where those rows are interior
    last = len(grid) - 1
    on = {1, last // 2, last - 1, 4095, 4096}
    points = {float(grid[i]) for i in on if 0 < i < last}
    for i in {0, last // 2, last - 1}:
        lo, hi = float(grid[i]), float(grid[i + 1])
        points |= {lo + (hi - lo) * f for f in (0.25, 0.5, 0.75)}
    return sorted(points)


def segment_functions(grid_points: int) -> list[StepFunction]:
    # constant 0 and constant 1, then every value in every segment position,
    # with a -0.0 segment on either side of a 0.0 one; stored as given, since
    # the constructor merges -0.0 into a 0.0 neighbour
    breakpoints = tuple(segment_breakpoints(np.linspace(-0.5, 0.5, grid_points)))
    functions = [StepFunction((), (0.0,)), StepFunction((), (1.0,))]
    for order in (SEGMENT_VALUES, SEGMENT_VALUES[::-1]):
        for shift in range(len(order)):
            values = tuple(order[(shift + i) % len(order)] for i in range(len(breakpoints) + 1))
            functions.append(StepFunction._from_canonical(breakpoints, values))
    return functions


@pytest.mark.parametrize("grid_points", [2, 3, 4095, 4096, 4097, 9193])
def test_trace_bytes_for_every_segment_value(monkeypatch, tmp_path, grid_points):
    # 0 and 1 segments are slices of the kept joined texts, every other value
    # (-0.0 among them) a slice of the grid text with its value put in; both
    # give the reference
    for fn in segment_functions(grid_points):
        written = emit_hand_built_trace(monkeypatch, tmp_path, fn, grid_points)
        assert written == reference_trace_bytes(fn, grid_points), (grid_points, fn.values[:3])


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
    sizes = [*range(2, 601), 4095, 4096, 4097, 9193, 20001]
    for grid_points in sizes:
        grid = np.linspace(-0.5, 0.5, grid_points)
        rows = scenarios._GridRows(grid)
        expected = percent_g_rows(grid)
        assert rows.text == expected, grid_points
        row_ends = np.flatnonzero(np.frombuffer(expected, np.uint8) == ord("\n")) + 1
        np.testing.assert_array_equal(rows.offsets, [0, *row_ends], err_msg=str(grid_points))


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


def test_demo_config_traces_written_over_longer_and_shorter_files_are_pinned(tmp_path):
    # one directory for every write: each file is written over the previous
    # grid's, which is longer (20001 -> 2), shorter (2 -> 2001, 2001 -> 20001)
    # or, the first time, missing
    pinned = json.loads((PINNED_REPORTS / "trace_digests.json").read_text(encoding="utf-8"))
    for path in DEMO_CONFIGS:
        if path.stem == "sweep":
            continue
        for grid_points in (20001, 2, 2001, 20001):
            config = replace(load_config(path), grid_points=grid_points)
            digest = trace_digest(emit_trace(config, tmp_path))
            assert digest == pinned[path.stem][str(grid_points)], (path.stem, grid_points)


class DiskFull(OSError):
    pass


def test_a_trace_write_that_fails_leaves_no_stale_tail(monkeypatch, tmp_path):
    config = ScenarioConfig("idempotence", state=Z, axes={"n": X}, grid_points=2001)
    path = emit_trace(config, tmp_path)[0]
    old = path.read_bytes()
    parts = []

    def write_a_third_then_fail(self, stream, fn, _write=scenarios._GridRows.write):
        rows = io.BytesIO()
        _write(self, rows, fn)
        parts.append(rows.getvalue()[: len(rows.getvalue()) // 3])
        stream.write(parts[-1])
        raise DiskFull("no space left on device")

    monkeypatch.setattr(scenarios._GridRows, "write", write_a_third_then_fail)
    with pytest.raises(DiskFull):
        emit_trace(config, tmp_path)
    assert path.read_bytes() == b"omega,value\n" + parts[0]
    assert len(parts[0]) > 0 and path.stat().st_size < len(old)


def test_a_trace_write_that_fails_in_a_middle_role_leaves_the_later_roles_unchanged(
    monkeypatch, tmp_path
):
    config = load_config(write_config(tmp_path, ROUTE_CFG, "route.cfg"))
    first, middle, last = emit_trace(config, tmp_path)
    old_last = last.read_bytes()
    new = replace(config, grid_points=21)
    expected_first = reference_trace_bytes(scenarios.scenario_traces(new)[first.stem.split("__")[1]], 21)
    parts = []

    def fail_in_the_second_role(self, stream, fn, _write=scenarios._GridRows.write):
        rows = io.BytesIO()
        _write(self, rows, fn)
        text = rows.getvalue()
        parts.append(text if not parts else text[: len(text) // 3])
        stream.write(parts[-1])
        if len(parts) == 2:
            raise DiskFull("no space left on device")

    monkeypatch.setattr(scenarios._GridRows, "write", fail_in_the_second_role)
    with pytest.raises(DiskFull):
        emit_trace(new, tmp_path)
    assert first.read_bytes() == expected_first == b"omega,value\n" + parts[0]
    assert middle.read_bytes() == b"omega,value\n" + parts[1] and len(parts[1]) > 0
    assert last.read_bytes() == old_last


IDEMPOTENCE_CFG = "scenario = idempotence\nstate = 0 0 1\nn = 1 0 0\n"
BRANCHING_CHAIN_CFG = REPO / "demos" / "configs" / "branching_chain.cfg"  # the longest report

# hvlab's CLI under a file size limit; SIGXFSZ is ignored, so a write past
# the limit is cut short and the next one fails with EFBIG
FSIZE_LIMITED_MAIN = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from hvlab.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_with_file_size_limit(limit: int, *argv) -> subprocess.CompletedProcess:
    pytest.importorskip("resource")
    src = Path(scenarios.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, "-c", FSIZE_LIMITED_MAIN, str(limit), *map(str, argv)]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def test_a_trace_past_a_file_size_limit_is_cut_to_the_bytes_written(tmp_path):
    # a real write failure: the first role stops at the limit with no tail of
    # the longer 20,001-point file it rewrites; the later roles keep theirs
    config = write_config(tmp_path, IDEMPOTENCE_CFG, "idempotence.cfg")
    out = tmp_path / "out"
    assert main(["trace", str(config), "--out", str(out), "--grid-points", "20001"]) == 0
    first, *later = sorted(out.glob("*.csv"))
    old_later = [path.read_bytes() for path in later]
    assert first.stat().st_size > 400_000
    done = run_with_file_size_limit(20_000, "trace", config, "--out", out, "--grid-points", 2001)
    assert done.returncode == 2 and f"[Errno {errno.EFBIG}]" in done.stderr, done.stderr
    fn = scenarios.scenario_traces(replace(load_config(config), grid_points=2001))["level_1"]
    assert first.read_bytes() == reference_trace_bytes(fn, 2001)[:20_000]
    assert [path.read_bytes() for path in later] == old_later


def test_a_report_past_a_file_size_limit_is_cut_to_the_bytes_written(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    report = out / "branching_chain__report.json"
    report.write_bytes(b"stale\r\n" * 10_000)
    done = run_with_file_size_limit(1_000, "run", BRANCHING_CHAIN_CFG, "--out", out)
    assert done.returncode == 2 and f"[Errno {errno.EFBIG}]" in done.stderr, done.stderr
    pinned = (PINNED_REPORTS / "branching_chain.json").read_bytes()
    assert report.read_bytes() == pinned[:1_000]


def write_at_most_seven_bytes(fd, data, _write=os.write):
    return _write(fd, memoryview(data)[:7])


def test_short_descriptor_writes_still_write_every_byte(monkeypatch, tmp_path, capsys):
    route = load_config(write_config(tmp_path, ROUTE_CFG, "route.cfg"))
    emit_trace(replace(route, grid_points=20001), tmp_path)  # longer files to write over
    monkeypatch.setattr(scenarios.os, "write", write_at_most_seven_bytes)
    for grid_points in (21, 2001):
        sized = replace(route, grid_points=grid_points)
        traces = scenarios.scenario_traces(sized)
        for path in emit_trace(sized, tmp_path):
            fn = traces[path.stem.split("__")[1]]
            assert path.read_bytes() == reference_trace_bytes(fn, grid_points), (grid_points, path.name)
    out = tmp_path / "out"
    assert main(["run", str(BRANCHING_CHAIN_CFG), "--out", str(out)]) == 0
    written = (out / "branching_chain__report.json").read_text(encoding="utf-8")
    assert written == capsys.readouterr().out
    assert without_runtime(written) == (PINNED_REPORTS / "branching_chain.json").read_text(encoding="utf-8")


def fail_once_full(budget: int):
    # os.write that writes `budget` bytes in all, then raises ENOSPC
    left = [budget]

    def write(fd, data, _write=os.write):
        if left[0] == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        count = _write(fd, memoryview(data)[: left[0]])
        left[0] -= count
        return count

    return write


@pytest.mark.parametrize("budget", [0, 5, 12, 13, 4096, 30_000])
def test_a_trace_on_a_full_disk_holds_exactly_the_bytes_written(monkeypatch, tmp_path, budget):
    config = load_config(write_config(tmp_path, IDEMPOTENCE_CFG, "idempotence.cfg"))
    first = emit_trace(replace(config, grid_points=20001), tmp_path)[0]
    expected = reference_trace_bytes(scenarios.scenario_traces(config)["level_1"], 2001)
    monkeypatch.setattr(scenarios.os, "write", fail_once_full(budget))
    with pytest.raises(OSError) as failure:
        emit_trace(config, tmp_path)
    monkeypatch.undo()
    assert failure.value.errno == errno.ENOSPC
    assert first.read_bytes() == expected[:budget]


@pytest.mark.parametrize("budget", [0, 100, 1_000])
def test_a_report_on_a_full_disk_holds_exactly_the_bytes_written(monkeypatch, tmp_path, budget):
    out = tmp_path / "out"
    out.mkdir()
    report = out / "branching_chain__report.json"
    report.write_bytes(b"stale\r\n" * 10_000)
    monkeypatch.setattr(scenarios.os, "write", fail_once_full(budget))
    assert main(["run", str(BRANCHING_CHAIN_CFG), "--out", str(out)]) == 2
    monkeypatch.undo()
    pinned = (PINNED_REPORTS / "branching_chain.json").read_bytes()
    assert report.read_bytes() == pinned[:budget]


def test_traces_format_a_grid_once_while_its_size_is_one_of_the_last_two(monkeypatch, tmp_path):
    # _grid_rows keeps the two sizes used last: a third size evicts the one
    # used least recently
    config = load_config(write_config(tmp_path, ROUTE_CFG, "route.cfg"))
    calls = []

    def counted_grid_rows(grid, _build=scenarios._GridRows):
        calls.append(len(grid))
        return _build(grid)

    monkeypatch.setattr(scenarios, "_GridRows", counted_grid_rows)
    scenarios._grid_rows.cache_clear()
    formatted = []
    for grid_points in (2001, 2001, 21, 2001, 5, 21):
        calls.clear()
        sized = replace(config, grid_points=grid_points)
        written = emit_trace(sized, tmp_path)
        formatted.append(sum(calls))
        traces = scenarios.scenario_traces(sized)
        for path in written:
            fn = traces[path.stem.split("__")[1]]
            assert path.read_bytes() == reference_trace_bytes(fn, grid_points), (grid_points, path.name)
    assert formatted == [2001, 0, 21, 0, 5, 21]


def test_kept_grid_rows_are_read_only():
    rows = scenarios._grid_rows(5)
    assert scenarios._grid_rows(5) is rows
    with pytest.raises(ValueError):
        rows.grid[0] = 0.0
    with pytest.raises(ValueError):
        rows.offsets[0] = 1
    text = percent_g_rows(np.linspace(-0.5, 0.5, 5))
    assert rows.text == text
    assert sorted(rows.joined) == [b",0\n", b",1\n"]
    for tail, joined in rows.joined.items():
        assert type(joined) is bytes
        with pytest.raises(TypeError):
            joined[0] = 0
        assert joined == text.replace(b"\n", tail)
        assert len(joined) == len(rows.text) + 2 * 5


def test_output_files_are_never_truncated_when_opened(monkeypatch, tmp_path):
    # every trace and report is opened by os.open without O_TRUNC; an open
    # of the path for writing ("wb", write_text) truncates it first; the
    # config is the one path os.open reads, once per load
    os_opens, path_writes = [], []

    def counted_os_open(path, flags, *args, _open=os.open):
        os_opens.append((Path(path).name, flags))
        return _open(path, flags, *args)

    def counted_open(file, mode="r", *args, _open=open, **kwargs):
        if not isinstance(file, int) and set(mode) & set("wax+"):
            path_writes.append((Path(file).name, mode))
        return _open(file, mode, *args, **kwargs)

    config = write_config(tmp_path, ROUTE_CFG, "route.cfg")
    out = tmp_path / "out"
    monkeypatch.setattr(scenarios.os, "open", counted_os_open)
    for module in (builtins, io):
        monkeypatch.setattr(module, "open", counted_open)
    for _ in range(2):  # a new file, then over it
        written = emit_trace(replace(load_config(config), grid_points=21), out)
        assert main(["run", str(config), "--out", str(out)]) == 0
    monkeypatch.undo()
    assert path_writes == []
    writes = [(name, flags) for name, flags in os_opens if flags & os.O_ACCMODE != os.O_RDONLY]
    reads = [name for name, flags in os_opens if flags & os.O_ACCMODE == os.O_RDONLY]
    names = [p.name for p in written] + ["route_agreement__report.json"]
    assert sorted(name for name, _ in writes) == sorted(names * 2)
    assert not any(flags & os.O_TRUNC for _, flags in writes)
    assert reads == ["route.cfg"] * 4  # two load_config calls and two runs


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
