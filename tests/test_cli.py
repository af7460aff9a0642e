import hashlib
import json
import re
from pathlib import Path

import pytest

from hvlab import ScenarioReport, emit_trace, load_config
from hvlab.cli import main

DEMO_CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"

ROUTE_CFG = """\
scenario = route_agreement
state = 0 0 1
n = 1 0 0
m = 0 1 0
"""

SANDWICH_CFG = """\
scenario = sandwich
n = 1 0 0
m = 0 1 0
"""

# a generic triple whose route integrals carry one ulp of roundoff (error
# ~3e-17), so a 1e-18 tolerance makes the scenario fail deterministically
ROUNDOFF_CFG = """\
scenario = route_agreement
state = 0.18881711923692265 -0.19839032737660414 0.9617636786063786
n = 0.16021416297716448 -0.818128926665578 0.5522648652001644
m = 0.7415052042025201 0.5385471155343273 -0.4001712589507583
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_run_passing_scenario(tmp_path, capsys):
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    assert main(["run", str(config)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "route_agreement"
    assert report["pass"] is True


def test_run_exit_code_one_on_failure(tmp_path, capsys):
    config = write(tmp_path, "roundoff.cfg", ROUNDOFF_CFG)
    assert main(["run", str(config), "--tolerance", "1e-18"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["max_abs_error"] > 0.0


def test_run_writes_report_to_out_dir(tmp_path, capsys):
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    out = tmp_path / "reports"
    assert main(["run", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    written = (out / "route_agreement__report.json").read_bytes()
    assert json.loads(written)["pass"] is True
    assert written == stdout.encode("utf-8")


def test_run_rewrites_a_longer_report_to_its_own_bytes(tmp_path, capsys):
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    out = tmp_path / "reports"
    out.mkdir()
    report = out / "route_agreement__report.json"
    report.write_bytes(b"stale\r\n" * 10_000)
    assert main(["run", str(config), "--out", str(out)]) == 0
    assert report.read_bytes() == capsys.readouterr().out.encode("utf-8")


def test_run_honors_out_env_var(tmp_path, capsys, monkeypatch):
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    out = tmp_path / "env_reports"
    monkeypatch.setenv("HVLAB_OUT", str(out))
    assert main(["run", str(config)]) == 0
    capsys.readouterr()
    assert (out / "route_agreement__report.json").exists()


# one file of each kind of malformed config, made at the given path
MALFORMED_CONFIGS = {
    "unknown-scenario": lambda path: path.write_text("scenario = not_a_thing\n", encoding="utf-8"),
    "not-utf8": lambda path: path.write_bytes(b"\xff\xfe"),
    "empty": lambda path: path.write_bytes(b""),
    # control bytes and NULs, valid UTF-8 but no 'key = value' line
    "binary": lambda path: path.write_bytes(bytes(range(32)) * 4),
    "directory": lambda path: path.mkdir(),
    "duplicate-key": lambda path: path.write_text(SANDWICH_CFG + "n = 1 0 0\n", encoding="utf-8"),
    "two-component-vector": lambda path: path.write_text(
        SANDWICH_CFG.replace("n = 1 0 0", "n = 1 0"), encoding="utf-8"
    ),
}


@pytest.mark.parametrize("kind", MALFORMED_CONFIGS)
@pytest.mark.parametrize("command", ["run", "trace"])
def test_run_config_error_exits_two(tmp_path, capsys, command, kind):
    config = tmp_path / "bad.cfg"
    MALFORMED_CONFIGS[kind](config)
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_manifest_of_malformed_configs_reports_each_and_exits_two(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    for kind, make in MALFORMED_CONFIGS.items():
        make(configs / f"{kind}.cfg")
    assert main(["manifest", str(configs)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == len(MALFORMED_CONFIGS) and all(line.startswith("error: ") for line in lines)
    assert "Traceback" not in captured.err
    reports = json.loads(captured.out)["reports"]
    assert [r["config"] for r in reports] == sorted(f"{kind}.cfg" for kind in MALFORMED_CONFIGS)
    assert all(r["pass"] is False and "error" in r for r in reports)


def test_run_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfe")
    assert main(["run", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(config) in captured.err and "UTF-8" in captured.err


def test_config_key_the_scenario_does_not_read_exits_two(tmp_path, capsys):
    config = write(tmp_path, "sandwich.cfg", SANDWICH_CFG + "state = 0 0 1\nlambda = 0.5\n")
    assert main(["run", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}: scenario 'sandwich' does not read keys: state, lambda\n"


def test_run_missing_file_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_negative_seed_exits_two(tmp_path, capsys):
    config = write(tmp_path, "sweep.cfg", "scenario = sweep\nseed = -1\ntrials = 10\n")
    assert main(["run", str(config)]) == 2
    assert main(["sweep", "--seed", "-1", "--trials", "10"]) == 2
    assert "seed must be an integer of at least 0" in capsys.readouterr().err


def test_nan_tolerance_exits_two(tmp_path, capsys):
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    for value in ("nan", "inf"):
        assert main(["run", str(config), "--tolerance", value]) == 2
        assert "tolerance must be a finite real number" in capsys.readouterr().err


def test_non_finite_vector_component_exits_two_with_path(tmp_path, capsys):
    for value in ("nan", "inf"):
        config = write(tmp_path, "route.cfg", ROUTE_CFG.replace("n = 1 0 0", f"n = 1 0 {value}"))
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "non-finite" in err


def test_sweep_command(capsys):
    assert main(["sweep", "--seed", "5", "--trials", "100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "sweep"
    assert report["pass"] is True
    assert report["inputs"]["seed"] == 5


def test_manifest_runs_sorted_configs(tmp_path, capsys):
    write(tmp_path, "b_route.cfg", ROUTE_CFG)
    write(tmp_path, "a_sandwich.cfg", SANDWICH_CFG)
    out = tmp_path / "out"
    assert main(["manifest", str(tmp_path), "--out", str(out)]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert [r["config"] for r in aggregate["reports"]] == ["a_sandwich.cfg", "b_route.cfg"]
    assert aggregate["pass"] is True
    assert (out / "manifest__report.json").exists()
    assert (out / "sandwich__report.json").exists()
    assert (out / "route_agreement__report.json").exists()


def test_manifest_of_demo_configs_stdout_is_pinned(capsys, monkeypatch):
    # sha256 of `hvlab manifest demos/configs` with each runtime_ms value masked
    monkeypatch.delenv("HVLAB_OUT", raising=False)
    assert main(["manifest", str(DEMO_CONFIG_DIR)]) == 0
    masked, count = re.subn(
        r'"runtime_ms": [0-9.e+-]+\n', '"runtime_ms": <masked>\n', capsys.readouterr().out
    )
    assert count == len(list(DEMO_CONFIG_DIR.glob("*.cfg")))
    assert hashlib.sha256(masked.encode()).hexdigest() == (
        "13ca1a97224155768387546b91bb3e656efcf9faf0773cf3de3fb75fd38db33a"
    )


def test_manifest_without_out_serializes_no_report(capsys, monkeypatch):
    # the aggregate reads each report's to_dict(); to_json() is for --out only
    monkeypatch.delenv("HVLAB_OUT", raising=False)
    calls = []
    to_json = ScenarioReport.to_json
    monkeypatch.setattr(ScenarioReport, "to_json", lambda self: calls.append(1) or to_json(self))
    assert main(["manifest", str(DEMO_CONFIG_DIR)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert calls == []


def test_manifest_exit_code_reflects_failures(tmp_path, capsys):
    write(tmp_path, "route.cfg", ROUNDOFF_CFG)
    assert main(["manifest", str(tmp_path), "--tolerance", "1e-18"]) == 1
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["pass"] is False


def test_manifest_empty_directory_exits_two(tmp_path, capsys):
    assert main(["manifest", str(tmp_path)]) == 2


def test_manifest_records_a_bad_config_and_runs_the_rest(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    write(configs, "a_bad.cfg", "scenario = not_a_thing\n")
    write(configs, "b_route.cfg", ROUTE_CFG)
    out = tmp_path / "out"
    assert main(["manifest", str(configs), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not_a_thing" in captured.err
    aggregate = json.loads(captured.out)
    bad, good = aggregate["reports"]
    assert bad == {"config": "a_bad.cfg", "error": captured.err[len("error: "):-1], "pass": False}
    assert good["config"] == "b_route.cfg" and good["pass"] is True
    assert aggregate["pass"] is False
    assert (out / "manifest__report.json").read_text() == captured.out
    assert (out / "route_agreement__report.json").exists()


def test_manifest_records_a_config_that_is_not_utf8_and_runs_the_rest(tmp_path, capsys):
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "a_bad.cfg").write_bytes(b"\xff\xfe")
    write(configs, "b_route.cfg", ROUTE_CFG)
    assert main(["manifest", str(configs)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "a_bad.cfg" in captured.err
    bad, good = json.loads(captured.out)["reports"]
    assert bad == {"config": "a_bad.cfg", "error": captured.err[len("error: "):-1], "pass": False}
    assert good["config"] == "b_route.cfg" and good["pass"] is True


@pytest.mark.parametrize(
    "command, flag",
    [
        ("run", ["--grid-points", "21"]),
        ("sweep", ["--grid-points", "21"]),
        ("sweep", ["--normalize-all-levels"]),
        ("manifest", ["--grid-points", "21"]),
        ("trace", ["--tolerance", "1e-9"]),
        ("trace", ["--normalize-all-levels"]),
    ],
)
def test_flag_that_would_not_change_the_output_is_a_usage_error(tmp_path, capsys, command, flag):
    positional = [] if command == "sweep" else [str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *positional, *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_trace_writes_files(tmp_path, capsys):
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    out = tmp_path / "traces"
    assert main(["trace", str(config), "--out", str(out), "--grid-points", "21"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert sorted(listing["files"]) == [
        "route_agreement__difference.csv",
        "route_agreement__route_a.csv",
        "route_agreement__route_b.csv",
    ]
    for name in listing["files"]:
        assert (out / name).read_text().startswith("omega,value\n")


def test_trace_over_a_directory_exits_two(tmp_path, capsys):
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    out = tmp_path / "traces"
    (out / "route_agreement__route_b.csv").mkdir(parents=True)
    with pytest.raises(OSError):
        emit_trace(load_config(config), out)
    assert main(["trace", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "route_agreement__route_b.csv" in captured.err


def test_a_trace_that_cannot_open_its_last_file_changes_no_other(tmp_path, capsys):
    # every role's path is opened before any byte is written: a directory at
    # the last one leaves the earlier files with the previous run's bytes
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    out = tmp_path / "traces"
    *others, last = emit_trace(load_config(config), out)
    old = {path.name: path.read_bytes() for path in others}
    last.unlink()
    last.mkdir()
    assert main(["trace", str(config), "--out", str(out), "--grid-points", "5"]) == 2
    assert last.name in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in others} == old


def test_a_trace_that_cannot_open_its_last_file_leaves_new_ones_empty(tmp_path, capsys):
    # a role file the failed call created is left empty, not removed
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    out = tmp_path / "traces"
    (out / "route_agreement__difference.csv").mkdir(parents=True)
    assert main(["trace", str(config), "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == [
        "route_agreement__route_a.csv",
        "route_agreement__route_b.csv",
    ]
    assert all(p.stat().st_size == 0 for p in out.iterdir() if p.is_file())


def test_trace_without_out_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HVLAB_OUT", raising=False)
    config = write(tmp_path, "route.cfg", ROUTE_CFG)
    assert main(["trace", str(config)]) == 2


def test_trace_zero_trials_exits_two(tmp_path, capsys):
    config = write(tmp_path, "sweep.cfg", "scenario = sweep\ntrials = 0\n")
    assert main(["trace", str(config), "--out", str(tmp_path / "traces")]) == 2
    assert "trials must be an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


# numpy refuses this size before it allocates anything
TOO_MANY_POINTS = "99999999999999999999999"


@pytest.mark.parametrize("given", ["flag", "config"])
def test_trace_with_a_grid_too_large_for_numpy_exits_two(tmp_path, capsys, given):
    if given == "flag":
        config = write(tmp_path, "route.cfg", ROUTE_CFG)
        flags = ["--grid-points", TOO_MANY_POINTS]
    else:
        config = write(tmp_path, "route.cfg", ROUTE_CFG + f"grid_points = {TOO_MANY_POINTS}\n")
        flags = []
    out = tmp_path / "traces"
    assert main(["trace", str(config), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: grid_points {TOO_MANY_POINTS} ")
    assert "Traceback" not in captured.err
    assert not out.exists()


# one past the bound, one numpy would try to allocate (728 TiB), and one it
# cannot make an array of: the bound refuses each before any grid is built
@pytest.mark.parametrize("points", [10**7 + 1, 10**14, 10**23])
@pytest.mark.parametrize(
    "command, given", [("run", "config"), ("trace", "config"), ("trace", "flag")]
)
def test_a_grid_above_the_bound_exits_two(tmp_path, capsys, points, command, given):
    # run has no --grid-points flag; it reads the config's grid_points as trace does
    if given == "flag":
        config = write(tmp_path, "route.cfg", ROUTE_CFG)
        flags = ["--grid-points", str(points)]
    else:
        config = write(tmp_path, "route.cfg", ROUTE_CFG + f"grid_points = {points}\n")
        flags = []
    out = tmp_path / "out"
    assert main([command, str(config), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid_points {points} is too large: at most 10000000\n"
    assert not out.exists()


def test_trace_no_functions_notice(tmp_path, capsys):
    config = write(tmp_path, "sandwich.cfg", SANDWICH_CFG)
    assert main(["trace", str(config), "--out", str(tmp_path / "traces")]) == 0
    # written by the one JSON writer, indented as the file listing is
    assert capsys.readouterr().out == (
        '{\n  "scenario": "sandwich",\n  "notice": "scenario produces no omega traces"\n}\n'
    )


def test_normalize_all_levels_flag(tmp_path, capsys):
    config = write(
        tmp_path,
        "chain.cfg",
        "scenario = branching_chain\nstate = 0 0 1\nn = 1 0 0\nm = 0 1 0\n",
    )
    assert main(["run", str(config), "--normalize-all-levels"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["normalize_all_levels"] is True
    assert report["qm_values"]["normalized_total"] == 1.0
