import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parents[1]


def _build(name, seed, work_dir):
    if name == "sweep":
        return workloads.sweep(seed, work_dir, trials=20)
    return workloads.WORKLOADS[name](seed, work_dir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_gives_the_untraced_outputs(name, tmp_path):
    workload = _build(name, 3, tmp_path)
    requests = {r.key: r for r in workload.requests}
    untraced = {key: r.check(r.call()) for key, r in requests.items()}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = {key: r.check(r.call()) for key, r in requests.items()}
    for key in requests:
        assert untraced[key].error is None, untraced[key].error
        assert traced[key] == untraced[key], key
    assert sum(tracer.calls.values()) > 0


def test_inputs_follow_the_seed(tmp_path):
    def configs(seed, where):
        return [p.read_text() for p in workloads.write_configs(seed, where, ("sum_conflict",), 2)]

    first = configs(5, tmp_path / "a")
    assert configs(5, tmp_path / "b") == first
    assert configs(6, tmp_path / "c")[1:] != first[1:]
    # the demo config comes first and does not depend on the seed
    assert first[0] == configs(6, tmp_path / "d")[0]


def test_seeded_configs_keep_the_conditioning_outcome_likely(tmp_path):
    # seed 1818872857 once drew a nonuniqueness config with 1 + s.n = 8e-5,
    # whose report failed its tolerance on the oracle's rounding error
    paths = workloads.write_configs(1818872857, tmp_path, tuple(workloads.DEMO_CONFIGS), 128)
    for path in paths:
        config = workloads.hv.load_config(path)
        if config.scenario not in ("route_agreement", "nonuniqueness"):
            continue
        assert 1.0 + float(config.state @ config.axis("n")) >= workloads.CONDITIONING_MARGIN
        assert json.loads(workloads.hv.run_scenario(config).to_json())["pass"] is True, path.name


def test_trace_check_counts_bad_rows_and_values(tmp_path):
    config = workloads.write_configs(1, tmp_path, ("measure_reproduction",), 0, grid_points=10)[0]
    check = workloads.TraceCheck(config)
    written = workloads.hv.emit_trace(workloads.hv.load_config(config), tmp_path / "out")
    good = check(written)
    assert good.error is None and good.rows == 11  # 10 grid points plus the breakpoint at -0.3
    path = written[0]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert "rows" in check(written).error
    lines[3] = lines[3].split(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    assert "non-finite" in check(written).error


def test_ledger_fails_a_repetition_that_differs():
    ledger = worker.Ledger()
    ledger.record("k", workloads.Outcome(b"same"), first_pass=True)
    ledger.record("k", workloads.Outcome(b"same"), first_pass=False)
    assert ledger.failed == 0
    ledger.record("k", workloads.Outcome(b"other"), first_pass=False)
    ledger.record("j", workloads.Outcome(b"x", error="did not pass"), first_pass=False)
    assert ledger.failed == 2
    assert "differs" in ledger.errors[0]


def _run(*args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    result = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_holds_exactly_the_declared_metrics(trace, key):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = _run("--workload", "scenarios", "--seed", "1", "--seconds", "0", "--trace", trace, cwd=BENCH.parent)
    assert result.returncode == 0, result.stderr
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared


def test_a_request_is_scaled_by_the_calibrations_around_it():
    timeline = worker.Timeline()
    timeline.calibrations = [(0.0, 1e-3), (1.0, 2e-3), (2.0, 4e-3), (3.0, 8e-3)]
    timeline.requests = [("k", 0.5, 1.5, 0.3), ("k", 0.5, 1.5, 0.1), ("k", 0.5, 1.5, 0.2)]
    # the calibrations before, during and just after the request: 1, 2 and 4 ms
    factor = worker.timing.CALIBRATION_REFERENCE_S / (7e-3 / 3)
    assert timeline.per_key(scaled=True)["k"] == pytest.approx(0.2 * factor)
    assert timeline.per_key(scaled=False) == {"k": 0.2}


def test_calibrating_samples_on_a_timer_and_restores_the_signal():
    import signal
    import time

    timeline = worker.Timeline()
    before = signal.getsignal(signal.SIGALRM)
    with timeline.calibrating():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(timeline.calibrations) >= 4
    assert timeline.handler_s > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
