"""The names the benchmark under ``bench/`` reaches in the package all exist.

The suite does not run ``bench/tests``, so this guard keeps a deletion in
``src/`` from passing here while it breaks the benchmark run.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from hvlab import scenarios, stepfn

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_layers():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


_TARGETS = [
    (f"{layer}.{metric}", module_name, path)
    for layer, targets in _tracer_layers().items()
    for metric, module_name, path in targets
]


@pytest.mark.parametrize("metric, module_name, path", _TARGETS, ids=[t[0] for t in _TARGETS])
def test_every_traced_target_resolves(metric, module_name, path):
    # resolved as the tracer does: a dotted path names an attribute of the class itself
    owner_name, _, attr = path.rpartition(".")
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(attr)), f"{metric}: {module_name}.{path} is gone"


def test_workload_names_exist():
    for name in ("load_config", "run_scenario", "run_sweep", "emit_trace", "scenario_traces"):
        assert callable(getattr(scenarios, name)), name
    assert callable(scenarios.ScenarioConfig.axis)
    assert "grid_points" in {f.name for f in dataclasses.fields(scenarios.ScenarioConfig)}
    assert (stepfn.OMEGA_MIN, stepfn.OMEGA_MAX) == (-0.5, 0.5)
