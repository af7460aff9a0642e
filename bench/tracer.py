"""In-memory span tracer for the benchmark's per-layer run.

The tracer wraps the public functions of each hvlab layer from outside the
package: it rebinds every wrapped name in every loaded ``hvlab`` module
namespace (the package imports names across modules, e.g. ``from .bell import
bell_value`` in ``scenarios``), and it wraps ``StepFunction`` and the other
classes' methods on the class itself, so ``isinstance`` keeps working.
Nothing is written to disk and :func:`installed` restores every original
binding on exit.

Spans are aggregated as they close rather than kept as a list: a sweep makes
hundreds of thousands of wrapped calls.  A span's self time is its duration
minus the durations of its direct child spans.  Durations are the thread's CPU
time, like the worker's request times, so stolen vCPU time is left out and
the layers' shares of a traced request add up to at most one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

# layer -> [(metric name, module, attribute path)]; an attribute path with a
# dot names a method wrapped on its class
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "qubit": [
        ("unit_vector", "hvlab.qubit", "unit_vector"),
        ("cosine_between", "hvlab.qubit", "cosine_between"),
        ("projector", "hvlab.qubit", "projector"),
        ("PureState", "hvlab.qubit", "PureState.__init__"),
        ("sandwich", "hvlab.qubit", "sandwich"),
        ("expectation", "hvlab.qubit", "expectation"),
        ("conditional_expectation", "hvlab.qubit", "conditional_expectation"),
        ("chain_probability", "hvlab.qubit", "chain_probability"),
    ],
    "stepfn": [
        ("StepFunction", "hvlab.stepfn", "StepFunction.__init__"),
        ("combine", "hvlab.stepfn", "StepFunction._combine"),
        ("integrate", "hvlab.stepfn", "StepFunction.integrate"),
        ("indicator_from_sign", "hvlab.stepfn", "indicator_from_sign"),
        ("integrate_level", "hvlab.stepfn", "ProductFunction.integrate_level"),
        ("eval", "hvlab.stepfn", "StepFunction.__call__"),
    ],
    "bell": [
        ("bell_value", "hvlab.bell", "bell_value"),
        ("bell_value_operator", "hvlab.bell", "bell_value_operator"),
        ("route_state_update", "hvlab.bell", "route_state_update"),
        ("route_operator_product", "hvlab.bell", "route_operator_product"),
        ("nonuniqueness_witness", "hvlab.bell", "nonuniqueness_witness"),
        ("disagreement_witness", "hvlab.bell", "disagreement_witness"),
        ("classical_conditional", "hvlab.bell", "classical_conditional"),
        ("sum_conflict_witness", "hvlab.bell", "sum_conflict_witness"),
    ],
    "branching": [
        ("branch", "hvlab.branching", "branch"),
        ("joint_function", "hvlab.branching", "joint_function"),
        ("integrate_in_order", "hvlab.branching", "integrate_in_order"),
        ("repeated_measurement_check", "hvlab.branching", "repeated_measurement_check"),
        ("outcome_probabilities", "hvlab.branching", "outcome_probabilities"),
        ("sequence_probability", "hvlab.branching", "sequence_probability"),
    ],
    "scenarios": [
        ("load_config", "hvlab.scenarios", "load_config"),
        ("run_scenario", "hvlab.scenarios", "run_scenario"),
        ("run_sweep", "hvlab.scenarios", "run_sweep"),
        ("emit_trace", "hvlab.scenarios", "emit_trace"),
        ("to_json", "hvlab.scenarios", "ScenarioReport.to_json"),
    ],
}

class Tracer:
    """Per-function call counts and self times, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.thread_time):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        # one accumulator of direct-child span time per open span
        self._open: list[float] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(args, result)`` runs after the span closes, so its cost is
        charged to the enclosing span and to the tracing overhead.
        """
        clock = self.clock
        open_spans = self._open
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        if value > self.counters[name]:
            self.counters[name] = value


def _observe_step_function(tracer: Tracer, args, _result) -> None:
    tracer.maximum("stepfn.breakpoints.max", len(args[0].breakpoints))


def _observe_eval(tracer: Tracer, args, _result) -> None:
    tracer.count("stepfn.eval.samples", np.size(args[1]))


def _observe_witness(tracer: Tracer, _args, witness) -> None:
    tracer.count("bell.witnesses", 1)
    if witness.measure > 0.0:
        tracer.count("bell.witnesses_positive", 1)


def _observe_branch(tracer: Tracer, _args, branches) -> None:
    for history in branches:
        tracer.count("branching.nodes", 1)
        if history.nodes[-1].zero_probability:
            tracer.count("branching.nodes_zero_probability", 1)


_OBSERVERS = {
    "stepfn.StepFunction": _observe_step_function,
    "stepfn.eval": _observe_eval,
    "bell.disagreement_witness": _observe_witness,
    "branching.branch": _observe_branch,
}


def _hvlab_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "hvlab" or name.startswith("hvlab."))
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Wrap every function in :data:`LAYERS` while the block runs.

    Yields the metric names whose target does not exist in this version of
    the package; those report zero calls.  Every binding is restored on exit.
    """
    modules = _hvlab_modules()
    by_name = {module.__name__: module for module in modules}
    restore: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for layer, targets in LAYERS.items():
            for metric, module_name, path in targets:
                name = f"{layer}.{metric}"
                module = by_name.get(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    missing.append(name)
                    continue
                wrapper = tracer.wrap(name, original, _OBSERVERS.get(name))
                if owner_name:
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapper)
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``, counts and times per pass.

    ``traced_s`` is the wall time of the traced passes, the base of each
    layer's share; ``overhead`` is traced over untraced time.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for layer, targets in LAYERS.items():
        layer_self = 0.0
        for metric, _module, _path in targets:
            name = f"{layer}.{metric}"
            metrics[f"{name}.calls"] = (tracer.calls[name] / passes, "count/pass")
            metrics[f"{name}.self_s"] = (tracer.self_s[name] / passes, "s/pass")
            layer_self += tracer.self_s[name]
        metrics[f"{layer}.self_s"] = (layer_self / passes, "s/pass")
        metrics[f"{layer}.share"] = (layer_self / traced_s, "ratio")
    c = tracer.counters
    metrics["stepfn.breakpoints.max"] = (c["stepfn.breakpoints.max"], "count")
    metrics["stepfn.eval.samples"] = (c["stepfn.eval.samples"] / passes, "count/pass")
    metrics["bell.witness_positive_ratio"] = (_ratio(c["bell.witnesses_positive"], c["bell.witnesses"]), "ratio")
    metrics["branching.zero_probability_ratio"] = (
        _ratio(c["branching.nodes_zero_probability"], c["branching.nodes"]),
        "ratio",
    )
    metrics["scenarios.trace_rows"] = (c["scenarios.trace_rows"] / passes, "count/pass")
    metrics["scenarios.trace_bytes"] = (c["scenarios.trace_bytes"] / passes, "B/pass")
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    return metrics


def _ratio(part: float, whole: float) -> float:
    # a workload that builds none reports 0 rather than dividing by zero
    return part / whole if whole else 0.0
