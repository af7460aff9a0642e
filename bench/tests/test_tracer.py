import hvlab
import hvlab.bell
import hvlab.branching
import hvlab.scenarios
import numpy as np
from hvlab.qubit import PureState
from hvlab.stepfn import StepFunction

import tracer as tracing


class FakeClock:
    """Advances by a scripted step on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.advance(2.0)

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(0.5)

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        clock.advance(3.0)
        traced_middle()
        traced_leaf()

    tracer.wrap("outer", outer)()

    assert tracer.calls == {"outer": 1, "middle": 1, "leaf": 2}
    assert tracer.self_s["leaf"] == 4.0
    assert tracer.self_s["middle"] == 1.5
    assert tracer.self_s["outer"] == 3.0
    assert sum(tracer.self_s.values()) == clock.now


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    traced = tracer.wrap("failing", failing)

    def outer():
        try:
            traced()
        except ValueError:
            clock.advance(2.0)

    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"failing": 1.0, "outer": 2.0}


def test_installed_rebinds_every_module_and_restores():
    originals = {
        "bell_value": hvlab.bell.bell_value,
        "init": StepFunction.__dict__["__init__"],
        "call": StepFunction.__dict__["__call__"],
    }
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        assert missing == []
        wrapped = hvlab.bell.bell_value
        assert wrapped is not originals["bell_value"]
        assert hvlab.scenarios.bell_value is wrapped
        assert hvlab.branching.bell_value is wrapped
        assert hvlab.bell_value is wrapped
        step = StepFunction((0.1,), (0.0, 1.0))
        assert isinstance(step, StepFunction)
        step(np.linspace(-0.5, 0.5, 11))
        hvlab.branching.branch(hvlab.branching.BranchHistory(PureState((0.0, 0.0, 1.0))), (1.0, 0.0, 0.0))
    assert hvlab.bell.bell_value is originals["bell_value"]
    assert hvlab.scenarios.bell_value is originals["bell_value"]
    assert StepFunction.__dict__["__init__"] is originals["init"]
    assert StepFunction.__dict__["__call__"] is originals["call"]
    assert tracer.calls["stepfn.eval"] == 1
    assert tracer.counters["stepfn.eval.samples"] == 11
    assert tracer.counters["stepfn.breakpoints.max"] == 1
    assert tracer.calls["branching.branch"] == 1
    assert tracer.counters["branching.nodes"] == 2
    # branching.branch calls bell_value through its own namespace
    assert tracer.calls["bell.bell_value"] == 1


def test_missing_target_is_reported_not_raised(monkeypatch):
    layers = {"qubit": [("gone", "hvlab.qubit", "no_such_function"), ("unit_vector", "hvlab.qubit", "unit_vector")]}
    monkeypatch.setattr(tracing, "LAYERS", layers)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        hvlab.qubit.unit_vector((1.0, 0.0, 0.0))
    assert missing == ["qubit.gone"]
    assert tracer.calls["qubit.unit_vector"] == 1
    metrics = tracing.layer_metrics(tracer, passes=1, traced_s=1.0, overhead=1.0)
    assert metrics["qubit.gone.calls"] == (0.0, "count/pass")
