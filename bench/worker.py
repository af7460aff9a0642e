"""One benchmark process: set up a workload, then measure it closed loop.

Started by ``run.py`` in a fresh single-threaded interpreter with ``src`` on
``PYTHONPATH``.  It imports ``hvlab.cli``, writes the workload's inputs,
prints ``ready`` and then its CPU time so far (the set-up time) with the scale
factor of the calibrations taken while it set up.  Unless ``--setup-only``, it then runs the
workload and prints one JSON result line.

One client, closed loop: the next request starts when the previous one
returned.  Requests repeat round-robin in whole passes over the workload's
inputs; the first pass's outputs are the references every later repetition
must reproduce byte for byte.  A request's time is the
client thread's CPU time, scaled by calibrations taken around it; an input's
time is the median of its repetitions, and percentiles are taken over the
request slots of a pass (see ``timing.py`` for why).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import timing
import tracer as tracing

if TYPE_CHECKING:
    from workloads import Outcome, Workload

MAX_REPORTED_ERRORS = 5
CALIBRATION_INTERVAL_S = 0.01


class Ledger:
    """Counts attempts and failures, and holds each input's reference output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.references: dict[str, bytes] = {}  # key -> digest of its first output
        self.first_pass_digest = hashlib.sha256()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def record(self, key: str, outcome: Outcome, first_pass: bool) -> None:
        if first_pass:
            self.first_pass_digest.update(key.encode() + b"\0" + outcome.digest)
        reference = self.references.setdefault(key, outcome.digest)
        if outcome.error is not None:
            self.fail(f"{key}: {outcome.error}")
        elif outcome.digest != reference:
            self.fail(f"{key}: output differs from the first run of the same input")


class Timeline:
    """Request times, and calibration samples taken on a wall-clock timer.

    While :meth:`calibrating` is active, SIGALRM fires every
    ``CALIBRATION_INTERVAL_S`` and its handler times one calibration unit, so
    samples also fall inside long requests (a sweep takes over a second).
    The handler's time is taken out of the request it interrupted.
    """

    def __init__(self):
        # (key, wall-clock start, wall-clock end, CPU seconds)
        self.requests: list[tuple[str, float, float, float]] = []
        self.calibrations: list[tuple[float, float]] = []  # (time, seconds)
        self.handler_s = 0.0

    def _sample(self, *_signal) -> None:
        start = time.thread_time()
        self.calibrations.append((time.perf_counter(), timing.calibration_unit()))
        self.handler_s += time.thread_time() - start

    @contextmanager
    def calibrating(self):
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def per_key(self, scaled: bool) -> dict[str, float]:
        """Median seconds of each key's requests, scaled to reference speed or raw.

        A request is scaled by the mean of the calibrations taken while it ran
        and the one either side of it.
        """
        times = [t for t, _ in self.calibrations]
        by_key: dict[str, list[float]] = defaultdict(list)
        for key, start, end, elapsed in self.requests:
            if scaled:
                first = max(0, bisect_right(times, start) - 1)
                last = min(len(times), bisect_right(times, end) + 1)
                nearby = [c for _, c in self.calibrations[first:last]]
                elapsed *= timing.scale(sum(nearby) / len(nearby))
            by_key[key].append(elapsed)
        return {key: statistics.median(values) for key, values in by_key.items()}


def run_pass(workload: Workload, ledger: Ledger, timeline: Timeline, tracer=None, first_pass: bool = False) -> int:
    """Run every request once, recording its time in ``timeline``; return the trace rows written."""
    rows = 0
    for request in workload.requests:
        ledger.attempted += 1
        handler_s = timeline.handler_s
        start = time.perf_counter()
        start_cpu = time.thread_time()
        try:
            result = request.call()
        except Exception:  # a failed request is counted, the run goes on
            ledger.fail(f"{request.key}: {traceback.format_exc(limit=3)}")
            continue
        elapsed = time.thread_time() - start_cpu - (timeline.handler_s - handler_s)
        end = time.perf_counter()
        try:
            outcome = request.check(result)
        except Exception:
            ledger.fail(f"{request.key}: output check raised {traceback.format_exc(limit=3)}")
            continue
        ledger.record(request.key, outcome, first_pass)
        if tracer is not None:
            tracer.count("scenarios.trace_rows", outcome.rows)
            tracer.count("scenarios.trace_bytes", outcome.size)
        timeline.requests.append((request.key, start, end, elapsed))
        rows += outcome.rows
    return rows


def _slot_metrics(workload: Workload, per_key: dict[str, float], rows: int) -> dict[str, tuple[float, str]]:
    # one time per request slot of a pass: a key that repeats within a pass
    # fills each of its slots
    slots = [per_key[r.key] for r in workload.requests if r.key in per_key]
    busy = sum(slots)
    metrics = {
        "requests_per_s": (len(slots) / busy, "1/s"),
        "request_p50_ms": (1e3 * statistics.median(slots), "ms"),
        "request_tail_ms": (1e3 * timing.nearest_rank(slots, workload.tail_percentile), "ms"),
    }
    # the workload-specific names these metrics are also known by
    if workload.name == "sweep":
        metrics["sweep_trials_per_s"] = (workload.items_per_request * len(slots) / busy, "1/s")
    if workload.name == "scenarios":
        metrics["request_p99_ms"] = metrics["request_tail_ms"]
    if workload.name == "trace":
        metrics["trace_rows_per_s"] = (rows / busy, "1/s")
    return metrics


def measure(workload: Workload, seconds: float, ledger: Ledger) -> dict:
    # no separate warm-up: the per-input median leaves out a cold first run
    timeline = Timeline()
    passes = rows = 0
    start = time.perf_counter()
    with timeline.calibrating():
        while not passes or time.perf_counter() - start < seconds:
            rows = run_pass(workload, ledger, timeline, first_pass=not passes)
            passes += 1
    slots = len(workload.requests)
    reportable = timing.highest_percentile(slots, ladder=(99.0, 90.0, 50.0))
    calibration = [c for _, c in timeline.calibrations]
    return {
        "metrics": _slot_metrics(workload, timeline.per_key(scaled=True), rows),
        "raw_metrics": _slot_metrics(workload, timeline.per_key(scaled=False), rows),
        "passes": passes,
        "slots": slots,
        "tail_percentile": workload.tail_percentile,
        "tail_reportable": reportable is not None and reportable >= workload.tail_percentile,
        "calibration_median_s": statistics.median(calibration),
        "calibrations": len(calibration),
    }


def measure_traced(workload: Workload, seconds: float, ledger: Ledger) -> dict:
    """Alternate untraced and traced passes over the same inputs, after a warm-up pass."""
    run_pass(workload, ledger, Timeline(), first_pass=True)
    tracer = tracing.Tracer()
    untraced = Timeline()
    traced = Timeline()
    pairs = 0
    missing: list[str] = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        run_pass(workload, ledger, untraced)
        with tracing.installed(tracer) as missing:
            run_pass(workload, ledger, traced, tracer=tracer)
        pairs += 1
    traced_s = sum(elapsed for *_, elapsed in traced.requests)
    with_tracing, without = traced.per_key(scaled=False), untraced.per_key(scaled=False)
    overhead = sum(with_tracing[r.key] for r in workload.requests) / sum(without[r.key] for r in workload.requests)
    return {
        "metrics": tracing.layer_metrics(tracer, pairs, traced_s, overhead),
        "passes": pairs,
        "missing": missing,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the vCPU's speed can change within 100 ms, so set-up is scaled by
    # calibrations taken while it runs, not after it
    setup = Timeline()
    with setup.calibrating():
        import hvlab.cli  # noqa: F401  (set-up time includes the CLI import)
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    setup_cpu_s = time.process_time() - setup.handler_s
    setup_scale = timing.scale(statistics.mean(c for _, c in setup.calibrations))
    print("ready", flush=True)
    print(json.dumps({"cpu_s": setup_cpu_s, "scale": setup_scale}), flush=True)
    if args.setup_only:
        return 0

    ledger = Ledger()
    if args.trace:
        result = measure_traced(workload, args.seconds, ledger)
    else:
        result = measure(workload, args.seconds, ledger)
    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        errors=ledger.errors,
        digest=ledger.first_pass_digest.hexdigest(),
        distinct_inputs=len(ledger.references),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        numpy=np.__version__,
        hvlab_file=hvlab.cli.__file__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
