"""The calibration loop that reported times are scaled by, and percentile rules.

Why: on the shared 2-vCPU VM this benchmark was defined on, the same loop runs
at different speeds from one second to the next.  Two effects add up:

* the host takes the vCPU away for up to 12 ms at a time (steal).  The
  worker therefore times requests in the client thread's CPU time, which
  excludes stolen time;
* co-tenants slow the vCPU while it runs, by up to 1.5x, in bursts from under
  a second to tens of seconds (a 20 µs loop reads 15 µs or 23 µs).  CPU time
  includes this, so the worker runs a short fixed loop, independent of hvlab,
  every 10 ms and scales each request by ``CALIBRATION_REFERENCE_S`` over the
  loop's CPU time measured during and around it.

Raw wall-clock medians of 20-second runs spread 10-75% between runs; scaled
CPU times spread 3-6% on the same machine.  A scaled time is the time the
request would take on the vCPU alone at its reference speed; raw values are
printed beside the scaled ones.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from typing import Sequence

import numpy as np

# median CPU time of calibration_unit() on the defining machine (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4); scaled equals raw at that speed
CALIBRATION_REFERENCE_S = 6.5e-4


def calibration_unit() -> float:
    """CPU seconds of one pass of a loop shaped like hvlab's work.

    Small numpy vectors, float tuples, bisection, 17-digit formatting and
    JSON: the operations hvlab spends its time on, so co-tenant slowdowns
    hit both alike.
    """
    start = time.thread_time()
    acc = 0.0
    for i in range(30):
        v = np.array((i * 0.001, 0.5, -0.25), dtype=float)
        if not np.all(np.isfinite(v)):
            raise ArithmeticError("calibration vector is not finite")
        norm = math.sqrt(float(v @ v))
        u = v / norm
        cuts = sorted(float(x) for x in (u[0] * 0.1, u[1] * 0.2, u[2] * 0.3))
        acc += norm + bisect_right(cuts, 0.01) + len(f"{u[0]:.17g},{u[1]:.17g}")
    json.dumps({"acc": acc, "values": [1.5, 2.5], "name": "x"}, indent=2)
    return time.thread_time() - start


def scale(calibration_s: float) -> float:
    """Factor that takes a time measured beside ``calibration_s`` to reference speed."""
    return CALIBRATION_REFERENCE_S / calibration_s


def _rank(n: int, percentile: float) -> int:
    # rounded first so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The ``percentile``-th value by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), percentile) - 1]


def samples_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``percentile``."""
    return n - _rank(n, percentile)


def highest_percentile(n: int, ladder: Sequence[float] = (99.9, 99.0, 90.0, 50.0), beyond: int = 10) -> float | None:
    """Highest percentile of ``ladder`` with at least ``beyond`` of ``n`` samples above it."""
    for percentile in sorted(ladder, reverse=True):
        if samples_beyond(n, percentile) >= beyond:
            return percentile
    return None
