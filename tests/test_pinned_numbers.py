"""Bit-for-bit pins of the branching outcome tables, branch records and sweep summaries.

Each test hashes its outputs exactly (``float.hex`` or JSON, whose float
``repr`` round-trips), so any change in rounding shows, not only changes
beyond a tolerance.  The digests were taken from the code as it stands; a
refactor of the chain rule or of the branch records must leave them as they
are.  Every 3-vector dot product, the test draws' norms included, is summed
in one fixed order, so the digests do not depend on the BLAS kernel numpy
loads (``test_sweep_summary_is_the_same_on_two_blas_kernels``).
"""

import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np

from hvlab import BranchHistory, PureState, branch, branch_records, outcome_probabilities, run_sweep

from conftest import X, Y, Z, random_unit

# +-x, +-y, +-z and two 3-4-5 axes whose floats are not exactly unit
SIGNED_AXES = [X, -X, Y, -Y, Z, -Z, np.array([0.6, 0.8, 0.0]), np.array([0.0, -0.8, 0.6])]


def _table_lines(label: str, table: dict) -> str:
    return "".join(f"{label};{','.join(pattern)};{value.hex()}\n" for pattern, value in table.items())


def test_outcome_probabilities_pinned():
    digest = hashlib.sha256()
    rng = np.random.default_rng(20261018)
    for depth in (1, 2, 3, 4):
        for draw in range(100):
            s = random_unit(rng)
            axes = [random_unit(rng) for _ in range(depth)]
            table = outcome_probabilities(PureState(s), axes)
            digest.update(_table_lines(f"seeded/{depth}/{draw}", table).encode())
    # every ordered pair of axes from every listed state: 512 cases
    for (i, s), (j, a), (k, b) in product(enumerate(SIGNED_AXES), repeat=3):
        table = outcome_probabilities(PureState(s), [a, b])
        digest.update(_table_lines(f"signed/{i}/{j}/{k}", table).encode())
    assert digest.hexdigest() == (
        "baf19db4840d9c8e522b3f5319423e9a8f92b4d5a18ff3e53ff3f7d3007ea963"
    )


def _history(state, steps) -> BranchHistory:
    history = BranchHistory(PureState(state))
    for axis, outcome in steps:
        selected, complement = branch(history, axis)
        history = selected if outcome == "selected" else complement
    return history


def test_branch_records_pinned():
    tilted = np.array([0.6, 0.8, 0.0])
    histories = [
        _history(Z, [(X, "selected"), (Y, "complement")]),
        _history(tilted, [(Z, "complement"), (np.array([0.0, -0.8, 0.6]), "selected"), (X, "complement")]),
        # a zero-probability complement, then a measurement from its prepared state
        _history(Z, [(Z, "complement"), (tilted, "selected")]),
        _history(-Y, [(tilted, "selected"), (tilted, "complement")]),
    ]
    text = json.dumps([branch_records(history) for history in histories])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b4e365fdb9712a5e80daef74d14ef6d48e641606fd6c2db4896bc3bd317c0b41"
    )


def test_sweep_summaries_pinned():
    text = json.dumps([run_sweep(seed, 200) for seed in (0, 3, 7)])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b12e8be4afb3ed590d71b044c1539583ca96530db4f78bde1b4b07a97939dca8"
    )


def _summary_lines(summary: dict) -> str:
    return "".join(
        f"{key}={value.hex() if isinstance(value, float) else json.dumps(value)}\n"
        for key, value in summary.items()
    )


def test_thousand_trial_sweep_summaries_pinned():
    # the default `hvlab sweep` size: every branch, order and idempotence trial runs
    digest = hashlib.sha256()
    for seed in (0, 3, 7):
        digest.update(_summary_lines(run_sweep(seed, 1000)).encode())
    assert digest.hexdigest() == (
        "23419a46c0a6e561cb23dee45215ad94fa0ae22c77db51e50e4e6c0d95a7b864"
    )


_SWEEP_SUMMARY = "import json; from hvlab import run_sweep; print(json.dumps(run_sweep(0, 200)))"


def test_sweep_summary_is_the_same_on_two_blas_kernels():
    # OpenBLAS sums a numpy 3-vector dot product in a different order, with or
    # without fused multiply-adds, on each of these kernels; the package's
    # fixed-order dot products must not notice.  The variable is set only in
    # the children's environment.
    src = str(Path(__file__).resolve().parents[1] / "src")
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _SWEEP_SUMMARY],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for kernel in ("HASWELL", "PRESCOTT")
    ]
    try:
        outputs = [child.communicate(timeout=120) for child in children]
    finally:
        for child in children:
            child.kill()  # a no-op for a child that has exited
    for child, (_, err) in zip(children, outputs):
        assert child.returncode == 0, err
    assert outputs[0][0] == outputs[1][0]
