"""Bit-for-bit pins of the branching outcome tables, branch records and sweep summaries.

Each test hashes its outputs exactly (``float.hex`` or JSON, whose float
``repr`` round-trips), so any change in rounding shows, not only changes
beyond a tolerance.  The digests were taken from the code as it stands; a
refactor of the chain rule or of the branch records must leave them as they
are.
"""

import hashlib
import json
from itertools import product

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
        "64dcdbe2680dd19220deb8e1c8ced435a60bcaab35c105270a15055cd2b35a5a"
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
        "d4144fcf70e36cddf8ffbc5ddf53e75893744aaea5fdd0b3358c79e35db21283"
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
        "5e985c9ec028b6992e4dd3f2158ccfe4001b43411a7c51db45af1087fae306ee"
    )
