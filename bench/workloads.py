"""Seeded inputs, timed requests and output checks for each benchmark workload.

A workload is one pass: an ordered list of requests that the worker repeats
round-robin.  Every input is generated from the workload seed; the program
only sees the generated configs and sweep seeds.  Each request's output is
reduced to the sha256 of its bytes with ``runtime_ms`` removed, so
repetitions of one input can be compared byte for byte and digested.

hvlab names are looked up on their module at call time (``hv.run_sweep``, not
a name bound at import), so the traced run's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hvlab import scenarios as hv
from hvlab import stepfn

SWEEP_TRIALS = 1000  # the ``hvlab sweep`` default
SWEEP_SEEDS_PER_PASS = 3
# scenarios: 8 demo + 8 * 128 generated configs = 1032 inputs, enough for a
# p99 over inputs with ten beyond it
GENERIC_CONFIGS_PER_SCENARIO = 128
# trace: 7 * (1 + 3) configs, each in four slots = 112 slots, enough for a p90
TRACE_GENERIC_CONFIGS_PER_SCENARIO = 3
# three requests at the default grid for every one at 10x: the median request
# stays in the default-grid mode, the tail in the large one
TRACE_GRIDS = (2001, 2001, 2001, 20001)
# near-degenerate draws are rejected with the margin run_sweep uses
DEGENERACY_MARGIN = 1e-6
# and draws whose outcome n is nearly impossible in the state: the oracle
# qubit.conditional_expectation divides by (1 + s.n) / 2 and is off by up to
# about 3.5e-16 / (1 + s.n), so below 1 + s.n = 3.5e-4 the route_agreement
# and nonuniqueness reports fail their 1e-12 tolerance on the program's side
# (see README.md, "Known program defect"); 1e-3 keeps the error under 3.2e-13
CONDITIONING_MARGIN = 1e-3

# the eight non-sweep configs of demos/configs, copied so that later edits to
# the demos do not change this benchmark's inputs
DEMO_CONFIGS = {
    "branching_chain": "state = 0 0 1\nn = 1 0 0\nm = 0 1 0\nc = 0 0 1\n",
    "classical_rule": "state = 0 0 1\nn = 1 0 0\nm = 0 1 0\n",
    "idempotence": "state = 0 0 1\nn = 1 0 0\n",
    "measure_reproduction": "state = 0 0 1\nm = 0.8 0 0.6\n",
    "nonuniqueness": "state = 0 0 1\nn = 1 0 0\nm = 1 0 0\n",
    "route_agreement": "state = 0 0 1\nn = 1 0 0\nm = 0 1 0\n",
    "sandwich": "n = 1 0 0\nm = 0 1 0\n",
    "sum_conflict": "state = -0.6 -0.8 0\nn = 1 0 0\nm = 0 1 0\nlambda = 0.5\n",
}

# vector keys each generated config carries (branching_chain always gets a
# third axis, the deepest history a config can ask for)
GENERIC_VECTORS = {
    "measure_reproduction": ("state", "m"),
    "sandwich": ("n", "m"),
    "route_agreement": ("state", "n", "m"),
    "nonuniqueness": ("state", "n", "m"),
    "classical_rule": ("state", "n", "m"),
    "sum_conflict": ("state", "n", "m"),
    "branching_chain": ("state", "n", "m", "c"),
    "idempotence": ("state", "n"),
}

# scenarios whose run produces omega traces
TRACE_SCENARIOS = tuple(name for name in DEMO_CONFIGS if name != "sandwich")


@dataclass(frozen=True)
class Outcome:
    """The sha256 of a request's output, the reason it failed (if it did) and its trace size."""

    digest: bytes
    error: str | None = None
    rows: int = 0
    size: int = 0


@dataclass(frozen=True)
class Request:
    key: str  # repetitions of one key must give identical output bytes
    call: Callable[[], object]  # the timed part
    check: Callable[[object], Outcome]  # untimed


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    items_per_request: int  # trials per sweep request; 1 elsewhere
    tail_percentile: float


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = math.sqrt(float(v @ v))
        if norm > DEGENERACY_MARGIN:
            return v / norm


def _generic_config(scenario: str, rng: np.random.Generator) -> str:
    keys = GENERIC_VECTORS[scenario]
    while True:
        vectors = {key: _random_unit(rng) for key in keys}
        units = list(vectors.values())
        conditioned = not {"state", "n"} <= vectors.keys() or (
            1.0 + float(np.dot(vectors["state"], vectors["n"])) >= CONDITIONING_MARGIN
        )
        if conditioned and all(
            abs(float(np.dot(u, v))) < 1.0 - DEGENERACY_MARGIN
            for i, u in enumerate(units)
            for v in units[i + 1 :]
        ):
            break
    lines = [f"{key} = {' '.join(repr(float(x)) for x in vec)}" for key, vec in vectors.items()]
    if scenario == "sum_conflict":
        lines.append(f"lambda = {float(rng.uniform(0.1, 0.9))!r}")
    return "\n".join(lines) + "\n"


def write_configs(
    seed: int, directory: Path, names: tuple[str, ...], generic: int, grid_points: int | None = None
) -> list[Path]:
    """Write the demo config plus ``generic`` seeded configs for each scenario name."""
    rng = np.random.default_rng([seed, len(names), generic])
    directory.mkdir(parents=True, exist_ok=True)
    bodies = [(f"demo_{name}", name, DEMO_CONFIGS[name]) for name in names]
    for index in range(generic):
        bodies.extend((f"gen{index}_{name}", name, _generic_config(name, rng)) for name in names)
    suffix = extra = ""
    if grid_points is not None:
        suffix, extra = f"_g{grid_points}", f"grid_points = {grid_points}\n"
    paths = []
    for stem, name, body in bodies:
        path = directory / f"{stem}{suffix}.cfg"
        path.write_text(f"scenario = {name}\n{body}{extra}", encoding="utf-8")
        paths.append(path)
    return paths


def _digest_without_runtime(report: dict) -> bytes:
    report = dict(report)
    report.pop("runtime_ms", None)
    return hashlib.sha256(json.dumps(report, indent=2).encode()).digest()


# ---------------------------------------------------------------------------
# sweep: repeated run_sweep(seed_i, 1000) with seeds derived from the workload seed
# ---------------------------------------------------------------------------


def _check_sweep(summary: dict) -> Outcome:
    error = None
    if summary["failures"] or not summary["pass"]:
        error = f"sweep seed {summary['seed']} failed: {summary['failures']!r}"
    return Outcome(_digest_without_runtime(summary), error)


def sweep(seed: int, work_dir: Path, trials: int = SWEEP_TRIALS) -> Workload:
    del work_dir  # a sweep reads and writes no files
    seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=SWEEP_SEEDS_PER_PASS)]
    requests = tuple(
        Request(f"sweep:{s}", lambda s=s: hv.run_sweep(s, trials), _check_sweep) for s in seeds
    )
    return Workload("sweep", requests, trials, tail_percentile=50.0)


# ---------------------------------------------------------------------------
# scenarios: load_config -> run_scenario -> to_json, round-robin over configs
# ---------------------------------------------------------------------------


def _scenario_request(path: Path) -> str:
    return hv.run_scenario(hv.load_config(path)).to_json()


def _check_report(text: str) -> Outcome:
    report = json.loads(text)
    error = None if report["pass"] is True else f"scenario {report['scenario']!r} did not pass"
    return Outcome(_digest_without_runtime(report), error)


def scenarios(seed: int, work_dir: Path) -> Workload:
    paths = write_configs(seed, work_dir / "configs", tuple(DEMO_CONFIGS), GENERIC_CONFIGS_PER_SCENARIO)
    requests = tuple(
        Request(path.name, lambda path=path: _scenario_request(path), _check_report) for path in paths
    )
    return Workload("scenarios", requests, 1, tail_percentile=99.0)


# ---------------------------------------------------------------------------
# trace: load_config -> emit_trace, the `hvlab trace` write path
# ---------------------------------------------------------------------------


class TraceCheck:
    """Checks one trace request's CSVs against |grid ∪ breakpoints| and finiteness.

    The expected row counts come from the scenario's step functions, computed
    once per config on first use (the first pass), outside any timed or
    traced region.  Output bytes equal to ones already checked are not parsed
    again.
    """

    def __init__(self, config_path: Path):
        self.config_path = config_path
        self.expected_rows: list[int] | None = None
        # sha256 of an output -> (error, rows, bytes) found in it
        self.checked: dict[bytes, tuple[str | None, int, int]] = {}

    def _expected(self) -> list[int]:
        if self.expected_rows is None:
            config = hv.load_config(self.config_path)
            grid = set(np.linspace(stepfn.OMEGA_MIN, stepfn.OMEGA_MAX, config.grid_points).tolist())
            self.expected_rows = [
                len(grid | set(fn.breakpoints)) for fn in hv.scenario_traces(config).values()
            ]
        return self.expected_rows

    def __call__(self, written: list[Path]) -> Outcome:
        # one file in memory at a time, so the check adds little to peak RSS
        sha = hashlib.sha256()
        for path in written:
            sha.update(path.name.encode() + b"\n")
            sha.update(path.read_bytes())
        digest = sha.digest()
        if digest not in self.checked:
            self.checked[digest] = self._check(written)
        return Outcome(digest, *self.checked[digest])

    def _check(self, written: list[Path]) -> tuple[str | None, int, int]:
        expected = self._expected()
        rows = size = 0
        errors = []
        if len(written) != len(expected):
            errors.append(f"{len(written)} trace files, expected {len(expected)}")
        for path, want in zip(written, expected):
            name, data = path.name, path.read_bytes()
            size += len(data)
            header, _, body = data.partition(b"\n")
            if header != b"omega,value":
                errors.append(f"{name}: bad header")
                continue
            cells = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
            got = body.count(b"\n")
            rows += got
            if got != want or cells.shape != (got, 2):
                errors.append(f"{name}: {got} rows, expected {want}")
            if not np.all(np.isfinite(cells)):
                errors.append(f"{name}: non-finite value")
        return "; ".join(errors) or None, rows, size


def trace(seed: int, work_dir: Path) -> Workload:
    out_dir = work_dir / "traces"
    by_grid = {}
    for grid in sorted(set(TRACE_GRIDS)):
        paths = write_configs(
            seed, work_dir / "configs", TRACE_SCENARIOS, TRACE_GENERIC_CONFIGS_PER_SCENARIO, grid
        )
        by_grid[grid] = [
            Request(path.name, lambda path=path: hv.emit_trace(hv.load_config(path), out_dir), TraceCheck(path))
            for path in paths
        ]
    requests = tuple(request for grid in TRACE_GRIDS for request in by_grid[grid])
    return Workload("trace", requests, 1, tail_percentile=90.0)


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "sweep": sweep,
    "scenarios": scenarios,
    "trace": trace,
}
