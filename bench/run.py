"""hvlab benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload sweep|scenarios|trace --seed N --seconds S --trace 0|1

The command starts fresh single-threaded interpreters (``worker.py``) with the
checkout's ``src`` on ``PYTHONPATH``: a few that only set up, to time set-up,
then one that sets up and measures.  It prints the environment record, the
digest of the workload's outputs, every metric by name and unit, and as the
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("sweep", "scenarios", "trace")
SETUP_PROBES = 6  # plus the measuring worker's own set-up
DEADLINE_S = 170.0
END_TO_END = ("setup_s", "peak_rss_mb", "requests_per_s", "request_p50_ms", "request_tail_ms")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Worker:
    """A worker process whose set-up is timed up to its ``ready`` line."""

    def __init__(self, args: argparse.Namespace, work_dir: Path, deadline: float, setup_only: bool):
        self.deadline = deadline
        command = [
            sys.executable,
            str(BENCH_DIR / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work-dir", str(work_dir),
        ]
        if setup_only:
            command.append("--setup-only")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True
        )
        # a worker still running at the deadline is killed, which ends any read
        self.watchdog = threading.Timer(max(0.0, deadline - start), self.proc.kill)
        self.watchdog.start()
        try:
            if self._line() != "ready":
                raise BenchmarkError("worker did not finish set-up")
            self.setup_wall_s = time.perf_counter() - start
            setup = json.loads(self._line())
            self.setup_cpu_s = setup["cpu_s"]
            self.setup_scaled_s = setup["cpu_s"] * setup["scale"]
        except BaseException:
            self.close()
            raise

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if time.perf_counter() > self.deadline:
            raise BenchmarkError("benchmark ran past its deadline")
        return line.strip()

    def result(self) -> dict:
        line = self._line()
        if not line:
            raise BenchmarkError("worker exited without a result")
        return json.loads(line)

    def close(self) -> None:
        self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()
        if self.proc.returncode:
            raise BenchmarkError(f"worker exited with code {self.proc.returncode}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _setup_samples(args: argparse.Namespace, work_dir: Path, deadline: float) -> list[Worker]:
    """The set-up-only probes, closed."""
    samples = []
    # the first probe fills bytecode and file caches and is not counted
    for probe in range(SETUP_PROBES + 1):
        worker = Worker(args, work_dir, deadline, setup_only=True)
        worker.close()
        if probe:
            samples.append(worker)
    return samples


def run(args: argparse.Namespace) -> tuple[dict, list[Worker]]:
    if not (SRC / "hvlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no hvlab sources under {SRC}; run from a full checkout")
    deadline = time.perf_counter() + DEADLINE_S
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        samples = _setup_samples(args, work_dir, deadline)
        worker = Worker(args, work_dir, deadline, setup_only=False)
        try:
            samples.append(worker)
            result = worker.result()
        finally:
            worker.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if not Path(result["hvlab_file"]).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"hvlab was imported from {result['hvlab_file']}, not from {SRC}")
    return result, samples


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(args: argparse.Namespace, result: dict, setup_samples: list[Worker]) -> list[str]:
    """Human-readable lines, then the JSON result line."""
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": result["python"],
        "numpy": result["numpy"],
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        "environment " + json.dumps(environment),
        f"digest {args.workload} seed={args.seed} sha256={result['digest']} "
        f"(first pass, {result['distinct_inputs']} distinct inputs, runtime_ms removed)",
        f"failed_ratio {failed / attempted!r} ratio ({failed} of {attempted} operations failed)",
    ]
    lines.extend(f"error {message}" for message in result["errors"])
    if args.trace:
        metrics = {name: _metric(value, unit) for name, (value, unit) in result["metrics"].items()}
        lines.append(f"traced passes {result['passes']}; wrapped functions absent: {result['missing'] or 'none'}")
    else:
        raw = {name: value for name, (value, _unit) in result["raw_metrics"].items()}
        raw["setup_s"] = statistics.median([w.setup_cpu_s for w in setup_samples])
        setup_wall_s = statistics.median([w.setup_wall_s for w in setup_samples])
        scaled = {
            "setup_s": (statistics.median([w.setup_scaled_s for w in setup_samples]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            **result["metrics"],
        }
        lines.append(
            f"passes {result['passes']} over {result['slots']} request slots; "
            f"tail percentile p{result['tail_percentile']:g}"
            + ("" if result["tail_reportable"] else " (fewer than ten slots beyond it)")
            + f"; {result['calibrations']} calibrations, median {result['calibration_median_s'] * 1e3:.4f} ms"
            + f"; set-up wall time {setup_wall_s!r} s"
        )
        for name, (value, unit) in scaled.items():
            lines.append(f"{name} {value!r} {unit}" + (f"  (raw {raw[name]!r})" if name in raw else ""))
        metrics = {name: _metric(*scaled[name]) for name in END_TO_END}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    lines.append(json.dumps(final))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one hvlab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=1, help="workload seed (default 1; 2 is the holdout seed for confirming claims)"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, samples = run(args)
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    for line in report(args, result, samples):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
