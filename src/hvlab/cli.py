"""Command-line entry point: run scenarios, sweeps, manifests, and traces.

Subcommands
-----------
``run <config>``       execute one scenario, print its JSON report
``sweep``              seeded randomized invariant sweep
``manifest <dir>``     run every ``*.cfg`` in a directory (sorted), print an
                       aggregate report
``trace <config>``     write omega,value CSV traces for a scenario

Each subcommand accepts only the flags that change its output.  The exit code
is 0 iff every requested scenario passed; config and usage errors exit with
2.  ``--out`` (or the ``HVLAB_OUT`` environment variable) selects where
reports and traces are written.
"""

from __future__ import annotations

import argparse
import os
import sys
from argparse import SUPPRESS
from contextlib import closing
from dataclasses import replace
from pathlib import Path

from .errors import HvlabError
from .scenarios import (
    DEFAULT_GRID_POINTS,
    DEFAULT_SWEEP_TRIALS,
    ScenarioConfig,
    ScenarioReport,
    _indented_json,
    _Rewrite,
    emit_trace,
    load_config,
    run_scenario,
)

OUT_ENV_VAR = "HVLAB_OUT"

# config fields a flag may override; a flag that was not given leaves no
# attribute (SUPPRESS), so the config keeps its own value
_OVERRIDES = ("tolerance", "grid_points", "normalize_all_levels")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvlab",
        description="Verification scenarios for dispersion-free qubit hidden-variable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("config", type=Path)
    p_sweep = sub.add_parser("sweep", help="seeded randomized invariant sweep")
    p_sweep.set_defaults(handler=_cmd_sweep)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--trials", type=int, default=DEFAULT_SWEEP_TRIALS)
    p_manifest = sub.add_parser("manifest", help="run every *.cfg in a directory")
    p_manifest.set_defaults(handler=_cmd_manifest)
    p_manifest.add_argument("directory", type=Path)
    p_trace = sub.add_parser("trace", help="write omega,value CSV traces for a scenario")
    p_trace.set_defaults(handler=_cmd_trace)
    p_trace.add_argument("config", type=Path)

    for p in (p_run, p_sweep, p_manifest):
        p.add_argument(
            "--tolerance", type=float, default=SUPPRESS, help="override the pass tolerance"
        )
    for p in (p_run, p_manifest):
        p.add_argument(
            "--normalize-all-levels",
            action="store_true",
            default=SUPPRESS,
            help="divide branching joints by every level's normalizer, including the last",
        )
    p_trace.add_argument(
        "--grid-points",
        type=int,
        default=SUPPRESS,
        help=f"omega grid size for traces (default {DEFAULT_GRID_POINTS})",
    )
    for p in (p_run, p_sweep, p_manifest, p_trace):
        p.add_argument("--out", type=Path, default=None, help=f"output directory (default ${OUT_ENV_VAR})")
    return parser


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    return replace(config, **{key: getattr(args, key) for key in _OVERRIDES if hasattr(args, key)})


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is not None:
        return args.out
    env = os.environ.get(OUT_ENV_VAR)
    return Path(env) if env else None


def _write(out: Path | None, name: str, text: str) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with closing(_Rewrite(out / name)) as file:
            try:
                file.write(text.encode("utf-8"))
            finally:
                file.cut()


def _report(config: ScenarioConfig, args: argparse.Namespace) -> tuple[ScenarioReport, str | None]:
    """Apply the flags to ``config``, run it, and write its report under ``--out``.

    Returns the report and the JSON text it was written as, or None when
    there is no output directory: a report is serialized only to be written
    or printed.
    """
    report = run_scenario(_apply_overrides(config, args))
    out = _out_dir(args)
    if out is None:
        return report, None
    text = report.to_json()
    _write(out, f"{report.scenario}__report.json", text)
    return report, text


def _print_report(config: ScenarioConfig, args: argparse.Namespace) -> int:
    report, text = _report(config, args)
    sys.stdout.write(text or report.to_json())
    return 0 if report.passed else 1


def _cmd_run(args: argparse.Namespace) -> int:
    return _print_report(load_config(args.config), args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _print_report(ScenarioConfig(scenario="sweep", seed=args.seed, trials=args.trials), args)


def _error(exc: Exception) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return 2


def _cmd_manifest(args: argparse.Namespace) -> int:
    configs = sorted(args.directory.glob("*.cfg"))
    if not configs:
        sys.stderr.write(f"no *.cfg files found in {args.directory}\n")
        return 2
    reports = []
    for path in configs:
        try:
            entry = _report(load_config(path), args)[0].to_dict()
        except (HvlabError, OSError) as exc:
            _error(exc)
            entry = {"error": str(exc), "pass": False}
        reports.append({"config": path.name, **entry})
    aggregate = {"reports": reports, "pass": all(r["pass"] for r in reports)}
    text = _indented_json(aggregate) + "\n"
    sys.stdout.write(text)
    _write(_out_dir(args), "manifest__report.json", text)
    if any("error" in r for r in reports):
        return 2
    return 0 if aggregate["pass"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out = _out_dir(args)
    if out is None:
        sys.stderr.write(f"trace needs --out or ${OUT_ENV_VAR}\n")
        return 2
    written = emit_trace(config, out)
    if written:
        record = {"scenario": config.scenario, "files": [p.name for p in written]}
    else:
        record = {"scenario": config.scenario, "notice": "scenario produces no omega traces"}
    sys.stdout.write(_indented_json(record) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (HvlabError, OSError) as exc:
        return _error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
