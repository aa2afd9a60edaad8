"""Command line front end: one subcommand per experiment, plus `pipeline`.

Settings come from three layers, defaults < --config file < explicit
flags.  Every run writes report.json and samples.csv to the output
directory and prints one line per verdict.  Exit codes: 0 when every
verdict passed, 2 when some failed, 1 when the run could not start or
could not finish.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .experiments import (
    conjugation_walk,
    run_constants,
    run_evanescence,
    run_expansion_probability,
    run_goodfn,
    run_grassmann,
    run_integrability,
    run_key_inequality,
    run_stationary_bound,
)
from .report import write_report

_RUNNERS = {
    "constants": run_constants,
    "expansion-prob": run_expansion_probability,
    "key-inequality": run_key_inequality,
    "stationary-bound": run_stationary_bound,
    "integrability": run_integrability,
    "evanescence": run_evanescence,
    "goodfn": run_goodfn,
    "grassmann": run_grassmann,
}

# Runners that take a p_hat (None: estimate it) through --p-hat.
_TAKES_P_HAT = {"key-inequality", "stationary-bound", "integrability"}

# Runners over the conjugation walk; `pipeline` runs it once for both.
_TAKES_WALK = {"stationary-bound", "integrability"}

# Stages of `pipeline`, in order; expansion-prob's p_hat feeds the later
# ones, and the walk stages share one conjugation_walk.
_PIPELINE = (
    "constants",
    "expansion-prob",
    "key-inequality",
    "stationary-bound",
    "integrability",
    "evanescence",
)


def _add_run_flags(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON configuration file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, help="override the worker count")
    p.add_argument("--out", metavar="DIR", help=f"report directory (default runs/{name})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinpart",
        description="discreteness-radius experiments on conjugated lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="experiment")
    for name, runner in _RUNNERS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0].rstrip(".")
        p = sub.add_parser(name, help=doc)
        _add_run_flags(p, name)
        if name in _TAKES_P_HAT:
            p.add_argument(
                "--p-hat", type=float, dest="p_hat", metavar="P",
                help="expansion probability from a previous run; estimated when absent",
            )
    _add_run_flags(
        sub.add_parser(
            "pipeline",
            help=f"Run {', '.join(_PIPELINE)} in turn, feeding the measured p_hat "
                 f"forward and sharing one walk",
        ),
        "pipeline",
    )
    return parser


def _write_and_print(report, out_dir: Path, prefix: str = "") -> bool:
    """Write the report, print its verdicts and paths; True if all passed."""
    json_path, csv_path = write_report(report, out_dir)
    for v in report.verdicts:
        mark = "PASS" if v.passed else "FAIL"
        margin = "margin n/a" if v.margin is None else f"margin {v.margin:+.6g}"
        print(f"{prefix}[{mark}] {v.check} ({margin})")
    print(f"{prefix}report: {json_path}")
    print(f"{prefix}samples: {csv_path}")
    return report.all_passed()


def _run_pipeline(cfg: ExperimentConfig, out_dir: Path) -> bool:
    """Every _PIPELINE stage into out_dir/<stage>; True if all verdicts passed."""
    p_hat = None
    walk = None
    passed = True
    for name in _PIPELINE:
        runner = _RUNNERS[name]
        kwargs = {"p_hat": p_hat} if name in _TAKES_P_HAT else {}
        if name in _TAKES_WALK:
            if walk is None:
                walk = conjugation_walk(cfg)
            kwargs["walk"] = walk
        report = runner(cfg, **kwargs)
        passed = _write_and_print(report, out_dir / name, f"{name}: ") and passed
        if name == "expansion-prob":
            p_hat = report.summary["p_hat"]
            print(f"{name}: measured p_hat = {p_hat:.4f} feeds the later stages")
    return passed


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out) if args.out else Path("runs") / args.command
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        if args.command == "pipeline":
            passed = _run_pipeline(cfg, out_dir)
        else:
            runner = _RUNNERS[args.command]
            report = runner(cfg, args.p_hat) if args.command in _TAKES_P_HAT else runner(cfg)
            passed = _write_and_print(report, out_dir)
    except (ConfigError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2
