"""Report records and byte-stable persistence.

Reports carry no timestamps and spell every float in its shortest
round-trip form, repr(float(x)), so each value reads back as the same
double and a rerun with the same seed and worker count reproduces both
output files byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from .config import ExperimentConfig


@dataclass(frozen=True)
class Verdict:
    check: str
    passed: bool
    margin: float | None  # positive slack when passing; None when undefined


@dataclass
class ExperimentReport:
    experiment: str
    config: ExperimentConfig
    revision: str
    columns: tuple
    samples: list
    summary: dict
    verdicts: list

    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


@functools.cache
def source_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def render_report_json(report: ExperimentReport) -> str:
    doc = {
        "experiment": report.experiment,
        "config": report.config.to_json_dict(),
        "seed": report.config.seed,
        "revision": report.revision,
        "summary": report.summary,
        "verdicts": [
            {"check": v.check, "passed": v.passed, "margin": v.margin}
            for v in report.verdicts
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"reports must not contain non-finite floats, got {value}")
        return repr(float(value))
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError(f"csv cells must not contain separators: {value!r}")
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} in a csv cell")


def render_samples_csv(report: ExperimentReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.samples:
        if len(row) != len(report.columns):
            raise ValueError("sample row width disagrees with the header")
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir) -> tuple:
    out = Path(out_dir)
    json_path = out / "report.json"
    csv_path = out / "samples.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        json_path.write_text(render_report_json(report), encoding="utf-8")
        csv_path.write_text(render_samples_csv(report), encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"failed to write report under {out}: {exc}") from exc
    return json_path, csv_path
