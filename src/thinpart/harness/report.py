"""Report records and byte-stable persistence.

Reports carry no timestamps and spell every float in its shortest
round-trip form, repr(float(x)), so each value reads back as the same
double and a rerun with the same seed and worker count reproduces both
output files byte for byte.

samples.csv is spelled a column at a time, _CSV_BLOCK rows at once: an
int column through str, a finite float column through a table that
spells each distinct value once, and any other column cell by cell.
The bytes, and the first refusal in row order, are those of a
row-by-row render.
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


_CSV_BLOCK = 1024  # rows spelled at a time


def _csv_column(cells: tuple) -> list:
    kinds = set(map(type, cells))
    if kinds == {int}:
        return list(map(str, cells))
    if kinds == {float} and all(map(math.isfinite, cells)):
        spelled = {v: repr(v) for v in set(cells)}
        if 0.0 in spelled:  # 0.0 == -0.0 share a key; zeros keep their own sign
            return [spelled[v] if v else repr(v) for v in cells]
        return list(map(spelled.__getitem__, cells))
    return list(map(_csv_cell, cells))


def _refuse_in_row_order(block, width) -> None:
    """Raise what a row-by-row render of block raises first."""
    for row in block:
        if len(row) != width:
            raise ValueError("sample row width disagrees with the header")
        for value in row:
            _csv_cell(value)


def render_samples_csv(report: ExperimentReport) -> str:
    width = len(report.columns)
    rows = report.samples
    parts = [",".join(report.columns)]
    for start in range(0, len(rows), _CSV_BLOCK):
        block = rows[start : start + _CSV_BLOCK]
        try:
            # widths first: zip(*block) would silently cut a ragged row
            if any(len(row) != width for row in block):
                raise ValueError("sample row width disagrees with the header")
            columns = [_csv_column(cells) for cells in zip(*block)]
        except (TypeError, ValueError):
            _refuse_in_row_order(block, width)
            raise
        # with no columns zip(*columns) would yield no lines at all
        lines = map(",".join, zip(*columns)) if width else [""] * len(block)
        parts.append("\n".join(lines))
    parts.append("")
    return "\n".join(parts)


def write_report(report: ExperimentReport, out_dir) -> tuple:
    """Write report.json and samples.csv under out_dir; both are rendered
    before either is written, so a refused value leaves no new file."""
    json_text = render_report_json(report)
    csv_text = render_samples_csv(report)
    out = Path(out_dir)
    json_path = out / "report.json"
    csv_path = out / "samples.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json_text, encoding="utf-8")
        csv_path.write_text(csv_text, encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"failed to write report under {out}: {exc}") from exc
    return json_path, csv_path
