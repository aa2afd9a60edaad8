"""Benchmark of thinpart's experiment runners, end to end and per layer.

    python3 perfbench/run.py --workload drift-mc --seed 1 --seconds 25 --trace 0

Workloads: drift-mc, cusp-ray, walk, calibration (see README.md).  With
--trace 0 the run reports setup_s, wall_s and peak_rss_mb; with --trace 1
it reports the per-layer metrics of a traced round.  Every run checks the
outputs of its runner calls; drift-mc and walk also compare the radius
kernel against a brute-force oracle, untimed, after the timed rounds.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Reports, spans and per-layer tables go to perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD = HERE / "workload.py"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
ORACLE_DRAWS = 300
ORACLE_WORKLOADS = ("drift-mc", "walk")

sys.path.insert(0, str(HERE))
import checks  # noqa: E402  (needs HERE on sys.path)
from workload import WORKLOADS  # noqa: E402


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _child(args: list, timeout: float) -> dict:
    """Run workload.py with args; its last stdout line as a dict.

    The child gets its own process group, so a timeout also ends every
    process it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(WORKLOAD), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def setup_seconds(workload: str, seed: int) -> list:
    """Process start to harness imported and config plus derive_group built,
    once per fresh probe process."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        ready = _child(["--workload", workload, "--seed", str(seed), "--probe"], 60)["ready"]
        out.append(ready - start)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "thinpart" / "harness" / "experiments.py").is_file():
        return _fail(f"no thinpart sources under {SRC}; run from a full checkout")
    if not 0 <= args.seed < 2**64:
        return _fail("--seed must lie in [0, 2^64)")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    stages = WORKLOADS[args.workload]
    experiments = [st.experiment for st in stages]

    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        mode = "trace" if args.trace else "timed"
        result = _child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--out", str(out_dir), "--mode", mode],
            CHILD_TIMEOUT_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        return _fail(str(exc))

    rounds = result["rounds"]
    outcome = checks.check_workload(args.workload, out_dir)
    for name in experiments:
        digests = {r["digests"].get(name) for r in rounds}
        outcome.append(checks.Check(
            f"{name}: report bytes identical in every round",
            len(digests) == 1 and None not in digests,
            f"{len(rounds)} rounds, {len(digests)} distinct", (name,)))
    judged_bad = {e for c in outcome if not c.passed for e in c.experiments}
    attempted = len(rounds) * len(experiments)
    failed = sum(
        1 for r in rounds for e in experiments if not r["ok"].get(e) or e in judged_bad
    )

    if args.workload in ORACLE_WORKLOADS:
        sys.path.insert(0, str(SRC))
        import oracle

        o = oracle.compare(args.seed, ORACLE_DRAWS)
        outcome.append(checks.Check(
            "oracle: model_radius matches the brute-force search",
            o["passed"],
            f"{o['checked']} of {o['draws']} draws checked ({o['checked_below_rho']} below rho), "
            f"worst relative error {o['worst_brute_rel']:.2e}; reduced_conjugator "
            f"invariance worst {o['worst_reduced_rel']:.2e}; disagreements {o['disagreements'][:5]}",
            ()))

    for c in outcome:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    incidents = max(r["cap_incidents"] for r in rounds)
    print(f"rounds {len(rounds)}, runner calls {attempted} attempted, {failed} failed; "
          f"radius calls failed (walk cap incidents) {incidents}")

    if args.trace:
        layers = result["layers"]
        (out_dir / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s per probe {[round(s, 4) for s in setup]}; "
              f"wall_s per round {[round(r['wall'], 4) for r in rounds]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(c.passed for c in outcome),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name == "report.bytes":
        return "bytes"
    if name.endswith("yield"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
