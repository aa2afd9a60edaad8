"""The workload process: runs one workload's runner calls and reports them.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --out DIR --mode timed|trace
    python3 perfbench/workload.py --workload NAME --seed N --probe

`perfbench/run.py` starts this file in a fresh process for every run, so
the peak resident memory it reports belongs to the workload alone.  The
last line of standard output is one JSON object; progress and tracebacks
go to standard error.

--mode timed repeats whole rounds of the workload for about S seconds.
--mode trace runs one untraced round, then one traced round, and reports
the per-layer metrics.  --probe stops after set-up and prints the
monotonic clock, from which the caller takes the set-up time.

Every runner runs at workers = 1.  On a shared 2-core machine a pool of 2
workers made drift-mc's round time swing twice as much from run to run
(0.135 against 0.059 of the median, six seeds each, interleaved), so the
pool is left out of the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Stage:
    """One runner call.  p_hat is None, a fixed value, or the name of an
    earlier stage whose measured p_hat is fed forward."""

    experiment: str
    runner: str
    config: dict
    p_hat: object = None


# The supplied expansion probability of the walk workload, close to what
# expansion-prob measures at the default config.
WALK_P_HAT = 0.88

# drift-mc: expansion-prob needs p_hat above p* ~ 0.853 for the drift to
# balance; at 2000 pairs its standard error is 0.007, so p_hat ~ 0.88 sits
# near 4 sigma clear of p* on any seed, and the p-hat-band verdict
# (3 sigma <= 0.05) holds with room.  key-inequality needs no such margin.
WORKLOADS = {
    "drift-mc": (
        Stage("expansion-prob", "run_expansion_probability",
              {"n_base_points": 20, "n_mc_samples": 1000}),
        Stage("key-inequality", "run_key_inequality",
              {"n_base_points": 20, "n_mc_samples": 100}, p_hat="expansion-prob"),
    ),
    "cusp-ray": (Stage("evanescence", "run_evanescence", {}),),
    "walk": (
        Stage("stationary-bound", "run_stationary_bound", {}, p_hat=WALK_P_HAT),
        Stage("integrability", "run_integrability", {}, p_hat=WALK_P_HAT),
    ),
    "calibration": (
        Stage("goodfn", "run_goodfn", {}),
        Stage("grassmann", "run_grassmann", {}),
        Stage("constants", "run_constants", {}),
    ),
}

RUNNERS = (
    "run_expansion_probability", "run_key_inequality", "run_evanescence",
    "run_stationary_bound", "run_integrability", "run_goodfn",
    "run_grassmann", "run_constants",
)


def import_harness():
    """thinpart.harness from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import thinpart.harness as harness

    where = Path(harness.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"thinpart was imported from {where}, not from {SRC}")
    return harness


def build_configs(harness, stages, seed: int) -> dict:
    configs = {}
    for st in stages:
        cfg = harness.ExperimentConfig(seed=seed, **st.config)
        harness.derive_group(cfg)
        configs[st.experiment] = cfg
    return configs


def run_round(harness, stages, configs, out_dir: Path) -> dict:
    """Every stage once, each report written as the CLI writes it.

    Runners and write_report are looked up on the harness package at call
    time, so an installed tracer sees the calls.
    """
    reports = {}
    ok = {}
    start = time.perf_counter()
    for st in stages:
        kwargs = {}
        if isinstance(st.p_hat, str):
            source = reports.get(st.p_hat)
            if source is None:
                ok[st.experiment] = False
                continue
            kwargs["p_hat"] = float(source.summary["p_hat"])
        elif st.p_hat is not None:
            kwargs["p_hat"] = st.p_hat
        try:
            report = getattr(harness, st.runner)(configs[st.experiment], **kwargs)
            harness.write_report(report, out_dir / st.experiment)
        except Exception:  # one failed runner call is one failed operation
            traceback.print_exc(file=sys.stderr)
            ok[st.experiment] = False
            continue
        reports[st.experiment] = report
        ok[st.experiment] = True
    wall = time.perf_counter() - start

    digests = {}
    written = 0
    for name in reports:
        h = hashlib.sha256()
        for fname in ("report.json", "samples.csv"):
            data = (out_dir / name / fname).read_bytes()
            written += len(data)
            h.update(data)
        digests[name] = h.hexdigest()
    incidents = sum(int(r.summary.get("cap_incidents", 0)) for r in reports.values())
    return {"wall": wall, "ok": ok, "digests": digests, "bytes": written,
            "cap_incidents": incidents}


def timed(harness, stages, configs, out_dir, seconds) -> dict:
    """Whole rounds until the next one would end more than half a round
    past `seconds`, so a run measures about `seconds` whatever the round
    length."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(harness, stages, configs, out_dir))
        print(f"round {len(rounds)}: {rounds[-1]['wall']:.3f} s", file=sys.stderr)
        if time.perf_counter() - start + rounds[-1]["wall"] / 2 >= seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"rounds": rounds, "peak_rss_mb": peak_kib / 1024.0}


def traced(harness, stages, configs, out_dir) -> dict:
    from tracer import Tracer

    rounds = [run_round(harness, stages, configs, out_dir)]
    tracer = Tracer()
    tracer.install()
    rounds.append(run_round(harness, stages, configs, out_dir))
    metrics = layer_metrics(tracer, rounds[-1])
    metrics["trace.overhead_s"] = rounds[-1]["wall"] - rounds[0]["wall"]
    tracer.write_spans(out_dir / "spans.jsonl")
    return {"rounds": rounds, "layers": metrics}


def layer_metrics(tr, traced_round: dict) -> dict:
    m = {"config.derive_group.s": tr.seconds("config.derive_group")}
    for runner in RUNNERS:
        m[f"experiments.{runner}.s"] = tr.seconds(f"experiments.{runner}")
    m["experiments.model_radius.calls"] = tr.calls("experiments.model_radius")
    m["experiments.model_radius.us_per_call"] = tr.us_per_call("experiments.model_radius")
    m["experiments.model_radius.failed"] = tr.errors("experiments.model_radius")
    m["experiments.sample_base_conjugator.calls"] = tr.calls("experiments.sample_base_conjugator")
    m["slgroup.conjugated_lattice.us_per_call"] = tr.us_per_call("slgroup.conjugated_lattice")
    radius = "slgroup.discreteness_radius"
    m["slgroup.discreteness_radius.calls"] = tr.calls(radius)
    m["slgroup.discreteness_radius.us_per_call"] = tr.us_per_call(radius)
    m["slgroup.discreteness_radius.self_us_per_call"] = tr.us_per_call(radius, self_time=True)
    m["slgroup.reduced_conjugator.calls"] = tr.calls("slgroup.reduced_conjugator")
    m["slgroup.reduced_conjugator.us_per_call"] = tr.us_per_call("slgroup.reduced_conjugator")
    checked = tr.edge_count(binder="slgroup", parent=radius, name="linalg.op_norm")
    logs = tr.edge_count(binder="slgroup", name="linalg.mat_log")
    m["slgroup.candidates_checked"] = checked
    m["slgroup.log_norms"] = logs
    m["slgroup.log_norm_yield"] = logs / checked if checked else 0.0
    m["linalg.mat_log.us_per_call"] = tr.us_per_call("linalg.mat_log")
    for fn in ("op_norm", "haar_orthogonal"):
        m[f"linalg.{fn}.calls"] = tr.calls(f"linalg.{fn}")
        m[f"linalg.{fn}.us_per_call"] = tr.us_per_call(f"linalg.{fn}")
    m["analysis.sublevel_measure.s"] = tr.seconds("analysis.sublevel_measure")
    m["analysis.compact_group_sublevel_fit.s"] = tr.seconds("analysis.compact_group_sublevel_fit")
    for fn in ("check_projection_bound", "check_bijection_contraction"):
        m[f"grassmann.{fn}.us_per_call"] = tr.us_per_call(f"grassmann.{fn}")
    m["report.write_report.s"] = tr.seconds("report.write_report")
    m["report.bytes"] = traced_round["bytes"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--mode", choices=("timed", "trace"), default="timed")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    stages = WORKLOADS[args.workload]
    harness = import_harness()
    configs = build_configs(harness, stages, args.seed)
    if args.probe:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "timed":
        result = timed(harness, stages, configs, args.out, args.seconds)
    else:
        result = traced(harness, stages, configs, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
