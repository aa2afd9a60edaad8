"""Output checks for each workload.

Every expected value is computed here, from closed forms or from
properties the method must have; nothing is compared against a stored
report (report.json carries the git revision, so its bytes change with
every commit).  Each check names the experiments whose runner call it
judges: a failed check fails those operations.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Search radius constant of the lattice model: rho = R / |Ad s_lambda|.
ZASSENHAUS_RADIUS = 0.34
# run_goodfn's sample count for each monomial sublevel estimate.
MONOMIAL_SAMPLES = 4_000_000


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str
    experiments: tuple


def load(out_dir: Path, experiment: str):
    """(report dict, list of sample rows as dicts) for one experiment."""
    base = Path(out_dir) / experiment
    with open(base / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(base / "samples.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return report, rows


def ad_norm_closed_form(n: int, lam: float, x0: float) -> float:
    """|Ad s_lambda| for s_lambda = diag(x0^(n0((n-1)/2 - i))): the ratio of
    its extreme entries, (1/x0)^(n0 (n-1)), with n0 the largest integer such
    that (1/x0)^n0 <= lambda."""
    step = 1.0 / x0
    n0 = 1
    while step ** (n0 + 1) <= lam:
        n0 += 1
    return step ** (n0 * (n - 1))


def rho_of(report: dict) -> float:
    cfg = report["config"]
    return ZASSENHAUS_RADIUS / ad_norm_closed_form(cfg["group_n"], cfg["lambda"], cfg["x0"])


def _verdicts(experiment: str, report: dict) -> Check:
    failed = [v["check"] for v in report["verdicts"] if not v["passed"]]
    return Check(f"{experiment}: every verdict passes", not failed and bool(report["verdicts"]),
                 f"failed: {failed}" if failed else f"{len(report['verdicts'])} verdicts",
                 (experiment,))


def _in_range(values, rho: float) -> tuple:
    bad = [v for v in values if not 0.0 < v <= rho]
    return not bad, f"{len(bad)} of {len(values)} outside (0, {rho:.6g}]"


def _guarded(fn, experiments):
    """Run one workload's checks; a missing or malformed report fails them."""
    try:
        return fn()
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [Check("reports readable", False, f"{type(exc).__name__}: {exc}", experiments)]


def drift_mc(out_dir: Path) -> list:
    exp, exp_rows = load(out_dir, "expansion-prob")
    key, key_rows = load(out_dir, "key-inequality")
    cfg = exp["config"]
    ad = ad_norm_closed_form(cfg["group_n"], cfg["lambda"], cfg["x0"])
    rho = ZASSENHAUS_RADIUS / ad
    checks = [_verdicts("expansion-prob", exp), _verdicts("key-inequality", key)]

    by_base = defaultdict(list)
    for r in exp_rows:
        by_base[r["base_index"]].append(float(r["i_rotated"]))
    spread = max(max(v) / min(v) - 1.0 for v in by_base.values())
    top = max(max(v) for v in by_base.values())
    checks.append(Check(
        "expansion-prob: i_rotated is rotation invariant and thin",
        spread <= 1e-9 and top <= rho / 2,
        f"{len(by_base)} bases, worst relative spread {spread:.2e}, largest {top:.6g} vs rho/2 {rho / 2:.6g}",
        ("expansion-prob",),
    ))
    # The exact floor i_expanded >= i_rotated / |Ad s|, with a relative
    # round-off allowance for the two computed log-norms.
    worst = min(float(r["i_expanded"]) / (float(r["i_rotated"]) / ad) for r in exp_rows)
    checks.append(Check(
        "expansion-prob: i_expanded >= i_rotated / |Ad s_lambda|",
        worst >= 1.0 - 1e-9,
        f"{len(exp_rows)} pairs, least ratio to the floor {worst:.9g}, |Ad s_lambda| = {ad:.9g}",
        ("expansion-prob",),
    ))
    ok, detail = _in_range([float(r[c]) for r in exp_rows for c in ("i_rotated", "i_expanded")], rho)
    checks.append(Check("expansion-prob: radii in (0, rho]", ok, detail, ("expansion-prob",)))
    ok, detail = _in_range([float(r[c]) for r in key_rows for c in ("i_sample", "i_base")], rho)
    checks.append(Check("key-inequality: radii in (0, rho]", ok, detail, ("key-inequality",)))
    fed = key["summary"]["p_hat_source"] == "supplied" and key["summary"]["p_hat"] == exp["summary"]["p_hat"]
    checks.append(Check("key-inequality: runs on the measured p_hat", fed,
                        f"p_hat {key['summary']['p_hat']} ({key['summary']['p_hat_source']})",
                        ("key-inequality",)))
    return checks


def cusp_ray(out_dir: Path) -> list:
    rep, rows = load(out_dir, "evanescence")
    rho = rho_of(rep)
    checks = [_verdicts("evanescence", rep)]
    # The shortest element on the cusp ray is the unit shear, of log-norm 1/y.
    worst = max(abs(float(r["y"]) * float(r["i_value"]) - 1.0) for r in rows)
    checks.append(Check("evanescence: radius * y = 1 on the cusp ray",
                        worst <= 1e-12 and len(rows) == 41,
                        f"{len(rows)} grid points, worst |radius*y - 1| = {worst:.2e}",
                        ("evanescence",)))
    at_one = rep["summary"]["i_at_identity"]
    rho_rel = abs(rep["summary"]["rho"] / rho - 1.0)
    checks.append(Check("evanescence: radius at the identity is exactly rho",
                        at_one == rep["summary"]["rho"] and rho_rel <= 1e-12,
                        f"radius {at_one!r}, reported rho {rep['summary']['rho']!r}, "
                        f"closed-form rho {rho!r}", ("evanescence",)))
    return checks


def walk(out_dir: Path) -> list:
    st, st_rows = load(out_dir, "stationary-bound")
    ig, ig_rows = load(out_dir, "integrability")
    rho = rho_of(st)
    both = ("stationary-bound", "integrability")
    checks = [_verdicts("stationary-bound", st), _verdicts("integrability", ig)]
    kept = [(r["step"], r["i_value"]) for r in st_rows if r["retained"] == "1"]
    same = kept == [(r["step"], r["i_value"]) for r in ig_rows]
    checks.append(Check("walk: both reports carry the same radius at every retained step",
                        same, f"{len(kept)} vs {len(ig_rows)} retained steps", both))
    length = st["config"]["walk_length"]
    want = [length - length // 10 - rep["summary"]["cap_incidents"] for rep in (st, ig)]
    got = [st["summary"]["retained"], ig["summary"]["retained"]]
    checks.append(Check("walk: retained = L - L/10 - incidents",
                        got == want and len(kept) == want[0],
                        f"retained {got}, expected {want}", both))
    ok, detail = _in_range([float(r["i_value"]) for r in st_rows if r["i_value"]], rho)
    checks.append(Check("walk: radii in (0, rho]", ok, detail, both))
    return checks


def calibration(out_dir: Path) -> list:
    co, _ = load(out_dir, "constants")
    gf, gf_rows = load(out_dir, "goodfn")
    gr, gr_rows = load(out_dir, "grassmann")
    checks = [_verdicts(e, r) for e, r in (("constants", co), ("goodfn", gf), ("grassmann", gr))]

    table = {row["n"]: row for row in co["summary"]["table"]}
    bad = []
    for n in (2, 3, 4):
        delta = Fraction(1, (3 * (n - 1) * (n * n - 1)) ** (n // 2 + 1))
        order = (3 * n * (n - 1) ** 2 + 1) ** (n // 2)
        row = table.get(n)
        if row is None or Fraction(row["delta"]) != delta or row["order_bound"] != order:
            bad.append(n)
    checks.append(Check("constants: delta and order match the closed forms for n = 2, 3, 4",
                        not bad, f"mismatched n: {bad}", ("constants",)))

    # 5% as the runner states, widened to 4 binomial standard errors where
    # the expected count is too small for 5% (x at eps = 1e-4: 400 hits).
    worst = 0.0
    ok = True
    for r in gf_rows:
        observed = float(r["observed"])
        if r["check"] == "so2-arcsin":
            expected, tol = 2.0 / math.pi * math.asin(float(r["eps"])), 0.05
        elif r["check"] == "so2-slope":
            expected, tol = 1.0, 0.05
        else:
            d = int(r["check"].rsplit("-", 1)[1])
            expected = float(r["eps"]) ** (1.0 / d)
            tol = max(0.05, 4.0 * math.sqrt((1.0 - expected) / (MONOMIAL_SAMPLES * expected)))
        rel = abs(observed / expected - 1.0)
        worst = max(worst, rel / tol)
        ok = ok and rel <= tol
    checks.append(Check("goodfn: observations match (2/pi) asin(eps), slope 1 and eps^(1/d)",
                        ok and len(gf_rows) == 8,
                        f"{len(gf_rows)} rows, worst error {worst:.2f} of its tolerance",
                        ("goodfn",)))

    mins = {c: min(float(r[c]) for r in gr_rows)
            for c in ("projection_slack", "bijection_slack", "hadamard_slack")}
    ok = (mins["projection_slack"] >= -1e-10 and mins["bijection_slack"] >= -1e-10
          and mins["hadamard_slack"] >= -1e-9)
    checks.append(Check("grassmann: slacks above -1e-10 (Hadamard -1e-9)", ok,
                        f"{len(gr_rows)} trials, least slacks "
                        + ", ".join(f"{k} {v:.3g}" for k, v in mins.items()),
                        ("grassmann",)))
    return checks


CHECKS = {
    "drift-mc": (drift_mc, ("expansion-prob", "key-inequality")),
    "cusp-ray": (cusp_ray, ("evanescence",)),
    "walk": (walk, ("stationary-bound", "integrability")),
    "calibration": (calibration, ("goodfn", "grassmann", "constants")),
}


def check_workload(workload: str, out_dir: Path) -> list:
    fn, experiments = CHECKS[workload]
    return _guarded(lambda: fn(Path(out_dir)), experiments)
