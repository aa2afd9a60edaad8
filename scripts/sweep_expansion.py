#!/usr/bin/env python3
"""Sweep the expansion probability against the scale parameter.

For each lambda the measured p_hat is compared with the balance threshold
p* = ln(lambda^ht) / (ln(lambda^ht) + ln a1) above which the drift calculus
closes.  p_hat is roughly constant across a band of lambdas sharing the
same ray power, while p* keeps rising, so the usable window is where the
measured curve clears the threshold with margin; the shipped default
(lambda = 55) sits inside it.
"""

import argparse
import dataclasses
import math
import sys

from thinpart.harness import ConfigError, ExperimentConfig, run_expansion_probability
from thinpart.rootdata import group_constants


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--lambdas", type=float, nargs="+",
                    default=[20.0, 35.0, 55.0, 90.0, 140.0])
    ap.add_argument("--bases", type=int, default=40)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=20260819)
    args = ap.parse_args(argv)

    base = ExperimentConfig(n_base_points=args.bases, n_mc_samples=args.samples,
                            seed=args.seed)
    ht = group_constants(base.group_n).ht_sum
    print(f"{'lambda':>8} {'p_hat':>8} {'band':>8} {'p_star':>8} {'margin':>8}")
    worst = math.inf
    for lam in args.lambdas:
        cfg = dataclasses.replace(base, lambda_=lam)
        p_star = (ht * math.log(lam)) / (ht * math.log(lam) + math.log(cfg.a1))
        try:
            rep = run_expansion_probability(cfg)
        except ConfigError as exc:
            print(f"{lam:8.1f} {'--':>8} {'--':>8} {p_star:8.4f}  skipped: {exc}")
            continue
        p_hat = rep.summary["p_hat"]
        band = rep.summary["band"]
        margin = p_hat - band - p_star
        worst = min(worst, margin)
        print(f"{lam:8.1f} {p_hat:8.4f} {band:8.4f} {p_star:8.4f} {margin:+8.4f}")
    if worst is not math.inf and worst < 0:
        print("some lambdas leave the balanced window", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
