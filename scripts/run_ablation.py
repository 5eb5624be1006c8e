#!/usr/bin/env python3
"""Ablation at fixed fleet size: rerun planning with 2-opt and/or weighted
k-means disabled at the full planner's chosen fleet, per seed."""

import argparse
import csv
import os
import sys

import numpy as np


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--sensors", type=int, default=200)
    ap.add_argument("-o", "--out-dir", default="results/ablation")
    args = ap.parse_args()
    for flag in ("seeds", "sensors"):
        if getattr(args, flag) < 1:
            ap.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")

    from firewatch.model import AlgoParams, Variant
    from firewatch.planner import plan, plan_at_fleet
    from firewatch.scenario import GenConfig, generate
    from firewatch.timing import mean_response

    order = [Variant.FULL, Variant.NO_2OPT, Variant.NO_KMEANS, Variant.NO_BOTH]
    rows = []
    for s in range(args.seeds):
        scenario = generate(GenConfig(n_sensors=args.sensors, seed=s))
        algo = AlgoParams(seed=s)
        full = plan(scenario, algo)
        row = {"seed": s, "fleet": full.m}
        for v in order:
            arm = full if v is Variant.FULL else plan_at_fleet(
                scenario, algo, full.m, variant=v)
            row[v.value] = mean_response(arm, scenario)
        rows.append(row)
        print(f"seed {s:>2} fleet {full.m:>2} " +
              " ".join(f"{v.value}={row[v.value]:.1f}s" for v in order))

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "ablation.csv")
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    print("\nmeans: " + " ".join(
        f"{v.value}={np.mean([r[v.value] for r in rows]):.1f}s" for v in order))
    chain = sum(all(r[order[i].value] <= r[order[i + 1].value] + 1e-9
                    for i in range(3)) for r in rows)
    print(f"monotone chain on {chain}/{len(rows)} seeds -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
