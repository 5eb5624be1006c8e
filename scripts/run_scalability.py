#!/usr/bin/env python3
"""Sweep sensor counts and report fleet sizes, response times, and planning
time per method. Fleet growth factor = mean fleet at the top of the sweep
over mean fleet at the bottom."""

import argparse
import json
import os
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sweep", default="100:300:100", metavar="START:STOP:STEP")
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--methods", default="proposed,ga,pso,greedy")
    ap.add_argument("--ga-pop", type=int, default=30)
    ap.add_argument("--ga-gens", type=int, default=40)
    ap.add_argument("--pso-swarm", type=int, default=20)
    ap.add_argument("--pso-iters", type=int, default=40)
    ap.add_argument("-o", "--out-dir", default="results/scalability")
    args = ap.parse_args()

    from firewatch.cli import main as fw

    rc = fw(["compare",
             "--methods", args.methods,
             "--seeds", str(args.seeds),
             "--sweep-sensors", args.sweep,
             "--ga-pop", str(args.ga_pop), "--ga-gens", str(args.ga_gens),
             "--pso-swarm", str(args.pso_swarm),
             "--pso-iters", str(args.pso_iters),
             "-o", args.out_dir])
    # summary.json is written on success and with infeasible cells (exit 3);
    # after any other failure it is absent or left from an earlier run
    if rc not in (0, 3):
        return rc

    with open(os.path.join(args.out_dir, "summary.json")) as f:
        summary = json.load(f)

    print(f"\n{'n':>5}{'method':>10}{'seeds':>6}{'fleet':>8}{'response s':>12}")
    for key, row in sorted(summary["means"].items()):
        n = key.split(",")[0].split("=")[1]
        method = key.split("method=")[1]
        print(f"{n:>5}{method:>10}{row['seeds_ok']:>6}{row['fleet']:>8.2f}"
              f"{row['mean_response_s']:>12.1f}")
    print("\nfleet growth factors:",
          {k: round(v, 2) for k, v in summary["fleet_growth_factor"].items()})
    if summary["failures"]:
        print(f"{len(summary['failures'])} infeasible cells "
              "(see summary.json failures[])")
    return rc


if __name__ == "__main__":
    sys.exit(main())
