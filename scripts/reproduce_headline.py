#!/usr/bin/env python3
"""Compare the proposed planner against GA/PSO/Greedy on seeded default
scenarios and print the headline table (mean response, energy, fleet).

Writes means.csv / pairwise.csv / cdf.csv / summary.json via the compare
command; the table printed here is read back from summary.json.
"""

import argparse
import json
import os
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--sensors", type=int, default=200)
    ap.add_argument("--ga-pop", type=int, default=30)
    ap.add_argument("--ga-gens", type=int, default=40)
    ap.add_argument("--pso-swarm", type=int, default=20)
    ap.add_argument("--pso-iters", type=int, default=40)
    ap.add_argument("-o", "--out-dir", default="results/headline")
    args = ap.parse_args()

    from firewatch.cli import main as fw

    rc = fw(["compare",
             "--methods", "proposed,ga,pso,greedy",
             "--seeds", str(args.seeds),
             "--sensors", str(args.sensors),
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

    print(f"\n{'method':<10}{'seeds':>6}{'response s':>12}{'energy Wh':>12}"
          f"{'fleet':>8}")
    for key, row in sorted(summary["means"].items()):
        method = key.split("method=")[1]
        print(f"{method:<10}{row['seeds_ok']:>6}{row['mean_response_s']:>12.1f}"
              f"{row['total_energy_wh']:>12.1f}{row['fleet']:>8.2f}")
    if summary["failures"]:
        print(f"\n{len(summary['failures'])} infeasible cells "
              "(see summary.json failures[])")
    return rc


if __name__ == "__main__":
    sys.exit(main())
