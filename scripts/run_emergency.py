#!/usr/bin/env python3
"""Emergency drill over seeded default scenarios: simulate high-risk alerts,
report response times against the urgent deadline, the analytic worst-case
bound, and the knock-on effect on routine patrol service."""

import argparse
import sys

import numpy as np


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--sensors", type=int, default=200)
    ap.add_argument("--events", type=int, default=5)
    ap.add_argument("--horizon", type=float, default=86400.0)
    ap.add_argument("--policy", choices=["nearest", "own_cluster"],
                    default="nearest")
    return ap


def drill(args):
    """Per seed, the proposed plan of the generated scenario, the scenario,
    the simulation of its alerts under the dispatch policy, and the analytic
    bound: ``(plan, scenario, result, bound)``.  Raises ValueError naming the
    flags when a seed has fewer hot UAV-served sensors than events."""
    from firewatch.emergency import (emergency_response_bound, generate_events,
                                     simulate)
    from firewatch.model import AlgoParams
    from firewatch.planner import plan
    from firewatch.scenario import GenConfig, generate

    for s in range(args.seeds):
        scenario = generate(GenConfig(n_sensors=args.sensors, seed=s))
        algo = AlgoParams(seed=s)
        pl = plan(scenario, algo)
        try:
            events = generate_events(scenario, pl, args.events, args.horizon, seed=s)
        except ValueError as exc:
            raise ValueError(f"--events {args.events} with --sensors {args.sensors} "
                             f"(seed {s}): {exc}") from None
        result = simulate(pl, scenario, events, args.horizon, algo,
                          dispatch_policy=args.policy)
        yield pl, scenario, result, emergency_response_bound(pl, scenario, algo.theta_max)


def main(argv=None) -> int:
    ap = parser()
    args = ap.parse_args(argv)
    for flag in ("seeds", "sensors", "events"):
        if getattr(args, flag) < 1:
            ap.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    from firewatch.emergency import check_horizon
    try:
        check_horizon(args.horizon, "--horizon")
    except ValueError as exc:
        ap.error(str(exc))

    responses, fracs, over_bound = [], [], 0
    try:
        for pl, scenario, result, bound in drill(args):
            rs = [t.response_time_s for t in result.traces]
            responses.extend(rs)
            fracs.append(result.impact.delta_fraction)
            over_bound += sum(r > bound + 1e-6 for r in rs)
            print(f"seed {pl.seed:>2} fleet {pl.m:>2} mean {np.mean(rs):7.1f}s "
                  f"max {max(rs):7.1f}s bound {bound:7.1f}s "
                  f"normal +{result.impact.delta_fraction * 100:.2f}%")
    except ValueError as exc:   # fewer hot UAV-served sensors than events
        ap.error(str(exc))

    # the deadline simulate judges deadline_met by; every seed's scenario has
    # the default physical parameters, so the last one's serves for all
    deadline = scenario.physical.t_urgent_s
    hit = np.mean([r <= deadline for r in responses])
    print(f"\n{len(responses)} events, policy {args.policy}: "
          f"mean {np.mean(responses):.1f}s, p95 {np.percentile(responses, 95):.1f}s, "
          f"deadline({deadline:.0f}s) hit rate {hit * 100:.0f}%, "
          f"{over_bound} above bound, "
          f"normal impact mean +{np.mean(fracs) * 100:.2f}% "
          f"worst +{np.max(fracs) * 100:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
