"""Command-line front end: scenario generation, planning, emergency
simulation, and method comparison.

Exit codes: 0 ok, 1 I/O or file-format failure, 2 usage error,
3 infeasible under the fleet cap, 4 bad experiment spec.

Config files are flat key=value text (keys are flag names with underscores);
precedence is CLI flag > config file > built-in default.  All randomness
flows from --seed through labeled sub-seed hashing, so repeated runs produce
byte-identical outputs apart from the *_time_s timing columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
from .emergency import generate_events, load_events, save_events, simulate, write_trace_csv
from .model import AlgoParams, FleetInitMode, PhysicalParams, Variant
from .planner import InfeasibleError, plan as plan_scenario
from .planner import load_plan, save_plan, write_route_csv
from .scenario import GenConfig, ScenarioFormatError, generate, load_scenario, save_scenario
from .timing import all_responses, mean_response, totals

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BADSPEC = 4

METHODS = ("proposed", "ga", "pso", "greedy")


# ---------------------------------------------------------------- config file

def _read_config_file(path: str) -> dict[str, str]:
    vals: dict[str, str] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ScenarioFormatError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            vals[key.strip()] = val.strip()
    return vals


def _flag_on_argv(argv: list[str], option_strings: list[str]) -> bool:
    return any(a == opt or a.startswith(opt + "=")
               for a in argv for opt in option_strings)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Overlay config-file values onto parsed args; CLI flags win."""
    if not getattr(args, "config", None):
        return
    vals = _read_config_file(args.config)
    parser: argparse.ArgumentParser = args._parser
    by_dest = {a.dest: a for a in parser._actions if a.option_strings}
    for key, text in vals.items():
        action = by_dest.get(key)
        if action is None or key in ("config", "help"):
            parser.error(f"unknown config key {key!r} in {args.config}")
        if _flag_on_argv(argv, action.option_strings):
            continue
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            value = _parse_bool(text)
        else:
            conv = action.type or str
            value = conv(text)
            if action.choices is not None and value not in action.choices:
                parser.error(f"config key {key!r}: invalid choice {text!r}")
        setattr(args, action.dest, value)


# --------------------------------------------------------------- shared flags

def _add_algo_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=0, help="base seed (all sub-seeds derive from it)")
    sp.add_argument("--omega-h", type=float, default=1.5, help="fire-history weight")
    sp.add_argument("--omega-d", type=float, default=0.7, help="distance weight in edge scoring")
    sp.add_argument("--omega-l", type=float, default=0.3, help="load weight in edge scoring")
    sp.add_argument("--lam", type=float, default=0.1, help="service-time weight in the objective")
    sp.add_argument("--epsilon-m", type=float, default=10.0, help="k-means convergence threshold, m")
    sp.add_argument("--theta-max", type=float, default=0.8, help="delivery-edge utilization cap")
    sp.add_argument("--fleet-init", choices=[m.value for m in FleetInitMode],
                    default=FleetInitMode.ONE.value,
                    help="initial fleet size rule for the sizing loop")


def _add_search_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ga-pop", type=int, default=50, help="GA population size")
    sp.add_argument("--ga-gens", type=int, default=100, help="GA generations")
    sp.add_argument("--pso-swarm", type=int, default=30, help="PSO swarm size")
    sp.add_argument("--pso-iters", type=int, default=100, help="PSO iterations")


def _algo_from_args(args: argparse.Namespace, seed: int | None = None) -> AlgoParams:
    return AlgoParams(omega_h=args.omega_h, omega_d=args.omega_d, omega_l=args.omega_l,
                      lam=args.lam, epsilon_m=args.epsilon_m, theta_max=args.theta_max,
                      seed=args.seed if seed is None else seed,
                      fleet_init_mode=FleetInitMode(args.fleet_init))


def _make_plan(method: str, scenario, algo: AlgoParams, args: argparse.Namespace,
               variant: Variant = Variant.FULL):
    if method == "proposed":
        return plan_scenario(scenario, algo, variant)
    if method == "greedy":
        return greedy_plan(scenario, algo)
    if method == "ga":
        return ga_plan(scenario, algo,
                       GaConfig(population=args.ga_pop, generations=args.ga_gens,
                                seed=algo.seed))
    if method == "pso":
        return pso_plan(scenario, algo,
                        PsoConfig(swarm=args.pso_swarm, iterations=args.pso_iters,
                                  seed=algo.seed))
    raise ValueError(f"unknown method {method!r}")


def _mean_ci(xs: list[float]) -> tuple[float, float | None, float | None]:
    """Sample mean with a t-based 95% CI; CI is None below 2 samples."""
    n = len(xs)
    m = float(np.mean(xs)) if n else math.nan
    if n < 2:
        return m, None, None
    # imported here, not with the module: importing scipy.stats takes most of
    # the CLI's start-up time, and only compare needs it
    from scipy import stats

    sd = float(np.std(xs, ddof=1))
    half = float(stats.t.ppf(0.975, n - 1)) * sd / math.sqrt(n)
    return m, m - half, m + half


# ----------------------------------------------------------------- subcommands

def cmd_generate(args: argparse.Namespace) -> int:
    try:
        cfg = GenConfig(n_sensors=args.sensors, n_edges=args.edges,
                        n_hotspots=args.hotspots, hotspot_fraction=args.hotspot_fraction,
                        hotspot_sigma_m=args.hotspot_sigma,
                        fire_history_max=args.fire_history_max, seed=args.seed)
        physical = PhysicalParams(area_km2=args.area_km2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scenario = generate(cfg, physical)
    save_scenario(scenario, args.out)
    print(f"scenario: {len(scenario.sensors)} sensors, {len(scenario.edges)} edges, "
          f"{len(scenario.meta.hotspots)} hotspots, seed {cfg.seed} -> {args.out}")
    return EXIT_OK


def _write_metrics_csv(path: str, rows: list[dict]) -> None:
    fields = ["method", "variant", "seed", "n_sensors", "fleet",
              "total_route_length_m", "total_energy_wh", "mean_response_s",
              "planning_time_s"]
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


def _plan_metrics(pl, scenario) -> dict:
    return {
        "method": pl.method,
        "variant": pl.variant,
        "seed": pl.seed,
        "n_sensors": len(scenario.sensors),
        "fleet": pl.m,
        "total_route_length_m": sum(r.length_m for r in pl.routes),
        "total_energy_wh": sum(r.energy_wh for r in pl.routes),
        "mean_response_s": mean_response(pl, scenario),
        "planning_time_s": pl.planning_time_s,
    }


def cmd_plan(args: argparse.Namespace) -> int:
    if args.method != "proposed" and args.variant != Variant.FULL.value:
        print("error: --variant applies to --method proposed only", file=sys.stderr)
        return EXIT_USAGE
    scenario = load_scenario(args.scenario)
    algo = _algo_from_args(args)
    try:
        pl = _make_plan(args.method, scenario, algo, args, Variant(args.variant))
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    os.makedirs(args.out_dir, exist_ok=True)
    save_plan(pl, scenario, os.path.join(args.out_dir, "plan.json"))
    write_route_csv(pl, scenario, os.path.join(args.out_dir, "routes.csv"))
    row = _plan_metrics(pl, scenario)
    _write_metrics_csv(os.path.join(args.out_dir, "metrics.csv"), [row])
    print(f"plan: method={pl.method} variant={pl.variant} fleet={pl.m} "
          f"route_m={row['total_route_length_m']:.0f} "
          f"mean_response_s={row['mean_response_s']:.1f} -> {args.out_dir}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        print(f"error: --horizon must be a finite number > 0, got {args.horizon}",
              file=sys.stderr)
        return EXIT_USAGE
    scenario = load_scenario(args.scenario)
    pl = load_plan(args.plan, scenario)
    algo = _algo_from_args(args)

    if args.events:
        events = load_events(args.events)
    else:
        try:
            events = generate_events(scenario, pl, args.n_events, args.horizon, args.seed,
                                     min_history=args.min_history)
        except ValueError as exc:
            print(f"error: --n-events {args.n_events}: {exc}", file=sys.stderr)
            return EXIT_BADSPEC

    result = simulate(pl, scenario, events, args.horizon, algo,
                      dispatch_policy=args.policy)
    os.makedirs(args.out_dir, exist_ok=True)
    save_events(events, os.path.join(args.out_dir, "events.json"))
    write_trace_csv(result, os.path.join(args.out_dir, "trace.csv"))

    responses = [t.response_time_s for t in result.traces]
    deadline = scenario.physical.t_urgent_s
    impact = {
        "n_events": len(result.traces),
        "horizon_s": result.horizon_s,
        "policy": args.policy,
        "deadline_s": deadline,
        "mean_response_s": float(np.mean(responses)) if responses else 0.0,
        "max_response_s": max(responses) if responses else 0.0,
        "deadline_hit_rate": (sum(t.deadline_met for t in result.traces) / len(result.traces)
                              if result.traces else 1.0),
        "delivery_fallbacks": sum(t.delivery_fallback for t in result.traces),
        "normal_baseline_mean_s": result.impact.baseline_mean_s,
        "normal_with_events_mean_s": result.impact.with_events_mean_s,
        "normal_delta_s": result.impact.delta_s,
        "normal_delta_fraction": result.impact.delta_fraction,
    }
    with open(os.path.join(args.out_dir, "impact.json"), "w") as f:
        json.dump(impact, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"simulate: {len(result.traces)} events, "
          f"mean_response_s={impact['mean_response_s']:.1f}, "
          f"deadline_hit_rate={impact['deadline_hit_rate']:.2f}, "
          f"normal_delta={impact['normal_delta_fraction'] * 100:.2f}% -> {args.out_dir}")
    return EXIT_OK


def _parse_sweep(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep spec must be START:STOP:STEP, got {text!r}")
    start, stop, step = (int(x) for x in parts)
    if step <= 0 or start <= 0 or stop < start:
        raise ValueError(f"invalid sweep spec {text!r}")
    return list(range(start, stop + 1, step))


def _compare_cell(method: str, n: int, seed: int, args: argparse.Namespace,
                  fixed_scenario) -> dict:
    scenario = fixed_scenario if fixed_scenario is not None else generate(
        GenConfig(n_sensors=n, n_edges=args.edges, seed=seed))
    algo = _algo_from_args(args, seed=seed)
    pl = _make_plan(method, scenario, algo, args)
    row = _plan_metrics(pl, scenario)
    row["responses"] = sorted(totals(all_responses(pl, scenario)[0]).tolist())
    return row


def cmd_compare(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    bad = [m for m in methods if m not in METHODS]
    if bad or not methods:
        print(f"error: unknown methods {bad}", file=sys.stderr)
        return EXIT_BADSPEC
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return EXIT_BADSPEC
    try:
        ns = _parse_sweep(args.sweep_sensors) if args.sweep_sensors else [args.sensors]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADSPEC
    if args.seeds < 2:
        print("warning: CIs omitted (need >= 2 seeds)", file=sys.stderr)

    fixed_scenario = load_scenario(args.scenario) if args.scenario else None
    if fixed_scenario is not None:
        ns = [len(fixed_scenario.sensors)]
    seeds = list(range(args.seeds))

    cells: dict[tuple[int, int, str], dict] = {}
    failures: list[dict] = []
    keys = [(n, s, meth) for n in ns for s in seeds for meth in methods]
    for key in keys:
        try:
            cells[key] = _compare_cell(key[2], key[0], key[1], args, fixed_scenario)
        except (InfeasibleError, ValueError, RuntimeError) as exc:
            failures.append({"n_sensors": key[0], "seed": key[1], "method": key[2],
                             "error": str(exc)})

    os.makedirs(args.out_dir, exist_ok=True)
    means_rows, cdf_rows, pair_rows = [], [], []
    summary_means: dict = {}
    for n in ns:
        for meth in methods:
            rows = [cells[(n, s, meth)] for s in seeds if (n, s, meth) in cells]
            if not rows:
                continue
            resp = [r["mean_response_s"] for r in rows]
            ener = [r["total_energy_wh"] for r in rows]
            fleet = [float(r["fleet"]) for r in rows]
            length = [r["total_route_length_m"] for r in rows]
            rm, rlo, rhi = _mean_ci(resp)
            em, elo, ehi = _mean_ci(ener)
            fm, flo, fhi = _mean_ci(fleet)
            means_rows.append({
                "n_sensors": n, "method": meth, "seeds_ok": len(rows),
                "mean_response_s": rm, "response_ci_lo": _fmt(rlo), "response_ci_hi": _fmt(rhi),
                "total_energy_wh": em, "energy_ci_lo": _fmt(elo), "energy_ci_hi": _fmt(ehi),
                "fleet": fm, "fleet_ci_lo": _fmt(flo), "fleet_ci_hi": _fmt(fhi),
                "total_route_length_m": float(np.mean(length)),
                "planning_time_s_mean": float(np.mean([r["planning_time_s"] for r in rows])),
            })
            summary_means[f"n={n},method={meth}"] = {
                "seeds_ok": len(rows), "mean_response_s": rm,
                "response_ci": [rlo, rhi], "total_energy_wh": em,
                "energy_ci": [elo, ehi], "fleet": fm, "fleet_ci": [flo, fhi],
                "total_route_length_m": float(np.mean(length)),
            }
            pooled = sorted(t for r in rows for t in r["responses"])
            for i, t in enumerate(pooled):
                cdf_rows.append({"n_sensors": n, "method": meth, "response_s": t,
                                 "cum_fraction": (i + 1) / len(pooled)})

        if "proposed" in methods:
            for meth in methods:
                if meth == "proposed":
                    continue
                for metric in ("mean_response_s", "total_energy_wh", "fleet"):
                    diffs = [cells[(n, s, "proposed")][metric] - cells[(n, s, meth)][metric]
                             for s in seeds
                             if (n, s, "proposed") in cells and (n, s, meth) in cells]
                    if not diffs:
                        continue
                    dm, dlo, dhi = _mean_ci([float(d) for d in diffs])
                    pair_rows.append({"n_sensors": n, "metric": metric, "baseline": meth,
                                      "n_pairs": len(diffs), "mean_diff": dm,
                                      "ci_lo": _fmt(dlo), "ci_hi": _fmt(dhi)})

    _write_rows(os.path.join(args.out_dir, "means.csv"),
                ["n_sensors", "method", "seeds_ok", "mean_response_s", "response_ci_lo",
                 "response_ci_hi", "total_energy_wh", "energy_ci_lo", "energy_ci_hi",
                 "fleet", "fleet_ci_lo", "fleet_ci_hi", "total_route_length_m",
                 "planning_time_s_mean"], means_rows)
    _write_rows(os.path.join(args.out_dir, "cdf.csv"),
                ["n_sensors", "method", "response_s", "cum_fraction"], cdf_rows)
    _write_rows(os.path.join(args.out_dir, "pairwise.csv"),
                ["n_sensors", "metric", "baseline", "n_pairs", "mean_diff",
                 "ci_lo", "ci_hi"], pair_rows)

    growth = {}
    if len(ns) > 1:
        for meth in methods:
            lo = next((r for r in means_rows
                       if r["method"] == meth and r["n_sensors"] == ns[0]), None)
            hi = next((r for r in means_rows
                       if r["method"] == meth and r["n_sensors"] == ns[-1]), None)
            if lo and hi and lo["fleet"] > 0:
                growth[meth] = hi["fleet"] / lo["fleet"]

    summary = {
        "methods": methods, "seeds": len(seeds), "n_sensors": ns,
        "means": summary_means,
        "pairwise_proposed_minus_baseline": pair_rows,
        "fleet_growth_factor": growth,
        "failures": failures,
        "ci": "t-based 95% from per-seed values; null below 2 seeds",
    }
    with open(os.path.join(args.out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
        f.write("\n")

    ok_cells = {(n, s) for (n, s, _m) in cells}
    all_cells = {(n, s) for n in ns for s in seeds}
    print(f"compare: {len(cells)}/{len(keys)} cells ok, "
          f"{len(failures)} failures -> {args.out_dir}")
    return EXIT_OK if ok_cells == all_cells else EXIT_INFEASIBLE


def _fmt(x: float | None):
    return "" if x is None else x


def _write_rows(path: str, fields: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


# ----------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="firewatch",
        description="UAV wildfire-monitoring planner and simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a scenario JSON file")
    g.add_argument("--sensors", type=int, default=200)
    g.add_argument("--edges", type=int, default=5)
    g.add_argument("--hotspots", type=int, default=3)
    g.add_argument("--hotspot-fraction", type=float, default=0.6)
    g.add_argument("--hotspot-sigma", type=float, default=800.0)
    g.add_argument("--fire-history-max", type=int, default=100)
    g.add_argument("--area-km2", type=float, default=100.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", default="scenario.json")
    g.add_argument("--config", default=None, help="key=value config file")
    g.set_defaults(func=cmd_generate, _parser=g)

    pl = sub.add_parser("plan", help="plan routes and edge assignments")
    pl.add_argument("-s", "--scenario", required=True)
    pl.add_argument("--method", choices=METHODS, default="proposed")
    pl.add_argument("--variant", choices=[v.value for v in Variant],
                    default=Variant.FULL.value,
                    help="ablation arm (proposed method only)")
    _add_algo_flags(pl)
    _add_search_flags(pl)
    pl.add_argument("-o", "--out-dir", default=".")
    pl.add_argument("--config", default=None, help="key=value config file")
    pl.set_defaults(func=cmd_plan, _parser=pl)

    si = sub.add_parser("simulate", help="run the emergency-response simulation")
    si.add_argument("-s", "--scenario", required=True)
    si.add_argument("-p", "--plan", required=True)
    si.add_argument("--events", default=None, help="event JSON file (else auto-generate)")
    si.add_argument("--n-events", type=int, default=5)
    si.add_argument("--min-history", type=int, default=50)
    si.add_argument("--horizon", type=float, default=86400.0,
                    help="simulated horizon, s (default: one monitoring day)")
    si.add_argument("--policy", choices=["nearest", "own_cluster"], default="nearest")
    _add_algo_flags(si)
    si.add_argument("-o", "--out-dir", default=".")
    si.add_argument("--config", default=None, help="key=value config file")
    si.set_defaults(func=cmd_simulate, _parser=si)

    co = sub.add_parser("compare", help="run methods x seeds and tabulate")
    co.add_argument("-s", "--scenario", default=None,
                    help="fixed scenario file (else generated per seed)")
    co.add_argument("--methods", default="proposed,ga,pso,greedy")
    co.add_argument("--seeds", type=int, default=20, help="number of seeds (0..N-1)")
    co.add_argument("--sensors", type=int, default=200)
    co.add_argument("--edges", type=int, default=5)
    co.add_argument("--sweep-sensors", default=None, metavar="START:STOP:STEP")
    _add_algo_flags(co)
    _add_search_flags(co)
    co.add_argument("-o", "--out-dir", default=".")
    co.add_argument("--config", default=None, help="key=value config file")
    co.set_defaults(func=cmd_compare, _parser=co)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        apply_config(args, argv)
        if hasattr(args, "omega_h"):
            _algo_from_args(args)   # a bad algorithm flag is a usage error
    except SystemExit as exc:
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    except (ScenarioFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
