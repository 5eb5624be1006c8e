"""Command-line front end: scenario generation, planning, emergency
simulation, and method comparison.

Exit codes: 0 ok, 1 I/O or file-format failure, 2 usage error,
3 infeasible under the fleet cap, 4 bad experiment spec.  A bad scenario,
plan or events file exits 1 with a message naming the JSON path of the
field, for example ``plan routes[0].waypoints[3]``; a bad flag or config
value exits 2 naming the flag or config key.

Config files are flat key=value text (keys are flag names with underscores).
Their values become the subcommand's parser defaults before argv is parsed
again, so precedence is CLI flag > config file > built-in default for any
spelling of a flag that argparse accepts.  All randomness
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
from dataclasses import replace

import numpy as np

from .baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
from .emergency import generate_events, load_events, save_events, simulate, write_trace_csv
from .model import AlgoParams, FleetInitMode, PhysicalParams, Variant
from .planner import InfeasibleError, plan as plan_scenario
from .planner import load_plan, save_plan, write_route_csv
from .reader import InputError
from .scenario import GenConfig, generate, load_scenario, save_scenario
from .timing import all_responses, mean_response, totals

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BADSPEC = 4

METHODS = ("proposed", "ga", "pso", "greedy")


# ---------------------------------------------------------------- config file

def _config_as_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make each key=value of the config file at ``path`` the default of
    ``parser``'s flag of that name, converted and checked as argparse would."""
    by_dest = {a.dest: a for a in parser._actions if a.option_strings}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value")
            key, text = (part.strip() for part in line.split("=", 1))
            action = by_dest.get(key)
            if action is None or key in ("config", "help"):
                parser.error(f"unknown config key {key!r} in {path}")
            try:
                value = (action.type or str)(text)
            except ValueError:
                parser.error(f"config key {key!r}: invalid value {text!r}")
            if action.choices is not None and value not in action.choices:
                parser.error(f"config key {key!r}: invalid choice {text!r}")
            parser.set_defaults(**{key: value})


# --------------------------------------------------------------- shared flags

def _add_algo_flags(sp: argparse.ArgumentParser) -> None:
    d = AlgoParams()
    sp.add_argument("--seed", type=int, default=d.seed,
                    help="base seed (all sub-seeds derive from it)")
    sp.add_argument("--omega-h", type=float, default=d.omega_h, help="fire-history weight")
    sp.add_argument("--omega-d", type=float, default=d.omega_d,
                    help="distance weight in edge scoring")
    sp.add_argument("--omega-l", type=float, default=d.omega_l, help="load weight in edge scoring")
    sp.add_argument("--lam", type=float, default=d.lam, help="service-time weight in the objective")
    sp.add_argument("--epsilon-m", type=float, default=d.epsilon_m,
                    help="k-means convergence threshold, m")
    sp.add_argument("--theta-max", type=float, default=d.theta_max,
                    help="delivery-edge utilization cap")
    sp.add_argument("--fleet-init", choices=[m.value for m in FleetInitMode],
                    default=d.fleet_init_mode.value,
                    help="initial fleet size rule for the sizing loop")


def _add_search_flags(sp: argparse.ArgumentParser) -> None:
    ga, pso = GaConfig(), PsoConfig()
    sp.add_argument("--ga-pop", type=int, default=ga.population, help="GA population size")
    sp.add_argument("--ga-gens", type=int, default=ga.generations, help="GA generations")
    sp.add_argument("--pso-swarm", type=int, default=pso.swarm, help="PSO swarm size")
    sp.add_argument("--pso-iters", type=int, default=pso.iterations, help="PSO iterations")


def _algo_from_args(args: argparse.Namespace, seed: int | None = None) -> AlgoParams:
    return AlgoParams(omega_h=args.omega_h, omega_d=args.omega_d, omega_l=args.omega_l,
                      lam=args.lam, epsilon_m=args.epsilon_m, theta_max=args.theta_max,
                      seed=args.seed if seed is None else seed,
                      fleet_init_mode=FleetInitMode(args.fleet_init))


def _from_flags(cls, args: argparse.Namespace, flags: dict[str, str], **fixed):
    """``cls`` with each field in ``flags`` taken from that flag's value and
    the ``fixed`` ones as given.  Each flag's value is first checked alone,
    every other field at its default, so a value the class rejects raises a
    ValueError naming the flag and the value."""
    values = {field: getattr(args, flag[2:].replace("-", "_")) for field, flag in flags.items()}
    for field, flag in flags.items():
        try:
            cls(**{field: values[field]})
        except ValueError as exc:
            raise ValueError(f"{flag} {values[field]}: {exc}") from None
    return cls(**values, **fixed)


def _search_from_args(args: argparse.Namespace, seed: int) -> tuple[GaConfig, PsoConfig]:
    return (_from_flags(GaConfig, args, {"population": "--ga-pop", "generations": "--ga-gens"},
                        seed=seed),
            _from_flags(PsoConfig, args, {"swarm": "--pso-swarm", "iterations": "--pso-iters"},
                        seed=seed))


def _make_plan(method: str, scenario, algo: AlgoParams, args: argparse.Namespace,
               variant: Variant = Variant.FULL):
    if method == "proposed":
        return plan_scenario(scenario, algo, variant)
    if method == "greedy":
        return greedy_plan(scenario, algo)
    ga, pso = _search_from_args(args, algo.seed)
    if method == "ga":
        return ga_plan(scenario, algo, ga)
    return pso_plan(scenario, algo, pso)


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
        cfg = _from_flags(GenConfig, args, {
            "n_sensors": "--sensors", "n_edges": "--edges", "n_hotspots": "--hotspots",
            "hotspot_fraction": "--hotspot-fraction", "hotspot_sigma_m": "--hotspot-sigma",
            "fire_history_max": "--fire-history-max", "seed": "--seed"})
        physical = _from_flags(PhysicalParams, args, {"area_km2": "--area-km2"})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scenario = generate(cfg, physical)
    save_scenario(scenario, args.out)
    print(f"scenario: {len(scenario.xy)} sensors, {len(scenario.edge_xy)} edges, "
          f"{len(scenario.meta.hotspots)} hotspots, seed {cfg.seed} -> {args.out}")
    return EXIT_OK


def _plan_metrics(pl, scenario) -> dict:
    return {
        "method": pl.method,
        "variant": pl.variant,
        "seed": pl.seed,
        "n_sensors": len(scenario.xy),
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
    _write_rows(os.path.join(args.out_dir, "metrics.csv"), list(row), [row])
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
        events = load_events(args.events, len(scenario.xy), args.horizon)
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


def cmd_compare(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    bad = [m for m in methods if m not in METHODS]
    repeated = [m for k, m in enumerate(methods) if m in methods[:k]]
    # the generator flags given; a fixed scenario takes none of them
    gen_given = [flag for flag, value in (("--sweep-sensors", args.sweep_sensors),
                                          ("--sensors", args.sensors), ("--edges", args.edges))
                 if value is not None]
    spec_error = (
        f"unknown methods {bad}" if bad or not methods
        else f"--methods names {repeated[0]} more than once" if repeated
        else "-s/--scenario fixes the sensors and edges; it cannot be combined with "
             + ", ".join(gen_given) if args.scenario and gen_given
        else "--seeds must be >= 1" if args.seeds < 1 else None)
    if spec_error:
        print(f"error: {spec_error}", file=sys.stderr)
        return EXIT_BADSPEC
    try:
        # --sensors is not read when --sweep-sensors is given, and a flag
        # not given keeps GenConfig's default
        flags = ({"n_edges": "--edges"} if args.sweep_sensors
                 else {"n_sensors": "--sensors", "n_edges": "--edges"})
        base = _from_flags(GenConfig, args,
                           {field: flag for field, flag in flags.items() if flag in gen_given})
        ns = _parse_sweep(args.sweep_sensors) if args.sweep_sensors else [base.n_sensors]
        gens = {n: replace(base, n_sensors=n) for n in ns}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADSPEC
    if args.seeds < 2:
        print("warning: CIs omitted (need >= 2 seeds)", file=sys.stderr)

    fixed_scenario = load_scenario(args.scenario) if args.scenario else None
    if fixed_scenario is not None:
        ns = [len(fixed_scenario.xy)]
    seeds = list(range(args.seeds))

    cells: dict[tuple[int, int, str], dict] = {}
    failures: list[dict] = []
    for n in ns:
        for s in seeds:
            scenario = (fixed_scenario if fixed_scenario is not None
                        else generate(replace(gens[n], seed=s)))
            algo = _algo_from_args(args, seed=s)
            for meth in methods:
                try:
                    pl = _make_plan(meth, scenario, algo, args)
                except InfeasibleError as exc:
                    failures.append({"n_sensors": n, "seed": s, "method": meth,
                                     "error": str(exc)})
                    continue
                row = _plan_metrics(pl, scenario)
                row["responses"] = sorted(totals(all_responses(pl, scenario)[0]).tolist())
                cells[(n, s, meth)] = row

    os.makedirs(args.out_dir, exist_ok=True)
    # one aggregate per (n, method): summary.json's "means" entry; means.csv
    # splits each *_ci pair into *_ci_lo/*_ci_hi and adds the mean planning time
    aggs: dict[tuple[int, str], dict] = {}
    means_rows, cdf_rows, pair_rows = [], [], []
    for n in ns:
        for meth in methods:
            rows = [cells[(n, s, meth)] for s in seeds if (n, s, meth) in cells]
            if not rows:
                continue
            agg = aggs[(n, meth)] = {"seeds_ok": len(rows)}
            for metric, ci in (("mean_response_s", "response_ci"),
                               ("total_energy_wh", "energy_ci"), ("fleet", "fleet_ci")):
                mean, lo, hi = _mean_ci([float(r[metric]) for r in rows])
                agg[metric], agg[ci] = mean, [lo, hi]
            agg["total_route_length_m"] = float(np.mean([r["total_route_length_m"]
                                                         for r in rows]))
            csv_row = {"n_sensors": n, "method": meth, "planning_time_s_mean":
                       float(np.mean([r["planning_time_s"] for r in rows]))}
            for key, value in agg.items():
                if key.endswith("_ci"):
                    csv_row[key + "_lo"], csv_row[key + "_hi"] = map(_fmt, value)
                else:
                    csv_row[key] = value
            means_rows.append(csv_row)
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
            lo, hi = aggs.get((ns[0], meth)), aggs.get((ns[-1], meth))
            if lo and hi and lo["fleet"] > 0:
                growth[meth] = hi["fleet"] / lo["fleet"]

    summary = {
        "methods": methods, "seeds": len(seeds), "n_sensors": ns,
        "means": {f"n={n},method={meth}": agg for (n, meth), agg in aggs.items()},
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
    print(f"compare: {len(cells)}/{len(ns) * len(seeds) * len(methods)} cells ok, "
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
    gen = GenConfig()

    g = sub.add_parser("generate", help="write a scenario JSON file")
    g.add_argument("--sensors", type=int, default=gen.n_sensors)
    g.add_argument("--edges", type=int, default=gen.n_edges)
    g.add_argument("--hotspots", type=int, default=gen.n_hotspots)
    g.add_argument("--hotspot-fraction", type=float, default=gen.hotspot_fraction)
    g.add_argument("--hotspot-sigma", type=float, default=gen.hotspot_sigma_m)
    g.add_argument("--fire-history-max", type=int, default=gen.fire_history_max)
    g.add_argument("--area-km2", type=float, default=PhysicalParams().area_km2)
    g.add_argument("--seed", type=int, default=gen.seed)
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
    # no default value, so that -s/--scenario can tell a given flag
    co.add_argument("--sensors", type=int, default=None,
                    help=f"sensors per generated scenario (default {gen.n_sensors})")
    co.add_argument("--edges", type=int, default=None,
                    help=f"edges per generated scenario (default {gen.n_edges})")
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
        if args.config:
            # config values become defaults, so argv, parsed again, overrides them
            _config_as_defaults(args._parser, args.config)
            args = parser.parse_args(argv)
        # a bad algorithm or search flag is a usage error
        if hasattr(args, "omega_h"):
            _algo_from_args(args)
        if hasattr(args, "ga_pop"):
            _search_from_args(args, args.seed)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
