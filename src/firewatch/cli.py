"""Command-line front end: scenario generation, planning, emergency
simulation, and method comparison.

Exit codes: 0 ok, 1 I/O or file-format failure, 2 usage error, 3 infeasible
under the fleet cap, 4 bad experiment spec, 130 interrupted by Ctrl-C (one
line on stderr).  A bad scenario, plan or events file exits 1 with a message
naming the JSON path of the field, for example ``plan routes[0].waypoints[3]``;
a bad flag or config value exits 2 naming the flag or config key.

Each subcommand declares only the flags it reads: ``plan`` and ``compare``
take the six planning flags and the four GA/PSO budgets, ``simulate`` only
``--seed`` and ``--theta-max``.  ``compare`` prints one row per
(sensor count, method) from the aggregates it writes, and the fleet growth
factors of a sweep, before its closing summary line.

Config files are flat key=value text (keys are flag names with underscores,
``out_dir`` included); ``scripts/headline.cfg`` and ``scripts/scalability.cfg``
are the paper's two ``compare`` runs.  Their values become the subcommand's
parser defaults before argv is parsed again, so precedence is CLI flag >
config file > built-in default for any spelling of a flag that argparse
accepts, and a key the subcommand has no flag for exits 2.  ``compare -s
FILE`` rejects a generator flag (``--sensors``, ``--edges``,
``--sweep-sensors``) typed on the command line, but the same key from a
config file yields to the fixed scenario, so a shipped config can be pointed
at one.  All randomness flows from --seed through labeled sub-seed hashing,
so repeated runs produce byte-identical outputs apart from the *_time_s
timing columns.  A config file is UTF-8 and names each key once.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import threading
from dataclasses import replace
from enum import Enum

import numpy as np

from .baselines import (GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan, search_workers,
                        start_workers)
from .clustering import OmegaHError
from .emergency import (check_horizon, generate_events, load_events, queue_report,
                        save_events, simulate, write_trace_csv)
from .model import AlgoParams, PhysicalParams, Variant
from .planner import InfeasibleError, plan as plan_scenario
from .planner import load_plan, save_plan, write_route_csv
from .reader import InputError, OutputError, read_text, write_csv, write_json
from .scenario import GenConfig, generate, load_scenario, save_scenario
from .timing import all_responses, mean_response, totals

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BADSPEC = 4
EXIT_INTERRUPTED = 130

METHODS = ("proposed", "ga", "pso", "greedy")


# ---------------------------------------------------------------- config file

def _config_as_defaults(parser: argparse.ArgumentParser, path: str) -> None:
    """Make each key=value of the config file at ``path`` the default of
    ``parser``'s flag of that name, converted and checked as argparse would.
    A key may appear once; a file that is not UTF-8 raises InputError."""
    by_dest = {a.dest: a for a in parser._actions if a.option_strings}
    seen: dict[str, int] = {}
    # "\n" only: splitlines() also splits at form feeds, and would renumber lines
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, text = (part.strip() for part in line.split("=", 1))
        action = by_dest.get(key)
        if action is None or key in ("config", "help"):
            parser.error(f"unknown config key {key!r} in {path}")
        if key in seen:
            parser.error(f"config key {key!r} given twice in {path}, "
                         f"lines {seen[key]} and {lineno}")
        seen[key] = lineno
        try:
            value = (action.type or str)(text)
        except ValueError:
            parser.error(f"config key {key!r}: invalid value {text!r}")
        if action.choices is not None and value not in action.choices:
            parser.error(f"config key {key!r}: invalid choice {text!r}")
        parser.set_defaults(**{key: value})


# ------------------------------------------------------------- settings flags

# Each settings flag, declared once: a group is the class it sets, the
# attribute of the parsed arguments that holds the object built from it, and
# each flag's field and help.  A flag's type and default are its field's.
GENERATOR = (GenConfig, "gen", {
    "--sensors": ("n_sensors", "sensor count"), "--edges": ("n_edges", "edge node count"),
    "--hotspots": ("n_hotspots", "fire-prone hotspot count"),
    "--hotspot-fraction": ("hotspot_fraction", "share of the sensors in hotspots"),
    "--hotspot-sigma": ("hotspot_sigma_m", "hotspot spread, m"),
    "--fire-history-max": ("fire_history_max", "top of the fire-history scale"),
    "--seed": ("seed", "scenario seed")})
AREA = (PhysicalParams, "area", {"--area-km2": ("area_km2", "monitored area, km^2")})
SEED = ("seed", "base seed (all sub-seeds derive from it)")
PLANNING = (AlgoParams, "algo", {
    "--seed": SEED, "--omega-h": ("omega_h", "fire-history weight"),
    "--omega-l": ("omega_l", "load weight in edge scoring; the distance weight is 1 minus it"),
    "--lam": ("lam", "service-time weight in the objective"),
    "--epsilon-m": ("epsilon_m", "k-means convergence threshold, m"),
    "--fleet-init": ("fleet_init_mode", "initial fleet size rule for the sizing loop")})
DELIVERY = (AlgoParams, "algo", {"--seed": SEED,
                                 "--theta-max": ("theta_max", "delivery-edge utilization cap")})
GA = (GaConfig, "ga", {"--ga-pop": ("population", "GA population size"),
                       "--ga-gens": ("generations", "GA generations")})
PSO = (PsoConfig, "pso", {"--pso-swarm": ("swarm", "PSO swarm size"),
                          "--pso-iters": ("iterations", "PSO iterations")})


def _add_flags(sp: argparse.ArgumentParser, *groups, names=None) -> None:
    """Add each group's flags to ``sp``, for ``main`` to build the groups'
    objects from; with ``names``, only those flags, left to the command."""
    for cls, _attr, flags in groups:
        for flag in names or flags:
            field, text = flags[flag]
            value = getattr(cls(), field)
            if isinstance(value, Enum):
                sp.add_argument(flag, choices=[m.value for m in type(value)],
                                default=value.value, help=text)
            else:
                sp.add_argument(flag, type=type(value), default=value, help=text)
    if names is None:
        sp.set_defaults(_groups=groups)


def _settings(group, args: argparse.Namespace, names=None):
    """The class of ``group`` with the field of each flag (those in ``names``
    when given) taken from ``args``, any other at its default.  Each value is
    checked alone first, so a value the class rejects raises a ValueError
    naming the flag and the value."""
    cls, _attr, flags = group
    values = {}
    for flag in flags if names is None else names:
        field = flags[flag][0]
        # the field's own type: the identity on a number, a member of an enum
        value = type(getattr(cls(), field))(getattr(args, flag[2:].replace("-", "_")))
        try:
            cls(**{field: value})
        except ValueError as exc:
            raise ValueError(f"{flag} {value}: {exc}") from None
        values[field] = value
    return cls(**values)


def _make_plan(method: str, scenario, algo: AlgoParams, args: argparse.Namespace,
               variant: Variant = Variant.FULL, stop: threading.Event | None = None):
    if method == "proposed":
        return plan_scenario(scenario, algo, variant)
    if method == "greedy":
        return greedy_plan(scenario, algo)
    if method == "ga":
        return ga_plan(scenario, algo, args.ga, stop=stop)
    return pso_plan(scenario, algo, args.pso, stop=stop)


def _mean_ci(xs: list[float]) -> tuple[float, float | None, float | None]:
    """Sample mean with a t-based 95% CI; CI is None below 2 samples."""
    n = len(xs)
    m = float(np.mean(xs)) if n else math.nan
    if n < 2:
        return m, None, None
    # imported here, not with the module, since only compare needs it; and
    # from scipy.special, not scipy.stats: on top of `import firewatch.cli`,
    # scipy.stats costs +67.1 MB resident and 0.76 s, scipy.special +21.1 MB
    # and 0.20 s (median of 7 cold imports, scipy 1.17.1, 2-CPU Linux host).
    # scipy.stats.t.ppf is stdtrit(df, q) * scale 1.0 + loc 0.0: the same bits.
    from scipy import special

    sd = float(np.std(xs, ddof=1))
    half = float(special.stdtrit(n - 1, 0.975)) * sd / math.sqrt(n)
    return m, m - half, m + half


# ----------------------------------------------------------------- subcommands

def cmd_generate(args: argparse.Namespace) -> int:
    scenario = generate(args.gen, args.area)
    save_scenario(scenario, args.out)
    print(f"scenario: {len(scenario.xy)} sensors, {len(scenario.edge_xy)} edges, "
          f"{len(scenario.meta.hotspots)} hotspots, seed {args.gen.seed} -> {args.out}")
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
    try:
        pl = _make_plan(args.method, scenario, args.algo, args, Variant(args.variant))
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    os.makedirs(args.out_dir, exist_ok=True)
    save_plan(pl, scenario, os.path.join(args.out_dir, "plan.json"))
    write_route_csv(pl, scenario, os.path.join(args.out_dir, "routes.csv"))
    row = _plan_metrics(pl, scenario)
    write_csv(os.path.join(args.out_dir, "metrics.csv"), list(row), [row])
    print(f"plan: method={pl.method} variant={pl.variant} fleet={pl.m} "
          f"route_m={row['total_route_length_m']:.0f} "
          f"mean_response_s={row['mean_response_s']:.1f} -> {args.out_dir}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        check_horizon(args.horizon, "--horizon")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scenario = load_scenario(args.scenario)
    pl = load_plan(args.plan, scenario)

    if args.events:
        events = load_events(args.events, len(scenario.xy), args.horizon)
    else:
        try:
            events = generate_events(scenario, pl, args.n_events, args.horizon, args.seed,
                                     min_history=args.min_history)
        except ValueError as exc:
            print(f"error: --n-events {args.n_events}: {exc}", file=sys.stderr)
            return EXIT_BADSPEC

    result = simulate(pl, scenario, events, args.horizon, args.algo,
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
    write_json(os.path.join(args.out_dir, "impact.json"), impact, sort_keys=True)
    write_json(os.path.join(args.out_dir, "queue.json"), queue_report(result, pl, scenario),
               sort_keys=True)
    print(f"simulate: {len(result.traces)} events, "
          f"mean_response_s={impact['mean_response_s']:.1f}, "
          f"deadline_hit_rate={impact['deadline_hit_rate']:.2f}, "
          f"normal_delta={impact['normal_delta_fraction'] * 100:.2f}% -> {args.out_dir}")
    return EXIT_OK


def _parse_sweep(text: str) -> list[int]:
    """The sensor counts of a --sweep-sensors START:STOP:STEP spec, STOP
    included; a bad spec raises a ValueError naming the flag and the spec."""
    try:
        start, stop, step = (int(x) for x in text.split(":"))
    except ValueError:
        raise ValueError(f"--sweep-sensors {text}: must be START:STOP:STEP, "
                         "three integers") from None
    if step <= 0 or start <= 0 or stop < start:
        raise ValueError(f"--sweep-sensors {text}: need 1 <= START <= STOP and STEP >= 1")
    return list(range(start, stop + 1, step))


def _compare_cell(meth: str, scenario, algo: AlgoParams, args: argparse.Namespace,
                  stop: threading.Event | None):
    """One compare cell: the plan's metrics row with its response times,
    or the InfeasibleError of a method with no plan."""
    try:
        pl = _make_plan(meth, scenario, algo, args, stop=stop)
    except InfeasibleError as exc:
        return exc
    row = _plan_metrics(pl, scenario)
    row["responses"] = totals(all_responses(pl, scenario)[0]).tolist()
    return row


_CI_METRICS = (("mean_response_s", "response_ci"), ("total_energy_wh", "energy_ci"),
               ("fleet", "fleet_ci"))


def _aggregate(cells: dict, ns: list[int], seeds: list[int], methods: list[str]):
    """compare's aggregates of its planned ``cells``, keyed (sensor count,
    seed, method), from one walk over each (n, method) with a plan: the
    summary.json entries, keyed (n, method); the rows of means.csv, cdf.csv
    and pairwise.csv (proposed minus each other method, over the seeds both
    planned); and each method's fleet growth from the first sensor count to
    the last, when there are two or more."""
    means, means_rows, cdf_rows, pair_rows = {}, [], [], []
    for n in ns:
        for meth in methods:
            rows = [cells[n, s, meth] for s in seeds if (n, s, meth) in cells]
            if not rows:
                continue
            agg = means[n, meth] = {"seeds_ok": len(rows)}
            row = {"n_sensors": n, "method": meth, "seeds_ok": len(rows), "planning_time_s_mean":
                   float(np.mean([r["planning_time_s"] for r in rows]))}
            for metric, ci in _CI_METRICS:
                mean, lo, hi = _mean_ci([float(r[metric]) for r in rows])
                agg[metric], agg[ci] = mean, [lo, hi]
                row.update({metric: mean, ci + "_lo": lo, ci + "_hi": hi})
            agg["total_route_length_m"] = row["total_route_length_m"] = float(
                np.mean([r["total_route_length_m"] for r in rows]))
            means_rows.append(row)
            pooled = sorted(t for r in rows for t in r["responses"])
            cdf_rows += ({"n_sensors": n, "method": meth, "response_s": t,
                          "cum_fraction": (i + 1) / len(pooled)} for i, t in enumerate(pooled))
            pairs = [(cells[n, s, "proposed"], cells[n, s, meth]) for s in seeds
                     if meth != "proposed" and (n, s, "proposed") in cells
                     and (n, s, meth) in cells]
            for metric, _ci in _CI_METRICS if pairs else ():
                diff, lo, hi = _mean_ci([float(p[metric] - b[metric]) for p, b in pairs])
                pair_rows.append({"n_sensors": n, "metric": metric, "baseline": meth,
                                  "n_pairs": len(pairs), "mean_diff": diff,
                                  "ci_lo": lo, "ci_hi": hi})
    first, last = ns[0], ns[-1]
    growth = {meth: means[last, meth]["fleet"] / means[first, meth]["fleet"]
              for meth in methods if len(ns) > 1 and (first, meth) in means
              and (last, meth) in means and means[first, meth]["fleet"] > 0}
    return means, means_rows, cdf_rows, pair_rows, growth


def _run_cells(calls, threads: int) -> list:
    """The result of each of ``calls``, each called with a stop event, in
    their order.  With one thread they run in order in this one, with None
    for the event.  With more, the GA/PSO workers are forked first, then the
    calls run on ``threads`` threads, taken from ``calls`` as threads come
    free (at most ``threads`` more wait queued).  When this thread raises,
    ctrl-C or a call's error, the queued calls are cancelled and the event
    is set, so a running GA/PSO loop stops at its next fleet size, and the
    error propagates once every running call has ended."""
    if threads == 1:
        return [call(None) for call in calls]
    from concurrent.futures import FIRST_COMPLETED, FIRST_EXCEPTION, ThreadPoolExecutor, wait
    start_workers()
    stop = threading.Event()
    futures, running = [], set()
    pool = ThreadPoolExecutor(threads, thread_name_prefix="compare")

    def reap(until) -> set:
        """Wait for ``until`` and raise the error of a call that ended in
        one; the calls still running."""
        done, still = wait(running, return_when=until)
        for future in done:
            future.result()
        return still

    try:
        for call in calls:
            if len(running) >= 2 * threads:
                running = reap(FIRST_COMPLETED)
            futures.append(pool.submit(call, stop))
            running.add(futures[-1])
        reap(FIRST_EXCEPTION)
        return [future.result() for future in futures]
    except BaseException:
        stop.set()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_compare(args: argparse.Namespace) -> int:
    """Plan every (sensor count, seed, method) cell and write the
    aggregates.  With GA or PSO among the methods and W > 1 GA/PSO workers
    (one per usable CPU), the cells run on 2W threads, which only wait on
    those workers; otherwise one after another in this thread.  Either way
    the results are taken in (sensor count, seed, method) order, so every
    output but a cell's ``planning_time_s``, its wall time while it shares
    the workers, is the same."""
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    bad = [m for m in methods if m not in METHODS]
    repeated = [m for k, m in enumerate(methods) if m in methods[:k]]
    # the generator flags given; a fixed scenario takes none of them, so with
    # -s only those typed on argv count, and a config file's keys yield
    given = args._argv if args.scenario else args
    gen_given = [flag for flag, value in (("--sweep-sensors", given.sweep_sensors),
                                          ("--sensors", given.sensors), ("--edges", given.edges))
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
        sweep = "--sweep-sensors" in gen_given
        read = ("--edges",) if sweep else ("--sensors", "--edges")
        base = _settings(GENERATOR, args, [flag for flag in gen_given if flag in read])
        ns = _parse_sweep(args.sweep_sensors) if sweep else [base.n_sensors]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADSPEC
    if args.seeds < 2:
        print("warning: CIs omitted (need >= 2 seeds)", file=sys.stderr)

    fixed_scenario = load_scenario(args.scenario) if args.scenario else None
    if fixed_scenario is not None:
        ns = [len(fixed_scenario.xy)]
    seeds = list(range(args.seeds))
    keys = [(n, s, meth) for n in ns for s in seeds for meth in methods]

    def calls():
        """Each cell's plan call, a function of the stop event; each
        scenario is made as its first cell is handed out."""
        for n in ns:
            for s in seeds:
                scenario = fixed_scenario or generate(replace(base, n_sensors=n, seed=s))
                algo = replace(args.algo, seed=s)
                for meth in methods:
                    yield functools.partial(_compare_cell, meth, scenario, algo, args)

    # threads only wait, on the GA/PSO workers: a cell of neither takes
    # milliseconds
    workers = search_workers() if {"ga", "pso"} & set(methods) else 1
    results = _run_cells(calls(), 1 if workers == 1 else 2 * workers)
    cells = {key: r for key, r in zip(keys, results) if not isinstance(r, InfeasibleError)}
    failures = [{"n_sensors": n, "seed": s, "method": meth, "error": str(r)}
                for (n, s, meth), r in zip(keys, results) if isinstance(r, InfeasibleError)]
    means, means_rows, cdf_rows, pair_rows, growth = _aggregate(cells, ns, seeds, methods)

    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(os.path.join(args.out_dir, "means.csv"),
              ["n_sensors", "method", "seeds_ok", "mean_response_s", "response_ci_lo",
               "response_ci_hi", "total_energy_wh", "energy_ci_lo", "energy_ci_hi",
               "fleet", "fleet_ci_lo", "fleet_ci_hi", "total_route_length_m",
               "planning_time_s_mean"], means_rows)
    write_csv(os.path.join(args.out_dir, "cdf.csv"),
              ["n_sensors", "method", "response_s", "cum_fraction"], cdf_rows)
    write_csv(os.path.join(args.out_dir, "pairwise.csv"),
              ["n_sensors", "metric", "baseline", "n_pairs", "mean_diff", "ci_lo", "ci_hi"],
              pair_rows)
    summary = {
        "methods": methods, "seeds": len(seeds), "n_sensors": ns,
        "means": {f"n={n},method={meth}": agg for (n, meth), agg in means.items()},
        "pairwise_proposed_minus_baseline": pair_rows,
        "fleet_growth_factor": growth,
        "failures": failures,
        "ci": ("t-based 95% over per-seed values (means) or per-seed differences "
               "(pairwise); null below 2 seeds or 2 pairs"),
    }
    write_json(os.path.join(args.out_dir, "summary.json"), summary, sort_keys=True)

    print(f"{'n':>6}{'method':>10}{'seeds':>6}{'response s':>12}{'energy Wh':>12}{'fleet':>8}")
    for (n, meth), agg in means.items():
        print(f"{n:>6}{meth:>10}{agg['seeds_ok']:>6}{agg['mean_response_s']:>12.1f}"
              f"{agg['total_energy_wh']:>12.1f}{agg['fleet']:>8.2f}")
    if growth:
        print("fleet growth factors: "
              + ", ".join(f"{meth} {g:.2f}" for meth, g in growth.items()))
    print(f"compare: {len(cells)}/{len(keys)} cells ok, "
          f"{len(failures)} failures -> {args.out_dir}")
    # exit 3 only when some (sensor count, seed) got no plan from any method
    planned = all(any((n, s, meth) in cells for meth in methods) for n in ns for s in seeds)
    return EXIT_OK if planned else EXIT_INFEASIBLE


# ----------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="firewatch",
        description="UAV wildfire-monitoring planner and simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a scenario JSON file")
    _add_flags(g, GENERATOR, AREA)
    g.add_argument("-o", "--out", default="scenario.json")
    g.add_argument("--config", default=None, help="key=value config file")
    g.set_defaults(func=cmd_generate, _parser=g)

    pl = sub.add_parser("plan", help="plan routes and edge assignments")
    pl.add_argument("-s", "--scenario", required=True)
    pl.add_argument("--method", choices=METHODS, default="proposed")
    pl.add_argument("--variant", choices=[v.value for v in Variant],
                    default=Variant.FULL.value,
                    help="ablation arm (proposed method only)")
    _add_flags(pl, PLANNING, GA, PSO)
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
    _add_flags(si, DELIVERY)
    si.add_argument("-o", "--out-dir", default=".")
    si.add_argument("--config", default=None, help="key=value config file")
    si.set_defaults(func=cmd_simulate, _parser=si)

    co = sub.add_parser("compare", help="run methods x seeds and tabulate")
    co.add_argument("-s", "--scenario", default=None,
                    help="fixed scenario file (else generated per seed)")
    co.add_argument("--methods", default="proposed,ga,pso,greedy")
    co.add_argument("--seeds", type=int, default=20, help="number of seeds (0..N-1)")
    _add_flags(co, GENERATOR, names=("--sensors", "--edges"))
    # no default value, so that -s/--scenario can tell a given flag
    co.set_defaults(sensors=None, edges=None)
    co.add_argument("--sweep-sensors", default=None, metavar="START:STOP:STEP")
    _add_flags(co, PLANNING, GA, PSO)
    co.add_argument("-o", "--out-dir", default=".")
    co.add_argument("--config", default=None, help="key=value config file")
    co.set_defaults(func=cmd_compare, _parser=co)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = typed = parser.parse_args(argv)
        if args.config:
            # config values become defaults, so argv, parsed again, overrides them
            _config_as_defaults(args._parser, args.config)
            args = parser.parse_args(argv)
        # the flags argv alone gave, before any config default
        args._argv = typed
        # each settings object, built once for the command to read; a bad
        # settings flag is a usage error
        for group in args._groups:
            setattr(args, group[1], _settings(group, args))
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
    except OmegaHError as exc:
        # raised by plan's or compare's planning, before any file is written
        print(f"error: --omega-h {args.algo.omega_h}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OutputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
