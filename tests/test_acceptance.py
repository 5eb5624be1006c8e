"""Acceptance gate: one test per release criterion.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL (...)` line with the
measured values and then asserts the criterion. Criteria that the method
family cannot meet on this implementation fail here honestly rather than
being relaxed; the numbers in the printed line are the evidence.
"""

import time

import numpy as np
import pytest

from firewatch.baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
from firewatch.clustering import coverage_improvement_check
from firewatch.cli import main
from firewatch.emergency import (
    emergency_response_bound,
    generate_events,
    simulate,
)
from firewatch.model import AlgoParams, Variant
from firewatch.planner import InfeasibleError, plan, plan_at_fleet, validate_plan
from firewatch.routing import nearest_neighbor_tour, tour_length, two_opt
from firewatch.scenario import GenConfig, generate
from firewatch.timing import mean_response
from testutil import brute_force_tour_optimum

N_SEEDS = 20
HORIZON_S = 86400.0

# search budgets for the baseline metaheuristics in the long criteria
GA_ACC = dict(population=30, generations=40)
PSO_ACC = dict(swarm=20, iterations=40)
# smaller budgets for the 100-scenario soundness sweep
GA_FAST = dict(population=16, generations=12)
PSO_FAST = dict(swarm=10, iterations=15)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_cases():
    """20 seeded instances of the default scenario with their plans."""
    cases = []
    for s in range(N_SEEDS):
        scenario = generate(GenConfig(seed=s))
        algo = AlgoParams(seed=s)
        cases.append((s, scenario, algo, plan(scenario, algo)))
    return cases


def _try_method(method, scenario, algo):
    try:
        if method == "proposed":
            return plan(scenario, algo)
        if method == "greedy":
            return greedy_plan(scenario, algo)
        if method == "ga":
            return ga_plan(scenario, algo, GaConfig(seed=algo.seed, **GA_ACC))
        return pso_plan(scenario, algo, PsoConfig(seed=algo.seed, **PSO_ACC))
    except InfeasibleError:
        return None


def test_constraint_soundness():
    """>= 100 scenarios x 4 methods, zero constraint violations, < 5 min."""
    t0 = time.perf_counter()
    checked = violations = infeasible = 0
    for n in (30, 45, 60, 80):
        for s in range(25):
            scenario = generate(GenConfig(n_sensors=n, n_edges=3, seed=s))
            algo = AlgoParams(seed=s)
            plans = [
                plan(scenario, algo),
                greedy_plan(scenario, algo),
            ]
            for mk in (
                lambda: ga_plan(scenario, algo, GaConfig(seed=s, **GA_FAST)),
                lambda: pso_plan(scenario, algo, PsoConfig(seed=s, **PSO_FAST)),
            ):
                try:
                    plans.append(mk())
                except InfeasibleError:
                    infeasible += 1
            for pl in plans:
                checked += 1
                if not validate_plan(pl, scenario).all_ok:
                    violations += 1
    dt = time.perf_counter() - t0
    ok = checked >= 100 and violations == 0 and dt < 300.0
    _report("constraint-soundness", ok,
            f"{checked} plans over 100 scenarios, {violations} violations, "
            f"{infeasible} declared infeasible, {dt:.1f}s (cap 300s)")


def test_two_opt_oracle():
    """200 instances <= 8 waypoints: optimum <= 2-opt <= NN; >= 60% exact
    is recorded, not gated. < 1 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    exact = 0
    for _ in range(200):
        k = int(rng.integers(3, 9))
        depot = tuple(rng.uniform(0.0, 1000.0, size=2))
        xy = rng.uniform(0.0, 1000.0, size=(k, 2))
        nn = nearest_neighbor_tour(depot, xy)
        improved = two_opt(depot, xy, nn)
        l_nn = tour_length(depot, xy[nn])
        l_2opt = tour_length(depot, xy[improved])
        l_opt = brute_force_tour_optimum(depot, xy)
        assert l_opt - 1e-6 <= l_2opt <= l_nn + 1e-9
        if l_2opt <= l_opt + 1e-6:
            exact += 1
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    _report("two-opt-oracle", ok,
            f"200 instances sound, optimum hit {exact / 2:.1f}% "
            f"(recorded, 60% reference), {dt:.1f}s (cap 60s)")


def test_crossing_square_exact():
    depot = (0.0, 0.0)
    xy = np.array([[10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    order = two_opt(depot, xy, [0, 1, 2])
    got = tour_length(depot, xy[order])
    _report("crossing-square", got == 40.0, f"length {got!r}, expected 40.0 exact")


def test_coverage_improvement(default_cases):
    """Weighted clustering shortens the distance high-risk sensors
    experience: holds on 20/20 seeds, strictly on >= 18/20."""
    holds = strict = 0
    for s, scenario, algo, pl in default_cases:
        res = coverage_improvement_check(scenario, pl.m, algo.omega_h, [s])
        holds += res.holds
        strict += res.weighted_mean_distance_m < res.unweighted_mean_distance_m
    ok = holds == N_SEEDS and strict >= 18
    _report("coverage-improvement", ok,
            f"holds {holds}/{N_SEEDS} (need {N_SEEDS}), "
            f"strict {strict}/{N_SEEDS} (need >= 18)")


def test_emergency_response_bound(default_cases):
    """Own-cluster dispatch: every simulated response within the analytic
    worst case (tolerance 1e-6 s)."""
    total = over = queued = 0
    for s, scenario, algo, pl in default_cases:
        bound = emergency_response_bound(pl, scenario, algo.theta_max)
        events = generate_events(scenario, pl, 5, HORIZON_S, seed=s)
        result = simulate(pl, scenario, events, HORIZON_S, algo,
                          dispatch_policy="own_cluster")
        for tr in result.traces:
            total += 1
            queued += tr.t_queue_s > 0.0
            over += tr.response_time_s > bound + 1e-6
    ok = total == 5 * N_SEEDS and over == 0
    _report("emergency-response-bound", ok,
            f"{over}/{total} responses above bound, {queued} queued")


def test_emergency_deadline(default_cases):
    """Mean emergency response over 20 seeds x 5 high-risk events vs the
    300 s urgent deadline."""
    responses = []
    for s, scenario, algo, pl in default_cases:
        events = generate_events(scenario, pl, 5, HORIZON_S, seed=s)
        result = simulate(pl, scenario, events, HORIZON_S, algo)
        responses.extend(t.response_time_s for t in result.traces)
    mean = float(np.mean(responses))
    ok = mean <= 300.0
    _report("emergency-deadline", ok,
            f"mean response {mean:.1f}s over {len(responses)} events "
            f"(deadline 300s)")


def test_normal_impact(default_cases):
    """Patrol service degradation from absorbing 5 emergencies stays
    within 5%."""
    fracs = []
    for s, scenario, algo, pl in default_cases:
        events = generate_events(scenario, pl, 5, HORIZON_S, seed=s)
        result = simulate(pl, scenario, events, HORIZON_S, algo)
        fracs.append(result.impact.delta_fraction)
    mean, worst = float(np.mean(fracs)), float(np.max(fracs))
    ok = mean <= 0.05 and worst <= 0.05
    _report("normal-impact", ok,
            f"mean +{mean * 100:.2f}%, worst +{worst * 100:.2f}% (cap 5%)")


def test_method_ordering(default_cases):
    """Proposed beats GA, PSO, and Greedy on mean response, energy, and
    fleet, with >= 50% margins on response and energy vs Greedy. < 30 min."""
    t0 = time.perf_counter()
    metrics = {m: {"resp": [], "energy": [], "fleet": [], "done": 0}
               for m in ("proposed", "ga", "pso", "greedy")}
    for s, scenario, algo, pl in default_cases:
        for name in metrics:
            got = pl if name == "proposed" else _try_method(name, scenario, algo)
            if got is None:
                continue
            metrics[name]["done"] += 1
            metrics[name]["resp"].append(mean_response(got, scenario))
            metrics[name]["energy"].append(sum(r.energy_wh for r in got.routes))
            metrics[name]["fleet"].append(got.m)
    dt = time.perf_counter() - t0

    means = {name: {k: float(np.mean(v[k])) if v[k] else float("nan")
                    for k in ("resp", "energy", "fleet")}
             for name, v in metrics.items()}
    p = means["proposed"]
    clauses = []
    for base in ("ga", "pso", "greedy"):
        b = means[base]
        clauses.append((f"resp<{base}", p["resp"] < b["resp"]))
        clauses.append((f"energy<{base}", b["energy"] > p["energy"]))
        clauses.append((f"fleet<{base}", p["fleet"] < b["fleet"]))
    g = means["greedy"]
    resp_cut = (g["resp"] - p["resp"]) / g["resp"]
    ener_cut = (g["energy"] - p["energy"]) / g["energy"]
    clauses.append(("resp 50% vs greedy", resp_cut >= 0.5))
    clauses.append(("energy 50% vs greedy", ener_cut >= 0.5))
    clauses.append(("runtime", dt < 1800.0))
    failed = [n for n, ok in clauses if not ok]
    done = {n: v["done"] for n, v in metrics.items()}
    _report("method-ordering", not failed,
            f"completions {done}, response cut vs greedy {resp_cut * 100:.1f}% "
            f"energy cut {ener_cut * 100:.1f}% (need >= 50%), "
            f"unmet: {failed or 'none'}, {dt:.0f}s (cap 1800s)")


def test_ablation_ordering(default_cases):
    """At the full planner's fleet size: FULL <= NO_2OPT <= NO_KMEANS <=
    NO_BOTH on >= 18/20 seeds; dropping weighted clustering hurts more
    than dropping 2-opt on every seed."""
    chain_ok = kmeans_worse = 0
    for s, scenario, algo, pl in default_cases:
        resp = {}
        for v in Variant:
            arm = pl if v is Variant.FULL else plan_at_fleet(scenario, algo,
                                                             pl.m, variant=v)
            resp[v] = mean_response(arm, scenario)
        tol = 1e-9
        chain_ok += (resp[Variant.FULL] <= resp[Variant.NO_2OPT] + tol
                     and resp[Variant.NO_2OPT] <= resp[Variant.NO_KMEANS] + tol
                     and resp[Variant.NO_KMEANS] <= resp[Variant.NO_BOTH] + tol)
        kmeans_worse += resp[Variant.NO_KMEANS] > resp[Variant.NO_2OPT]
    ok = chain_ok >= 18 and kmeans_worse == N_SEEDS
    _report("ablation-ordering", ok,
            f"chain {chain_ok}/{N_SEEDS} (need >= 18), "
            f"kmeans-removal worse {kmeans_worse}/{N_SEEDS} (need {N_SEEDS})")


def test_scalability():
    """100 -> 300 sensors: proposed fleet growth below every baseline's,
    and proposed planning under 5 s at 300 sensors."""
    ns = (100, 200, 300)
    seeds = (0, 1, 2)
    fleets = {m: {n: [] for n in ns} for m in ("proposed", "ga", "pso", "greedy")}
    plan_time_300 = 0.0
    for n in ns:
        for s in seeds:
            scenario = generate(GenConfig(n_sensors=n, seed=s))
            algo = AlgoParams(seed=s)
            for name in fleets:
                got = _try_method(name, scenario, algo)
                if got is None:
                    continue
                fleets[name][n].append(got.m)
                if name == "proposed" and n == 300:
                    plan_time_300 = max(plan_time_300, got.planning_time_s)

    def growth(name):
        lo, hi = fleets[name][ns[0]], fleets[name][ns[-1]]
        if not lo or not hi:
            return None
        return float(np.mean(hi)) / float(np.mean(lo))

    g = {name: growth(name) for name in fleets}
    ordered = all(g[b] is not None and g["proposed"] < g[b]
                  for b in ("ga", "pso", "greedy"))
    ok = ordered and plan_time_300 < 5.0
    text = {k: (f"{v:.2f}" if v is not None else "undefined") for k, v in g.items()}
    _report("scalability", ok,
            f"fleet growth {text}, proposed planning {plan_time_300:.2f}s "
            f"at 300 (cap 5s)")


def test_cli_determinism(tmp_path):
    """Repeated commands with one seed give byte-identical non-timing
    outputs."""
    mismatches = []

    def run_twice(label, args, outputs, strip_col=None):
        dirs = [tmp_path / f"{label}{i}" for i in (0, 1)]
        for d in dirs:
            rc = main([a.format(out=str(d)) for a in args])
            assert rc == 0, label
        for name in outputs:
            got = []
            for d in dirs:
                data = (d / name).read_bytes()
                if strip_col and name == strip_col[0]:
                    import csv as _csv
                    import io
                    rows = list(_csv.DictReader(io.StringIO(data.decode())))
                    for r in rows:
                        r.pop(strip_col[1], None)
                    data = repr(rows).encode()
                got.append(data)
            if got[0] != got[1]:
                mismatches.append(f"{label}/{name}")

    scen = tmp_path / "scenario.json"
    for i in (0, 1):
        d = tmp_path / f"gen{i}"
        d.mkdir()
        assert main(["generate", "--sensors", "60", "--edges", "3",
                     "-o", str(d / "scenario.json")]) == 0
    if ((tmp_path / "gen0/scenario.json").read_bytes()
            != (tmp_path / "gen1/scenario.json").read_bytes()):
        mismatches.append("generate/scenario.json")
    (tmp_path / "gen0/scenario.json").rename(scen)

    run_twice("plan", ["plan", "-s", str(scen), "-o", "{out}"],
              ["plan.json", "routes.csv", "metrics.csv"],
              strip_col=("metrics.csv", "planning_time_s"))
    plan_dir = tmp_path / "plan0"
    run_twice("sim", ["simulate", "-s", str(scen), "-p",
                      str(plan_dir / "plan.json"), "--n-events", "3",
                      "-o", "{out}"],
              ["events.json", "trace.csv", "impact.json"])
    run_twice("cmp", ["compare", "--methods", "proposed,greedy", "--seeds", "2",
                      "--sensors", "60", "--edges", "3", "-o", "{out}"],
              ["means.csv", "cdf.csv", "pairwise.csv", "summary.json"],
              strip_col=("means.csv", "planning_time_s_mean"))

    _report("determinism", not mismatches,
            f"mismatched outputs: {mismatches or 'none'}")
