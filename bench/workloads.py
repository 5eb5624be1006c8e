"""The benchmark's four workloads, each a closed loop of one caller doing one
pass at a time through the public functions of ``firewatch``.

A workload has a set-up (timed apart from the passes), a pass, the number of
operations a pass attempted and how many failed, a check of a pass's
output, and the quality metrics of the plans a pass produced or simulated
on.  Every check comes from ``checks``, which recomputes from the scenario
without calling the program.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks
from firewatch import cli, emergency, planner, timing
from firewatch import scenario as fw_scenario
from firewatch.emergency import EmergencyEvent
from firewatch.model import AlgoParams, PhysicalParams, Variant
from firewatch.scenario import GenConfig

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
DAY_S = 86400.0
HOT_HISTORY = 50          # alerts come from UAV-served sensors above this score
ALERTS_PER_DAY = 5

# plan-large plans one fixed input; the seed only draws the alerts of the
# drill after the pass.  Across generator seeds the 600-sensor plan time
# ranges over 6-10 s and its mean response over 980-1680 s, and across
# planner seeds (k-means starts at fleet sizes 2-4) the plan time over
# 8.3-11.7 s, so an input drawn per seed would measure the seed, not the code.
LARGE = GenConfig(n_sensors=600, seed=0)
LARGE_PHYSICAL = PhysicalParams(m_max=60)
# surge and drill share the 300-sensor plan of generator seed 0 (3 UAVs)
BASE = GenConfig(n_sensors=300, seed=0)
SURGE_ALERTS = 2000
SURGE_WINDOW_S = 3600.0
SURGE_HORIZON_S = 7 * DAY_S
DRILL_DAYS = 365
SEARCH_METHODS = ["proposed", "ga", "pso", "greedy"]
SEARCH_SENSORS = 100
SEARCH_SEEDS = 3


@dataclass
class State:
    seed: int
    scenario: object = None
    plan: object = None
    algo: AlgoParams = field(default_factory=AlgoParams)
    events: list = field(default_factory=list)
    days: list = field(default_factory=list)
    argv: list = field(default_factory=list)
    out_dir: str = ""


def _plan_quality(plans_and_scenarios) -> tuple[dict, list[str]]:
    """fleet_uavs, energy_wh and response_s over the plans, with the mean
    response checked against the five-term recomputation."""
    errors, responses = [], []
    for pl, sc in plans_and_scenarios:
        r = timing.mean_response(pl, sc)
        errors += checks.check_mean_response(pl, sc, r)
        responses.append(r)
    return {
        "fleet_uavs": sum(pl.m for pl, _ in plans_and_scenarios),
        "energy_wh": sum(r.energy_wh for pl, _ in plans_and_scenarios for r in pl.routes),
        "response_s": float(np.mean(responses)),
    }, errors


def _alert_days(sc, pl, base_seed: int, days: int) -> tuple[list[float], list[str]]:
    """Emergency responses of a plan over monitoring days of five alerts."""
    responses, errors = [], []
    for d in range(days):
        seed = base_seed + d
        events = emergency.generate_events(sc, pl, ALERTS_PER_DAY, DAY_S, seed)
        algo = AlgoParams(seed=seed)
        result = emergency.simulate(pl, sc, events, DAY_S, algo)
        errors += checks.check_simulation(result, pl, sc, events, algo.theta_max)
        responses += [t.response_time_s for t in result.traces]
    return responses, errors


def _base_plan():
    sc = fw_scenario.generate(BASE)
    return sc, planner.plan(sc, AlgoParams(seed=0))


class PlanLarge:
    """planner.plan (variant full) on the 600-sensor scenario."""

    name = "plan-large"
    rescaled = True          # run_s at the reference host speed (see run.py)
    layers = {"scenario", "clustering", "edge_assignment", "routing", "planner"}

    def setup(self, seed: int) -> State:
        sc = fw_scenario.generate(LARGE, LARGE_PHYSICAL)
        return State(seed=seed, scenario=sc, algo=AlgoParams(seed=0))

    def check_setup(self, st: State) -> list[str]:
        return []

    def run(self, st: State):
        try:
            return planner.plan(st.scenario, st.algo, Variant.FULL)
        except planner.InfeasibleError:
            return None

    def ops(self, st: State, out) -> tuple[int, int]:
        return 1, int(out is None)

    def check(self, st: State, out) -> list[str]:
        if out is None:
            return []
        return checks.check_plan(out, st.scenario, st.algo.omega_h, two_opt=True)

    def quality(self, st: State, out) -> tuple[dict, list[str]]:
        if out is None:
            raise RuntimeError("plan-large: the planner found no feasible plan")
        q, errors = _plan_quality([(out, st.scenario)])
        responses, more = _alert_days(st.scenario, out, st.seed * 1000, 40)
        q["emergency_s"] = float(np.mean(responses))
        return q, errors + more


class Search:
    """firewatch compare over proposed, GA, PSO and greedy, in-process."""

    name = "search"
    layers = {"scenario", "clustering", "edge_assignment", "routing", "planner",
              "baselines", "timing", "cli"}
    # compare runs its cells on FW_THREADS threads, whose speed the
    # one-thread probe does not track: over ten runs the rescaled pass time
    # spread 0.22 of its median, the raw one 0.06
    rescaled = False

    def setup(self, seed: int) -> State:
        # the CPUs this process may use; compare's own default on this host
        os.environ["FW_THREADS"] = str(len(os.sched_getaffinity(0)))
        out_dir = os.path.join(OUT_DIR, "search")
        os.makedirs(out_dir, exist_ok=True)
        argv = ["compare", "--methods", ",".join(SEARCH_METHODS),
                "--sensors", str(SEARCH_SENSORS), "--seeds", str(SEARCH_SEEDS),
                "--ga-pop", "30", "--ga-gens", "40", "--pso-swarm", "20", "--pso-iters", "40",
                "-o", out_dir]
        return State(seed=seed, argv=argv, out_dir=out_dir)

    def check_setup(self, st: State) -> list[str]:
        return []

    def run(self, st: State) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(st.argv)

    def ops(self, st: State, out) -> tuple[int, int]:
        with open(os.path.join(st.out_dir, "summary.json")) as f:
            failures = json.load(f)["failures"]
        return len(SEARCH_METHODS) * SEARCH_SEEDS, len(failures)

    def check(self, st: State, out) -> list[str]:
        errors = [] if out == 0 else [f"compare exited with {out}"]
        return errors + checks.check_compare(st.out_dir, SEARCH_METHODS, SEARCH_SEEDS,
                                             SEARCH_SENSORS)

    def quality(self, st: State, out) -> tuple[dict, list[str]]:
        with open(os.path.join(st.out_dir, "means.csv"), newline="") as f:
            means = {r["method"]: r for r in csv.DictReader(f)}
        ok = {m: int(r["seeds_ok"]) for m, r in means.items()}
        q = {
            "fleet_uavs": sum(float(r["fleet"]) * ok[m] for m, r in means.items()),
            "energy_wh": sum(float(r["total_energy_wh"]) * ok[m] for m, r in means.items()),
            "response_s": (sum(float(r["mean_response_s"]) * ok[m] for m, r in means.items())
                           / sum(ok.values())),
        }
        # the proposed cells again, outside the pass: their plans must give
        # compare's means, and they carry the emergency drill
        plans = []
        for s in range(SEARCH_SEEDS):
            sc = fw_scenario.generate(GenConfig(n_sensors=SEARCH_SENSORS, seed=s))
            plans.append((planner.plan(sc, AlgoParams(seed=s)), sc))
        proposed, errors = _plan_quality(plans)
        for pl, sc in plans:
            errors += checks.check_plan(pl, sc, AlgoParams().omega_h, two_opt=True)
        row = means["proposed"]
        for key, col, scale in (("fleet_uavs", "fleet", SEARCH_SEEDS),
                                ("energy_wh", "total_energy_wh", SEARCH_SEEDS),
                                ("response_s", "mean_response_s", 1)):
            if not checks.close(proposed[key], float(row[col]) * scale):
                errors.append(f"proposed {col} {row[col]} differs from the re-made plans")
        responses = []
        for i, (pl, sc) in enumerate(plans):
            r, more = _alert_days(sc, pl, st.seed * 1000 + 100 * i, 20)
            responses += r
            errors += more
        q["emergency_s"] = float(np.mean(responses))
        return q, errors


class Surge:
    """One emergency.simulate call on a burst of repeated alerts."""

    name = "surge"
    rescaled = True
    layers = {"scenario", "planner", "emergency", "timing"}

    def setup(self, seed: int) -> State:
        sc, pl = _base_plan()
        hot = [sid for sid in sorted(pl.clustering.assignment)
               if sc.sensors[sid].fire_history > HOT_HISTORY]
        rng = np.random.default_rng([seed, 1])
        ids = rng.choice(hot, size=SURGE_ALERTS)
        times = np.sort(rng.uniform(0.0, SURGE_WINDOW_S, size=SURGE_ALERTS))
        events = [EmergencyEvent(int(i), float(t), sc.sensors[int(i)].fire_history)
                  for i, t in zip(ids, times)]
        return State(seed=seed, scenario=sc, plan=pl, algo=AlgoParams(seed=seed),
                     events=events)

    def check_setup(self, st: State) -> list[str]:
        return checks.check_plan(st.plan, st.scenario, st.algo.omega_h, two_opt=True)

    def run(self, st: State):
        return emergency.simulate(st.plan, st.scenario, st.events, SURGE_HORIZON_S, st.algo)

    def ops(self, st: State, out) -> tuple[int, int]:
        return len(st.events), len(st.events) - len(out.traces)

    def check(self, st: State, out) -> list[str]:
        errors = checks.check_simulation(out, st.plan, st.scenario, st.events,
                                         st.algo.theta_max)
        drained = max(checks.service_end(t, st.plan, st.scenario)
                      for t in out.traces if t.uav_id is not None)
        if drained > SURGE_HORIZON_S:
            errors.append(f"backlog drains at {drained:.0f} s, after the horizon")
        return errors

    def quality(self, st: State, out) -> tuple[dict, list[str]]:
        q, errors = _plan_quality([(st.plan, st.scenario)])
        q["emergency_s"] = float(np.mean([t.response_time_s for t in out.traces]))
        return q, errors


class Drill:
    """A year of monitoring days: one simulate call of five alerts per day."""

    name = "drill"
    rescaled = True
    layers = {"scenario", "planner", "emergency", "timing"}

    def setup(self, seed: int) -> State:
        sc, pl = _base_plan()
        days = []
        for d in range(DRILL_DAYS):
            day_seed = seed * 1000 + d
            days.append((emergency.generate_events(sc, pl, ALERTS_PER_DAY, DAY_S, day_seed),
                         AlgoParams(seed=day_seed)))
        return State(seed=seed, scenario=sc, plan=pl, days=days)

    def check_setup(self, st: State) -> list[str]:
        return checks.check_plan(st.plan, st.scenario, st.algo.omega_h, two_opt=True)

    def run(self, st: State):
        return [emergency.simulate(st.plan, st.scenario, events, DAY_S, algo)
                for events, algo in st.days]

    def ops(self, st: State, out) -> tuple[int, int]:
        return len(st.days), len(st.days) - len(out)

    def check(self, st: State, out) -> list[str]:
        errors = []
        for result, (events, algo) in zip(out, st.days):
            errors += checks.check_simulation(result, st.plan, st.scenario, events,
                                              algo.theta_max)
        return errors

    def quality(self, st: State, out) -> tuple[dict, list[str]]:
        q, errors = _plan_quality([(st.plan, st.scenario)])
        q["emergency_s"] = float(np.mean([t.response_time_s for r in out for t in r.traces]))
        return q, errors


WORKLOADS = {w.name: w for w in (PlanLarge, Search, Surge, Drill)}
