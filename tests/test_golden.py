"""Golden artifacts: sha256 digests of the plans, infeasibility reports,
simulation outputs and every file the CLI writes on a few small fixed
inputs.

Every determinism test elsewhere runs the same code twice; these digests
instead pin the bytes across code changes, so a refactor that alters a plan,
a binding-constraint string or a trace (for example by summing floats in
another order) fails here.  A change that alters outputs on purpose updates
the digests and says so in CHANGES.md; ``python tests/test_golden.py``
prints the current ones.  The digests hold for one floating-point
environment (numpy 2.4, x86-64).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from firewatch.baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
from firewatch.cli import main
from firewatch.emergency import (EmergencyEvent, generate_events, save_events, simulate,
                                 write_trace_csv)
from firewatch.model import AlgoParams, PhysicalParams, Variant
from firewatch.planner import InfeasibleError, plan, plan_at_fleet, plan_to_doc, save_plan
from firewatch.scenario import GenConfig, generate, save_scenario
from testutil import build_scenario, without_column

# the GA/PSO budgets of the acceptance soundness sweep
GA_FAST = dict(population=16, generations=12)
PSO_FAST = dict(swarm=10, iterations=15)
# the GA/PSO budgets of the benchmark's search workload
GA_SEARCH = dict(population=30, generations=40)
PSO_SEARCH = dict(swarm=20, iterations=40)

SCENARIOS = {
    # the 60-sensor scenario of the CLI determinism test
    "small": lambda: generate(GenConfig(n_sensors=60, n_edges=3, seed=0)),
    # edges of 0.5-3 MIPS: the proposed planner and greedy both need an
    # overload repair at the fleet size they return
    "tight": lambda: generate(GenConfig(n_sensors=40, n_edges=3, seed=1,
                                        edge_capacity_range_mips=(0.5, 3.0))),
}


# (sensors, generator and planner seed, variant, fleet ceiling): plans whose
# digests change when a route's upload sizes are summed in visit order
# instead of sensor-id order
SUMMATION_CASES = {
    "n600-s0/full": (600, 0, Variant.FULL, 60),
    "n60-s3/full": (60, 3, Variant.FULL, None),
    "n150-s2/no-2opt": (150, 2, Variant.NO_2OPT, None),
}

# 1000-sensor plans whose tours are longer than one block of 2-opt rows, so
# improving moves are found past the first block
LARGE_CASES = {
    "n1000-s0/full": (1000, 0, Variant.FULL, 60),
    "n1000-s0/no-kmeans": (1000, 0, Variant.NO_KMEANS, 60),
}


def _capacity_wall(m_max: int = 3):
    """The scenario of test_all_methods_raise_on_capacity_wall."""
    return build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 0.0, 10.0)], PhysicalParams(m_max=m_max))


def _all_direct():
    """Every sensor within link range of edge 0, so GA and PSO search over
    no UAV-served sensor at all."""
    return build_scenario(
        [(10.0, 0.0, 30, 2.0, 200.0), (0.0, 20.0, 80, 1.0, 300.0), (15.0, 15.0, 5, 3.0, 100.0)],
        [(0.0, 0.0, 5000.0), (4000.0, 4000.0, 8000.0)])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _plan_digest(pl, scenario) -> str:
    return _digest(json.dumps(plan_to_doc(pl, scenario), indent=1).encode())


def _binding(make) -> list[str] | None:
    try:
        make()
    except InfeasibleError as exc:
        return exc.binding
    return None


def plan_digests(name: str) -> dict[str, str]:
    sc = SCENARIOS[name]()
    algo = AlgoParams()
    out = {}
    for v in Variant:
        out[f"{name}/plan/{v.value}"] = _plan_digest(plan(sc, algo, v), sc)
    m = plan(sc, algo).m
    out[f"{name}/plan_at_fleet/m-1"] = _plan_digest(plan_at_fleet(sc, algo, m - 1), sc)
    # more UAVs than sensors: the idle ones park at their edge
    idle = plan_at_fleet(sc, algo, len(sc.sensors) + 1)
    out[f"{name}/plan_at_fleet/idle"] = _plan_digest(idle, sc)
    out[f"{name}/greedy"] = _plan_digest(greedy_plan(sc, algo), sc)
    out[f"{name}/ga"] = _plan_digest(ga_plan(sc, algo, GaConfig(**GA_FAST)), sc)
    out[f"{name}/pso"] = _plan_digest(pso_plan(sc, algo, PsoConfig(**PSO_FAST)), sc)
    return out


def search_digests() -> dict[str, str]:
    """GA and PSO at the search workload's budgets on its first cell (GA
    reaches m = 13 there), and on a scenario with every sensor direct."""
    out = {}
    cases = {"search": (generate(GenConfig(n_sensors=100, seed=0)), GA_SEARCH, PSO_SEARCH),
             "direct": (_all_direct(), GA_FAST, PSO_FAST)}
    for name, (sc, ga, pso) in cases.items():
        algo = AlgoParams()
        out[f"{name}/ga"] = _plan_digest(ga_plan(sc, algo, GaConfig(**ga)), sc)
        out[f"{name}/pso"] = _plan_digest(pso_plan(sc, algo, PsoConfig(**pso)), sc)
    return out


def generated_plan_digests(prefix: str, cases: dict) -> dict[str, str]:
    out = {}
    for name, (n, seed, variant, m_max) in cases.items():
        physical = PhysicalParams(m_max=m_max) if m_max else None
        sc = generate(GenConfig(n_sensors=n, seed=seed), physical)
        out[f"{prefix}/{name}"] = _plan_digest(plan(sc, AlgoParams(seed=seed), variant), sc)
    return out


def bindings() -> dict[str, list[str] | None]:
    algo = AlgoParams()
    cases = {
        "wall": _capacity_wall(),
        # one UAV cannot cover the 60-sensor scenario in time
        "reach": generate(GenConfig(n_sensors=60, n_edges=3, seed=0), PhysicalParams(m_max=1)),
        # the capacity wall with a ceiling above its 3 sensors: GA and PSO
        # search fleet sizes with more clusters than sensors
        "wall-m5": _capacity_wall(m_max=5),
        # ... and far above it: every method sizes up to 300 clusters, nearly
        # all of them empty
        "wall-m300": _capacity_wall(m_max=300),
    }
    out = {}
    for name, sc in cases.items():
        out[f"{name}/proposed"] = _binding(lambda: plan(sc, algo))
        out[f"{name}/greedy"] = _binding(lambda: greedy_plan(sc, algo))
        out[f"{name}/ga"] = _binding(
            lambda: ga_plan(sc, algo, GaConfig(population=4, generations=2)))
        out[f"{name}/pso"] = _binding(
            lambda: pso_plan(sc, algo, PsoConfig(swarm=4, iterations=2)))
    # ten times wider, for the two methods that cluster each size once (GA
    # and PSO would search all 3000)
    wall = _capacity_wall(m_max=3000)
    out["wall-m3000/proposed"] = _binding(lambda: plan(wall, algo))
    out["wall-m3000/greedy"] = _binding(lambda: greedy_plan(wall, algo))
    return out


def cli_digests(tmp: Path) -> dict[str, str]:
    """Every file the CLI writes, byte for byte, except the wall-clock
    planning-time column of metrics.csv and means.csv."""
    sc = SCENARIOS["small"]()
    save_scenario(sc, str(tmp / "scenario.json"))
    assert main(["plan", "-s", str(tmp / "scenario.json"), "-o", str(tmp / "plan")]) == 0
    assert main(["simulate", "-s", str(tmp / "scenario.json"),
                 "-p", str(tmp / "plan" / "plan.json"),
                 "--n-events", "4", "-o", str(tmp / "sim")]) == 0
    assert main(["compare", "--methods", "proposed,ga,pso,greedy", "--seeds", "2",
                 "--sensors", "60", "--edges", "3",
                 "--ga-pop", str(GA_FAST["population"]),
                 "--ga-gens", str(GA_FAST["generations"]),
                 "--pso-swarm", str(PSO_FAST["swarm"]),
                 "--pso-iters", str(PSO_FAST["iterations"]),
                 "-o", str(tmp / "cmp")]) == 0
    timed = {"plan/metrics.csv": "planning_time_s", "compare/means.csv": "planning_time_s_mean"}
    files = {"scenario.json": tmp / "scenario.json"}
    for cmd, out, names in (("plan", "plan", ("plan.json", "routes.csv", "metrics.csv")),
                            ("simulate", "sim",
                             ("events.json", "trace.csv", "impact.json", "queue.json")),
                            ("compare", "cmp",
                             ("means.csv", "cdf.csv", "pairwise.csv", "summary.json"))):
        files.update({f"{cmd}/{name}": tmp / out / name for name in names})
    out = {}
    for key, path in files.items():
        data = path.read_bytes()
        out[key] = _digest(without_column(data, timed[key]) if key in timed else data)
    return out


def sweep_digests(tmp: Path) -> dict[str, str]:
    """The four files of a two-size sweep ``compare`` in which GA finds no
    plan at 120 sensors, seed 0: fleet growth factors, a failure entry and
    a pair count below the seed count, except the planning-time column."""
    assert main(["compare", "--methods", "proposed,ga,greedy", "--sweep-sensors", "60:120:60",
                 "--seeds", "2", "--edges", "3", "--ga-pop", "4", "--ga-gens", "2",
                 "-o", str(tmp)]) == 0
    out = {}
    for name in ("means.csv", "cdf.csv", "pairwise.csv", "summary.json"):
        data = (tmp / name).read_bytes()
        if name == "means.csv":
            data = without_column(data, "planning_time_s_mean")
        out[f"sweep/{name}"] = _digest(data)
    return out


def burst_events(sc, pl) -> list[EmergencyEvent]:
    """About 400 alerts at hot UAV-served sensors within one hour, so the
    pending queue grows long, plus 20 at direct sensors; times are whole
    seconds, so some alerts share an instant."""
    hot = [i for i in sorted(pl.clustering.assignment) if sc.sensors[i].fire_history > 50]
    direct = sorted(pl.assignment.direct_map)
    rng = np.random.default_rng(0)
    ids = rng.choice(hot, size=400).tolist() + rng.choice(direct, size=20).tolist()
    times = np.floor(rng.uniform(0.0, 3600.0, size=len(ids))).tolist()
    return [EmergencyEvent(i, t, sc.sensors[i].fire_history) for i, t in zip(ids, times)]


def burst_digests(tmp: Path) -> dict[str, str]:
    sc = generate(GenConfig(n_sensors=300, seed=0))
    pl = plan(sc, AlgoParams())
    save_scenario(sc, str(tmp / "scenario.json"))
    save_plan(pl, sc, str(tmp / "plan.json"))
    save_events(burst_events(sc, pl), str(tmp / "events.json"))
    out = {}
    for policy in ("nearest", "own_cluster"):
        sim = tmp / policy
        assert main(["simulate", "-s", str(tmp / "scenario.json"), "-p", str(tmp / "plan.json"),
                     "--events", str(tmp / "events.json"), "--policy", policy,
                     "-o", str(sim)]) == 0
        for name in ("trace.csv", "impact.json", "queue.json"):
            out[f"burst/{policy}/{name}"] = _digest((sim / name).read_bytes())
    return out


def drill_digests(tmp: Path) -> dict[str, str]:
    """30 monitoring days of five generated alerts on the 300-sensor plan,
    one simulate call per day as in the benchmark's drill: each policy's
    trace.csv bytes, impact report and patrol phases, hashed over the days.
    The phases are drawn within each route's length, so a one-ulp change
    in a leg length changes their digest."""
    sc = generate(GenConfig(n_sensors=300, seed=0))
    pl = plan(sc, AlgoParams())
    out = {}
    for policy in ("nearest", "own_cluster"):
        trace, impact, phases = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
        for day in range(30):
            events = generate_events(sc, pl, 5, 86400.0, seed=day)
            res = simulate(pl, sc, events, 86400.0, AlgoParams(seed=day),
                           dispatch_policy=policy)
            write_trace_csv(res, str(tmp / "trace.csv"))
            trace.update((tmp / "trace.csv").read_bytes())
            impact.update(json.dumps(dataclasses.asdict(res.impact)).encode())
            phases.update(json.dumps(res.phases_m).encode())
        out[f"drill/{policy}/trace.csv"] = trace.hexdigest()
        out[f"drill/{policy}/impact"] = impact.hexdigest()
        out[f"drill/{policy}/phases_m"] = phases.hexdigest()
    return out


GOLDEN = {
    'small/plan/full': '7be7ab52b4d6d5f11e50236f259a430dcefd5f058e3e821a8db731f484c84353',
    'small/plan/no-2opt': '8786a90ebe6159ab3021c439ca882cee490f502c0fe859621ffa07a751d3bd51',
    'small/plan/no-kmeans': '64abec2a4a99a386a979b2b54078e1172a6f67ceae6947550aee8378f1c97cf2',
    'small/plan/no-both': 'f39e146dd58b208a194e4c97d800b5631124a2a52678917c4f92b381e319ee9b',
    'small/plan_at_fleet/m-1': 'e59440b887c95e9ca9ea0de3b66c1fe73d3d59569e85468cd7f3c0ce77b4c17b',
    'small/plan_at_fleet/idle': 'bbbfba1d0b33a32a8a279d142566d7437d26122b7456d97e89b1418306e59aa4',
    'small/greedy': 'a26f890088435bb0bd75806923c0721fa26228d7b706251120850a42b90666da',
    'small/ga': 'ab01e61079cb49948738620244931843e7ff142bb73b605b69c5d4616d428530',
    'small/pso': 'd5ee486614190222c48ab96b8c3fa8726f7b5679b686f2246f91f2c7d5e7367c',
    'tight/plan/full': 'ffaf5f02736aa47ab37edf37001830c424d0a3d2deb2f94cbd407721a6f4a98a',
    'tight/plan/no-2opt': '109312668a633b31b25b0486f654f35984cc566f59235c6cb788d2dea5593572',
    'tight/plan/no-kmeans': 'd5f083c99150b4b0986aeddba4b471d59a0dc67c8d62c2920805025d453b35c3',
    'tight/plan/no-both': '087d0544c2b42f22a4c1bb0ea68fbbd166c8ba28d346fec47a67b3cac6f55f70',
    'tight/plan_at_fleet/m-1': 'eb62669038882f360ffe2f1591b381d9a443f525bc1bc5e19dc532e57fed070d',
    'tight/plan_at_fleet/idle': 'eec7efc4f1544eb3246896cba649d3e11f3e7fe598189a893273728e438581cf',
    'tight/greedy': 'd75a65e00a44695409925bdc7b449b315630330881f6269ffe0d94601de2089f',
    'tight/ga': '23583307e5bfedbdda6a56006001dac2b4829171df59a8d6e4ed3c01f8bf669f',
    'tight/pso': '7dbb760aa6ac8ff171195ce96cd121b1f2bbca82c9689f9017a6fd75a7e6eee3',
    'search/ga': 'a0ad0ff68efc395030319ecb7e920e17ac91f945cca201f2aac5605151d55191',
    'search/pso': '7c97ce64fa8b6e22302484542d0427f49d7d3c68b8b4844aad1df6943031d6bf',
    'direct/ga': 'c1b29238225ab2e8784e04faf44962733241e40bfbabe6125bbbc6f41c6b24d5',
    'direct/pso': 'ed7ace5a4a57e784e8d635a8b81d3700a5318ab8822b62b4fed06bf552236644',
    'summation/n600-s0/full': 'f110f878064ff16213733371cc2a4ed6924f977c797766f48293546fb1fe87fb',
    'summation/n60-s3/full': 'dd7829384af21eedcf6bc4da38246542b710e22e4ca76fe29726ec3f1ba700e9',
    'summation/n150-s2/no-2opt': 'a531dbd14cae471b2f40404ce4a37e38d13f8cb58b498b9a9f22829c55548927',
    'large/n1000-s0/full': '3e611b341f5ee4bb011f44e55506919413a1e2c578a8a2302b10ae777d573aba',
    'large/n1000-s0/no-kmeans': '4faedd797ed4c3a6aad414f97824398ad87b8c846e97d768fbbebbf3749e4393',
    'wall/proposed': ['edge capacity'],
    'wall/greedy': ['edge capacity'],
    'wall/ga': ['revisit period, energy budget, or edge capacity'],
    'wall/pso': ['no feasible particle'],
    'reach/proposed': ['revisit period'],
    'reach/greedy': ['revisit period'],
    'reach/ga': ['revisit period, energy budget, or edge capacity'],
    'reach/pso': ['no feasible particle'],
    'wall-m5/proposed': ['edge capacity'],
    'wall-m5/greedy': ['edge capacity'],
    'wall-m5/ga': ['revisit period, energy budget, or edge capacity'],
    'wall-m5/pso': ['no feasible particle'],
    'wall-m300/proposed': ['edge capacity'],
    'wall-m300/greedy': ['edge capacity'],
    'wall-m300/ga': ['revisit period, energy budget, or edge capacity'],
    'wall-m300/pso': ['no feasible particle'],
    'wall-m3000/proposed': ['edge capacity'],
    'wall-m3000/greedy': ['edge capacity'],
    'scenario.json': 'ea2e19a7f897723ac22e1fb67f2c815c4a36bc9db7f18b6161be6c4d85dcb8e6',
    'plan/plan.json': '0a876d22375deeb6d1c714b5070b9b287506d061bee063e8671f75b756e6d8aa',
    'plan/routes.csv': '63555e4b8b0ab25eaef78530be8befc2472174ff9e91e5cea78f8c0a25b1d9f4',
    'plan/metrics.csv': 'f76b0805a176cb30f31b09443f23711abb6217d04644e33734feb90015fb5dcf',
    'simulate/events.json': '677f870e6f8a626028ad22010f45f3a77a62fc53f0c39f9b59df57bc12a93758',
    'simulate/trace.csv': 'e5ed8df1eda1ebd722d1e68320f8ddbff0e28d8519c7befb175f9d51dc12d56f',
    'simulate/impact.json': '7e8fc3cc3c318c4d2f11d465d50023b049bce307cecfea0172a29f431b4829d4',
    'simulate/queue.json': 'c6ed753192de1134c832c42e83be4524cf8d149bf6a9e55b4531010d87e32aaf',
    'compare/means.csv': 'eaa6cf1f4c79d3157bc928867b9a76c720a14128d98cd0ede6f8a2e6ae4c9818',
    'compare/cdf.csv': '6b7da2f1572d06e44cb7adc3bf211b841413b7244708f451bf95b693840fa88f',
    'compare/pairwise.csv': 'b3997b91dc6f0156793b75be291f0032be344b98ae8b7d4b04005f4e0a09f058',
    'compare/summary.json': 'c50cc6a7bfdbcb842fb086a189e1e8df35056d2a82090a91f3bf27a541253012',
    'sweep/means.csv': 'c404eedd6b490ef4338161ee333e1bd6dc79d8ad6b30f537b4ff3d260350fccd',
    'sweep/cdf.csv': '1ee4fe1f9eb02a0d53d22248ce6c4a16677a562a51b92ee61b44fe0ced88fa98',
    'sweep/pairwise.csv': '723d2c6297b7596d42d3409aa1299ef1973ac5c02681ceafc274aa34bc26dc39',
    'sweep/summary.json': '86a6c836a88c94559909c4a7b9dea0d8bcd77ed796d7ea49240b99d1b6213160',
    'burst/nearest/trace.csv': 'c7c58bfe141b813bcb3fc0dbf2e906f2432862b42aa580b9b945d6f638fc8d11',
    'burst/nearest/impact.json': 'a30159110b1db05af059343c588bc7def7e4a448d0e1b8a91d14709a1907e176',
    'burst/nearest/queue.json': 'c7228f821c0b416c6cc5722ecec0af58ef5b94a4c92033f3ae5b822eb82fff0d',
    'burst/own_cluster/trace.csv': 'ac6c1a719d5e9024b5414c7bf226e478fd1d91fd257e10f2a034498aa2308119',
    'burst/own_cluster/impact.json': '2360fb267b0cb78bb5e271d7e70533f3954adeb6598cee4727c4f4ee16ab1bc5',
    'burst/own_cluster/queue.json': '71cce1404078b95cbbbb8f35345092253c448238aaa6244a3c626b351721bb25',
    'drill/nearest/trace.csv': 'e00394c122b384f14c5a962f4a8d3e55a57b2ed26a8e95132bf799549da243d9',
    'drill/nearest/impact': 'bf4c992835ddc7a2c160042a3020b43da58970616fc0801dee346e330f28c683',
    'drill/nearest/phases_m': 'b2c3ca9f66e070afbf621bd1e454e19875741319cabdff1b8ca92e664fe469d5',
    'drill/own_cluster/trace.csv': '5e4e03c28298320e42932b31df0a1bd788772d2b035aaefd32752aff9b470715',
    'drill/own_cluster/impact': '3f5eec01d598e59467a5c27fe7b95cd7dd87f5540051615c14d36e9c06b0a466',
    'drill/own_cluster/phases_m': 'b2c3ca9f66e070afbf621bd1e454e19875741319cabdff1b8ca92e664fe469d5',
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plans_match_golden(name):
    got = plan_digests(name)
    assert got == {k: GOLDEN[k] for k in got}


def test_search_budget_plans_match_golden():
    got = search_digests()
    assert got == {k: GOLDEN[k] for k in got}


def test_summation_order_plans_match_golden():
    got = generated_plan_digests("summation", SUMMATION_CASES)
    assert got == {k: GOLDEN[k] for k in got}


def test_large_plans_match_golden():
    got = generated_plan_digests("large", LARGE_CASES)
    assert got == {k: GOLDEN[k] for k in got}


def test_infeasible_bindings_match_golden():
    got = bindings()
    assert got == {k: GOLDEN[k] for k in got}


def test_cli_artifacts_match_golden(tmp_path):
    got = cli_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


def test_sweep_compare_with_a_failed_cell_matches_golden(tmp_path):
    got = sweep_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


def test_queued_burst_matches_golden(tmp_path):
    got = burst_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


def test_daily_drill_matches_golden(tmp_path):
    got = drill_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


if __name__ == "__main__":
    import tempfile
    digests = {}
    for name in sorted(SCENARIOS):
        digests.update(plan_digests(name))
    digests.update(search_digests())
    digests.update(generated_plan_digests("summation", SUMMATION_CASES))
    digests.update(generated_plan_digests("large", LARGE_CASES))
    digests.update(bindings())
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(cli_digests(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(sweep_digests(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(burst_digests(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(drill_digests(Path(tmp)))
    for k, v in digests.items():
        print(f"    {k!r}: {v!r},")
