"""Golden artifacts: sha256 digests of the plans, infeasibility reports,
simulation outputs and comparison summary on a few small fixed inputs.

Every determinism test elsewhere runs the same code twice; these digests
instead pin the bytes across code changes, so a refactor that alters a plan,
a binding-constraint string or a trace (for example by summing floats in
another order) fails here.  A change that alters outputs on purpose updates
the digests and says so in CHANGES.md; ``python tests/test_golden.py``
prints the current ones.  The digests hold for one floating-point
environment (numpy 2.4, x86-64).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from firewatch.baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
from firewatch.cli import main
from firewatch.emergency import EmergencyEvent, save_events
from firewatch.model import AlgoParams, PhysicalParams, Variant
from firewatch.planner import InfeasibleError, plan, plan_at_fleet, plan_to_doc, save_plan
from firewatch.scenario import GenConfig, generate, save_scenario
from testutil import build_scenario

# the GA/PSO budgets of the acceptance soundness sweep
GA_FAST = dict(population=16, generations=12)
PSO_FAST = dict(swarm=10, iterations=15)

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


def _capacity_wall():
    """The scenario of test_all_methods_raise_on_capacity_wall."""
    return build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 0.0, 10.0)], PhysicalParams(m_max=3))


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
    out[f"{name}/ga"] = _plan_digest(ga_plan(sc, algo, GaConfig(seed=0, **GA_FAST)), sc)
    out[f"{name}/pso"] = _plan_digest(pso_plan(sc, algo, PsoConfig(seed=0, **PSO_FAST)), sc)
    return out


def summation_digests() -> dict[str, str]:
    out = {}
    for name, (n, seed, variant, m_max) in SUMMATION_CASES.items():
        physical = PhysicalParams(m_max=m_max) if m_max else None
        sc = generate(GenConfig(n_sensors=n, seed=seed), physical)
        out[f"summation/{name}"] = _plan_digest(plan(sc, AlgoParams(seed=seed), variant), sc)
    return out


def bindings() -> dict[str, list[str] | None]:
    algo = AlgoParams()
    cases = {
        "wall": _capacity_wall(),
        # one UAV cannot cover the 60-sensor scenario in time
        "reach": generate(GenConfig(n_sensors=60, n_edges=3, seed=0), PhysicalParams(m_max=1)),
    }
    out = {}
    for name, sc in cases.items():
        out[f"{name}/proposed"] = _binding(lambda: plan(sc, algo))
        out[f"{name}/greedy"] = _binding(lambda: greedy_plan(sc, algo))
        out[f"{name}/ga"] = _binding(
            lambda: ga_plan(sc, algo, GaConfig(population=4, generations=2, seed=0)))
        out[f"{name}/pso"] = _binding(
            lambda: pso_plan(sc, algo, PsoConfig(swarm=4, iterations=2, seed=0)))
    return out


def cli_digests(tmp: Path) -> dict[str, str]:
    sc = SCENARIOS["small"]()
    save_scenario(sc, str(tmp / "scenario.json"))
    save_plan(plan(sc, AlgoParams()), sc, str(tmp / "plan.json"))
    assert main(["simulate", "-s", str(tmp / "scenario.json"), "-p", str(tmp / "plan.json"),
                 "--n-events", "4", "-o", str(tmp / "sim")]) == 0
    assert main(["compare", "--methods", "proposed,ga,pso,greedy", "--seeds", "2",
                 "--sensors", "60", "--edges", "3",
                 "--ga-pop", str(GA_FAST["population"]),
                 "--ga-gens", str(GA_FAST["generations"]),
                 "--pso-swarm", str(PSO_FAST["swarm"]),
                 "--pso-iters", str(PSO_FAST["iterations"]),
                 "-o", str(tmp / "cmp")]) == 0
    return {
        "simulate/trace.csv": _digest((tmp / "sim" / "trace.csv").read_bytes()),
        "simulate/impact.json": _digest((tmp / "sim" / "impact.json").read_bytes()),
        "compare/summary.json": _digest((tmp / "cmp" / "summary.json").read_bytes()),
    }


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
        for name in ("trace.csv", "impact.json"):
            out[f"burst/{policy}/{name}"] = _digest((sim / name).read_bytes())
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
    'summation/n600-s0/full': 'f110f878064ff16213733371cc2a4ed6924f977c797766f48293546fb1fe87fb',
    'summation/n60-s3/full': 'dd7829384af21eedcf6bc4da38246542b710e22e4ca76fe29726ec3f1ba700e9',
    'summation/n150-s2/no-2opt': 'a531dbd14cae471b2f40404ce4a37e38d13f8cb58b498b9a9f22829c55548927',
    'wall/proposed': ['edge capacity'],
    'wall/greedy': ['edge capacity'],
    'wall/ga': ['revisit period, energy budget, or edge capacity'],
    'wall/pso': ['no feasible particle'],
    'reach/proposed': ['revisit period'],
    'reach/greedy': ['revisit period'],
    'reach/ga': ['revisit period, energy budget, or edge capacity'],
    'reach/pso': ['no feasible particle'],
    'simulate/trace.csv': 'e5ed8df1eda1ebd722d1e68320f8ddbff0e28d8519c7befb175f9d51dc12d56f',
    'simulate/impact.json': '7e8fc3cc3c318c4d2f11d465d50023b049bce307cecfea0172a29f431b4829d4',
    'compare/summary.json': '414af4678977ceb4e983ac16a95b5939bb354702457424d63b43a28c67e0ce20',
    'burst/nearest/trace.csv': 'c7c58bfe141b813bcb3fc0dbf2e906f2432862b42aa580b9b945d6f638fc8d11',
    'burst/nearest/impact.json': 'a30159110b1db05af059343c588bc7def7e4a448d0e1b8a91d14709a1907e176',
    'burst/own_cluster/trace.csv': 'ac6c1a719d5e9024b5414c7bf226e478fd1d91fd257e10f2a034498aa2308119',
    'burst/own_cluster/impact.json': '2360fb267b0cb78bb5e271d7e70533f3954adeb6598cee4727c4f4ee16ab1bc5',
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_plans_match_golden(name):
    got = plan_digests(name)
    assert got == {k: GOLDEN[k] for k in got}


def test_summation_order_plans_match_golden():
    got = summation_digests()
    assert got == {k: GOLDEN[k] for k in got}


def test_infeasible_bindings_match_golden():
    got = bindings()
    assert got == {k: GOLDEN[k] for k in got}


def test_cli_artifacts_match_golden(tmp_path):
    got = cli_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


def test_queued_burst_matches_golden(tmp_path):
    got = burst_digests(tmp_path)
    assert got == {k: GOLDEN[k] for k in got}


if __name__ == "__main__":
    import tempfile
    digests = {}
    for name in sorted(SCENARIOS):
        digests.update(plan_digests(name))
    digests.update(summation_digests())
    digests.update(bindings())
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(cli_digests(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        digests.update(burst_digests(Path(tmp)))
    for k, v in digests.items():
        print(f"    {k!r}: {v!r},")
