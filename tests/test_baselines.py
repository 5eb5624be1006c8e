import math

import numpy as np
import pytest

from firewatch.baselines import (
    GaConfig,
    PsoConfig,
    _order_by_priority,
    _Workspace,
    ga_plan,
    greedy_plan,
    pso_plan,
)
from firewatch.model import AlgoParams, PhysicalParams
from firewatch.planner import InfeasibleError, plan, plan_to_doc, validate_plan
from firewatch.routing import nearest_neighbor_tour, tour_length
from firewatch.scenario import GenConfig, generate
from firewatch.timing import all_responses, execution_time, transmission_time
from testutil import blob, build_scenario

GA_SMALL = GaConfig(population=16, generations=12, seed=0)
PSO_SMALL = PsoConfig(swarm=10, iterations=15, seed=0)


def _oracle_eval(ws, scenario, algo, genes, order, m):
    """Plain-Python recomputation of the candidate objective."""
    p = scenario.physical
    edges = scenario.edges
    n_edges = len(edges)
    members = [[i for i in order if genes[i] == j] for j in range(m)]

    demands = [sum(ws.beta[i] for i in members[j]) / p.t_period_s
               for j in range(m)]
    loads = [float(x) for x in ws.base_loads]
    edge_of = []
    for j in range(m):
        def score(k):
            dbar = (sum(ws.d_se[i, k] for i in members[j]) / len(members[j])
                    if members[j] else 0.0)
            return (algo.omega_d * dbar / p.diag_m
                    + algo.omega_l * (loads[k] + demands[j]) / edges[k].capacity_mips)
        k = min(range(n_edges), key=lambda k: (score(k), k))
        edge_of.append(k)
        loads[k] += demands[j]

    lengths, energy = [], []
    for j in range(m):
        if members[j]:
            depot = (edges[edge_of[j]].pos.x, edges[edge_of[j]].pos.y)
            L = tour_length(depot, scenario.xy[ws.uav_ids[members[j]]])
        else:
            L = 0.0
        lengths.append(L)
        alpha_sum = sum(ws.alpha[i] for i in members[j])
        energy.append((p.p_fly_w * L / p.v_g
                       + p.p_comm_w * alpha_sum * 8.0 / p.data_rate_mbps) / 3600.0)

    violations = sum(L / p.v_g > p.t_max_s for L in lengths)
    violations += sum(e > p.e_max_wh for e in energy)
    violations += sum(loads[k] > edges[k].capacity_mips for k in range(n_edges))

    service = sum(transmission_time(ws.alpha[i], p.data_rate_mbps)
                  + execution_time(ws.beta[i],
                                   edges[edge_of[genes[i]]].capacity_mips)
                  for i in range(ws.n))
    direct = sum(
        transmission_time(scenario.sensors[i].request.data_size_mb, p.data_rate_mbps)
        + execution_time(scenario.sensors[i].request.compute_mi,
                         scenario.edges[k].capacity_mips)
        for i, k in ws.direct_map.items())
    obj = sum(lengths) + algo.lam * (service + direct)
    return obj + 1e6 * violations, violations, edge_of, lengths


@pytest.mark.parametrize("m,gene_hi", [(3, 3), (4, 3)])   # second leaves a cluster empty
def test_eval_clusters_matches_oracle(m, gene_hi):
    scenario = generate(GenConfig(n_sensors=30, n_edges=3, seed=13))
    algo = AlgoParams()
    ws = _Workspace(scenario, algo)
    rng = np.random.default_rng(99)
    genes = rng.integers(0, gene_hi, size=ws.n)
    prios = rng.random(ws.n)
    order = _order_by_priority(genes, prios)

    fit, viol, edge_of, lengths = ws.eval_clusters(genes, order, m)
    w_fit, w_viol, w_edge, w_len = _oracle_eval(ws, scenario, algo, genes,
                                                order, m)
    assert viol == w_viol
    assert list(edge_of) == w_edge
    assert lengths == pytest.approx(w_len)
    assert fit == pytest.approx(w_fit, rel=1e-9)


def test_order_by_priority_groups_then_sorts():
    genes = np.array([1, 0, 1, 0])
    prios = np.array([0.9, 0.2, 0.1, 0.5])
    assert list(_order_by_priority(genes, prios)) == [1, 3, 2, 0]


def _blob_scenario():
    pts = blob((3000.0, 3000.0), [(dx * 137.0 % 900.0 - 450.0,
                                   dx * 211.0 % 700.0 - 350.0)
                                  for dx in range(10)])
    return build_scenario([(x, y, 20, 2.0, 200.0) for x, y in pts],
                          [(0.0, 0.0, 5000.0)])


def _plan_objective(pl, scenario, lam):
    """Total route length plus lam-weighted transmission and execution time
    over all requests."""
    terms, _ = all_responses(pl, scenario)
    service = sum((terms[:, 1] + terms[:, 2]).tolist())
    return sum(r.length_m for r in pl.routes) + lam * service


def test_ga_generations_do_not_hurt():
    sc = _blob_scenario()
    algo = AlgoParams()
    p0 = ga_plan(sc, algo, GaConfig(population=12, generations=0, seed=4))
    p8 = ga_plan(sc, algo, GaConfig(population=12, generations=8, seed=4))
    assert p0.m == p8.m == 1
    assert _plan_objective(p8, sc, algo.lam) <= _plan_objective(p0, sc, algo.lam) + 1e-9


def test_ga_deterministic():
    sc = _blob_scenario()
    algo = AlgoParams()
    a = ga_plan(sc, algo, GA_SMALL)
    b = ga_plan(sc, algo, GA_SMALL)
    assert plan_to_doc(a, sc) == plan_to_doc(b, sc)
    assert a.method == "ga"


def test_pso_deterministic_and_nn_ordered():
    sc = generate(GenConfig(n_sensors=40, n_edges=3, seed=7))
    algo = AlgoParams()
    a = pso_plan(sc, algo, PSO_SMALL)
    b = pso_plan(sc, algo, PSO_SMALL)
    assert plan_to_doc(a, sc) == plan_to_doc(b, sc)
    assert a.method == "pso"
    assert validate_plan(a, sc).all_ok
    for r in a.routes:
        if not r.waypoints:
            continue
        depot = sc.edges[r.depot_edge_id].pos
        members = sorted(r.waypoints)
        xy = np.array([[sc.sensors[i].pos.x, sc.sensors[i].pos.y]
                       for i in members])
        nn = nearest_neighbor_tour((depot.x, depot.y), xy)
        assert tuple(members[i] for i in nn) == r.waypoints


def test_greedy_single_cluster_routes_nearest_neighbor():
    sc = _blob_scenario()
    pl = greedy_plan(sc, AlgoParams())
    assert pl.m == 1
    depot = sc.edges[pl.routes[0].depot_edge_id].pos
    xy = np.array([[s.pos.x, s.pos.y] for s in sc.sensors])
    nn = nearest_neighbor_tour((depot.x, depot.y), xy)
    assert tuple(nn) == pl.routes[0].waypoints
    assert validate_plan(pl, sc).all_ok


def test_greedy_never_beats_proposed_fleet():
    for seed in range(3):
        sc = generate(GenConfig(n_sensors=60, seed=seed))
        algo = AlgoParams(seed=seed)
        assert greedy_plan(sc, algo).m >= plan(sc, algo).m


def test_all_methods_feasible_small():
    sc = generate(GenConfig(n_sensors=40, n_edges=3, seed=7))
    algo = AlgoParams()
    plans = {
        "proposed": plan(sc, algo),
        "greedy": greedy_plan(sc, algo),
        "ga": ga_plan(sc, algo, GaConfig(population=24, generations=25, seed=0)),
        "pso": pso_plan(sc, algo, PSO_SMALL),
    }
    for name, pl in plans.items():
        assert validate_plan(pl, sc).all_ok, name
        assert pl.method == name
        served = set(pl.assignment.direct_map) | set(pl.clustering.assignment)
        assert served == {s.id for s in sc.sensors}, name


def test_all_methods_raise_on_capacity_wall():
    p = PhysicalParams(m_max=3)
    sc = build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 0.0, 10.0)], p)
    algo = AlgoParams()
    with pytest.raises(InfeasibleError):
        greedy_plan(sc, algo)
    with pytest.raises(InfeasibleError):
        ga_plan(sc, algo, GaConfig(population=4, generations=2, seed=0))
    with pytest.raises(InfeasibleError):
        pso_plan(sc, algo, PsoConfig(swarm=4, iterations=2, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        PsoConfig(swarm=1)
    with pytest.raises(ValueError):
        PsoConfig(iterations=-1)
