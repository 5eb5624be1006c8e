import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest

import firewatch.planner as planner
from firewatch.baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
from firewatch.clustering import check_omega_h, weighted_kmeans
from firewatch.edge_assignment import assign_direct
from firewatch.model import AlgoParams, FleetInitMode, PhysicalParams, Variant, derive_seed
from firewatch.planner import (
    InfeasibleError,
    initial_fleet_size,
    plan,
    plan_at_fleet,
    plan_to_doc,
    load_plan,
    save_plan,
    size_fleet,
    write_route_csv,
)
from firewatch.reader import InputError
from firewatch.routing import build_route, ordered_route, route_energy, tour_lower_bound
from firewatch.scenario import GenConfig, generate
from testutil import (blob, bound_scenarios, brute_force_tour_optimum, build_scenario, feasible,
                      fleet_start, fleet_tree_bound, outcomes, unskip_fleet_sizes)


def test_initial_fleet_size_modes():
    p = PhysicalParams()
    assert initial_fleet_size(p, FleetInitMode.ONE) == 1
    # ceil(100e6 / (pi * 500^2)) = 128, clamped to m_max
    assert initial_fleet_size(p, FleetInitMode.COVERAGE) == 20
    assert initial_fleet_size(PhysicalParams(m_max=200), FleetInitMode.COVERAGE) == 128
    # area exactly one coverage disc
    exact = PhysicalParams(area_km2=math.pi * 0.25)
    assert initial_fleet_size(exact, FleetInitMode.COVERAGE) == 1


def _two_blob_scenario():
    """One edge, two 4-sensor blobs 8 km apart; e_max forces two UAVs.

    With e_max = 30 Wh a tour is capped near 16.2 km; the best possible
    single tour over both blobs is longer (verified by brute force), while
    one tour per blob fits easily.
    """
    p = PhysicalParams(e_max_wh=30.0, t_urgent_s=300.0)
    offsets = [(0.0, 0.0), (300.0, 100.0), (-200.0, -150.0), (100.0, 250.0)]
    pts = blob((1000.0, 5000.0), offsets) + blob((9000.0, 5000.0), offsets)
    return build_scenario([(x, y, 0, 1.0, 100.0) for x, y in pts],
                          [(5000.0, 5000.0, 5000.0)], p)


def test_minimal_fleet_two_blobs():
    sc = _two_blob_scenario()
    p = sc.physical
    xy = np.array([[s.pos.x, s.pos.y] for s in sc.sensors])
    best_single = brute_force_tour_optimum((5000.0, 5000.0), xy)
    max_alpha = sum(s.request.data_size_mb for s in sc.sensors)
    # even the optimal single tour busts the energy budget -> m = 1 impossible
    assert route_energy(best_single, [max_alpha], p) > p.e_max_wh

    pl = plan(sc, AlgoParams())
    assert pl.m == 2
    assert feasible(pl, sc)
    groups = sorted([sorted(r.waypoints) for r in pl.routes])
    assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]


def _far_blobs_scenario(m_max=20):
    """Two 4-sensor blobs 8 km apart, each 1 km from its own edge; a lap
    may fly about 5.9 km.  One UAV cannot span both blobs (their spanning
    tree alone is over 8 km); one UAV per blob fits."""
    p = PhysicalParams(e_max_wh=11.0, m_max=m_max)
    offsets = [(0.0, 0.0), (300.0, 100.0), (-200.0, -150.0), (100.0, 250.0)]
    pts = blob((1000.0, 6000.0), offsets) + blob((9000.0, 6000.0), offsets)
    return build_scenario([(x, y, 0, 1.0, 100.0) for x, y in pts],
                          [(1000.0, 5000.0, 5000.0), (9000.0, 5000.0, 5000.0)], p)


def _count_route_builds(monkeypatch):
    calls = []
    build = planner.build_route

    def counting(uav_id, depot_edge_id, ids, scenario, **kw):
        calls.append(sorted(np.asarray(ids).tolist()))
        return build(uav_id, depot_edge_id, ids, scenario, **kw)

    monkeypatch.setattr(planner, "build_route", counting)
    return calls


def test_bound_infeasible_fleet_size_is_never_routed(monkeypatch):
    sc = _far_blobs_scenario()
    xy = np.array([[s.pos.x, s.pos.y] for s in sc.sensors])
    for e in sc.edges:
        lb = tour_lower_bound((e.pos.x, e.pos.y), xy)
        assert route_energy(lb, [1.0] * len(xy), sc.physical) > sc.physical.e_max_wh

    calls = _count_route_builds(monkeypatch)
    pruned = plan(sc, AlgoParams())
    assert pruned.m == 2
    assert sorted(calls) == [[0, 1, 2, 3], [4, 5, 6, 7]]   # m = 1 never routed

    # with a bound that never breaks, m = 1 is routed and rejected: same plan
    calls.clear()
    monkeypatch.setattr(planner, "tour_lower_bound", lambda depot_xy, xy: 0.0)
    unpruned = plan(sc, AlgoParams())
    assert len(calls) == 3 and calls[0] == list(range(8))
    assert plan_to_doc(unpruned, sc) == plan_to_doc(pruned, sc)


def test_bound_never_prunes_at_fleet_ceiling(monkeypatch):
    calls = _count_route_builds(monkeypatch)
    with pytest.raises(InfeasibleError) as err:
        plan(_far_blobs_scenario(m_max=1), AlgoParams())
    assert err.value.binding == ["energy budget"]
    assert calls == [list(range(8))]


def test_routing_stops_at_first_route_over_a_limit():
    sc = dataclasses.replace(_far_blobs_scenario(), physical=PhysicalParams(m_max=3))
    uav_ids, direct_map, load0 = planner.assign_direct(sc)
    assert uav_ids.tolist() == list(range(len(sc.sensors)))
    sizes, calls = [], []

    def clusters_at(m):
        sizes.append(m)
        labels = np.arange(len(uav_ids)) % m
        return labels, np.argsort(labels, kind="stable"), 0

    def route(j, depot_edge_id, ids, scenario):
        # every route breaks the revisit limit below three UAVs
        m = sizes[-1]
        calls.append((m, j))
        r = build_route(j, depot_edge_id, ids, scenario, use_two_opt=False)
        return r if m == 3 else dataclasses.replace(
            r, revisit_s=scenario.physical.t_max_s + 1.0)

    pl = size_fleet(sc, AlgoParams(), uav_ids, direct_map, load0, clusters_at, route,
                    method="t", t0=0.0, variant="-", at_m=None, binding=None)
    assert pl.m == 3
    assert calls == [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]


@pytest.mark.parametrize("variant", list(Variant))
def test_fleet_sizes_below_the_bound_break_a_limit(variant):
    """Every fleet size the loop skips gives a plan with a route over the
    revisit or energy limit, its routes no shorter in total than the tree."""
    algo = AlgoParams()
    starts = []
    for name, sc in bound_scenarios().items():
        p, lb = sc.physical, fleet_tree_bound(sc)
        starts.append(start := fleet_start(sc))
        for m in range(1, start):
            pl = plan_at_fleet(sc, algo, m, variant)
            assert any(r.revisit_s > p.t_max_s or r.energy_wh > p.e_max_wh
                       for r in pl.routes), (name, m)
            assert sum(r.length_m for r in pl.routes) >= lb, (name, m)
    assert sorted(set(starts)) == [2, 3, 4]


@pytest.mark.parametrize("variant", list(Variant))
def test_skipping_fleet_sizes_changes_no_plan(monkeypatch, variant):
    def make_plan(sc):
        return plan(sc, AlgoParams(), variant)

    got = outcomes(make_plan, bound_scenarios())
    unskip_fleet_sizes(monkeypatch)
    assert outcomes(make_plan, bound_scenarios()) == got


def test_fleet_bound_above_the_ceiling_tries_only_the_ceiling(monkeypatch):
    wide = bound_scenarios()["infeasible-s0"]
    assert fleet_start(wide) == 4
    sc = dataclasses.replace(wide, physical=dataclasses.replace(wide.physical, m_max=3))
    tried = []
    cluster_for_m = planner._cluster_for_m
    monkeypatch.setattr(planner, "_cluster_for_m",
                        lambda uav_ids, m, *args: tried.append(m) or cluster_for_m(
                            uav_ids, m, *args))
    with pytest.raises(InfeasibleError) as err:
        plan(sc, AlgoParams())
    assert tried == [3]
    assert err.value.binding == ["energy budget"]
    unskip_fleet_sizes(monkeypatch)
    with pytest.raises(InfeasibleError) as unskipped:
        plan(sc, AlgoParams())
    assert tried == [3, 1, 2, 3]
    assert unskipped.value.binding == err.value.binding


def test_large_plan_takes_nine_bounds_largest_first(monkeypatch):
    """On the 600-sensor input (generator seed 0, m_max 60, planner seed 0)
    the whole-fleet bound and the clusters' bounds, largest first, are 9
    spanning trees over 1,820 points; in index order they were 12 over
    2,212."""
    sc = generate(GenConfig(n_sensors=600, seed=0), PhysicalParams(m_max=60))
    sizes = []
    monkeypatch.setattr(planner, "tour_lower_bound",
                        lambda depot, xy: sizes.append(len(xy)) or tour_lower_bound(depot, xy))
    assert plan(sc, AlgoParams(seed=0)).m == 5
    assert (len(sizes), sum(sizes)) == (9, 1820)


def test_returned_fleet_is_minimal(default_scenario, default_algo, default_plan):
    m = default_plan.m
    assert m >= 1
    if m > 1:
        shrunk = plan_at_fleet(default_scenario, default_algo, m - 1)
        assert not feasible(shrunk, default_scenario)


def test_plan_at_fleet_matches_plan_at_chosen_m(default_scenario, default_algo,
                                                default_plan):
    same = plan_at_fleet(default_scenario, default_algo, default_plan.m)
    assert plan_to_doc(same, default_scenario) == plan_to_doc(default_plan,
                                                              default_scenario)


def test_degenerate_all_direct():
    sc = build_scenario([(100.0, 0.0, 0, 1.0, 100.0)], [(0.0, 0.0, 5000.0)])
    pl = plan(sc, AlgoParams())
    assert pl.m == 1
    assert pl.assignment.direct_map == {0: 0}
    assert pl.clustering.assignment == {}
    assert pl.routes[0].waypoints == ()
    assert feasible(pl, sc)


def test_plan_constraints_and_structure(default_scenario, default_plan):
    sc, pl = default_scenario, default_plan
    p = sc.physical
    assert len(pl.routes) == pl.m
    assert feasible(pl, sc)
    for r in pl.routes:
        assert r.revisit_s <= p.t_max_s
        assert r.energy_wh <= p.e_max_wh
    # every sensor served exactly once
    served = set(pl.assignment.direct_map) | set(pl.clustering.assignment)
    assert served == {s.id for s in sc.sensors}
    route_ids = [i for r in pl.routes for i in r.waypoints]
    assert sorted(route_ids) == sorted(pl.clustering.assignment)


def test_coverage_fleet_mode(default_scenario):
    pl = plan(default_scenario, AlgoParams(fleet_init_mode=FleetInitMode.COVERAGE))
    assert pl.m == 20
    assert feasible(pl, default_scenario)


def test_a_route_one_metre_over_the_revisit_limit():
    """A route one meter over the revisit budget is 1/v over t_max_s."""
    p = PhysicalParams(area_km2=3600.0)   # side 60 km so the long leg fits
    sc = build_scenario([(27000.5, 0.0, 0, 1.0, 100.0)], [(0.0, 0.0, 5000.0)], p)
    pl = plan_at_fleet(sc, AlgoParams(), 1)
    route = pl.routes[0]
    assert route.length_m == pytest.approx(54001.0)
    assert route.revisit_s - p.t_max_s == pytest.approx(1.0 / 15.0)
    assert not feasible(pl, sc)
    # energy stays within budget on that same route
    assert route.energy_wh <= p.e_max_wh


def test_plan_within_the_fleet_ceiling():
    sc = build_scenario([(3000.0, 0.0, 0, 1.0, 100.0)],
                        [(0.0, 0.0, 5000.0)],
                        PhysicalParams(m_max=2))
    pl = plan(sc, AlgoParams())
    assert pl.m <= sc.physical.m_max
    assert feasible(pl, sc)


def test_feasible_judges_each_limit_on_recomputed_routes(default_scenario, default_plan):
    """A plan past m_max, or with an edge over its capacity, is infeasible;
    a route whose stored revisit period understates its waypoints' is
    rejected, not judged by the stored figure."""
    sc, pl = default_scenario, default_plan
    assert not feasible(plan_at_fleet(sc, AlgoParams(), sc.physical.m_max + 1), sc)
    # the capacity wall: no repair fits the three sensors' compute on one edge
    wall = build_scenario([(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
                           (3400.0, 0.0, 0, 1.0, 1e6)], [(0.0, 0.0, 10.0)],
                          PhysicalParams(m_max=3))
    over = plan_at_fleet(wall, AlgoParams(), 1)
    assert all(r.revisit_s <= wall.physical.t_max_s and r.energy_wh <= wall.physical.e_max_wh
               for r in over.routes)
    assert not feasible(over, wall)
    busy = max(pl.routes, key=lambda r: r.revisit_s)
    understated = dataclasses.replace(pl, routes=tuple(
        dataclasses.replace(r, revisit_s=0.0) if r is busy else r for r in pl.routes))
    with pytest.raises(InputError, match="revisit_s"):
        feasible(understated, sc)


def test_infeasible_capacity_reports_binding():
    p = PhysicalParams(m_max=3)
    sc = build_scenario(
        [(3000.0, 0.0, 0, 1.0, 1e6), (3200.0, 0.0, 0, 1.0, 1e6),
         (3400.0, 0.0, 0, 1.0, 1e6)],
        [(0.0, 0.0, 10.0)], p)
    with pytest.raises(InfeasibleError) as err:
        plan(sc, AlgoParams())
    assert err.value.m_max == 3
    assert "edge capacity" in err.value.binding


def test_plan_deterministic(default_scenario, default_algo, default_plan):
    again = plan(default_scenario, default_algo)
    assert plan_to_doc(again, default_scenario) == plan_to_doc(default_plan,
                                                               default_scenario)


def test_plan_round_trip(tmp_path, default_scenario, default_plan):
    path = tmp_path / "plan.json"
    save_plan(default_plan, default_scenario, str(path))
    back = load_plan(str(path), default_scenario)
    assert plan_to_doc(back, default_scenario) == plan_to_doc(default_plan,
                                                              default_scenario)
    assert back.planning_time_s == 0.0


def test_every_method_round_trips_through_the_structural_check(tmp_path):
    """GA/PSO routes keep their evolved visit order and sum upload sizes in
    it, and idle UAVs park with empty routes; load_plan accepts them all."""
    from firewatch.baselines import GaConfig, PsoConfig, ga_plan, greedy_plan, pso_plan
    from firewatch.scenario import GenConfig, generate

    sc = generate(GenConfig(n_sensors=60, n_edges=3, seed=0))
    algo = AlgoParams()
    plans = [plan(sc, algo, Variant.NO_BOTH), plan_at_fleet(sc, algo, 61), greedy_plan(sc, algo),
             ga_plan(sc, algo, GaConfig(population=8, generations=4)),
             pso_plan(sc, algo, PsoConfig(swarm=6, iterations=4))]
    for k, pl in enumerate(plans):
        path = tmp_path / f"plan{k}.json"
        save_plan(pl, sc, str(path))
        assert load_plan(str(path), sc).routes == pl.routes


def test_load_plan_rejects_unknown_schema(tmp_path, default_scenario, default_plan):
    import json

    path = tmp_path / "plan.json"
    save_plan(default_plan, default_scenario, str(path))
    doc = json.loads(path.read_text())
    doc["schema_version"] = "bogus"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema_version"):
        load_plan(str(path), default_scenario)


def test_route_csv_leg_counts(tmp_path, default_scenario, default_plan):
    path = tmp_path / "routes.csv"
    write_route_csv(default_plan, default_scenario, str(path))
    with open(path) as f:
        rows = list(csv.DictReader(f))
    want = sum(len(r.waypoints) + 1 for r in default_plan.routes if r.waypoints)
    assert len(rows) == want
    # legs chain: each route starts and ends at its depot
    by_uav = {}
    for row in rows:
        by_uav.setdefault(int(row["uav_id"]), []).append(row)
    for legs in by_uav.values():
        assert (legs[0]["x1"], legs[0]["y1"]) == (legs[-1]["x2"], legs[-1]["y2"])


def test_ablation_variants_all_plan(default_scenario, default_algo):
    plans = {v: plan(default_scenario, default_algo, v) for v in Variant}
    for v, pl in plans.items():
        assert feasible(pl, default_scenario), v
        assert pl.variant == v.value
    # random clustering can never use fewer UAVs than the fleet floor
    assert plans[Variant.NO_KMEANS].m >= 1


def test_plan_at_fleet_allows_violations():
    sc = _two_blob_scenario()
    pl = plan_at_fleet(sc, AlgoParams(), 1)
    assert pl.m == 1
    assert not feasible(pl, sc)


def _cluster_for_m_oracle(uav_ids, m, scenario, algo, variant):
    """_cluster_for_m with one ``labels == j`` mask per cluster: the member
    arrays the single stable sort and split must reproduce."""
    n, iterations = len(uav_ids), 0
    labels = np.zeros(n, dtype=int)
    if variant in (Variant.NO_KMEANS, Variant.NO_BOTH):
        rng = np.random.default_rng(derive_seed(algo.seed, f"random-clusters-m{m}"))
        labels = rng.integers(0, m, size=n)
        if n >= m and np.bincount(labels, minlength=m).min() == 0:
            labels = rng.integers(0, m, size=n)
    elif n:
        rng = np.random.default_rng(derive_seed(algo.seed, f"kmeans-m{m}"))
        sub = weighted_kmeans(scenario, uav_ids, min(m, n), algo.omega_h,
                              algo.epsilon_m, rng)
        labels = np.array([sub.assignment[i] for i in uav_ids.tolist()])
        iterations = sub.iterations_run
    return [uav_ids[labels == j] for j in range(m)], iterations


@pytest.mark.parametrize("variant", [Variant.FULL, Variant.NO_KMEANS])
def test_cluster_members_match_per_cluster_masks(small_scenario, variant):
    """The clusters size_fleet routes, sliced from the labels and visit
    order of _cluster_for_m, are the same ascending id arrays as one mask
    per cluster, for every m up to three times the UAV-served count (empty
    clusters included) and with no UAV-served sensor at all."""
    sc, algo = small_scenario, AlgoParams(seed=3)
    uav_ids, direct_map, load0 = assign_direct(sc)
    routed = {}

    def route(j, depot_edge_id, ids, scenario):
        routed[j] = ids
        return ordered_route(j, depot_edge_id, ids, scenario)

    for ids in (uav_ids, uav_ids[:0]):
        for m in range(1, 3 * len(uav_ids) + 1):
            routed.clear()
            pl = size_fleet(sc, algo, ids, direct_map, load0,
                            lambda m: planner._cluster_for_m(ids, m, sc, algo, variant), route,
                            method="t", t0=0.0, variant="-", at_m=m, binding=None)
            want, want_iterations = _cluster_for_m_oracle(ids, m, sc, algo, variant)
            assert pl.clustering.iterations_run == want_iterations
            assert sorted(routed) == list(range(m))
            for j, exp in enumerate(want):
                assert routed[j].dtype == exp.dtype and routed[j].tolist() == exp.tolist()


@pytest.mark.parametrize("edges", [3, 5])
def test_an_omega_h_that_overflows_raises_naming_it(edges):
    """Where omega_h meets the scenario, the k-means and every method's
    sizing loop, a weight or weighted coordinate sum that overflows raises
    a ValueError naming omega_h, before any fleet size and without a numpy
    warning; the largest power of ten that passes plans."""
    sc = generate(GenConfig(n_sensors=60, seed=0, n_edges=edges))
    algo = dataclasses.replace(AlgoParams(), omega_h=1e308)
    calls = [lambda: plan(sc, algo), lambda: greedy_plan(sc, algo),
             lambda: ga_plan(sc, algo, GaConfig(population=4, generations=1)),
             lambda: pso_plan(sc, algo, PsoConfig(swarm=4, iterations=1)),
             lambda: weighted_kmeans(sc, np.arange(60), 2, 1e308, 10.0,
                                     np.random.default_rng(0))]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^omega_h 1e\+308 makes a sensor weight"):
                call()
    check_omega_h(sc, 1e301)
    with pytest.raises(ValueError):
        check_omega_h(sc, 1e302)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert feasible(plan(sc, dataclasses.replace(algo, omega_h=1e301)), sc)
