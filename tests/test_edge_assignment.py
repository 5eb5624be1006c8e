import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firewatch.baselines import _Workspace
from firewatch.edge_assignment import (
    EdgeLoadState,
    RepairFailure,
    assign_batch,
    assign_clusters,
    assign_direct,
    cluster_demand,
    cluster_terms,
    edge_distances,
    repair_overload,
)
from firewatch.model import AlgoParams, PhysicalParams
from testutil import (assign_clusters_oracle, assign_edges_oracle, build_scenario,
                      phase1_loop_oracle, phase1_oracle, repair_overload_oracle)


def test_assign_direct_tie_prefers_lowest_edge_id():
    # edges 1 and 3 both 400 m away; 0 and 2 are out of range
    sc = build_scenario(
        [(400.0, 0.0, 0, 1.0, 360.0)],
        [(9000.0, 9000.0, 5000.0), (0.0, 0.0, 5000.0),
         (8000.0, 100.0, 5000.0), (800.0, 0.0, 5000.0)])
    uav_ids, direct_map, load = assign_direct(sc)
    assert uav_ids.tolist() == []
    assert direct_map == {0: 1}
    assert load.loads_mips[1] == pytest.approx(360.0 / 3600.0)  # 0.1 MIPS
    assert load.loads_mips[0] == load.loads_mips[2] == load.loads_mips[3] == 0.0


def test_assign_direct_empty_input():
    # no sensor within r_se = 500 m of the edge: nothing is direct
    sc = build_scenario([(600.0, 0.0, 0, 1.0, 100.0)], [(0.0, 0.0, 5000.0)])
    uav_ids, direct_map, load = assign_direct(sc)
    assert uav_ids.tolist() == [0]
    assert direct_map == {}
    assert load.loads_mips == [0.0]


def test_assign_direct_out_of_range_rejected():
    # an out-of-range sensor is not taken as direct; it is left to the UAVs
    sc = build_scenario([(5000.0, 5000.0, 0, 1.0, 100.0), (0.0, 400.0, 0, 1.0, 100.0)],
                        [(0.0, 0.0, 5000.0)])
    uav_ids, direct_map, _ = assign_direct(sc)
    assert uav_ids.tolist() == [0]
    assert direct_map == {1: 0}


# multiples of 100 m put sensors exactly at r_se = 500 m from an edge (for
# example at (300, 400) from it) and equally far from two edges
_coord = st.one_of(st.integers(0, 20).map(lambda k: 100.0 * k), st.floats(0.0, 2000.0))


@st.composite
def _phase1_scenarios(draw):
    """Up to 12 sensors drawn from a pool of at most 6 positions, so some
    coincide, and 1-5 edges, the last one often the mirror image of the
    first through a sensor, so that sensor is equally far from both."""
    pool = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=6))
    xy = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    beta = draw(st.lists(st.floats(100.0, 500.0), min_size=len(xy), max_size=len(xy)))
    edges = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=4))
    if draw(st.booleans()):
        (sx, sy), (ex, ey) = draw(st.sampled_from(xy)), edges[0]
        edges.append((2.0 * sx - ex, 2.0 * sy - ey))
    return build_scenario([(x, y, 0, 1.0, b) for (x, y), b in zip(xy, beta)],
                          [(x, y, 5000.0) for x, y in edges])


def _sensors(*xy):
    return [(x, y, 0, 1.0, 100.0 + 37.0 * i) for i, (x, y) in enumerate(xy)]


@given(_phase1_scenarios())
# a sensor equally far from edges 1 and 2, another from edges 0 and 3
@example(build_scenario(_sensors((400.0, 0.0), (1000.0, 1000.0)),
                        [(1000.0, 700.0, 5000.0), (0.0, 0.0, 5000.0), (800.0, 0.0, 5000.0),
                         (1000.0, 1300.0, 5000.0)]))
# exactly at r_se, inside it and just outside it
@example(build_scenario(_sensors((500.0, 0.0), (300.0, 400.0), (500.0, 1e-9)),
                        [(0.0, 0.0, 5000.0)]))
# coincident sensors
@example(build_scenario(_sensors((100.0, 100.0), (100.0, 100.0), (100.0, 100.0)),
                        [(0.0, 0.0, 5000.0), (200.0, 200.0, 5000.0)]))
# no sensor in range, and every sensor in range
@example(build_scenario(_sensors((1500.0, 1500.0), (2000.0, 0.0)), [(0.0, 0.0, 5000.0)]))
@example(build_scenario(_sensors((0.0, 0.0), (250.0, 0.0), (0.0, 500.0)),
                        [(0.0, 0.0, 5000.0), (250.0, 250.0, 5000.0)]))
def test_assign_direct_equals_the_two_pass_object_oracle(sc):
    """The per-edge distance columns give the UAV-served ids, direct map
    and loads of the partition-then-assign passes over the objects and of
    the one-pass loop with a distance list per sensor, with ``==`` on every
    load."""
    uav_ids, direct_map, load = assign_direct(sc)
    for want_uav, want_map, want_loads in (phase1_oracle(sc), phase1_loop_oracle(sc)):
        assert uav_ids.tolist() == want_uav
        assert direct_map == want_map
        assert load.loads_mips == want_loads
    assert load.capacities_mips == [e.capacity_mips for e in sc.edges]


def test_cluster_demand_examples():
    sc = build_scenario([(0.0, 0.0, 0, 1.0, 300.0) for _ in range(20)],
                        [(0.0, 0.0, 5000.0)])
    assert cluster_demand(sc.beta_mi, 3600.0) == pytest.approx(6000.0 / 3600.0)
    assert cluster_demand([], 3600.0) == 0.0
    one = build_scenario([(0.0, 0.0, 0, 1.0, 500.0)], [(0.0, 0.0, 5000.0)]).beta_mi
    assert cluster_demand(one, 3600.0) == pytest.approx(500.0 / 3600.0)
    with pytest.raises(ValueError):
        cluster_demand([], 0.0)


def _cluster_scenario():
    """Two edges 1 km apart; helper sensors land at controlled distances."""
    return build_scenario(
        [(0.0, 0.0, 0, 1.0, 50.0), (500.0, 0.0, 0, 1.0, 50.0),
         (1000.0, 0.0, 0, 1.0, 50.0)],
        [(0.0, 0.0, 10.0), (1000.0, 0.0, 10.0)])


def _terms(members, sc, omega_d, d_norm_m, t_period_s):
    """The (m,) counts and demands and (m, edges) distance terms of clusters
    given as lists of sensor ids, from their labels in ascending id, as
    size_fleet takes them."""
    ids = np.array(sorted(i for c in members for i in c), dtype=int)
    labels = np.empty(len(ids), dtype=int)
    for j, c in enumerate(members):
        labels[np.searchsorted(ids, c)] = j
    (counts,), (demands,), (dist,) = cluster_terms(labels[None], len(members), sc.beta_mi[ids],
                                                   edge_distances(sc, ids), omega_d, d_norm_m,
                                                   t_period_s)
    return counts, demands, dist


def test_assign_clusters_hand_computed_scores():
    sc = _cluster_scenario()
    members = [[0, 1]]                             # dbar: e0 250, e1 750
    edge_of, loads = assign_clusters(*_terms(members, sc, 0.7, 1000.0, 100.0), [0.0, 0.0],
                                     sc.capacity, 0.3)
    demand = 100.0 / 100.0
    s0 = 0.7 * 250.0 / 1000.0 + 0.3 * (0.0 + demand) / 10.0
    s1 = 0.7 * 750.0 / 1000.0 + 0.3 * (0.0 + demand) / 10.0
    assert s0 == pytest.approx(0.205) and s1 == pytest.approx(0.555)
    assert edge_of.tolist() == [0]
    assert loads.tolist() == pytest.approx([demand, 0.0])


def test_assign_clusters_pure_distance_and_pure_load():
    sc = _cluster_scenario()
    near_e0 = [[0]]
    edge_of, _ = assign_clusters(*_terms(near_e0, sc, 1.0, 1000.0, 100.0), [0.0, 0.0],
                                 sc.capacity, 0.0)
    assert edge_of.tolist() == [0]

    # omega_d = 0: utilization-after 0.9 on e0 vs 0.2 on e1 -> e1
    edge_of, _ = assign_clusters(*_terms(near_e0, sc, 0.0, 1000.0, 100.0), [8.0, 1.0],
                                 sc.capacity, 1.0)
    assert edge_of.tolist() == [1]


def test_assign_clusters_tie_prefers_lowest_edge():
    sc = _cluster_scenario()
    centered = [[1]]                               # 500 m from both edges
    edge_of, _ = assign_clusters(*_terms(centered, sc, 0.7, 1000.0, 100.0), [0.0, 0.0],
                                 sc.capacity, 0.3)
    assert edge_of.tolist() == [0]


def test_assign_clusters_sequential_load_coupling():
    # two sensors at one point: identical demands and dbar
    sc = build_scenario([(500.0, 0.0, 0, 1.0, 50.0)] * 2,
                        [(0.0, 0.0, 1.2), (1000.0, 0.0, 1.0)])
    edge_of, loads = assign_clusters(*_terms([[0], [1]], sc, 0.0, 1000.0, 50.0), [0.0, 0.0],
                                     sc.capacity, 1.0)
    # each demand = 1.0; after c0 takes e0, e1 scores lower for c1
    assert edge_of.tolist() == [0, 1]
    assert loads.tolist() == pytest.approx([1.0, 1.0])


def test_distance_term_divides_before_weighting():
    """The distance term is omega_d * (dbar / d_norm), not omega_d * dbar /
    d_norm.  Each sensor's two edge distances are one ulp apart: the first's
    round to two scores in the planner's order and tie in the other, the
    second's the other way round.  Demand 0 leaves only the distance term."""
    d_se = np.array([[3529.5430000000006, 3529.543], [3044.2690000000002, 3044.269]])
    counts, demands, dist = cluster_terms(np.array([[0, 1]]), 2, np.zeros(2), d_se, 0.7,
                                          10000.0, 3600.0)
    edge_of, _ = assign_batch(counts, demands, dist, [0.0, 0.0], np.ones(2), 0.3)
    assert edge_of.tolist() == [[1, 0]]


def test_single_edge_takes_everything():
    sc = build_scenario([(0.0, 0.0, 0, 1.0, 50.0), (900.0, 900.0, 0, 1.0, 70.0)],
                        [(5000.0, 5000.0, 10.0)])
    edge_of, _ = assign_clusters(*_terms([[0], [1]], sc, 0.7, 1000.0, 100.0), [0.0],
                                 sc.capacity, 0.3)
    assert edge_of.tolist() == [0, 0]


@given(st.lists(st.tuples(st.floats(0, 10000), st.floats(0, 10000),
                          st.floats(10, 500)), min_size=1, max_size=12),
       st.integers(1, 4))
def test_load_conservation(rows, m):
    sc = build_scenario([(x, y, 0, 1.0, b) for x, y, b in rows],
                        [(0.0, 0.0, 1e9), (9000.0, 9000.0, 1e9)])
    members = [[i for i in range(len(sc.sensors)) if i % m == j] for j in range(m)]
    _, loads = assign_clusters(*_terms(members, sc, 0.7, sc.physical.diag_m, 3600.0),
                               [0.0, 0.0], sc.capacity, 0.3)
    total = sum(b for _, _, b in rows) / 3600.0
    assert sum(loads.tolist()) == pytest.approx(total)


def test_repair_single_move_fixes_overload():
    sc = build_scenario(
        [(0.0, 0.0, 0, 1.0, 60.0), (10.0, 0.0, 0, 1.0, 50.0)],
        [(0.0, 0.0, 1.0), (1000.0, 0.0, 10.0)])
    _, demands, dist = _terms([[0], [1]], sc, 0.7, 1000.0, 100.0)
    # both clusters forced onto e0: 1.1 MIPS on a 1.0 MIPS edge
    edge_of, loads = repair_overload(np.array([0, 0]), demands, dist, [1.1, 0.0],
                                     sc.capacity, 0.3)
    # least-demand cluster (c1, 0.5) moves to the edge with slack
    assert edge_of.tolist() == [0, 1]
    assert loads.tolist() == pytest.approx([0.6, 0.5])
    assert not (loads > sc.capacity).any()


def test_repair_no_overload_is_identity():
    sc = build_scenario([(0.0, 0.0, 0, 1.0, 50.0)], [(0.0, 0.0, 10.0)])
    _, demands, dist = _terms([[0]], sc, 0.7, 1000.0, 100.0)
    edge_of, loads = repair_overload(np.array([0]), demands, dist, [0.5], sc.capacity, 0.3)
    assert edge_of.tolist() == [0]
    assert loads.tolist() == [0.5]


def test_repair_pigeonhole_failure():
    sc = build_scenario(
        [(0.0, 0.0, 0, 1.0, 100.0), (10.0, 0.0, 0, 1.0, 100.0)],
        [(0.0, 0.0, 1.0), (1000.0, 0.0, 1.0)])
    _, demands, dist = _terms([[0], [1]], sc, 0.7, 1000.0, 50.0)
    with pytest.raises(RepairFailure):   # total demand 4 > total cap 2
        repair_overload(np.array([0, 0]), demands, dist, [4.0, 0.0], sc.capacity, 0.3)


def test_edge_load_state_helpers():
    load = EdgeLoadState([5.0, 0.5], [10.0, 0.4])
    assert load.utilization(0) == 0.5
    assert load.utilization(1) == 1.25


def test_phase1_phase2_composition(default_scenario):
    """End-to-end conservation over the real pipeline inputs."""
    sc = default_scenario
    p = sc.physical
    uav_ids, direct_map, load0 = assign_direct(sc)
    assert sorted([*direct_map, *uav_ids.tolist()]) == list(range(len(sc.sensors)))

    m = 4
    members = [[i for k, i in enumerate(uav_ids.tolist()) if k % m == j] for j in range(m)]
    _, loads = assign_clusters(*_terms(members, sc, 0.7, p.diag_m, p.t_period_s),
                               load0.loads_mips, sc.capacity, 0.3)
    total = sum(s.request.compute_mi for s in sc.sensors) / p.t_period_s
    assert sum(loads.tolist()) == pytest.approx(total)


# three edges, the first two 4 km apart; sensors on x = 2000 are equally far
# from both, and sensors within 500 m of an edge are direct and load it
_EDGES = [(0.0, 0.0), (4000.0, 0.0), (2000.0, 4000.0)]
_POOL = [(2000.0, 0.0), (2000.0, 1500.0), (1000.0, 1000.0), (3000.0, 1000.0),
         (100.0, 100.0), (3900.0, 50.0)]


def _phase2_scenario(points, capacities):
    """(x, y, compute) sensors and the first edges, of these capacities."""
    return build_scenario([(x, y, 0, 1.0, b) for x, y, b in points],
                          [(x, y, c) for (x, y), c in zip(_EDGES, capacities)])


def _phase2_case(points, capacities, omega_l, m, genes):
    """A phase-2 case: the scenario, the load weight, the cluster count and
    a (P, n) population over the UAV-served sensors."""
    return (_phase2_scenario(points, capacities), omega_l, m,
            np.array(genes, dtype=int).reshape(len(genes), -1))


@st.composite
def _phase2_cases(draw):
    """Up to 10 sensors, some coincident, some direct, with demands of
    0.03-1 MIPS on 1-3 edges of equal or unequal capacity 0.05-1 MIPS, so
    scores tie and edges overload; m from 1 to 3n, so clusters and runs of
    them are empty; 1-4 rows."""
    coord = st.one_of(st.sampled_from(_POOL),
                      st.tuples(st.floats(0.0, 4000.0), st.floats(0.0, 4000.0)))
    xy = draw(st.lists(coord, min_size=1, max_size=14))
    beta = draw(st.lists(st.sampled_from([100.0, 360.0, 720.0, 3600.0]),
                         min_size=len(xy), max_size=len(xy)))
    caps = draw(st.lists(st.sampled_from([0.1, 1.0, 3.0]), min_size=1, max_size=3))
    points = [(x, y, b) for (x, y), b in zip(xy, beta)]
    n = len(assign_direct(_phase2_scenario(points, caps))[0])
    m = draw(st.integers(1, max(3 * n, 1)))
    rows = draw(st.integers(1, 4))
    genes = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                          min_size=rows, max_size=rows))
    return _phase2_case(points, caps, draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])), m, genes)


def _outcome(*args):
    """``repair_overload``'s edges and loads as lists, or its message."""
    try:
        edge_of, loads = repair_overload(*args)
    except RepairFailure as exc:
        return str(exc)
    return edge_of.tolist(), loads.tolist()


def _oracle_outcome(*args):
    """The same of ``repair_overload_oracle``."""
    try:
        cluster_map, load = repair_overload_oracle(*args)
    except RepairFailure as exc:
        return str(exc)
    return [cluster_map[j] for j in range(len(cluster_map))], load.loads_mips


@settings(max_examples=150, deadline=None)
@given(_phase2_cases())
# three coincident sensors equally far from two equal edges, clusters 0 and
# 8 of 9 used, so runs of empty clusters lie between and after them
@example(_phase2_case([(2000.0, 0.0, 360.0)] * 3, [1.0, 1.0], 0.3, 9, [[0, 0, 8]]))
# every edge overloaded by one sensor: the repair fails
@example(_phase2_case([(2000.0, 0.0, 3600.0), (2000.0, 1500.0, 3600.0)], [0.05, 0.05],
                      0.3, 2, [[0, 1], [1, 1]]))
# a direct sensor loads edge 0, so the repair moves a cluster off edge 1
@example(_phase2_case([(100.0, 100.0, 720.0), (3000.0, 1000.0, 360.0),
                       (2000.0, 1500.0, 360.0)], [1.0, 0.2], 0.7, 3, [[0, 1], [2, 2]]))
def test_phase2_kernel_equals_the_per_method_oracles(case):
    """One batch of the kernel gives every row the counts, upload sums,
    edges and loads of the GA/PSO population loop, and each row's labels
    alone, as size_fleet passes them, give the planner's Python score
    lists, before and after overload repair (also of every cluster put on
    edge 0): ``==`` throughout."""
    sc, omega_l, m, genes = case
    algo = AlgoParams(omega_l=omega_l)
    p = sc.physical
    ws = _Workspace(sc, algo)
    got = ws.assign(genes, m)
    want = assign_edges_oracle(ws, genes, m)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    _, _, edge_of, loads = got

    uav_ids, _, load0 = assign_direct(sc)
    beta, d_se = sc.beta_mi[uav_ids], edge_distances(sc, uav_ids)
    weights = (algo.omega_d, algo.omega_l, p.diag_m, p.t_period_s)
    for r, labels in enumerate(genes):
        (counts,), (demands,), (dist,) = cluster_terms(labels[None], m, beta, d_se,
                                                       algo.omega_d, p.diag_m, p.t_period_s)
        row_edges, row_loads = assign_clusters(counts, demands, dist, load0.loads_mips,
                                               sc.capacity, algo.omega_l)
        by_id = [uav_ids[labels == j] for j in range(m)]
        want_map, want_load = assign_clusters_oracle(by_id, sc, load0, *weights)
        assert (row_edges.tolist() == [want_map[j] for j in range(m)]
                == edge_of[r].tolist())
        assert row_loads.tolist() == want_load.loads_mips == loads[r].tolist()
        assert (_outcome(row_edges, demands, dist, row_loads, sc.capacity, algo.omega_l)
                == _oracle_outcome(want_map, by_id, sc, want_load, *weights))
        # every cluster on edge 0, so the repair has more to move
        forced = EdgeLoadState(list(load0.loads_mips), list(load0.capacities_mips))
        for ids in by_id:
            forced.loads_mips[0] += cluster_demand(sc.beta_mi[ids], p.t_period_s)
        assert (_outcome(np.zeros(m, dtype=int), demands, dist, forced.loads_mips,
                         sc.capacity, algo.omega_l)
                == _oracle_outcome(dict.fromkeys(range(m), 0), by_id, sc, forced, *weights))
