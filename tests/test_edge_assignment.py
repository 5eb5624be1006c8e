import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from firewatch.edge_assignment import (
    EdgeLoadState,
    RepairFailure,
    assign_clusters,
    assign_direct,
    cluster_demand,
    repair_overload,
)
from firewatch.model import PhysicalParams
from testutil import build_scenario, phase1_oracle


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
    """The one-pass columnar phase 1 gives the UAV-served ids, direct map
    and loads of the partition-then-assign passes over the objects, with
    ``==`` on every load."""
    uav_ids, direct_map, load = assign_direct(sc)
    want_uav, want_map, want_loads = phase1_oracle(sc)
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


def test_assign_clusters_hand_computed_scores():
    sc = _cluster_scenario()
    members = [[0, 1]]                             # dbar: e0 250, e1 750
    load0 = EdgeLoadState([0.0, 0.0], [10.0, 10.0])
    cmap, load = assign_clusters(members, sc, load0,
                                 0.7, 0.3, 1000.0, 100.0)
    demand = 100.0 / 100.0
    s0 = 0.7 * 250.0 / 1000.0 + 0.3 * (0.0 + demand) / 10.0
    s1 = 0.7 * 750.0 / 1000.0 + 0.3 * (0.0 + demand) / 10.0
    assert s0 == pytest.approx(0.205) and s1 == pytest.approx(0.555)
    assert cmap == {0: 0}
    assert load.loads_mips == pytest.approx([demand, 0.0])


def test_assign_clusters_pure_distance_and_pure_load():
    sc = _cluster_scenario()
    near_e0 = [[0]]
    load0 = EdgeLoadState([0.0, 0.0], [10.0, 10.0])
    cmap, _ = assign_clusters(near_e0, sc, load0, 1.0, 0.0, 1000.0, 100.0)
    assert cmap == {0: 0}

    # omega_d = 0: utilization-after 0.9 on e0 vs 0.2 on e1 -> e1
    load0 = EdgeLoadState([8.0, 1.0], [10.0, 10.0])
    cmap, _ = assign_clusters(near_e0, sc, load0, 0.0, 1.0, 1000.0, 100.0)
    assert cmap == {0: 1}


def test_assign_clusters_tie_prefers_lowest_edge():
    sc = _cluster_scenario()
    centered = [[1]]                               # 500 m from both edges
    load0 = EdgeLoadState([0.0, 0.0], [10.0, 10.0])
    cmap, _ = assign_clusters(centered, sc, load0, 0.7, 0.3, 1000.0, 100.0)
    assert cmap == {0: 0}


def test_assign_clusters_sequential_load_coupling():
    sc = _cluster_scenario()
    clusters = [[1], [1]]                          # identical demands and dbar
    load0 = EdgeLoadState([0.0, 0.0], [1.2, 1.0])
    cmap, load = assign_clusters(clusters, sc, load0, 0.0, 1.0, 1000.0, 50.0)
    # each demand = 1.0; after c0 takes e0, e1 scores lower for c1
    assert cmap == {0: 0, 1: 1}
    assert load.loads_mips == pytest.approx([1.0, 1.0])


def test_single_edge_takes_everything():
    sc = build_scenario([(0.0, 0.0, 0, 1.0, 50.0), (900.0, 900.0, 0, 1.0, 70.0)],
                        [(5000.0, 5000.0, 10.0)])
    members = [[0], [1]]
    load0 = EdgeLoadState([0.0], [10.0])
    cmap, _ = assign_clusters(members, sc, load0, 0.7, 0.3, 1000.0, 100.0)
    assert cmap == {0: 0, 1: 0}


@given(st.lists(st.tuples(st.floats(0, 10000), st.floats(0, 10000),
                          st.floats(10, 500)), min_size=1, max_size=12),
       st.integers(1, 4))
def test_load_conservation(rows, m):
    sc = build_scenario([(x, y, 0, 1.0, b) for x, y, b in rows],
                        [(0.0, 0.0, 1e9), (9000.0, 9000.0, 1e9)])
    members = [[i for i in range(len(sc.sensors)) if i % m == j] for j in range(m)]
    load0 = EdgeLoadState([0.0, 0.0], [1e9, 1e9])
    _, load = assign_clusters(members, sc, load0, 0.7, 0.3,
                              sc.physical.diag_m, 3600.0)
    total = sum(b for _, _, b in rows) / 3600.0
    assert sum(load.loads_mips) == pytest.approx(total)


def test_repair_single_move_fixes_overload():
    sc = build_scenario(
        [(0.0, 0.0, 0, 1.0, 60.0), (10.0, 0.0, 0, 1.0, 50.0)],
        [(0.0, 0.0, 1.0), (1000.0, 0.0, 10.0)])
    members = [[0], [1]]
    # both clusters forced onto e0: 1.1 MIPS on a 1.0 MIPS edge
    load = EdgeLoadState([1.1, 0.0], [1.0, 10.0])
    cmap, fixed = repair_overload({0: 0, 1: 0}, members, sc, load,
                                  0.7, 0.3, 1000.0, 100.0)
    # least-demand cluster (c1, 0.5) moves to the edge with slack
    assert cmap == {0: 0, 1: 1}
    assert fixed.loads_mips == pytest.approx([0.6, 0.5])
    assert not fixed.overloaded()


def test_repair_no_overload_is_identity():
    sc = build_scenario([(0.0, 0.0, 0, 1.0, 50.0)], [(0.0, 0.0, 10.0)])
    members = [[0]]
    load = EdgeLoadState([0.5], [10.0])
    cmap, out = repair_overload({0: 0}, members, sc, load,
                                0.7, 0.3, 1000.0, 100.0)
    assert cmap == {0: 0}
    assert out.loads_mips == [0.5]


def test_repair_pigeonhole_failure():
    sc = build_scenario(
        [(0.0, 0.0, 0, 1.0, 100.0), (10.0, 0.0, 0, 1.0, 100.0)],
        [(0.0, 0.0, 1.0), (1000.0, 0.0, 1.0)])
    members = [[0], [1]]
    load = EdgeLoadState([4.0, 0.0], [1.0, 1.0])   # total demand 4 > total cap 2
    with pytest.raises(RepairFailure):
        repair_overload({0: 0, 1: 0}, members, sc, load,
                        0.7, 0.3, 1000.0, 50.0)


def test_edge_load_state_helpers():
    load = EdgeLoadState([5.0, 0.5], [10.0, 0.4])
    assert load.utilization(0) == 0.5
    assert load.overloaded() == [1]
    dup = load.copy()
    dup.loads_mips[0] = 9.0
    assert load.loads_mips[0] == 5.0


def test_phase1_phase2_composition(default_scenario):
    """End-to-end conservation over the real pipeline inputs."""
    sc = default_scenario
    p = sc.physical
    uav_ids, direct_map, load0 = assign_direct(sc)
    assert sorted([*direct_map, *uav_ids.tolist()]) == list(range(len(sc.sensors)))

    m = 4
    members = [[i for k, i in enumerate(uav_ids.tolist()) if k % m == j] for j in range(m)]
    _, load = assign_clusters(members, sc, load0, 0.7, 0.3,
                              p.diag_m, p.t_period_s)
    total = sum(s.request.compute_mi for s in sc.sensors) / p.t_period_s
    assert sum(load.loads_mips) == pytest.approx(total)
