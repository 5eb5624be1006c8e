import itertools

import numpy as np
import pytest

from firewatch.clustering import (
    cluster_radius,
    coverage_improvement_check,
    init_centers,
    sensor_weight,
    weighted_kmeans,
)
from firewatch.model import partition_sensors
from testutil import blob, build_scenario

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


def _sensors(xy, hs=None, omega=1.5):
    hs = hs if hs is not None else [0] * len(xy)
    sc = build_scenario([(x, y, h, 1.0, 100.0) for (x, y), h in zip(xy, hs)],
                        [(0.0, 0.0, 5000.0)])
    return list(sc.sensors)


def test_sensor_weight_examples():
    assert sensor_weight(0, 1.5) == 1.0
    assert sensor_weight(10, 1.5) == 16.0
    assert sensor_weight(100, 0.0) == 1.0
    with pytest.raises(ValueError):
        sensor_weight(-1, 1.5)


def test_init_centers_m_leq_edges():
    edge_xy = np.array([[0.0, 0], [100, 0], [200, 0], [300, 0], [400, 0]])
    centers = init_centers(3, edge_xy, np.empty((0, 2)), np.array([]), RNG())
    assert centers.shape == (3, 2)
    rows = {tuple(c) for c in centers}
    assert len(rows) == 3
    assert rows <= {tuple(e) for e in edge_xy}


def test_init_centers_m_above_edges_takes_top_weight_sensors():
    edge_xy = np.array([[0.0, 0], [100, 0]])
    sensor_xy = np.array([[10.0, 1], [20, 2], [30, 3], [40, 4]])
    weights = np.array([1.0, 5.0, 9.0, 9.0])   # tie between ids 2 and 3
    centers = init_centers(4, edge_xy, sensor_xy, weights, RNG())
    assert centers.shape == (4, 2)
    np.testing.assert_allclose(centers[:2], edge_xy)
    np.testing.assert_allclose(centers[2:], sensor_xy[[2, 3]])


def test_init_centers_single_edge():
    edge_xy = np.array([[42.0, 7.0]])
    centers = init_centers(1, edge_xy, np.empty((0, 2)), np.array([]), RNG())
    np.testing.assert_allclose(centers, edge_xy)


def test_init_centers_not_enough_seed_points():
    with pytest.raises(ValueError):
        init_centers(5, np.zeros((1, 2)), np.zeros((2, 2)), np.ones(2), RNG())


def test_kmeans_m_validation():
    sensors = _sensors([(0, 0), (10, 10)])
    with pytest.raises(ValueError):
        weighted_kmeans(sensors, 3, np.zeros((1, 2)), 1.5, 1.0, RNG())
    with pytest.raises(ValueError):
        weighted_kmeans(sensors, 0, np.zeros((1, 2)), 1.5, 1.0, RNG())


def test_kmeans_single_cluster_closed_form():
    xy = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]
    hs = [0, 0, 20]
    sensors = _sensors(xy, hs)
    out = weighted_kmeans(sensors, 1, np.array([[0.0, 0.0]]), 1.5, 0.1, RNG())
    w = np.array([sensor_weight(h, 1.5) for h in hs])
    expect = (np.array(xy) * w[:, None]).sum(axis=0) / w.sum()
    np.testing.assert_allclose(out.centers[0], expect)
    assert out.members(0) == [0, 1, 2]


def test_kmeans_equal_weights_match_unweighted():
    rng = RNG(5)
    xy = rng.uniform(0, 5000, size=(30, 2))
    sensors = _sensors([tuple(p) for p in xy], hs=[4] * 30)
    init = xy[:3].copy()
    a = weighted_kmeans(sensors, 3, np.zeros((1, 2)), 1.5, 1.0, RNG(),
                        initial_centers=init)
    b = weighted_kmeans(sensors, 3, np.zeros((1, 2)), 0.0, 1.0, RNG(),
                        initial_centers=init)
    assert a.assignment == b.assignment
    np.testing.assert_allclose(a.centers, b.centers)


def _weighted_sse(xy, w, labels, m):
    """Within-cluster cost sum(w * d^2) with weighted-centroid centers."""
    cost = 0.0
    for j in range(m):
        mask = labels == j
        if not mask.any():
            return np.inf   # empty cluster never optimal here
        c = (xy[mask] * w[mask, None]).sum(axis=0) / w[mask].sum()
        cost += float((w[mask] * ((xy[mask] - c) ** 2).sum(axis=1)).sum())
    return cost


def test_kmeans_two_groups_match_exhaustive_enumeration():
    # two tight far-apart groups; enumerate all 2^8 labelings for the optimum
    xy = np.array(blob((500, 500), [(0, 0), (30, 10), (-20, 25), (15, -30)])
                  + blob((4500, 4500), [(0, 0), (25, -15), (-30, 5), (10, 20)]),
                  dtype=float)
    hs = [3, 0, 7, 0, 0, 12, 0, 2]
    sensors = _sensors([tuple(p) for p in xy], hs)
    w = np.array([sensor_weight(h, 1.5) for h in hs])

    best_cost, best_labels = np.inf, None
    for bits in itertools.product([0, 1], repeat=8):
        labels = np.array(bits)
        cost = _weighted_sse(xy, w, labels, 2)
        if cost < best_cost:
            best_cost, best_labels = cost, labels

    init = np.array([[500.0, 500.0], [4500.0, 4500.0]])
    out = weighted_kmeans(sensors, 2, np.zeros((1, 2)), 1.5, 0.5, RNG(),
                          initial_centers=init)
    got = [frozenset(out.members(0)), frozenset(out.members(1))]
    want = [frozenset(np.flatnonzero(best_labels == 0).tolist()),
            frozenset(np.flatnonzero(best_labels == 1).tolist())]
    assert sorted(got, key=min) == sorted(want, key=min)


def test_kmeans_two_far_groups_of_ten():
    rng = RNG(9)
    a = rng.uniform(0, 400, size=(10, 2))
    b = rng.uniform(0, 400, size=(10, 2)) + 8000.0
    sensors = _sensors([tuple(p) for p in np.vstack([a, b])],
                       hs=list(rng.integers(0, 40, size=20)))
    init = np.array([[200.0, 200.0], [8200.0, 8200.0]])
    out = weighted_kmeans(sensors, 2, np.zeros((1, 2)), 1.5, 0.5, RNG(),
                          initial_centers=init)
    assert out.members(0) == list(range(10))
    assert out.members(1) == list(range(10, 20))


def test_kmeans_centers_are_weighted_centroids_of_final_assignment():
    rng = RNG(13)
    xy = rng.uniform(0, 9000, size=(40, 2))
    hs = list(rng.integers(0, 60, size=40))
    sensors = _sensors([tuple(p) for p in xy], hs)
    out = weighted_kmeans(sensors, 4, xy[:4].copy(), 1.5, 0.5, RNG(),
                          initial_centers=xy[:4].copy())
    assert out.iterations_run < 300
    w = np.array([sensor_weight(h, 1.5) for h in hs])
    for j in range(4):
        ids = out.members(j)
        assert ids, "no empty cluster may be returned"
        c = (xy[ids] * w[ids, None]).sum(axis=0) / w[ids].sum()
        np.testing.assert_allclose(out.centers[j], c, atol=1e-9)
        # the weighted centroid minimizes sum(w d^2): any nudge costs more
        base = float((w[ids] * ((xy[ids] - c) ** 2).sum(axis=1)).sum())
        for d in rng.uniform(-200, 200, size=(5, 2)):
            moved = float((w[ids] * ((xy[ids] - (c + d)) ** 2).sum(axis=1)).sum())
            assert moved >= base - 1e-9


def test_kmeans_high_risk_pull_1d():
    xy = [(0.0, 500.0), (100.0, 500.0), (200.0, 500.0)]
    sensors = _sensors(xy, hs=[0, 0, 20])
    init = np.array([[100.0, 500.0]])
    weighted = weighted_kmeans(sensors, 1, np.zeros((1, 2)), 1.5, 0.01, RNG(),
                               initial_centers=init.copy())
    plain = weighted_kmeans(sensors, 1, np.zeros((1, 2)), 0.0, 0.01, RNG(),
                            initial_centers=init.copy())
    d_w = abs(weighted.centers[0][0] - 200.0)
    d_u = abs(plain.centers[0][0] - 200.0)
    assert d_w < d_u


def test_kmeans_assignment_tie_prefers_lowest_center():
    sensors = _sensors([(100.0, 0.0), (0.0, 0.0), (200.0, 0.0)])
    init = np.array([[0.0, 0.0], [200.0, 0.0]])
    out = weighted_kmeans(sensors, 2, np.zeros((1, 2)), 1.5, 1e9, RNG(),
                          initial_centers=init)
    # sensor 0 is equidistant from both centers -> cluster 0
    assert out.assignment[0] == 0
    assert out.assignment[1] == 0
    assert out.assignment[2] == 1


def test_kmeans_reseeds_empty_cluster_at_farthest_sensor():
    xy = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (1000.0, 0.0)]
    sensors = _sensors(xy)
    init = np.array([[0.0, 0.0], [0.0, 0.0]])   # duplicate centers -> one empties
    out = weighted_kmeans(sensors, 2, np.zeros((1, 2)), 1.5, 1.0, RNG(),
                          initial_centers=init)
    assert out.members(0) and out.members(1)
    assert sorted(out.members(0) + out.members(1)) == [0, 1, 2, 3]
    lone = out.members(0) if len(out.members(0)) == 1 else out.members(1)
    assert lone == [3]


def test_cluster_radius_examples():
    center = (0.0, 0.0)
    assert cluster_radius(np.empty((0, 2)), center) == 0.0
    assert cluster_radius(np.array([[0.0, 0.0]]), center) == 0.0
    xy = np.array([[100.0, 0.0], [0.0, 250.0], [80.0, 0.0]])
    assert cluster_radius(xy, center) == 250.0
    assert cluster_radius(np.array([[5.0, 5.0]] * 4), (5.0, 5.0)) == 0.0


def _uav_only_scenario(xy, hs):
    # single edge tucked in a corner, out of direct range of every sensor
    return build_scenario([(x, y, h, 1.0, 100.0) for (x, y), h in zip(xy, hs)],
                          [(0.0, 9900.0, 5000.0)])


def test_coverage_check_all_equal_history_factor_one():
    rng = RNG(3)
    xy = [tuple(p) for p in rng.uniform(1500, 8500, size=(24, 2))]
    sc = _uav_only_scenario(xy, [60] * 24)
    res = coverage_improvement_check(sc, 3, 1.5, [0])
    assert res.factor == pytest.approx(1.0)
    assert res.holds
    assert res.lhs_m == pytest.approx(res.rhs_m)
    assert res.weighted_mean_distance_m == pytest.approx(res.unweighted_mean_distance_m)


def test_coverage_check_factor_arithmetic():
    xy = [(3000.0, 3000.0), (7000.0, 7000.0), (2000.0, 6500.0),
          (5500.0, 2000.0), (4500.0, 5200.0), (6500.0, 4000.0)]
    hs = [60, 180, 0, 0, 0, 0]
    sc = _uav_only_scenario(xy, hs)
    res = coverage_improvement_check(sc, 2, 0.5, [0])
    # weights 31 and 91 over the high-risk pair, w_max 91
    assert res.factor == pytest.approx(2.0 / (1.0 + (31.0 + 91.0) / 2.0 / 91.0))


def test_coverage_check_requires_high_risk_sensors():
    rng = RNG(4)
    xy = [tuple(p) for p in rng.uniform(1500, 8500, size=(10, 2))]
    sc = _uav_only_scenario(xy, [5] * 10)
    with pytest.raises(ValueError, match="high-risk"):
        coverage_improvement_check(sc, 2, 1.5, [0])


def test_coverage_check_default_scenario_holds(default_scenario):
    res = coverage_improvement_check(default_scenario, 3, 1.5, [0])
    assert res.holds
    assert 1.0 < res.factor < 2.0
    assert res.weighted_mean_distance_m < res.unweighted_mean_distance_m


def test_partition_feeds_clustering(default_scenario):
    # sanity: the default scenario leaves most sensors to the UAV side
    direct, uav = partition_sensors(default_scenario.sensors,
                                    default_scenario.edges,
                                    default_scenario.physical)
    assert len(uav) > len(direct)
