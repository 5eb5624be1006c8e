import itertools

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firewatch import clustering
from firewatch.clustering import (
    cluster_radius,
    init_centers,
    sensor_weight,
    weighted_kmeans,
)
from firewatch.edge_assignment import assign_direct
from testutil import (blob, build_scenario, coverage_improvement_check, members,
                      weighted_kmeans_oracle)

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


def _scenario(xy, hs=None):
    """The sensors at xy around one edge at the origin."""
    hs = hs if hs is not None else [0] * len(xy)
    return build_scenario([(x, y, h, 1.0, 100.0) for (x, y), h in zip(xy, hs)],
                          [(0.0, 0.0, 5000.0)])


def _all(sc):
    return np.arange(len(sc.sensors))


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
    sc = _scenario([(0, 0), (10, 10)])
    with pytest.raises(ValueError):
        weighted_kmeans(sc, _all(sc), 3, 1.5, 1.0, RNG())
    with pytest.raises(ValueError):
        weighted_kmeans(sc, _all(sc), 0, 1.5, 1.0, RNG())


def test_kmeans_single_cluster_closed_form():
    xy = [(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]
    hs = [0, 0, 20]
    sc = _scenario(xy, hs)
    out = weighted_kmeans(sc, _all(sc), 1, 1.5, 0.1, RNG())
    w = np.array([sensor_weight(h, 1.5) for h in hs])
    expect = (np.array(xy) * w[:, None]).sum(axis=0) / w.sum()
    np.testing.assert_allclose(out.centers[0], expect)
    assert members(out, 0) == [0, 1, 2]


def test_kmeans_equal_weights_match_unweighted():
    rng = RNG(5)
    xy = rng.uniform(0, 5000, size=(30, 2))
    sc = _scenario([tuple(p) for p in xy], hs=[4] * 30)
    init = xy[:3].copy()
    a = weighted_kmeans(sc, _all(sc), 3, 1.5, 1.0, RNG(),
                        initial_centers=init)
    b = weighted_kmeans(sc, _all(sc), 3, 0.0, 1.0, RNG(),
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
    sc = _scenario([tuple(p) for p in xy], hs)
    w = np.array([sensor_weight(h, 1.5) for h in hs])

    best_cost, best_labels = np.inf, None
    for bits in itertools.product([0, 1], repeat=8):
        labels = np.array(bits)
        cost = _weighted_sse(xy, w, labels, 2)
        if cost < best_cost:
            best_cost, best_labels = cost, labels

    init = np.array([[500.0, 500.0], [4500.0, 4500.0]])
    out = weighted_kmeans(sc, _all(sc), 2, 1.5, 0.5, RNG(),
                          initial_centers=init)
    got = [frozenset(members(out, 0)), frozenset(members(out, 1))]
    want = [frozenset(np.flatnonzero(best_labels == 0).tolist()),
            frozenset(np.flatnonzero(best_labels == 1).tolist())]
    assert sorted(got, key=min) == sorted(want, key=min)


def test_kmeans_two_far_groups_of_ten():
    rng = RNG(9)
    a = rng.uniform(0, 400, size=(10, 2))
    b = rng.uniform(0, 400, size=(10, 2)) + 8000.0
    sc = _scenario([tuple(p) for p in np.vstack([a, b])],
                       hs=list(rng.integers(0, 40, size=20)))
    init = np.array([[200.0, 200.0], [8200.0, 8200.0]])
    out = weighted_kmeans(sc, _all(sc), 2, 1.5, 0.5, RNG(),
                          initial_centers=init)
    assert members(out, 0) == list(range(10))
    assert members(out, 1) == list(range(10, 20))


def test_kmeans_centers_are_weighted_centroids_of_final_assignment():
    rng = RNG(13)
    xy = rng.uniform(0, 9000, size=(40, 2))
    hs = list(rng.integers(0, 60, size=40))
    sc = _scenario([tuple(p) for p in xy], hs)
    out = weighted_kmeans(sc, _all(sc), 4, 1.5, 0.5, RNG(),
                          initial_centers=xy[:4].copy())
    assert out.iterations_run < 300
    w = np.array([sensor_weight(h, 1.5) for h in hs])
    for j in range(4):
        ids = members(out, j)
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
    sc = _scenario(xy, hs=[0, 0, 20])
    init = np.array([[100.0, 500.0]])
    weighted = weighted_kmeans(sc, _all(sc), 1, 1.5, 0.01, RNG(),
                               initial_centers=init.copy())
    plain = weighted_kmeans(sc, _all(sc), 1, 0.0, 0.01, RNG(),
                            initial_centers=init.copy())
    d_w = abs(weighted.centers[0][0] - 200.0)
    d_u = abs(plain.centers[0][0] - 200.0)
    assert d_w < d_u


def test_kmeans_assignment_tie_prefers_lowest_center():
    sc = _scenario([(100.0, 0.0), (0.0, 0.0), (200.0, 0.0)])
    init = np.array([[0.0, 0.0], [200.0, 0.0]])
    out = weighted_kmeans(sc, _all(sc), 2, 1.5, 1e9, RNG(),
                          initial_centers=init)
    # sensor 0 is equidistant from both centers -> cluster 0
    assert out.assignment[0] == 0
    assert out.assignment[1] == 0
    assert out.assignment[2] == 1


def test_kmeans_reseeds_empty_cluster_at_farthest_sensor():
    xy = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (1000.0, 0.0)]
    sc = _scenario(xy)
    init = np.array([[0.0, 0.0], [0.0, 0.0]])   # duplicate centers -> one empties
    out = weighted_kmeans(sc, _all(sc), 2, 1.5, 1.0, RNG(),
                          initial_centers=init)
    assert members(out, 0) and members(out, 1)
    assert sorted(members(out, 0) + members(out, 1)) == [0, 1, 2, 3]
    lone = members(out, 0) if len(members(out, 0)) == 1 else members(out, 1)
    assert lone == [3]


def _coords(rng, k, kind):
    """k points on a 5 x 5 grid of spacing 250 m (sensors, edges and centers
    coincide and distances tie), uniform in 1 km (full mantissas, so the
    order of a centroid sum changes its last bits), or each either way."""
    grid = 250.0 * rng.integers(0, 5, size=(k, 2))
    uniform = rng.uniform(0.0, 1000.0, size=(k, 2))
    if kind == "mixed":
        return np.where(rng.random((k, 1)) < 0.5, grid, uniform)
    return grid if kind == "grid" else uniform


@st.composite
def _kmeans_inputs(draw):
    """A scenario of 1-40 sensors and 1-3 edges, a subset of its sensor ids,
    m, optional initial centers, omega_h, epsilon_m (0 never converges), a
    seed and a MAX_ITERS of 1-3 or the real one."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grid", "km", "mixed"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    hs = rng.choice([0, 0, 10, 51, 100], size=n) if kind == "grid" else rng.integers(0, 101, n)
    sc = build_scenario([(x, y, h, 1.0, 100.0) for (x, y), h in zip(_coords(rng, n, kind), hs)],
                        [(x, y, 5000.0) for x, y in _coords(rng, p, kind)])
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    m = draw(st.integers(1, len(ids)))
    init = _coords(rng, m, kind) if draw(st.booleans()) else None
    return (sc, sorted(ids), m, init,
            draw(st.sampled_from([0.0, 0.5, 1.5])), draw(st.sampled_from([0.0, 1.0, 1e9])),
            seed, draw(st.sampled_from([1, 2, 3, clustering.MAX_ITERS])))


def _both(sc, ids, m, init, omega_h, epsilon_m, seed, max_iters, seen=None):
    """weighted_kmeans and its oracle on the same inputs and seed."""
    with mock.patch.object(clustering, "MAX_ITERS", max_iters), \
            mock.patch("testutil.MAX_ITERS", max_iters):
        got = weighted_kmeans(sc, ids, m, omega_h, epsilon_m, RNG(seed),
                              initial_centers=init)
        want = weighted_kmeans_oracle(sc, ids, m, omega_h, epsilon_m, RNG(seed),
                                      initial_centers=init, seen=seen)
    return got, want


def _case(pts, edges, m, init=None, hs=None, epsilon_m=1.0, max_iters=clustering.MAX_ITERS):
    hs = hs if hs is not None else [0] * len(pts)
    sc = build_scenario([(x, y, h, 1.0, 100.0) for (x, y), h in zip(pts, hs)],
                        [(x, y, 5000.0) for x, y in edges])
    init = None if init is None else np.array(init, dtype=float)
    return sc, list(range(len(pts))), m, init, 1.5, epsilon_m, 0, max_iters


# inputs that reach each path of weighted_kmeans, with the paths they reach
_KMEANS_PATHS = {
    "reseed": (_case([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (1000.0, 0.0)], [(0.0, 0.0)], 2,
                     init=[(0.0, 0.0), (0.0, 0.0)]), {"reseed"}),
    "reseed-far-edge": (_case([(0.0, 0.0), (3.5, 1.25), (7.0, 2.0)],
                              [(0.0, 0.0), (900.0, 900.0)], 2), {"reseed"}),
    "max-iters": (_case([(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (500.0, 500.0)],
                        [(0.0, 0.0)], 2, hs=[0, 100, 10, 51], epsilon_m=0.0),
                  {"sensor-seeded", "max-iters"}),
    "sensor-seeded": (_case([(1.5, 2.0), (300.25, 0.0), (0.0, 300.75), (310.0, 5.0),
                             (2.0, 299.0)], [(0.0, 0.0)], 3, hs=[0, 100, 51, 0, 10]),
                      {"sensor-seeded"}),
    "tie": (_case([(100.0, 0.0), (0.0, 0.0), (200.0, 0.0)], [(0.0, 0.0)], 2,
                  init=[(0.0, 0.0), (200.0, 0.0)], epsilon_m=1e9), {"tie"}),
    # 30 sensors in one cluster: a sum taken in blocks, as np.sum does from
    # 8 terms on, rounds differently from one taken in index order
    "one-cluster": (_case(np.random.default_rng(9).uniform(0.0, 1000.0, (30, 2)).tolist(),
                          [(0.0, 0.0)], 1, hs=list(range(0, 90, 3))), set()),
    # every sensor at one point: the second center always ties with the
    # first, loses, empties and is reseeded, until MAX_ITERS ends on a
    # reseed round and one more assignment pass runs
    "coincident": (_case([(250.0, 250.0)] * 3, [(0.0, 0.0)], 2, hs=[0, 51, 51], max_iters=3),
                   {"sensor-seeded", "tie", "reseed", "max-iters", "final-pass"}),
}


@pytest.mark.parametrize("name", sorted(_KMEANS_PATHS))
def test_kmeans_matches_oracle_on_each_path(name):
    args, paths = _KMEANS_PATHS[name]
    seen = set()
    got, want = _both(*args, seen=seen)
    assert paths <= seen
    assert got == want


@settings(max_examples=100)
@given(_kmeans_inputs())
@example(_KMEANS_PATHS["coincident"][0])
@example(_KMEANS_PATHS["max-iters"][0])
def test_kmeans_matches_norm_oracle(args):
    """Column distances and bincount centroid sums give the assignment,
    centers and iteration count of the (n, m, 2) norm and np.add.at version,
    bit for bit."""
    got, want = _both(*args)
    assert got == want


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
    uav, direct_map, _ = assign_direct(default_scenario)
    assert len(uav) > len(direct_map)
