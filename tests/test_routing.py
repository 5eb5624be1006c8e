import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from firewatch.model import PhysicalParams
from firewatch.routing import (
    _BLOCK,
    _IMPROVE_EPS,
    build_route,
    nearest_neighbor_tour,
    route_energy,
    tour_length,
    tour_lower_bound,
    two_opt,
)
from testutil import brute_force_tour_optimum, build_scenario, nearest_neighbor_tour_oracle


def test_tour_length_square():
    xy = np.array([[10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    assert tour_length((0.0, 0.0), xy) == pytest.approx(40.0)
    assert tour_length((0.0, 0.0), np.empty((0, 2))) == 0.0


def test_nn_empty_and_collinear():
    assert nearest_neighbor_tour((0.0, 0.0), np.empty((0, 2))) == []
    xy = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assert nearest_neighbor_tour((0.0, 0.0), xy) == [1, 0, 2]


def test_nn_prefers_euclidean_not_axis():
    xy = np.array([[1.0, 0.0], [0.9, 5.0]])
    assert nearest_neighbor_tour((0.0, 0.0), xy) == [0, 1]


def test_nn_tie_prefers_lowest_index():
    xy = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 30.0]])
    order = nearest_neighbor_tour((0.0, 0.0), xy)
    assert order[0] == 0


def test_two_opt_uncrosses_square():
    # crossing tour (0,0)->(10,10)->(10,0)->(0,10): 48.28 -> perimeter 40
    xy = np.array([[10.0, 10.0], [10.0, 0.0], [0.0, 10.0]])
    crossing = [0, 1, 2]
    before = tour_length((0.0, 0.0), xy[crossing])
    assert before == pytest.approx(20.0 + 2.0 * math.hypot(10, 10), abs=1e-9)
    after = two_opt((0.0, 0.0), xy, crossing)
    assert tour_length((0.0, 0.0), xy[after]) == pytest.approx(40.0, abs=1e-9)
    assert sorted(after) == [0, 1, 2]


def test_two_opt_leaves_convex_tour_alone():
    # perimeter order of a convex polygon admits no improving swap
    xy = np.array([[10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    assert two_opt((0.0, 0.0), xy, [0, 1, 2]) == [0, 1, 2]


def test_two_opt_never_lengthens_and_is_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        xy = rng.uniform(0, 1000, size=(n, 2))
        depot = tuple(rng.uniform(0, 1000, size=2))
        nn = nearest_neighbor_tour(depot, xy)
        once = two_opt(depot, xy, nn)
        assert tour_length(depot, xy[once]) <= tour_length(depot, xy[nn]) + 1e-9
        assert two_opt(depot, xy, once) == once


def test_two_opt_brute_force_oracle():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        xy = rng.uniform(0, 1000, size=(n, 2))
        depot = tuple(rng.uniform(0, 1000, size=2))
        nn = nearest_neighbor_tour(depot, xy)
        improved = two_opt(depot, xy, nn)
        opt = brute_force_tour_optimum(depot, xy)
        got = tour_length(depot, xy[improved])
        assert opt - 1e-6 <= got <= tour_length(depot, xy[nn]) + 1e-9


def test_brute_force_oracle_equals_a_tour_length_loop():
    """The batched oracle scores every kept permutation with tour_length's
    arithmetic, so it equals the loop's minimum exactly, not approximately."""
    rng = np.random.default_rng(33)
    for n in range(2, 9):
        for _ in range(3):
            xy = rng.uniform(0, 1000, size=(n, 2))
            depot = tuple(rng.uniform(0, 1000, size=2))
            loop = min(tour_length(depot, xy[list(p)])
                       for p in itertools.permutations(range(n)) if p[0] < p[-1])
            assert brute_force_tour_optimum(depot, xy) == loop


# coordinates on a coarse grid half the time, so points and the depot often
# coincide; otherwise at micrometre resolution, so distinct points are never
# so close that their squared distance underflows to zero
_coord = st.one_of(st.integers(0, 4).map(lambda v: 250.0 * v),
                   st.floats(0.0, 1000.0).map(lambda v: round(v, 6)))
_point = st.tuples(_coord, _coord)


def _xy(points):
    return np.array(points, dtype=float).reshape(len(points), 2)


def _dense_mst(depot, xy):
    # csgraph reads a zero distance as "no edge"; coincident points join at
    # zero cost, so spanning one copy of each spans them all
    pts = np.unique(np.vstack([np.asarray(depot, dtype=float), xy]), axis=0)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return float(minimum_spanning_tree(d).sum())


def test_tour_lower_bound_examples():
    assert tour_lower_bound((0.0, 0.0), np.empty((0, 2))) == 0.0
    assert tour_lower_bound((0.0, 0.0), _xy([(3.0, 4.0)])) == 5.0
    assert tour_lower_bound((0.0, 0.0), _xy([(3.0, 4.0), (3.0, 4.0)])) == 5.0
    # square with the depot at a corner: three sides
    assert tour_lower_bound((0.0, 0.0), _xy([(10.0, 0.0), (10.0, 10.0),
                                             (0.0, 10.0)])) == 30.0


@given(_point, st.lists(_point, max_size=7))
def test_tour_lower_bound_below_optimum(depot, points):
    xy = _xy(points)
    assert tour_lower_bound(depot, xy) <= brute_force_tour_optimum(depot, xy) + 1e-9


@given(_point, st.lists(_point, max_size=30))
def test_tour_lower_bound_below_two_opt_tour(depot, points):
    xy = _xy(points)
    order = two_opt(depot, xy, nearest_neighbor_tour(depot, xy))
    assert tour_lower_bound(depot, xy) <= tour_length(depot, xy[order]) + 1e-9


@given(_point, st.lists(_point, max_size=40))
def test_tour_lower_bound_equals_dense_mst(depot, points):
    xy = _xy(points)
    assert tour_lower_bound(depot, xy) == pytest.approx(_dense_mst(depot, xy),
                                                        rel=1e-12, abs=1e-9)


def _two_opt_oracle(depot_xy, xy, order):
    """The row-by-row first-improvement scan that two_opt's block scan must
    reproduce move for move."""
    if len(order) < 2:
        return list(order)
    pts = np.vstack([np.asarray(depot_xy, dtype=float),
                     np.asarray(xy, dtype=float)[order]])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    n = len(pts)
    tour = np.arange(n)
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            a, b = tour[i - 1], tour[i]
            ks = np.arange(i + 1, n)
            if i == 1 and ks[-1] == n - 1:
                ks = ks[:-1]
                if ks.size == 0:
                    continue
            c = tour[ks]
            d_next = tour[(ks + 1) % n]
            delta = dist[a, c] + dist[b, d_next] - dist[a, b] - dist[c, d_next]
            hit = np.flatnonzero(delta < -_IMPROVE_EPS)
            if hit.size:
                k = int(ks[hit[0]])
                tour[i:k + 1] = tour[i:k + 1][::-1]
                improved = True
                break
    return [order[t - 1] for t in tour[1:]]


def _tour_lower_bound_oracle(depot_xy, xy):
    """Prim over shrinking vectors, one np.delete per step: the pick order and
    the running sum tour_lower_bound must reproduce bit for bit."""
    rest = np.asarray(xy, dtype=float).reshape(-1, 2)
    if len(rest) == 0:
        return 0.0
    to_tree = np.linalg.norm(rest - np.asarray(depot_xy, dtype=float), axis=1)
    total = 0.0
    while len(rest):
        pick = int(np.argmin(to_tree))
        total += float(to_tree[pick])
        cur = rest[pick]
        rest = np.delete(rest, pick, axis=0)
        to_tree = np.minimum(np.delete(to_tree, pick),
                             np.linalg.norm(rest - cur, axis=1))
    return total


def _points(n, seed, kind):
    """The depot and n points: on a 20 x 20 grid of spacing 50 m (points and
    the depot coincide and distances tie, so which tied point is taken first
    changes the order of a sum), uniform in 1 km, or uniform in 1e9 m, where
    the rounding of a zero delta can fall below -_IMPROVE_EPS."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        pts = 50.0 * rng.integers(0, 20, size=(n + 1, 2))
    else:
        pts = rng.uniform(0.0, 1e3 if kind == "km" else 1e9, size=(n + 1, 2))
    return tuple(pts[0].tolist()), pts[1:]


_kinds = st.sampled_from(["grid", "km", "huge"])


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1), _kinds, st.booleans())
@example(0, 0, "km", False)
@example(1, 0, "km", False)
@example(2, 49, "huge", True)
@example(3, 0, "grid", True)
@example(2 * _BLOCK + 9, 1, "km", True)
@example(2 * _BLOCK + 9, 2, "grid", True)
def test_two_opt_matches_row_by_row_oracle(n, seed, kind, shuffled):
    depot, xy = _points(n, seed, kind)
    if shuffled:
        order = np.random.default_rng(seed).permutation(n).tolist()
    else:
        order = nearest_neighbor_tour(depot, xy)
    assert two_opt(depot, xy, order) == _two_opt_oracle(depot, xy, order)


def test_two_opt_finds_a_move_past_the_second_block():
    # the depot and 2 * _BLOCK + 20 points on a circle, visited in angular
    # order except for one adjacent pair swapped deep in the third block:
    # the only crossing, so the only improving moves have i > 2 * _BLOCK
    n = 2 * _BLOCK + 20
    ang = 2.0 * np.pi * np.arange(n + 1) / (n + 1)
    pts = 1000.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    depot, xy = tuple(pts[0].tolist()), pts[1:]
    order = list(range(n))
    p = 2 * _BLOCK + 10
    order[p], order[p + 1] = order[p + 1], order[p]
    assert two_opt(depot, xy, order) == _two_opt_oracle(depot, xy, order) == list(range(n))


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1), _kinds)
@example(0, 0, "km")
@example(1, 0, "grid")
@example(3, 0, "grid")
@example(13, 16, "grid")
def test_tour_lower_bound_matches_prim_oracle(n, seed, kind):
    depot, xy = _points(n, seed, kind)
    assert tour_lower_bound(depot, xy) == _tour_lower_bound_oracle(depot, xy)


@given(_point, st.lists(_point, max_size=40))
@example((0.0, 0.0), [(250.0, 0.0), (-250.0, 0.0), (0.0, 250.0), (250.0, 0.0)])
@example((250.0, 250.0), [(250.0, 250.0)] * 3)
# squared distances differ in the last bit but their square roots tie, so
# the lower index wins only when the square root is taken
@example((0.0, 0.0), [(959.5403937895036, 0.0), (144.159613, 948.649447)])
def test_nearest_neighbor_tour_matches_norm_oracle(depot, points):
    """Column distances with visited points at x = inf give the visit order
    of the per-step norm with a visited mask, tied and coincident points
    included."""
    xy = _xy(points)
    assert nearest_neighbor_tour(depot, xy) == nearest_neighbor_tour_oracle(depot, xy)


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1), _kinds)
@example(0, 0, "km")
@example(13, 16, "grid")
def test_nearest_neighbor_tour_matches_oracle_on_larger_sets(n, seed, kind):
    depot, xy = _points(n, seed, kind)
    assert nearest_neighbor_tour(depot, xy) == nearest_neighbor_tour_oracle(depot, xy)


def test_route_energy_examples():
    p = PhysicalParams()
    assert route_energy(27000.0, [], p) == pytest.approx(50.0)
    comm_only = route_energy(0.0, [4.0] * 10, p)
    assert comm_only == pytest.approx(5.0 * (320.0 / 10.0) / 3600.0)  # 0.0444 Wh
    assert route_energy(0.0, [], p) == 0.0
    with pytest.raises(ValueError):
        route_energy(-1.0, [], p)


@given(st.floats(0, 1e6), st.floats(0, 1e6),
       st.lists(st.floats(0.1, 10), max_size=8))
def test_route_energy_monotone(l1, l2, alphas):
    p = PhysicalParams()
    lo, hi = sorted([l1, l2])
    assert route_energy(lo, alphas, p) <= route_energy(hi, alphas, p) + 1e-12
    assert route_energy(lo, alphas, p) <= route_energy(lo, alphas + [1.0], p)


def test_build_route_fields_consistent():
    sc = build_scenario(
        [(1000.0, 0.0, 0, 2.0, 100.0), (1500.0, 300.0, 0, 3.0, 100.0),
         (2000.0, -200.0, 0, 1.0, 100.0)],
        [(0.0, 0.0, 5000.0)])
    p = sc.physical
    r = build_route(0, 0, [0, 1, 2], sc)
    assert set(r.waypoints) == {0, 1, 2}
    assert r.revisit_s * p.v_g == pytest.approx(r.length_m, rel=1e-12)
    assert r.energy_wh == pytest.approx(route_energy(r.length_m, [2.0, 3.0, 1.0], p))
    # stored length matches re-derived geometry
    xy = np.array([[sc.sensors[i].pos.x, sc.sensors[i].pos.y] for i in r.waypoints])
    assert r.length_m == pytest.approx(tour_length((0.0, 0.0), xy))


def test_build_route_empty_members():
    sc = build_scenario([(0.0, 0.0, 0, 1.0, 100.0)],
                        [(0.0, 0.0, 5000.0), (5.0, 5.0, 5000.0)])
    r = build_route(3, 1, [], sc)
    assert r.waypoints == ()
    assert r.length_m == 0.0 and r.revisit_s == 0.0 and r.energy_wh == 0.0


def test_build_route_two_opt_no_worse_than_nn():
    rng = np.random.default_rng(30)
    xy = rng.uniform(0, 5000, size=(12, 2))
    sc = build_scenario([(x, y, 0, 1.0, 100.0) for x, y in xy],
                        [(2500.0, 2500.0, 5000.0)])
    ids = np.arange(len(sc.sensors))
    with_opt = build_route(0, 0, ids, sc, use_two_opt=True)
    without = build_route(0, 0, ids, sc, use_two_opt=False)
    assert with_opt.length_m <= without.length_m + 1e-9
