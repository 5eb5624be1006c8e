import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from firewatch import routing
from firewatch.model import PhysicalParams, distance_matrix
from firewatch.routing import (
    _BLOCK,
    _FIRST_BLOCK,
    _IMPROVE_EPS,
    build_route,
    nearest_neighbor_tour,
    route_energy,
    tour_length,
    tour_lower_bound,
    two_opt,
)
from testutil import (brute_force_tour_optimum, build_scenario, nearest_neighbor_column_oracle,
                      nearest_neighbor_tour_oracle, norm_tour_lower_bound)


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


def _merged_depot_mst(depots, xy):
    """The minimum spanning tree over the points and one node standing for
    every depot, each point's distance to it the nearest depot's."""
    d = np.zeros((len(xy) + 1, len(xy) + 1))
    d[1:, 1:] = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)
    d[0, 1:] = d[1:, 0] = np.linalg.norm(xy[:, None, :] - depots[None, :, :],
                                         axis=2).min(axis=1, initial=np.inf)
    # csgraph reads (near-)zero as "no edge", so every edge is lengthened by
    # 1 m: each spanning tree has len(xy) edges, so the same tree is minimal
    off = ~np.eye(len(d), dtype=bool)
    d[off] += 1.0
    return float(minimum_spanning_tree(d).sum()) - len(xy)


def test_tour_lower_bound_examples():
    assert tour_lower_bound((0.0, 0.0), np.empty((0, 2))) == 0.0
    assert tour_lower_bound((0.0, 0.0), _xy([(3.0, 4.0)])) == 5.0
    assert tour_lower_bound((0.0, 0.0), _xy([(3.0, 4.0), (3.0, 4.0)])) == 5.0
    # square with the depot at a corner: three sides
    assert tour_lower_bound((0.0, 0.0), _xy([(10.0, 0.0), (10.0, 10.0),
                                             (0.0, 10.0)])) == 30.0


def test_tour_lower_bound_two_depot_examples():
    depots = np.array([[0.0, 0.0], [100.0, 0.0]])
    assert tour_lower_bound(depots, np.empty((0, 2))) == 0.0
    # each point joins the tree at its nearest depot
    assert tour_lower_bound(depots, _xy([(90.0, 0.0)])) == 10.0
    assert tour_lower_bound(depots, _xy([(3.0, 4.0), (103.0, 4.0)])) == 10.0
    assert tour_lower_bound(depots, _xy([(100.0, 0.0), (103.0, 4.0)])) == 5.0
    # the square of the one-depot example, a far depot changing nothing
    square = _xy([(10.0, 0.0), (10.0, 10.0), (0.0, 10.0)])
    assert tour_lower_bound([[0.0, 0.0], [1e4, 1e4]], square) == 30.0
    # depots in the order given or reversed: the same tree
    pts = _xy([(30.0, 40.0), (130.0, 40.0), (100.0, -50.0)])
    assert tour_lower_bound(depots, pts) == tour_lower_bound(depots[::-1], pts) == 150.0


@given(st.lists(_point, min_size=1, max_size=3), st.lists(_point, max_size=40))
def test_multi_depot_bound_equals_merged_depot_mst(depots, points):
    xy, depots = _xy(points), _xy(depots)
    assert tour_lower_bound(depots, xy) == pytest.approx(
        _merged_depot_mst(depots, xy), rel=1e-12, abs=1e-9)


@given(st.lists(_point, min_size=1, max_size=3), st.lists(_point, max_size=7))
def test_multi_depot_bound_below_split_tours(depots, points):
    """Any split of the points into one closed tour per depot is at least
    the bound in total, the tours taken at their optimum."""
    xy, depots = _xy(points), _xy(depots)
    labels = np.arange(len(xy)) % len(depots)
    total = sum(brute_force_tour_optimum(depots[k], xy[labels == k])
                for k in range(len(depots)))
    assert tour_lower_bound(depots, xy) <= total + 1e-9


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


def _block_starts(start, n):
    """The first rows of two_opt's blocks in a scan from row ``start``."""
    size = _FIRST_BLOCK
    while start < n - 1:
        yield start
        start, size = start + size, min(2 * size, _BLOCK)


def _two_opt_oracle(depot_xy, xy, order, seen=None):
    """The row-by-row first-improvement scan that two_opt's block scan must
    reproduce move for move.  ``seen``, when given, collects what the scan
    met: "band" (a move in a row before the last move's), "i=1" and "k=n-1"
    (moves at either tour end), "excluded" (the pair (1, n-1), which shares
    the depot, with a delta below -_IMPROVE_EPS) and where two_opt's scan
    from the last move's row finds the next move: "band-miss" (past a band
    of rows before that row with no improving cell), "band-first" (at the
    band's first cell), "block-miss" (past a block with no improving cell)
    and "block-first" (at a block's first cell)."""
    if len(order) < 2:
        return list(order)
    pts = np.vstack([np.asarray(depot_xy, dtype=float),
                     np.asarray(xy, dtype=float)[order]])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    n = len(pts)
    tour = np.arange(n)
    seen = set() if seen is None else seen
    last = 1
    improved = True
    while improved:
        improved = False
        for i in range(1, n - 1):
            a, b = tour[i - 1], tour[i]
            ks = np.arange(i + 1, n)
            if i == 1 and ks[-1] == n - 1:
                c = tour[n - 1]
                if dist[a, c] + dist[b, 0] - dist[a, b] - dist[c, 0] < -_IMPROVE_EPS:
                    seen.add("excluded")
                ks = ks[:-1]
                if ks.size == 0:
                    continue
            c = tour[ks]
            d_next = tour[(ks + 1) % n]
            delta = dist[a, c] + dist[b, d_next] - dist[a, b] - dist[c, d_next]
            hit = np.flatnonzero(delta < -_IMPROVE_EPS)
            if hit.size:
                k = int(ks[hit[0]])
                seen.update(case for case, met in (
                    ("band", i < last), ("i=1", i == 1), ("k=n-1", k == n - 1),
                    ("band-miss", 1 < last <= i), ("band-first", (i, k) == (1, last - 1)),
                    ("block-miss", i >= last + _FIRST_BLOCK),
                    ("block-first", i >= last and k == i + 1
                     and i in _block_starts(last, n))) if met)
                tour[i:k + 1] = tour[i:k + 1][::-1]
                last = i
                improved = True
                break
    return [order[t - 1] for t in tour[1:]]


def _prim_oracle(depot_xy, xy, dist):
    """Prim over shrinking vectors, one np.delete per step, each point's
    distances to the rows of ``rest`` given by ``dist(rest, point)``.
    Several depots start as each point's distance to the nearest."""
    rest = np.asarray(xy, dtype=float).reshape(-1, 2)
    if len(rest) == 0:
        return 0.0
    depots = np.asarray(depot_xy, dtype=float).reshape(-1, 2)
    to_tree = np.min([dist(rest, d) for d in depots], axis=0)
    total = 0.0
    while len(rest):
        pick = int(np.argmin(to_tree))
        total += float(to_tree[pick])
        cur = rest[pick]
        rest = np.delete(rest, pick, axis=0)
        to_tree = np.minimum(np.delete(to_tree, pick), dist(rest, cur))
    return total


def _tour_lower_bound_oracle(depot_xy, xy):
    """Prim with np.linalg.norm distances: the spanning tree tour_lower_bound
    must agree with to a relative 1e-12."""
    return _prim_oracle(depot_xy, xy, lambda rest, p: np.linalg.norm(rest - p, axis=1))


def _complex_bound_oracle(depot_xy, xy):
    """Prim with complex-modulus distances: the pick order and the running
    sum tour_lower_bound must reproduce bit for bit."""
    return _prim_oracle(depot_xy, xy, lambda rest, p: np.abs(
        (rest[:, 0] + 1j * rest[:, 1]) - complex(p[0], p[1])))


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


def _rescan_cases(n, seed, kind, shuffled):
    """two_opt's tour of a test_two_opt_matches_row_by_row_oracle input, the
    oracle's, and the cases the oracle's scan met: its ``seen`` ones, plus
    "short" (a tour with a move and fewer rows than the first block),
    "coincident" (one with a move and two points, or a point and the depot,
    in one place) and "huge" (the 1e9-m kind with a zero delta, the excluded
    pair's, rounded below -_IMPROVE_EPS)."""
    depot, xy = _points(n, seed, kind)
    if shuffled:
        order = np.random.default_rng(seed).permutation(n).tolist()
    else:
        order = nearest_neighbor_tour(depot, xy)
    seen = set()
    want = _two_opt_oracle(depot, xy, order, seen)
    moved = bool(seen - {"excluded"})
    pts = np.vstack([depot, xy])
    if moved and n - 1 < _FIRST_BLOCK:
        seen.add("short")
    if moved and len(np.unique(pts, axis=0)) < len(pts):
        seen.add("coincident")
    if kind == "huge" and "excluded" in seen:
        seen.add("huge")
    return two_opt(depot, xy, order), want, seen


_RESCAN_CASES = {"band", "i=1", "k=n-1", "excluded", "short", "coincident", "huge",
                 "band-miss", "band-first", "block-miss", "block-first"}
_RESCAN_EXAMPLES = [
    (3, 3, "huge", True),          # the excluded pair, a block's first cell
    (4, 39, "km", True),           # a band's first cell
    (6, 34, "grid", True),         # coincident points, a band with no move
    (2 * _BLOCK + 9, 1, "km", True),       # bands, and blocks with no move
    (2 * _BLOCK + 9, 2, "grid", False),
]


def test_rescan_examples_reach_every_case():
    reached = set().union(*(_rescan_cases(*ex)[2] for ex in _RESCAN_EXAMPLES))
    assert reached == _RESCAN_CASES


@given(st.one_of(st.integers(0, _FIRST_BLOCK), st.integers(0, 3 * _BLOCK)),
       st.integers(0, 2**32 - 1), _kinds, st.booleans())
def test_two_opt_rescan_makes_the_restarted_scans_moves(n, seed, kind, shuffled):
    """Rescanning the band a move changed, then the rows from the move's on
    in growing blocks, ends in the tour of the scan restarted at i = 1."""
    got, want, seen = _rescan_cases(n, seed, kind, shuffled)
    for case in sorted(seen):
        event(case)
    assert got == want


for _ex in _RESCAN_EXAMPLES:
    test_two_opt_rescan_makes_the_restarted_scans_moves = example(*_ex)(
        test_two_opt_rescan_makes_the_restarted_scans_moves)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1), _kinds)
@example(0, 0, "km")
@example(1, 0, "huge")
@example(13, 16, "grid")
def test_distance_matrix_is_the_norm_bit_for_bit(n, seed, kind):
    depot, xy = _points(n, seed, kind)
    pts = np.vstack([depot, xy])
    for a, b in ((pts, pts), (xy, pts[:3]), (pts[:1], xy), (pts, pts[::-1].T.copy().T)):
        want = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        assert _same_bits(distance_matrix(a, b), want)


def _unchanged_after(call, *args):
    before = [np.array(a, copy=True) if isinstance(a, np.ndarray) else list(a) for a in args]
    call(*args)
    for was, now in zip(before, args):
        if isinstance(now, np.ndarray):
            assert _same_bits(np.ascontiguousarray(now), was)
        else:
            assert list(now) == was


@given(st.lists(_point, max_size=12), st.lists(_point, min_size=1, max_size=3),
       st.booleans(), st.data())
@example([], [(0.0, 0.0)], True, None)
@example([(5.0, 5.0)], [(0.0, 0.0)], True, None)
@example([(5.0, 5.0)], [(0.0, 0.0), (9.0, 9.0)], False, None)
def test_routing_kernels_leave_their_inputs_alone(points, depots, transposed, data):
    """(0, 2) and (1, 2) arrays, transposed views of (2, n) arrays and order
    lists come back as they were given: no kernel writes into its input."""
    xy, depots = _xy(points), _xy(depots)
    if transposed:
        xy, depots = np.ascontiguousarray(xy.T).T, np.ascontiguousarray(depots.T).T
    n = len(xy)
    order = (data.draw(st.permutations(range(n))) if data is not None
             else list(range(n)))
    depot = depots[0]
    _unchanged_after(nearest_neighbor_tour, depot, xy)
    _unchanged_after(two_opt, depot, xy, order)
    _unchanged_after(two_opt, depots[:1], xy, order)
    _unchanged_after(tour_lower_bound, depot, xy)
    _unchanged_after(tour_lower_bound, depots, xy)
    assert _same_bits(depots[0], depot)


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1), _kinds)
@example(0, 0, "km")
@example(1, 0, "grid")
@example(3, 0, "grid")
@example(13, 16, "grid")
# one point whose complex modulus and norm differ in the last bit
@example(1, 1, "km")
def test_tour_lower_bound_matches_prim_oracle(n, seed, kind):
    """One depot, as an (x, y) pair or a (1, 2) array, gives the complex
    oracle's bits and the norm oracle's tree to a relative 1e-12; the norm
    Prim the planner's gate was checked against gives the norm oracle's
    bits."""
    depot, xy = _points(n, seed, kind)
    want = _complex_bound_oracle(depot, xy)
    assert tour_lower_bound(depot, xy) == want
    assert tour_lower_bound(np.array([depot]), xy) == want
    norm = _tour_lower_bound_oracle(depot, xy)
    assert want == pytest.approx(norm, rel=1e-12, abs=0.0)
    assert norm_tour_lower_bound(depot, xy) == norm


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1), _kinds,
       st.integers(2, 5))
@example(13, 16, "grid", 3)
@example(1, 1, "km", 2)
def test_multi_depot_bound_matches_prim_oracle(n, seed, kind, k):
    depot, xy = _points(n + k - 1, seed, kind)
    depots, xy = np.vstack([depot, xy[n:]]), xy[:n]
    want = _complex_bound_oracle(depots, xy)
    assert tour_lower_bound(depots, xy) == want
    norm = _tour_lower_bound_oracle(depots, xy)
    assert want == pytest.approx(norm, rel=1e-12, abs=0.0)
    assert norm_tour_lower_bound(depots, xy) == norm


@pytest.mark.parametrize("k", [1, 5])
def test_tour_lower_bound_memory_is_linear(k):
    """At 3,000 points the bound allocates well under 1 MB at its peak, with
    one depot or five: a distance matrix over them would take 72 MB."""
    rng = np.random.default_rng(3)
    xy, depots = rng.uniform(0.0, 2e4, size=(3000, 2)), rng.uniform(0.0, 2e4, size=(k, 2))
    tracemalloc.start()
    try:
        tour_lower_bound(depots, xy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@given(_point, st.lists(_point, max_size=40))
@example((0.0, 0.0), [(250.0, 0.0), (-250.0, 0.0), (0.0, 250.0), (250.0, 0.0)])
@example((250.0, 250.0), [(250.0, 250.0)] * 3)
# squared distances differ in the last bit but their square roots tie, so
# the lower index wins only when the square root is taken
@example((0.0, 0.0), [(959.5403937895036, 0.0), (144.159613, 948.649447)])
def test_nearest_neighbor_tour_matches_norm_oracle(depot, points):
    """The rows of one route matrix, visited points held at inf, give the
    visit order of the per-step column distances with visited points at
    x = inf and of the per-step norm with a visited mask, tied and
    coincident points included."""
    xy = _xy(points)
    got = nearest_neighbor_tour(depot, xy)
    assert got == nearest_neighbor_column_oracle(depot, xy)
    assert got == nearest_neighbor_tour_oracle(depot, xy)


@given(st.integers(0, 3 * _BLOCK), st.integers(0, 2**32 - 1), _kinds)
@example(0, 0, "km")
@example(13, 16, "grid")
def test_nearest_neighbor_tour_matches_oracle_on_larger_sets(n, seed, kind):
    depot, xy = _points(n, seed, kind)
    got = nearest_neighbor_tour(depot, xy)
    assert got == nearest_neighbor_column_oracle(depot, xy)
    assert got == nearest_neighbor_tour_oracle(depot, xy)


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


@pytest.mark.parametrize("use_two_opt", [True, False])
def test_build_route_builds_one_distance_matrix(monkeypatch, use_two_opt):
    """Nearest neighbour and 2-opt read one matrix per route, built once."""
    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return distance_matrix(a, b)

    monkeypatch.setattr(routing, "distance_matrix", counted)
    rng = np.random.default_rng(30)
    sc = build_scenario([(x, y, 0, 1.0, 100.0) for x, y in rng.uniform(0, 5000, size=(12, 2))],
                        [(2500.0, 2500.0, 5000.0)])
    for ids in ([0, 1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11]):
        build_route(0, 0, ids, sc, use_two_opt=use_two_opt)
    assert calls == [(8, 9), (6, 7)]


@pytest.mark.parametrize("use_two_opt", [True, False])
def test_build_route_memory_is_one_matrix(use_two_opt):
    """Over 999 points a route peaks at about two (n+1)^2 matrices: the
    route matrix and its build's scratch, or that matrix and a 2-opt
    reversal's copy of it.  A second matrix alongside the one 2-opt
    reorders, and a reversal of it, would take three."""
    rng = np.random.default_rng(1)
    n = 999
    sc = build_scenario([(x, y, 0, 1.0, 100.0) for x, y in rng.uniform(0, 2e4, size=(n, 2))],
                        [(1e4, 1e4, 5e4)])
    tracemalloc.start()
    try:
        build_route(0, 0, np.arange(n), sc, use_two_opt=use_two_opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (n + 1) ** 2 * 8
