"""Fire-history-weighted k-means for UAV-served sensors.

Sensors carry weight w = 1 + omega_h * fire_history.  The assignment step
minimizes the risk-discounted distance d * (2 - w / w_max); since that factor
is a per-sensor constant it preserves nearest-center assignment, and the
weighting steers the clustering through the weighted centroid update, which
pulls centers toward fire-prone sensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import column_distances

MAX_ITERS = 300


@dataclass(frozen=True)
class Clustering:
    m: int
    assignment: dict[int, int]              # sensor id -> cluster index
    centers: tuple[tuple[float, float], ...]
    iterations_run: int


def sensor_weight(fire_history, omega_h: float):
    """w = 1 + omega_h * fire_history (>= 1), for one score or an array of
    scores."""
    if np.any(np.asarray(fire_history) < 0):
        raise ValueError(f"fire_history must be >= 0, got {fire_history}")
    if omega_h < 0:
        raise ValueError(f"omega_h must be >= 0, got {omega_h}")
    return 1.0 + omega_h * fire_history


# weighted_kmeans and the planner's centroids add the weights, and the
# coordinates times them, over subsets of the sensors in other orders; a
# total this much below the largest double leaves room for any order's
# rounding
_SUM_MARGIN = 1e-6


class OmegaHError(ValueError):
    """omega_h overflows a sensor weight or a weighted coordinate sum on a
    scenario."""


def check_omega_h(scenario, omega_h: float) -> None:
    """Raise OmegaHError naming omega_h when, on this scenario, a sensor
    weight ``1 + omega_h * fire_history`` is not finite, or the sum over
    every sensor of the weights or of |x| or |y| times them is not, with a
    relative margin of ``_SUM_MARGIN``.  Every weighted coordinate sum of
    ``weighted_kmeans`` and of the planner's centroids is then finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = sensor_weight(scenario.fire_history, omega_h)
        sums = np.append((np.abs(scenario.xy) * w[:, None]).sum(axis=0), w.sum())
        ok = np.isfinite(w).all() and np.isfinite(sums * (1 + _SUM_MARGIN)).all()
    if not ok:
        raise OmegaHError(f"omega_h {omega_h} makes a sensor weight 1 + omega_h * "
                          "fire_history, or a weighted coordinate sum, overflow on this "
                          "scenario")


def init_centers(m: int, edge_xy: np.ndarray, sensor_xy: np.ndarray,
                 weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Initial centers: m distinct edge positions when m <= #edges; otherwise
    all edges plus the (m - #edges) highest-weight sensors (ties by lowest
    sensor id)."""
    p = len(edge_xy)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m <= p:
        chosen = rng.choice(p, size=m, replace=False)
        return edge_xy[np.sort(chosen)].astype(float).copy()
    extra = m - p
    if extra > len(sensor_xy):
        raise ValueError(f"cannot seed {m} centers from {p} edges and "
                         f"{len(sensor_xy)} sensors")
    # argsort on (-weight, index) keeps ties id-ordered
    order = np.lexsort((np.arange(len(weights)), -weights))
    return np.vstack([edge_xy.astype(float), sensor_xy[order[:extra]].astype(float)])


def weighted_kmeans(scenario, ids, m: int, omega_h: float, epsilon_m: float,
                    rng: np.random.Generator,
                    initial_centers: np.ndarray | None = None) -> Clustering:
    """Cluster the sensors with the given ids into m groups with weighted
    centroid updates, seeding from the scenario's edge positions.

    Stops when every center moves less than epsilon_m, or after MAX_ITERS.
    Empty clusters are reseeded at the weighted-farthest sensor (ties by id)
    before the next iteration, so the result has no empty cluster.

    Works on x/y columns: each iteration writes sqrt(dx*dx + dy*dy) into
    reused (n, m) buffers, the operations ``np.linalg.norm`` applies over a
    last axis of length 2, so every distance has the same bits.  The
    weighted centroid sums come from ``np.bincount``, which adds in index
    order from 0.0 as ``np.add.at`` does.
    """
    ids = np.asarray(ids, dtype=int)
    n = len(ids)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n} sensors, got m={m}")
    check_omega_h(scenario, omega_h)
    xy = scenario.xy[ids]
    x, y = xy[:, 0].copy(), xy[:, 1].copy()
    w = sensor_weight(scenario.fire_history[ids], omega_h)
    w_max = float(w.max())
    factor = 2.0 - w / w_max   # per-sensor discount applied to all distances
    xw, yw = x * w, y * w

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=float).copy()
        if centers.shape != (m, 2):
            raise ValueError(f"initial_centers must have shape ({m}, 2)")
    else:
        centers = init_centers(m, scenario.edge_xy, xy, w, rng)
    cx, cy = centers[:, 0].copy(), centers[:, 1].copy()

    d = np.empty((n, m))        # distance of sensor i to center j
    scaled = np.empty((n, m))   # d * factor, and column_distances' scratch
    rows = np.arange(n)

    def nearest():
        column_distances(x[:, None], y[:, None], cx, cy, d, scaled)
        np.multiply(d, factor[:, None], out=scaled)
        return scaled.argmin(axis=1)   # ties -> lowest center id

    assign = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        assign = nearest()

        counts = np.bincount(assign, minlength=m)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            dd = d[rows, assign] * factor
            order = np.lexsort((rows, -dd))   # weighted-farthest first, then id
            for j, pick in zip(empty, order):
                cx[j], cy[j] = x[pick], y[pick]
            continue  # reassign against reseeded centers before updating

        wsum = np.bincount(assign, weights=w, minlength=m)
        new_cx = np.bincount(assign, weights=xw, minlength=m) / wsum
        new_cy = np.bincount(assign, weights=yw, minlength=m) / wsum
        dx, dy = new_cx - cx, new_cy - cy
        moved = np.sqrt(dx * dx + dy * dy).max()
        cx[:], cy[:] = new_cx, new_cy
        if moved < epsilon_m:
            break

    if np.bincount(assign, minlength=m).min() == 0:
        # MAX_ITERS landed on a reseed round; one more assignment pass
        assign = nearest()

    return Clustering(m=m, assignment=dict(zip(ids.tolist(), assign.tolist())),
                      centers=tuple(zip(cx.tolist(), cy.tolist())),
                      iterations_run=iterations)


def cluster_radius(member_xy: np.ndarray, center_xy) -> float:
    """Max distance from the center to any member; 0 for an empty cluster."""
    if len(member_xy) == 0:
        return 0.0
    d = np.linalg.norm(np.asarray(member_xy, dtype=float) - np.asarray(center_xy, dtype=float), axis=1)
    return float(d.max())
