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

from .edge_assignment import assign_direct
from .model import column_distances, derive_seed

MAX_ITERS = 300
# coverage_improvement_check: k-means convergence threshold (m) of both arms,
# and the fire-history score above which a sensor counts as high-risk
COVERAGE_EPSILON_M = 10.0
HIGH_RISK_MIN = 50


@dataclass(frozen=True)
class Clustering:
    m: int
    assignment: dict[int, int]              # sensor id -> cluster index
    centers: tuple[tuple[float, float], ...]
    iterations_run: int

    def members(self, j: int) -> list[int]:
        return sorted(s for s, c in self.assignment.items() if c == j)


def sensor_weight(fire_history, omega_h: float):
    """w = 1 + omega_h * fire_history (>= 1), for one score or an array of
    scores."""
    if np.any(np.asarray(fire_history) < 0):
        raise ValueError(f"fire_history must be >= 0, got {fire_history}")
    if omega_h < 0:
        raise ValueError(f"omega_h must be >= 0, got {omega_h}")
    return 1.0 + omega_h * fire_history


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


@dataclass(frozen=True)
class CoverageCheckResult:
    """Weighted-vs-unweighted comparison of the cluster radius experienced by
    high-risk sensors (each sensor's own distance to its assigned center,
    averaged over the high-risk set).  holds iff lhs <= rhs where
    rhs = 2 / (1 + mean_high_risk_weight / w_max) * unweighted mean."""

    lhs_m: float                 # mean experienced distance, weighted run
    rhs_m: float                 # factor * unweighted mean
    holds: bool
    weighted_mean_distance_m: float
    unweighted_mean_distance_m: float
    factor: float


def _experienced_mean(xy: np.ndarray, ids: np.ndarray, high_mask: np.ndarray,
                      clustering: Clustering) -> float:
    centers = np.asarray(clustering.centers)
    a = np.array([clustering.assignment[i] for i in ids.tolist()])
    d = np.linalg.norm(xy - centers[a], axis=1)
    return float(d[high_mask].mean())


def coverage_improvement_check(scenario, m: int, omega_h: float,
                               seeds: list[int]) -> CoverageCheckResult:
    """Check that weighting shrinks the cluster radius experienced by
    high-risk sensors (fire_history > HIGH_RISK_MIN) relative to the analytic
    bound on the unweighted run.

    Both arms start from identical initial centers per seed; the experienced
    distances are averaged over seeds.
    """
    ids = assign_direct(scenario)[0]
    weights = sensor_weight(scenario.fire_history[ids], omega_h)
    w_max = float(weights.max())
    high_mask = scenario.fire_history[ids] > HIGH_RISK_MIN
    if not high_mask.any():
        raise ValueError(
            f"no high-risk sensor (fire_history > {HIGH_RISK_MIN}) present")
    factor = 2.0 / (1.0 + float(weights[high_mask].mean()) / w_max)

    xy = scenario.xy[ids]
    lhs_vals, base_vals = [], []
    for seed in seeds:
        rng = np.random.default_rng(derive_seed(seed, "coverage-check-init"))
        centers0 = init_centers(m, scenario.edge_xy, xy, weights, rng)
        weighted = weighted_kmeans(scenario, ids, m, omega_h, COVERAGE_EPSILON_M,
                                   rng, initial_centers=centers0)
        unweighted = weighted_kmeans(scenario, ids, m, 0.0, COVERAGE_EPSILON_M,
                                     rng, initial_centers=centers0)
        lhs_vals.append(_experienced_mean(xy, ids, high_mask, weighted))
        base_vals.append(_experienced_mean(xy, ids, high_mask, unweighted))

    lhs = float(np.mean(lhs_vals))
    base = float(np.mean(base_vals))
    rhs = factor * base
    # float noise must not flip a mathematically tied case (equal weights)
    tol = 1e-9 * max(1.0, abs(rhs))
    return CoverageCheckResult(lhs_m=lhs, rhs_m=rhs, holds=lhs <= rhs + tol,
                               weighted_mean_distance_m=lhs,
                               unweighted_mean_distance_m=base, factor=factor)
