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

from .model import Sensor, derive_seed, distance, link_ranges, partition_sensors

MAX_ITERS = 300


@dataclass(frozen=True)
class Clustering:
    m: int
    assignment: dict[int, int]              # sensor id -> cluster index
    centers: tuple[tuple[float, float], ...]
    iterations_run: int

    def members(self, j: int) -> list[int]:
        return sorted(s for s, c in self.assignment.items() if c == j)


def sensor_weight(fire_history: int, omega_h: float) -> float:
    """w = 1 + omega_h * fire_history (>= 1)."""
    if fire_history < 0:
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


def weighted_kmeans(sensors: list[Sensor], m: int, edge_xy: np.ndarray,
                    omega_h: float, epsilon_m: float,
                    rng: np.random.Generator,
                    max_iters: int = MAX_ITERS,
                    initial_centers: np.ndarray | None = None) -> Clustering:
    """Cluster sensors into m groups with weighted centroid updates.

    Stops when every center moves less than epsilon_m, or after max_iters.
    Empty clusters are reseeded at the weighted-farthest sensor (ties by id)
    before the next iteration, so the result has no empty cluster.
    """
    n = len(sensors)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n} sensors, got m={m}")
    xy = np.array([[s.pos.x, s.pos.y] for s in sensors], dtype=float)
    w = np.array([sensor_weight(s.fire_history, omega_h) for s in sensors])
    w_max = float(w.max())
    factor = 2.0 - w / w_max   # per-sensor discount applied to all distances

    if initial_centers is not None:
        centers = np.asarray(initial_centers, dtype=float).copy()
        if centers.shape != (m, 2):
            raise ValueError(f"initial_centers must have shape ({m}, 2)")
    else:
        centers = init_centers(m, edge_xy, xy, w, rng)

    assign = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        d = np.linalg.norm(xy[:, None, :] - centers[None, :, :], axis=2)
        assign = np.argmin(d * factor[:, None], axis=1)  # ties -> lowest center id

        counts = np.bincount(assign, minlength=m)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            taken: set[int] = set()
            for j in empty:
                dd = d[np.arange(n), assign] * factor
                order = np.lexsort((np.arange(n), -dd))
                pick = next(i for i in order if i not in taken)
                taken.add(pick)
                centers[j] = xy[pick]
            continue  # reassign against reseeded centers before updating

        sums = np.zeros((m, 2))
        np.add.at(sums, assign, xy * w[:, None])
        wsum = np.bincount(assign, weights=w, minlength=m)
        new_centers = sums / wsum[:, None]
        moved = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if moved < epsilon_m:
            break

    if np.bincount(assign, minlength=m).min() == 0:
        # max_iters landed on a reseed round; one more assignment pass
        d = np.linalg.norm(xy[:, None, :] - centers[None, :, :], axis=2)
        assign = np.argmin(d * factor[:, None], axis=1)

    assignment = {s.id: int(assign[i]) for i, s in enumerate(sensors)}
    return Clustering(m=m, assignment=assignment,
                      centers=tuple((float(c[0]), float(c[1])) for c in centers),
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


def _experienced_mean(xy: np.ndarray, sensors, high_mask: np.ndarray,
                      clustering: Clustering) -> float:
    centers = np.asarray(clustering.centers)
    a = np.array([clustering.assignment[s.id] for s in sensors])
    d = np.linalg.norm(xy - centers[a], axis=1)
    return float(d[high_mask].mean())


def coverage_improvement_check(scenario, m: int, omega_h: float,
                               seeds: list[int], epsilon_m: float = 10.0,
                               high_risk_min: int = 50) -> CoverageCheckResult:
    """Check that weighting shrinks the cluster radius experienced by
    high-risk sensors (fire_history > high_risk_min) relative to the analytic
    bound on the unweighted run.

    Both arms start from identical initial centers per seed; the experienced
    distances are averaged over seeds.
    """
    edge_xy = np.array([[e.pos.x, e.pos.y] for e in scenario.edges])
    _, uav_ids = partition_sensors(scenario.sensors, scenario.edges, scenario.physical)
    sensors = [scenario.sensor_by_id(i) for i in uav_ids]
    weights = np.array([sensor_weight(s.fire_history, omega_h) for s in sensors])
    w_max = float(weights.max())
    high_mask = np.array([s.fire_history for s in sensors]) > high_risk_min
    if not high_mask.any():
        raise ValueError(
            f"no high-risk sensor (fire_history > {high_risk_min}) present")
    factor = 2.0 / (1.0 + float(weights[high_mask].mean()) / w_max)

    xy = np.array([[s.pos.x, s.pos.y] for s in sensors])
    lhs_vals, base_vals = [], []
    for seed in seeds:
        rng = np.random.default_rng(derive_seed(seed, "coverage-check-init"))
        centers0 = init_centers(m, edge_xy, xy, weights, rng)
        weighted = weighted_kmeans(sensors, m, edge_xy, omega_h, epsilon_m,
                                   rng, initial_centers=centers0)
        unweighted = weighted_kmeans(sensors, m, edge_xy, 0.0, epsilon_m,
                                     rng, initial_centers=centers0)
        lhs_vals.append(_experienced_mean(xy, sensors, high_mask, weighted))
        base_vals.append(_experienced_mean(xy, sensors, high_mask, unweighted))

    lhs = float(np.mean(lhs_vals))
    base = float(np.mean(base_vals))
    rhs = factor * base
    # float noise must not flip a mathematically tied case (equal weights)
    tol = 1e-9 * max(1.0, abs(rhs))
    return CoverageCheckResult(lhs_m=lhs, rhs_m=rhs, holds=lhs <= rhs + tol,
                               weighted_mean_distance_m=lhs,
                               unweighted_mean_distance_m=base, factor=factor)
