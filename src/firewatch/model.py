"""Core value types and planar geometry for the patrol planning toolkit.

Unit conventions used throughout the package: distances in meters, times in
seconds, speeds in m/s, power in watts, energy in watt-hours, data sizes in
megabytes, link rates in megabits per second (1 MB = 8 Mbit), compute demand
in million instructions (MI) and edge capacity in MIPS.

The monitoring region is an axis-aligned square of side sqrt(area) anchored
at the origin.  All range checks on distances are inclusive (<=).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

MB_TO_MBIT = 8.0


class FleetInitMode(str, Enum):
    """Starting fleet size for the sizing loop: a single UAV, or the
    disc-coverage count ceil(area / (pi * r_sg^2)) clamped to [1, m_max]."""

    ONE = "one"
    COVERAGE = "coverage"


class Variant(str, Enum):
    """Planner ablation arms."""

    FULL = "full"
    NO_2OPT = "no-2opt"
    NO_KMEANS = "no-kmeans"
    NO_BOTH = "no-both"


def _require_finite(obj, positive=(), non_negative=()) -> None:
    """Raise ValueError naming the first field that is not a finite number
    > 0 (``positive``) or >= 0 (``non_negative``).  NaN fails every
    comparison, so a plain ``<= 0`` test would let it through."""
    for name in (*positive, *non_negative):
        v, floor = getattr(obj, name), ("> 0" if name in positive else ">= 0")
        if not (math.isfinite(v) and (v > 0 if name in positive else v >= 0)):
            raise ValueError(f"{name} must be finite and {floor}, got {v}")


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class RequestProfile:
    """Per-period service request: data to collect and compute to run."""

    data_size_mb: float
    compute_mi: float

    def __post_init__(self):
        _require_finite(self, positive=("data_size_mb", "compute_mi"))


@dataclass(frozen=True)
class Sensor:
    id: int
    pos: Point2D
    fire_history: int
    request: RequestProfile

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"sensor id must be >= 0, got {self.id}")
        if self.fire_history < 0:
            raise ValueError(f"fire_history must be >= 0, got {self.fire_history}")


@dataclass(frozen=True)
class EdgeNode:
    id: int
    pos: Point2D
    capacity_mips: float

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"edge id must be >= 0, got {self.id}")
        _require_finite(self, positive=("capacity_mips",))


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of the deployment (defaults follow the standard
    evaluation setup: 100 km^2 region, 10 Mbps links, 15 m/s UAVs)."""

    area_km2: float = 100.0
    r_s: float = 500.0          # sensor radio range, m
    r_g: float = 1000.0         # UAV radio range, m
    r_e: float = 2000.0         # edge node radio range, m
    data_rate_mbps: float = 10.0
    v_g: float = 15.0           # UAV cruise speed, m/s
    p_fly_w: float = 100.0
    p_comm_w: float = 5.0
    e_max_wh: float = 500.0
    t_max_s: float = 3600.0     # revisit period ceiling
    t_period_s: float = 3600.0  # request cadence used for edge load
    t_urgent_s: float = 300.0   # emergency deadline
    m_max: int = 20
    per_hop_latency_s: float = 0.0

    def __post_init__(self):
        _require_finite(self, positive=(
            "area_km2", "r_s", "r_g", "r_e", "data_rate_mbps", "v_g",
            "p_fly_w", "p_comm_w", "e_max_wh", "t_max_s", "t_period_s",
            "t_urgent_s",
        ), non_negative=("per_hop_latency_s",))
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        if self.t_urgent_s > self.t_max_s:
            raise ValueError("t_urgent_s must not exceed t_max_s")

    @property
    def side_m(self) -> float:
        """Side length of the square monitoring region."""
        return math.sqrt(self.area_km2 * 1e6)

    @property
    def area_m2(self) -> float:
        return self.area_km2 * 1e6

    @property
    def diag_m(self) -> float:
        """Diagonal of the monitoring square; distance normalizer for
        assignment scores."""
        return self.side_m * math.sqrt(2.0)


@dataclass(frozen=True)
class AlgoParams:
    """Tunables of the planning pipeline."""

    omega_h: float = 1.5      # fire-history weight gain
    omega_d: float = 0.7      # distance weight in edge assignment score
    omega_l: float = 0.3      # load weight in edge assignment score
    lam: float = 0.1          # route-length / service-time trade-off
    epsilon_m: float = 10.0   # k-means convergence threshold, m
    theta_max: float = 0.8    # delivery edge utilization ceiling
    seed: int = 0
    fleet_init_mode: FleetInitMode = FleetInitMode.ONE

    def __post_init__(self):
        _require_finite(self, positive=("epsilon_m",), non_negative=("omega_h", "lam"))
        for name in ("omega_d", "omega_l"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if abs(self.omega_d + self.omega_l - 1.0) > 1e-9:
            raise ValueError("omega_d + omega_l must equal 1")
        if not 0.0 < self.theta_max <= 1.0:
            raise ValueError(f"theta_max must be in (0, 1], got {self.theta_max}")


def column_distances(x, y, px, py, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) between the points (x, y) and (px, py), broadcast
    and written into ``out`` (``scratch`` holds dy).  These are the
    operations ``np.linalg.norm`` applies over a last axis of length 2, so
    every distance has the same bits as that norm; a point at x = inf is
    infinitely far."""
    np.subtract(x, px, out=out)
    np.subtract(y, py, out=scratch)
    np.multiply(out, out, out=out)
    np.multiply(scratch, scratch, out=scratch)
    np.add(out, scratch, out=out)
    return np.sqrt(out, out=out)


def link_ranges(p: PhysicalParams) -> tuple[float, float, float]:
    """Effective pairwise link ranges (r_sg, r_ge, r_se): each pair can talk
    up to the smaller of the two device ranges."""
    r_sg = min(p.r_s, p.r_g)
    r_ge = min(p.r_g, p.r_e)
    r_se = min(p.r_s, p.r_e)
    return r_sg, r_ge, r_se


def derive_seed(base_seed: int, label: str) -> int:
    """Derive a labeled 63-bit sub-seed from a base seed.

    Fixed hashing scheme (sha256 of "base:label") so every random stream in
    the toolkit is reproducible from a single run seed.
    """
    digest = hashlib.sha256(f"{base_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
