"""Scenario generation and serialization.

A scenario is one JSON document: {"schema_version", "physical", "sensors",
"edges", "meta"}.  Sensor positions mix Gaussian fire-prone hotspots with a
uniform background; hotspot sensors carry high fire-history scores.

Generation draws from a single numpy Generator in a fixed order (hotspot
centers, edge positions/capacities, hotspot memberships/offsets, background
positions, fire histories, request profiles), so a scenario is a pure
function of its config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (INT_LIMIT, EdgeNode, PhysicalParams, Point2D, RequestProfile, Sensor,
                    require_finite)
from .reader import Doc, read, write_json

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GenConfig:
    """Scenario generator knobs (defaults match the standard evaluation
    setup: 200 sensors, 5 edges, 3 hotspots holding 60% of sensors)."""

    n_sensors: int = 200
    n_edges: int = 5
    n_hotspots: int = 3
    hotspot_fraction: float = 0.6
    hotspot_sigma_m: float = 800.0
    fire_history_max: int = 100
    alpha_range_mb: tuple[float, float] = (1.0, 5.0)
    beta_range_mi: tuple[float, float] = (100.0, 500.0)
    edge_capacity_range_mips: tuple[float, float] = (5000.0, 10000.0)
    seed: int = 0

    def __post_init__(self):
        if self.n_sensors < 1:
            raise ValueError(f"n_sensors must be >= 1, got {self.n_sensors}")
        if self.n_edges < 1:
            raise ValueError(f"n_edges must be >= 1, got {self.n_edges}")
        if self.n_hotspots < 0:
            raise ValueError("n_hotspots must be >= 0")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        require_finite(self, positive=("hotspot_sigma_m",))
        if not 1 <= self.fire_history_max < INT_LIMIT:
            raise ValueError(f"fire_history_max must be in [1, 2^63), got {self.fire_history_max}")
        if not 0 <= self.seed < INT_LIMIT:
            raise ValueError(f"seed must be in [0, 2^63), got {self.seed}")
        for name in ("alpha_range_mb", "beta_range_mi", "edge_capacity_range_mips"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < math.inf:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")


@dataclass(frozen=True)
class Hotspot:
    cx: float
    cy: float
    sigma_m: float


@dataclass(frozen=True)
class ScenarioMeta:
    seed: int
    hotspots: tuple[Hotspot, ...]
    hotspot_sensor_ids: tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    """Sensors and edge nodes, each id equal to its position in its tuple.

    The read-only columns are built once from the objects, row i holding
    sensor (or edge) i: ``xy`` (n x 2), ``alpha_mb``, ``beta_mi``,
    ``fire_history``, ``edge_xy`` (p x 2) and ``capacity``.  The planning
    layers pass arrays of sensor ids and read these.
    """

    physical: PhysicalParams
    sensors: tuple[Sensor, ...]
    edges: tuple[EdgeNode, ...]
    meta: ScenarioMeta
    xy: np.ndarray = field(init=False, compare=False, repr=False)
    alpha_mb: np.ndarray = field(init=False, compare=False, repr=False)
    beta_mi: np.ndarray = field(init=False, compare=False, repr=False)
    fire_history: np.ndarray = field(init=False, compare=False, repr=False)
    edge_xy: np.ndarray = field(init=False, compare=False, repr=False)
    capacity: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if any(o.id != i for rows in (self.sensors, self.edges) for i, o in enumerate(rows)):
            raise ValueError("sensor and edge ids must equal their positions, from 0")
        ss, es = self.sensors, self.edges
        columns = dict(
            xy=np.array([(s.pos.x, s.pos.y) for s in ss], dtype=float).reshape(-1, 2),
            alpha_mb=np.array([s.request.data_size_mb for s in ss], dtype=float),
            beta_mi=np.array([s.request.compute_mi for s in ss], dtype=float),
            fire_history=np.array([s.fire_history for s in ss], dtype=int),
            edge_xy=np.array([(e.pos.x, e.pos.y) for e in es], dtype=float).reshape(-1, 2),
            capacity=np.array([e.capacity_mips for e in es], dtype=float))
        for name, col in columns.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)


def generate(cfg: GenConfig, physical: PhysicalParams | None = None) -> Scenario:
    """Generate a deterministic scenario from the config seed."""
    p = physical if physical is not None else PhysicalParams()
    side = p.side_m
    rng = np.random.default_rng(cfg.seed)

    hot_centers = rng.uniform(0.0, side, size=(cfg.n_hotspots, 2))

    edge_xy = rng.uniform(0.0, side, size=(cfg.n_edges, 2))
    edge_cap = rng.uniform(*cfg.edge_capacity_range_mips, size=cfg.n_edges)

    n_hot = int(round(cfg.hotspot_fraction * cfg.n_sensors)) if cfg.n_hotspots > 0 else 0
    n_bg = cfg.n_sensors - n_hot

    if n_hot > 0:
        membership = rng.integers(0, cfg.n_hotspots, size=n_hot)
        offsets = rng.normal(0.0, cfg.hotspot_sigma_m, size=(n_hot, 2))
        hot_xy = np.clip(hot_centers[membership] + offsets, 0.0, side)
    else:
        hot_xy = np.empty((0, 2))
    bg_xy = rng.uniform(0.0, side, size=(n_bg, 2))
    xy = np.vstack([hot_xy, bg_xy])

    # Hotspot sensors score in the upper half of the fire-history scale,
    # background sensors in the bottom tenth.
    h_hot = rng.integers(cfg.fire_history_max // 2, cfg.fire_history_max + 1, size=n_hot)
    h_bg = rng.integers(0, cfg.fire_history_max // 10 + 1, size=n_bg)
    history = np.concatenate([h_hot, h_bg])

    alpha = rng.uniform(*cfg.alpha_range_mb, size=cfg.n_sensors)
    beta = rng.uniform(*cfg.beta_range_mi, size=cfg.n_sensors)

    sensors = tuple(
        Sensor(
            id=i,
            pos=Point2D(float(xy[i, 0]), float(xy[i, 1])),
            fire_history=int(history[i]),
            request=RequestProfile(float(alpha[i]), float(beta[i])),
        )
        for i in range(cfg.n_sensors)
    )
    edges = tuple(
        EdgeNode(id=k, pos=Point2D(float(edge_xy[k, 0]), float(edge_xy[k, 1])),
                 capacity_mips=float(edge_cap[k]))
        for k in range(cfg.n_edges)
    )
    meta = ScenarioMeta(
        seed=cfg.seed,
        hotspots=tuple(Hotspot(float(c[0]), float(c[1]), cfg.hotspot_sigma_m)
                       for c in hot_centers),
        hotspot_sensor_ids=tuple(range(n_hot)),
    )
    return Scenario(physical=p, sensors=sensors, edges=edges, meta=meta)


def _to_doc(sc: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "physical": dataclasses.asdict(sc.physical),
        "sensors": [
            {
                "id": s.id,
                "x": s.pos.x,
                "y": s.pos.y,
                "fire_history": s.fire_history,
                "data_size_mb": s.request.data_size_mb,
                "compute_mi": s.request.compute_mi,
            }
            for s in sc.sensors
        ],
        "edges": [
            {"id": e.id, "x": e.pos.x, "y": e.pos.y, "capacity_mips": e.capacity_mips}
            for e in sc.edges
        ],
        "meta": {
            "seed": sc.meta.seed,
            "hotspots": [dataclasses.asdict(h) for h in sc.meta.hotspots],
            "hotspot_sensor_ids": list(sc.meta.hotspot_sensor_ids),
        },
    }


def save_scenario(sc: Scenario, path: str) -> None:
    write_json(path, _to_doc(sc))


def _placed(row: Doc, k: int, side: float) -> Point2D:
    """Row k's position, checking its id is k and it lies in the square."""
    if row["id"].integer() != k:
        row["id"].fail(f"ids must be contiguous from 0, got {row['id'].value}")
    x, y = row["x"].number(), row["y"].number()
    if not (0.0 <= x <= side and 0.0 <= y <= side):
        row.fail(f"position ({x}, {y}) outside monitoring square [0, {side}]")
    return Point2D(x, y)


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario document.

    Raises InputError naming the offending field on semantic problems, and
    naming the file (with line info) on text that is not UTF-8 JSON.
    """
    doc = read(path, SCHEMA_VERSION, "")

    phys = doc["physical"]
    allowed = {f.name for f in dataclasses.fields(PhysicalParams)}
    values = {}
    for key, entry in phys.items():
        if key not in allowed:
            entry.fail("unknown field")
        values[key] = entry.integer(1) if key == "m_max" else entry.number()
    physical = phys.build(PhysicalParams, **values)
    side = physical.side_m

    sensors = tuple(
        Sensor(id=i, pos=_placed(row, i, side), fire_history=row["fire_history"].integer(0),
               request=row.build(RequestProfile, row["data_size_mb"].number(),
                                 row["compute_mi"].number()))
        for i, row in enumerate(doc["sensors"].rows()))
    if not sensors:
        doc["sensors"].fail("at least one sensor required")
    edges = tuple(
        row.build(EdgeNode, id=k, pos=_placed(row, k, side),
                  capacity_mips=row["capacity_mips"].number())
        for k, row in enumerate(doc["edges"].rows()))
    if not edges:
        doc["edges"].fail("at least one edge node required")

    meta = doc["meta"]
    hotspots = tuple(Hotspot(*(h[key].number() for key in ("cx", "cy", "sigma_m")))
                     for h in meta["hotspots"].rows())
    hotspot_ids = tuple(r.id(len(sensors)) for r in meta["hotspot_sensor_ids"].rows())
    return Scenario(physical=physical, sensors=sensors, edges=edges,
                    meta=ScenarioMeta(seed=meta["seed"].integer(), hotspots=hotspots,
                                      hotspot_sensor_ids=hotspot_ids))
