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
import json
from dataclasses import dataclass, field

import numpy as np

from .model import EdgeNode, PhysicalParams, Point2D, RequestProfile, Sensor

SCHEMA_VERSION = 1


class ScenarioFormatError(ValueError):
    """Raised when a scenario document is structurally or semantically
    invalid; the message names the offending field."""


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
        if self.hotspot_sigma_m <= 0:
            raise ValueError("hotspot_sigma_m must be > 0")
        if self.fire_history_max < 1:
            raise ValueError("fire_history_max must be >= 1")
        for name in ("alpha_range_mb", "beta_range_mi", "edge_capacity_range_mips"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")


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
    with open(path, "w") as f:
        json.dump(_to_doc(sc), f, indent=1)
        f.write("\n")


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{where}: expected a JSON object")
    if key not in doc:
        raise ScenarioFormatError(f"{where}.{key}: missing required field")
    return doc[key]


def _number(doc: dict, key: str, where: str) -> float:
    value = _require(doc, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}.{key}: must be a number, got {value!r}")
    return float(value)


def _rows(doc: dict, key: str, where: str) -> list:
    rows = _require(doc, key, where)
    if not isinstance(rows, list):
        raise ScenarioFormatError(f"{where}.{key}: expected a JSON array")
    return rows


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario document.

    Raises ScenarioFormatError naming the offending field on semantic
    problems; json.JSONDecodeError (with line info) on malformed JSON.
    """
    with open(path) as f:
        doc = json.load(f)

    version = _require(doc, "schema_version", "document")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"schema_version: unsupported value {version!r}, expected {SCHEMA_VERSION}")

    phys_doc = _require(doc, "physical", "document")
    if not isinstance(phys_doc, dict):
        raise ScenarioFormatError("physical: expected a JSON object")
    allowed = {f.name for f in dataclasses.fields(PhysicalParams)}
    unknown = set(phys_doc) - allowed
    if unknown:
        raise ScenarioFormatError(f"physical.{sorted(unknown)[0]}: unknown field")
    m_max = phys_doc.get("m_max", PhysicalParams.m_max)
    if isinstance(m_max, bool) or not isinstance(m_max, int):
        raise ScenarioFormatError(f"physical.m_max: must be an integer, got {m_max!r}")
    try:
        physical = PhysicalParams(**phys_doc)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"physical: {exc}") from exc
    side = physical.side_m

    sensors = []
    for i, row in enumerate(_rows(doc, "sensors", "document")):
        where = f"sensors[{i}]"
        sid = _require(row, "id", where)
        if sid != i:
            raise ScenarioFormatError(
                f"{where}.id: ids must be contiguous from 0, got {sid}")
        x, y = _number(row, "x", where), _number(row, "y", where)
        if not (0.0 <= x <= side and 0.0 <= y <= side):
            raise ScenarioFormatError(
                f"{where}: position ({x}, {y}) outside monitoring square [0, {side}]")
        h = _require(row, "fire_history", where)
        if isinstance(h, bool) or not isinstance(h, int) or h < 0:
            raise ScenarioFormatError(
                f"{where}.fire_history: must be a non-negative integer, got {h!r}")
        try:
            req = RequestProfile(_number(row, "data_size_mb", where),
                                 _number(row, "compute_mi", where))
            sensors.append(Sensor(id=sid, pos=Point2D(x, y), fire_history=h, request=req))
        except ValueError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc
    if not sensors:
        raise ScenarioFormatError("sensors: at least one sensor required")

    edges = []
    for k, row in enumerate(_rows(doc, "edges", "document")):
        where = f"edges[{k}]"
        eid = _require(row, "id", where)
        if eid != k:
            raise ScenarioFormatError(
                f"{where}.id: ids must be contiguous from 0, got {eid}")
        x, y = _number(row, "x", where), _number(row, "y", where)
        if not (0.0 <= x <= side and 0.0 <= y <= side):
            raise ScenarioFormatError(
                f"{where}: position ({x}, {y}) outside monitoring square [0, {side}]")
        try:
            edges.append(EdgeNode(id=eid, pos=Point2D(x, y),
                                  capacity_mips=_number(row, "capacity_mips", where)))
        except ValueError as exc:
            raise ScenarioFormatError(f"{where}: {exc}") from exc
    if not edges:
        raise ScenarioFormatError("edges: at least one edge node required")

    meta_doc = _require(doc, "meta", "document")
    n = len(sensors)
    hotspot_ids = tuple(_rows(meta_doc, "hotspot_sensor_ids", "meta"))
    if any(isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n
           for i in hotspot_ids):
        raise ScenarioFormatError("meta.hotspot_sensor_ids: id out of range")
    hotspots = tuple(
        Hotspot(*(_number(h, key, f"meta.hotspots[{k}]") for key in ("cx", "cy", "sigma_m")))
        for k, h in enumerate(_rows(meta_doc, "hotspots", "meta")))
    meta = ScenarioMeta(seed=int(_require(meta_doc, "seed", "meta")), hotspots=hotspots,
                        hotspot_sensor_ids=hotspot_ids)
    return Scenario(physical=physical, sensors=tuple(sensors), edges=tuple(edges), meta=meta)
