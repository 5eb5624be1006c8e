"""Deterministic planning and simulation toolkit for UAV-assisted wildfire
monitoring with edge computing.

Modules:
    model            core value types, geometry, link ranges
    scenario         scenario generation, JSON (de)serialization, read-only columns
    clustering       fire-history-weighted k-means and coverage check
    edge_assignment  direct/UAV split, cluster -> edge assignment with repair
    routing          nearest-neighbor tours, 2-opt improvement, route energy
    timing           response-time model
    planner          adaptive fleet sizing loop and plan validation/export
    emergency        event-driven emergency response simulation
    baselines        GA / PSO / greedy planning baselines
    cli              command line interface (generate / plan / simulate / compare)
"""

from .model import (
    AlgoParams,
    EdgeNode,
    FleetInitMode,
    PhysicalParams,
    Point2D,
    RequestProfile,
    Sensor,
    Variant,
    derive_seed,
    distance,
    link_ranges,
)
from .scenario import GenConfig, Scenario, generate, load_scenario, save_scenario

__all__ = [
    "AlgoParams",
    "EdgeNode",
    "FleetInitMode",
    "GenConfig",
    "PhysicalParams",
    "Point2D",
    "RequestProfile",
    "Scenario",
    "Sensor",
    "Variant",
    "derive_seed",
    "distance",
    "generate",
    "link_ranges",
    "load_scenario",
    "save_scenario",
]

__version__ = "0.1.0"
