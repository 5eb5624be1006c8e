import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from firewatch.edge_assignment import assign_direct
from firewatch.model import (
    MB_TO_MBIT,
    AlgoParams,
    EdgeNode,
    FleetInitMode,
    PhysicalParams,
    Point2D,
    RequestProfile,
    Sensor,
    derive_seed,
    distance,
    link_ranges,
)
from testutil import build_scenario

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_mb_to_mbit_factor():
    assert MB_TO_MBIT == 8.0


def test_distance_examples():
    assert distance(Point2D(0, 0), Point2D(0, 0)) == 0.0
    assert distance(Point2D(0, 0), Point2D(3, 4)) == 5.0
    assert distance(Point2D(10, 10), Point2D(10, 25)) == 15.0


@given(coords, coords, coords, coords, coords, coords)
def test_distance_metric_properties(ax, ay, bx, by, cx, cy):
    a, b, c = Point2D(ax, ay), Point2D(bx, by), Point2D(cx, cy)
    assert distance(a, b) == distance(b, a)
    assert distance(a, b) >= 0.0
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-7


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Point2D(0.0, float("inf"))


def test_request_profile_validation():
    with pytest.raises(ValueError):
        RequestProfile(0.0, 100.0)
    with pytest.raises(ValueError):
        RequestProfile(1.0, -5.0)


def test_sensor_and_edge_validation():
    ok = RequestProfile(1.0, 100.0)
    with pytest.raises(ValueError):
        Sensor(id=-1, pos=Point2D(0, 0), fire_history=0, request=ok)
    with pytest.raises(ValueError):
        Sensor(id=0, pos=Point2D(0, 0), fire_history=-1, request=ok)
    with pytest.raises(ValueError):
        EdgeNode(id=0, pos=Point2D(0, 0), capacity_mips=0.0)


def test_physical_params_derived_geometry():
    p = PhysicalParams()
    assert p.side_m == pytest.approx(10000.0)
    assert p.area_m2 == pytest.approx(100e6)
    assert p.diag_m == pytest.approx(10000.0 * math.sqrt(2.0))


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(v_g=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(m_max=0)
    with pytest.raises(ValueError):
        PhysicalParams(per_hop_latency_s=-1.0)
    # deadline cannot exceed the revisit ceiling
    with pytest.raises(ValueError):
        PhysicalParams(t_urgent_s=4000.0, t_max_s=3600.0)


def test_algo_params_validation():
    with pytest.raises(ValueError):
        AlgoParams(omega_h=-0.1)
    with pytest.raises(ValueError):
        AlgoParams(omega_d=0.6, omega_l=0.3)   # must sum to 1
    with pytest.raises(ValueError):
        AlgoParams(theta_max=0.0)
    with pytest.raises(ValueError):
        AlgoParams(epsilon_m=0.0)
    assert AlgoParams(omega_d=0.5, omega_l=0.5).omega_d == 0.5


def test_enums_round_trip():
    assert FleetInitMode("one") is FleetInitMode.ONE
    assert FleetInitMode("coverage") is FleetInitMode.COVERAGE


def test_link_ranges_examples():
    assert link_ranges(PhysicalParams(r_s=500, r_g=1000, r_e=2000)) == (500, 1000, 500)
    assert link_ranges(PhysicalParams(r_s=100, r_g=100, r_e=100)) == (100, 100, 100)
    assert link_ranges(PhysicalParams(r_s=2000, r_g=100, r_e=500)) == (100, 100, 500)


def test_partition_boundary_inclusive():
    # r_se = min(r_s, r_e) = 500; boundary sensor counts as direct
    specs = [(499.0, 0, 0, 1, 100), (500.0, 0, 0, 1, 100), (500.1, 0, 0, 1, 100)]
    sc = build_scenario([(x, y, h, a, b) for x, y, h, a, b in specs],
                        [(0, 0, 5000)])
    uav, direct_map, _ = assign_direct(sc)
    assert sorted(direct_map) == [0, 1]
    assert uav.tolist() == [2]


def test_partition_no_edges_all_uav():
    sc = build_scenario([(10, 10, 0, 1, 100), (20, 20, 0, 1, 100)], [])
    uav, direct_map, load = assign_direct(sc)
    assert direct_map == {}
    assert uav.tolist() == [0, 1]
    assert load.loads_mips == []


@given(st.lists(st.tuples(st.floats(0, 10000), st.floats(0, 10000)),
                min_size=1, max_size=20),
       st.lists(st.tuples(st.floats(0, 10000), st.floats(0, 10000)),
                min_size=1, max_size=4))
def test_partition_disjoint_exhaustive(sensor_xy, edge_xy):
    sc = build_scenario([(x, y, 0, 1.0, 100.0) for x, y in sensor_xy],
                        [(x, y, 5000.0) for x, y in edge_xy])
    uav, direct_map, _ = assign_direct(sc)
    assert sorted([*direct_map, *uav.tolist()]) == [s.id for s in sc.sensors]
    assert not (set(direct_map) & set(uav.tolist()))


def test_derive_seed_stable_and_label_sensitive():
    a = derive_seed(0, "kmeans-m3")
    assert a == derive_seed(0, "kmeans-m3")
    assert a != derive_seed(0, "kmeans-m4")
    assert a != derive_seed(1, "kmeans-m3")
    assert 0 <= a < 2 ** 63
