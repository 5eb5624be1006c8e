import json

import numpy as np
import pytest

from firewatch.model import PhysicalParams
from firewatch.reader import InputError
from firewatch.scenario import GenConfig, generate, load_scenario, save_scenario


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n_sensors=0)
    with pytest.raises(ValueError):
        GenConfig(n_edges=0)
    with pytest.raises(ValueError):
        GenConfig(hotspot_fraction=1.5)
    with pytest.raises(ValueError):
        GenConfig(alpha_range_mb=(5.0, 1.0))


def test_gen_config_integers_fit_int64():
    """The generator's seed and fire-history ceiling stay in the range numpy
    and the scenario reader take: a seed in [0, 2^63), a ceiling below 2^63."""
    assert GenConfig(seed=2 ** 63 - 1, fire_history_max=2 ** 63 - 1).seed == 2 ** 63 - 1
    for seed in (-1, 2 ** 63):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^63\), got {seed}"):
            GenConfig(seed=seed)
    for top in (0, 2 ** 63):
        with pytest.raises(ValueError,
                           match=rf"fire_history_max must be in \[1, 2\^63\), got {top}"):
            GenConfig(fire_history_max=top)


def test_generate_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    save_scenario(generate(GenConfig()), str(a))
    save_scenario(generate(GenConfig()), str(b))
    save_scenario(generate(GenConfig(seed=1)), str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generate_counts_and_ranges(default_scenario):
    sc = default_scenario
    side = sc.physical.side_m
    assert len(sc.sensors) == 200
    assert len(sc.edges) == 5
    assert len(sc.meta.hotspots) == 3
    for s in sc.sensors:
        assert 0.0 <= s.pos.x <= side and 0.0 <= s.pos.y <= side
        assert 1.0 <= s.request.data_size_mb <= 5.0
        assert 100.0 <= s.request.compute_mi <= 500.0
    for e in sc.edges:
        assert 0.0 <= e.pos.x <= side and 0.0 <= e.pos.y <= side
        assert 5000.0 <= e.capacity_mips <= 10000.0


def test_fire_history_bands(default_scenario):
    sc = default_scenario
    hot = set(sc.meta.hotspot_sensor_ids)
    assert hot == set(range(120))           # round(0.6 * 200)
    for s in sc.sensors:
        if s.id in hot:
            assert 50 <= s.fire_history <= 100
        else:
            assert 0 <= s.fire_history <= 10


def test_hotspot_sensors_score_higher(default_scenario):
    sc = default_scenario
    hot = set(sc.meta.hotspot_sensor_ids)
    mean_hot = np.mean([s.fire_history for s in sc.sensors if s.id in hot])
    mean_bg = np.mean([s.fire_history for s in sc.sensors if s.id not in hot])
    assert mean_hot > mean_bg


def test_hotspot_fraction_zero_degenerate():
    sc = generate(GenConfig(n_sensors=50, hotspot_fraction=0.0, seed=3))
    assert sc.meta.hotspot_sensor_ids == ()
    assert all(s.fire_history <= 10 for s in sc.sensors)


def test_alpha_mean_matches_range_midpoint():
    sc = generate(GenConfig(n_sensors=10_000, seed=11))
    mean = np.mean([s.request.data_size_mb for s in sc.sensors])
    assert abs(mean - 3.0) / 3.0 < 0.05


def test_round_trip_identity(tmp_path, small_scenario):
    path = tmp_path / "sc.json"
    save_scenario(small_scenario, str(path))
    assert load_scenario(str(path)) == small_scenario


def test_custom_physical_round_trip(tmp_path):
    p = PhysicalParams(area_km2=25.0, v_g=12.0, m_max=7)
    sc = generate(GenConfig(n_sensors=10, seed=2), p)
    path = tmp_path / "sc.json"
    save_scenario(sc, str(path))
    back = load_scenario(str(path))
    assert back.physical == p
    assert back == sc


def _corrupt(tmp_path, small_scenario, mutate):
    path = tmp_path / "sc.json"
    save_scenario(small_scenario, str(path))
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_rejects_negative_fire_history(tmp_path, small_scenario):
    path = _corrupt(tmp_path, small_scenario,
                    lambda d: d["sensors"][0].__setitem__("fire_history", -3))
    with pytest.raises(InputError, match="fire_history"):
        load_scenario(path)


def test_load_rejects_boolean_fire_history(tmp_path, small_scenario):
    path = _corrupt(tmp_path, small_scenario,
                    lambda d: d["sensors"][2].__setitem__("fire_history", True))
    with pytest.raises(InputError, match=r"sensors\[2\]\.fire_history"):
        load_scenario(path)


@pytest.mark.parametrize("m_max", [2.5, 3.0, True, "4"])
def test_load_rejects_non_integer_m_max(tmp_path, small_scenario, m_max):
    path = _corrupt(tmp_path, small_scenario,
                    lambda d: d["physical"].__setitem__("m_max", m_max))
    with pytest.raises(InputError, match=r"physical\.m_max"):
        load_scenario(path)


def test_load_rejects_out_of_square_sensor(tmp_path, small_scenario):
    path = _corrupt(tmp_path, small_scenario,
                    lambda d: d["sensors"][0].__setitem__("x", 1e9))
    with pytest.raises(InputError, match="outside"):
        load_scenario(path)


def test_load_rejects_non_contiguous_ids(tmp_path, small_scenario):
    path = _corrupt(tmp_path, small_scenario,
                    lambda d: d["sensors"][1].__setitem__("id", 99))
    with pytest.raises(InputError):
        load_scenario(path)


def test_load_rejects_missing_key(tmp_path, small_scenario):
    def drop(d):
        del d["physical"]
    path = _corrupt(tmp_path, small_scenario, drop)
    with pytest.raises(InputError, match="physical"):
        load_scenario(path)


@pytest.mark.parametrize("rows,index,key,value", [
    ("sensors", 1, "x", None),
    ("sensors", 1, "x", "abc"),
    ("sensors", 1, "y", [1.0]),
    ("sensors", 1, "data_size_mb", None),
    ("sensors", 1, "compute_mi", True),
    ("edges", 0, "capacity_mips", "fast"),
])
def test_load_names_a_malformed_number(tmp_path, small_scenario, rows, index, key, value):
    path = _corrupt(tmp_path, small_scenario,
                    lambda d: d[rows][index].__setitem__(key, value))
    with pytest.raises(InputError, match=rf"{rows}\[{index}\]\.{key}: must be a number"):
        load_scenario(path)


@pytest.mark.parametrize("row", [5, None, [0, 1.0, 2.0], "sensor"])
@pytest.mark.parametrize("rows", ["sensors", "edges"])
def test_load_rejects_a_row_that_is_not_an_object(tmp_path, small_scenario, rows, row):
    path = _corrupt(tmp_path, small_scenario, lambda d: d[rows].__setitem__(0, row))
    with pytest.raises(InputError, match=rf"{rows}\[0\]: expected a JSON object"):
        load_scenario(path)


def test_load_rejects_sensors_that_are_not_a_list(tmp_path, small_scenario):
    path = _corrupt(tmp_path, small_scenario, lambda d: d.__setitem__("sensors", 3))
    with pytest.raises(InputError, match=r"sensors: expected a JSON array"):
        load_scenario(path)


@pytest.mark.parametrize("key,value,where", [
    ("hotspots", [5], r"meta\.hotspots\[0\]: expected a JSON object"),
    ("hotspots", [{"cx": 1.0, "cy": None, "sigma_m": 800.0}], r"meta\.hotspots\[0\]\.cy"),
    ("hotspots", 5, r"meta\.hotspots: expected a JSON array"),
    ("hotspot_sensor_ids", ["a"], r"meta\.hotspot_sensor_ids"),
])
def test_load_names_a_malformed_meta_field(tmp_path, small_scenario, key, value, where):
    path = _corrupt(tmp_path, small_scenario, lambda d: d["meta"].__setitem__(key, value))
    with pytest.raises(InputError, match=where):
        load_scenario(path)
