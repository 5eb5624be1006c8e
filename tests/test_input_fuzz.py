"""Fuzz the CLI's input boundary: mutate one field of a valid scenario, plan,
events or config document of the 40-sensor, 3-edge, seed-7 scenario and run
``firewatch`` in-process on it.

Every mutation either leaves the document valid, and the run exits 0, or
breaks it, and the run exits with a documented code (1 for a bad file, 2 for
a bad config value) and an error message, without a traceback.  The JSON
mutations are: drop an object key, replace a value by one of another JSON
type, make a number NaN, infinite or a bool, and put an id or an id map key
out of range.  Only the physical parameters of a scenario, which have
defaults equal to the generated values, may be dropped without breaking the
document.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firewatch.cli import main

N_SENSORS, N_EDGES, HORIZON_S = 40, 3, 7200.0
CONFIG = {"seed": "3", "omega_h": "1.5", "omega_l": "0.3", "lam": "0.1", "fleet_init": "one",
          "ga_pop": "50", "pso_iters": "100"}
# a config value of the right type that the flag's range rejects
CONFIG_OUT_OF_RANGE = {"seed": str(2 ** 63), "omega_h": "-1", "omega_l": "1.5", "lam": "-1",
                       "fleet_init": "most", "ga_pop": "1", "pso_iters": "-1"}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scen = root / "scenario.json"
    assert main(["generate", "--sensors", str(N_SENSORS), "--edges", str(N_EDGES),
                 "--seed", "7", "-o", str(scen)]) == 0
    assert main(["plan", "-s", str(scen), "-o", str(root / "plan")]) == 0
    assert main(["simulate", "-s", str(scen), "-p", str(root / "plan" / "plan.json"),
                 "--n-events", "3", "--horizon", str(HORIZON_S), "-o", str(root / "sim")]) == 0
    return {"scenario": json.loads(scen.read_text()),
            "plan": json.loads((root / "plan" / "plan.json").read_text()),
            "events": json.loads((root / "sim" / "events.json").read_text())}


def _id_bounds(m: int) -> dict:
    """Per document kind, the id fields (``*`` matching any key or index)
    and the id maps, each with the bound of its ids or keys."""
    n, p = N_SENSORS, N_EDGES
    return {
        "scenario": {("sensors", "*", "id"): n, ("edges", "*", "id"): p,
                     ("meta", "hotspot_sensor_ids", "*"): n},
        "plan": {("clustering", "assignment", "*"): m, ("assignment", "direct_map", "*"): p,
                 ("assignment", "cluster_map", "*"): p, ("routes", "*", "uav_id"): m,
                 ("routes", "*", "depot_edge_id"): p, ("routes", "*", "waypoints", "*"): n},
        "events": {("events", "*", "sensor_id"): n},
    }, {
        ("clustering", "assignment"): n, ("assignment", "direct_map"): n,
        ("assignment", "cluster_map"): m,
    }


def _mutations(kind: str, doc, m: int) -> list[tuple]:
    """Every (path, op, arg) mutation of one JSON document."""
    id_fields, id_maps = _id_bounds(m)
    out = []

    def walk(value, path):
        if path and isinstance(path[-1], str):
            out.append((path, "drop", None))
        if path:
            out.extend((path, "set", other) for other in (None, "1", [1], {"k": 1})
                       if type(other) is not type(value))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.extend((path, "set", bad) for bad in (float("nan"), float("inf"),
                                                       -float("inf"), True, False))
        for pattern, bound in id_fields[kind].items():
            if len(pattern) == len(path) and all(a in ("*", b) for a, b in zip(pattern, path)):
                out.extend([(path, "set", bound), (path, "set", -1)])
        if isinstance(value, dict):
            for key, v in value.items():
                if kind == "plan" and path in id_maps:
                    out.extend((path + (key,), "rekey", k)
                               for k in (str(id_maps[path]), "-1", "x"))
                walk(v, path + (key,))
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, path + (i,))

    walk(doc, ())
    return out


def _apply(doc, path, op, arg):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    elif op == "set":
        parent[path[-1]] = arg
    else:
        parent[arg] = parent.pop(path[-1])
    return doc


def _may_stay_valid(kind: str, path: tuple, op: str) -> bool:
    return kind == "scenario" and op == "drop" and len(path) == 2 and path[0] == "physical"


def _config_case(data) -> tuple[str, bool]:
    """A mutated config file's text and whether it stays valid."""
    cfg = dict(CONFIG)
    key = data.draw(st.sampled_from(sorted(CONFIG)))
    op = data.draw(st.sampled_from(["drop", "abc", "nan", "inf", "true", "no-equals"]
                                   + (["range"] if key in CONFIG_OUT_OF_RANGE else [])))
    if op == "drop":
        del cfg[key]
    else:
        cfg[key] = CONFIG_OUT_OF_RANGE[key] if op == "range" else op
    text = "".join(f"{k} {v}\n" if v == "no-equals" else f"{k} = {v}\n"
                   for k, v in cfg.items())
    return text, op == "drop"


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_input_exits_with_a_documented_code(docs, data):
    kind = data.draw(st.sampled_from(["scenario", "plan", "events", "config"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {name: tmp / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            files[name].write_text(json.dumps(doc))
        config = tmp / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in CONFIG.items()))
        if kind == "config":
            text, valid = _config_case(data)
            config.write_text(text)
        else:
            path, op, arg = data.draw(st.sampled_from(
                _mutations(kind, docs[kind], docs["plan"]["m"])))
            files[kind].write_text(json.dumps(_apply(docs[kind], path, op, arg)))
            valid = _may_stay_valid(kind, path, op)
        out = ["-s", str(files["scenario"]), "-o", str(tmp / "out")]
        if kind in ("scenario", "config"):
            rc, err = _run(["plan", *out, "--config", str(config)])
        else:
            rc, err = _run(["simulate", *out, "-p", str(files["plan"]),
                            "--events", str(files["events"]), "--horizon", str(HORIZON_S)])
    assert "Traceback" not in err
    if valid:
        assert rc == 0, err
    else:
        assert rc in (1, 2, 4), err
        assert "error" in err
