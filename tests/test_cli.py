import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim import cli, rebalance
from cvrsim import scenario as scenario_mod
from cvrsim.cli import main
from cvrsim.errors import ConfigValidationError
from cvrsim.roadnet import graph_from_json, graph_to_json, grid_graph
from cvrsim.scenario import DESK_PI, build_config, desk_document, set_sweep_value
from cvrsim.sim import DEFAULT_MFD, SCENARIO_KEYS, MFDParams, World

from oracles import audit_requests, brute_graph_owner, requests_from_csv
from test_scenario_keys import FIELDS as PINNED_FIELDS


def mini_scenario_doc(**sim_overrides):
    sim = {"horizon_s": 900.0, "baseline_accumulation": 1200, "seed": 3,
           "resolution_m": 100.0}
    sim.update(sim_overrides)
    return {
        "graph": {"grid": {"k": 5, "spacing_m": 200.0}},
        "demand": {
            "origin": {"node_counts": [0] * 18 + [5, 5, 0, 0, 0, 5, 5]},
            "destination": {"node_counts": [5, 5, 0, 0, 0, 5, 5] + [0] * 18},
            "gamma": 0.5,
            "profile": [[900.0, 80.0]],
        },
        "fleet": {"n_av": 5, "placement": "uniform"},
        "controller": {"name": "cvr", "r_m": 500.0},
        "sim": sim,
    }


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(mini_scenario_doc()))
    return str(path)


# -- schema validation -----------------------------------------------------------

def test_unknown_top_level_key_rejected():
    doc = mini_scenario_doc()
    doc["grpah"] = {}
    with pytest.raises(ConfigValidationError) as err:
        build_config(doc)
    assert "grpah" in err.value.field


def test_unknown_controller_key_rejected():
    doc = mini_scenario_doc()
    doc["controller"]["warp"] = 9
    with pytest.raises(ConfigValidationError) as err:
        build_config(doc)
    assert err.value.field == "controller.warp"


def test_missing_graph_file_names_field(tmp_path):
    doc = mini_scenario_doc()
    doc["graph"] = {"path": "no_such_net.json"}
    with pytest.raises(ConfigValidationError) as err:
        build_config(doc, base_dir=str(tmp_path))
    assert err.value.field == "graph.path"


def test_graph_needs_exactly_one_source():
    doc = mini_scenario_doc()
    doc["graph"] = {}
    with pytest.raises(ConfigValidationError):
        build_config(doc)


def test_mixture_demand_resolves_to_node_mass():
    doc = mini_scenario_doc()
    doc["demand"]["origin"] = {"mixture": [
        {"weight": 1.0, "mean": [400.0, 400.0], "cov": [[1e5, 0.0], [0.0, 1e5]]}]}
    cfg = build_config(doc)
    assert cfg.origin_mass.sum() == pytest.approx(1.0)
    assert cfg.mixture is not None


NOT_SWEEPABLE = ("{!r} is not sweepable; choose from ['alpha', 'control_period_s', 'gamma', "
                 "'k_i', 'k_p', 'n_av', 'y_ref']")


def test_sweep_value_setter_rejects_unknown_parameter():
    with pytest.raises(ConfigValidationError) as err:
        set_sweep_value(mini_scenario_doc(), "warp_factor", 9)
    assert (err.value.field, err.value.reason) == ("param", NOT_SWEEPABLE.format("warp_factor"))


def test_sweep_value_setter_replaces_entry():
    doc = set_sweep_value(mini_scenario_doc(), "gamma", 0.25)
    assert doc["demand"]["gamma"] == 0.25
    assert mini_scenario_doc()["demand"]["gamma"] == 0.5  # original untouched


# -- run ------------------------------------------------------------------------------

def test_run_writes_three_artifacts(scenario_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--scenario", scenario_path, "--out", str(out)])
    assert code == 0
    for name in ("metrics.json", "timeseries.csv", "requests.csv"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_requests"] > 0


def test_run_missing_scenario_reports_json_error(tmp_path, capsys):
    bad = tmp_path / "scn.json"
    doc = mini_scenario_doc()
    doc["graph"] = {"path": "missing.json"}
    bad.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation"
    assert err["field"] == "graph.path"


def broken_grid_document(defect):
    """The mini scenario's 5x5 grid as a graph document with one defect."""
    doc = graph_to_json(grid_graph(5, 200.0))
    if defect == "disconnected":
        doc["edges"] = [e for e in doc["edges"] if 24 not in e[:2]]
    elif defect == "duplicate_edge":
        doc["edges"].append(list(reversed(doc["edges"][0][:2])) + [200.0])
    elif defect == "nan_length":
        doc["edges"][0][2] = math.nan
    elif defect == "inf_bridge":  # corner node 24 hangs on one edge of infinite length
        doc["edges"] = [e for e in doc["edges"] if e[:2] != [19, 24]]
        next(e for e in doc["edges"] if e[:2] == [23, 24])[2] = math.inf
    elif defect == "nan_coord":
        doc["nodes"][7][1] = math.nan
    elif defect == "fractional_id":  # int() once read it as 7, so the graph was built
        doc["nodes"][7][0] = 7.5
    elif defect == "bool_endpoint":
        doc["edges"][0][1] = True
    elif defect == "string_length":
        doc["edges"][0][2] = "200.0"
    elif defect == "short_node":
        doc["nodes"][3] = doc["nodes"][3][:2]
    elif defect == "int_node":
        doc["nodes"][3] = 3
    elif defect == "dict_edge":
        doc["edges"][0] = dict(zip(("u", "v", "length_m"), doc["edges"][0]))
    return doc


def entry(doc, path):
    """The object at a dotted path such as ``demand.origin.mixture[1]``."""
    target = doc
    for part in re.findall(r"\w+", path):
        target = target[int(part)] if isinstance(target, list) else target.setdefault(part, {})
    return target


DESK_NODES = 400
MISSING = object()  # a value that deletes the entry instead of setting it
DELETED_KEYS = {"min_retarget_gain_m", "persistent_private_trips", "graph_hold_score",
                "linear_slope", "node_mass"}


# An int beyond the float range, at each number a scenario reads it in; these
# once ended in an OverflowError traceback.
OVERFLOW_ROWS = [
    pytest.param(section, key, value(sign * 10**400),
                 id=f"{section}-{key}-{'minus-' if sign < 0 else ''}1e400")
    for sign in (1, -1)
    for section, key, value in [
        ("sim", "horizon_s", lambda big: big),
        ("demand", "gamma", lambda big: big),
        ("demand", "profile", lambda big: [[big, 75.0]]),
        ("graph.grid", "spacing_m", lambda big: big),
        ("demand.origin.mixture[0]", "weight", lambda big: big),
        ("demand.origin.mixture[0]", "mean", lambda big: [big, 3400.0]),
        ("demand", "origin", lambda big: {"node_counts": [big] + [1] * (DESK_NODES - 1)}),
    ]
]


# A value pytest cannot name (a list or an object) gets an explicit id, so a row
# inserted above it renames no case. The ids are the names these cases had.
@pytest.mark.parametrize("section, key, value", [
    ("sim", "resolution_m", 0.0),
    ("sim", "resolution_m", math.nan),
    ("sim", "seed", -1),
    ("sim", "seed", math.inf),
    ("fleet", "n_av", 2.5),
    ("fleet", "n_av", math.nan),
    ("controller", "r_graph_m", -100.0),
    ("controller", "r_graph_m", math.inf),
    ("sim", "pickup_tolerance_s", -1.0),
    ("sim", "pickup_tolerance_s", math.nan),
    ("sim", "match_tolerance_s", -1.0),
    ("sim", "horizon_s", math.inf),
    ("sim", "horizon_s", math.nan),
    ("graph.grid", "k", 1),
    ("graph.grid", "spacing_m", -5.0),
    ("graph.grid", "spacing_m", math.nan),
    ("graph", "path", "disconnected"),
    ("graph", "path", "duplicate_edge"),
    ("sim.mfd", "jam_accumulation", 100.0),
    ("sim.mfd", "free_flow_mps", -3.0),
    ("sim.mfd", "free_flow_mps", math.inf),
    ("sim.mfd", "exp_rate", -1e-4),
    ("sim.mfd", "exp_cutoff", -1.0),
    ("sim.mfd", "linear_intercept", -1.0),
    # values of the wrong JSON type are rejected, never coerced
    ("controller", "r_m", "abc"),
    ("controller", "r_m", "1000"),
    ("controller", "r_m", None),
    ("controller", "alpha", None),
    ("sim", "horizon_s", True),
    pytest.param("sim", "tick_s", [1], id="sim-tick_s-value33"),
    ("demand", "gamma", "0.5"),
    ("demand", "gamma", 1.5),
    pytest.param("demand", "profile", [[-5.0, 75.0]], id="demand-profile-value35"),
    # node vectors must be finite
    pytest.param("demand", "origin", {"node_counts": [math.nan] + [1] * (DESK_NODES - 1)},
                 id="demand-origin-value37"),
    pytest.param("demand", "origin", {"node_counts": [math.inf] + [1] * (DESK_NODES - 1)},
                 id="demand-origin-value38"),
    # each mixture is checked once, whichever controller reads it
    ("demand.origin.mixture[1]", "weight", 0.5),
    ("demand.destination.mixture[1]", "weight", 0.6),
    ("demand.origin.mixture[0]", "weight", -0.3),
    ("demand.origin.mixture[0]", "mean", math.nan),
    pytest.param("demand.origin.mixture[0]", "mean", [3400.0, 3400.0, 0.0],
                 id="demand.origin.mixture[0]-mean-value43"),
    pytest.param("demand.origin.mixture[0]", "cov", [[1.0]],
                 id="demand.origin.mixture[0]-cov-value44"),
    pytest.param("demand.origin.mixture[0]", "cov", [[640000.0, 500000.0], [0.0, 640000.0]],
                 id="demand.origin.mixture[0]-cov-value45"),
    # non-finite graph values: an infinite bridge edge once made the run endless
    ("graph", "path", "nan_length"),
    ("graph", "path", "inf_bridge"),
    ("graph", "path", "nan_coord"),
    # values of the wrong kind in the graph file are rejected, never truncated or coerced
    ("graph", "path", "fractional_id"),
    ("graph", "path", "bool_endpoint"),
    ("graph", "path", "string_length"),
    # an entry that is not [id, x_m, y_m] or [u, v, length_m] is named by its index
    ("graph", "path", "short_node"),
    ("graph", "path", "int_node"),
    ("graph", "path", "dict_edge"),
    # finite, but on the desk's 20x20 grid a coordinate (1e308) or the edge total
    # (1e306) overflows
    ("graph.grid", "spacing_m", 1e308),
    ("graph.grid", "spacing_m", 1e306),
    # a demand source, a mixture or a profile of the wrong shape
    pytest.param("demand", "profile", MISSING, id="demand-profile-missing"),
    pytest.param("demand.origin.mixture[0]", "cov", MISSING,
                 id="demand.origin.mixture[0]-cov-missing"),
    pytest.param("demand.origin", "mixture", [], id="demand.origin-mixture-empty"),
    pytest.param("demand", "origin",
                 {"mixture": [{"weight": 1.0, "mean": [0.0, 0.0],
                               "cov": [[1.0, 0.0], [0.0, 1.0]]}],
                  "node_counts": [1] * DESK_NODES},
                 id="demand-origin-two-forms"),
    pytest.param("demand", "origin",  # the density underflows to 0 at every node
                 {"mixture": [{"weight": 1.0, "mean": [1e7, 1e7],
                               "cov": [[1e7, 0.0], [0.0, 1e7]]}]},
                 id="demand-origin-vanishing-mixture"),
    pytest.param("demand", "profile", [[3600.0, 75.0, 1.0]], id="demand-profile-triple"),
    # positive at the desk node at its mean, but zero at every pixel center of the raster
    pytest.param("demand", "origin",
                 {"mixture": [{"weight": 1.0, "mean": [250.0, 250.0],
                               "cov": [[1e-4, 0.0], [0.0, 1e-4]]}]},
                 id="demand-origin-vanishing-raster"),
    # keys the schema no longer has are unknown, whatever their value
    ("controller", "min_retarget_gain_m", 0.0),
    ("sim", "persistent_private_trips", "no"),
    ("controller", "graph_hold_score", "false"),
    ("sim.mfd", "linear_slope", -0.01),
    ("sim.mfd", "linear_slope", math.nan),
    pytest.param("demand.origin", "node_mass",
                 [math.nan] + [1 / (DESK_NODES - 1)] * (DESK_NODES - 1),
                 id="demand.origin-node_mass-value"),
    *OVERFLOW_ROWS,
    pytest.param("sim.mfd", "exp_cutoff", 10**400, id="sim.mfd-exp_cutoff-1e400"),
    # more vehicles, or grid nodes, than a numpy array can index
    pytest.param("fleet", "n_av", 10**30, id="fleet-n_av-1e30"),
    pytest.param("graph.grid", "k", 10**30, id="graph.grid-k-1e30"),
    # a raster of the desk box with more pixels than an array can index, or with
    # a pixel count beyond the float range; each is rejected before any array
    ("sim", "resolution_m", 1e-300),
    ("sim", "resolution_m", 1e-310),
    ("sim", "resolution_m", 1e-6),
])
def test_run_rejects_malformed_value_naming_field(tmp_path, capsys, section, key, value):
    doc = desk_document()
    doc["sim"]["horizon_s"] = 60.0
    if (section, key) == ("graph", "path"):
        (tmp_path / "net.json").write_text(json.dumps(broken_grid_document(value)))
        doc["graph"] = {"path": "net.json"}
    elif value is MISSING:
        del entry(doc, section)[key]
    else:
        entry(doc, section)[key] = value
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation"
    assert err["field"] == f"{section}.{key}"
    if key in DELETED_KEYS:
        assert err["message"] == "unknown key"


@pytest.mark.parametrize("defect, message", [
    ("short_node", "node entry 3 must be [id, x_m, y_m], got [3, 600.0]"),
    ("int_node", "node entry 3 must be [id, x_m, y_m], got 3"),
    ("dict_edge", "edge entry 0 must be [u, v, length_m], got {'u': 0, 'v': 1, 'length_m': 200.0}"),
])
def test_run_names_a_graph_entry_of_another_shape(tmp_path, capsys, defect, message):
    # the entry once reached Python's unpacking, or had its dict keys read as values
    (tmp_path / "net.json").write_text(json.dumps(broken_grid_document(defect)))
    doc = mini_scenario_doc()
    doc["graph"] = {"path": "net.json"}
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (err["error"], err["field"]) == ("ConfigValidation", "graph.path")
    assert err["message"] == f"invalid graph: {message}"


@pytest.mark.parametrize("where", ["scenario", "graph file"])
def test_run_rejects_a_repeated_key(tmp_path, capsys, where):
    # json.load alone keeps the last of two equal keys: this fleet would run with n_av 0
    if where == "scenario":
        text = json.dumps(mini_scenario_doc()).replace(
            '"fleet": {"n_av": 5', '"fleet": {"n_av": 5, "n_av": 0')
        key, field = "n_av", ""
    else:
        doc = mini_scenario_doc()
        doc["graph"] = {"path": "net.json"}
        text = json.dumps(doc)
        graph = graph_to_json(grid_graph(5, 200.0))
        (tmp_path / "net.json").write_text(
            json.dumps(graph)[:-1] + ', "nodes": ' + json.dumps(graph["nodes"][:2]) + "}")
        key, field = "nodes", "graph.path"
    scenario = tmp_path / "scn.json"
    scenario.write_text(text)
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigValidation" and err["field"] == field
    assert f"repeated key {key!r}" in err["message"]
    assert not (tmp_path / "o").exists()


def fuzz_document():
    """A short planar run on a 4x4 grid touching every kind of scenario value."""
    return {
        "graph": {"grid": {"k": 4, "spacing_m": 300.0}},
        "demand": {
            "origin": {"mixture": [
                {"weight": 0.75, "mean": [600.0, 600.0], "cov": [[90000.0, 0.0], [0.0, 90000.0]]},
                {"weight": 0.25, "mean": [200.0, 300.0],
                 "cov": [[160000.0, 20000.0], [20000.0, 160000.0]]},
            ]},
            "destination": {"node_counts": [1, 2, 0, 1] * 4},
            "gamma": 0.5,
            "profile": [[300.0, 240.0]],
        },
        "fleet": {"n_av": 4},
        "controller": {"name": "cvr_alpha", "r_m": 500.0, "alpha": 0.5},
        "sim": {"horizon_s": 300.0, "tick_s": 1.0, "control_period_s": 10.0},
    }


def leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaf_paths(item, path + (i,))
    elif not isinstance(value, str):
        yield path


# every number, profile entries included
FUZZ_PATHS = list(leaf_paths(fuzz_document()))
FUZZ_VALUES = ["abc", "1", None, True, False, [1.0], math.nan, math.inf, -math.inf, -3.0, 0.5]


@settings(max_examples=120, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=st.sampled_from(FUZZ_VALUES))
def test_run_survives_any_mutated_value(path, value):
    doc = fuzz_document()
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scn.json"
        scenario.write_text(json.dumps(doc))
        code = main(["run", "--scenario", str(scenario), "--out", tmp])
        assert code in (0, 2)
        if code == 0:
            with open(Path(tmp) / "timeseries.csv") as fh:
                for row in csv.DictReader(fh):
                    fleet = sum(int(row[c]) for c in (
                        "n_idle_active", "n_idle_held", "n_assigned", "n_carrying"))
                    assert fleet == doc["fleet"]["n_av"]
            audit_requests(requests_from_csv(Path(tmp) / "requests.csv"),
                           json.loads((Path(tmp) / "metrics.json").read_text()))


def test_mfd_within_bounds_accepted():
    assert build_config(mini_scenario_doc()).mfd == DEFAULT_MFD
    doc = mini_scenario_doc(mfd={"exp_rate": 0.0, "exp_cutoff": 0.0})
    assert build_config(doc).mfd == MFDParams(exp_rate=0.0, exp_cutoff=0.0)
    # read by the number reader every other float key shares
    assert build_config(mini_scenario_doc(mfd={"free_flow_mps": np.int64(36)})).mfd == DEFAULT_MFD


def test_run_rejects_invalid_json(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text('{"graph": ')
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation"


def test_run_twice_is_byte_identical(scenario_path, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--scenario", scenario_path, "--out", str(out1)]) == 0
    assert main(["run", "--scenario", scenario_path, "--out", str(out2)]) == 0
    for name in ("metrics.json", "timeseries.csv", "requests.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_outcome(scenario_path, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", scenario_path, "--out", str(out1), "--seed", "3"])
    main(["run", "--scenario", scenario_path, "--out", str(out2), "--seed", "4"])
    assert (out1 / "requests.csv").read_text() != (out2 / "requests.csv").read_text()


# -- sweep ----------------------------------------------------------------------------

def test_sweep_single_value_matches_run(scenario_path, tmp_path, capsys):
    out_run = tmp_path / "run_out"
    main(["run", "--scenario", scenario_path, "--out", str(out_run), "--seed", "3"])
    run_metrics = json.loads((out_run / "metrics.json").read_text())

    out_sweep = tmp_path / "sweep_out"
    code = main(["sweep", "--scenario", scenario_path, "--param", "gamma",
                 "--values", "0.5", "--reps", "1", "--seed", "3",
                 "--out", str(out_sweep)])
    assert code == 0
    rows = (out_sweep / "sweep.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    row = dict(zip(header, rows[1].split(",")))
    assert float(row["completion_rate_pct_mean"]) == run_metrics["completion_rate_pct"]
    assert float(row["mean_system_time_s_mean"]) == run_metrics["mean_system_time_s"]
    assert float(row["theta"]) == 0.0  # single row normalizes to zero


def test_sweep_emits_row_per_value_with_percentiles(tmp_path, capsys):
    out = tmp_path / "sweep_out"
    doc = mini_scenario_doc()
    doc["controller"]["name"] = "cvr_alpha"
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code = main(["sweep", "--scenario", str(path), "--param", "alpha",
                 "--values", "0,0.2,0.4,0.6,0.8,1.0", "--reps", "2",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 7  # header + six values
    header = rows[0].split(",")
    assert "theta" in header
    assert "completion_rate_pct_p90" in header
    assert "mean_system_time_s_p25" in header


def test_sweep_reference_signal_grid(scenario_path, tmp_path, capsys):
    # the canonical tuning sweep: 30..120 step 10 with the combined score
    out = tmp_path / "sweep_out"
    doc = mini_scenario_doc()
    doc["controller"] = {"name": "cvr_pi", "r_m": 500.0, "y_hold": 4.0}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    values = ",".join(str(v) for v in range(30, 121, 10))
    code = main(["sweep", "--scenario", str(path), "--param", "y_ref",
                 "--values", values, "--reps", "1", "--out", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 11  # header + ten reference values
    header = rows[0].split(",")
    thetas = [float(r.split(",")[header.index("theta")]) for r in rows[1:]]
    assert all(0.0 <= t <= 2.0 for t in thetas)  # two min-max normalized terms


def strict_json(text):
    """The JSON value of ``text``, refusing NaN and Infinity, which RFC 8259 does not allow."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_an_infinite_metric_is_written_as_null(tmp_path, capsys):
    # beta 1e308 makes every cancellation's penalty, and so the mean system time, infinite
    doc = desk_document("do_nothing")
    doc["sim"].update(horizon_s=3600.0, beta=1e308)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    printed = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    written = strict_json((tmp_path / "o" / "metrics.json").read_text())
    assert printed == written
    assert written["mean_system_time_s"] is None and written["n_cancelled"] > 0


def test_sweep_aggregates_an_infinite_metric_as_infinite(tmp_path, capsys, monkeypatch):
    doc = desk_document("do_nothing")
    doc["sim"].update(horizon_s=3600.0, beta=1e308)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("AMOD_THREADS", "1")
    assert main(["sweep", "--scenario", str(path), "--param", "gamma", "--values", "0.5",
                 "--reps", "2", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    for stat in ["mean"] + [f"p{p}" for p in cli._PERCENTILES]:
        assert float(row[f"mean_system_time_s_{stat}"]) == math.inf
    assert math.isfinite(float(row["mean_wait_s_p50"]))


@pytest.mark.parametrize("extra, field", [
    # the integral overflows, and k_i * integral is 0 * inf
    ({"k_i": 0.0, "y_ref": 1e308}, "controller.y_ref"),
    # the proportional term overflows, and the two terms meet as inf - inf
    ({"k_p": 1e308, "k_i": 1e308}, "controller.k_p"),
], ids=["zero-k_i-huge-y_ref", "huge-gains"])
def test_pi_settings_whose_terms_overflow_are_rejected(tmp_path, capsys, extra, field):
    # each passes every check of its own, and once ended the run in a NaN traceback
    doc = desk_document("cvr_pi", controller_extra=extra)
    doc["sim"]["horizon_s"] = 3600.0
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (err["field"], err["message"]) == (
        field, "lets the PI adapter's terms leave the float range over the run")


def test_a_fleet_too_large_to_allocate_exits_2_with_one_json_line(tmp_path, capsys):
    # 10**18 vehicles pass the index bound, but their placement needs 8e18 bytes,
    # beyond any address space, so the allocation fails at once
    doc = desk_document("do_nothing")
    doc["sim"]["horizon_s"] = 60.0
    doc["fleet"]["n_av"] = 10**18
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "Memory"


def test_a_memory_error_is_one_json_line(scenario_path, tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 35.4 GiB")

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    assert main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out.splitlines() == [
        json.dumps({"error": "Memory", "message": "Unable to allocate 35.4 GiB"})]


def run_module(*args):
    """``python -m cvrsim.cli args`` in a new process, with this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "cvrsim.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_the_module_entry_point_exits_with_main_s_code(scenario_path, tmp_path):
    out = tmp_path / "out"
    done = run_module("run", "--scenario", scenario_path, "--out", str(out))
    assert (done.returncode, done.stderr) == (0, "")
    for name in ("metrics.json", "timeseries.csv", "requests.csv"):
        assert (out / name).exists()
    done = run_module("sweep", "--scenario", scenario_path, "--param", "warp", "--values", "1",
                      "--out", str(tmp_path))
    assert (done.returncode, done.stderr) == (2, "")
    (line,) = done.stdout.splitlines()
    assert json.loads(line)["field"] == "param"


def test_sweep_unknown_parameter_errors(scenario_path, tmp_path, capsys):
    code = main(["sweep", "--scenario", scenario_path, "--param", "warp",
                 "--values", "1", "--reps", "1", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ConfigValidation", "field": "param",
                   "message": NOT_SWEEPABLE.format("warp")}


@pytest.mark.parametrize("param, value, reader", [
    ("alpha", "0.5", "cvr_alpha"),
    ("y_ref", "60", "cvr_pi"),
])
def test_sweep_rejects_a_parameter_the_controller_never_reads(scenario_path, tmp_path, capsys,
                                                              monkeypatch, param, value, reader):
    # the document's controller is cvr, so every row would run one and the same scenario
    runs = counted_runs(monkeypatch)
    code = main(["sweep", "--scenario", scenario_path, "--param", param,
                 "--values", f"0,{value}", "--reps", "1", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ConfigValidation", "field": "param",
                   "message": f"controller 'cvr' never reads {param!r}; only {reader!r} does"}
    assert runs == [] and not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("threads", ["abc", "1.5", "0", "-2"])
def test_sweep_rejects_malformed_amod_threads(scenario_path, tmp_path, capsys, monkeypatch,
                                              threads):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep with a malformed AMOD_THREADS started work")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(cli, "_sweep_worker", no_work)
    monkeypatch.setenv("AMOD_THREADS", threads)
    code = main(["sweep", "--scenario", scenario_path, "--param", "gamma",
                 "--values", "0.5", "--reps", "2", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation" and err["field"] == "AMOD_THREADS"


def counted_runs(monkeypatch):
    """Count the scenarios a sweep runs in-process (AMOD_THREADS=1), still running them."""
    runs = []
    real = cli.run_scenario

    def counting(cfg):
        runs.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cli, "run_scenario", counting)
    monkeypatch.setenv("AMOD_THREADS", "1")
    return runs


@pytest.mark.parametrize("values", ["4,4", "4,4.0", "3,4,3"])
def test_sweep_rejects_repeated_values(scenario_path, tmp_path, capsys, monkeypatch, values):
    runs = counted_runs(monkeypatch)
    code = main(["sweep", "--scenario", scenario_path, "--param", "n_av",
                 "--values", values, "--reps", "1", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation" and err["field"] == "values"
    assert runs == [] and not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("option, text, field", [
    ("--values", "abc", "values"),
    ("--values", "3,,4", "values"),
    ("--reps", "0", "reps"),
])
def test_sweep_rejects_malformed_argument(scenario_path, tmp_path, capsys, monkeypatch,
                                          option, text, field):
    runs = counted_runs(monkeypatch)
    args = {"--param": "n_av", "--values": "3", "--reps": "1", option: text}
    code = main(["sweep", "--scenario", scenario_path, "--out", str(tmp_path)]
                + [part for pair in args.items() for part in pair])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation" and err["field"] == field
    assert runs == [] and not (tmp_path / "sweep.csv").exists()


def sweep_rows(path):
    with open(path / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_over_an_empty_fleet_writes_nan_waits(scenario_path, tmp_path, capsys,
                                                    monkeypatch):
    # numpy warns on the mean of an all-NaN sample, and pytest turns that into an error
    counted_runs(monkeypatch)
    assert main(["sweep", "--scenario", scenario_path, "--param", "n_av",
                 "--values", "0,3", "--reps", "2", "--out", str(tmp_path)]) == 0
    empty, fleet = sweep_rows(tmp_path)
    assert (empty["value"], fleet["value"]) == ("0", "3")
    assert float(empty["completion_rate_pct_mean"]) == 0.0
    waits = [column for column in empty if column.startswith("mean_wait_s_")]
    assert len(waits) == 5 and all(math.isnan(float(empty[c])) for c in waits)
    assert not any(math.isnan(float(fleet[c])) for c in waits)


def test_sweep_without_requests_scores_rebalancing_alone(tmp_path, capsys, monkeypatch):
    counted_runs(monkeypatch)
    doc = mini_scenario_doc()
    doc["demand"]["profile"] = [[900.0, 0.0]]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--scenario", str(path), "--param", "n_av",
                 "--values", "0,3", "--reps", "1", "--out", str(tmp_path)]) == 0
    rows = sweep_rows(tmp_path)
    assert all(math.isnan(float(row["mean_system_time_s_mean"])) for row in rows)
    assert [float(row["rebalance_distance_km_mean"]) > 0 for row in rows] == [False, True]
    assert [float(row["theta"]) for row in rows] == [0.0, 1.0]


def test_sweep_checks_every_value_before_any_run(scenario_path, tmp_path, capsys, monkeypatch):
    runs = counted_runs(monkeypatch)
    code = main(["sweep", "--scenario", scenario_path, "--param", "n_av",
                 "--values", "3,4,5,-5", "--reps", "1", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation" and err["field"] == "fleet.n_av"
    assert runs == []


@pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["document seed", "--seed"])
def test_sweep_never_reads_the_swept_key_s_own_value(tmp_path, capsys, monkeypatch, seed):
    # the document's fleet.n_av is invalid, but every run sets it; with or
    # without --seed the sweep checks exactly the configs it runs
    runs = counted_runs(monkeypatch)
    doc = mini_scenario_doc(horizon_s=60.0)
    doc["fleet"]["n_av"] = -1
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--scenario", str(path), "--param", "n_av", "--values", "3,4",
                 "--reps", "1", "--out", str(tmp_path)] + seed) == 0
    assert [(cfg.n_av, cfg.seed) for cfg in runs] == [(3, 3), (4, 3)]


def test_sweep_reads_a_graph_file_once_per_value(tmp_path, capsys, monkeypatch):
    counted_runs(monkeypatch)
    reads = []
    real = scenario_mod.graph_from_json

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(scenario_mod, "graph_from_json", counting)
    (tmp_path / "net.json").write_text(json.dumps(graph_to_json(grid_graph(5, 200.0))))
    doc = mini_scenario_doc(horizon_s=60.0)
    doc["graph"] = {"path": "net.json"}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--scenario", str(path), "--param", "n_av", "--values", "3,4",
                 "--reps", "3", "--out", str(tmp_path)]) == 0
    assert len(reads) == 2


def test_in_process_sweep_builds_one_oracle(scenario_path, tmp_path, capsys, monkeypatch,
                                            oracle_builds):
    runs = counted_runs(monkeypatch)
    code = main(["sweep", "--scenario", scenario_path, "--param", "n_av",
                 "--values", "3,6", "--reps", "2", "--out", str(tmp_path)])
    assert code == 0
    assert len(runs) == 4 and len(oracle_builds) == 1


def test_process_pool_and_in_process_sweeps_write_the_same_bytes(scenario_path, tmp_path,
                                                                   capsys, monkeypatch):
    args = ["sweep", "--scenario", scenario_path, "--param", "n_av",
            "--values", "3,6", "--reps", "2"]
    for threads in ("2", "1"):
        monkeypatch.setenv("AMOD_THREADS", threads)
        assert main(args + ["--out", str(tmp_path / threads)]) == 0
    pool, in_process = (tmp_path / threads / "sweep.csv" for threads in ("2", "1"))
    assert pool.read_bytes() == in_process.read_bytes()


def test_pool_sweep_reports_a_worker_rejection_on_its_field(tmp_path, capsys, monkeypatch):
    # only World finds this origin's raster empty, so the error comes back from a worker
    doc = mini_scenario_doc()
    doc["demand"]["origin"] = {"mixture": [{"weight": 1.0, "mean": [400.0, 400.0],
                                            "cov": [[1e-4, 0.0], [0.0, 1e-4]]}]}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("AMOD_THREADS", "2")
    code = main(["sweep", "--scenario", str(path), "--param", "n_av",
                 "--values", "3,4", "--reps", "1", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err == {"error": "ConfigValidation", "field": "demand.origin",
                   "message": "rasterized density is identically zero"}


def test_sweep_deterministic_across_invocations(scenario_path, tmp_path, capsys):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sweep", "--scenario", scenario_path, "--param", "n_av",
            "--values", "3,6", "--reps", "2"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


# -- gen-grid -----------------------------------------------------------------------------

def test_gen_grid_minimal(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["gen-grid", "--k", "2", "--spacing", "100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["nodes"]) == 4
    assert len(doc["edges"]) == 4
    assert all(e[2] == 100.0 for e in doc["edges"])


def test_gen_grid_output_reloads_cleanly(tmp_path, capsys):
    out = tmp_path / "net.json"
    main(["gen-grid", "--k", "20", "--spacing", "250", "--out", str(out)])
    g = graph_from_json(str(out))
    assert g.n_nodes == 400
    assert g.n_edges == 760


@pytest.mark.parametrize("k, spacing, field", [
    ("1", "100", "k"),
    ("0", "100", "k"),
    ("3", "-5", "spacing"),
    ("3", "0", "spacing"),
    ("3", "nan", "spacing"),
    ("3", "inf", "spacing"),
    ("3", "1e308", "spacing"),    # node 2 lies at x = inf
    ("2", "1.7e308", "spacing"),  # the four edge lengths add up to inf
    (str(10**30), "100", "k"),    # more nodes than a numpy array can index
])
def test_gen_grid_rejects_bad_arguments(tmp_path, capsys, k, spacing, field):
    out = tmp_path / "net.json"
    assert main(["gen-grid", "--k", k, "--spacing", spacing, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation" and err["field"] == field
    assert not out.exists()


def test_scenario_can_reference_generated_graph(tmp_path, capsys):
    net = tmp_path / "net.json"
    main(["gen-grid", "--k", "5", "--spacing", "200", "--out", str(net)])
    doc = mini_scenario_doc()
    doc["graph"] = {"path": "net.json"}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0


# -- inspect ----------------------------------------------------------------------------------

def test_inspect_initial_snapshot(scenario_path, tmp_path, capsys):
    out = tmp_path / "snap"
    code = main(["inspect", "--scenario", scenario_path, "--time", "0",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "snapshot_vehicles.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 5  # header + n_av rows
    assert (out / "snapshot_assignment.csv").exists()


def test_inspect_mid_run_counts_fleet(scenario_path, tmp_path, capsys):
    out = tmp_path / "snap"
    code = main(["inspect", "--scenario", scenario_path, "--time", "300",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "snapshot_vehicles.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 5


@pytest.mark.parametrize("controller", ["cvr_graph", "lp"])
def test_inspect_graph_assignment_is_the_idle_nodes_voronoi(tmp_path, capsys, controller):
    doc = mini_scenario_doc()
    doc["controller"] = {"name": controller}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "snap"
    assert main(["inspect", "--scenario", str(path), "--time", "300", "--out", str(out)]) == 0
    world = World(build_config(doc))
    world.run(until=300.0)
    idle_nodes = set(world.fleet.node[world.idle_ids()].tolist())  # each one's forward node
    assert idle_nodes
    owner = brute_graph_owner(world.oracle.dist, idle_nodes)
    with open(out / "snapshot_assignment.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "generator_node"]
    assert rows[1:] == [[str(node), str(gen)] for node, gen in enumerate(owner.tolist())]


@pytest.mark.parametrize("controller, header", [("cvr", "pixel_x,pixel_y,generator_index"),
                                                ("cvr_graph", "node,generator_node")])
def test_inspect_without_idle_vehicles_writes_the_controllers_header(tmp_path, capsys,
                                                                      controller, header):
    doc = mini_scenario_doc()
    doc["controller"] = {"name": controller}
    doc["fleet"]["n_av"] = 0
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "snap"
    assert main(["inspect", "--scenario", str(path), "--time", "60", "--out", str(out)]) == 0
    assert (out / "snapshot_assignment.csv").read_text().splitlines() == [header]


DESK_SCENARIO = Path(__file__).resolve().parent.parent / "demos" / "desk_scenario.json"
# sha256 of snapshot_vehicles.csv at t = 3600 s on the desk scenario. The
# destination column is the node each vehicle drives to, empty when it has none.
DESK_SNAPSHOT_3600_SHA256 = "49e2acd5c43d5bd802a9944680af486adbd8002ae40ff6bc2ce293f157b19874"
# sha256 of snapshot_assignment.csv at the same time: the pixel rows of the
# planar cvr controller, each pixel's center and the id of its idle generator.
DESK_ASSIGNMENT_3600_SHA256 = "142fa4994c92201825fd45dace01b92d1b311d2c07c8c230ba1376b22a8b9e55"


def test_inspect_desk_snapshot_is_pinned(tmp_path, capsys):
    out = tmp_path / "snap"
    assert main(["inspect", "--scenario", str(DESK_SCENARIO), "--time", "3600",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "snapshot_vehicles.csv").read_bytes()).hexdigest()
    assert digest == DESK_SNAPSHOT_3600_SHA256
    digest = hashlib.sha256((out / "snapshot_assignment.csv").read_bytes()).hexdigest()
    assert digest == DESK_ASSIGNMENT_3600_SHA256


# sha256 of every `cvrsim run` artifact of the desk scenario, keyed by run
# label: each controller once, and cvr_pi again at a seed where the PI adapter
# holds the whole idle fleet. A refactor keeps these bytes, or says why they
# changed.
DESK_RUN_SHA256 = {
    "cvr": {
        "metrics.json": "5de9ae8a458a6e4df1d37e7b2a8898f5fd0ed3ad1215e89b2fa0db4c3647560e",
        "requests.csv": "902780a2749e530c1c44b22ebdb2b39ba28f1c0e292f8a3d64a9b8df88e17e7d",
        "timeseries.csv": "fb543274077e5504ef78a78226320d0fbca44004949511197804d9837b57c1ce",
    },
    "cvr_alpha": {
        "metrics.json": "22ac12cd08e2d04529f201727a247b3a6eb24b5743613f9ebce182745ec87137",
        "requests.csv": "22059f298ee6454a6ebba5fd00f19b463e675cc3466c98b347239b5dc03001e1",
        "timeseries.csv": "87b32327547caabab5ed76d17f985a98ada5b8465054d766c7e3f2f633bfbdcb",
    },
    "cvr_graph": {
        "metrics.json": "a1e4be8acdd861bfe625a866663d282ecb2ac9eeffe2ad29fa82d2ed1f6c6dae",
        "requests.csv": "700af007db1da44a4b59150202363684bad04c51e4d50240750a3626fdd07601",
        "timeseries.csv": "fe90a4684ec4140a167125a85fe63c58839acfaee76a315d54289dd6a55c9f3d",
    },
    "cvr_pi": {
        "metrics.json": "9911c07bf37d38bf6ec077a5ed98946b12d321676b3f65f07cb515b7580a3557",
        "requests.csv": "4bdb7ef20df17dbcdbb7c9ea08ae1c3f12a07c66c55105989f16c9520e1fccc4",
        "timeseries.csv": "863b424a4cbedb4079395ee25f41d40f9a5cc2f274a0edef7f9ab530afd700f7",
    },
    "cvr_pi_hold_all": {
        "metrics.json": "801abea5bcf4a4ac0c4f907485ed4c90e3e5b66f3c417523041f6da99e89790a",
        "requests.csv": "b4541798af44974309bddd0971015fe5ae68df2b10584bfab4f706bb1b9d6454",
        "timeseries.csv": "7b56959a0302999beb44ea73dc525c56f1882cc0832e83d75fac49df744fe901",
    },
    "do_nothing": {
        "metrics.json": "8f922e02558eb22194694eba9228a7713e45e338ad8f157738618e918a83d74a",
        "requests.csv": "42235271913bf054b7e0918c0cce50a11a1edb9678cd08834f34e5e9022683a1",
        "timeseries.csv": "819c8207474b27c4dd998e9268f39a36ad670e933aa3870601fb0810fcfac351",
    },
    "lp": {
        "metrics.json": "d7d84d5a086163ce08de9099dd68158bd7f35c4c7d265bd237c057f6a4dcd9ec",
        "requests.csv": "f748fa6aded1292a0c36bb07e5502559077cb4be340289adce9b811ba2cd365b",
        "timeseries.csv": "850c8707ba6b3df02defd4a0e1039bd931463487c00cf3705cab4e46d3122f02",
    },
}
# Controller settings of each pinned run beyond the desk scenario's own.
DESK_RUN_EXTRA = {
    "cvr_alpha": {"alpha": 0.3},
    "cvr_pi": DESK_PI,
    "cvr_pi_hold_all": {"name": "cvr_pi", **DESK_PI},
}
# The --seed of each pinned run that does not run at the scenario's own seed.
DESK_RUN_SEED = {"cvr_pi_hold_all": 15}  # 2 of its 35 PI updates hold all


@pytest.mark.parametrize("label", sorted(DESK_RUN_SHA256))
def test_desk_run_artifacts_are_pinned(tmp_path, capsys, monkeypatch, label):
    doc = json.loads(DESK_SCENARIO.read_text())
    doc["controller"].update({"name": label, **DESK_RUN_EXTRA.get(label, {})})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    holds_all = []

    def spy(state, mean_wait_s, mean_idle, n_av, n_idle_now):
        # the adapter's hold-all rule, y <= y_hold, read from its own inputs
        y = math.sqrt(max(mean_wait_s, 0.0) * max(n_av - mean_idle, 0.0))
        holds_all.append(y <= state.y_hold)
        return real(state, mean_wait_s, mean_idle, n_av, n_idle_now)

    real = rebalance.pi_update
    monkeypatch.setattr(rebalance, "pi_update", spy)
    seed = ["--seed", str(DESK_RUN_SEED[label])] if label in DESK_RUN_SEED else []
    assert main(["run", "--scenario", str(path), "--out", str(out)] + seed) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in DESK_RUN_SHA256[label]}
    assert digests == DESK_RUN_SHA256[label]
    if label == "cvr_pi_hold_all":  # the pin reaches the adapter's hold-all branch
        assert any(holds_all)


def test_desk_scenario_file_is_the_desk_document():
    # the pins above run the file; perfbench and the acceptance suite run desk_document
    assert json.loads(DESK_SCENARIO.read_text()) == {**desk_document("cvr"), "output_dir": "out"}


# -- paths that cannot be read or written ----------------------------------------------

def unusable_path_argv(case, scenario_path, tmp_path):
    """The argv of one command whose path cannot be used, and the error fields it must print."""
    a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
    a_file.write_text("")
    a_dir.mkdir()
    not_text = tmp_path / "not_text.json"
    not_text.write_bytes(b"\xff\xfe{")
    not_object = tmp_path / "not_object.json"
    not_object.write_text("[]")
    doc = mini_scenario_doc()
    doc["graph"] = {"path": "a_dir"}
    graph_dir = tmp_path / "graph_dir.json"
    graph_dir.write_text(json.dumps(doc))
    run = ["run", "--out", str(tmp_path / "o"), "--scenario"]
    sweep = ["sweep", "--scenario", scenario_path, "--param", "n_av", "--values", "3",
             "--reps", "1"]
    return {
        "--scenario is missing": (run + [str(tmp_path / "missing.json")],
                                  {"error": "FileNotFound"}),
        "--scenario is a directory": (run + [str(a_dir)], {"error": "IsADirectory"}),
        "--scenario is not UTF-8": (run + [str(not_text)],
                                    {"error": "ConfigValidation", "field": ""}),
        "--scenario is not an object": (run + [str(not_object)],
                                        {"error": "ConfigValidation", "field": ""}),
        "graph.path is a directory": (run + [str(graph_dir)],
                                      {"error": "ConfigValidation", "field": "graph.path"}),
        "run --out is a file": (["run", "--scenario", scenario_path, "--out", str(a_file)],
                                {"error": "FileExists"}),
        "inspect --out is a file": (
            ["inspect", "--scenario", scenario_path, "--time", "60", "--out", str(a_file)],
            {"error": "FileExists"}),
        "sweep --out is a file": (sweep + ["--out", str(a_file)], {"error": "FileExists"}),
        "gen-grid --out is a directory": (
            ["gen-grid", "--k", "2", "--spacing", "100", "--out", str(a_dir)],
            {"error": "IsADirectory"}),
    }[case]


@pytest.mark.parametrize("case", [
    "--scenario is missing", "--scenario is a directory", "--scenario is not UTF-8",
    "--scenario is not an object", "graph.path is a directory", "run --out is a file",
    "inspect --out is a file", "sweep --out is a file", "gen-grid --out is a directory"])
def test_unusable_path_exits_2_with_one_json_line(scenario_path, tmp_path, capsys, case):
    argv, want = unusable_path_argv(case, scenario_path, tmp_path)
    assert main(argv) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert {key: err[key] for key in want} == want


def test_sweep_to_an_unusable_out_runs_nothing(scenario_path, tmp_path, capsys, monkeypatch):
    runs = counted_runs(monkeypatch)
    argv, _ = unusable_path_argv("sweep --out is a file", scenario_path, tmp_path)
    assert main(argv) == 2
    assert runs == []


# -- scenario keys: the table, its pinned rejections and the README ------------------

def readme_key_table_keys() -> set:
    """Every fleet, controller and sim key named in the first column of README's key table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| key | type | default |\n", 1)[1].split("\n\n", 1)[0]
    first_cells = [row.split("|")[1] for row in table.splitlines()]
    return {key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)
            if key.startswith(("fleet.", "controller.", "sim."))}


def test_readme_key_table_names_every_scenario_key():
    assert {path for path, *_ in SCENARIO_KEYS.values()} == readme_key_table_keys()


def test_pinned_rejections_cover_every_scenario_key():
    assert {path: field for field, (path, *_) in SCENARIO_KEYS.items()} == PINNED_FIELDS


@pytest.mark.parametrize("time", ["nan", "-30", "inf"])
def test_inspect_rejects_time_outside_the_run(scenario_path, tmp_path, capsys, time):
    out = tmp_path / "snap"
    code = main(["inspect", "--scenario", scenario_path, "--time", time, "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["field"] == "time"
    assert not out.exists()


def test_inspect_beyond_horizon_fails(scenario_path, tmp_path, capsys):
    code = main(["inspect", "--scenario", scenario_path, "--time", "5000",
                 "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["field"] == "time"
