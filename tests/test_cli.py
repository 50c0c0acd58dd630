import csv
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim import cli
from cvrsim.cli import main
from cvrsim.demand import CANCELLED, COMPLETED, MATCHED, PENDING, PICKED_UP
from cvrsim.errors import ConfigValidationError, UnknownParameterError
from cvrsim.roadnet import graph_from_json, graph_to_json, grid_graph
from cvrsim.scenario import build_config, desk_document, set_sweep_value
from cvrsim.sim import DEFAULT_MFD


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


def test_sweep_value_setter_rejects_unknown_parameter():
    with pytest.raises(UnknownParameterError):
        set_sweep_value(mini_scenario_doc(), "warp_factor", 9)


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
    else:
        doc["edges"].append(list(reversed(doc["edges"][0][:2])) + [200.0])
    return doc


def entry(doc, path):
    """The object at a dotted path such as ``demand.origin.mixture[1]``."""
    target = doc
    for part in re.findall(r"\w+", path):
        target = target[int(part)] if isinstance(target, list) else target.setdefault(part, {})
    return target


DESK_NODES = 400


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
    ("sim.mfd", "linear_slope", -0.01),
    ("sim.mfd", "linear_slope", math.nan),
    # values of the wrong JSON type are rejected, never coerced
    ("controller", "r_m", "abc"),
    ("controller", "r_m", "1000"),
    ("controller", "r_m", None),
    ("controller", "alpha", None),
    ("controller", "graph_hold_score", "false"),
    ("sim", "persistent_private_trips", "no"),
    ("sim", "horizon_s", True),
    ("sim", "tick_s", [1]),
    ("demand", "gamma", "0.5"),
    ("demand", "profile", [[-5.0, 75.0]]),
    # node vectors must be finite
    ("demand", "origin", {"node_mass": [math.nan] + [1 / (DESK_NODES - 1)] * (DESK_NODES - 1)}),
    ("demand", "origin", {"node_counts": [math.nan] + [1] * (DESK_NODES - 1)}),
    ("demand", "origin", {"node_counts": [math.inf] + [1] * (DESK_NODES - 1)}),
    # each mixture is checked once, whichever controller reads it
    ("demand.origin.mixture[1]", "weight", 0.5),
    ("demand.destination.mixture[1]", "weight", 0.6),
    ("demand.origin.mixture[0]", "weight", -0.3),
    ("demand.origin.mixture[0]", "mean", math.nan),
    ("demand.origin.mixture[0]", "mean", [3400.0, 3400.0, 0.0]),
    ("demand.origin.mixture[0]", "cov", [[1.0]]),
    ("demand.origin.mixture[0]", "cov", [[640000.0, 500000.0], [0.0, 640000.0]]),
])
def test_run_rejects_malformed_value_naming_field(tmp_path, capsys, section, key, value):
    doc = desk_document()
    doc["sim"]["horizon_s"] = 60.0
    if (section, key) == ("graph", "path"):
        (tmp_path / "net.json").write_text(json.dumps(broken_grid_document(value)))
        doc["graph"] = {"path": "net.json"}
    else:
        entry(doc, section)[key] = value
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigValidation"
    assert err["field"] == f"{section}.{key}"


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
        "controller": {"name": "cvr_alpha", "r_m": 500.0, "alpha": 0.5,
                       "graph_hold_score": False},
        "sim": {"horizon_s": 300.0, "tick_s": 1.0, "control_period_s": 10.0,
                "persistent_private_trips": False},
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


# every number and flag except the profile's (a malformed profile is covered
# above and in test_demand)
FUZZ_PATHS = [p for p in leaf_paths(fuzz_document()) if p[:2] != ("demand", "profile")]
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
            check_terminal_states(Path(tmp))


def implied_statuses(row):
    """The statuses a requests.csv row's timestamps allow (its drop-off time is not written)."""
    if row["pickup_t"]:
        return {PICKED_UP, COMPLETED}
    if row["match_t"]:
        return {MATCHED}
    return {PENDING, CANCELLED}


def check_terminal_states(out_dir):
    """Every request is in one state that its timestamps allow, and the counts add up."""
    metrics = json.loads((out_dir / "metrics.json").read_text())
    with open(out_dir / "requests.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["id"]) for row in rows] == list(range(len(rows)))
    for row in rows:
        assert row["status"] in implied_statuses(row)
    statuses = [row["status"] for row in rows]
    assert metrics["n_requests"] == len(rows)
    assert metrics["n_orders"] == statuses.count(PICKED_UP) + statuses.count(COMPLETED)
    assert metrics["n_cancelled"] == statuses.count(CANCELLED)
    assert metrics["n_orders"] + metrics["n_cancelled"] + metrics["n_inflight"] \
        == metrics["n_requests"]


def test_mfd_within_bounds_accepted():
    assert build_config(mini_scenario_doc()).mfd == DEFAULT_MFD
    doc = mini_scenario_doc(mfd={"exp_rate": 0.0, "exp_cutoff": 0.0, "linear_slope": 0.002})
    assert build_config(doc).mfd.linear_slope == 0.002


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


def test_sweep_emits_row_per_value_with_percentiles(scenario_path, tmp_path, capsys):
    out = tmp_path / "sweep_out"
    code = main(["sweep", "--scenario", scenario_path, "--param", "alpha",
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


def test_sweep_unknown_parameter_errors(scenario_path, tmp_path, capsys):
    code = main(["sweep", "--scenario", scenario_path, "--param", "warp",
                 "--values", "1", "--reps", "1", "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "UnknownParameter"


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
