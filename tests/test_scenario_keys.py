"""Each scenario key's rejection, pinned: the field and reason a bad value gets.

A range case is checked through :func:`build_config` on the desk document and
as a programmatic :class:`SimConfig` passed to ``validate`` and to ``World``,
and every route must report the same (field, reason). A type case is a value of
the wrong JSON type, which the scenario parser rejects. A programmatic type
case is a wrong Python type set on a :class:`SimConfig`, which ``validate``
rejects. Every fleet, controller and sim key has at least one case.
"""

import dataclasses
import math
import reprlib
import sys

import numpy as np
import pytest

from cvrsim.errors import ConfigValidationError
from cvrsim.scenario import build_config, desk_document
from cvrsim.sim import DEFAULT_MFD, MFD_KEYS, MFDParams, SimConfig, World

inf, nan = math.inf, math.nan

# Each dotted scenario path and the SimConfig field it sets.
FIELDS = {
    "fleet.n_av": "n_av",
    "fleet.placement": "placement",
    "controller.name": "controller",
    "controller.r_m": "r_m",
    "controller.r_graph_m": "r_graph_m",
    "controller.alpha": "alpha",
    "controller.k_p": "k_p",
    "controller.k_i": "k_i",
    "controller.y_ref": "y_ref",
    "controller.y_hold": "y_hold",
    "sim.tick_s": "tick_s",
    "sim.control_period_s": "control_period_s",
    "sim.fleet_period_s": "fleet_period_s",
    "sim.horizon_s": "horizon_s",
    "sim.beta": "beta",
    "sim.match_tolerance_s": "match_tolerance_s",
    "sim.pickup_tolerance_s": "pickup_tolerance_s",
    "sim.baseline_accumulation": "baseline_accumulation",
    "sim.mfd": "mfd",
    "sim.resolution_m": "resolution_m",
    "sim.seed": "seed",
}

POSITIVE_RADIUS = "coverage radius must be positive"
PERIODS = "need tick <= control period <= fleet period"
MULTIPLE = "must be an integer multiple of the tick"
FLEET_SIZE = f"fleet size must lie in [0, {np.iinfo(np.intp).max}]"

# (path, bad value, field named, reason given)
RANGE_CASES = [
    ("fleet.n_av", -1, "fleet.n_av", FLEET_SIZE),
    # more vehicles than a numpy array can index
    ("fleet.n_av", 10**30, "fleet.n_av", FLEET_SIZE),
    ("fleet.placement", "corner", "fleet.placement", "unknown placement 'corner'"),
    # uniform is the one placement
    ("fleet.placement", "destination", "fleet.placement", "unknown placement 'destination'"),
    ("controller.name", "warp_drive", "controller.name", "unknown controller 'warp_drive'"),
    ("controller.r_m", 0.0, "controller.r_m", POSITIVE_RADIUS),
    ("controller.r_m", -1.0, "controller.r_m", POSITIVE_RADIUS),
    ("controller.r_m", nan, "controller.r_m", "must be finite, got nan"),
    ("controller.r_m", inf, "controller.r_m", "must be finite, got inf"),
    # the graph radius defaults to sqrt(2) * r_m, which overflows here
    ("controller.r_m", 1.5e308, "controller.r_graph_m", "must be finite, got inf"),
    ("controller.r_graph_m", 0.0, "controller.r_graph_m", "graph " + POSITIVE_RADIUS),
    ("controller.r_graph_m", -inf, "controller.r_graph_m", "must be finite, got -inf"),
    ("controller.r_graph_m", nan, "controller.r_graph_m", "must be finite, got nan"),
    ("controller.alpha", -0.1, "controller.alpha", "alpha must lie in [0, 1]"),
    ("controller.alpha", 1.5, "controller.alpha", "alpha must lie in [0, 1]"),
    ("controller.alpha", nan, "controller.alpha", "must be finite, got nan"),
    ("controller.k_p", inf, "controller.k_p", "must be finite, got inf"),
    ("controller.k_i", nan, "controller.k_i", "must be finite, got nan"),
    ("controller.y_ref", -inf, "controller.y_ref", "must be finite, got -inf"),
    ("controller.y_hold", nan, "controller.y_hold", "must be finite, got nan"),
    ("sim.tick_s", 0.0, "sim.tick_s", "tick must be positive"),
    ("sim.tick_s", -1.0, "sim.tick_s", "tick must be positive"),
    ("sim.tick_s", nan, "sim.tick_s", "must be finite, got nan"),
    ("sim.tick_s", 0.3, "sim.control_period_s", MULTIPLE),
    # a subnormal tick: the control period spans 1e310 ticks, which overflows
    ("sim.tick_s", 1e-309, "sim.control_period_s", "must span a finite number of ticks"),
    # the horizon spans 1.08e304 ticks, so the run would never end
    ("sim.tick_s", 1e-300, "sim.horizon_s", f"must span at most {sys.maxsize} ticks"),
    ("sim.control_period_s", -10.0, "sim.control_period_s", PERIODS),
    ("sim.control_period_s", 7.5, "sim.control_period_s", MULTIPLE),
    ("sim.control_period_s", 400.0, "sim.control_period_s", PERIODS),
    ("sim.control_period_s", inf, "sim.control_period_s", "must be finite, got inf"),
    ("sim.fleet_period_s", 5.0, "sim.control_period_s", PERIODS),
    ("sim.fleet_period_s", 305.5, "sim.fleet_period_s", MULTIPLE),
    ("sim.fleet_period_s", nan, "sim.fleet_period_s", "must be finite, got nan"),
    ("sim.horizon_s", -1.0, "sim.horizon_s", "horizon must be nonnegative"),
    ("sim.horizon_s", inf, "sim.horizon_s", "must be finite, got inf"),
    # an int beyond the float range is an infinity on every route
    ("sim.horizon_s", 10**400, "sim.horizon_s", "must be finite, got inf"),
    ("sim.beta", -0.5, "sim.beta", "beta must be nonnegative"),
    ("sim.beta", nan, "sim.beta", "must be finite, got nan"),
    ("sim.match_tolerance_s", -1.0, "sim.match_tolerance_s", "match tolerance must be nonnegative"),
    ("sim.match_tolerance_s", inf, "sim.match_tolerance_s", "must be finite, got inf"),
    ("sim.pickup_tolerance_s", -1.0, "sim.pickup_tolerance_s",
     "pickup tolerance must be nonnegative"),
    ("sim.pickup_tolerance_s", -inf, "sim.pickup_tolerance_s", "must be finite, got -inf"),
    ("sim.baseline_accumulation", -1, "sim.baseline_accumulation",
     "baseline accumulation must be nonnegative"),
    ("sim.mfd", {"free_flow_mps": 0.0}, "sim.mfd.free_flow_mps", "free-flow speed must be positive"),
    ("sim.mfd", {"free_flow_mps": inf}, "sim.mfd.free_flow_mps", "must be finite, got inf"),
    ("sim.mfd", {"exp_cutoff": 10**400}, "sim.mfd.exp_cutoff", "must be finite, got inf"),
    ("sim.mfd", {"exp_rate": -1e-4}, "sim.mfd.exp_rate", "decay rate must be nonnegative"),
    ("sim.mfd", {"exp_cutoff": -1.0}, "sim.mfd.exp_cutoff", "cutoff must be nonnegative"),
    ("sim.mfd", {"jam_accumulation": 100.0}, "sim.mfd.jam_accumulation",
     "jam accumulation must exceed exp_cutoff"),
    ("sim.mfd", {"linear_intercept": -1.0}, "sim.mfd.linear_intercept",
     "intercept must be nonnegative"),
    ("sim.resolution_m", 0.0, "sim.resolution_m", "raster resolution must be positive"),
    ("sim.resolution_m", -50.0, "sim.resolution_m", "raster resolution must be positive"),
    ("sim.resolution_m", nan, "sim.resolution_m", "must be finite, got nan"),
    ("sim.seed", -1, "sim.seed", "seed must be nonnegative"),
]

TYPE_CASES = [
    ("fleet.n_av", 2.5, "fleet.n_av", "must be a whole number, got 2.5"),
    ("fleet.n_av", "30", "fleet.n_av", "must be a whole number, got '30'"),
    ("fleet.placement", 1, "fleet.placement", "must be a string, got 1"),
    ("controller.name", None, "controller.name", "must be a string, got None"),
    ("controller.r_m", "1000", "controller.r_m", "must be a number, got '1000'"),
    ("controller.r_graph_m", None, "controller.r_graph_m", "must be a number, got None"),
    ("controller.alpha", True, "controller.alpha", "must be a number, got True"),
    ("controller.k_p", "0.2", "controller.k_p", "must be a number, got '0.2'"),
    ("controller.k_i", [0.4], "controller.k_i", "must be a number, got [0.4]"),
    ("controller.y_ref", None, "controller.y_ref", "must be a number, got None"),
    ("controller.y_hold", False, "controller.y_hold", "must be a number, got False"),
    ("sim.tick_s", [1], "sim.tick_s", "must be a number, got [1]"),
    ("sim.control_period_s", "10", "sim.control_period_s", "must be a number, got '10'"),
    ("sim.fleet_period_s", None, "sim.fleet_period_s", "must be a number, got None"),
    ("sim.horizon_s", True, "sim.horizon_s", "must be a number, got True"),
    ("sim.beta", {}, "sim.beta", "must be a number, got {}"),
    ("sim.match_tolerance_s", "60", "sim.match_tolerance_s", "must be a number, got '60'"),
    ("sim.pickup_tolerance_s", None, "sim.pickup_tolerance_s", "must be a number, got None"),
    ("sim.baseline_accumulation", 3200.5, "sim.baseline_accumulation",
     "must be a whole number, got 3200.5"),
    ("sim.mfd", [36.0], "sim.mfd", "must be a JSON object, got [36.0]"),
    ("sim.mfd", {"warp": 1.0}, "sim.mfd.warp", "unknown key"),
    ("sim.mfd", {"exp_cutoff": "high"}, "sim.mfd.exp_cutoff", "must be a number, got 'high'"),
    ("sim.resolution_m", "50", "sim.resolution_m", "must be a number, got '50'"),
    ("sim.seed", 1.5, "sim.seed", "must be a whole number, got 1.5"),
    ("sim.seed", True, "sim.seed", "must be a whole number, got True"),
]


# (SimConfig field, value of a wrong type, field named, reason given)
PROGRAMMATIC_TYPE_CASES = [
    ("n_av", 0.5, "fleet.n_av", "must be of type int, got 0.5"),
    ("n_av", True, "fleet.n_av", "must be of type int, got True"),
    ("placement", 1, "fleet.placement", "must be of type str, got 1"),
    ("r_m", "1", "controller.r_m", "must be of type float, got '1'"),
    ("r_graph_m", "1", "controller.r_graph_m", "must be of type float, got '1'"),
    ("alpha", None, "controller.alpha", "must be of type float, got None"),
    ("k_p", False, "controller.k_p", "must be of type float, got False"),
    ("tick_s", [1.0], "sim.tick_s", "must be of type float, got [1.0]"),
    ("baseline_accumulation", 3200.0, "sim.baseline_accumulation",
     "must be of type int, got 3200.0"),
    ("mfd", {"free_flow_mps": 36.0}, "sim.mfd",
     "must be of type MFDParams, got {'free_flow_mps': 36.0}"),
    ("mfd", MFDParams(exp_cutoff="high"), "sim.mfd.exp_cutoff",
     "must be of type float, got 'high'"),
    ("seed", 1.0, "sim.seed", "must be of type int, got 1.0"),
]

# Programmatic values of the right kind that JSON cannot write: numpy scalars,
# and ints where floats are expected. A scenario document built in Python
# may hold them too.
PROGRAMMATIC_ACCEPTED = [
    ("n_av", np.int64(30)), ("seed", np.int32(3)), ("r_m", 1000), ("r_graph_m", np.float64(900.0)),
    ("alpha", np.float32(0.25)), ("horizon_s", 10800), ("baseline_accumulation", np.uint16(3200)),
    ("tick_s", np.int64(2)),
]
PATHS = {field: path for path, field in FIELDS.items()}


def case_id(case):
    path, value = case[:2]
    return f"{path}={reprlib.repr(value)}"  # 10**400 as 1000...000


def rejection(call) -> tuple[str, str]:
    with pytest.raises(ConfigValidationError) as err:
        call()
    return err.value.field, err.value.reason


def document_with(path: str, value) -> dict:
    doc = desk_document("cvr")
    *sections, key = path.split(".")
    target = doc
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = value
    return doc


@pytest.fixture(scope="module")
def desk_config():
    return build_config(desk_document("cvr"))


def test_every_key_has_a_range_or_type_case():
    assert {path for path, *_ in RANGE_CASES + TYPE_CASES} == set(FIELDS)
    assert list(MFD_KEYS) == [f.name for f in dataclasses.fields(MFDParams)]


@pytest.mark.parametrize("path, value, field, reason", RANGE_CASES, ids=map(case_id, RANGE_CASES))
def test_range_case_names_the_same_field_both_ways(desk_config, path, value, field, reason):
    assert rejection(lambda: build_config(document_with(path, value))) == (field, reason)
    if path == "sim.mfd":
        value = dataclasses.replace(DEFAULT_MFD, **value)
    cfg = dataclasses.replace(desk_config, **{FIELDS[path]: value})
    assert rejection(cfg.validate) == (field, reason)
    assert rejection(lambda: World(cfg)) == (field, reason)


def test_the_pi_bound_names_the_horizon_when_a_window_of_waits_can_overflow():
    # 30 vehicles a tick, each waiting up to 1e307 s: a window's wait sum
    # could reach 3e308, beyond the float range
    cfg = build_config(desk_document("cvr_pi"))
    huge = dataclasses.replace(cfg, tick_s=1e300, control_period_s=1e300, fleet_period_s=1e300,
                               horizon_s=1e307)
    assert rejection(huge.validate) == (
        "sim.horizon_s", "lets the PI adapter's terms leave the float range over the run")
    dataclasses.replace(huge, controller="cvr").validate()  # only cvr_pi runs the adapter
    dataclasses.replace(huge, n_av=1).validate()


@pytest.mark.parametrize("path, value, field, reason", TYPE_CASES, ids=map(case_id, TYPE_CASES))
def test_type_case_names_its_field(path, value, field, reason):
    assert rejection(lambda: build_config(document_with(path, value))) == (field, reason)


# Keys the schema no longer has: a scenario that sets one is rejected like any
# unknown key, and the config object its section fills (MFDParams for sim.mfd,
# else SimConfig) has no field for it.
DELETED_CASES = [
    ("controller.min_retarget_gain_m", inf),
    ("controller.min_retarget_gain_m", "0"),
    ("sim.persistent_private_trips", "no"),
    ("sim.persistent_private_trips", 0),
    ("controller.graph_hold_score", "false"),
    ("controller.graph_hold_score", 1),
    ("sim.mfd.linear_slope", -0.01),
    ("sim.mfd.linear_slope", nan),
]


@pytest.mark.parametrize("path, value", DELETED_CASES, ids=map(case_id, DELETED_CASES))
def test_deleted_key_is_unknown(path, value):
    assert rejection(lambda: build_config(document_with(path, value))) == (path, "unknown key")
    *section, key = path.split(".")
    fields = MFDParams if section == ["sim", "mfd"] else SimConfig
    assert key not in {f.name for f in dataclasses.fields(fields)}


def test_section_and_key_structure_is_checked():
    doc = desk_document("cvr")
    doc["fleet"] = []
    assert rejection(lambda: build_config(doc)) == ("fleet", "must be a JSON object, got []")
    doc = desk_document("cvr")
    doc["sim"]["warp"] = 1
    assert rejection(lambda: build_config(doc)) == ("sim.warp", "unknown key")
    doc = desk_document("cvr")
    del doc["fleet"]
    assert rejection(lambda: build_config(doc)) == ("fleet.n_av", "missing required entry")
    doc = desk_document("cvr")
    del doc["controller"]["name"]
    assert rejection(lambda: build_config(doc)) == ("controller.name", "missing required entry")


def test_seed_override_is_checked_as_sim_seed():
    doc = desk_document("cvr")
    assert rejection(lambda: build_config(doc, seed_override=-1)) == \
        ("sim.seed", "seed must be nonnegative")
    assert rejection(lambda: build_config(doc, seed_override=2.5)) == \
        ("sim.seed", "must be a whole number, got 2.5")


@pytest.mark.parametrize("field, value, named, reason", PROGRAMMATIC_TYPE_CASES,
                         ids=map(case_id, PROGRAMMATIC_TYPE_CASES))
def test_programmatic_wrong_type_names_its_key(desk_config, field, value, named, reason):
    cfg = dataclasses.replace(desk_config, **{field: value})
    assert rejection(cfg.validate) == (named, reason)


@pytest.mark.parametrize("field, value", PROGRAMMATIC_ACCEPTED,
                         ids=map(case_id, PROGRAMMATIC_ACCEPTED))
def test_programmatic_numbers_of_any_numeric_type_validate(desk_config, field, value):
    dataclasses.replace(desk_config, **{field: value}).validate()
    assert getattr(build_config(document_with(PATHS[field], value)), field) == value
