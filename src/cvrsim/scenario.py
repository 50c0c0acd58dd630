"""Scenario documents: JSON schema, validation, and ready-made instances.

A scenario file is a JSON object with sections ``graph``, ``demand``,
``fleet``, ``controller``, ``sim`` and an optional ``output_dir``. Unknown
and repeated keys anywhere are rejected so typos fail loudly, and every value
must have its JSON type: a string is not a number.
:func:`build_config` turns a parsed document into a runnable
:class:`~cvrsim.sim.SimConfig`. Every key of the fleet, controller and sim
sections is declared once, in :data:`cvrsim.sim.SCENARIO_KEYS`: its path, its
JSON type (which picks its parser here) and its range. It takes its default
from :class:`~cvrsim.sim.SimConfig`.

:func:`desk_scenario` builds the small 20x20-grid benchmark used by the
test suite and the demos: a north-east origin hot spot, a destination
distribution blended toward its complement, and a low-high-low arrival
profile of roughly 300 requests over three hours.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import reprlib

import numpy as np

from . import demand
from .errors import ConfigValidationError
from .plane import mixture_density
from .roadnet import RoadGraph, graph_from_json, grid_graph, load_json
from .sim import DEFAULT_MFD, SCENARIO_KEYS, MFDParams, SimConfig

_SECTIONS = {"graph", "demand", "fleet", "controller", "sim", "output_dir"}
_GRAPH_KEYS = {"path", "grid"}
_GRID_KEYS = {"k", "spacing_m"}
_DEMAND_KEYS = {"origin", "destination", "gamma", "profile"}
_SOURCE_KEYS = {"mixture", "node_counts"}
_COMPONENT_KEYS = {"weight", "mean", "cov"}
_MFD_KEYS = {f.name for f in dataclasses.fields(MFDParams)}


def _reject_unknown(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigValidationError(where, f"must be a JSON object, got {section!r}")
    unknown = set(section) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigValidationError(f"{where}.{key}", "unknown key")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigValidationError(f"{where}.{key}", "missing required entry")
    return section[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, field: str) -> float:
    """A JSON number as a float; strings, flags and null are not numbers."""
    if not _is_number(value):
        raise ConfigValidationError(field, f"must be a number, got {value!r}")
    return float(value)


def _integer(value, field: str) -> int:
    """A whole JSON number as an int; fractions, NaN and infinities are rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise ConfigValidationError(field, f"must be a whole number, got {value!r}")
    return int(value)


def _text(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigValidationError(field, f"must be a string, got {value!r}")
    return value


def _numbers(value, shape: tuple, field: str) -> np.ndarray:
    """A JSON array of finite numbers with exactly the given shape, as floats."""
    arr = np.array(value, dtype=object)
    if arr.shape != shape or not all(_is_number(x) and math.isfinite(x) for x in arr.flat):
        raise ConfigValidationError(
            field, f"must be finite numbers in the shape {list(shape)}, got {reprlib.repr(value)}")
    return arr.astype(np.float64)


def _mfd(value, field: str) -> MFDParams:
    """The accumulation-speed relation; SimConfig.validate checks each value."""
    _reject_unknown(value, _MFD_KEYS, field)
    return dataclasses.replace(DEFAULT_MFD, **value)


# Each key of SCENARIO_KEYS is read at the (section, key) of its dotted path
# by the parser of its JSON type. An absent key takes its field's default, and
# a key whose field has no default is required.
_PARSERS = {int: _integer, float: _number, str: _text, MFDParams: _mfd}
_PATHS = {field: tuple(entry[0].split(".")) for field, entry in SCENARIO_KEYS.items()}
_SECTION_KEYS = {name: {key for section, key in _PATHS.values() if section == name}
                 for name, _ in _PATHS.values()}
_REQUIRED = {f.name for f in dataclasses.fields(SimConfig) if f.default is dataclasses.MISSING}

SWEEPABLE = {"gamma": ("demand", "gamma")} | {
    field: _PATHS[field] for field in ("n_av", "control_period_s", "alpha", "y_ref", "k_p", "k_i")}


def load_scenario(path: str) -> dict:
    try:
        doc = load_json(path)
    except ValueError as exc:  # a JSONDecodeError, bytes that are not UTF-8, a repeated key
        raise ConfigValidationError("", f"scenario is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigValidationError("", "scenario document must be a JSON object")
    return doc


def _parse_mixture(raw, where: str) -> list:
    """Checked (weight, mean, cov) components of a 2-D Gaussian mixture.

    Weights are finite, nonnegative and sum to one within 1e-9; a mean is two
    finite numbers; a covariance is a finite, symmetric, positive definite
    2x2 matrix. Each failure names the offending component entry.
    """
    if not isinstance(raw, list) or not raw:
        raise ConfigValidationError(where, f"need a nonempty list of components, got {raw!r}")
    components = []
    for i, comp in enumerate(raw):
        at = f"{where}[{i}]"
        _reject_unknown(comp, _COMPONENT_KEYS, at)
        weight = _number(_require(comp, "weight", at), f"{at}.weight")
        if not (math.isfinite(weight) and weight >= 0):
            raise ConfigValidationError(f"{at}.weight", f"must be finite and nonnegative, got {weight}")
        mean = _numbers(_require(comp, "mean", at), (2,), f"{at}.mean")
        cov = _numbers(_require(comp, "cov", at), (2, 2), f"{at}.cov")
        if cov[0, 1] != cov[1, 0]:
            raise ConfigValidationError(f"{at}.cov", f"must be symmetric, got {cov.tolist()}")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigValidationError(f"{at}.cov", f"not positive definite: {cov.tolist()}") from None
        components.append((weight, mean, cov))
    total = sum(weight for weight, _, _ in components)
    if abs(total - 1.0) > 1e-9:  # named at the last weight, which closes the sum
        raise ConfigValidationError(f"{where}[{len(raw) - 1}].weight",
                                    f"weights sum to {total!r}, expected 1")
    return components


def _demand_source(source, graph: RoadGraph, where: str) -> tuple[np.ndarray, list | None]:
    """A demand source's node mass, and its parsed mixture (None for node counts)."""
    _reject_unknown(source, _SOURCE_KEYS, where)
    if len(source) != 1:
        raise ConfigValidationError(where, "need exactly one of mixture | node_counts")
    if "mixture" in source:
        components = _parse_mixture(source["mixture"], where + ".mixture")
        density = mixture_density(graph.coords, components)
        total = density.sum()
        if total <= 0:
            raise ConfigValidationError(where, "mixture density vanishes on every node")
        return density / total, components
    counts = _numbers(source["node_counts"], (graph.n_nodes,), where)
    try:
        return demand.mass_from_counts(counts), None
    except ValueError as exc:
        raise ConfigValidationError(where, str(exc)) from None


def checked_grid_graph(k: int, spacing_m: float, k_field: str, spacing_field: str) -> RoadGraph:
    """The k-by-k grid, once k >= 2 and the spacing is positive and finite.

    ``graph.grid`` and ``cvrsim gen-grid`` share this check, each naming its own fields.
    A spacing so large that a coordinate or the edge total overflows is rejected
    on the spacing field.
    """
    if k < 2:
        raise ConfigValidationError(k_field, f"grid needs k >= 2, got {k}")
    if not (math.isfinite(spacing_m) and spacing_m > 0):
        raise ConfigValidationError(spacing_field, f"must be positive and finite, got {spacing_m}")
    try:
        return grid_graph(k, spacing_m)
    except ValueError as exc:
        raise ConfigValidationError(spacing_field, str(exc)) from None


def build_config(doc: dict, base_dir: str = ".", seed_override: int | None = None) -> SimConfig:
    """Validate a scenario document and resolve it into a SimConfig."""
    _reject_unknown(doc, _SECTIONS, "scenario")
    if "output_dir" in doc:
        _text(doc["output_dir"], "output_dir")

    graph_sec = _require(doc, "graph", "scenario")
    _reject_unknown(graph_sec, _GRAPH_KEYS, "graph")
    if ("path" in graph_sec) == ("grid" in graph_sec):
        raise ConfigValidationError("graph", "need exactly one of path | grid")
    if "path" in graph_sec:
        name = _text(graph_sec["path"], "graph.path")
        path = os.path.join(base_dir, name)
        if not os.path.exists(path):
            raise ConfigValidationError("graph.path", f"no such file: {name}")
        try:
            graph = graph_from_json(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigValidationError("graph.path", f"invalid graph: {exc}") from None
    else:
        grid = graph_sec["grid"]
        _reject_unknown(grid, _GRID_KEYS, "graph.grid")
        graph = checked_grid_graph(
            _integer(_require(grid, "k", "graph.grid"), "graph.grid.k"),
            _number(_require(grid, "spacing_m", "graph.grid"), "graph.grid.spacing_m"),
            "graph.grid.k", "graph.grid.spacing_m")

    demand_sec = _require(doc, "demand", "scenario")
    _reject_unknown(demand_sec, _DEMAND_KEYS, "demand")
    origin_mass, mixture = _demand_source(
        _require(demand_sec, "origin", "demand"), graph, "demand.origin")
    dest_mass = origin_mass
    if "destination" in demand_sec:
        dest_mass, _ = _demand_source(demand_sec["destination"], graph, "demand.destination")
    if "gamma" in demand_sec:
        gamma = _number(demand_sec["gamma"], "demand.gamma")
        try:
            dest_mass = demand.synthesize_destination(
                dest_mass, demand.complement_mass(origin_mass), gamma)
        except ValueError as exc:
            raise ConfigValidationError("demand.gamma", str(exc)) from None
    raw_profile = _require(demand_sec, "profile", "demand")
    if not (isinstance(raw_profile, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in raw_profile)):
        raise ConfigValidationError(
            "demand.profile", "need a list of [duration_s, rate_per_hour] pairs")
    profile = [(_number(d, "demand.profile"), _number(r, "demand.profile")) for d, r in raw_profile]

    sections = {}
    for name, keys in _SECTION_KEYS.items():
        sections[name] = doc.get(name, {})
        _reject_unknown(sections[name], keys, name)
    values = {}
    for field, (path, kind, _, _) in SCENARIO_KEYS.items():
        section, key = _PATHS[field]
        if key in sections[section]:
            values[field] = _PARSERS[kind](sections[section][key], path)
        elif field in _REQUIRED:
            raise ConfigValidationError(path, "missing required entry")
    if seed_override is not None:
        values["seed"] = _integer(seed_override, SCENARIO_KEYS["seed"][0])
    cfg = SimConfig(graph=graph, origin_mass=origin_mass, destination_mass=dest_mass,
                    profile=profile, mixture=mixture, **values)
    cfg.validate()
    return cfg


def set_sweep_value(doc: dict, param: str, value) -> dict:
    """Return a copy of the scenario document with one sweepable entry replaced."""
    from .errors import UnknownParameterError

    if param not in SWEEPABLE:
        raise UnknownParameterError(
            f"{param!r} is not sweepable; choose from {sorted(SWEEPABLE)}")
    section, key = SWEEPABLE[param]
    out = json.loads(json.dumps(doc))
    out.setdefault(section, {})[key] = value
    return out


# ---------------------------------------------------------------------------
# Desk-scale benchmark family
# ---------------------------------------------------------------------------

DESK_K = 20
DESK_SPACING_M = 250.0
DESK_SPAN_M = DESK_SPACING_M * (DESK_K - 1)  # 4750 m

# Origin demand peaks in the north-east; the base destination distribution is
# a slightly shifted, flatter copy, so the two are similar but not equal and
# blending toward the origin complement creates a tunable imbalance.
DESK_ORIGIN_MIXTURE = [
    {"weight": 0.7, "mean": [3400.0, 3400.0], "cov": [[640000.0, 0.0], [0.0, 640000.0]]},
    {"weight": 0.3, "mean": [1800.0, 2400.0], "cov": [[1210000.0, 0.0], [0.0, 1210000.0]]},
]
DESK_DEST_MIXTURE = [
    {"weight": 0.6, "mean": [2900.0, 2900.0], "cov": [[810000.0, 0.0], [0.0, 810000.0]]},
    {"weight": 0.4, "mean": [1700.0, 1900.0], "cov": [[1440000.0, 0.0], [0.0, 1440000.0]]},
]
DESK_PROFILE = [[3600.0, 75.0], [3600.0, 150.0], [3600.0, 75.0]]
DESK_BASELINE_ACCUMULATION = 3200  # steady speed around 10 m/s for a 30-car fleet

# PI reference retuned for the desk fleet; the large-network defaults would
# sit below the hold-all threshold for the whole run.
DESK_PI = {"y_ref": 28.0, "y_hold": 10.0, "k_p": 0.2, "k_i": 0.4}


def desk_document(controller: str = "cvr", seed: int = 1, gamma: float = 0.5,
                  n_av: int = 30, control_period_s: float = 10.0,
                  controller_extra: dict | None = None) -> dict:
    controller_sec = {"name": controller, "r_m": 1000.0}
    if controller == "cvr_pi":
        controller_sec.update(DESK_PI)
    controller_sec.update(controller_extra or {})
    return {
        "graph": {"grid": {"k": DESK_K, "spacing_m": DESK_SPACING_M}},
        "demand": {
            "origin": {"mixture": copy.deepcopy(DESK_ORIGIN_MIXTURE)},
            "destination": {"mixture": copy.deepcopy(DESK_DEST_MIXTURE)},
            "gamma": gamma,
            "profile": copy.deepcopy(DESK_PROFILE),
        },
        "fleet": {"n_av": n_av, "placement": "uniform"},
        "controller": controller_sec,
        "sim": {
            "horizon_s": 10800.0,
            "control_period_s": control_period_s,
            "baseline_accumulation": DESK_BASELINE_ACCUMULATION,
            "seed": seed,
        },
    }


def desk_scenario(controller: str = "cvr", seed: int = 1, **kwargs) -> SimConfig:
    return build_config(desk_document(controller=controller, seed=seed, **kwargs))
