"""Scenario documents: JSON schema, validation, and ready-made instances.

A scenario file is a JSON object with sections ``graph``, ``demand``,
``fleet``, ``controller``, ``sim`` and an optional ``output_dir``. Unknown
keys anywhere are rejected so typos fail loudly. :func:`build_config` turns
a parsed document into a runnable :class:`~cvrsim.sim.SimConfig`.

:func:`desk_scenario` builds the small 20x20-grid benchmark used by the
test suite and the demos: a north-east origin hot spot, a destination
distribution blended toward its complement, and a low-high-low arrival
profile of roughly 300 requests over three hours.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import demand
from .errors import ConfigValidationError
from .roadnet import RoadGraph, graph_from_json, grid_graph
from .sim import DEFAULT_MFD, MFDParams, SimConfig

_SECTIONS = {"graph", "demand", "fleet", "controller", "sim", "output_dir"}
_GRAPH_KEYS = {"path", "grid"}
_GRID_KEYS = {"k", "spacing_m"}
_DEMAND_KEYS = {"origin", "destination", "gamma", "profile"}
_SOURCE_KEYS = {"mixture", "node_counts", "node_mass"}
_COMPONENT_KEYS = {"weight", "mean", "cov"}
_FLEET_KEYS = {"n_av", "placement"}
_CONTROLLER_KEYS = {
    "name", "r_m", "r_graph_m", "alpha", "k_p", "k_i", "y_ref", "y_hold",
    "graph_hold_score", "min_retarget_gain_m",
}
_SIM_KEYS = {
    "tick_s", "control_period_s", "fleet_period_s", "horizon_s", "beta",
    "match_tolerance_s", "pickup_tolerance_s", "baseline_accumulation",
    "resolution_m", "seed", "persistent_private_trips", "mfd",
}
_MFD_KEYS = {"free_flow_mps", "exp_rate", "exp_cutoff", "jam_accumulation",
             "linear_intercept", "linear_slope"}

SWEEPABLE = {
    "gamma": ("demand", "gamma"),
    "n_av": ("fleet", "n_av"),
    "control_period_s": ("sim", "control_period_s"),
    "alpha": ("controller", "alpha"),
    "y_ref": ("controller", "y_ref"),
    "k_p": ("controller", "k_p"),
    "k_i": ("controller", "k_i"),
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigValidationError(f"{where}.{key}", "unknown key")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigValidationError(f"{where}.{key}", "missing required entry")
    return section[key]


def _integer(value, field: str) -> int:
    """A whole JSON number as an int; fractions, NaN and infinities are rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise ConfigValidationError(field, f"must be a whole number, got {value!r}")
    return int(value)


def load_scenario(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigValidationError("", "scenario document must be a JSON object")
    return doc


def _node_mass_from_source(source: dict, graph: RoadGraph, where: str) -> np.ndarray:
    _reject_unknown(source, _SOURCE_KEYS, where)
    if len(source) != 1:
        raise ConfigValidationError(where, "need exactly one of mixture | node_counts | node_mass")
    if "node_counts" in source:
        try:
            return demand.mass_from_counts(source["node_counts"])
        except ValueError as exc:
            raise ConfigValidationError(where, str(exc)) from None
    if "node_mass" in source:
        try:
            return demand.check_node_mass(source["node_mass"], where)
        except ValueError as exc:
            raise ConfigValidationError(where, str(exc)) from None
    components = _parse_mixture(source["mixture"], where + ".mixture")
    density = np.zeros(graph.n_nodes)
    for weight, mean, cov in components:
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigValidationError(where + ".mixture", "covariance not positive definite") from None
        delta = graph.coords - mean
        z = np.linalg.solve(chol, delta.T)
        quad = np.einsum("ij,ij->j", z, z)
        density += weight * np.exp(-0.5 * quad) / (2.0 * np.pi * chol[0, 0] * chol[1, 1])
    total = density.sum()
    if total <= 0:
        raise ConfigValidationError(where, "mixture density vanishes on every node")
    return density / total


def _parse_mixture(raw, where: str) -> list:
    components = []
    for i, comp in enumerate(raw):
        _reject_unknown(comp, _COMPONENT_KEYS, f"{where}[{i}]")
        components.append((
            float(_require(comp, "weight", f"{where}[{i}]")),
            np.asarray(_require(comp, "mean", f"{where}[{i}]"), dtype=np.float64),
            np.asarray(_require(comp, "cov", f"{where}[{i}]"), dtype=np.float64),
        ))
    return components


def build_config(doc: dict, base_dir: str = ".", seed_override: int | None = None) -> SimConfig:
    """Validate a scenario document and resolve it into a SimConfig."""
    _reject_unknown(doc, _SECTIONS, "scenario")

    graph_sec = _require(doc, "graph", "scenario")
    _reject_unknown(graph_sec, _GRAPH_KEYS, "graph")
    if ("path" in graph_sec) == ("grid" in graph_sec):
        raise ConfigValidationError("graph", "need exactly one of path | grid")
    if "path" in graph_sec:
        path = os.path.join(base_dir, graph_sec["path"])
        if not os.path.exists(path):
            raise ConfigValidationError("graph.path", f"no such file: {graph_sec['path']}")
        try:
            graph = graph_from_json(path)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigValidationError("graph.path", f"invalid graph: {exc}") from None
    else:
        grid = graph_sec["grid"]
        _reject_unknown(grid, _GRID_KEYS, "graph.grid")
        k = _integer(_require(grid, "k", "graph.grid"), "graph.grid.k")
        if k < 2:
            raise ConfigValidationError("graph.grid.k", f"grid needs k >= 2, got {k}")
        spacing_m = float(_require(grid, "spacing_m", "graph.grid"))
        if not (math.isfinite(spacing_m) and spacing_m > 0):
            raise ConfigValidationError(
                "graph.grid.spacing_m", f"must be positive and finite, got {spacing_m}")
        graph = grid_graph(k, spacing_m)

    demand_sec = _require(doc, "demand", "scenario")
    _reject_unknown(demand_sec, _DEMAND_KEYS, "demand")
    origin_sec = _require(demand_sec, "origin", "demand")
    origin_mass = _node_mass_from_source(origin_sec, graph, "demand.origin")
    dest_sec = demand_sec.get("destination", origin_sec)
    dest_base = _node_mass_from_source(dest_sec, graph, "demand.destination")
    gamma = demand_sec.get("gamma")
    if gamma is None:
        dest_mass = dest_base
    else:
        try:
            dest_mass = demand.synthesize_destination(
                dest_base, demand.complement_mass(origin_mass), float(gamma))
        except ValueError as exc:
            raise ConfigValidationError("demand.gamma", str(exc)) from None
    raw_profile = _require(demand_sec, "profile", "demand")
    try:
        profile = [(float(d), float(r)) for d, r in raw_profile]
    except (TypeError, ValueError):
        raise ConfigValidationError(
            "demand.profile", "need a list of [duration_s, rate_per_hour] pairs") from None

    fleet_sec = _require(doc, "fleet", "scenario")
    _reject_unknown(fleet_sec, _FLEET_KEYS, "fleet")
    controller_sec = _require(doc, "controller", "scenario")
    _reject_unknown(controller_sec, _CONTROLLER_KEYS, "controller")
    sim_sec = doc.get("sim", {})
    _reject_unknown(sim_sec, _SIM_KEYS, "sim")

    mfd = DEFAULT_MFD
    if "mfd" in sim_sec:
        _reject_unknown(sim_sec["mfd"], _MFD_KEYS, "sim.mfd")
        mfd = MFDParams(**{**MFDParams().__dict__, **sim_sec["mfd"]})

    mixture = None
    if "mixture" in origin_sec:
        mixture = _parse_mixture(origin_sec["mixture"], "demand.origin.mixture")

    seed = _integer(sim_sec.get("seed", 1) if seed_override is None else seed_override, "sim.seed")
    r_graph_m = controller_sec.get("r_graph_m")
    cfg = SimConfig(
        graph=graph,
        origin_mass=origin_mass,
        destination_mass=dest_mass,
        profile=profile,
        n_av=_integer(_require(fleet_sec, "n_av", "fleet"), "fleet.n_av"),
        placement=fleet_sec.get("placement", "uniform"),
        controller=str(_require(controller_sec, "name", "controller")),
        r_m=float(controller_sec.get("r_m", 1000.0)),
        r_graph_m=None if r_graph_m is None else float(r_graph_m),
        alpha=float(controller_sec.get("alpha", 0.0)),
        k_p=float(controller_sec.get("k_p", 0.2)),
        k_i=float(controller_sec.get("k_i", 0.4)),
        y_ref=float(controller_sec.get("y_ref", 60.0)),
        y_hold=float(controller_sec.get("y_hold", 90.0)),
        graph_hold_score=bool(controller_sec.get("graph_hold_score", False)),
        min_retarget_gain_m=float(controller_sec.get("min_retarget_gain_m", 0.0)),
        tick_s=float(sim_sec.get("tick_s", 1.0)),
        control_period_s=float(sim_sec.get("control_period_s", 10.0)),
        fleet_period_s=float(sim_sec.get("fleet_period_s", 300.0)),
        horizon_s=float(sim_sec.get("horizon_s", 10800.0)),
        beta=float(sim_sec.get("beta", 1.5)),
        match_tolerance_s=float(sim_sec.get("match_tolerance_s", 60.0)),
        pickup_tolerance_s=float(sim_sec.get("pickup_tolerance_s", 300.0)),
        baseline_accumulation=_integer(sim_sec.get("baseline_accumulation", 0),
                                       "sim.baseline_accumulation"),
        mfd=mfd,
        persistent_private_trips=bool(sim_sec.get("persistent_private_trips", False)),
        mixture=mixture,
        resolution_m=float(sim_sec.get("resolution_m", 50.0)),
        seed=seed,
    )
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
            "origin": {"mixture": DESK_ORIGIN_MIXTURE},
            "destination": {"mixture": DESK_DEST_MIXTURE},
            "gamma": gamma,
            "profile": DESK_PROFILE,
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
