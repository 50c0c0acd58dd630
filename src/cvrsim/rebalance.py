"""Idle-vehicle rebalancing controllers.

Every controller maps a snapshot of the idle fleet to one decision per idle
vehicle: a destination node id, or None to hold in place. Controllers are
stateless except for the PI fleet-size adapter, whose persistent quantities
live in :class:`PIState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import plane
from .errors import EmptyCellError
from .roadnet import (
    DistanceOracle,
    RoadGraph,
    graph_cells,
    graph_centroid,
    nearest_nodes,
    position_leads,
)

# No longer called here, but perfbench/run.py wraps them at these names.
from .roadnet import graph_voronoi, position_node_distance, r_limited_graph_cell  # noqa: F401

CONTROLLERS = ("do_nothing", "cvr", "cvr_graph", "cvr_alpha", "cvr_pi", "lp")


@dataclass
class RebalanceDecision:
    """Per-idle-vehicle command: target node id, or None to hold."""

    destination: dict[int, int | None]

    def held_ids(self) -> list[int]:
        return [vid for vid, dest in self.destination.items() if dest is None]


@dataclass(frozen=True)
class PIState:
    """Persistent state of the PI fleet-size adapter."""

    k_p: float = 0.2
    k_i: float = 0.4
    y_ref: float = 60.0
    y_hold: float = 90.0
    integral: float = 0.0
    u_not: float = 0.0


@dataclass(frozen=True)
class PIUpdate:
    state: PIState
    hold_count: int
    hold_all: bool
    y: float


def pi_update(state: PIState, mean_wait_s: float, mean_idle: float,
              n_av: int, n_idle_now: int) -> PIUpdate:
    """One fleet-size adaptation step.

    The service signal is y = sqrt(mean_wait * (n_av - mean_idle)). Below the
    hold-all threshold the whole idle fleet holds and the PI state is left
    untouched; otherwise the PI law tracks y_ref and the integer hold count
    is floor(u_not) after clamping u_not to [0, n_idle_now].
    """
    busy = max(n_av - mean_idle, 0.0)
    y = math.sqrt(max(mean_wait_s, 0.0) * busy)
    if y <= state.y_hold:
        return PIUpdate(state=state, hold_count=n_idle_now, hold_all=True, y=y)
    err = state.y_ref - y
    integral = state.integral + err
    delta_u = state.k_p * err + state.k_i * integral
    u_not = min(max(state.u_not + delta_u, 0.0), float(n_idle_now))
    new_state = replace(state, integral=integral, u_not=u_not)
    return PIUpdate(state=new_state, hold_count=int(math.floor(u_not)), hold_all=False, y=y)


def hold_score(index: int, positions, field: plane.GridField, r_m: float,
               assignment: np.ndarray) -> float:
    """Coverage concentration of one idle vehicle, J(W)/J(V) in [0, 1]."""
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))[index]
    full = plane.PlanarCell(generator=pos, pixels=np.flatnonzero(assignment == index))
    limited = plane.r_limited_cell(assignment, field, index, pos, r_m)
    j_full = plane.polar_moment(full, field, pos)
    if j_full <= 0.0:
        return 0.0
    return plane.polar_moment(limited, field, pos) / j_full


def hold_scores(positions, field: plane.GridField, r_m: float,
                summary: plane.CoverageSummary | None = None) -> np.ndarray:
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if summary is None:
        summary = plane.coverage_summary(field, positions, r_m)
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = np.where(summary.j_full > 0.0, summary.j_limited / summary.j_full, 0.0)
    return scores


def hold_scores_graph(nodes, node_mass, oracle: DistanceOracle, r_graph_m: float) -> np.ndarray:
    """Graph analogue of the hold score on shortest-path cells."""
    nodes = [int(n) for n in nodes]
    cells = graph_cells(oracle, set(nodes), r_graph_m)
    mass = np.asarray(node_mass, dtype=np.float64)
    scores = np.zeros(len(cells.generators))
    for k, owned in enumerate(cells.owned):
        d2 = cells.owner_dist[owned] ** 2
        j_full = float(d2 @ mass[owned])
        if j_full > 0.0:
            near = cells.in_range[owned]
            scores[k] = float(d2[near] @ mass[owned[near]]) / j_full
    return scores[np.searchsorted(cells.generators, nodes)]


def select_holds(ids, hold_count: int, scores) -> set[int]:
    """The ``hold_count`` vehicles with the largest scores; ties to smaller id."""
    order = sorted(zip(ids, scores), key=lambda pair: (-pair[1], pair[0]))
    return {vid for vid, _ in order[:max(hold_count, 0)]}


def select_holds_alpha(ids, alpha: float, scores) -> set[int]:
    """Hold floor(n_idle * alpha) top-scoring idle vehicles."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha!r} outside [0, 1]")
    return select_holds(ids, int(math.floor(len(list(ids)) * alpha)), scores)


def cvr_targets(
    ids,
    positions,
    field: plane.GridField,
    r_m: float,
    graph: RoadGraph,
    held: set[int] = frozenset(),
    previous: dict[int, int | None] | None = None,
    summary: plane.CoverageSummary | None = None,
    min_retarget_gain_m: float = 0.0,
) -> RebalanceDecision:
    """Planar coverage targets: range-limited cell centroid, snapped to a node.

    All idle vehicles (held ones included) generate the Voronoi partition;
    held vehicles get a hold decision, the rest move to the node nearest
    their weighted cell centroid. A cell without mass keeps the vehicle's
    previous destination. With min_retarget_gain_m > 0, a destination switch
    is suppressed unless the new node is at least that far from the old one.
    """
    ids = [int(v) for v in ids]
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    previous = previous or {}
    if summary is None:
        summary = plane.coverage_summary(field, positions, r_m)
    movable = [i for i, vid in enumerate(ids)
               if vid not in held and summary.limited_mass[i] > 0]
    snapped = {}
    if movable:
        targets = nearest_nodes(graph, summary.limited_centroid[movable])
        snapped = dict(zip(movable, targets))
    decision: dict[int, int | None] = {}
    for i, vid in enumerate(ids):
        if vid in held:
            decision[vid] = None
            continue
        if i not in snapped:
            decision[vid] = previous.get(vid)  # massless cell: keep going
            continue
        target = int(snapped[i])
        prev = previous.get(vid)
        if (
            min_retarget_gain_m > 0.0
            and prev is not None
            and target != prev
            and np.hypot(*(graph.coords[target] - graph.coords[prev])) < min_retarget_gain_m
        ):
            target = prev
        decision[vid] = target
    return RebalanceDecision(destination=decision)


def cvr_graph_targets(
    ids,
    nodes,
    node_mass,
    oracle: DistanceOracle,
    r_graph_m: float,
    held: set[int] = frozenset(),
) -> RebalanceDecision:
    """Graph coverage targets: centroid of the range-limited graph cell.

    Vehicle positions arrive snapped to nodes; vehicles sharing a node share
    one generator and therefore one destination.
    """
    ids = [int(v) for v in ids]
    nodes = [int(n) for n in nodes]
    cells = graph_cells(oracle, set(nodes), r_graph_m)
    mass = np.asarray(node_mass, dtype=np.float64)
    target_of: dict[int, int | None] = {}
    for k, g in enumerate(cells.generators.tolist()):
        try:
            target_of[g] = graph_centroid(cells.limited(k), mass, oracle)
        except EmptyCellError:
            target_of[g] = None
    decision = {}
    for vid, node in zip(ids, nodes):
        decision[vid] = None if vid in held else target_of[node]
    return RebalanceDecision(destination=decision)


def lp_rebalance(
    ids,
    positions,
    pending_origins,
    graph: RoadGraph,
    oracle: DistanceOracle,
    speed_mps: float,
) -> RebalanceDecision:
    """Reactive baseline: min-total-travel-time matching to pending origins.

    Matches min(#idle, #pending) vehicle/origin pairs by optimal assignment
    on shortest-path travel times; matched vehicles get the request origin as
    a rebalancing destination, the rest hold.
    """
    if speed_mps <= 0:
        raise ValueError("speed must be positive")
    ids = [int(v) for v in ids]
    origins = [int(o) for o in pending_origins]
    decision: dict[int, int | None] = {vid: None for vid in ids}
    if ids and origins:
        fwd, lead = position_leads(graph, list(positions))
        cost = (lead[:, None] + oracle.dist[np.ix_(fwd, origins)]) / speed_mps
        rows, cols = linear_sum_assignment(cost)
        for i, j in zip(rows, cols):
            decision[ids[i]] = origins[j]
    return RebalanceDecision(destination=decision)


def do_nothing(ids) -> RebalanceDecision:
    """Hold every idle vehicle where it stands."""
    return RebalanceDecision(destination={int(v): None for v in ids})
