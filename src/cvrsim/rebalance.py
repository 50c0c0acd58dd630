"""Idle-vehicle rebalancing controllers.

Every controller maps a snapshot of the idle fleet to one decision per idle
vehicle, in idle-pool order: a destination node id, or :data:`HOLD` to hold
in place. Controllers are stateless except for the PI fleet-size adapter,
whose persistent quantities live in :class:`PIState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import plane
from .roadnet import (
    DistanceOracle,
    RoadGraph,
    graph_cells,
    graph_centroids,
    nearest_nodes,
    position_node_distance,
)

# No longer called here, but perfbench/run.py wraps them at these names.
from .roadnet import graph_centroid, graph_voronoi, r_limited_graph_cell  # noqa: F401

CONTROLLERS = ("do_nothing", "cvr", "cvr_graph", "cvr_alpha", "cvr_pi", "lp")
HOLD = -1  # the destination of a vehicle that holds where it stands


@dataclass
class RebalanceDecision:
    """One command per idle vehicle, in idle-pool order.

    ``destination[k]`` is the target node of the k-th pooled vehicle, or
    :data:`HOLD` to hold it where it stands.
    """

    destination: np.ndarray

    def held_ids(self) -> np.ndarray:
        """Pool positions of the vehicles that hold."""
        return np.flatnonzero(self.destination == HOLD)


@dataclass(frozen=True)
class PIState:
    """Persistent state of the PI fleet-size adapter, with the hold count its last update set."""

    k_p: float = 0.2
    k_i: float = 0.4
    y_ref: float = 60.0
    y_hold: float = 90.0
    integral: float = 0.0
    u_not: float = 0.0
    hold_count: int = 0


def pi_update(state: PIState, mean_wait_s: float, mean_idle: float,
              n_av: int, n_idle_now: int) -> PIState:
    """One fleet-size adaptation step; returns the adapter's next state.

    The service signal is y = sqrt(mean_wait * (n_av - mean_idle)). Below the
    hold-all threshold the hold count is the whole fleet, so the whole idle
    pool holds until the next update, and the PI terms are left untouched;
    otherwise the PI law tracks y_ref and the hold count is floor(u_not)
    after clamping u_not to [0, n_idle_now].
    """
    busy = max(n_av - mean_idle, 0.0)
    y = math.sqrt(max(mean_wait_s, 0.0) * busy)
    if y <= state.y_hold:
        return replace(state, hold_count=n_av)
    err = state.y_ref - y
    integral = state.integral + err
    delta_u = state.k_p * err + state.k_i * integral
    u_not = min(max(state.u_not + delta_u, 0.0), float(n_idle_now))
    return replace(state, integral=integral, u_not=u_not, hold_count=int(math.floor(u_not)))


def _hold_ratio(j_limited, j_full) -> np.ndarray:
    """Hold score J(W)/J(V) per cell: the share of its polar moment within range, 0 if massless."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(j_full > 0.0, j_limited / j_full, 0.0)


def hold_scores(summary: plane.CoverageSummary) -> np.ndarray:
    """Planar hold score of every generator of the coverage pass ``summary``."""
    return _hold_ratio(summary.j_limited, summary.j_full)


# No library code calls it (every hold score comes from the planar coverage
# pass), but perfbench/run.py wraps it at this name.
def hold_scores_graph(nodes, node_mass, oracle: DistanceOracle, r_graph_m: float) -> np.ndarray:
    """Graph analogue of the hold score on shortest-path cells, one per entry of ``nodes``.

    Both polar moments of every cell come from one ``graph_cells`` pass, each
    summed left to right over the cell's nodes in ascending id by ``bincount``,
    so they do not depend on the BLAS build. Vehicles sharing a node share a cell.
    """
    gens, cell = np.unique(np.asarray(nodes, dtype=np.int64), return_inverse=True)
    cells = graph_cells(oracle, gens, r_graph_m)
    moment = cells.owner_dist ** 2 * np.asarray(node_mass, dtype=np.float64)
    j_full = np.bincount(cells.owner, moment, minlength=len(gens))
    # Out of range a node adds exactly +0.0 to its owner's limited moment.
    j_limited = np.bincount(cells.owner, np.where(cells.in_range, moment, 0.0),
                            minlength=len(gens))
    return _hold_ratio(j_limited, j_full)[cell]


def select_holds(hold_count: int, scores) -> np.ndarray:
    """Mask of the ``hold_count`` largest scores; ties to the earlier pool position."""
    scores = np.asarray(scores, dtype=np.float64)
    held = np.zeros(len(scores), dtype=bool)
    held[np.argsort(-scores, kind="stable")[:max(hold_count, 0)]] = True
    return held


def cvr_targets(
    summary: plane.CoverageSummary,
    graph: RoadGraph,
    held=None,
    previous=None,
) -> RebalanceDecision:
    """Planar coverage targets: range-limited cell centroid, snapped to a node.

    ``summary`` is the coverage pass over all idle vehicles (held ones
    included), one generator per vehicle in pool order. ``held`` masks the
    vehicles that hold; the rest move to the node nearest their weighted
    cell centroid. ``previous`` gives each vehicle's current target (HOLD:
    none), which a massless cell keeps.
    """
    n = len(summary.limited_mass)
    held = np.zeros(n, dtype=bool) if held is None else np.asarray(held, dtype=bool)
    target = (np.full(n, HOLD, dtype=np.int64) if previous is None
              else np.array(previous, dtype=np.int64))  # massless cell: keep going
    movable = ~held & (summary.limited_mass > 0)
    if movable.any():
        target[movable] = nearest_nodes(graph, summary.limited_centroid[movable])
    target[held] = HOLD
    return RebalanceDecision(destination=target)


def cvr_graph_targets(nodes, node_mass, oracle: DistanceOracle,
                      r_graph_m: float) -> RebalanceDecision:
    """Graph coverage targets: centroid of the range-limited graph cell.

    Vehicle positions arrive snapped to nodes; vehicles sharing a node share
    one generator and therefore one destination. A vehicle whose cell has no
    member within range holds: ``graph_centroids`` gives an empty cell -1,
    which is :data:`HOLD`.
    """
    gens, cell = np.unique(np.asarray(nodes, dtype=np.int64), return_inverse=True)
    cells = graph_cells(oracle, gens, r_graph_m)
    centroid = graph_centroids(oracle, cells.near, cells.near_bounds, node_mass)
    return RebalanceDecision(destination=centroid[cell])


@np.errstate(over="ignore", invalid="ignore")  # IEEE arithmetic, silent as in the C++
def _min_cost_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Min-cost matching of min(rows, cols) row/column pairs, ties as scipy breaks them.

    A step-for-step port of scipy 1.17's ``rectangular_lsap.cpp``, the
    shortest-augmenting-path solver behind ``linear_sum_assignment`` (D. F.
    Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 52(4), 2016), so it returns the same ``(rows, cols)`` for every
    matrix. A tall matrix is solved transposed. Each row in turn grows one
    shortest augmenting path; its scan over the columns not yet reached runs
    from the last column down, drops the column it takes by swap-with-last,
    and among equal path costs takes the last free column, else the first.
    ``rows`` come out ascending. An entry of +inf forbids its pair, as in
    scipy: ``lp``'s travel times overflow to it at a vanishing network speed.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if np.isnan(cost).any() or (cost == -np.inf).any():
        raise ValueError("matrix contains invalid numeric entries")
    transpose = cost.shape[1] < cost.shape[0]
    c = cost.T if transpose else cost
    nr, nc = c.shape
    u = np.zeros(nr)
    v = np.zeros(nc)
    path = np.full(nc, -1, dtype=np.intp)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    for cur_row in range(nr):
        path_cost = np.full(nc, np.inf)  # shortestPathCosts
        reached_row = np.zeros(nr, dtype=bool)  # SR
        reached_col = np.zeros(nc, dtype=bool)  # SC
        remaining = np.arange(nc - 1, -1, -1, dtype=np.intp)
        n_remaining = nc
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            reached_row[i] = True
            cols = remaining[:n_remaining]
            r = ((min_val + c[i, cols]) - u[i]) - v[cols]
            shorter = r < path_cost[cols]
            path[cols[shorter]] = i
            path_cost[cols[shorter]] = r[shorter]
            scanned = path_cost[cols]
            tied = scanned == scanned.min()
            free = np.flatnonzero(tied & (row4col[cols] == -1))
            index = free[-1] if len(free) else np.argmax(tied)
            min_val = scanned[index]
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            j = cols[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            reached_col[j] = True
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]
        u[cur_row] += min_val
        others = np.flatnonzero(reached_row)
        others = others[others != cur_row]
        u[others] += min_val - path_cost[col4row[others]]
        v[reached_col] -= min_val - path_cost[reached_col]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr, dtype=np.intp), col4row


def lp_rebalance(fwd, lead, pending_origins, oracle: DistanceOracle,
                 speed_mps: float) -> RebalanceDecision:
    """Reactive baseline: min-total-travel-time matching to pending origins.

    Vehicle k is ``lead[k]`` meters short of its forward node ``fwd[k]``.
    Matches min(#idle, #pending) vehicle/origin pairs by optimal assignment
    on shortest-path travel times (:func:`_min_cost_assignment`); matched
    vehicles get the request origin as a rebalancing destination, the rest
    hold.
    """
    if speed_mps <= 0:
        raise ValueError("speed must be positive")
    fwd = np.asarray(fwd, dtype=np.int64)
    origins = np.asarray(pending_origins, dtype=np.int64)
    target = np.full(len(fwd), HOLD, dtype=np.int64)
    if len(fwd) and len(origins):
        lead = np.asarray(lead, dtype=np.float64)
        cost = position_node_distance(oracle, fwd[:, None], lead[:, None], origins) / speed_mps
        rows, cols = _min_cost_assignment(cost)
        target[rows] = origins[cols]
    return RebalanceDecision(destination=target)


def do_nothing(n: int) -> RebalanceDecision:
    """Hold each of the ``n`` idle vehicles where it stands."""
    return RebalanceDecision(destination=np.full(n, HOLD, dtype=np.int64))
