"""Correctness checks and result digests for one simulated scenario.

Each check returns a list of problems; an empty list means the result holds.
The checks read only what ``World.run()`` leaves behind: its metrics, the
timeseries rows and the request records.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from cvrsim.demand import CANCELLED, COMPLETED, MATCHED, PENDING, PICKED_UP

ORACLE_TOLERANCE_M = 1e-6


def _implied_status(req) -> set[str]:
    """The statuses a request's timestamps allow; a consistent record has one."""
    if req.dropoff_time is not None:
        return {COMPLETED}
    if req.pickup_time is not None:
        return {PICKED_UP}
    if req.match_time is not None:
        return {MATCHED}
    return {PENDING, CANCELLED}


def check_requests(metrics, requests) -> list[str]:
    """Each injected request appears once, in one state, and the counts add up."""
    problems = []
    ids = [r.id for r in requests]
    if ids != list(range(len(requests))):
        problems.append("request ids are not 0..n-1 in order (a request is missing or repeated)")
    if metrics.n_requests != len(requests):
        problems.append(f"n_requests {metrics.n_requests} != {len(requests)} request records")
    for r in requests:
        if r.status not in _implied_status(r):
            problems.append(f"request {r.id} has status {r.status!r} but timestamps "
                            f"imply {sorted(_implied_status(r))}")
            break
    by_status = {s: 0 for s in (PENDING, MATCHED, PICKED_UP, COMPLETED, CANCELLED)}
    for r in requests:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    expected = {
        "n_orders": by_status[PICKED_UP] + by_status[COMPLETED],
        "n_cancelled": by_status[CANCELLED],
        "n_inflight": by_status[PENDING] + by_status[MATCHED],
    }
    for name, count in expected.items():
        if getattr(metrics, name) != count:
            problems.append(f"{name} {getattr(metrics, name)} != {count} counted from records")
    if metrics.n_orders + metrics.n_cancelled + metrics.n_inflight != metrics.n_requests:
        problems.append("n_orders + n_cancelled + n_inflight != n_requests")
    return problems


def check_series(series, n_av: int, n_cancelled: int) -> list[str]:
    """Every row holds the whole fleet; the last row's cancellations match."""
    problems = []
    for row in series:
        _, idle_active, idle_held, assigned, carrying = row[:5]
        if idle_active + idle_held + assigned + carrying != n_av:
            problems.append(f"row at t={row[0]} holds "
                            f"{idle_active + idle_held + assigned + carrying} of {n_av} vehicles")
            break
    if not series:
        problems.append("no timeseries rows")
    elif series[-1][7] != n_cancelled:
        problems.append(f"final cum_cancelled {series[-1][7]} != n_cancelled {n_cancelled}")
    return problems


def check_metrics_finite(metrics) -> list[str]:
    return [f"metric {k} is not finite: {v!r}" for k, v in metrics.__dict__.items()
            if not (isinstance(v, (int, float)) and math.isfinite(v))]


def reference_distances(graph) -> np.ndarray:
    """All-pairs distances from scipy's Dijkstra, independent of cvrsim.roadnet."""
    n = graph.n_nodes
    adj = coo_matrix((graph.edge_len, (graph.edge_u, graph.edge_v)), shape=(n, n)).tocsr()
    return shortest_path(adj, method="D", directed=False)


def check_oracle(graph, oracle) -> list[str]:
    err = float(np.max(np.abs(reference_distances(graph) - oracle.dist)))
    if not err <= ORACLE_TOLERANCE_M:
        return [f"oracle distances differ from scipy shortest_path by {err} m"]
    return []


def check_world(world, metrics) -> list[str]:
    """All checks for one scenario run to its horizon."""
    requests = world.requests[:world.n_injected]
    return (check_requests(metrics, requests)
            + check_series(world.series, world.cfg.n_av, metrics.n_cancelled)
            + check_metrics_finite(metrics)
            + check_oracle(world.graph, world.oracle))


def digest(metrics, series, requests) -> str:
    """SHA-256 over the exact metrics, timeseries rows and request records."""
    records = [
        [r.id, r.origin, r.destination, r.t0, r.status, r.match_time,
         r.pickup_time, r.dropoff_time, r.vehicle_id]
        for r in requests
    ]
    payload = json.dumps([metrics.to_dict(), [list(row) for row in series], records],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
