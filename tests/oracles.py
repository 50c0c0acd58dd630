"""Independent reference implementations used only to check the library.

Everything here is deliberately written with different algorithms or naive
loops so the tests never share a code path with what they verify.
"""

import csv
import heapq
import itertools
import math
from collections import deque
from types import SimpleNamespace

import numpy as np

from cvrsim import plane
from cvrsim.demand import CANCELLED, COMPLETED, MATCHED, PENDING, PICKED_UP
from cvrsim.sim import ASSIGNED, CARRYING, IDLE


def adjacency_lists(graph):
    """Per node, its (neighbour, edge length) pairs, read from the graph's edge arrays."""
    adjacency = [[] for _ in range(graph.n_nodes)]
    for u, v, w in zip(graph.edge_u.tolist(), graph.edge_v.tolist(), graph.edge_len.tolist()):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    return adjacency


def dijkstra(graph, source):
    """Single-source shortest distances via a binary heap."""
    adjacency = adjacency_lists(graph)
    dist = np.full(graph.n_nodes, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(graph.n_nodes, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def brute_graph_centroid(members, mass, dist):
    """Exhaustive argmin of the mass-weighted squared-distance sum."""
    best_node, best_cost = None, None
    for q in sorted(int(m) for m in members):
        cost = 0.0
        for p in members:
            cost += dist[q, p] ** 2 * mass[p]
        if best_cost is None or cost < best_cost:
            best_node, best_cost = q, cost
    return best_node


def brute_graph_owner(dist, generators):
    """Nearest generator of each node by plain loops; ties to the smaller generator id."""
    gens = sorted(int(g) for g in generators)
    owner = np.empty(dist.shape[1], dtype=np.int64)
    for node in range(dist.shape[1]):
        best = gens[0]
        for g in gens[1:]:
            if dist[g, node] < dist[best, node]:
                best = g
        owner[node] = best
    return owner


def brute_hold_scores_graph(nodes, mass, dist, r_graph_m):
    """Graph hold scores generator by generator, each cell found by a full scan.

    Both polar moments are summed left to right over the cell's nodes in
    ascending id, in Python floats.
    """
    owner = brute_graph_owner(dist, set(nodes))
    scores = {}
    for g in set(int(n) for n in nodes):
        j_full = j_limited = 0.0
        for p in np.flatnonzero(owner == g).tolist():
            d = float(dist[g, p])
            term = d * d * float(mass[p])
            j_full += term
            if d <= r_graph_m:
                j_limited += term
        scores[g] = j_limited / j_full if j_full > 0.0 else 0.0
    return np.array([scores[int(n)] for n in nodes])


def implied_statuses(req):
    """The statuses a request's timestamps allow.

    Without a ``dropoff_time`` attribute (``requests.csv`` does not write one) a
    picked-up request may be either picked up or completed.
    """
    if req.pickup_time is not None:
        if not hasattr(req, "dropoff_time"):
            return {PICKED_UP, COMPLETED}
        return {COMPLETED} if req.dropoff_time is not None else {PICKED_UP}
    if req.match_time is not None:
        return {MATCHED}
    return {PENDING, CANCELLED}


def audit_requests(requests, metrics):
    """Every request ends in one state its timestamps allow, and the counts match ``metrics``.

    ``requests`` are a run's injected requests in issue order, as
    :class:`cvrsim.demand.Request` records or :func:`requests_from_csv` rows;
    ``metrics`` is a dict of the run's metrics, as ``metrics.json`` holds them.
    """
    assert [r.id for r in requests] == list(range(len(requests)))
    for r in requests:
        assert r.status in implied_statuses(r), (r.id, r.status)
        times = [t for t in (r.t0, r.match_time, r.pickup_time, getattr(r, "dropoff_time", None))
                 if t is not None]
        assert all(a <= b + 1e-9 for a, b in zip(times, times[1:])), (r.id, times)
    statuses = [r.status for r in requests]
    assert metrics["n_requests"] == len(requests)
    assert metrics["n_orders"] == statuses.count(PICKED_UP) + statuses.count(COMPLETED)
    assert metrics["n_cancelled"] == statuses.count(CANCELLED)
    assert metrics["n_orders"] + metrics["n_cancelled"] + metrics["n_inflight"] \
        == metrics["n_requests"]


def requests_from_csv(path):
    """The rows of a ``requests.csv`` as records :func:`audit_requests` reads."""
    def clock(text):
        return float(text) if text else None

    with open(path) as fh:
        return [SimpleNamespace(id=int(row["id"]), t0=float(row["t0"]),
                                match_time=clock(row["match_t"]),
                                pickup_time=clock(row["pickup_t"]), status=row["status"])
                for row in csv.DictReader(fh)]


def position_lead(graph, pos):
    """Forward node and distance left to it, of a node id or of (u, v, offset) driving to v."""
    if isinstance(pos, (int, np.integer)):
        return int(pos), 0.0
    u, v, offset = pos
    return v, graph.edge_length(u, v) - offset


def brute_position_distance(graph, dist, pos, node):
    """Distance from a node, or from (u, v, offset) driving on to v, as one scalar sum."""
    if isinstance(pos, (int, np.integer)):
        return float(dist[pos, node])
    u, v, offset = pos
    return float((graph.edge_length(u, v) - offset) + dist[v, node])


def brute_match_tick(pending, idle_vehicles, clock, graph, dist, speed_mps):
    """First-come-first-served matching: a scalar scan of the pool for each request.

    The first vehicle in pool order with the strictly smallest distance wins
    and leaves the pool when its pickup estimate is within tolerance.
    """
    pool = list(idle_vehicles)
    matches, cancellations = [], []
    for req in pending:
        if clock >= req.t0 + req.t_mtol - 1e-9:
            cancellations.append(req)
            continue
        if not pool:
            continue
        best, best_d = None, math.inf
        for veh in pool:
            d = brute_position_distance(graph, dist, veh.position, req.origin)
            if d < best_d:
                best, best_d = veh, d
        estimate = clock + best_d / speed_mps if speed_mps > 0 else math.inf
        if estimate - req.t0 <= req.t_ptol + 1e-9:
            matches.append((req, best))
            pool.remove(best)
    return matches, cancellations


def brute_hold_score(index, positions, field, r_m, assignment):
    """Coverage concentration J(W)/J(V) of one vehicle, from its own two cells."""
    pos = np.atleast_2d(np.asarray(positions, dtype=np.float64))[index]
    full = plane.PlanarCell(generator=pos, pixels=np.flatnonzero(assignment == index))
    limited = plane.r_limited_cell(assignment, field, index, pos, r_m)
    j_full = plane.polar_moment(full, field, pos)
    if j_full <= 0.0:
        return 0.0
    return plane.polar_moment(limited, field, pos) / j_full


def brute_nearest(points, generators):
    """Nearest generator of each point by plain loops; ties to the smallest index.

    The loops run over Python floats, which are IEEE doubles, so dx*dx + dy*dy
    rounds as numpy's would; ``d * d`` overflows to inf where ``**`` would raise.
    """
    gens = np.atleast_2d(np.asarray(generators, dtype=float)).tolist()
    out = np.empty(len(points), dtype=int)
    for i, (px, py) in enumerate(np.asarray(points, dtype=float).tolist()):
        best, best_d = 0, None
        for gi, (gx, gy) in enumerate(gens):
            dx, dy = px - gx, py - gy
            d = dx * dx + dy * dy
            if best_d is None or d < best_d:
                best, best_d = gi, d
        out[i] = best
    return out


def brute_plane_assignment(field, generators):
    """Per-pixel nearest-generator scan with plain loops over generators."""
    return brute_nearest(field.centers, generators)


def brute_coverage_objective(field, generators, r_m):
    """Assign, filter by radius, and sum squared distances pixel by pixel."""
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    assignment = brute_plane_assignment(field, gens)
    total = 0.0
    for pix in range(field.n_pixels):
        gx, gy = gens[assignment[pix]]
        px, py = field.centers[pix]
        d2 = (px - gx) ** 2 + (py - gy) ** 2
        if d2 <= r_m * r_m:
            total += d2 * field.mass[pix]
    return total


def brute_min_assignment_cost(cost):
    """Minimum total cost over all maximal injective assignments."""
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    best = np.inf
    rows = range(n_rows)
    for chosen_rows in itertools.combinations(rows, k):
        for chosen_cols in itertools.permutations(range(n_cols), k):
            total = sum(cost[r, c] for r, c in zip(chosen_rows, chosen_cols))
            if total < best:
                best = total
    return best


def loop_select_holds(ids, hold_count, scores):
    """Ids of the ``hold_count`` largest scores by a keyed sort; ties to the smaller id."""
    order = sorted(zip(ids, scores), key=lambda pair: (-pair[1], pair[0]))
    return {vid for vid, _ in order[:max(hold_count, 0)]}


def loop_cvr_targets(ids, summary, graph, held=frozenset(), previous=None):
    """Planar coverage targets vehicle by vehicle, keyed by id (None: hold).

    A held vehicle holds; a vehicle whose limited cell has no mass keeps
    ``previous.get(id)``; any other goes to the node nearest its limited
    centroid.
    """
    previous = previous or {}
    decision = {}
    for i, vid in enumerate(ids):
        if vid in held:
            decision[vid] = None
        elif not summary.limited_mass[i] > 0:
            decision[vid] = previous.get(vid)
        else:
            decision[vid] = int(brute_nearest([summary.limited_centroid[i]], graph.coords)[0])
    return decision


def random_connected_graph(rng, n_nodes, extra_edges, max_len=20, real_lengths=False):
    """Random tree plus chords; integer edge lengths keep float sums exact.

    With ``real_lengths`` the lengths are drawn uniformly from [1, max_len)
    instead. Raises ValueError when the tree leaves fewer than
    ``extra_edges`` node pairs free for chords.
    """
    free = n_nodes * (n_nodes - 1) // 2 - (n_nodes - 1)
    if extra_edges > free:
        raise ValueError(f"{n_nodes} nodes leave {free} chords free, not {extra_edges}")

    def length():
        if real_lengths:
            return float(rng.uniform(1, max_len))
        return float(rng.integers(1, max_len + 1))

    nodes = [(i, float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
             for i in range(n_nodes)]
    edges = []
    seen = set()
    for v in range(1, n_nodes):
        u = int(rng.integers(0, v))
        edges.append((u, v, length()))
        seen.add((min(u, v), max(u, v)))
    added = 0
    while added < extra_edges:
        u = int(rng.integers(0, n_nodes))
        v = int(rng.integers(0, n_nodes))
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append((u, v, length()))
        added += 1
    return nodes, edges


class ScalarVehicle:
    """One taxi as plain attributes, as the simulator held it before its fleet arrays."""

    __slots__ = ("id", "node", "edge", "offset", "state", "route", "request",
                 "held", "service_m", "rebalance_m")

    def __init__(self, vid, node):
        self.id = vid
        self.node = int(node)
        self.edge = None
        self.offset = 0.0
        self.state = IDLE
        self.route = deque()
        self.request = None
        self.held = False
        self.service_m = 0.0
        self.rebalance_m = 0.0


class ScalarMovement:
    """Per-vehicle movement, one vehicle and one edge at a time.

    The methods below are ``cvrsim.sim.World``'s movement loop as it was
    before the fleet moved into arrays, copied verbatim but for the idle
    count of the PI window, which the world now reads from its series rows:
    the reference that the masked step of ``World._advance`` must match bit
    for bit.
    """

    def __init__(self, graph, oracle, vehicles, tick_s, tick=0, private_remaining=()):
        self.graph = graph
        self.oracle = oracle
        self.vehicles = vehicles
        self.cfg = SimpleNamespace(tick_s=tick_s)
        self.tick = tick
        self.private_remaining = list(private_remaining)
        self._window_waits = []

    @property
    def clock(self):
        return self.tick * self.cfg.tick_s

    def _route_to(self, veh, dest):
        """Plan from the vehicle's forward node; mid-edge vehicles never U-turn."""
        if veh.node is not None:
            veh.route = deque(self.oracle.path(veh.node, dest)[1:])
        else:
            fwd = veh.edge[1]
            hops = [fwd] if fwd == dest else self.oracle.path(fwd, dest)
            veh.route = deque(hops)

    def _do_pickup(self, veh, t):
        req = veh.request
        req.status = PICKED_UP
        req.pickup_time = t
        self._window_waits.append(t - req.t0)
        veh.state = CARRYING
        self._route_to(veh, req.destination)
        if not veh.route:
            self._do_dropoff(veh, t)

    def _do_dropoff(self, veh, t):
        req = veh.request
        req.status = COMPLETED
        req.dropoff_time = t
        veh.state = IDLE
        veh.request = None

    def _on_route_end(self, veh, t):
        """State transition at a route's final node; True if the vehicle pauses."""
        if veh.state == ASSIGNED:
            self._do_pickup(veh, t)
            return True
        if veh.state == CARRYING:
            self._do_dropoff(veh, t)
            return True
        return False  # idle vehicle reached its rebalancing destination

    def _advance(self, speed):
        dt = self.cfg.tick_s
        clock = self.clock
        # zero-distance events: vehicles matched while standing at the origin
        for veh in self.vehicles:
            if veh.state == ASSIGNED and not veh.route and veh.node == veh.request.origin:
                self._do_pickup(veh, clock)
        if speed <= 0:
            return
        t_end = clock + dt
        for veh in self.vehicles:
            if veh.held or not veh.route:
                continue
            budget = speed * dt
            while budget > 1e-12 and veh.route:
                if veh.edge is None:
                    veh.edge = (veh.node, veh.route[0])
                    veh.offset = 0.0
                    veh.node = None
                u, w = veh.edge
                length = self.graph.edge_length(u, w)
                step = min(budget, length - veh.offset)
                veh.offset += step
                budget -= step
                if veh.state == IDLE:
                    veh.rebalance_m += step
                else:
                    veh.service_m += step
                if veh.offset >= length - 1e-9:
                    veh.node = w
                    veh.edge = None
                    veh.offset = 0.0
                    veh.route.popleft()
                    if not veh.route and self._on_route_end(veh, t_end):
                        budget = 0.0
        # private traffic from cancellations moves at the same network speed
        if self.private_remaining:
            move = speed * dt
            self.private_remaining = [r - move for r in self.private_remaining if r - move > 1e-9]
