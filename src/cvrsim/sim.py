"""Discrete-time AMoD fleet simulation.

A single-threaded event loop owns the world state. Each tick: due requests
are injected, pending requests are matched first-come-first-served against
the idle fleet, the rebalancing controller runs on its own period, the
fleet-size adapter runs on a slower period, and everything moves along
shortest paths at the network-wide speed given by the accumulation-speed
relation. Runs are deterministic functions of the configuration seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import demand, plane, rebalance
from .demand import CANCELLED, COMPLETED, MATCHED, PICKED_UP, Request
from .errors import ConfigValidationError
from .roadnet import (
    DistanceOracle,
    RoadGraph,
    all_pairs_shortest,
    graph_voronoi,
    position_leads,
    position_node_distance,
)

IDLE = "idle"
ASSIGNED = "passenger_assigned"
CARRYING = "passenger_carrying"

TIMESERIES_COLUMNS = (
    "t_s", "n_idle_active", "n_idle_held", "n_assigned", "n_carrying",
    "m", "cum_rebalance_km", "cum_cancelled",
)


@dataclass(frozen=True)
class MFDParams:
    """Network accumulation-to-speed relation (m/s), piecewise.

    Exponential decay up to ``exp_cutoff`` vehicles, then a linear ramp that
    reaches zero at ``jam_accumulation``. With linear_slope=None the ramp is
    anchored to hit exactly zero at the jam point; an explicit slope is
    clamped at zero instead.
    """

    free_flow_mps: float = 36.0
    exp_rate: float = 29.0 / 72000.0
    exp_cutoff: float = 4320.0
    jam_accumulation: float = 7200.0
    linear_intercept: float = 6.31
    linear_slope: float | None = None


DEFAULT_MFD = MFDParams()


def mfd_speed(m: float, params: MFDParams = DEFAULT_MFD) -> float:
    """Space-mean speed in m/s for a network accumulation of m vehicles."""
    if m < 0:
        raise ValueError("accumulation must be nonnegative")
    if m <= params.exp_cutoff:
        return params.free_flow_mps * math.exp(-params.exp_rate * m)
    if m <= params.jam_accumulation:
        if params.linear_slope is None:
            span = params.jam_accumulation - params.exp_cutoff
            v = params.linear_intercept * (1.0 - (m - params.exp_cutoff) / span)
        else:
            v = params.linear_intercept - params.linear_slope * (m - params.exp_cutoff)
        return max(v, 0.0)
    return 0.0


class Vehicle:
    """One taxi: position on the graph, occupancy state, route, odometers.

    Position is either a node id (``node`` set, ``edge`` None) or a point on
    an edge (``edge=(u, v)`` driving u->v with ``offset`` meters past u).
    ``route`` holds the upcoming nodes; when mid-edge its head is the edge's
    forward endpoint.
    """

    __slots__ = ("id", "node", "edge", "offset", "state", "route", "request",
                 "held", "service_m", "rebalance_m")

    def __init__(self, vid: int, node: int):
        self.id = vid
        self.node: int | None = int(node)
        self.edge: tuple[int, int] | None = None
        self.offset = 0.0
        self.state = IDLE
        self.route: deque[int] = deque()
        self.request: Request | None = None
        self.held = False
        self.service_m = 0.0
        self.rebalance_m = 0.0

    @property
    def position(self):
        if self.node is not None:
            return self.node
        return (self.edge[0], self.edge[1], self.offset)

    def forward_node(self) -> int:
        """The node ahead: current node, or the edge endpoint being driven to."""
        return self.node if self.node is not None else self.edge[1]

    def position_xy(self, graph: RoadGraph) -> np.ndarray:
        if self.node is not None:
            return graph.coords[self.node]
        u, v = self.edge
        frac = self.offset / graph.edge_length(u, v)
        return graph.coords[u] + frac * (graph.coords[v] - graph.coords[u])


@dataclass
class SimConfig:
    """Everything a run needs; see scenario.py for the JSON form."""

    graph: RoadGraph
    origin_mass: np.ndarray
    destination_mass: np.ndarray
    profile: list
    n_av: int
    controller: str
    # controller parameters
    r_m: float = 1000.0
    r_graph_m: float | None = None       # None -> sqrt(2) * r_m
    alpha: float = 0.0
    k_p: float = rebalance.PIState.k_p
    k_i: float = rebalance.PIState.k_i
    y_ref: float = rebalance.PIState.y_ref
    y_hold: float = rebalance.PIState.y_hold
    graph_hold_score: bool = False
    min_retarget_gain_m: float = 0.0
    # clocks (seconds)
    tick_s: float = 1.0
    control_period_s: float = 10.0
    fleet_period_s: float = 300.0
    horizon_s: float = 10800.0
    # passengers
    beta: float = 1.5
    match_tolerance_s: float = demand.DEFAULT_MATCH_TOLERANCE_S
    pickup_tolerance_s: float = demand.DEFAULT_PICKUP_TOLERANCE_S
    # congestion
    baseline_accumulation: int = 0
    mfd: MFDParams = DEFAULT_MFD
    persistent_private_trips: bool = False
    # demand raster for planar controllers
    mixture: list | None = None
    resolution_m: float = 50.0
    # fleet
    placement: str = "uniform"
    seed: int = 1
    oracle: DistanceOracle | None = None

    def effective_r_graph(self) -> float:
        return self.r_graph_m if self.r_graph_m is not None else math.sqrt(2.0) * self.r_m

    def validate(self) -> None:
        def fail(field, msg):
            raise ConfigValidationError(field, msg)

        if self.controller not in rebalance.CONTROLLERS:
            fail("controller.name", f"unknown controller {self.controller!r}")
        for name, value in (
                ("controller.r_m", self.r_m), ("controller.r_graph_m", self.effective_r_graph()),
                ("controller.alpha", self.alpha), ("controller.k_p", self.k_p),
                ("controller.k_i", self.k_i), ("controller.y_ref", self.y_ref),
                ("controller.y_hold", self.y_hold),
                ("controller.min_retarget_gain_m", self.min_retarget_gain_m),
                ("sim.tick_s", self.tick_s), ("sim.control_period_s", self.control_period_s),
                ("sim.fleet_period_s", self.fleet_period_s), ("sim.horizon_s", self.horizon_s),
                ("sim.beta", self.beta), ("sim.match_tolerance_s", self.match_tolerance_s),
                ("sim.pickup_tolerance_s", self.pickup_tolerance_s),
                ("sim.resolution_m", self.resolution_m)):
            if not math.isfinite(value):
                fail(name, f"must be finite, got {value}")
        if self.n_av < 0:
            fail("fleet.n_av", "fleet size must be nonnegative")
        if self.seed < 0:
            fail("sim.seed", "seed must be nonnegative")
        if self.placement not in ("uniform", "destination"):
            fail("fleet.placement", f"unknown placement {self.placement!r}")
        if self.tick_s <= 0:
            fail("sim.tick_s", "tick must be positive")
        if not self.tick_s <= self.control_period_s <= self.fleet_period_s:
            fail("sim.control_period_s", "need tick <= control period <= fleet period")
        for name, period in (("sim.control_period_s", self.control_period_s),
                             ("sim.fleet_period_s", self.fleet_period_s)):
            ratio = period / self.tick_s
            if abs(ratio - round(ratio)) > 1e-9:
                fail(name, "must be an integer multiple of the tick")
        if self.horizon_s < 0:
            fail("sim.horizon_s", "horizon must be nonnegative")
        if self.r_m <= 0:
            fail("controller.r_m", "coverage radius must be positive")
        if self.effective_r_graph() <= 0:
            fail("controller.r_graph_m", "graph coverage radius must be positive")
        if self.resolution_m <= 0:
            fail("sim.resolution_m", "raster resolution must be positive")
        if self.match_tolerance_s < 0:
            fail("sim.match_tolerance_s", "match tolerance must be nonnegative")
        if self.pickup_tolerance_s < 0:
            fail("sim.pickup_tolerance_s", "pickup tolerance must be nonnegative")
        if not 0.0 <= self.alpha <= 1.0:
            fail("controller.alpha", "alpha must lie in [0, 1]")
        if self.beta < 0:
            fail("sim.beta", "beta must be nonnegative")
        if self.baseline_accumulation < 0:
            fail("sim.baseline_accumulation", "baseline accumulation must be nonnegative")
        mfd = self.mfd
        for key, value in mfd.__dict__.items():
            if key == "linear_slope" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                fail(f"sim.mfd.{key}", f"must be a finite number, got {value!r}")
        if mfd.free_flow_mps <= 0:
            fail("sim.mfd.free_flow_mps", "free-flow speed must be positive")
        if mfd.exp_rate < 0:
            fail("sim.mfd.exp_rate", "decay rate must be nonnegative")
        if mfd.exp_cutoff < 0:
            fail("sim.mfd.exp_cutoff", "cutoff must be nonnegative")
        if mfd.jam_accumulation <= mfd.exp_cutoff:
            fail("sim.mfd.jam_accumulation", "jam accumulation must exceed exp_cutoff")
        if mfd.linear_intercept < 0:
            fail("sim.mfd.linear_intercept", "intercept must be nonnegative")
        if mfd.linear_slope is not None and mfd.linear_slope < 0:
            fail("sim.mfd.linear_slope", "slope must be null or nonnegative")
        try:
            demand.check_profile(self.profile)
        except ValueError as exc:
            fail("demand.profile", str(exc))
        n = self.graph.n_nodes
        for name, mass in (("demand.origin", self.origin_mass),
                           ("demand.destination", self.destination_mass)):
            try:
                demand.check_node_mass(mass)
            except ValueError as exc:
                fail(name, str(exc))
            if len(mass) != n:
                fail(name, f"mass length {len(mass)} != {n} nodes")


@dataclass
class SimMetrics:
    """Aggregate performance counters of one run."""

    n_requests: int
    n_orders: int
    n_cancelled: int
    n_inflight: int
    completion_rate_pct: float
    mean_wait_s: float
    mean_system_time_s: float
    rebalance_distance_km: float
    service_distance_km: float

    def to_dict(self) -> dict:
        def jsonable(x):
            return None if isinstance(x, float) and math.isnan(x) else x
        return {k: jsonable(v) for k, v in self.__dict__.items()}


def estimate_pickup(graph: RoadGraph, oracle: DistanceOracle, position,
                    origin: int, now: float, speed_mps: float) -> float:
    """Estimated pickup clock time; infinite when the network is at standstill."""
    if speed_mps <= 0:
        return math.inf
    return now + position_node_distance(graph, oracle, position, origin) / speed_mps


def match_tick(pending, idle_vehicles, clock: float, graph: RoadGraph,
               oracle: DistanceOracle, speed_mps: float):
    """First-come-first-served matching decisions for one tick.

    Requests are visited in issue order. A request past its matching
    tolerance is cancelled without a further attempt; otherwise the
    spatially closest idle vehicle (shortest-path distance, ties to the
    smaller id) is matched if its pickup estimate respects the pickup
    tolerance, and leaves the pool immediately. Nothing is mutated; returns
    (matches, cancellations) as ([(request, vehicle)], [request]).
    """
    pool = list(idle_vehicles)
    fwd, lead = position_leads(graph, [veh.position for veh in pool])
    taken = np.zeros(len(pool), dtype=bool)
    matches = []
    cancellations = []
    for req in pending:
        if clock >= req.t0 + req.t_mtol - 1e-9:
            cancellations.append(req)
            continue
        if len(matches) == len(pool):
            continue
        d = lead + oracle.dist[fwd, req.origin]
        d[taken] = math.inf
        best = int(np.argmin(d))  # first occurrence: the earliest vehicle in pool order
        # estimate_pickup stays the one definition of the estimate; it
        # recomputes the distance of the chosen vehicle only.
        estimate = estimate_pickup(graph, oracle, pool[best].position, req.origin,
                                   clock, speed_mps)
        if estimate - req.t0 <= req.t_ptol + 1e-9:
            matches.append((req, pool[best]))
            taken[best] = True
    return matches, cancellations


def metrics_finalize(requests, beta: float,
                     rebalance_km: float = 0.0, service_km: float = 0.0) -> SimMetrics:
    """Fold request records into aggregate metrics.

    Orders are requests whose pickup happened; requests still in flight at
    the horizon count toward the total but attract no penalty. mean_wait_s
    is NaN when there were no orders, and completion reports 100% for an
    empty run (n_requests carries the flag).
    """
    n_req = len(requests)
    orders = [r for r in requests if r.pickup_time is not None]
    cancelled = [r for r in requests if r.status == CANCELLED]
    n_orders = len(orders)
    wait_sum = sum(r.pickup_time - r.t0 for r in orders)
    penalty = sum(beta * r.t_ptol for r in cancelled)
    return SimMetrics(
        n_requests=n_req,
        n_orders=n_orders,
        n_cancelled=len(cancelled),
        n_inflight=n_req - n_orders - len(cancelled),
        completion_rate_pct=100.0 * n_orders / n_req if n_req else 100.0,
        mean_wait_s=wait_sum / n_orders if n_orders else math.nan,
        mean_system_time_s=(wait_sum + penalty) / n_req if n_req else math.nan,
        rebalance_distance_km=rebalance_km,
        service_distance_km=service_km,
    )


class World:
    """Owns all mutable simulation state and the tick loop."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.graph = cfg.graph
        self.oracle = cfg.oracle if cfg.oracle is not None else all_pairs_shortest(cfg.graph)

        self.requests = demand.generate_requests(
            cfg.profile, cfg.origin_mass, cfg.destination_mass,
            np.random.SeedSequence([int(cfg.seed), 0]),
            t_mtol=cfg.match_tolerance_s, t_ptol=cfg.pickup_tolerance_s,
        )
        placement_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 1]))
        n_nodes = self.graph.n_nodes
        if cfg.placement == "uniform":
            starts = placement_rng.integers(0, n_nodes, size=cfg.n_av)
        else:
            starts = placement_rng.choice(n_nodes, size=cfg.n_av, p=cfg.destination_mass)
        self.vehicles = [Vehicle(i, int(n)) for i, n in enumerate(starts)]

        self.field = self._build_field() if cfg.controller in ("cvr", "cvr_alpha", "cvr_pi") else None

        self.tick = 0
        self.pending: list[Request] = []
        self._next_request = 0
        self.n_injected = 0
        self.private_remaining: list[float] = []
        self.cum_cancelled = 0
        self.prev_dest: dict[int, int | None] = {}
        self.pi_state = rebalance.PIState(k_p=cfg.k_p, k_i=cfg.k_i,
                                          y_ref=cfg.y_ref, y_hold=cfg.y_hold)
        self.pi_hold_all = False
        self.pi_hold_count = 0
        self._window_waits: list[float] = []
        self._window_idle_sum = 0.0
        self._window_ticks = 0
        self.series: list[tuple] = []
        self.match_log: list[tuple[float, int, int]] = []  # (clock, request, vehicle)
        self._record_series()

        self._ctrl_every = int(round(cfg.control_period_s / cfg.tick_s))
        self._fleet_every = int(round(cfg.fleet_period_s / cfg.tick_s))

    # -- derived quantities -------------------------------------------------

    @property
    def clock(self) -> float:
        return self.tick * self.cfg.tick_s

    @property
    def accumulation(self) -> int:
        return self.cfg.baseline_accumulation + self.cfg.n_av + len(self.private_remaining)

    def current_speed(self) -> float:
        return mfd_speed(self.accumulation, self.cfg.mfd)

    def idle_vehicles(self) -> list[Vehicle]:
        return [v for v in self.vehicles if v.state == IDLE]

    def _build_field(self) -> plane.GridField:
        xmin, ymin, xmax, ymax = self.graph.bounding_box()
        res = self.cfg.resolution_m
        if xmax - xmin < res:
            xmin, xmax = xmin - res / 2, xmax + res / 2
        if ymax - ymin < res:
            ymin, ymax = ymin - res / 2, ymax + res / 2
        box = (xmin, ymin, xmax, ymax)
        if self.cfg.mixture is not None:
            return plane.rasterize_mixture(box, res, self.cfg.mixture)
        return plane.rasterize_node_mass(box, res, self.graph, self.cfg.origin_mass)

    # -- tick phases ----------------------------------------------------------

    def step(self) -> None:
        clock = self.clock
        speed = self.current_speed()

        # (1) inject due requests
        while (self._next_request < len(self.requests)
               and self.requests[self._next_request].t0 <= clock + 1e-9):
            self.pending.append(self.requests[self._next_request])
            self._next_request += 1
            self.n_injected += 1

        # (2) match / cancel
        if self.pending:
            matches, cancellations = match_tick(
                self.pending, self.idle_vehicles(), clock, self.graph, self.oracle, speed)
            for req, veh in matches:
                self._apply_match(req, veh, clock)
            for req in cancellations:
                self._apply_cancellation(req, clock)
            taken = {r.id for r, _ in matches} | {r.id for r in cancellations}
            if taken:
                self.pending = [r for r in self.pending if r.id not in taken]

        # (3) rebalancing controller
        if self.tick % self._ctrl_every == 0:
            self._controller_tick(speed)

        # (4) fleet-size adapter
        if (self.cfg.controller == "cvr_pi" and self.tick > 0
                and self.tick % self._fleet_every == 0):
            self._fleet_size_tick()

        # (5) advance the world by one tick
        self._advance(speed)
        self.tick += 1
        self._record_series()

    def run(self, until: float | None = None) -> SimMetrics:
        horizon = self.cfg.horizon_s if until is None else min(until, self.cfg.horizon_s)
        while self.clock < horizon - 1e-9:
            self.step()
        return self.metrics()

    def metrics(self) -> SimMetrics:
        injected = self.requests[:self._next_request]
        return metrics_finalize(
            injected, self.cfg.beta,
            rebalance_km=sum(v.rebalance_m for v in self.vehicles) / 1000.0,
            service_km=sum(v.service_m for v in self.vehicles) / 1000.0,
        )

    # -- matching and cancellation -------------------------------------------

    def _apply_match(self, req: Request, veh: Vehicle, clock: float) -> None:
        req.status = MATCHED
        req.match_time = clock
        req.vehicle_id = veh.id
        veh.state = ASSIGNED
        veh.request = req
        veh.held = False
        self._route_to(veh, req.origin)
        self.match_log.append((clock, req.id, veh.id))

    def _apply_cancellation(self, req: Request, clock: float) -> None:
        req.status = CANCELLED
        self.cum_cancelled += 1
        self.private_remaining.append(float(self.oracle.dist[req.origin, req.destination]))

    # -- controller ------------------------------------------------------------

    def _controller_tick(self, speed: float) -> None:
        idles = self.idle_vehicles()
        if not idles:
            return
        cfg = self.cfg
        ids = [v.id for v in idles]
        name = cfg.controller
        if name == "do_nothing" or (name == "lp" and speed <= 0):
            decision = rebalance.do_nothing(ids)
        elif name == "lp":
            decision = rebalance.lp_rebalance(
                ids, [v.position for v in idles], [r.origin for r in self.pending],
                self.graph, self.oracle, speed)
        elif name == "cvr_graph":
            decision = rebalance.cvr_graph_targets(
                ids, [v.forward_node() for v in idles], cfg.origin_mass,
                self.oracle, cfg.effective_r_graph())
        else:
            xy = np.array([v.position_xy(self.graph) for v in idles])
            summary = plane.coverage_summary(self.field, xy, cfg.r_m)
            held: set[int] = set()
            hold_n = 0
            if name == "cvr_alpha":
                hold_n = int(math.floor(len(ids) * cfg.alpha))
            elif name == "cvr_pi":
                hold_n = len(ids) if self.pi_hold_all else min(self.pi_hold_count, len(ids))
            if hold_n > 0:
                if cfg.graph_hold_score:
                    scores = rebalance.hold_scores_graph(
                        [v.forward_node() for v in idles], cfg.origin_mass,
                        self.oracle, cfg.effective_r_graph())
                else:
                    scores = rebalance.hold_scores(xy, self.field, cfg.r_m, summary)
                held = rebalance.select_holds(ids, hold_n, scores)
            decision = rebalance.cvr_targets(
                ids, xy, self.field, cfg.r_m, self.graph,
                held=held, previous=self.prev_dest, summary=summary,
                min_retarget_gain_m=cfg.min_retarget_gain_m)
        self._apply_decision(decision)

    def _apply_decision(self, decision: rebalance.RebalanceDecision) -> None:
        by_id = {v.id: v for v in self.vehicles}
        for vid, dest in decision.destination.items():
            veh = by_id[vid]
            if dest is None:
                veh.held = True
                veh.route.clear()
            else:
                veh.held = False
                self.prev_dest[vid] = int(dest)
                self._route_to(veh, int(dest))

    def _fleet_size_tick(self) -> None:
        window_ticks = max(self._window_ticks, 1)
        mean_wait = (sum(self._window_waits) / len(self._window_waits)
                     if self._window_waits else 0.0)
        mean_idle = self._window_idle_sum / window_ticks
        update = rebalance.pi_update(self.pi_state, mean_wait, mean_idle,
                                     self.cfg.n_av, len(self.idle_vehicles()))
        self.pi_state = update.state
        self.pi_hold_all = update.hold_all
        self.pi_hold_count = update.hold_count
        self._window_waits = []
        self._window_idle_sum = 0.0
        self._window_ticks = 0

    # -- movement ---------------------------------------------------------------

    def _route_to(self, veh: Vehicle, dest: int) -> None:
        """Plan from the vehicle's forward node; mid-edge vehicles never U-turn."""
        if veh.node is not None:
            veh.route = deque(self.oracle.path(veh.node, dest)[1:])
        else:
            fwd = veh.edge[1]
            hops = [fwd] if fwd == dest else self.oracle.path(fwd, dest)
            veh.route = deque(hops)

    def _do_pickup(self, veh: Vehicle, t: float) -> None:
        req = veh.request
        req.status = PICKED_UP
        req.pickup_time = t
        self._window_waits.append(t - req.t0)
        veh.state = CARRYING
        self._route_to(veh, req.destination)
        if not veh.route:
            self._do_dropoff(veh, t)

    def _do_dropoff(self, veh: Vehicle, t: float) -> None:
        req = veh.request
        req.status = COMPLETED
        req.dropoff_time = t
        veh.state = IDLE
        veh.request = None

    def _on_route_end(self, veh: Vehicle, t: float) -> bool:
        """State transition at a route's final node; True if the vehicle pauses."""
        if veh.state == ASSIGNED:
            self._do_pickup(veh, t)
            return True
        if veh.state == CARRYING:
            self._do_dropoff(veh, t)
            return True
        return False  # idle vehicle reached its rebalancing destination

    def _advance(self, speed: float) -> None:
        dt = self.cfg.tick_s
        clock = self.clock
        # zero-distance events: vehicles matched while standing at the origin
        for veh in self.vehicles:
            if veh.state == ASSIGNED and not veh.route and veh.node == veh.request.origin:
                self._do_pickup(veh, clock)
        if speed <= 0:
            self._window_idle_sum += len(self.idle_vehicles())
            self._window_ticks += 1
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
        if self.private_remaining and not self.cfg.persistent_private_trips:
            move = speed * dt
            self.private_remaining = [r - move for r in self.private_remaining if r - move > 1e-9]
        self._window_idle_sum += len(self.idle_vehicles())
        self._window_ticks += 1

    # -- observation --------------------------------------------------------------

    def _record_series(self) -> None:
        idle_active = idle_held = assigned = carrying = 0
        for v in self.vehicles:
            if v.state == IDLE:
                if v.held:
                    idle_held += 1
                else:
                    idle_active += 1
            elif v.state == ASSIGNED:
                assigned += 1
            else:
                carrying += 1
        self.series.append((
            self.clock, idle_active, idle_held, assigned, carrying,
            self.accumulation,
            sum(v.rebalance_m for v in self.vehicles) / 1000.0,
            self.cum_cancelled,
        ))

    def snapshot(self) -> dict:
        """Per-vehicle state plus the current idle-fleet Voronoi assignment."""
        vehicles = []
        for v in self.vehicles:
            x, y = v.position_xy(self.graph)
            vehicles.append({
                "id": v.id, "x_m": float(x), "y_m": float(y),
                "node": v.node, "edge": v.edge, "offset_m": v.offset,
                "state": v.state, "held": v.held,
                "destination": self.prev_dest.get(v.id),
            })
        snap = {"t_s": self.clock, "vehicles": vehicles}
        idles = self.idle_vehicles()
        if self.field is not None and idles:
            xy = np.array([v.position_xy(self.graph) for v in idles])
            snap["pixel_assignment"] = plane.plane_voronoi(self.field, xy)
            snap["pixel_generator_ids"] = [v.id for v in idles]
            snap["field"] = self.field
        elif idles:
            nodes = sorted({v.forward_node() for v in idles})
            snap["node_assignment"] = graph_voronoi(self.oracle, nodes)
        return snap


def run_scenario(cfg: SimConfig) -> tuple[SimMetrics, list[tuple], list[Request]]:
    """Run one scenario to its horizon.

    Returns (metrics, timeseries rows, injected request records).
    """
    world = World(cfg)
    metrics = world.run()
    return metrics, world.series, world.requests[:world._next_request]
