"""Discrete-time AMoD fleet simulation.

A single-threaded event loop owns the world state. Each tick: due requests
are injected, pending requests are matched first-come-first-served against
the idle fleet, the rebalancing controller runs on its own period, the
fleet-size adapter runs on a slower period, and everything moves along
shortest paths at the network-wide speed given by the accumulation-speed
relation. Runs are deterministic functions of the configuration seed.
Every pickup and drop-off happens in :meth:`World._arrive`, where a route ends:
on arrival, or at the match of a vehicle that already stands at the origin.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import demand, plane, rebalance
from .demand import CANCELLED, COMPLETED, MATCHED, PENDING, PICKED_UP, Request
from .errors import ConfigValidationError, reported_on
from .roadnet import (
    DistanceOracle,
    RoadGraph,
    _real,
    all_pairs_shortest,
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

    Exponential decay up to ``exp_cutoff`` vehicles, then a linear ramp from
    ``linear_intercept`` that reaches zero at ``jam_accumulation``.
    """

    free_flow_mps: float = 36.0
    exp_rate: float = 29.0 / 72000.0
    exp_cutoff: float = 4320.0
    jam_accumulation: float = 7200.0
    linear_intercept: float = 6.31


DEFAULT_MFD = MFDParams()


def mfd_speed(m: float, params: MFDParams = DEFAULT_MFD) -> float:
    """Space-mean speed in m/s for a network accumulation of m vehicles."""
    if m < 0:
        raise ValueError("accumulation must be nonnegative")
    if m <= params.exp_cutoff:
        return params.free_flow_mps * math.exp(-params.exp_rate * m)
    if m <= params.jam_accumulation:
        span = params.jam_accumulation - params.exp_cutoff
        v = params.linear_intercept * (1.0 - (m - params.exp_cutoff) / span)
        return max(v, 0.0)
    return 0.0


STATES = (IDLE, ASSIGNED, CARRYING)  # Fleet.state holds an index into this tuple
_IDLE, _ASSIGNED, _CARRYING = range(len(STATES))
HOLD = rebalance.HOLD  # Fleet.dest of a held vehicle
NO_DEST = -2  # Fleet.dest of a vehicle that neither drives nor holds


class Fleet:
    """Every vehicle's state as arrays; vehicle i owns slot i.

    A vehicle stands at ``node[i]`` when ``tail[i] == -1``. Otherwise it
    drives the edge ``(tail[i], node[i])`` and is ``offset[i]`` meters past
    its tail, on an edge ``length[i]`` long (0.0 at a node). So ``node`` is
    always the forward node and ``length - offset`` the distance still to
    drive to it. Requests stay per vehicle, in a plain list.

    A route is its destination: ``dest[i]`` is the node vehicle i drives to
    (>= 0), :data:`HOLD` while the controller holds it where it stands, or
    :data:`NO_DEST`. The way to a node is the oracle's next-hop walk from
    the forward node, looked up one hop at a time, and a hop's length is the
    oracle's ``dist[tail, node]``; see :class:`~cvrsim.roadnet.DistanceOracle`
    for why that is the edge's length. A vehicle moves if and only if it has
    a destination, ``dest[i] >= 0``.
    """

    def __init__(self, graph: RoadGraph, starts):
        n = len(starts)
        self.graph = graph
        self.node = np.array(starts, dtype=np.int64)
        self.tail = np.full(n, -1, dtype=np.int64)
        self.offset = np.zeros(n)
        self.length = np.zeros(n)
        self.state = np.zeros(n, dtype=np.int8)
        self.service_m = np.zeros(n)
        self.rebalance_m = np.zeros(n)
        self.dest = np.full(n, NO_DEST, dtype=np.int64)
        self.requests: list[Request | None] = [None] * n

    def xy(self, ids) -> np.ndarray:
        """(k, 2) planar positions of the listed vehicles, interpolated along their edges."""
        ids = np.asarray(ids, dtype=np.int64)
        coords = self.graph.coords
        out = coords[self.node[ids]]
        on_edge = self.tail[ids] >= 0
        if on_edge.any():
            e = ids[on_edge]
            frac = self.offset[e] / self.length[e]
            start = coords[self.tail[e]]
            out[on_edge] = start + frac[:, None] * (coords[self.node[e]] - start)
        return out


# The most vehicles one numpy array can index.
_MAX_FLEET = int(np.iinfo(np.intp).max)

# Every key of a scenario's fleet, controller and sim sections, by the
# SimConfig field it sets: (dotted path, JSON type, range or None, the reason a
# value out of range is rejected). The scenario parser picks each key's parser
# from its type; SimConfig.validate checks each type, then each range.
SCENARIO_KEYS = {
    "n_av": ("fleet.n_av", int, lambda v: 0 <= v <= _MAX_FLEET,
             f"fleet size must lie in [0, {_MAX_FLEET}]"),
    "placement": ("fleet.placement", str, lambda v: v == "uniform", "unknown placement {!r}"),
    "controller": ("controller.name", str, lambda v: v in rebalance.CONTROLLERS,
                   "unknown controller {!r}"),
    "r_m": ("controller.r_m", float, lambda v: v > 0, "coverage radius must be positive"),
    "r_graph_m": ("controller.r_graph_m", float, lambda v: v > 0,
                  "graph coverage radius must be positive"),
    "alpha": ("controller.alpha", float, lambda v: 0.0 <= v <= 1.0, "alpha must lie in [0, 1]"),
    "k_p": ("controller.k_p", float, None, None),
    "k_i": ("controller.k_i", float, None, None),
    "y_ref": ("controller.y_ref", float, None, None),
    "y_hold": ("controller.y_hold", float, None, None),
    "tick_s": ("sim.tick_s", float, lambda v: v > 0, "tick must be positive"),
    "control_period_s": ("sim.control_period_s", float, None, None),
    "fleet_period_s": ("sim.fleet_period_s", float, None, None),
    "horizon_s": ("sim.horizon_s", float, lambda v: v >= 0, "horizon must be nonnegative"),
    "beta": ("sim.beta", float, lambda v: v >= 0, "beta must be nonnegative"),
    "match_tolerance_s": ("sim.match_tolerance_s", float, lambda v: v >= 0,
                          "match tolerance must be nonnegative"),
    "pickup_tolerance_s": ("sim.pickup_tolerance_s", float, lambda v: v >= 0,
                           "pickup tolerance must be nonnegative"),
    "baseline_accumulation": ("sim.baseline_accumulation", int, lambda v: v >= 0,
                              "baseline accumulation must be nonnegative"),
    "mfd": ("sim.mfd", MFDParams, None, None),
    "resolution_m": ("sim.resolution_m", float, lambda v: v > 0,
                     "raster resolution must be positive"),
    "seed": ("sim.seed", int, lambda v: v >= 0, "seed must be nonnegative"),
}


def _has_type(value, kind) -> bool:
    if kind in (int, float):
        abstract = numbers.Integral if kind is int else numbers.Real
        return isinstance(value, abstract) and not isinstance(value, bool)
    return type(value) is kind


# Every MFDParams field, the keys a scenario's sim.mfd may hold: (range or None,
# the reason a value out of range is rejected). SimConfig.validate checks each
# value as a float key of SCENARIO_KEYS, named sim.mfd.<field>.
MFD_KEYS = {
    "free_flow_mps": (lambda v: v > 0, "free-flow speed must be positive"),
    "exp_rate": (lambda v: v >= 0, "decay rate must be nonnegative"),
    "exp_cutoff": (lambda v: v >= 0, "cutoff must be nonnegative"),
    "jam_accumulation": (None, None),
    "linear_intercept": (lambda v: v >= 0, "intercept must be nonnegative"),
}


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
    # demand raster for planar controllers
    mixture: list | None = None
    resolution_m: float = 50.0
    # fleet
    placement: str = "uniform"
    seed: int = 1

    def effective_r_graph(self) -> float:
        return self.r_graph_m if self.r_graph_m is not None else math.sqrt(2.0) * self.r_m

    def validate(self) -> None:
        """Reject the first bad value with a ConfigValidationError naming its key.

        Each key of :data:`SCENARIO_KEYS`, then each value of ``mfd`` under
        :data:`MFD_KEYS`, is checked alone, in table order: its type (a number
        of that kind but not a bool for int and float, else the exact type), a
        float must be finite as the scenario files' number reader reads it,
        then its range. The checks that span several fields follow.
        """
        def fail(field, msg):
            raise ConfigValidationError(field, msg)

        def check(path, value, kind, in_range, reason):
            if not _has_type(value, kind):
                fail(path, f"must be of type {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(real := _real(value)):
                fail(path, f"must be finite, got {real}")
            if in_range is not None and not in_range(value):
                fail(path, reason.format(value))

        for field, (path, *spec) in SCENARIO_KEYS.items():
            # an unset r_graph_m is checked as the radius a run uses, once r_m is
            check(path, self.effective_r_graph() if field == "r_graph_m" else getattr(self, field),
                  *spec)
        for key, spec in MFD_KEYS.items():
            check(f"sim.mfd.{key}", getattr(self.mfd, key), float, *spec)
        if not self.tick_s <= self.control_period_s <= self.fleet_period_s:
            fail("sim.control_period_s", "need tick <= control period <= fleet period")
        for name, period in (("sim.control_period_s", self.control_period_s),
                             ("sim.fleet_period_s", self.fleet_period_s)):
            ratio = period / self.tick_s
            if not math.isfinite(ratio):  # a subnormal tick
                fail(name, "must span a finite number of ticks")
            if abs(ratio - round(ratio)) > 1e-9:
                fail(name, "must be an integer multiple of the tick")
        # World.series holds a row per tick, and no list holds more than sys.maxsize
        if self.horizon_s / self.tick_s > sys.maxsize:
            fail("sim.horizon_s", f"must span at most {sys.maxsize} ticks")
        if self.controller == "cvr_pi":
            # The largest values rebalance.pi_update meets over the run: a
            # window's wait sum (at most one pickup per vehicle a tick, over at
            # most fleet period / tick + 1 ticks, each waiting less than the
            # horizon), the error |y_ref - y| and the integral of at most
            # horizon / fleet period errors. The factor 4 covers that + 1, the
            # sum of the two PI terms and its rounding.
            n_av, horizon = float(self.n_av), float(self.horizon_s)
            err = abs(float(self.y_ref)) + math.sqrt(horizon * n_av)
            integral = err * (horizon / self.fleet_period_s)
            for name, bound in (
                    ("sim.horizon_s", horizon * n_av * (self.fleet_period_s / self.tick_s)),
                    ("controller.y_ref", integral),
                    ("controller.k_p", abs(float(self.k_p)) * err),
                    ("controller.k_i", abs(float(self.k_i)) * integral)):
                if not math.isfinite(4.0 * bound):
                    fail(name, "lets the PI adapter's terms leave the float range over the run")
        if self.mfd.jam_accumulation <= self.mfd.exp_cutoff:
            fail("sim.mfd.jam_accumulation", "jam accumulation must exceed exp_cutoff")
        with reported_on("demand.profile"):
            demand.check_profile(self.profile)
        n = self.graph.n_nodes
        for name, mass in (("demand.origin", self.origin_mass),
                           ("demand.destination", self.destination_mass)):
            with reported_on(name):
                demand.check_node_mass(mass)
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
        """The metrics as JSON values: a NaN or infinite float is None (null)."""
        def jsonable(x):
            return None if isinstance(x, float) and not math.isfinite(x) else x
        return {k: jsonable(v) for k, v in self.__dict__.items()}


def estimate_pickup(distance_m: float, now: float, speed_mps: float) -> float:
    """Estimated pickup clock time of a vehicle ``distance_m`` meters from the origin.

    The distance is :func:`~cvrsim.roadnet.position_node_distance`'s. Infinite
    when the network is at standstill.
    """
    if speed_mps <= 0:
        return math.inf
    return now + distance_m / speed_mps


@dataclass(frozen=True)
class IdlePool:
    """The idle vehicles offered to matching, in pool order.

    ``ids[k]`` is a :class:`Fleet` slot, ``fwd[k]`` its forward node and
    ``lead[k]`` the distance still to drive to it.
    """

    ids: np.ndarray
    fwd: np.ndarray
    lead: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def match_tick(pending, pool: IdlePool, clock: float, oracle: DistanceOracle, speed_mps: float):
    """First-come-first-served matching decisions for one tick.

    Requests are visited in issue order. A request past its matching
    tolerance is cancelled without a further attempt; otherwise the
    spatially closest idle vehicle (shortest-path distance, ties to the
    earlier vehicle in pool order) is matched if its pickup estimate
    respects the pickup tolerance, and leaves the pool immediately. Nothing
    is mutated; returns (matches, cancellations) as
    ([(request, vehicle id)], [request]).

    One call to :func:`position_node_distance` gives the (pending, pool)
    block of distances, and a matched vehicle's column is set to infinity.
    """
    origins = np.array([req.origin for req in pending], dtype=np.int64)
    block = position_node_distance(oracle, pool.fwd, pool.lead, origins[:, None])
    matches = []
    cancellations = []
    for req, d in zip(pending, block):
        if clock >= req.t0 + req.t_mtol - 1e-9:
            cancellations.append(req)
            continue
        if len(matches) == len(pool):
            continue
        best = d.argmin()  # first occurrence: the earliest vehicle in pool order
        if estimate_pickup(d[best], clock, speed_mps) - req.t0 <= req.t_ptol + 1e-9:
            matches.append((req, pool.ids.item(best)))
            block[:, best] = math.inf  # taken: no later request sees it
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


def _total(values: np.ndarray) -> float:
    """Sum of ``values`` added left to right, as Python 3.10 and 3.11's ``sum`` adds floats."""
    return np.add.accumulate(values)[-1].item() if values.size else 0.0


class World:
    """Owns all mutable simulation state and the tick loop."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.graph = cfg.graph
        self.oracle = all_pairs_shortest(cfg.graph)

        self.requests = demand.generate_requests(
            cfg.profile, cfg.origin_mass, cfg.destination_mass,
            np.random.SeedSequence([int(cfg.seed), 0]),
            t_mtol=cfg.match_tolerance_s, t_ptol=cfg.pickup_tolerance_s,
        )
        placement_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 1]))
        self.fleet = Fleet(self.graph, placement_rng.integers(0, self.graph.n_nodes, cfg.n_av))

        self.field = None
        if cfg.controller in ("cvr", "cvr_alpha", "cvr_pi"):
            self.field = self._build_field()

        self.tick = 0
        self.pending: list[Request] = []
        self.n_injected = 0
        self.private_remaining: list[float] = []
        self.cum_cancelled = 0
        # The PI adapter's state; no update has run yet, so nobody holds.
        self.pi = rebalance.PIState(k_p=cfg.k_p, k_i=cfg.k_i, y_ref=cfg.y_ref, y_hold=cfg.y_hold)
        self._window_waits: list[float] = []
        self.series: list[tuple] = []
        self._record_series()
        self._window_start = len(self.series)  # first series row of the PI window

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

    def idle_ids(self) -> np.ndarray:
        """The idle vehicles' fleet slots, ascending."""
        return (self.fleet.state == _IDLE).nonzero()[0]

    def _idle_pool(self) -> IdlePool:
        f = self.fleet
        ids = self.idle_ids()
        return IdlePool(ids, f.node[ids], (f.length - f.offset)[ids])

    def _build_field(self) -> plane.GridField:
        xmin, ymin, xmax, ymax = self.graph.bounding_box()
        res = self.cfg.resolution_m
        if xmax - xmin < res:
            xmin, xmax = xmin - res / 2, xmax + res / 2
        if ymax - ymin < res:
            ymin, ymax = ymin - res / 2, ymax + res / 2
        box = (xmin, ymin, xmax, ymax)
        with reported_on("sim.resolution_m"):  # a raster too large to hold, or a box it cannot cut
            plane.raster_shape(box, res)
        with reported_on("demand.origin"):  # a mixture that is positive at a node but at no pixel
            if self.cfg.mixture is not None:
                return plane.rasterize_mixture(box, res, self.cfg.mixture)
            return plane.rasterize_node_mass(box, res, self.graph, self.cfg.origin_mass)

    # -- tick phases ----------------------------------------------------------

    def step(self) -> None:
        clock = self.clock
        speed = self.current_speed()

        # (1) inject due requests
        while (self.n_injected < len(self.requests)
               and self.requests[self.n_injected].t0 <= clock + 1e-9):
            self.pending.append(self.requests[self.n_injected])
            self.n_injected += 1

        # (2) match / cancel
        if self.pending:
            matches, cancellations = match_tick(
                self.pending, self._idle_pool(), clock, self.oracle, speed)
            for req, i in matches:
                self._apply_match(req, i, clock)
            for req in cancellations:
                self._apply_cancellation(req)
            self.pending = [r for r in self.pending if r.status == PENDING]

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
        injected = self.requests[:self.n_injected]
        return metrics_finalize(
            injected, self.cfg.beta,
            rebalance_km=_total(self.fleet.rebalance_m) / 1000.0,
            service_km=_total(self.fleet.service_m) / 1000.0,
        )

    # -- matching and cancellation -------------------------------------------

    def _apply_match(self, req: Request, i: int, clock: float) -> None:
        f = self.fleet
        req.status = MATCHED
        req.match_time = clock
        req.vehicle_id = i
        f.state[i], f.requests[i] = _ASSIGNED, req
        self._route_to(i, req.origin)
        if f.dest[i] < 0:  # it already stands at the origin
            self._arrive(i, clock)

    def _apply_cancellation(self, req: Request) -> None:
        req.status = CANCELLED
        self.cum_cancelled += 1
        self.private_remaining.append(float(self.oracle.dist[req.origin, req.destination]))

    # -- controller ------------------------------------------------------------

    def _controller_tick(self, speed: float) -> None:
        pool = self._idle_pool()
        if not len(pool):
            return
        cfg = self.cfg
        f = self.fleet
        ids, nodes = pool.ids, pool.fwd
        name = cfg.controller
        if name == "do_nothing" or (name == "lp" and speed <= 0):
            decision = rebalance.do_nothing(len(ids))
        elif name == "lp":
            decision = rebalance.lp_rebalance(
                nodes, pool.lead, [r.origin for r in self.pending], self.oracle, speed)
        elif name == "cvr_graph":
            decision = rebalance.cvr_graph_targets(
                nodes, cfg.origin_mass, self.oracle, cfg.effective_r_graph())
        else:
            summary = plane.coverage_summary(self.field, f.xy(ids), cfg.r_m)
            held = None
            hold_n = 0
            if name == "cvr_alpha":
                hold_n = int(math.floor(len(ids) * cfg.alpha))
            elif name == "cvr_pi":
                hold_n = self.pi.hold_count
            if hold_n > 0:
                held = rebalance.select_holds(hold_n, rebalance.hold_scores(summary))
            # Where each vehicle heads now: its destination, else the node it
            # stands at, else nowhere (HOLD: held inside an edge).
            dest = f.dest[ids]
            previous = np.where((dest < 0) & (f.tail[ids] < 0), nodes, dest)
            decision = rebalance.cvr_targets(summary, self.graph, held=held, previous=previous)
        self._route_to(ids, decision.destination)

    def _fleet_size_tick(self) -> None:
        window = self.series[self._window_start:]  # one row per tick since the last update
        mean_wait = (sum(self._window_waits) / len(self._window_waits)
                     if self._window_waits else 0.0)
        mean_idle = sum(row[1] + row[2] for row in window) / max(len(window), 1)
        self.pi = rebalance.pi_update(self.pi, mean_wait, mean_idle,
                                      self.cfg.n_av, len(self.idle_ids()))
        self._window_waits = []
        self._window_start = len(self.series)

    # -- movement ---------------------------------------------------------------

    def _route_to(self, i, dest) -> None:
        """Send vehicle(s) i to node ``dest``, or hold them where ``dest`` is HOLD.

        Mid-edge vehicles reach their forward node first, and a vehicle at its
        target node gets NO_DEST.
        """
        f = self.fleet
        f.dest[i] = np.where((f.tail[i] < 0) & (f.node[i] == dest), NO_DEST, dest)

    def _arrive(self, i: int, t: float) -> None:
        """Vehicle i's route ended at its node at time ``t``: the one place events happen.

        An assigned vehicle picks up, and drops off at once when the trip
        ends at the node it stands on; a carrying vehicle drops off; an idle
        vehicle just stops.
        """
        f = self.fleet
        req = f.requests[i]
        if f.state[i] == _ASSIGNED:
            req.status, req.pickup_time = PICKED_UP, t
            self._window_waits.append(t - req.t0)
            f.state[i] = _CARRYING
            self._route_to(i, req.destination)
            if f.dest[i] >= 0:
                return
        if f.state[i] == _CARRYING:
            req.status, req.dropoff_time = COMPLETED, t
            f.state[i], f.requests[i] = _IDLE, None

    def _advance(self, speed: float) -> None:
        if speed > 0:
            dt = self.cfg.tick_s
            budget = speed * dt
            if budget > 1e-12:
                self._move(budget, self.clock + dt)
            # private traffic from cancellations moves at the same network speed
            if self.private_remaining:
                self.private_remaining = [r - budget for r in self.private_remaining
                                          if r - budget > 1e-9]

    def _move(self, budget: float, t_end: float) -> None:
        """Drive every vehicle ``budget`` meters along its route; it moves iff ``dest >= 0``.

        A moving vehicle that stays inside its edge only adds ``budget`` to its
        offset and to one odometer; all of those move in one masked step. The
        other movers reach a node this tick, or start it at one, and go through
        :meth:`_drive` in ascending id order, so events keep their order.
        """
        f = self.fleet
        moving = f.dest >= 0
        offset = f.offset + budget
        # At a node length is 0.0, so only a vehicle inside its edge glides.
        glide = (offset < f.length - 1e-9) & (budget < f.length - f.offset) & moving
        np.copyto(f.offset, offset, where=glide)
        idle = f.state == _IDLE
        np.add(f.rebalance_m, budget, out=f.rebalance_m, where=glide & idle)
        np.add(f.service_m, budget, out=f.service_m, where=glide > idle)
        for i in (moving ^ glide).nonzero()[0].tolist():
            self._drive(i, budget, t_end)

    def _drive(self, i: int, budget: float, t_end: float) -> None:
        """Move vehicle i edge by edge until the budget runs out or it arrives.

        Each hop and its length come from the oracle: the next hop toward
        ``dest``, and ``dist[tail, node]``, the length of a hop's edge.
        """
        f = self.fleet
        dest = f.dest.item(i)
        next_hop, dist = self.oracle.next_hop, self.oracle.dist
        node, tail = f.node.item(i), f.tail.item(i)
        offset, length = f.offset.item(i), f.length.item(i)
        odometer = f.rebalance_m if f.state.item(i) == _IDLE else f.service_m
        driven = odometer.item(i)
        while budget > 1e-12 and dest >= 0:
            if tail < 0:
                tail, node, offset = node, next_hop.item(node, dest), 0.0
                length = dist.item(tail, node)
            step = min(budget, length - offset)
            offset += step
            budget -= step
            driven += step
            if offset >= length - 1e-9:
                tail, offset, length = -1, 0.0, 0.0
                if node == dest:
                    dest = NO_DEST
        f.node[i], f.tail[i], f.offset[i], f.length[i] = node, tail, offset, length
        f.dest[i] = dest
        odometer[i] = driven
        if dest < 0:  # the route ended at this node
            self._arrive(i, t_end)

    # -- observation --------------------------------------------------------------

    def _record_series(self) -> None:
        f = self.fleet
        idle, assigned, carrying = np.bincount(f.state, minlength=len(STATES)).tolist()
        idle_held = int(np.count_nonzero(f.dest == HOLD))  # only idle vehicles hold
        self.series.append((
            self.clock, idle - idle_held, idle_held, assigned, carrying,
            self.accumulation,
            _total(f.rebalance_m) / 1000.0,
            self.cum_cancelled,
        ))


def run_scenario(cfg: SimConfig) -> tuple[SimMetrics, list[tuple], list[Request]]:
    """Run one scenario to its horizon.

    Returns (metrics, timeseries rows, injected request records).
    """
    world = World(cfg)
    metrics = world.run()
    return metrics, world.series, world.requests[:world.n_injected]
