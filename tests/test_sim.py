import dataclasses
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim.demand import CANCELLED, COMPLETED, MATCHED, PICKED_UP, Request
from cvrsim.errors import ConfigValidationError
from cvrsim import plane, rebalance
from cvrsim.roadnet import all_pairs_shortest, build_graph, grid_graph, position_node_distance
from cvrsim.scenario import build_config, desk_scenario
from cvrsim.sim import (
    ASSIGNED,
    CARRYING,
    HOLD,
    IDLE,
    NO_DEST,
    STATES,
    IdlePool,
    SimConfig,
    World,
    estimate_pickup,
    match_tick,
    metrics_finalize,
    mfd_speed,
    run_scenario,
)

from oracles import (
    ScalarMovement,
    ScalarVehicle,
    audit_requests,
    brute_match_tick,
    loop_length_lookup,
    position_lead,
    random_connected_graph,
)
from test_city_trajectories import perfbench_module


def mini_config(controller="do_nothing", seed=1, **overrides):
    """Small, fast scenario: 5x5 grid, 5 vehicles, ~20 requests in 15 min."""
    graph = grid_graph(5, 200.0)
    origin = np.zeros(25)
    origin[[18, 19, 23, 24]] = 0.25          # north-east corner
    dest = np.zeros(25)
    dest[[0, 1, 5, 6]] = 0.25                # south-west corner
    base = dict(
        graph=graph,
        origin_mass=origin,
        destination_mass=dest,
        profile=[(900.0, 80.0)],
        n_av=5,
        controller=controller,
        horizon_s=900.0,
        resolution_m=100.0,
        baseline_accumulation=1200,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def mini_oracle():
    return all_pairs_shortest(grid_graph(5, 200.0))


# -- mfd_speed -------------------------------------------------------------------

def test_free_flow_speed_is_exact():
    assert mfd_speed(0) == 36.0


def test_exponential_branch_at_cutoff():
    assert mfd_speed(4320) == pytest.approx(36.0 * math.exp(-1.74), abs=1e-12)


def test_jammed_network_is_stopped():
    assert mfd_speed(8000) == 0.0
    assert mfd_speed(7200) == 0.0


def test_branch_junction_gap_is_small():
    assert abs(mfd_speed(4320) - mfd_speed(4320.0000001)) < 0.02


def test_monotone_non_increasing():
    speeds = [mfd_speed(m) for m in range(0, 8001, 10)]
    assert all(a >= b for a, b in zip(speeds, speeds[1:]))
    assert all(s >= 0 for s in speeds)


def test_negative_accumulation_rejected():
    with pytest.raises(ValueError):
        mfd_speed(-1)


# -- estimate_pickup ------------------------------------------------------------------

def test_estimate_at_origin_is_now(mini_oracle):
    distance = position_node_distance(mini_oracle, 7, 0.0, 7)
    assert estimate_pickup(distance, now=123.0, speed_mps=5.0) == 123.0


def test_estimate_simple_division(mini_oracle):
    # nodes 0 and 3 are 600 m apart along the bottom row
    distance = position_node_distance(mini_oracle, 0, 0.0, 3)
    assert estimate_pickup(distance, now=50.0, speed_mps=6.0) == pytest.approx(150.0)


def test_estimate_mid_edge(mini_oracle):
    # 150 m past node 0 on edge (0, 1): 50 m remain to node 1, then 200 m to node 2
    distance = position_node_distance(mini_oracle, 1, 50.0, 2)
    assert estimate_pickup(distance, now=0.0, speed_mps=10.0) == pytest.approx(25.0)


def test_estimate_zero_speed_is_infinite(mini_oracle):
    distance = position_node_distance(mini_oracle, 0, 0.0, 3)
    assert estimate_pickup(distance, now=0.0, speed_mps=0.0) == math.inf


# -- match_tick ------------------------------------------------------------------------

class StubVehicle:
    def __init__(self, vid, node):
        self.id = vid
        self.position = node


def pool(graph, vehicles):
    """The idle pool match_tick takes: each vehicle's id, forward node and lead."""
    lengths = loop_length_lookup(graph)
    leads = [position_lead(lengths, v.position) for v in vehicles]
    return IdlePool(np.array([v.id for v in vehicles], dtype=np.int64),
                    np.array([fwd for fwd, _ in leads], dtype=np.int64),
                    np.array([lead for _, lead in leads], dtype=np.float64))


def test_match_vehicle_standing_at_origin(mini_oracle):
    g = grid_graph(5, 200.0)
    req = Request(id=0, origin=7, destination=3, t0=0.0)
    matches, cancels = match_tick([req], pool(g, [StubVehicle(0, 7)]), 0.0, mini_oracle, 5.0)
    assert matches == [(req, 0)]
    assert cancels == []


def test_unreachable_request_cancelled_at_match_tolerance(mini_oracle):
    g = grid_graph(5, 200.0)
    req = Request(id=0, origin=24, destination=0, t0=0.0, t_mtol=60.0, t_ptol=10.0)
    veh = [StubVehicle(0, 0)]  # 1600 m away; est 320 s > 10 s tolerance
    matches, cancels = match_tick([req], pool(g, veh), 30.0, mini_oracle, 5.0)
    assert matches == [] and cancels == []
    matches, cancels = match_tick([req], pool(g, veh), 60.0, mini_oracle, 5.0)
    assert matches == [] and cancels == [req]


def test_fcfs_earlier_request_wins(mini_oracle):
    g = grid_graph(5, 200.0)
    early = Request(id=0, origin=6, destination=3, t0=0.0)
    late = Request(id=1, origin=8, destination=3, t0=5.0)
    veh = StubVehicle(3, 7)  # equidistant from both origins
    matches, _ = match_tick([early, late], pool(g, [veh]), 10.0, mini_oracle, 5.0)
    assert [(r.id, vid) for r, vid in matches] == [(0, 3)]


def test_closest_vehicle_ties_break_by_id(mini_oracle):
    g = grid_graph(5, 200.0)
    req = Request(id=0, origin=12, destination=0, t0=0.0)
    vehicles = [StubVehicle(2, 11), StubVehicle(5, 13)]  # both 200 m away
    matches, _ = match_tick([req], pool(g, vehicles), 0.0, mini_oracle, 5.0)
    assert matches[0][1] == 2


def test_matched_vehicle_leaves_pool_within_tick(mini_oracle):
    g = grid_graph(5, 200.0)
    r0 = Request(id=0, origin=7, destination=3, t0=0.0)
    r1 = Request(id=1, origin=7, destination=4, t0=1.0)
    matches, _ = match_tick([r0, r1], pool(g, [StubVehicle(0, 7)]), 5.0, mini_oracle, 5.0)
    assert len(matches) == 1 and matches[0][0] is r0


@st.composite
def match_cases(draw):
    """A random graph, an idle pool and a pending queue built to collide.

    Vehicles stand at nodes or part way along edges, several share a
    position exactly (distance ties), and requests start from a few nodes
    so that they compete for the same vehicles.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 14))
    chords = draw(st.integers(0, (n - 1) * (n - 2) // 2))  # a tree leaves this many free
    nodes, edges = random_connected_graph(rng, n, extra_edges=min(chords, n), max_len=6)
    graph = build_graph(nodes, edges)
    node = st.integers(0, n - 1)
    mid_edge = st.builds(
        lambda e, back, frac: ((e[1], e[0]) if back else (e[0], e[1])) + (e[2] * frac,),
        st.sampled_from(edges), st.booleans(), st.sampled_from([0.0, 0.25, 0.5, 1 / 3, 0.9]))
    spots = draw(st.lists(st.one_of(node, mid_edge), min_size=1, max_size=6))
    positions = draw(st.lists(st.sampled_from(spots), max_size=12))
    origins = draw(st.lists(node, min_size=1, max_size=3))
    requests = [
        Request(id=i, origin=draw(st.sampled_from(origins)), destination=0,
                t0=float(i), t_mtol=draw(st.sampled_from([5.0, 60.0, 600.0])),
                t_ptol=draw(st.sampled_from([0.0, 5.0, 60.0, 600.0])))
        for i in range(draw(st.integers(1, 10)))
    ]
    clock = draw(st.sampled_from([0.0, 4.0, 9.0, 30.0]))
    speed = draw(st.sampled_from([0.0, 1.0, 5.0, 20.0]))
    return graph, [StubVehicle(i, p) for i, p in enumerate(positions)], requests, clock, speed


@settings(max_examples=200, deadline=None)
@given(match_cases())
def test_match_tick_equals_scalar_scan(case):
    graph, vehicles, requests, clock, speed = case
    oracle = all_pairs_shortest(graph)
    got = match_tick(requests, pool(graph, vehicles), clock, oracle, speed)
    want = brute_match_tick(requests, vehicles, clock, loop_length_lookup(graph), oracle.dist,
                            speed)
    assert [(r.id, vid) for r, vid in got[0]] == [(r.id, v.id) for r, v in want[0]]
    assert [r.id for r in got[1]] == [r.id for r in want[1]]


def test_tied_vehicles_go_to_requests_in_pool_order(mini_oracle):
    g = grid_graph(5, 200.0)
    # all three are 100 m short of node 12, two of them at the very same spot
    vehicles = [StubVehicle(4, (11, 12, 100.0)), StubVehicle(1, (13, 12, 100.0)),
                StubVehicle(2, (11, 12, 100.0))]
    requests = [Request(id=i, origin=12, destination=0, t0=0.0) for i in range(4)]
    matches, _ = match_tick(requests, pool(g, vehicles), 0.0, mini_oracle, 5.0)
    assert matches == [(requests[0], 4), (requests[1], 1), (requests[2], 2)]


# -- metrics_finalize ----------------------------------------------------------------------

def test_metrics_two_orders_no_cancels():
    reqs = [
        Request(id=0, origin=0, destination=1, t0=0.0, status=COMPLETED, pickup_time=100.0),
        Request(id=1, origin=0, destination=1, t0=0.0, status=COMPLETED, pickup_time=200.0),
    ]
    m = metrics_finalize(reqs, beta=1.5)
    assert m.mean_wait_s == pytest.approx(150.0)
    assert m.completion_rate_pct == 100.0
    assert m.n_inflight == 0


def test_metrics_system_time_penalizes_cancelled():
    reqs = [
        Request(id=0, origin=0, destination=1, t0=0.0, status=COMPLETED, pickup_time=100.0),
        Request(id=1, origin=0, destination=1, t0=0.0, status=CANCELLED, t_ptol=300.0),
    ]
    m = metrics_finalize(reqs, beta=1.5)
    assert m.mean_system_time_s == pytest.approx((100.0 + 450.0) / 2)
    assert m.completion_rate_pct == 50.0


def test_metrics_empty_run_flags():
    m = metrics_finalize([], beta=1.5)
    assert m.n_requests == 0
    assert m.completion_rate_pct == 100.0
    assert math.isnan(m.mean_wait_s)
    assert m.to_dict()["mean_wait_s"] is None


def test_metrics_no_orders_keeps_system_time_defined():
    reqs = [Request(id=0, origin=0, destination=1, t0=0.0, status=CANCELLED, t_ptol=300.0)]
    m = metrics_finalize(reqs, beta=1.5)
    assert math.isnan(m.mean_wait_s)
    assert m.mean_system_time_s == pytest.approx(450.0)
    assert m.completion_rate_pct == 0.0


# -- World mechanics -------------------------------------------------------------------------

def test_held_vehicle_does_not_move():
    world = World(mini_config())
    f = world.fleet
    f.node[0] = 12  # every vehicle starts at a node
    world._route_to(0, HOLD)
    start = f.xy([0])[0]
    for _ in range(20):
        world.step()
    moved = [r for r in world.requests if r.vehicle_id == 0]
    if not moved:  # held idle vehicles only move once matched
        assert np.allclose(f.xy([0])[0], start)
        assert f.rebalance_m[0] == 0.0


def test_arrival_triggers_dropoff_and_idle():
    cfg = mini_config()
    world = World(cfg)
    f = world.fleet
    req = Request(id=999, origin=12, destination=13, t0=0.0)
    f.node[0], f.requests[0] = 12, req
    world._set_state(0, STATES.index(ASSIGNED))
    world._arrive(0, t=0.0)
    assert STATES[f.state[0]] == CARRYING and req.status == PICKED_UP
    speed = world.current_speed()
    ticks = 0
    while STATES[f.state[0]] == CARRYING:
        world._advance(speed)
        ticks += 1
        assert ticks < 1000
    assert req.status == COMPLETED
    assert (f.node[0], f.tail[0]) == (13, -1)
    assert f.service_m[0] == pytest.approx(200.0)


class ControlSpyWorld(World):
    """Records, as each control tick starts, the clock and vehicle 0's state."""

    def __init__(self, cfg):
        self.seen = []
        super().__init__(cfg)

    def _controller_tick(self, speed):
        self.seen.append((self.clock, STATES[self.fleet.state[0]]))
        super()._controller_tick(speed)


def test_vehicle_at_origin_picks_up_during_matching():
    world = ControlSpyWorld(mini_config(n_av=1, profile=[(900.0, 0.0)], control_period_s=1.0))
    f = world.fleet
    origin = int(f.node[0])
    req = Request(id=0, origin=origin, destination=(origin + 1) % 25, t0=3.0)
    world.requests = [req]
    for _ in range(4):
        world.step()
    assert world.seen == [(0.0, IDLE), (1.0, IDLE), (2.0, IDLE), (3.0, CARRYING)]
    assert req.status == PICKED_UP and req.pickup_time == req.match_time == 3.0
    assert world._window_waits == [0.0]


class MatchOutcomeWorld(World):
    """Records each request's status and its vehicle's state right after its match."""

    def __init__(self, cfg):
        self.outcomes = []
        super().__init__(cfg)

    def _apply_match(self, req, i, clock):
        super()._apply_match(req, i, clock)
        f = self.fleet
        self.outcomes.append((req.status, STATES[f.state[i]], f.dest.item(i)))


def test_trip_to_its_own_origin_completes_during_matching():
    mass = np.zeros(25)
    mass[12] = 1.0  # point masses: every trip starts and ends at node 12
    world = MatchOutcomeWorld(mini_config(n_av=1, origin_mass=mass, destination_mass=mass))
    world.fleet.node[0] = 12
    world.run()
    requests = world.requests[:world.n_injected]
    assert requests and all((r.origin, r.destination) == (12, 12) for r in requests)
    assert world.outcomes == [(COMPLETED, IDLE, NO_DEST)] * len(requests)
    assert all(r.match_time == r.pickup_time == r.dropoff_time for r in requests)
    assert all(row[3] == row[4] == 0 for row in world.series)


def test_only_idle_vehicles_are_held():
    world = World(desk_scenario("cvr_pi", seed=1))
    f = world.fleet
    held_ticks = 0
    while world.clock < world.cfg.horizon_s - 1e-9:
        world.step()
        held = f.dest == HOLD
        assert not (held & (f.state != STATES.index(IDLE))).any()
        held_ticks += bool(held.any())
    assert held_ticks > 0


def refuse_coverage_pass(*args, **kwargs):
    raise AssertionError("a coverage pass ran while the whole idle pool holds")


class HoldAllAuditWorld(World):
    """Records, after every control tick, the idle count and how many idle vehicles hold."""

    def __init__(self, cfg):
        self.audit = []
        super().__init__(cfg)

    def _controller_tick(self, speed):
        super()._controller_tick(speed)
        ids = self.idle_ids()
        self.audit.append((len(ids), int(np.count_nonzero(self.fleet.dest[ids] == HOLD))))


def test_alpha_one_holds_the_pool_without_a_coverage_pass(monkeypatch):
    monkeypatch.setattr(plane, "coverage_summary", refuse_coverage_pass)
    cfg = dataclasses.replace(
        desk_scenario("cvr_alpha", seed=1, controller_extra={"alpha": 1.0}), horizon_s=1800.0)
    world = HoldAllAuditWorld(cfg)
    world.run()
    assert len(world.audit) == 180
    assert all(held == idle for idle, held in world.audit)
    assert any(idle for idle, _ in world.audit)


@pytest.mark.parametrize("extra_holds", [0, 5])
def test_pi_tick_holding_the_whole_pool_runs_no_coverage_pass(monkeypatch, extra_holds):
    world = World(desk_scenario("cvr_pi", seed=1))
    world.run(until=600.0)  # no update has held yet, so some idle vehicles drive mid-edge
    f = world.fleet
    ids = world.idle_ids()
    assert ((f.tail[ids] >= 0) & (f.dest[ids] >= 0)).any()
    world.pi = dataclasses.replace(world.pi, hold_count=len(ids) + extra_holds)
    monkeypatch.setattr(plane, "coverage_summary", refuse_coverage_pass)
    world._controller_tick(world.current_speed())
    assert (f.dest[ids] == HOLD).all()


class HoldReplayWorld(World):
    """Replays holds from routing writes, and counts them at every series row.

    A vehicle sent to -1 holds until its next routing write, whatever that is.
    """

    def __init__(self, cfg):
        self.replayed_held = set()
        self.replayed_counts = []
        super().__init__(cfg)

    def _route_to(self, i, dest):
        super()._route_to(i, dest)
        ids = np.atleast_1d(i)
        for vid, target in zip(ids.tolist(), np.broadcast_to(dest, ids.shape).tolist()):
            if target == -1:
                self.replayed_held.add(vid)
            else:
                self.replayed_held.discard(vid)

    def _record_series(self):
        super()._record_series()
        self.replayed_counts.append(len(self.replayed_held))


@pytest.mark.parametrize("controller, extra", [
    ("cvr_pi", {}), ("cvr_alpha", {"alpha": 0.3}), ("lp", {}), ("do_nothing", {})])
def test_idle_held_column_counts_replayed_holds(controller, extra):
    world = HoldReplayWorld(desk_scenario(controller, seed=1, controller_extra=extra))
    world.run()
    assert [row[2] for row in world.series] == world.replayed_counts
    assert max(world.replayed_counts) > 0


def test_odometer_split_by_state():
    cfg = mini_config(controller="cvr")
    world = World(cfg)
    world.run()
    f = world.fleet
    assert (f.rebalance_m >= 0.0).all() and (f.service_m >= 0.0).all()
    assert (f.rebalance_m + f.service_m).sum() > 0.0


def test_idle_pool_leads_node_and_mid_edge():
    world = World(mini_config(n_av=3))
    f = world.fleet
    f.node[0] = 2
    f.tail[1], f.node[1], f.offset[1], f.length[1] = 0, 1, 50.0, 200.0
    world._set_state(2, STATES.index(ASSIGNED))
    idle = world._idle_pool()
    assert len(idle) == 2 and idle.ids.tolist() == [0, 1]
    assert idle.fwd.tolist() == [2, 1] and idle.lead.tolist() == [0.0, 150.0]


def test_do_nothing_accrues_zero_rebalancing():
    metrics, series, _ = run_scenario(mini_config("do_nothing"))
    assert metrics.rebalance_distance_km == 0.0
    assert all(row[6] == 0.0 for row in series)


def left_to_right(values):
    """A plain loop over floats: the order Python 3.10 and 3.11's ``sum`` adds them in."""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def assert_kept_state(f):
    """The counts and credit mask the fleet keeps equal their recount from ``state`` and ``dest``."""
    assert f.state_counts == np.bincount(f.state, minlength=len(STATES)).tolist()
    assert f.n_held == np.count_nonzero(f.dest == HOLD)
    idle = f.state == STATES.index(IDLE)
    assert (f.credit == [np.ones_like(idle), idle, ~idle]).all()


def test_odometer_totals_add_the_fleet_left_to_right():
    # Python 3.12's sum() compensates and numpy's sum() adds pairwise; the km
    # column and the metrics must add in fleet order on every version
    world = World(dataclasses.replace(desk_scenario("cvr"), horizon_s=3600.0))
    f = world.fleet
    assert world.series[0][6] == 0.0
    while world.clock < world.cfg.horizon_s - 1e-9:
        world.step()
        assert world.series[-1][6] == left_to_right(f.rebalance_m) / 1000.0
        assert_kept_state(f)
    metrics = world.metrics()
    assert metrics.rebalance_distance_km == left_to_right(f.rebalance_m) / 1000.0 > 0.0
    assert metrics.service_distance_km == left_to_right(f.service_m) / 1000.0 > 0.0


def test_accumulation_accounting_every_tick():
    cfg = mini_config("cvr", n_av=8)
    world = World(cfg)
    world.run()
    for row in world.series:
        m = row[5]
        assert m >= cfg.baseline_accumulation + cfg.n_av
    cancelled = sum(1 for r in world.requests if r.status == CANCELLED)
    if cancelled == 0:
        assert all(row[5] == cfg.baseline_accumulation + cfg.n_av for row in world.series)


def test_cancellations_feed_and_then_leave_the_traffic_registry():
    cfg = mini_config(n_av=0, profile=[(120.0, 600.0)], horizon_s=900.0,
                      baseline_accumulation=2000)
    world = World(cfg)
    world.run()
    cancels = [r for r in world.requests if r.status == CANCELLED]
    assert cancels, "fleetless run must cancel everything"
    accumulation = [row[5] for row in world.series]
    assert max(accumulation) > cfg.baseline_accumulation  # trips raised m
    assert accumulation[-1] == cfg.baseline_accumulation  # and drained away
    # occupancy time of one trip: path length over the tick speed
    longest = max(world.oracle.dist[r.origin, r.destination] for r in cancels)
    v = mfd_speed(cfg.baseline_accumulation + len(cancels))
    last_busy = max(i for i, m in enumerate(accumulation) if m > cfg.baseline_accumulation)
    last_cancel_tick = 60.0 + max(r.t0 for r in cancels)
    assert last_busy <= last_cancel_tick + math.ceil(longest / v) + 2


class MatchLogWorld(World):
    """Records every match as (clock, request id, vehicle id), in the order they happen."""

    def __init__(self, cfg):
        self.match_log = []
        super().__init__(cfg)

    def _apply_match(self, req, i, clock):
        self.match_log.append((clock, req.id, i))
        super()._apply_match(req, i, clock)


def test_fcfs_match_log_ordering():
    world = MatchLogWorld(mini_config("cvr"))
    world.run()
    assert world.match_log
    t0_of = {r.id: r.t0 for r in world.requests}
    by_clock = {}
    for clock, rid, _ in world.match_log:
        by_clock.setdefault(clock, []).append(t0_of[rid])
    for clock, t0s in by_clock.items():
        assert t0s == sorted(t0s)


def test_snapshot_destination_is_where_a_busy_vehicle_drives():
    world = World(desk_scenario("cvr", seed=1))
    world.run(until=3600.0)
    f = world.fleet
    busy = 0
    for state, dest, req in zip(f.state.tolist(), f.dest.tolist(), f.requests):
        if STATES[state] == ASSIGNED:
            assert dest == req.origin
        elif STATES[state] == CARRYING:
            assert dest == req.destination
        else:
            continue
        busy += 1
    assert busy > 0


def test_every_request_reaches_exactly_one_terminal_state():
    world = World(mini_config("cvr"))
    world.run()
    audit_requests(world.requests[:world.n_injected], world.metrics().to_dict())


def test_zero_horizon_yields_empty_metrics():
    metrics, series, requests = run_scenario(mini_config(horizon_s=0.0))
    assert metrics.n_requests == 0
    assert len(series) == 1  # initial row only


def test_zero_fleet_cancels_everything():
    # keep the profile clear of the horizon so every deadline fits inside
    metrics, _, _ = run_scenario(mini_config(n_av=0, profile=[(800.0, 90.0)]))
    assert metrics.n_requests > 0
    assert metrics.completion_rate_pct == 0.0
    assert metrics.n_cancelled == metrics.n_requests


def test_same_seed_repeats_bit_identically():
    a = run_scenario(mini_config("cvr", seed=7))
    b = run_scenario(mini_config("cvr", seed=7))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_the_desk_workload_builds_one_oracle(oracle_builds):
    worlds = [World(build_config(doc)) for _, doc in perfbench_module("workloads").desk(1)]
    assert len(worlds) == 6 and len(oracle_builds) == 1
    assert all(world.oracle is worlds[0].oracle for world in worlds)


@pytest.mark.parametrize("axis", [0, 1])
def test_planar_controller_runs_on_a_straight_road(axis):
    """A collinear graph's box is padded to one pixel across the road, so the raster exists."""
    coords = np.zeros((5, 2))
    coords[:, axis] = np.arange(5) * 200.0
    graph = build_graph([(i, x, y) for i, (x, y) in enumerate(coords.tolist())],
                        [(i, i + 1, 200.0) for i in range(4)])
    cfg = mini_config("cvr", graph=graph, origin_mass=np.full(5, 0.2),
                      destination_mass=np.full(5, 0.2), n_av=3)
    world = World(cfg)
    across = world.field.centers[:, 1 - axis]
    assert np.all(across == coords[0, 1 - axis])  # one row of pixels, centered on the road
    metrics = world.run()
    assert metrics.n_requests > 0 and metrics.n_orders > 0
    audit_requests(world.requests[:world.n_injected], metrics.to_dict())


def test_vehicle_count_conserved_in_series():
    cfg = mini_config("cvr")
    _, series, _ = run_scenario(cfg)
    for row in series:
        assert row[1] + row[2] + row[3] + row[4] == cfg.n_av


def test_config_validation_errors():
    with pytest.raises(ConfigValidationError):
        mini_config(controller="warp_drive").validate()
    with pytest.raises(ConfigValidationError):
        mini_config(control_period_s=7.5, tick_s=2.0).validate()
    with pytest.raises(ConfigValidationError):
        mini_config(n_av=-1).validate()
    with pytest.raises(ConfigValidationError):
        mini_config(profile=[(math.nan, 80.0)]).validate()
    cfg = mini_config()
    cfg.origin_mass = np.full(25, 0.1)  # sums to 2.5
    with pytest.raises(ConfigValidationError):
        cfg.validate()
    cfg = mini_config(destination_mass=np.full(24, 1 / 24))
    with pytest.raises(ConfigValidationError) as err:
        cfg.validate()
    assert (err.value.field, err.value.reason) == \
        ("demand.destination", "mass length 24 != 25 nodes")


@pytest.mark.parametrize("change, field, reason", [
    ({"profile": [(-1.0, 80.0)]}, "demand.profile",
     "entry 0: duration must be positive and finite, got -1.0"),
    ({"origin_mass": np.full(25, 0.5)}, "demand.origin", "mass sums to 12.5, expected 1"),
    ({"destination_mass": np.full(25, -0.04)}, "demand.destination", "mass has negative entries"),
    ({"profile": [("x", 1.0)]}, "demand.profile", "entry 0: duration must be a number, got 'x'"),
    ({"profile": None}, "demand.profile", "need a sequence of (duration_s, rate_per_hour) pairs"),
    # a scenario file's true is rejected there too
    ({"profile": [(True, 75.0)]}, "demand.profile",
     "entry 0: duration must be a number, got True"),
    # validate would use up a one-shot iterator, and the run would then draw no request
    ({"profile": (pair for pair in [(3600.0, 75.0)])}, "demand.profile",
     "need a sequence of (duration_s, rate_per_hour) pairs, not a one-shot iterator"),
    ({"profile": iter([(3600.0, 75.0)])}, "demand.profile",
     "need a sequence of (duration_s, rate_per_hour) pairs, not a one-shot iterator"),
], ids=["profile", "origin", "destination", "profile-text", "profile-none", "profile-bool",
        "profile-generator", "profile-iterator"])
def test_a_library_rejection_in_validate_is_reported_without_its_context(change, field, reason):
    with pytest.raises(ConfigValidationError) as err:
        dataclasses.replace(mini_config(), **change).validate()
    assert (err.value.field, err.value.reason) == (field, reason)
    # like every other field report of a library ValueError: no "During handling" chain
    assert err.value.__suppress_context__ and err.value.__cause__ is None


@pytest.mark.parametrize("name, field", [("origin_mass", "demand.origin"),
                                         ("destination_mass", "demand.destination")])
def test_a_mass_summing_to_one_plus_1e_7_is_rejected_naming_its_field(name, field):
    mass = np.full(25, 1 / 25)
    mass[0] += 1e-7
    # numpy's Generator.choice rejects it too, as a ValueError that names no field
    with pytest.raises(ValueError, match="Probabilities do not sum to 1"):
        np.random.default_rng(0).choice(25, p=mass)
    cfg = mini_config()
    setattr(cfg, name, mass)
    with pytest.raises(ConfigValidationError) as err:
        World(cfg)
    assert err.value.field == field
    assert err.value.reason == "mass sums to 1.0000001, expected 1"


def test_pi_controller_runs_and_holds_somewhere():
    cfg = mini_config("cvr_pi", y_ref=12.0, y_hold=4.0)
    metrics, series, _ = run_scenario(cfg)
    held_ticks = sum(1 for row in series if row[2] > 0)
    assert held_ticks > 0  # the adapter held at least part of the fleet
    assert metrics.n_requests > 0


def test_graph_controller_destinations_reachable():
    metrics, _, _ = run_scenario(mini_config("cvr_graph"))
    assert metrics.n_requests > 0
    assert metrics.rebalance_distance_km >= 0.0


def test_pi_window_mean_idle_counts_every_advanced_tick(monkeypatch):
    """The PI update's mean idle count equals a count taken after each tick's movement."""
    class CountingWorld(World):
        def __init__(self, cfg):
            self.idle_counts = []
            super().__init__(cfg)

        def _advance(self, speed):
            super()._advance(speed)
            self.idle_counts.append(int(np.count_nonzero(self.fleet.state == STATES.index(IDLE))))

    seen = []

    def spy(state, mean_wait_s, mean_idle, n_av, n_idle_now):
        seen.append(mean_idle)
        return real(state, mean_wait_s, mean_idle, n_av, n_idle_now)

    real = rebalance.pi_update
    monkeypatch.setattr(rebalance, "pi_update", spy)
    cfg = mini_config("cvr_pi", y_ref=12.0, y_hold=4.0, fleet_period_s=100.0)
    world = CountingWorld(cfg)
    world.run()
    every = 100
    want = [sum(world.idle_counts[k * every:(k + 1) * every]) / every
            for k in range(len(world.idle_counts) // every)]
    assert len(seen) == 8 and seen == want[:len(seen)]
    assert len(set(seen)) > 1


class LoggedWorld(World):
    """Records every pickup and drop-off, in the order they happen."""

    def _arrive(self, i, t):
        f = self.fleet
        assigned, busy = f.state[i] == STATES.index(ASSIGNED), f.requests[i] is not None
        super()._arrive(i, t)
        if assigned:
            self.events.append(("pickup", i, t))
        if busy and f.requests[i] is None:
            self.events.append(("dropoff", i, t))


class LoggedScalarMovement(ScalarMovement):
    def _do_pickup(self, veh, t):
        self.events.append(("pickup", veh.id, t))
        super()._do_pickup(veh, t)

    def _do_dropoff(self, veh, t):
        self.events.append(("dropoff", veh.id, t))
        super()._do_dropoff(veh, t)


@st.composite
def fleet_cases(draw):
    """A random graph and a fleet in every state the movement loop meets.

    Vehicles stand at nodes or part way along edges, some at an offset that
    reaches the node exactly or falls just short of the arrival tolerance;
    they are held, idle with or without a rebalancing route, carrying, or
    assigned, and some of those have the origin as destination, so the
    drop-off follows the pickup. No assigned vehicle stands at its origin:
    matching picks such a vehicle up at once.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 9))
    chords = draw(st.integers(0, (n - 1) * (n - 2) // 2))
    nodes, edges = random_connected_graph(rng, n, extra_edges=chords,
                                          max_len=draw(st.sampled_from([1, 4, 20])))
    scale = draw(st.sampled_from([1.0, 0.1, 9750.0 / 29]))  # non-dyadic lengths round
    edges = [(u, v, w * scale) for u, v, w in edges]
    graph = build_graph(nodes, edges)
    tick_s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    if draw(st.booleans()):
        speed = draw(st.sampled_from([0.0, 1e-13, 0.7, 3.0, 11.3, 36.0, 400.0]))
    else:  # one or two edges' length, or just short of it: ticks that end at a node
        length = draw(st.sampled_from(edges))[2] * draw(st.sampled_from([1, 2]))
        speed = (length - draw(st.sampled_from([0.0, 5e-10, 2e-9]))) / tick_s
    budget = speed * tick_s
    vehicles = []
    for _ in range(draw(st.integers(1, 10))):
        state = draw(st.sampled_from([IDLE, ASSIGNED, CARRYING]))
        held = state == IDLE and draw(st.booleans())
        if draw(st.booleans()):
            place = draw(st.integers(0, n - 1))
        else:
            u, v, length = draw(st.sampled_from(edges))
            if draw(st.booleans()):
                u, v = v, u
            offsets = [x for x in (0.0, 0.25 * length, 0.5 * length, 0.999 * length,
                                   length - budget, length - budget - 1e-9,
                                   length - budget - 2e-9, length - 1e-9, length - 5e-10)
                       if 0.0 <= x < length]
            place = (u, v, draw(st.sampled_from(offsets)))
        # A held vehicle has no route, and an unheld one inside an edge always has one.
        routed = not held and (state != IDLE or not isinstance(place, int)
                               or draw(st.booleans()))
        target = draw(st.integers(0, n - 1).filter(
            lambda node: not (state == ASSIGNED and node == place)))
        destination = draw(st.sampled_from([target, draw(st.integers(0, n - 1))]))
        vehicles.append((state, held, place, routed, target, destination))
    private = draw(st.lists(st.sampled_from([0.5, 5.0, 60.0]), max_size=3))
    ticks = draw(st.integers(1, 6))
    return graph, speed, tick_s, vehicles, private, ticks


def place_fleet(graph, oracle, case_vehicles, make_request):
    """Per vehicle: (node, edge, offset, state, held, route, request) of a fleet case."""
    out = []
    for vid, (state, held, place, routed, target, destination) in enumerate(case_vehicles):
        if isinstance(place, int):
            node, edge, offset = place, None, 0.0
            route = oracle.path(place, target)[1:]
        else:
            u, v, offset = place
            node, edge = None, (u, v)
            route = [v] if v == target else oracle.path(v, target)
        request = None
        if state != IDLE:
            origin = target if state == ASSIGNED else destination
            request = make_request(vid, origin, destination if state == ASSIGNED else target)
            if state == CARRYING:
                request.status, request.pickup_time = PICKED_UP, 0.0
        out.append((node, edge, offset, state, held, route if routed else [], request))
    return out


def route_of(world, i):
    """Vehicle i's remaining route as a node list: the next-hop walk to its destination.

    A vehicle inside an edge still has the edge's forward node to reach; one
    at a node has already left it behind.
    """
    f = world.fleet
    dest = int(f.dest[i])
    if dest < 0:
        return []
    path = world.oracle.path(int(f.node[i]), dest)
    return path if f.tail[i] >= 0 else path[1:]


def fleet_view(world):
    """Everything the world's movement loop writes, floats by their bits."""
    f = world.fleet
    routes = [route_of(world, i) for i in range(len(f.node))]
    vehicles = [
        (None if tail >= 0 else node, None if tail < 0 else (tail, node), offset.hex(),
         STATES[state], held, route, service.hex(), rebalance_m.hex(),
         None if request is None else request.id)
        for node, tail, offset, state, held, route, service, rebalance_m, request in zip(
            f.node.tolist(), f.tail.tolist(), f.offset.tolist(), f.state.tolist(),
            (f.dest == HOLD).tolist(), routes, f.service_m.tolist(), f.rebalance_m.tolist(),
            f.requests)
    ]
    return vehicles, world.events, world._window_waits, world.private_remaining


def scalar_view(reference):
    """The same view of the per-vehicle reference loop."""
    vehicles = [
        (v.node, v.edge, v.offset.hex(), v.state, v.held, list(v.route),
         v.service_m.hex(), v.rebalance_m.hex(), None if v.request is None else v.request.id)
        for v in reference.vehicles
    ]
    return vehicles, reference.events, reference._window_waits, reference.private_remaining


@settings(max_examples=200, deadline=None)
@given(fleet_cases())
def test_masked_movement_equals_scalar_loop(case):
    graph, speed, tick_s, case_vehicles, private, ticks = case
    cfg = SimConfig(graph=graph, origin_mass=np.full(graph.n_nodes, 1 / graph.n_nodes),
                    destination_mass=np.full(graph.n_nodes, 1 / graph.n_nodes),
                    profile=[(60.0, 0.0)], n_av=len(case_vehicles), controller="do_nothing",
                    tick_s=tick_s, control_period_s=tick_s, fleet_period_s=tick_s)
    world = LoggedWorld(cfg)
    requests = []

    def make_request(vid, origin, destination):
        requests.append(Request(id=vid, origin=origin, destination=destination, t0=0.0,
                                status=MATCHED, match_time=0.0, vehicle_id=vid))
        return requests[-1]

    fleet = place_fleet(graph, world.oracle, case_vehicles, make_request)
    reference = LoggedScalarMovement(graph, world.oracle, [], tick_s,
                                     private_remaining=private)
    world.private_remaining = list(private)
    ref_requests = []
    f = world.fleet
    for i, (node, edge, offset, state, held, route, request) in enumerate(fleet):
        if edge is None:
            f.node[i] = node
        else:
            (f.tail[i], f.node[i]), f.length[i] = edge, reference.lengths[edge]
        f.offset[i] = offset
        world._set_state(i, STATES.index(state))
        f.requests[i] = request
        if route or held:  # the reference's route, as the world plans it, or a hold
            world._route_to(i, route[-1] if route else HOLD)
        ref = ScalarVehicle(i, 0)
        reference.vehicles.append(ref)
        ref.node, ref.edge, ref.offset, ref.state, ref.held = node, edge, offset, state, held
        ref.route = deque(route)
        if request is not None:
            ref.request = dataclasses.replace(request)
            ref_requests.append(ref.request)
    world.events, reference.events = [], []

    def request_view(reqs):
        return [(r.id, r.status, r.pickup_time, r.dropoff_time) for r in reqs]

    assert fleet_view(world) == scalar_view(reference)
    for _ in range(ticks):
        world._advance(speed)
        reference._advance(speed)
        world.tick += 1
        reference.tick += 1
        assert fleet_view(world) == scalar_view(reference)
        assert_kept_state(world.fleet)
        assert request_view(requests) == request_view(ref_requests)


class RouteAuditWorld(World):
    """Records, at every match, the estimate's distance and the planned route's length."""

    def __init__(self, cfg):
        self.audit = []
        self.lengths = loop_length_lookup(cfg.graph)
        super().__init__(cfg)

    def _apply_match(self, req, i, clock):
        f = self.fleet
        estimate = position_node_distance(self.oracle, f.node[i], f.length[i] - f.offset[i],
                                          req.origin)
        super()._apply_match(req, i, clock)
        node, tail = int(f.node[i]), int(f.tail[i])
        if req.pickup_time is not None:  # it stood at the origin: no route, picked up at once
            assert (tail, node) == (-1, req.origin)
            self.audit.append((False, estimate, 0.0))
            return
        length = 0.0
        nodes = route_of(self, i)
        if tail < 0:
            nodes.insert(0, node)
        else:  # the route starts at the forward endpoint of the current edge
            length = self.lengths[(tail, node)] - float(f.offset[i])
        length += sum(self.lengths[(a, b)] for a, b in zip(nodes, nodes[1:]))
        self.audit.append((tail >= 0, estimate, length))


@pytest.mark.parametrize("controller", ["cvr", "lp", "cvr_graph", "cvr_pi"])
def test_pickup_estimate_matches_planned_route(controller):
    world = RouteAuditWorld(desk_scenario(controller, seed=1))
    world.run()
    assert any(mid_edge for mid_edge, _, _ in world.audit)
    for _, estimate, length in world.audit:
        assert length == pytest.approx(estimate, rel=1e-9)


class MasslessAuditWorld(World):
    """Records, at every control tick, where each parked vehicle in a massless cell heads.

    A vehicle is parked when it is idle, stands at a node and has no
    destination. After the tick, such a vehicle whose range-limited cell
    carries no mass should still have none: it has no target to keep.
    """

    def __init__(self, cfg):
        self.audit = []
        super().__init__(cfg)

    def _controller_tick(self, speed):
        f = self.fleet
        ids = self.idle_ids()
        watched = []
        if ids.size:
            summary = plane.coverage_summary(self.field, f.xy(ids), self.cfg.r_m)
            parked = (f.tail[ids] < 0) & (f.dest[ids] < 0)
            watched = ids[parked & (summary.limited_mass <= 0.0)].tolist()
        super()._controller_tick(speed)
        self.audit += [(self.clock, i, int(f.dest[i])) for i in watched]


@pytest.mark.parametrize("seed", [1, 2])
def test_parked_vehicle_in_massless_cell_keeps_no_destination(seed):
    world = MasslessAuditWorld(desk_scenario("cvr", seed=seed))
    world.run()
    assert world.audit
    assert [entry for entry in world.audit if entry[2] >= 0] == []
