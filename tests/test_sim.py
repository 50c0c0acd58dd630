import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim.demand import CANCELLED, COMPLETED, PICKED_UP, Request
from cvrsim.errors import ConfigValidationError
from cvrsim.roadnet import all_pairs_shortest, build_graph, grid_graph, position_node_distance
from cvrsim.scenario import desk_scenario
from cvrsim.sim import (
    ASSIGNED,
    CARRYING,
    MFDParams,
    SimConfig,
    World,
    estimate_pickup,
    match_tick,
    metrics_finalize,
    mfd_speed,
    run_scenario,
)

from oracles import brute_match_tick, random_connected_graph


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


def test_custom_slope_override():
    params = MFDParams(linear_slope=0.001)
    assert mfd_speed(5320, params) == pytest.approx(6.31 - 1.0)
    assert mfd_speed(0, params) == 36.0


def test_negative_accumulation_rejected():
    with pytest.raises(ValueError):
        mfd_speed(-1)


# -- estimate_pickup ------------------------------------------------------------------

def test_estimate_at_origin_is_now(mini_oracle):
    g = grid_graph(5, 200.0)
    assert estimate_pickup(g, mini_oracle, 7, 7, now=123.0, speed_mps=5.0) == 123.0


def test_estimate_simple_division(mini_oracle):
    g = grid_graph(5, 200.0)
    # nodes 0 and 3 are 600 m apart along the bottom row
    assert estimate_pickup(g, mini_oracle, 0, 3, now=50.0, speed_mps=6.0) == pytest.approx(150.0)


def test_estimate_mid_edge(mini_oracle):
    g = grid_graph(5, 200.0)
    # 150 m past node 0 on edge (0, 1): 50 m remain to node 1, then 200 m to node 2
    est = estimate_pickup(g, mini_oracle, (0, 1, 150.0), 2, now=0.0, speed_mps=10.0)
    assert est == pytest.approx(25.0)


def test_estimate_zero_speed_is_infinite(mini_oracle):
    g = grid_graph(5, 200.0)
    assert estimate_pickup(g, mini_oracle, 0, 3, now=0.0, speed_mps=0.0) == math.inf


# -- match_tick ------------------------------------------------------------------------

class StubVehicle:
    def __init__(self, vid, node):
        self.id = vid
        self.position = node


def test_match_vehicle_standing_at_origin(mini_oracle):
    g = grid_graph(5, 200.0)
    req = Request(id=0, origin=7, destination=3, t0=0.0)
    matches, cancels = match_tick([req], [StubVehicle(0, 7)], 0.0, g, mini_oracle, 5.0)
    assert matches == [(req, matches[0][1])] and matches[0][1].id == 0
    assert cancels == []


def test_unreachable_request_cancelled_at_match_tolerance(mini_oracle):
    g = grid_graph(5, 200.0)
    req = Request(id=0, origin=24, destination=0, t0=0.0, t_mtol=60.0, t_ptol=10.0)
    veh = [StubVehicle(0, 0)]  # 1600 m away; est 320 s > 10 s tolerance
    matches, cancels = match_tick([req], veh, 30.0, g, mini_oracle, 5.0)
    assert matches == [] and cancels == []
    matches, cancels = match_tick([req], veh, 60.0, g, mini_oracle, 5.0)
    assert matches == [] and cancels == [req]


def test_fcfs_earlier_request_wins(mini_oracle):
    g = grid_graph(5, 200.0)
    early = Request(id=0, origin=6, destination=3, t0=0.0)
    late = Request(id=1, origin=8, destination=3, t0=5.0)
    veh = StubVehicle(3, 7)  # equidistant from both origins
    matches, _ = match_tick([early, late], [veh], 10.0, g, mini_oracle, 5.0)
    assert [(r.id, v.id) for r, v in matches] == [(0, 3)]


def test_closest_vehicle_ties_break_by_id(mini_oracle):
    g = grid_graph(5, 200.0)
    req = Request(id=0, origin=12, destination=0, t0=0.0)
    vehicles = [StubVehicle(2, 11), StubVehicle(5, 13)]  # both 200 m away
    matches, _ = match_tick([req], vehicles, 0.0, g, mini_oracle, 5.0)
    assert matches[0][1].id == 2


def test_matched_vehicle_leaves_pool_within_tick(mini_oracle):
    g = grid_graph(5, 200.0)
    r0 = Request(id=0, origin=7, destination=3, t0=0.0)
    r1 = Request(id=1, origin=7, destination=4, t0=1.0)
    matches, _ = match_tick([r0, r1], [StubVehicle(0, 7)], 5.0, g, mini_oracle, 5.0)
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
    graph, pool, requests, clock, speed = case
    oracle = all_pairs_shortest(graph)
    got = match_tick(requests, pool, clock, graph, oracle, speed)
    want = brute_match_tick(requests, pool, clock, graph, oracle.dist, speed)
    assert [(r.id, v.id) for r, v in got[0]] == [(r.id, v.id) for r, v in want[0]]
    assert [r.id for r in got[1]] == [r.id for r in want[1]]


def test_tied_vehicles_go_to_requests_in_pool_order(mini_oracle):
    g = grid_graph(5, 200.0)
    # all three are 100 m short of node 12, two of them at the very same spot
    pool = [StubVehicle(4, (11, 12, 100.0)), StubVehicle(1, (13, 12, 100.0)),
            StubVehicle(2, (11, 12, 100.0))]
    requests = [Request(id=i, origin=12, destination=0, t0=0.0) for i in range(4)]
    matches, _ = match_tick(requests, pool, 0.0, g, mini_oracle, 5.0)
    assert [(r.id, v.id) for r, v in matches] == [(0, 4), (1, 1), (2, 2)]


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
    veh = world.vehicles[0]
    veh.node, veh.edge, veh.offset = 12, None, 0.0
    veh.held = True
    veh.route.clear()
    start = veh.position_xy(world.graph).copy()
    for _ in range(20):
        world.step()
    moved = [r for r in world.requests if r.vehicle_id == veh.id]
    if not moved:  # held idle vehicles only move once matched
        assert np.allclose(veh.position_xy(world.graph), start)
        assert veh.rebalance_m == 0.0


def test_arrival_triggers_dropoff_and_idle():
    cfg = mini_config()
    world = World(cfg)
    veh = world.vehicles[0]
    req = Request(id=999, origin=12, destination=13, t0=0.0)
    veh.node, veh.edge = 12, None
    veh.state = ASSIGNED
    veh.request = req
    world._do_pickup(veh, t=0.0)
    assert veh.state == CARRYING and req.status == PICKED_UP
    speed = world.current_speed()
    ticks = 0
    while veh.state == CARRYING:
        world._advance(speed)
        ticks += 1
        assert ticks < 1000
    assert req.status == COMPLETED
    assert veh.node == 13
    assert veh.service_m == pytest.approx(200.0)


def test_odometer_split_by_state():
    cfg = mini_config(controller="cvr")
    world = World(cfg)
    world.run()
    for veh in world.vehicles:
        assert veh.rebalance_m >= 0.0 and veh.service_m >= 0.0
    total = sum(v.rebalance_m + v.service_m for v in world.vehicles)
    assert total > 0.0


def test_do_nothing_accrues_zero_rebalancing():
    metrics, series, _ = run_scenario(mini_config("do_nothing"))
    assert metrics.rebalance_distance_km == 0.0
    assert all(row[6] == 0.0 for row in series)


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


def test_fcfs_match_log_ordering():
    world = World(mini_config("cvr"))
    world.run()
    t0_of = {r.id: r.t0 for r in world.requests}
    by_clock = {}
    for clock, rid, _ in world.match_log:
        by_clock.setdefault(clock, []).append(t0_of[rid])
    for clock, t0s in by_clock.items():
        assert t0s == sorted(t0s)


def test_every_request_reaches_exactly_one_terminal_state():
    world = World(mini_config("cvr"))
    world.run()
    injected = world.requests[:world._next_request]
    for r in injected:
        assert r.status in (COMPLETED, CANCELLED, PICKED_UP, "matched", "pending")
        if r.status == COMPLETED:
            assert r.pickup_time is not None and r.pickup_time >= r.t0
            assert r.dropoff_time >= r.pickup_time
    m = world.metrics()
    assert m.n_orders + m.n_cancelled + m.n_inflight == m.n_requests


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


def test_persistent_private_trips_never_drain():
    cfg = mini_config(n_av=0, profile=[(300.0, 120.0)],
                      persistent_private_trips=True)
    _, series, requests = run_scenario(cfg)
    cancelled = sum(1 for r in requests if r.status == CANCELLED)
    assert cancelled > 0
    assert series[-1][5] == cfg.baseline_accumulation + cancelled


def test_destination_placement_draws_from_destination_mass():
    cfg = mini_config(placement="destination", n_av=40)
    world = World(cfg)
    allowed = set(np.flatnonzero(cfg.destination_mass > 0).tolist())
    assert {v.node for v in world.vehicles} <= allowed


def test_pi_with_graph_hold_scores_runs():
    cfg = mini_config("cvr_pi", y_ref=12.0, y_hold=4.0, graph_hold_score=True)
    metrics, _, _ = run_scenario(cfg)
    assert metrics.n_requests > 0


class RouteAuditWorld(World):
    """Records, at every match, the estimate's distance and the planned route's length."""

    def __init__(self, cfg):
        self.audit = []
        super().__init__(cfg)

    def _apply_match(self, req, veh, clock):
        estimate = position_node_distance(self.graph, self.oracle, veh.position, req.origin)
        super()._apply_match(req, veh, clock)
        length = 0.0
        nodes = list(veh.route)
        if veh.node is not None:
            nodes.insert(0, veh.node)
        else:  # the route starts at the forward endpoint of the current edge
            length = self.graph.edge_length(*veh.edge) - veh.offset
        length += sum(self.graph.edge_length(a, b) for a, b in zip(nodes, nodes[1:]))
        self.audit.append((veh.node is None, estimate, length))


@pytest.mark.parametrize("controller", ["cvr", "lp"])
def test_pickup_estimate_matches_planned_route(controller):
    world = RouteAuditWorld(desk_scenario(controller, seed=1))
    world.run()
    assert any(mid_edge for mid_edge, _, _ in world.audit)
    for _, estimate, length in world.audit:
        assert length == pytest.approx(estimate, rel=1e-9)
