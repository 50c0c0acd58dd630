import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim import rebalance
from cvrsim.plane import (
    PlanarCell,
    coverage_summary,
    plane_voronoi,
    polar_moment,
    r_limited_cell,
    rasterize_mixture,
    rasterize_node_mass,
)
from cvrsim.rebalance import (
    PIState,
    cvr_graph_targets,
    cvr_targets,
    do_nothing,
    hold_scores,
    hold_scores_graph,
    lp_rebalance,
    pi_update,
    select_holds,
)
from cvrsim.roadnet import all_pairs_shortest, build_graph, grid_graph

from oracles import (
    brute_graph_centroid,
    brute_graph_owner,
    brute_hold_score,
    brute_hold_scores_graph,
    brute_min_assignment_cost,
    brute_position_distance,
    loop_cvr_targets,
    loop_select_holds,
    position_lead,
    random_connected_graph,
)

BIG_R = 1e9


def path_graph(lengths):
    n = len(lengths) + 1
    nodes = [(i, float(sum(lengths[:i])), 0.0) for i in range(n)]
    edges = [(i, i + 1, lengths[i]) for i in range(len(lengths))]
    return build_graph(nodes, edges)


@pytest.fixture(scope="module")
def grid():
    g = grid_graph(10, 10.0)  # 90 m square span
    return g, all_pairs_shortest(g)


# -- cvr_targets ---------------------------------------------------------------

def unimodal_field(center, box=(0, 0, 90, 90), res=3.0, sd2=200.0):
    return rasterize_mixture(box, res, [(1.0, center, [[sd2, 0], [0, sd2]])])


def test_single_vehicle_targets_field_center(grid):
    g, _ = grid
    field = unimodal_field([60.0, 30.0])
    decision = cvr_targets(coverage_summary(field, np.array([[5.0, 80.0]]), BIG_R), g)
    target = decision.destination[0]
    # the demand peak sits at (60, 30); the centroid snaps to a node near it
    assert np.linalg.norm(g.coords[target] - [60.0, 30.0]) <= 15.0


def test_vehicle_already_at_snapped_centroid_is_fixed_point(grid):
    g, _ = grid
    field = unimodal_field([60.0, 30.0])
    first = cvr_targets(coverage_summary(field, np.array([[5.0, 80.0]]), BIG_R), g)
    node = first.destination[0]
    again = cvr_targets(coverage_summary(field, g.coords[node][None, :], BIG_R), g)
    assert again.destination[0] == node


def test_two_vehicles_both_target_massy_half(grid):
    g, _ = grid
    # all demand lives in the left half of the box
    field = unimodal_field([20.0, 45.0], sd2=100.0)
    positions = np.array([[80.0, 20.0], [80.0, 70.0]])
    decision = cvr_targets(coverage_summary(field, positions, BIG_R), g)
    for k in (0, 1):
        assert g.coords[decision.destination[k]][0] < 45.0


def test_zero_mass_cell_keeps_previous_destination(grid):
    g, _ = grid
    # point-like demand at the far corner: the right vehicle's cell is massless
    field = unimodal_field([5.0, 5.0], sd2=0.5)
    positions = np.array([[0.0, 0.0], [90.0, 90.0]])
    summary = coverage_summary(field, positions, 10.0)
    decision = cvr_targets(summary, g, previous=[-1, 55])
    assert decision.destination[1] == 55
    no_prev = cvr_targets(summary, g)
    assert no_prev.destination[1] == -1


def test_held_vehicles_do_not_move_but_shape_cells(grid):
    g, _ = grid
    field = unimodal_field([45.0, 45.0])
    positions = np.array([[30.0, 45.0], [60.0, 45.0]])
    decision = cvr_targets(coverage_summary(field, positions, BIG_R), g, held=[True, False])
    assert decision.destination[0] == -1
    assert decision.destination[1] >= 0
    # the held vehicle still generates a cell, so vehicle 1 keeps to its side
    assert g.coords[decision.destination[1]][0] >= 45.0


def test_decision_covers_exactly_the_idle_ids(grid):
    g, _ = grid
    field = unimodal_field([45.0, 45.0])
    positions = np.array([[10.0, 10.0], [80.0, 80.0]])
    decision = cvr_targets(coverage_summary(field, positions, BIG_R), g)
    # one entry per pooled vehicle, in pool order
    assert decision.destination.shape == (2,)
    assert decision.destination.dtype == np.int64


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), k=st.integers(2, 7),
       sparse=st.booleans())
def test_cvr_targets_equal_vehicle_loop(seed, n, k, sparse):
    rng = np.random.default_rng(seed)
    g = grid_graph(k, 10.0)
    span = 10.0 * (k - 1)
    box = (0.0, 0.0, span + 5.0, span + 5.0)
    if sparse:  # node deposits leave exact zeros, so many limited cells are massless
        mass = rng.random(g.n_nodes) * (rng.random(g.n_nodes) < 0.3)
        mass[rng.integers(g.n_nodes)] += 0.1
        field = rasterize_node_mass(box, 2.5, g, mass / mass.sum())
    else:
        center = rng.uniform(0, span, size=2).tolist()
        field = rasterize_mixture(box, 2.5, [(1.0, center, [[30.0, 0], [0, 30.0]])])
    positions = rng.uniform(0, span, size=(n, 2))
    r_m = float(rng.choice([1.0, 6.0, 20.0, BIG_R]))
    held = rng.random(n) < 0.3
    previous = np.where(rng.random(n) < 0.4, -1, rng.integers(0, g.n_nodes, size=n))
    summary = coverage_summary(field, positions, r_m)
    got = cvr_targets(summary, g, held=held, previous=previous)
    ids = list(range(n))
    want = loop_cvr_targets(ids, summary, g, held=set(np.flatnonzero(held).tolist()),
                            previous={i: int(p) for i, p in enumerate(previous) if p >= 0})
    assert got.destination.dtype == np.int64
    assert got.destination.tolist() == [-1 if want[i] is None else want[i] for i in ids]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12), levels=st.integers(1, 5))
def test_select_holds_equal_keyed_sort(seed, n, levels):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=n) / levels  # few levels: many ties
    hold_count = int(rng.integers(-1, n + 2))
    mask = select_holds(hold_count, scores)
    ids = list(range(n))
    assert set(np.flatnonzero(mask).tolist()) == loop_select_holds(ids, hold_count, scores)


# -- cvr_graph_targets ------------------------------------------------------------

def test_graph_targets_path_uniform_mass():
    g = path_graph([1.0, 1.0])
    oracle = all_pairs_shortest(g)
    mass = np.full(3, 1 / 3)
    decision = cvr_graph_targets([0], mass, oracle, BIG_R)
    assert decision.destination[0] == 1  # middle node minimizes the cost


def test_graph_targets_fixed_point():
    g = path_graph([1.0, 1.0])
    oracle = all_pairs_shortest(g)
    mass = np.full(3, 1 / 3)
    decision = cvr_graph_targets([1], mass, oracle, BIG_R)
    assert decision.destination[0] == 1


def test_graph_targets_mirror_symmetric():
    g = path_graph([1.0] * 5)  # nodes 0..5
    oracle = all_pairs_shortest(g)
    mass = np.full(6, 1 / 6)
    decision = cvr_graph_targets([0, 5], mass, oracle, BIG_R)
    a, b = decision.destination[0], decision.destination[1]
    assert a + b == 5  # mirror images around the path midpoint


def test_graph_targets_stay_inside_own_cell():
    g = grid_graph(8, 10.0)
    oracle = all_pairs_shortest(g)
    rng = np.random.default_rng(2)
    mass = rng.random(64)
    mass /= mass.sum()
    vehicles = sorted(rng.choice(64, size=5, replace=False).tolist())
    r_graph = 25.0
    decision = cvr_graph_targets(vehicles, mass, oracle, r_graph)
    owner = brute_graph_owner(oracle.dist, vehicles)
    for vid, node in enumerate(vehicles):
        dest = decision.destination[vid]
        assert owner[dest] == node and oracle.dist[node, dest] <= r_graph


def test_graph_targets_shared_node_share_destination():
    g = path_graph([1.0] * 4)
    oracle = all_pairs_shortest(g)
    mass = np.full(5, 0.2)
    decision = cvr_graph_targets([2, 2], mass, oracle, BIG_R)
    assert decision.destination[0] == decision.destination[1]


def test_graph_targets_equal_brute_centroid_per_vehicle():
    rng = np.random.default_rng(16)
    for _ in range(8):
        n = int(rng.integers(5, 50))
        graph_nodes, edges = random_connected_graph(rng, n, extra_edges=n // 3, max_len=6)
        oracle = all_pairs_shortest(build_graph(graph_nodes, edges))
        mass = rng.random(n)
        mass /= mass.sum()
        nodes = rng.integers(0, n, size=int(rng.integers(1, 12))).tolist()  # repeats share a cell
        owner = brute_graph_owner(oracle.dist, set(nodes))
        # a negative radius leaves every cell empty: those vehicles hold
        for radius in (-1.0, 0.0, 6.0, 1e9):
            decision = cvr_graph_targets(nodes, mass, oracle, radius)
            for k, node in enumerate(nodes):
                members = np.flatnonzero((owner == node) & (oracle.dist[node] <= radius))
                want = brute_graph_centroid(members, mass, oracle.dist)
                assert decision.destination[k] == (-1 if want is None else want)


# -- hold scores --------------------------------------------------------------------

def test_hold_score_one_when_radius_covers_cell(grid):
    g, _ = grid
    field = unimodal_field([45.0, 45.0])
    positions = np.array([[30.0, 30.0], [60.0, 60.0]])
    assignment = plane_voronoi(field, positions)
    assert brute_hold_score(0, positions, field, BIG_R, assignment) == pytest.approx(1.0)
    assert hold_scores(coverage_summary(field, positions, BIG_R))[0] == pytest.approx(1.0)


def test_hold_score_zero_when_limited_cell_empty_of_mass():
    # node-mass raster carries exact zeros away from the deposit pixels
    g = build_graph([(0, 40.0, 10.0), (1, 75.0, 75.0)], [(0, 1, 1.0)])
    field = rasterize_node_mass((0, 0, 90, 90), 3.0, g, [0.5, 0.5])
    positions = np.array([[10.0, 10.0], [70.0, 70.0]])
    assignment = plane_voronoi(field, positions)
    # vehicle 0 owns mass at (40, 10) but nothing within 10 m of itself
    assert brute_hold_score(0, positions, field, 10.0, assignment) == 0.0
    assert brute_hold_score(1, positions, field, 10.0, assignment) > 0.0
    scores = hold_scores(coverage_summary(field, positions, 10.0))
    assert scores[0] == 0.0 and scores[1] > 0.0


def test_hold_score_matches_manual_ratio(grid):
    g, _ = grid
    rng = np.random.default_rng(6)
    field = unimodal_field([40.0, 55.0])
    positions = rng.uniform(0, 90, size=(3, 2))
    assignment = plane_voronoi(field, positions)
    r = 20.0
    for i in range(3):
        full = PlanarCell(generator=positions[i],
                          pixels=np.flatnonzero(assignment == i))
        limited = r_limited_cell(assignment, field, i, positions[i], r)
        expected = (polar_moment(limited, field, positions[i])
                    / polar_moment(full, field, positions[i]))
        assert brute_hold_score(i, positions, field, r, assignment) == pytest.approx(expected)
    bulk = hold_scores(coverage_summary(field, positions, r))
    manual = [brute_hold_score(i, positions, field, r, assignment) for i in range(3)]
    assert np.allclose(bulk, manual, rtol=1e-9)


def test_graph_hold_scores_bounded_and_saturating(grid):
    g, oracle = grid
    rng = np.random.default_rng(14)
    mass = rng.random(100)
    mass /= mass.sum()
    nodes = [0, 37, 81]
    scores = hold_scores_graph(nodes, mass, oracle, 40.0)
    assert ((scores >= 0) & (scores <= 1)).all()
    # a radius covering the whole graph saturates every score at 1
    assert np.allclose(hold_scores_graph(nodes, mass, oracle, 1e6), 1.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["real", "integer", "grid"]),
       n=st.integers(2, 40), n_vehicles=st.integers(1, 12),
       reach=st.sampled_from(["zero", "mid", "all"]))
def test_graph_hold_scores_equal_per_generator_loop(seed, kind, n, n_vehicles, reach):
    rng = np.random.default_rng(seed)
    if kind == "grid":
        k = 2 + n % 7
        g = grid_graph(k, float(rng.choice([1.0, 10.0, 9750 / 29])))
        n = k * k
    else:
        graph_nodes, edges = random_connected_graph(rng, n, extra_edges=n // 3, max_len=5,
                                                    real_lengths=kind == "real")
        g = build_graph(graph_nodes, edges)
    oracle = all_pairs_shortest(g)
    mass = rng.random(n) * (rng.random(n) < 0.6)  # zero-mass cells score 0
    mass /= max(mass.sum(), 1e-12)
    nodes = rng.integers(0, n, size=n_vehicles).tolist()  # repeats share a cell
    radius = {"zero": 0.0, "mid": float(np.median(oracle.dist)), "all": 1e9}[reach]
    got = hold_scores_graph(nodes, mass, oracle, radius)
    want = brute_hold_scores_graph(nodes, mass, oracle.dist, radius)
    assert np.array_equal(got, want)


# -- select_holds -----------------------------------------------------------------------

def alpha_holds(ids, alpha, scores):
    """The held ids of cvr_alpha over a pool in ``ids`` order: floor(n_idle * alpha) hold."""
    mask = select_holds(int(math.floor(len(ids) * alpha)), scores)
    return set(np.asarray(ids)[mask].tolist())


def test_alpha_zero_holds_nobody():
    assert alpha_holds([1, 2, 3], 0.0, [0.5, 0.9, 0.1]) == set()


def test_alpha_one_holds_everyone():
    assert alpha_holds([1, 2, 3], 1.0, [0.5, 0.9, 0.1]) == {1, 2, 3}


def test_alpha_half_takes_floor_and_breaks_ties_by_id():
    ids = [10, 11, 12, 13, 14]
    scores = [0.9, 0.1, 0.5, 0.5, 0.2]
    assert alpha_holds(ids, 0.5, scores) == {10, 12}  # floor(2.5)=2


def test_select_holds_count_clamps():
    assert select_holds(5, [0.1, 0.2]).tolist() == [True, True]
    assert select_holds(0, [0.1, 0.2]).tolist() == [False, False]


# -- pi_update -----------------------------------------------------------------------------

def test_pi_no_error_no_motion():
    state = PIState(y_ref=60.0, y_hold=30.0, integral=0.0, u_not=5.0)
    # y == y_ref: wait 36 s, 100 busy -> y = 60
    update = pi_update(state, 36.0, 50.0, 150, 40)
    assert update.state.u_not == pytest.approx(5.0)
    assert update.hold_count == 5
    assert not update.hold_all


def test_pi_reference_tracking_is_stationary_at_default_gains():
    state = PIState()  # stock gains, y_ref=60, y_hold=90
    update = pi_update(state, 90.0, 110.0, 150, 30)  # y = sqrt(90*40) = 60 <= y_hold
    assert update.hold_all and update.hold_count == 30
    assert update.state == state  # untouched below the hold threshold


def test_pi_hold_all_boundary():
    state = PIState()  # y_hold = 90
    update = pi_update(state, 100.0, 69.0, 150, 12)  # y = sqrt(100*81) = 90
    assert update.y == pytest.approx(90.0)
    assert update.hold_all
    assert update.hold_count == 12
    assert update.state == state


def test_pi_active_branch_updates_and_clamps():
    state = PIState(y_ref=60.0, y_hold=10.0, k_p=0.2, k_i=0.4)
    update = pi_update(state, 400.0, 50.0, 150, 20)  # y = 200, err = -140
    assert not update.hold_all
    assert update.state.integral == pytest.approx(-140.0)
    assert update.state.u_not == 0.0  # clamped from below
    assert update.hold_count == 0
    update2 = pi_update(PIState(y_ref=300.0, y_hold=10.0), 400.0, 50.0, 150, 20)
    assert update2.state.u_not == 20.0  # clamped from above
    assert update2.hold_count == 20


def test_pi_u_not_monotone_when_under_reference():
    state = PIState(y_ref=60.0, y_hold=10.0)
    prev = state.u_not
    for _ in range(6):
        update = pi_update(state, 25.0, 100.0, 150, 1000)  # y ~ 35.4 < y_ref
        state = update.state
        assert state.u_not >= prev
        prev = state.u_not


# -- lp_rebalance ------------------------------------------------------------------------------

def test_lp_one_vehicle_two_requests(grid):
    _, oracle = grid
    decision = lp_rebalance([0], [0.0], [99, 1], oracle, 10.0)
    assert decision.destination[0] == 1  # node 1 is 10 m away, node 99 is 180 m


def test_lp_no_pending_all_hold(grid):
    _, oracle = grid
    decision = lp_rebalance([0, 5], [0.0, 0.0], [], oracle, 10.0)
    assert decision.destination.tolist() == [-1, -1]


def test_lp_cost_matrix_equals_per_pair_distances(monkeypatch):
    rng = np.random.default_rng(31)
    nodes, edges = random_connected_graph(rng, 40, extra_edges=15)
    g = build_graph(nodes, edges)
    oracle = all_pairs_shortest(g)
    seen = []

    def spy(cost):
        seen.append(cost.copy())
        return real(cost)

    real = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    for speed in (1.0, 7.3, 1 / 3):
        positions = []
        for u, v, w in edges[:12]:
            positions += [u, (u, v, w * rng.random()), (v, u, w / 3.0)]
        origins = rng.integers(0, 40, size=9).tolist()
        fwd, lead = zip(*(position_lead(g, p) for p in positions))
        lp_rebalance(fwd, lead, origins, oracle, speed)
        want = np.array([[brute_position_distance(g, oracle.dist, p, o) / speed
                          for o in origins] for p in positions])
        assert np.array_equal(seen[-1], want)


def test_scipy_optimize_loads_with_the_first_lp_run():
    script = (
        "import dataclasses, sys\n"
        "import cvrsim\n"
        "from cvrsim.scenario import desk_scenario\n"
        "from cvrsim.sim import World\n"
        "print('scipy.optimize' in sys.modules)\n"
        "for name in ('cvr_graph', 'lp'):\n"
        "    World(dataclasses.replace(desk_scenario(name), horizon_s=600.0)).run()\n"
        "    print('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(rebalance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False", "True"]


def test_lp_matches_brute_force(grid):
    _, oracle = grid
    rng = np.random.default_rng(12)
    for _ in range(25):
        n_idle = int(rng.integers(1, 5))
        n_pending = int(rng.integers(1, 5))
        idle_nodes = rng.integers(0, 100, size=n_idle).tolist()
        origins = rng.integers(0, 100, size=n_pending).tolist()
        ids = list(range(n_idle))
        decision = lp_rebalance(idle_nodes, np.zeros(n_idle), origins, oracle, 5.0)
        cost = np.array([[oracle.dist[v, o] / 5.0 for o in origins] for v in idle_nodes])
        achieved = 0.0
        n_assigned = 0
        used = []
        for vid in ids:
            dest = decision.destination[vid]
            if dest < 0:
                continue
            n_assigned += 1
            used.append(dest)
            achieved += oracle.dist[idle_nodes[vid], dest] / 5.0
        assert n_assigned == min(n_idle, n_pending)
        assert achieved == pytest.approx(brute_min_assignment_cost(cost), abs=1e-9)


def test_lp_assigned_origins_are_pending_origins(grid):
    _, oracle = grid
    decision = lp_rebalance([10, 20, 30], np.zeros(3), [55, 66], oracle, 5.0)
    targets = [d for d in decision.destination.tolist() if d >= 0]
    assert len(targets) == 2 and set(targets) <= {55, 66}


# -- do_nothing -----------------------------------------------------------------------------------

def test_do_nothing_holds_everyone():
    decision = do_nothing(3)
    assert decision.destination.tolist() == [-1, -1, -1]
    assert decision.held_ids().tolist() == [0, 1, 2]


def test_do_nothing_empty():
    assert do_nothing(0).destination.tolist() == []
