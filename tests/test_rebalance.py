import numpy as np
import pytest

from cvrsim import rebalance
from cvrsim.plane import (
    PlanarCell,
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
    hold_score,
    hold_scores,
    hold_scores_graph,
    lp_rebalance,
    pi_update,
    select_holds,
    select_holds_alpha,
)
from cvrsim.roadnet import (
    all_pairs_shortest,
    build_graph,
    graph_voronoi,
    grid_graph,
    r_limited_graph_cell,
)

from oracles import (
    brute_hold_scores_graph,
    brute_min_assignment_cost,
    brute_position_distance,
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
    decision = cvr_targets([7], np.array([[5.0, 80.0]]), field, BIG_R, g)
    target = decision.destination[7]
    # the demand peak sits at (60, 30); the centroid snaps to a node near it
    assert np.linalg.norm(g.coords[target] - [60.0, 30.0]) <= 15.0


def test_vehicle_already_at_snapped_centroid_is_fixed_point(grid):
    g, _ = grid
    field = unimodal_field([60.0, 30.0])
    first = cvr_targets([0], np.array([[5.0, 80.0]]), field, BIG_R, g)
    node = first.destination[0]
    again = cvr_targets([0], g.coords[node][None, :], field, BIG_R, g)
    assert again.destination[0] == node


def test_two_vehicles_both_target_massy_half(grid):
    g, _ = grid
    # all demand lives in the left half of the box
    field = unimodal_field([20.0, 45.0], sd2=100.0)
    decision = cvr_targets([1, 2], np.array([[80.0, 20.0], [80.0, 70.0]]), field, BIG_R, g)
    for vid in (1, 2):
        assert g.coords[decision.destination[vid]][0] < 45.0


def test_zero_mass_cell_keeps_previous_destination(grid):
    g, _ = grid
    # point-like demand at the far corner: the right vehicle's cell is massless
    field = unimodal_field([5.0, 5.0], sd2=0.5)
    positions = np.array([[0.0, 0.0], [90.0, 90.0]])
    decision = cvr_targets([0, 1], positions, field, 10.0, g,
                           previous={1: 55})
    assert decision.destination[1] == 55
    no_prev = cvr_targets([0, 1], positions, field, 10.0, g)
    assert no_prev.destination[1] is None


def test_held_vehicles_do_not_move_but_shape_cells(grid):
    g, _ = grid
    field = unimodal_field([45.0, 45.0])
    positions = np.array([[30.0, 45.0], [60.0, 45.0]])
    decision = cvr_targets([0, 1], positions, field, BIG_R, g, held={0})
    assert decision.destination[0] is None
    assert decision.destination[1] is not None
    # the held vehicle still generates a cell, so vehicle 1 keeps to its side
    assert g.coords[decision.destination[1]][0] >= 45.0


def test_decision_covers_exactly_the_idle_ids(grid):
    g, _ = grid
    field = unimodal_field([45.0, 45.0])
    decision = cvr_targets([3, 9], np.array([[10.0, 10.0], [80.0, 80.0]]),
                           field, BIG_R, g)
    assert sorted(decision.destination) == [3, 9]


# -- cvr_graph_targets ------------------------------------------------------------

def test_graph_targets_path_uniform_mass():
    g = path_graph([1.0, 1.0])
    oracle = all_pairs_shortest(g)
    mass = np.full(3, 1 / 3)
    decision = cvr_graph_targets([0], [0], mass, oracle, BIG_R)
    assert decision.destination[0] == 1  # middle node minimizes the cost


def test_graph_targets_fixed_point():
    g = path_graph([1.0, 1.0])
    oracle = all_pairs_shortest(g)
    mass = np.full(3, 1 / 3)
    decision = cvr_graph_targets([0], [1], mass, oracle, BIG_R)
    assert decision.destination[0] == 1


def test_graph_targets_mirror_symmetric():
    g = path_graph([1.0] * 5)  # nodes 0..5
    oracle = all_pairs_shortest(g)
    mass = np.full(6, 1 / 6)
    decision = cvr_graph_targets([0, 1], [0, 5], mass, oracle, BIG_R)
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
    decision = cvr_graph_targets(list(range(5)), vehicles, mass, oracle, r_graph)
    assignment = graph_voronoi(oracle, vehicles)
    for vid, node in enumerate(vehicles):
        dest = decision.destination[vid]
        cell = r_limited_graph_cell(assignment, oracle, node, r_graph)
        assert dest in set(cell.members.tolist())


def test_graph_targets_shared_node_share_destination():
    g = path_graph([1.0] * 4)
    oracle = all_pairs_shortest(g)
    mass = np.full(5, 0.2)
    decision = cvr_graph_targets([0, 1], [2, 2], mass, oracle, BIG_R)
    assert decision.destination[0] == decision.destination[1]


# -- hold scores --------------------------------------------------------------------

def test_hold_score_one_when_radius_covers_cell(grid):
    g, _ = grid
    field = unimodal_field([45.0, 45.0])
    positions = np.array([[30.0, 30.0], [60.0, 60.0]])
    assignment = plane_voronoi(field, positions)
    assert hold_score(0, positions, field, BIG_R, assignment) == pytest.approx(1.0)


def test_hold_score_zero_when_limited_cell_empty_of_mass():
    # node-mass raster carries exact zeros away from the deposit pixels
    g = build_graph([(0, 40.0, 10.0), (1, 75.0, 75.0)], [(0, 1, 1.0)])
    field = rasterize_node_mass((0, 0, 90, 90), 3.0, g, [0.5, 0.5])
    positions = np.array([[10.0, 10.0], [70.0, 70.0]])
    assignment = plane_voronoi(field, positions)
    # vehicle 0 owns mass at (40, 10) but nothing within 10 m of itself
    assert hold_score(0, positions, field, 10.0, assignment) == 0.0
    assert hold_score(1, positions, field, 10.0, assignment) > 0.0


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
        assert hold_score(i, positions, field, r, assignment) == pytest.approx(expected)
    bulk = hold_scores(positions, field, r)
    manual = [hold_score(i, positions, field, r, assignment) for i in range(3)]
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


def test_graph_hold_scores_equal_per_generator_loop(grid):
    _, grid_oracle = grid
    rng = np.random.default_rng(15)
    cases = [(grid_oracle, 100)]
    for _ in range(8):
        n = int(rng.integers(5, 60))
        graph_nodes, edges = random_connected_graph(rng, n, extra_edges=n // 3, max_len=6)
        cases.append((all_pairs_shortest(build_graph(graph_nodes, edges)), n))
    for oracle, n in cases:
        mass = rng.random(n) * (rng.random(n) < 0.6)  # zero-mass cells score 0
        mass /= max(mass.sum(), 1e-12)
        nodes = rng.integers(0, n, size=int(rng.integers(1, 12))).tolist()  # repeats share a cell
        for radius in (0.0, 6.0, 25.0, 1e9):
            got = hold_scores_graph(nodes, mass, oracle, radius)
            want = brute_hold_scores_graph(nodes, mass, oracle.dist, radius)
            assert np.array_equal(got, want)


def test_retarget_hysteresis_suppresses_small_flips(grid):
    g, _ = grid
    field = unimodal_field([60.0, 30.0])
    positions = np.array([[5.0, 80.0]])
    free = cvr_targets([0], positions, field, BIG_R, g)
    new_target = free.destination[0]
    neighbor = new_target - 1  # 10 m away on this grid
    pinned = cvr_targets([0], positions, field, BIG_R, g,
                         previous={0: neighbor}, min_retarget_gain_m=50.0)
    assert pinned.destination[0] == neighbor
    released = cvr_targets([0], positions, field, BIG_R, g,
                           previous={0: neighbor}, min_retarget_gain_m=5.0)
    assert released.destination[0] == new_target


# -- select_holds -----------------------------------------------------------------------

def test_alpha_zero_holds_nobody():
    assert select_holds_alpha([1, 2, 3], 0.0, [0.5, 0.9, 0.1]) == set()


def test_alpha_one_holds_everyone():
    assert select_holds_alpha([1, 2, 3], 1.0, [0.5, 0.9, 0.1]) == {1, 2, 3}


def test_alpha_half_takes_floor_and_breaks_ties_by_id():
    ids = [10, 11, 12, 13, 14]
    scores = [0.9, 0.1, 0.5, 0.5, 0.2]
    assert select_holds_alpha(ids, 0.5, scores) == {10, 12}  # floor(2.5)=2


def test_select_holds_count_clamps():
    assert select_holds([1, 2], 5, [0.1, 0.2]) == {1, 2}
    assert select_holds([1, 2], 0, [0.1, 0.2]) == set()


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
    g, oracle = grid
    decision = lp_rebalance([4], [0], [99, 1], g, oracle, 10.0)
    assert decision.destination[4] == 1  # node 1 is 10 m away, node 99 is 180 m


def test_lp_no_pending_all_hold(grid):
    g, oracle = grid
    decision = lp_rebalance([1, 2], [0, 5], [], g, oracle, 10.0)
    assert decision.destination == {1: None, 2: None}


def test_lp_cost_matrix_equals_per_pair_distances(monkeypatch):
    rng = np.random.default_rng(31)
    nodes, edges = random_connected_graph(rng, 40, extra_edges=15)
    g = build_graph(nodes, edges)
    oracle = all_pairs_shortest(g)
    seen = []

    def spy(cost):
        seen.append(cost.copy())
        return real(cost)

    real = rebalance.linear_sum_assignment
    monkeypatch.setattr(rebalance, "linear_sum_assignment", spy)
    for speed in (1.0, 7.3, 1 / 3):
        positions = []
        for u, v, w in edges[:12]:
            positions += [u, (u, v, w * rng.random()), (v, u, w / 3.0)]
        origins = rng.integers(0, 40, size=9).tolist()
        lp_rebalance(list(range(len(positions))), positions, origins, g, oracle, speed)
        want = np.array([[brute_position_distance(g, oracle.dist, p, o) / speed
                          for o in origins] for p in positions])
        assert np.array_equal(seen[-1], want)


def test_lp_matches_brute_force(grid):
    g, oracle = grid
    rng = np.random.default_rng(12)
    for _ in range(25):
        n_idle = int(rng.integers(1, 5))
        n_pending = int(rng.integers(1, 5))
        idle_nodes = rng.integers(0, 100, size=n_idle).tolist()
        origins = rng.integers(0, 100, size=n_pending).tolist()
        ids = list(range(n_idle))
        decision = lp_rebalance(ids, idle_nodes, origins, g, oracle, 5.0)
        cost = np.array([[oracle.dist[v, o] / 5.0 for o in origins] for v in idle_nodes])
        achieved = 0.0
        n_assigned = 0
        used = []
        for vid in ids:
            dest = decision.destination[vid]
            if dest is None:
                continue
            n_assigned += 1
            used.append(dest)
            achieved += oracle.dist[idle_nodes[vid], dest] / 5.0
        assert n_assigned == min(n_idle, n_pending)
        assert achieved == pytest.approx(brute_min_assignment_cost(cost), abs=1e-9)


def test_lp_assigned_origins_are_pending_origins(grid):
    g, oracle = grid
    decision = lp_rebalance([0, 1, 2], [10, 20, 30], [55, 66], g, oracle, 5.0)
    targets = [d for d in decision.destination.values() if d is not None]
    assert len(targets) == 2 and set(targets) <= {55, 66}


# -- do_nothing -----------------------------------------------------------------------------------

def test_do_nothing_holds_everyone():
    decision = do_nothing([4, 5, 6])
    assert decision.destination == {4: None, 5: None, 6: None}
    assert decision.held_ids() == [4, 5, 6]


def test_do_nothing_empty():
    assert do_nothing([]).destination == {}
