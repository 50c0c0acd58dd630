import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim.errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EmptyCellError,
    EmptyGeneratorSetError,
    NonPositiveLengthError,
)
from cvrsim.roadnet import (
    all_pairs_shortest,
    build_graph,
    graph_cells,
    graph_centroid,
    graph_from_json,
    graph_to_json,
    graph_voronoi,
    grid_graph,
    nearest_node,
    nearest_nodes,
    position_leads,
    position_node_distance,
    r_limited_graph_cell,
)

from oracles import (
    brute_graph_centroid,
    brute_graph_owner,
    brute_nearest,
    brute_position_distance,
    dijkstra,
    random_connected_graph,
)


def path_graph(lengths):
    n = len(lengths) + 1
    nodes = [(i, float(i), 0.0) for i in range(n)]
    edges = [(i, i + 1, lengths[i]) for i in range(len(lengths))]
    return build_graph(nodes, edges)


# -- build_graph ---------------------------------------------------------------

def test_minimal_two_node_graph():
    g = build_graph([(0, 0, 0), (1, 5, 0)], [(0, 1, 5.0)])
    assert g.n_nodes == 2
    assert g.edge_length(0, 1) == 5.0


def test_three_node_path_valid():
    g = path_graph([1.0, 1.0])
    assert g.n_nodes == 3


def test_disconnected_graph_rejected():
    nodes = [(i, float(i), 0.0) for i in range(4)]
    with pytest.raises(DisconnectedGraphError):
        build_graph(nodes, [(0, 1, 1.0)])


def test_duplicate_edge_rejected():
    nodes = [(0, 0, 0), (1, 1, 0)]
    with pytest.raises(DuplicateEdgeError):
        build_graph(nodes, [(0, 1, 1.0), (1, 0, 2.0)])


def test_self_loop_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 0, 0), (1, 1, 0)], [(0, 1, 1.0), (0, 0, 1.0)])


def test_nonpositive_length_rejected():
    nodes = [(0, 0, 0), (1, 1, 0)]
    with pytest.raises(NonPositiveLengthError):
        build_graph(nodes, [(0, 1, 0.0)])


def test_sparse_node_ids_rejected():
    with pytest.raises(ValueError):
        build_graph([(0, 0, 0), (2, 1, 0)], [(0, 2, 1.0)])


# -- all_pairs_shortest --------------------------------------------------------

def test_unique_path_distance_and_next_hop():
    oracle = all_pairs_shortest(path_graph([3.0, 4.0]))
    assert oracle.dist[0, 2] == 7.0
    assert oracle.next_hop[0, 2] == 1
    assert oracle.path(0, 2) == [0, 1, 2]


def test_self_distance_zero():
    oracle = all_pairs_shortest(grid_graph(4, 10.0))
    assert np.all(np.diag(oracle.dist) == 0.0)


def test_shortcut_through_middle_node():
    g = build_graph(
        [(0, 0, 0), (1, 1, 0), (2, 2, 0)],
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)],
    )
    oracle = all_pairs_shortest(g)
    assert oracle.dist[0, 2] == 2.0
    assert oracle.next_hop[0, 2] == 1


def test_matches_dijkstra_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(20, 301))
        nodes, edges = random_connected_graph(rng, n, extra_edges=n // 2)
        g = build_graph(nodes, edges)
        oracle = all_pairs_shortest(g)
        for source in rng.integers(0, n, size=3):
            assert np.array_equal(oracle.dist[source], dijkstra(g, int(source)))


def test_next_hop_walk_reproduces_distance():
    rng = np.random.default_rng(11)
    nodes, edges = random_connected_graph(rng, 60, extra_edges=40)
    g = build_graph(nodes, edges)
    oracle = all_pairs_shortest(g)
    for a in range(0, 60, 7):
        for b in range(0, 60, 5):
            hops = oracle.path(a, b)
            walked = sum(g.edge_length(u, v) for u, v in zip(hops, hops[1:]))
            assert walked == pytest.approx(oracle.dist[a, b], rel=1e-9, abs=1e-9)
    assert np.allclose(oracle.dist, oracle.dist.T)


def brute_next_hops(g, dist):
    """Smallest-id neighbour v of i with w(i, v) + dist[j, v] == dist[j, i], by loops."""
    n = g.n_nodes
    out = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            out[i, j] = i if i == j else min(
                v for v, w in g.neighbors(i) if w + dist[j, v] == dist[j, i])
    return out


def test_next_hop_is_smallest_neighbour_on_grid_ties():
    g = grid_graph(5, 10.0)
    oracle = all_pairs_shortest(g)
    assert np.array_equal(oracle.next_hop, brute_next_hops(g, oracle.dist))
    # from the corner toward the far corner, both first hops are shortest
    assert oracle.next_hop[0, 24] == 1


def test_next_hop_is_smallest_neighbour_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(10, 60))
        nodes, edges = random_connected_graph(rng, n, extra_edges=n, max_len=4)
        g = build_graph(nodes, edges)
        oracle = all_pairs_shortest(g)
        assert np.array_equal(oracle.next_hop, brute_next_hops(g, oracle.dist))


@st.composite
def connected_graphs(draw):
    """A random tree plus chords, with non-integer edge lengths."""
    n = draw(st.integers(2, 30))
    length = st.floats(0.1, 1000.0, allow_nan=False, allow_infinity=False)
    edges = {(draw(st.integers(0, v - 1)), v): draw(length) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), draw(length))
    nodes = [(i, float(i), 0.0) for i in range(n)]
    return build_graph(nodes, [(u, v, w) for (u, v), w in edges.items()])


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_next_hop_walks_are_shortest_paths(g):
    oracle = all_pairs_shortest(g)
    n = g.n_nodes
    for a in range(n):
        for b in range(n):
            walk = [a]
            while walk[-1] != b and len(walk) <= n:
                walk.append(int(oracle.next_hop[walk[-1], b]))
            assert walk[-1] == b and len(walk) <= n
            assert walk == oracle.path(a, b)
            walked = sum(g.edge_length(u, v) for u, v in zip(walk, walk[1:]))
            assert walked == pytest.approx(oracle.dist[a, b], rel=1e-9, abs=0.0)


# -- graph_voronoi --------------------------------------------------------------

def test_voronoi_tie_goes_to_smaller_generator():
    oracle = all_pairs_shortest(path_graph([1.0] * 4))
    assignment = graph_voronoi(oracle, [0, 4])
    assert list(assignment) == [0, 0, 0, 4, 4]  # node 2 tied, goes to 0


def test_voronoi_single_generator_owns_everything():
    oracle = all_pairs_shortest(grid_graph(3, 10.0))
    assert np.all(graph_voronoi(oracle, [4]) == 4)


def test_voronoi_all_generators_self_assign():
    oracle = all_pairs_shortest(grid_graph(3, 10.0))
    assignment = graph_voronoi(oracle, list(range(9)))
    assert list(assignment) == list(range(9))


def test_voronoi_empty_generators_rejected():
    oracle = all_pairs_shortest(grid_graph(2, 10.0))
    with pytest.raises(EmptyGeneratorSetError):
        graph_voronoi(oracle, [])


def test_voronoi_assignment_is_optimal_everywhere():
    rng = np.random.default_rng(3)
    nodes, edges = random_connected_graph(rng, 120, extra_edges=80)
    g = build_graph(nodes, edges)
    oracle = all_pairs_shortest(g)
    gens = sorted(rng.choice(120, size=6, replace=False).tolist())
    assignment = graph_voronoi(oracle, gens)
    for q in range(120):
        for gen in gens:
            assert oracle.dist[assignment[q], q] <= oracle.dist[gen, q]


# -- r_limited_graph_cell --------------------------------------------------------

def test_limited_cell_on_path():
    oracle = all_pairs_shortest(path_graph([1.0] * 4))
    assignment = graph_voronoi(oracle, [0])
    cell = r_limited_graph_cell(assignment, oracle, 0, 2.0)
    assert list(cell.members) == [0, 1, 2]


def test_limited_cell_radius_zero_is_generator_only():
    oracle = all_pairs_shortest(path_graph([1.0] * 4))
    assignment = graph_voronoi(oracle, [0])
    cell = r_limited_graph_cell(assignment, oracle, 0, 0.0)
    assert list(cell.members) == [0]


def test_limited_cell_large_radius_covers_graph():
    oracle = all_pairs_shortest(path_graph([1.0] * 4))
    assignment = graph_voronoi(oracle, [0])
    cell = r_limited_graph_cell(assignment, oracle, 0, 100.0)
    assert list(cell.members) == [0, 1, 2, 3, 4]


def test_limited_cell_subset_of_voronoi_cell():
    rng = np.random.default_rng(5)
    nodes, edges = random_connected_graph(rng, 80, extra_edges=50)
    g = build_graph(nodes, edges)
    oracle = all_pairs_shortest(g)
    gens = sorted(rng.choice(80, size=4, replace=False).tolist())
    assignment = graph_voronoi(oracle, gens)
    for gen in gens:
        cell = r_limited_graph_cell(assignment, oracle, gen, 15.0)
        assert set(cell.members) <= set(np.flatnonzero(assignment == gen))


# -- graph_centroid ---------------------------------------------------------------

def test_centroid_of_uniform_path_is_middle():
    oracle = all_pairs_shortest(path_graph([1.0, 1.0]))
    assignment = graph_voronoi(oracle, [0])
    cell = r_limited_graph_cell(assignment, oracle, 0, 100.0)
    mass = np.full(3, 1.0 / 3.0)
    assert graph_centroid(cell, mass, oracle) == 1  # costs 5/3, 2/3, 5/3


def test_centroid_of_singleton_cell():
    oracle = all_pairs_shortest(path_graph([1.0, 1.0]))
    assignment = graph_voronoi(oracle, [0, 1, 2])
    cell = r_limited_graph_cell(assignment, oracle, 2, 0.0)
    assert graph_centroid(cell, np.full(3, 1 / 3), oracle) == 2


def test_centroid_tie_goes_to_smaller_node():
    oracle = all_pairs_shortest(path_graph([2.0]))
    assignment = graph_voronoi(oracle, [0])
    cell = r_limited_graph_cell(assignment, oracle, 0, 10.0)
    assert graph_centroid(cell, np.array([0.5, 0.5]), oracle) == 0


def test_centroid_empty_cell_rejected():
    oracle = all_pairs_shortest(path_graph([1.0]))
    from cvrsim.roadnet import GraphCell
    with pytest.raises(EmptyCellError):
        graph_centroid(GraphCell(0, np.array([], dtype=int)), np.array([1.0, 0.0]), oracle)


def test_centroid_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(10, 120))
        nodes, edges = random_connected_graph(rng, n, extra_edges=n // 3)
        g = build_graph(nodes, edges)
        oracle = all_pairs_shortest(g)
        mass = rng.random(n)
        mass /= mass.sum()
        gens = sorted(rng.choice(n, size=min(4, n), replace=False).tolist())
        assignment = graph_voronoi(oracle, gens)
        for gen in gens:
            cell = r_limited_graph_cell(assignment, oracle, gen, float(rng.uniform(5, 60)))
            assert graph_centroid(cell, mass, oracle) == brute_graph_centroid(
                cell.members, mass, oracle.dist)


# -- graph_cells --------------------------------------------------------------------

def check_graph_cells(oracle, gens, radius, mass):
    """graph_cells against the brute owner, r_limited_graph_cell and the brute centroid."""
    cells = graph_cells(oracle, gens, radius)
    owner = brute_graph_owner(oracle.dist, gens)
    assert cells.generators.tolist() == sorted(gens)
    assert np.array_equal(cells.owner_dist, oracle.dist[owner, np.arange(len(owner))])
    assert np.array_equal(cells.in_range, cells.owner_dist <= radius)
    for k, gen in enumerate(sorted(gens)):
        assert np.array_equal(cells.owned[k], np.flatnonzero(owner == gen))
        want = r_limited_graph_cell(owner, oracle, gen, radius)
        got = cells.limited(k)
        assert got.generator == gen
        assert np.array_equal(got.members, want.members)
        assert graph_centroid(got, mass, oracle) == brute_graph_centroid(
            want.members, mass, oracle.dist)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), n_gens=st.integers(1, 9),
       radius=st.sampled_from([0.0, 7.0, 15.5, 40.0, 1e9]))
def test_graph_cells_match_per_generator_views(seed, n, n_gens, radius):
    # integer edge lengths: many nodes sit at exactly equal distance from two generators
    rng = np.random.default_rng(seed)
    nodes, edges = random_connected_graph(rng, n, extra_edges=n // 3, max_len=5)
    oracle = all_pairs_shortest(build_graph(nodes, edges))
    mass = rng.random(n)
    mass /= mass.sum()
    gens = rng.choice(n, size=min(n_gens, n), replace=False).tolist()
    check_graph_cells(oracle, gens, radius, mass)


def test_graph_cells_on_grid_ties():
    oracle = all_pairs_shortest(grid_graph(7, 10.0))
    mass = np.random.default_rng(4).random(49)
    for gens in ([0, 48], [6, 42], [0, 6, 42, 48], [24], list(range(0, 49, 3))):
        for radius in (0.0, 20.0, 35.0, 1e9):
            check_graph_cells(oracle, gens, radius, mass)


def test_graph_cells_reject_bad_generator_sets():
    oracle = all_pairs_shortest(path_graph([1.0] * 3))
    with pytest.raises(EmptyGeneratorSetError):
        graph_cells(oracle, [], 1.0)
    with pytest.raises(ValueError):
        graph_cells(oracle, [1, 1], 1.0)


# -- nearest_node -------------------------------------------------------------------

def test_nearest_node_exact_hit():
    g = grid_graph(4, 10.0)
    assert nearest_node(g, g.coords[7]) == 7


def test_nearest_node_tie_smaller_id():
    g = build_graph([(0, 0, 0), (1, 2, 0)], [(0, 1, 2.0)])
    assert nearest_node(g, (1.0, 0.0)) == 0


def test_nearest_node_three_candidates():
    g = build_graph(
        [(0, 0, 0), (1, 10, 0), (2, 0, 10)],
        [(0, 1, 10.0), (0, 2, 10.0)],
    )
    assert nearest_node(g, (1.0, 2.0)) == 0


def test_nearest_nodes_matches_scalar_version():
    g = grid_graph(5, 7.0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-5, 40, size=(50, 2))
    batch = nearest_nodes(g, pts)
    assert [nearest_node(g, p) for p in pts] == list(batch)
    # Midpoints between node pairs tie exactly between two or more nodes; on a
    # spacing that is not a binary fraction, an expanded |p|^2 + |c|^2 - 2 p.c
    # breaks those ties by rounding instead of by the smallest id.
    city = grid_graph(6, 9750 / 29)
    mid = np.array([(city.coords[i] + city.coords[j]) / 2
                    for i, j in itertools.combinations(range(city.n_nodes), 2)])
    batch = nearest_nodes(city, mid)
    assert list(batch) == list(brute_nearest(mid, city.coords))
    assert [nearest_node(city, p) for p in mid] == list(batch)


# -- helpers ---------------------------------------------------------------------

def test_position_distance_mid_edge_drives_forward():
    g = path_graph([100.0, 250.0])
    oracle = all_pairs_shortest(g)
    # 50 m before node 1 on edge (0, 1); node 2 is 250 m past node 1
    assert position_node_distance(g, oracle, (0, 1, 50.0), 2) == 300.0
    # no U-turn: on to node 1, then back along the edge to node 0
    assert position_node_distance(g, oracle, (0, 1, 50.0), 0) == 150.0


def test_position_leads_node_and_mid_edge():
    g = path_graph([100.0, 250.0])
    fwd, lead = position_leads(g, [2, (0, 1, 50.0), (2, 1, 0.0), np.int64(0)])
    assert fwd.dtype == np.int64 and fwd.tolist() == [2, 1, 1, 0]
    assert lead.tolist() == [0.0, 50.0, 250.0, 0.0]
    fwd, lead = position_leads(g, [])
    assert fwd.shape == lead.shape == (0,)


def test_position_distance_equals_scalar_sum_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        nodes, edges = random_connected_graph(rng, n, extra_edges=n // 2)
        g = build_graph(nodes, edges)
        oracle = all_pairs_shortest(g)
        for u, v, w in edges:
            for pos in (u, v, (u, v, w * rng.random()), (v, u, w / 3.0)):
                for node in range(n):
                    assert position_node_distance(g, oracle, pos, node) == \
                        brute_position_distance(g, oracle.dist, pos, node)


def test_grid_graph_counts():
    g = grid_graph(2, 100.0)
    assert (g.n_nodes, g.n_edges) == (4, 4)
    assert np.all(g.edge_len == 100.0)
    g20 = grid_graph(20, 250.0)
    assert (g20.n_nodes, g20.n_edges) == (400, 760)


def test_graph_json_round_trip(tmp_path):
    g = grid_graph(3, 50.0)
    doc = graph_to_json(g)
    path = tmp_path / "net.json"
    import json
    path.write_text(json.dumps(doc))
    g2 = graph_from_json(str(path))
    assert g2.n_nodes == g.n_nodes
    assert np.array_equal(g2.coords, g.coords)
    assert np.array_equal(g2.edge_len, g.edge_len)
