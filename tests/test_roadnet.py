import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim import roadnet
from cvrsim.errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EmptyCellError,
    EmptyGeneratorSetError,
    NonPositiveLengthError,
)
from cvrsim.roadnet import (
    _build_oracle,
    all_pairs_shortest,
    build_graph,
    graph_cells,
    graph_centroid,
    graph_centroids,
    graph_from_json,
    graph_to_json,
    graph_voronoi,
    grid_graph,
    nearest_nodes,
    position_node_distance,
    r_limited_graph_cell,
)

from oracles import (
    adjacency_lists,
    brute_graph_centroid,
    brute_graph_owner,
    brute_nearest,
    brute_position_distance,
    dijkstra,
    position_lead,
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


@pytest.mark.parametrize("nodes, length, last", [
    ([(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)], np.nan, 1.0),
    ([(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)], np.inf, 1.0),
    ([(0, 0, 0), (1, np.nan, 0), (2, 2, 0), (3, 3, 0)], 1.0, 1.0),
    ([(0, 0, 0), (1, 1, 0), (2, 2, -np.inf), (3, 3, 0)], 1.0, 1.0),
    ([(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)], 1e308, 1e308),  # path 1-3 overflows
])
def test_non_finite_values_rejected(nodes, length, last):
    # a path 0-1-2-3 whose middle edge is a bridge: connectivity alone passes it
    with pytest.raises(ValueError, match="non-finite"):
        build_graph(nodes, [(0, 1, 1.0), (1, 2, length), (2, 3, last)])


def test_sparse_node_ids_rejected():
    with pytest.raises(ValueError):
        build_graph([(0, 0, 0), (2, 1, 0)], [(0, 2, 1.0)])


TWO_NODES = [(0, 0.0, 0.0), (1, 1.0, 0.0)]


@pytest.mark.parametrize("nodes, edges, message", [
    # int() once read these ids as 0 and 1 and built a 2-node graph with edge (0, 1)
    pytest.param([(0.5, 0, 0), (1.9, 1, 0)], [(0.7, 1.2, 5.0)],
                 "node id must be a whole number", id="fractional-ids"),
    pytest.param([(0, 0, 0), (True, 1, 0)], [(0, 1, 1.0)],
                 "node id must be a whole number", id="bool-id"),
    pytest.param([("0", 0, 0), (1, 1, 0)], [(0, 1, 1.0)],
                 "node id must be a whole number", id="string-id"),
    pytest.param(TWO_NODES, [(0, 1.2, 1.0)],
                 "edge endpoint must be a whole number", id="fractional-endpoint"),
    pytest.param(TWO_NODES, [(False, 1, 1.0)],
                 "edge endpoint must be a whole number", id="bool-endpoint"),
    pytest.param(TWO_NODES, [(0, "1", 1.0)],
                 "edge endpoint must be a whole number", id="string-endpoint"),
    pytest.param(TWO_NODES, [(0, 1, "5")],
                 r"edge \(0, 1\) length must be a number", id="string-length"),
    pytest.param(TWO_NODES, [(0, 1, True)],
                 r"edge \(0, 1\) length must be a number", id="bool-length"),
    pytest.param(TWO_NODES, [(0, 1, None)],
                 r"edge \(0, 1\) length must be a number", id="null-length"),
    pytest.param([(0, 0, 0), (1, "1", 0)], [(0, 1, 1.0)],
                 "node 1 x must be a number", id="string-coordinate"),
    pytest.param([(0, 0, False), (1, 1, 0)], [(0, 1, 1.0)],
                 "node 0 y must be a number", id="bool-coordinate"),
])
def test_values_that_would_be_truncated_or_coerced_are_rejected(nodes, edges, message):
    with pytest.raises(ValueError, match=message):
        build_graph(nodes, edges)


def test_whole_floats_and_numpy_numbers_are_accepted():
    g = build_graph([(np.int64(1), np.float32(2.5), 0), (0.0, 0, np.int32(1))],
                    [(np.int16(1), 0.0, np.int64(3))])
    assert g.coords.tolist() == [[0.0, 1.0], [2.5, 0.0]]
    assert g.edge_length(0, 1) == 3.0


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
    adjacency = adjacency_lists(g)
    out = np.empty((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            out[i, j] = i if i == j else min(
                v for v, w in adjacency[i] if w + dist[j, v] == dist[j, i])
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


# -- the kept oracle ----------------------------------------------------------------

def same_tables(a, b):
    return np.array_equal(a.dist, b.dist) and np.array_equal(a.next_hop, b.next_hop)


def grid_parts(k, spacing_m):
    """The node and edge lists of ``grid_graph(k, spacing_m)``."""
    g = grid_graph(k, spacing_m)
    nodes = [(i, x, y) for i, (x, y) in enumerate(g.coords.tolist())]
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_len.tolist()))
    return nodes, edges


def test_equal_graphs_share_one_oracle(oracle_builds):
    first = all_pairs_shortest(grid_graph(5, 10.0))
    assert all_pairs_shortest(grid_graph(5, 10.0)) is first
    assert len(oracle_builds) == 1


@pytest.mark.parametrize("edit", ["longer-edge", "extra-edge"])
def test_a_changed_edge_set_builds_a_new_oracle(oracle_builds, edit):
    nodes, edges = grid_parts(5, 10.0)
    if edit == "longer-edge":
        edges[7] = (*edges[7][:2], 10.5)
    else:
        edges.append((0, 24, 5.0))
    base = all_pairs_shortest(grid_graph(5, 10.0))
    g = build_graph(nodes, edges)
    got = all_pairs_shortest(g)
    assert got is not base and len(oracle_builds) == 2
    assert same_tables(got, _build_oracle(g))
    assert not same_tables(got, base)


def test_graphs_in_turn_each_get_their_own_oracle(oracle_builds):
    a, b = grid_graph(5, 10.0), grid_graph(5, 12.0)  # the same edges, other lengths
    for g in (a, b, a):
        assert same_tables(all_pairs_shortest(g), _build_oracle(g))
    assert len(oracle_builds) == 3


def test_moved_coordinates_reuse_the_oracle(oracle_builds):
    nodes, edges = grid_parts(5, 10.0)
    moved = build_graph([(i, 3.0 * x + 1.0, y - 7.0) for i, x, y in nodes], edges)
    assert all_pairs_shortest(moved) is all_pairs_shortest(grid_graph(5, 10.0))
    assert len(oracle_builds) == 1


def test_kept_oracle_arrays_are_read_only(oracle_builds):
    for _ in range(2):  # the build, then the kept oracle
        oracle = all_pairs_shortest(grid_graph(3, 10.0))
        for table in (oracle.dist, oracle.next_hop):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 1] = 0
    assert len(oracle_builds) == 1


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


def test_centroid_tie_on_grid_goes_to_smaller_node():
    # nodes 0 and 8 both cost 1400/49; a (d*d) @ mass gemv summed them in an order
    # that made node 8 cheaper by one rounding
    oracle = all_pairs_shortest(grid_graph(7, 10.0))
    cells = graph_cells(oracle, [0], 25.0)
    assert cells.near.tolist() == [0, 1, 2, 7, 8, 14]
    mass = np.full(49, 1 / 49)
    assert brute_graph_centroid(cells.near, mass, oracle.dist) == 0
    assert graph_centroids(oracle, cells.near, cells.near_bounds, mass).tolist() == [0]


def test_centroid_on_city_spacing_sums_left_to_right():
    # the four middle nodes 5, 6, 9, 10 tie in exact arithmetic; the
    # left-to-right sum makes node 5 cheapest, a gemv made node 9 cheapest
    oracle = all_pairs_shortest(grid_graph(4, 9750 / 29))
    cells = graph_cells(oracle, [0], 1e9)
    mass = np.full(16, 1 / 16)
    assert brute_graph_centroid(cells.near, mass, oracle.dist) == 5
    assert graph_centroids(oracle, cells.near, cells.near_bounds, mass).tolist() == [5]


def test_graph_centroids_empty_cells_give_minus_one():
    oracle = all_pairs_shortest(path_graph([1.0] * 4))
    mass = np.full(5, 0.2)
    got = graph_centroids(oracle, [0, 1, 2, 4], [0, 0, 3, 3, 4, 4], mass)
    assert got.tolist() == [-1, 1, -1, 4, -1]
    assert graph_centroids(oracle, [], [0, 0], mass).tolist() == [-1]


def limited_cells(cells):
    """The member arrays of a GraphCells' range-limited cells, in generator order."""
    return [cells.near[a:b] for a, b in zip(cells.near_bounds[:-1], cells.near_bounds[1:])]


def _centroid_case(seed, kind, n, n_gens, reach):
    """A graph, node mass, generators and radius drawn for the centroid property test."""
    rng = np.random.default_rng(seed)
    if kind in ("real", "integer"):
        nodes, edges = random_connected_graph(rng, n, extra_edges=n // 3, max_len=5,
                                              real_lengths=kind == "real")
        oracle = all_pairs_shortest(build_graph(nodes, edges))
        mass = rng.random(n)
        mass /= mass.sum()
    else:
        k = 2 + n % 7
        oracle = all_pairs_shortest(grid_graph(k, float(rng.choice([1.0, 10.0, 9750 / 29]))))
        n = k * k
        mass = np.full(n, 1 / n) if kind == "grid_uniform" else np.ones(n)
    radius = {"zero": 0.0, "mid": float(np.median(oracle.dist)), "all": 1e9}[reach]
    gens = rng.choice(n, size=min(n_gens, n), replace=False).tolist()
    return rng, oracle, mass, gens, radius


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["real", "integer", "grid_uniform", "grid_ones"]),
       n=st.integers(2, 40), n_gens=st.integers(1, 9),
       reach=st.sampled_from(["zero", "mid", "all"]))
def test_graph_centroids_equal_brute_force_for_every_cell(seed, kind, n, n_gens, reach):
    rng, oracle, mass, gens, radius = _centroid_case(seed, kind, n, n_gens, reach)
    cells = graph_cells(oracle, gens, radius)
    got = graph_centroids(oracle, cells.near, cells.near_bounds, mass)
    parts = limited_cells(cells)
    for k, members in enumerate(parts):
        assert got[k] == brute_graph_centroid(members, mass, oracle.dist)
    # thinned cells: arbitrary member subsets, some of them empty
    parts = [p[rng.random(len(p)) < 0.5] for p in parts]
    bounds = np.concatenate([[0], np.cumsum([len(p) for p in parts])])
    got = graph_centroids(oracle, np.concatenate(parts), bounds, mass)
    for k, part in enumerate(parts):
        want = brute_graph_centroid(part, mass, oracle.dist)
        assert got[k] == (-1 if want is None else want)


# -- graph_cells --------------------------------------------------------------------

def check_graph_cells(oracle, gens, radius, mass):
    """graph_cells against the brute owner, r_limited_graph_cell and the brute centroid."""
    cells = graph_cells(oracle, gens, radius)
    owner = brute_graph_owner(oracle.dist, gens)
    assert cells.generators.tolist() == sorted(gens)
    assert np.array_equal(cells.generators[cells.owner], owner)
    assert np.array_equal(cells.owner_dist, oracle.dist[owner, np.arange(len(owner))])
    assert np.array_equal(cells.in_range, cells.owner_dist <= radius)
    centroids = graph_centroids(oracle, cells.near, cells.near_bounds, mass)
    for k, (gen, members) in enumerate(zip(sorted(gens), limited_cells(cells))):
        want = r_limited_graph_cell(owner, oracle, gen, radius)
        assert np.array_equal(members, want.members)
        assert centroids[k] == brute_graph_centroid(want.members, mass, oracle.dist)


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


# -- nearest_nodes ------------------------------------------------------------------

def test_nearest_node_exact_hit():
    g = grid_graph(4, 10.0)
    assert nearest_nodes(g, g.coords[7]).tolist() == [7]


def test_nearest_node_tie_smaller_id():
    g = build_graph([(0, 0, 0), (1, 2, 0)], [(0, 1, 2.0)])
    assert nearest_nodes(g, (1.0, 0.0)).tolist() == [0]


def test_nearest_node_three_candidates():
    g = build_graph(
        [(0, 0, 0), (1, 10, 0), (2, 0, 10)],
        [(0, 1, 10.0), (0, 2, 10.0)],
    )
    assert nearest_nodes(g, (1.0, 2.0)).tolist() == [0]


def test_nearest_nodes_matches_scalar_version():
    g = grid_graph(5, 7.0)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-5, 40, size=(50, 2))
    batch = nearest_nodes(g, pts)
    assert [nearest_nodes(g, p)[0] for p in pts] == list(batch)
    # Midpoints between node pairs tie exactly between two or more nodes; on a
    # spacing that is not a binary fraction, an expanded |p|^2 + |c|^2 - 2 p.c
    # breaks those ties by rounding instead of by the smallest id.
    city = grid_graph(6, 9750 / 29)
    mid = np.array([(city.coords[i] + city.coords[j]) / 2
                    for i, j in itertools.combinations(range(city.n_nodes), 2)])
    batch = nearest_nodes(city, mid)
    assert list(batch) == list(brute_nearest(mid, city.coords))
    assert [nearest_nodes(city, p)[0] for p in mid] == list(batch)


CITY_SPACING_M = 9750 / 29


@st.composite
def graphs_and_snap_points(draw):
    """A graph and points to snap to it, rich in exact and near ties."""
    kind = draw(st.sampled_from(["city lattice", "few nodes", "duplicate coordinates"]))
    if kind == "city lattice":
        k = draw(st.integers(2, 12))
        graph = grid_graph(k, CITY_SPACING_M)
        # Half-spacing lattice points sit on nodes, on edge midpoints and on
        # cell centers, where two or four nodes tie.
        half = st.tuples(st.integers(-2, 2 * k), st.integers(-2, 2 * k)).map(
            lambda ij: (ij[0] * CITY_SPACING_M / 2, ij[1] * CITY_SPACING_M / 2))
    else:
        n = draw(st.integers(1, 3) if kind == "few nodes" else st.integers(2, 40))
        coord = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
            lambda ij: (ij[0] * 1.5, ij[1] * 1.5))
        coords = draw(st.lists(coord, min_size=n, max_size=n))
        if kind == "duplicate coordinates":
            coords += draw(st.lists(st.sampled_from(coords), min_size=1, max_size=8))
        graph = build_graph([(i, x, y) for i, (x, y) in enumerate(coords)],
                            [(i, i + 1, 1.0) for i in range(len(coords) - 1)])
        half = coord.map(lambda xy: (xy[0] / 2, xy[1] / 2))
    xmin, ymin, xmax, ymax = graph.bounding_box()
    pad = max(xmax - xmin, ymax - ymin, 1.0)
    anywhere = st.tuples(st.floats(xmin - pad, xmax + pad), st.floats(ymin - pad, ymax + pad))
    points = draw(st.lists(st.one_of(half, anywhere), max_size=60))
    return graph, np.array(points, dtype=np.float64).reshape(-1, 2)


@settings(max_examples=150, deadline=None)
@given(graphs_and_snap_points())
def test_nearest_nodes_matches_brute_force(case):
    graph, points = case
    snapped = nearest_nodes(graph, points)
    assert snapped.shape == (len(points),)
    assert np.array_equal(snapped, brute_nearest(points, graph.coords))


def test_nearest_nodes_on_every_half_spacing_lattice_point():
    city = grid_graph(12, CITY_SPACING_M)
    ij = np.array(list(itertools.product(range(-2, 25), repeat=2)))
    points = ij * CITY_SPACING_M / 2
    assert np.array_equal(nearest_nodes(city, points), brute_nearest(points, city.coords))


def test_nearest_nodes_of_no_points_is_empty():
    assert nearest_nodes(grid_graph(3, CITY_SPACING_M), np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_nodes_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="points must be finite"):
        nearest_nodes(grid_graph(4, 10.0), [[5.0, 5.0], [bad, 25.0]])


def test_nearest_nodes_when_the_coordinate_span_overflows():
    # Two clusters 2e308 apart, one finite edge between them: the node box's
    # width is inf, so every squared distance across it overflows.
    coords = [(-1e308, 0.0), (1e308, 0.0), (1e308, 1e150), (-1e308, -1e150), (1e308, 0.0)]
    graph = build_graph([(i, x, y) for i, (x, y) in enumerate(coords)],
                        [(i, i + 1, 1.0) for i in range(len(coords) - 1)])
    rng = np.random.default_rng(5)
    offsets = rng.uniform(-1e153, 1e153, size=(40, 2))
    points = np.concatenate([
        np.asarray(coords),
        [(1e308, 5e149), (-1e308, -5e149), (1e308, 3e150), (-1e308, -3e150)],  # ties, outside
        np.asarray(coords)[rng.integers(0, len(coords), 40)] + offsets])
    with np.errstate(over="ignore"):  # distances across the clusters are inf, here and there
        assert np.array_equal(nearest_nodes(graph, points), brute_nearest(points, graph.coords))


def test_nearest_nodes_when_every_node_shares_one_point():
    graph = build_graph([(i, 3.0, -2.0) for i in range(6)], [(i, i + 1, 1.0) for i in range(5)])
    points = np.concatenate([[(3.0, -2.0)], np.random.default_rng(8).normal(0, 1e3, (30, 2))])
    assert np.array_equal(nearest_nodes(graph, points), brute_nearest(points, graph.coords))
    assert nearest_nodes(graph, points).tolist() == [0] * len(points)


def test_nearest_nodes_far_outside_the_node_box():
    doc = graph_to_json(grid_graph(30, CITY_SPACING_M))
    # Node 900 stands 1 m above the top right corner. Far above the box it is
    # the nearest node even at x = 0, where no bucket keeps it as a candidate.
    x, y = doc["nodes"][899][1:]
    doc["nodes"].append([900, x, y + 1.0])
    doc["edges"].append([899, 900, 1.0])
    city = build_graph(doc["nodes"], doc["edges"])
    rng = np.random.default_rng(9)
    angle = rng.uniform(0, 2 * np.pi, 200)
    radius = 10.0 ** rng.uniform(4, 12, 200)
    points = 4875.0 + radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    points = np.concatenate([points, [(0.0, 1e9), (-1e9, 4875.0), (-1e6, -1e6)]])
    snapped = nearest_nodes(city, points)
    assert snapped[-3] == 900
    assert np.array_equal(snapped, brute_nearest(points, city.coords))


def test_nearest_nodes_on_every_half_spacing_point_of_the_city_and_a_ring_outside():
    city = grid_graph(30, CITY_SPACING_M)
    ij = np.array(list(itertools.product(range(-2, 61), repeat=2)))
    points = ij * CITY_SPACING_M / 2
    assert np.array_equal(nearest_nodes(city, points), brute_nearest(points, city.coords))


def test_snap_index_is_built_once_per_graph(monkeypatch):
    builds = []

    def counted(coords):
        builds.append(coords)
        return build_snap_index(coords)

    build_snap_index = roadnet._build_snap_index
    monkeypatch.setattr(roadnet, "_build_snap_index", counted)
    first, second = grid_graph(5, 10.0), grid_graph(5, 10.0)
    for _ in range(3):
        for graph in (first, second):
            assert nearest_nodes(graph, [(12.0, 31.0), (-5.0, 60.0)]).tolist() == [16, 20]
    assert [c is g.coords for c, g in zip(builds, (first, second))] == [True, True]


# -- helpers ---------------------------------------------------------------------

def test_position_distance_mid_edge_drives_forward():
    g = path_graph([100.0, 250.0])
    oracle = all_pairs_shortest(g)
    # 50 m before node 1 on edge (0, 1); node 2 is 250 m past node 1
    assert position_node_distance(oracle, 1, 50.0, 2) == 300.0
    # no U-turn: on to node 1, then back along the edge to node 0
    assert position_node_distance(oracle, 1, 50.0, 0) == 150.0


def test_position_distance_broadcasts_to_the_scalar_values():
    oracle = all_pairs_shortest(grid_graph(4, 100.0))
    fwd, lead, nodes = np.array([0, 5, 5, 15]), np.array([0.0, 30.0, 70.0, 12.5]), [3, 9]
    block = position_node_distance(oracle, fwd[:, None], lead[:, None], np.array(nodes))
    assert block.tolist() == [[position_node_distance(oracle, f, a, n) for n in nodes]
                              for f, a in zip(fwd.tolist(), lead.tolist())]
    assert position_node_distance(oracle, fwd, lead, 9).tolist() == block[:, 1].tolist()


def test_position_distance_equals_scalar_sum_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        nodes, edges = random_connected_graph(rng, n, extra_edges=n // 2)
        g = build_graph(nodes, edges)
        oracle = all_pairs_shortest(g)
        for u, v, w in edges:
            for pos in (u, v, (u, v, w * rng.random()), (v, u, w / 3.0)):
                fwd, lead = position_lead(g, pos)
                for node in range(n):
                    assert position_node_distance(oracle, fwd, lead, node) == \
                        brute_position_distance(g, oracle.dist, pos, node)


def test_random_graph_rejects_more_chords_than_free_node_pairs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_connected_graph(rng, 2, extra_edges=1)  # the tree takes the one pair
    with pytest.raises(ValueError):
        random_connected_graph(rng, 5, extra_edges=7)
    _, edges = random_connected_graph(rng, 5, extra_edges=6)  # complete: 10 pairs
    assert len(edges) == 10


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
