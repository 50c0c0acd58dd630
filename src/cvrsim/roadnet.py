"""Road-network machinery.

Validated undirected graphs, dense all-pairs shortest paths with next-hop
routing, shortest-path (graph) Voronoi partitions, range-limited graph cells
(all of them at once through :func:`graph_cells`), and mass-weighted graph
centroids.

Vehicle positions elsewhere in the library are either a node id (``int``) or a
mid-edge triple ``(u, v, offset_m)`` meaning "offset_m meters from u while
driving toward v"; :func:`position_leads` reduces a batch of either form to a
forward node plus the distance left to it, and :func:`position_node_distance`
is its one-position view, driving a mid-edge vehicle forward.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EmptyCellError,
    EmptyGeneratorSetError,
    NonPositiveLengthError,
)


@dataclass(frozen=True)
class RoadGraph:
    """Undirected road graph with dense integer node ids 0..N-1.

    coords : (N, 2) planar node coordinates in meters
    edge_u, edge_v : (E,) endpoint ids
    edge_len : (E,) edge lengths in meters, strictly positive
    """

    coords: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_len: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.coords)

    @property
    def n_edges(self) -> int:
        return len(self.edge_len)

    def edge_length(self, u: int, v: int) -> float:
        return self._length_lookup[(u, v)]

    def neighbors(self, u: int) -> list[tuple[int, float]]:
        return self._adjacency[u]

    def __post_init__(self):
        lookup: dict[tuple[int, int], float] = {}
        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for u, v, w in zip(self.edge_u, self.edge_v, self.edge_len):
            u, v, w = int(u), int(v), float(w)
            lookup[(u, v)] = w
            lookup[(v, u)] = w
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        object.__setattr__(self, "_length_lookup", lookup)
        object.__setattr__(self, "_adjacency", adjacency)
        for arr in (self.coords, self.edge_u, self.edge_v, self.edge_len):
            arr.flags.writeable = False

    def adjacency_matrix(self) -> csr_matrix:
        """(N, N) sparse matrix holding each edge length in both directions."""
        n = self.n_nodes
        tail = np.concatenate([self.edge_u, self.edge_v])
        head = np.concatenate([self.edge_v, self.edge_u])
        weight = np.concatenate([self.edge_len, self.edge_len])
        return csr_matrix((weight, (tail, head)), shape=(n, n))

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the node coordinates."""
        xmin, ymin = self.coords.min(axis=0)
        xmax, ymax = self.coords.max(axis=0)
        return float(xmin), float(ymin), float(xmax), float(ymax)


@dataclass(frozen=True)
class DistanceOracle:
    """Dense all-pairs shortest distances plus first-hop routing table.

    dist[i, j] is the shortest-path length in meters; next_hop[i, j] is the
    first node after i on a shortest path toward j (next_hop[i, i] == i).
    Among equally short paths the next hop is the smallest-id neighbour v of
    i with w(i, v) + dist[j, v] == dist[j, i].
    """

    dist: np.ndarray
    next_hop: np.ndarray

    def __post_init__(self):
        self.dist.flags.writeable = False
        self.next_hop.flags.writeable = False

    def path(self, a: int, b: int) -> list[int]:
        """Node sequence from a to b inclusive, following next hops."""
        out = [a]
        cur = a
        while cur != b:
            cur = int(self.next_hop[cur, b])
            out.append(cur)
        return out


@dataclass(frozen=True)
class GraphCell:
    """Range-limited graph Voronoi cell: member nodes of one generator."""

    generator: int
    members: np.ndarray  # sorted node ids

    def __len__(self) -> int:
        return len(self.members)


def build_graph(nodes, edges) -> RoadGraph:
    """Validate and build an undirected road graph.

    nodes: iterable of (id, x_m, y_m) with ids exactly 0..N-1 in any order.
    edges: iterable of (u, v, length_m).

    Raises DuplicateEdgeError, NonPositiveLengthError, DisconnectedGraphError,
    or ValueError for malformed ids.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValueError("graph needs at least one node")
    n = len(nodes)
    coords = np.full((n, 2), np.nan)
    seen_ids = set()
    for nid, x, y in nodes:
        nid = int(nid)
        if nid in seen_ids:
            raise ValueError(f"duplicate node id {nid}")
        if not 0 <= nid < n:
            raise ValueError(f"node ids must be dense 0..{n - 1}, got {nid}")
        seen_ids.add(nid)
        coords[nid] = (float(x), float(y))

    eu, ev, el = [], [], []
    seen_edges = set()
    for u, v, length in edges:
        u, v, length = int(u), int(v), float(length)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise DuplicateEdgeError(f"self-loop at node {u}")
        if length <= 0:
            raise NonPositiveLengthError(f"edge ({u}, {v}) has length {length}")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            raise DuplicateEdgeError(f"edge ({u}, {v}) appears twice")
        seen_edges.add(key)
        eu.append(u)
        ev.append(v)
        el.append(length)

    graph = RoadGraph(
        coords=coords,
        edge_u=np.asarray(eu, dtype=np.int64),
        edge_v=np.asarray(ev, dtype=np.int64),
        edge_len=np.asarray(el, dtype=np.float64),
    )

    _, labels = connected_components(graph.adjacency_matrix(), directed=False)
    unreached = np.flatnonzero(labels != labels[0])
    if unreached.size:
        raise DisconnectedGraphError(f"node {unreached[0]} unreachable from node 0")
    return graph


def grid_graph(k: int, spacing_m: float) -> RoadGraph:
    """k-by-k lattice with uniform edge length; node id = row * k + col."""
    if k < 2:
        raise ValueError("grid needs k >= 2")
    nodes = [(r * k + c, c * spacing_m, r * spacing_m) for r in range(k) for c in range(k)]
    edges = []
    for r in range(k):
        for c in range(k):
            nid = r * k + c
            if c + 1 < k:
                edges.append((nid, nid + 1, spacing_m))
            if r + 1 < k:
                edges.append((nid, nid + k, spacing_m))
    return build_graph(nodes, edges)


def graph_to_json(graph: RoadGraph) -> dict:
    return {
        "nodes": [[i, float(x), float(y)] for i, (x, y) in enumerate(graph.coords)],
        "edges": [
            [int(u), int(v), float(w)]
            for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_len)
        ],
    }


def graph_from_json(doc) -> RoadGraph:
    """Load a graph from a parsed JSON document or a file path."""
    if isinstance(doc, (str, bytes)):
        with open(doc) as fh:
            doc = json.load(fh)
    return build_graph(doc["nodes"], doc["edges"])


def all_pairs_shortest(graph: RoadGraph) -> DistanceOracle:
    """Dense all-pairs shortest paths (Dijkstra from every node) with next hops.

    next_hop[i, j] is the smallest-id neighbour v of i with
    w(i, v) + dist[j, v] == dist[j, i], and next_hop[i, i] == i. Both sides
    come from the single-source run at j, so Dijkstra's own predecessor of i
    always qualifies and the rule never comes up empty.
    """
    n = graph.n_nodes
    adj = graph.adjacency_matrix()
    dist = shortest_path(adj, method="D", directed=True)
    to_target = np.ascontiguousarray(dist.T)  # to_target[v, j] == dist[j, v]
    nxt = np.full((n, n), -1, dtype=np.int32)
    tail = np.repeat(np.arange(n), np.diff(adj.indptr))
    # Largest head first, so the smallest qualifying head is written last.
    for k in np.argsort(adj.indices, kind="stable")[::-1]:
        u, v = tail[k], adj.indices[k]
        nxt[u, to_target[v] + adj.data[k] == to_target[u]] = v
    np.fill_diagonal(nxt, np.arange(n))
    return DistanceOracle(dist=dist, next_hop=nxt)


def _owners(oracle: DistanceOracle, generators) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted generators, each node's owner index into them, and its owner distance.

    Distance ties go to the smaller generator id: argmin over the rows of the
    sorted generator list returns the first occurrence.
    """
    gens = np.asarray(sorted(int(g) for g in generators), dtype=np.int64)
    if gens.size == 0:
        raise EmptyGeneratorSetError("no generators")
    if len(set(gens.tolist())) != len(gens):
        raise ValueError("generators must be distinct")
    rows = oracle.dist[gens]
    owner = np.argmin(rows, axis=0)
    return gens, owner, rows[owner, np.arange(rows.shape[1])]


def graph_voronoi(oracle: DistanceOracle, generators) -> np.ndarray:
    """Assign every node to its shortest-path-nearest generator.

    Returns an array of length N whose entries are generator node ids.
    Distance ties go to the smaller generator id.
    """
    gens, owner, _ = _owners(oracle, generators)
    return gens[owner]


@dataclass(frozen=True)
class GraphCells:
    """Every generator's graph Voronoi cell, from one pass over ``dist[generators]``.

    generators : sorted distinct generator node ids
    owner_dist : (N,) graph distance from each node to its generator
    in_range : (N,) whether that distance is within the coverage radius
    owned : per generator, the node ids of its full Voronoi cell, ascending
    """

    generators: np.ndarray
    owner_dist: np.ndarray
    in_range: np.ndarray
    owned: list[np.ndarray]

    def limited(self, k: int) -> GraphCell:
        """Range-limited cell of the k-th generator, as r_limited_graph_cell returns it."""
        owned = self.owned[k]
        return GraphCell(generator=int(self.generators[k]), members=owned[self.in_range[owned]])


def graph_cells(oracle: DistanceOracle, generators, r_graph_m: float) -> GraphCells:
    """All graph Voronoi cells and their range-limited parts in one pass.

    One stable sort by owner splits the nodes into cells, so every member
    array comes out ascending; ties go to the smaller generator id as in
    :func:`graph_voronoi`.
    """
    gens, owner, owner_dist = _owners(oracle, generators)
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(len(gens) + 1))
    owned = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return GraphCells(generators=gens, owner_dist=owner_dist,
                      in_range=owner_dist <= r_graph_m, owned=owned)


def r_limited_graph_cell(
    assignment: np.ndarray, oracle: DistanceOracle, generator: int, r_graph_m: float
) -> GraphCell:
    """Members of a generator's Voronoi cell within graph distance r_graph_m."""
    generator = int(generator)
    owned = assignment == generator
    if not owned.any():
        raise ValueError(f"node {generator} is not a generator of this assignment")
    near = oracle.dist[generator] <= r_graph_m
    members = np.flatnonzero(owned & near)
    return GraphCell(generator=generator, members=members)


def graph_centroid(cell: GraphCell, mass: np.ndarray, oracle: DistanceOracle) -> int:
    """Mass-weighted graph centroid of a cell.

    Returns the member node minimizing the mass-weighted sum of squared
    shortest-path distances to all members; ties go to the smallest node id.
    """
    members = np.asarray(cell.members)
    if len(members) == 0:
        raise EmptyCellError("cell has no member nodes")
    d = oracle.dist[members[:, None], members]
    cost = (d * d) @ np.asarray(mass)[members]
    return int(members[int(np.argmin(cost))])


def nearest_nodes(graph: RoadGraph, points) -> np.ndarray:
    """Euclidean-nearest node to each row of ``points``; ties to the smallest id.

    The squared distances are compared exactly as dx*dx + dy*dy.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dx = pts[:, 0, None] - graph.coords[None, :, 0]
    dy = pts[:, 1, None] - graph.coords[None, :, 1]
    return np.argmin(dx * dx + dy * dy, axis=1)


def nearest_node(graph: RoadGraph, point) -> int:
    """Euclidean-nearest node to a planar point; ties to the smallest id."""
    return int(nearest_nodes(graph, point)[0])


def position_leads(graph: RoadGraph, positions) -> tuple[np.ndarray, np.ndarray]:
    """Forward node and distance still to drive to it, for each vehicle position.

    A node position leads to itself with 0.0 to go; a mid-edge position
    ``(u, v, offset)`` leads to v with ``length - offset`` to go: a mid-edge
    vehicle never turns back, just as the routes the simulator plans never do.
    """
    fwd = np.empty(len(positions), dtype=np.int64)
    lead = np.zeros(len(positions))
    for i, pos in enumerate(positions):
        if isinstance(pos, (int, np.integer)):
            fwd[i] = pos
        else:
            u, v, offset = pos
            fwd[i] = v
            lead[i] = graph.edge_length(u, v) - offset
    return fwd, lead


def position_node_distance(graph: RoadGraph, oracle: DistanceOracle, pos, node: int) -> float:
    """Shortest-path distance from a vehicle position to a node.

    The one-position view of :func:`position_leads`: drive on to the forward
    node, then take the shortest path.
    """
    fwd, lead = position_leads(graph, [pos])
    return float(lead[0] + oracle.dist[fwd[0], node])
