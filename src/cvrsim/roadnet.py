"""Road-network machinery.

Validated undirected graphs, dense all-pairs shortest paths with next-hop
routing (the last graph's oracle is kept and reused), shortest-path (graph)
Voronoi partitions, range-limited graph cells (all of them at once through
:func:`graph_cells`), and mass-weighted graph centroids (those of all cells at
once through :func:`graph_centroids`, whose costs are summed left to right
over each cell's members, so they do not depend on the BLAS build), and the
Euclidean node snap :func:`nearest_nodes`, through a bucket index that each
graph builds on its first snap.

A vehicle's position is its forward node plus the lead, the distance still to
drive to that node: 0.0 at a node, and the rest of the edge when mid-edge.
:func:`position_node_distance` drives on to the forward node, never turning
back, then takes the shortest path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

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

    def __post_init__(self):
        lookup: dict[tuple[int, int], float] = {}
        for u, v, w in zip(self.edge_u, self.edge_v, self.edge_len):
            u, v, w = int(u), int(v), float(w)
            lookup[(u, v)] = w
            lookup[(v, u)] = w
        object.__setattr__(self, "_length_lookup", lookup)
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

    @cached_property
    def _snap_index(self) -> SnapIndex:
        """The bucket index :func:`nearest_nodes` reads, built on the first snap."""
        return _build_snap_index(self.coords)


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


def _whole(value, what: str, *args) -> int:
    """A whole number as an int; a bool, a fraction or a string is rejected, not truncated.

    The error names the value ``what.format(*args)``, formatted only on error.
    """
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            or (isinstance(value, (float, np.floating)) and value.is_integer())):
        raise ValueError(f"{what.format(*args)} must be a whole number, got {value!r}")
    return int(value)


def _real(value, what: str, *args) -> float:
    """A number as a float; a bool or a string is rejected, not converted.

    The error names the value ``what.format(*args)``, formatted only on error.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what.format(*args)} must be a number, got {value!r}")
    return float(value)


def build_graph(nodes, edges) -> RoadGraph:
    """Validate and build an undirected road graph.

    nodes: iterable of (id, x_m, y_m) with ids exactly 0..N-1 in any order.
    edges: iterable of (u, v, length_m).

    Raises DuplicateEdgeError, NonPositiveLengthError, DisconnectedGraphError,
    or ValueError for malformed ids, for ids or endpoints that are not whole
    numbers (a bool is not one), and for coordinates or lengths that are not
    finite numbers.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValueError("graph needs at least one node")
    n = len(nodes)
    coords = np.full((n, 2), np.nan)
    seen_ids = set()
    # An int id and float coordinates and lengths are taken as they are; the
    # helpers check any other value. The common case then costs no call.
    for nid, x, y in nodes:
        nid = nid if type(nid) is int else _whole(nid, "node id")
        if nid in seen_ids:
            raise ValueError(f"duplicate node id {nid}")
        if not 0 <= nid < n:
            raise ValueError(f"node ids must be dense 0..{n - 1}, got {nid}")
        seen_ids.add(nid)
        x = x if type(x) is float else _real(x, "node {} x", nid)
        y = y if type(y) is float else _real(y, "node {} y", nid)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"node {nid} has non-finite coordinates ({x}, {y})")
        coords[nid] = (x, y)

    eu, ev, el = [], [], []
    seen_edges = set()
    for u, v, length in edges:
        u = u if type(u) is int else _whole(u, "edge endpoint")
        v = v if type(v) is int else _whole(v, "edge endpoint")
        length = length if type(length) is float else _real(length, "edge ({}, {}) length", u, v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise DuplicateEdgeError(f"self-loop at node {u}")
        if not math.isfinite(length):
            raise ValueError(f"edge ({u}, {v}) has non-finite length {length}")
        if length <= 0:
            raise NonPositiveLengthError(f"edge ({u}, {v}) has length {length}")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            raise DuplicateEdgeError(f"edge ({u}, {v}) appears twice")
        seen_edges.add(key)
        eu.append(u)
        ev.append(v)
        el.append(length)
    if not math.isfinite(sum(el)):  # bounds every path sum, so no distance overflows
        raise ValueError(f"edge lengths add up to a non-finite total {sum(el)}")

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


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its pairs; a key given twice raises ValueError, never overwrites."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def load_json(path: str):
    """The JSON document in the file at ``path``, whose objects repeat no key."""
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def graph_from_json(path: str) -> RoadGraph:
    """Load a graph from the JSON file at ``path``."""
    doc = load_json(path)
    return build_graph(doc["nodes"], doc["edges"])


# (key, oracle) of the last graph all_pairs_shortest built; see its docstring.
_last_oracle: tuple[tuple, DistanceOracle] | None = None


def all_pairs_shortest(graph: RoadGraph) -> DistanceOracle:
    """Dense all-pairs shortest paths with next hops, built once per graph.

    Returns the oracle built last when ``graph`` has the same node count and
    byte-identical ``edge_u``, ``edge_v`` and ``edge_len`` arrays as the graph
    it was built for, and otherwise builds a new one and keeps that instead.
    Node coordinates are not part of the key: the oracle does not depend on
    them. The oracle's arrays are read-only, so callers can share it. The
    last oracle stays referenced until a different graph is built: 12 bytes
    per node pair, so 1.9 MB on the 400-node desk grid, 9.7 MB on the
    900-node city grid and 288 MB at 4900 nodes.
    """
    global _last_oracle
    key = (graph.n_nodes,) + tuple(
        (a.dtype.str, a.tobytes()) for a in (graph.edge_u, graph.edge_v, graph.edge_len))
    last = _last_oracle
    if last is not None and last[0] == key:
        return last[1]
    oracle = _build_oracle(graph)
    _last_oracle = (key, oracle)
    return oracle


def _build_oracle(graph: RoadGraph) -> DistanceOracle:
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
    given = np.asarray(generators, dtype=np.int64)
    gens = np.unique(given)
    if gens.size == 0:
        raise EmptyGeneratorSetError("no generators")
    if gens.size != given.size:
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
    owner : (N,) each node's index into ``generators``; the k-th full cell is
        the nodes with ``owner == k``
    owner_dist : (N,) graph distance from each node to its generator
    in_range : (N,) whether that distance is within the coverage radius
    near, near_bounds : the k-th range-limited cell is ``near[near_bounds[k]:near_bounds[k + 1]]``,
        its nodes in ascending order
    """

    generators: np.ndarray
    owner: np.ndarray
    owner_dist: np.ndarray
    in_range: np.ndarray
    near: np.ndarray
    near_bounds: np.ndarray


def graph_cells(oracle: DistanceOracle, generators, r_graph_m: float) -> GraphCells:
    """All graph Voronoi cells and their range-limited parts in one pass.

    Each node's owner is its nearest generator, ties to the smaller generator
    id as in :func:`graph_voronoi`. One stable sort of the in-range nodes by
    owner splits them into the range-limited cells, so every member array
    comes out ascending.
    """
    gens, owner, owner_dist = _owners(oracle, generators)
    in_range = owner_dist <= r_graph_m
    near = np.flatnonzero(in_range)
    near = near[np.argsort(owner[near], kind="stable")]
    return GraphCells(generators=gens, owner=owner, owner_dist=owner_dist, in_range=in_range,
                      near=near,
                      near_bounds=np.searchsorted(owner[near], np.arange(len(gens) + 1)))


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


def graph_centroids(oracle: DistanceOracle, members, bounds, mass) -> np.ndarray:
    """Mass-weighted graph centroid of every cell ``members[bounds[k]:bounds[k + 1]]``.

    A cell's centroid is the member q minimizing sum_p dist[q, p]**2 * mass[p]
    over its members p; ties go to the smallest node id, and an empty cell
    gives -1. Each cost is summed left to right over the members in the order
    given, so it does not depend on the BLAS build.

    All cells share one pass: rank r of the (max cell size, members) index
    matrix pairs each candidate with the r-th member of its cell, or with
    itself past the cell's end, where d = 0 adds exactly +0.0.
    """
    members = np.asarray(members, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    mass = np.asarray(mass, dtype=np.float64)
    sizes = np.diff(bounds)
    out = np.full(len(sizes), -1, dtype=np.int64)
    if members.size == 0:
        return out
    cell = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(sizes.max())[:, None]
    partner = members[np.where(rank < sizes[cell], bounds[cell] + rank, np.arange(members.size))]
    d = oracle.dist.take(members * oracle.dist.shape[1] + partner)
    w = d * d * mass[partner]
    cost = w[0].copy()
    for row in w[1:]:
        cost += row
    full = sizes > 0
    starts = bounds[:-1][full]
    best = np.repeat(np.minimum.reduceat(cost, starts), sizes[full])
    out[full] = np.minimum.reduceat(np.where(cost == best, members, np.iinfo(np.int64).max),
                                    starts)
    return out


def graph_centroid(cell: GraphCell, mass: np.ndarray, oracle: DistanceOracle) -> int:
    """Mass-weighted graph centroid of one cell, as :func:`graph_centroids` finds it.

    Returns the member node minimizing the mass-weighted sum of squared
    shortest-path distances to all members; ties go to the smallest node id.
    """
    members = np.asarray(cell.members)
    if len(members) == 0:
        raise EmptyCellError("cell has no member nodes")
    return int(graph_centroids(oracle, members, [0, len(members)], mass)[0])


def _box_distances(lo, hi, g):
    """Squared distances from each coordinate in g to the nearest point and
    to the farthest end of each interval [lo, hi], as (intervals, len(g))."""
    below, above = lo - g, g - hi
    near = np.maximum(np.maximum(below, above), 0.0)
    far = np.minimum(below, above)
    return near * near, far * far


@dataclass(frozen=True)
class SnapIndex:
    """A k x k grid of buckets over the node box, each with its candidate nearest nodes.

    edges_x, edges_y : (k + 1,) ascending bucket edges; bucket (i, j) is the
        box [edges_x[j], edges_x[j + 1]] x [edges_y[i], edges_y[i + 1]]
    candidates : (k * k, width) row i * k + j lists the nodes that can be
        nearest to some point of bucket (i, j), ascending and padded with
        repeats of the last; of nodes at one position only the smallest id
    cand_x, cand_y : the coordinates of ``candidates``
    """

    edges_x: np.ndarray
    edges_y: np.ndarray
    candidates: np.ndarray
    cand_x: np.ndarray
    cand_y: np.ndarray


def _bucket_edges(c: np.ndarray, k: int) -> np.ndarray:
    """k + 1 ascending edges from c.min() to c.max(), formed without the span,
    which can overflow."""
    lo, hi = c.min(), c.max()
    t = np.arange(k + 1) / k
    return np.maximum.accumulate(np.clip(lo * (1.0 - t) + hi * t, lo, hi))


def _build_snap_index(coords: np.ndarray) -> SnapIndex:
    """The bucket index of ``coords``, one bucket row at a time.

    A node at the position of a smaller id never wins a snap, so only the
    smallest id at each position is indexed. A bucket keeps the nodes whose
    squared distance to its box is at most (1 + 1e-9) times the smallest
    squared distance at which some node reaches the box's far corner; the
    argument of ``plane._nearest_generator`` shows every node that ties for
    the nearest to a point of the box survives. Coordinates near the float
    limits overflow these distances to inf (numpy warns), which only keeps
    more candidates.
    """
    _, first = np.unique(coords, axis=0, return_index=True)
    nodes = np.sort(first)
    cx, cy = coords[nodes, 0], coords[nodes, 1]
    k = math.isqrt(len(nodes) - 1) + 1  # ceil(sqrt(len(nodes)))
    edges_x, edges_y = _bucket_edges(cx, k), _bucket_edges(cy, k)
    near_x, far_x = _box_distances(edges_x[:-1, None], edges_x[1:, None], cx)
    near_y, far_y = _box_distances(edges_y[:-1, None], edges_y[1:, None], cy)
    counts, members = [], []
    for ny, fy in zip(near_y, far_y):
        keep = near_x + ny <= (far_x + fy).min(axis=1, keepdims=True) * (1.0 + 1e-9)
        counts.append(keep.sum(axis=1))
        members.append(np.flatnonzero(keep) % len(nodes))  # by bucket, ascending
    counts, members = np.concatenate(counts), np.concatenate(members)
    starts = np.cumsum(counts) - counts
    slot = members[starts[:, None] + np.minimum(np.arange(counts.max()), counts[:, None] - 1)]
    return SnapIndex(edges_x=edges_x, edges_y=edges_y, candidates=nodes[slot],
                     cand_x=cx[slot], cand_y=cy[slot])


def _closest(pts: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Per row of ``pts``, the first column minimizing dx*dx + dy*dy to (xs, ys).

    ``xs`` and ``ys`` hold one row per point, or one row all points share.
    """
    dx = pts[:, 0, None] - xs
    dy = pts[:, 1, None] - ys
    return np.argmin(dx * dx + dy * dy, axis=1)


def nearest_nodes(graph: RoadGraph, points) -> np.ndarray:
    """Euclidean-nearest node to each row of ``points``; ties to the smallest id.

    The squared distances are compared exactly as dx*dx + dy*dy, over the
    candidates of the bucket of the graph's :class:`SnapIndex` that holds the
    point; a point outside the node box compares every node. A
    squared distance beyond the float range is inf, and numpy warns of the
    overflow. Raises ValueError for a non-finite point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    index = graph._snap_index
    x, y = pts[:, 0], pts[:, 1]
    ex, ey = index.edges_x, index.edges_y
    # The inner edges place every point in a bucket, one outside the box in the closest.
    bucket = (np.searchsorted(ey[1:-1], y, side="right") * (len(ex) - 1)
              + np.searchsorted(ex[1:-1], x, side="right"))
    snapped = index.candidates[bucket, _closest(pts, index.cand_x[bucket], index.cand_y[bucket])]
    outside = (x < ex[0]) | (x > ex[-1]) | (y < ey[0]) | (y > ey[-1])
    if outside.any():
        snapped[outside] = _closest(pts[outside], graph.coords[:, 0], graph.coords[:, 1])
    return snapped


def position_node_distance(oracle: DistanceOracle, fwd, lead, node):
    """Shortest-path distance to ``node`` from ``lead`` meters short of node ``fwd``.

    The arguments broadcast: arrays of forward nodes and leads give one
    distance per vehicle.
    """
    return lead + oracle.dist[fwd, node]
