"""Road-network machinery.

Validated undirected graphs: :func:`build_graph` checks each node and edge
entry of a graph file, reading its numbers with :func:`_whole` and
:func:`_real` (which :mod:`cvrsim.scenario` shares), and :func:`grid_graph`
checks only its two arguments before generating a lattice. Dense all-pairs
shortest paths with next-hop routing (the last graph's oracle is kept and
reused), shortest-path (graph) Voronoi partitions, range-limited graph cells
(all of them at once through :func:`graph_cells`), and mass-weighted graph
centroids (those of all cells at once through :func:`graph_centroids`, whose
costs are summed left to right over each cell's members, so they do not
depend on the BLAS build), and the Euclidean node snap :func:`nearest_nodes`,
through a bucket index that each graph builds on its first snap.

A vehicle's position is its forward node plus the lead, the distance still to
drive to that node: 0.0 at a node, and the rest of the edge when mid-edge.
:func:`position_node_distance` drives on to the forward node, never turning
back, then takes the shortest path.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

# The largest grid side k whose k * k nodes one numpy array can index.
MAX_GRID_K = math.isqrt(np.iinfo(np.intp).max)


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

    def __post_init__(self):
        for arr in (self.coords, self.edge_u, self.edge_v, self.edge_len):
            arr.flags.writeable = False

    @cached_property
    def adjacency(self) -> csr_matrix:
        """(N, N) sparse matrix of each edge length in both directions, built once."""
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

    A hop (i, v) is then a shortest i-v path, so ``dist[i, v]``, where the
    simulator reads it, is its edge's length: exactly on a uniform lattice,
    elsewhere up to the rounding of two i-v paths that tie in length.
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


def _whole(value) -> int:
    """A whole number as an int; a bool, a fraction or a string is rejected, not truncated.

    The ValueError gives the reason alone, e.g. "must be a whole number, got 2.5".
    """
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            or (isinstance(value, (float, np.floating)) and value.is_integer())):
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A number as a float; a bool or a string is rejected, not converted.

    An int beyond the float range becomes an infinity. The ValueError gives
    the reason alone, e.g. "must be a number, got 'x'".
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _named(read, value, what: str, *args):
    """``read(value)``, its error prefixed by the value's name ``what.format(*args)``."""
    try:
        return read(value)
    except ValueError as exc:
        raise ValueError(f"{what.format(*args)} {exc}") from None


def _connected_graph(coords: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> RoadGraph:
    """The graph of checked nodes and edges, once its length total is finite and it is connected."""
    total = sum(w.tolist())
    if not math.isfinite(total):  # bounds every path sum, so no distance overflows
        raise ValueError(f"edge lengths add up to a non-finite total {total}")
    graph = RoadGraph(coords=coords, edge_u=u, edge_v=v, edge_len=w)
    _, labels = connected_components(graph.adjacency, directed=False)
    unreached = np.flatnonzero(labels != labels[0])
    if unreached.size:
        raise ValueError(f"node {unreached[0]} unreachable from node 0")
    return graph


def build_graph(nodes, edges) -> RoadGraph:
    """Validate and build an undirected road graph.

    nodes: iterable of (id, x_m, y_m) with ids exactly 0..N-1 in any order.
    edges: iterable of (u, v, length_m).
    Each entry is a list or tuple of three values.

    Raises ValueError for an entry of another shape, for malformed ids, for
    ids or endpoints that are not whole numbers (a bool is not one), for
    coordinates or lengths that are not finite numbers, for a self-loop, a
    repeated edge or a length <= 0, and for a graph that is not connected.
    The error names the first bad entry.
    """
    nodes = list(nodes)
    if not nodes:
        raise ValueError("graph needs at least one node")
    n = len(nodes)
    coords = np.full((n, 2), np.nan)
    seen_ids = set()
    # An int id and float coordinates and lengths are taken as they are; the
    # helpers check any other value. The common case then costs no call.
    for i, entry in enumerate(nodes):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ValueError(f"node entry {i} must be [id, x_m, y_m], got {entry!r}")
        nid, x, y = entry
        nid = nid if type(nid) is int else _named(_whole, nid, "node id")
        if nid in seen_ids:
            raise ValueError(f"duplicate node id {nid}")
        if not 0 <= nid < n:
            raise ValueError(f"node ids must be dense 0..{n - 1}, got {nid}")
        seen_ids.add(nid)
        x = x if type(x) is float else _named(_real, x, "node {} x", nid)
        y = y if type(y) is float else _named(_real, y, "node {} y", nid)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"node {nid} has non-finite coordinates ({x}, {y})")
        coords[nid] = (x, y)

    eu, ev, el = [], [], []
    seen_edges = set()
    for i, entry in enumerate(edges):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ValueError(f"edge entry {i} must be [u, v, length_m], got {entry!r}")
        u, v, length = entry
        u = u if type(u) is int else _named(_whole, u, "edge endpoint")
        v = v if type(v) is int else _named(_whole, v, "edge endpoint")
        length = (length if type(length) is float
                  else _named(_real, length, "edge ({}, {}) length", u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not math.isfinite(length):
            raise ValueError(f"edge ({u}, {v}) has non-finite length {length}")
        if length <= 0:
            raise ValueError(f"edge ({u}, {v}) has length {length}")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            raise ValueError(f"edge ({u}, {v}) appears twice")
        seen_edges.add(key)
        eu.append(u)
        ev.append(v)
        el.append(length)
    return _connected_graph(coords, np.asarray(eu, dtype=np.int64),
                            np.asarray(ev, dtype=np.int64), np.asarray(el, dtype=np.float64))


def grid_graph(k: int, spacing_m: float) -> RoadGraph:
    """k-by-k lattice with uniform edge length; node id = row * k + col.

    Edges run row by row, each node's right edge before its up edge. Only the
    two arguments are checked, not the entries they generate: raises
    ValueError for k outside [2, MAX_GRID_K], for a spacing that is not
    positive and finite, for one whose farthest coordinate (k - 1) * spacing_m
    overflows, and for an edge total that overflows (checked as for
    :func:`build_graph`).
    """
    if not 2 <= k <= MAX_GRID_K:
        raise ValueError(f"grid needs 2 <= k <= {MAX_GRID_K}, got {k}")
    if not 0 < spacing_m < math.inf:
        raise ValueError(f"grid spacing must be positive and finite, got {spacing_m}")
    if not math.isfinite(_real(k - 1) * spacing_m):
        raise ValueError(f"grid spacing {spacing_m} puts the farthest node at a non-finite "
                         "coordinate")
    n = k * k
    nid = np.arange(n)
    steps = np.arange(k, dtype=np.float64) * spacing_m
    tail = np.repeat(nid, 2)
    head = np.stack([nid + 1, nid + k], axis=1).ravel()
    keep = np.stack([nid % k + 1 < k, nid + k < n], axis=1).ravel()
    u, v = tail[keep], head[keep]
    w = np.full(len(u), spacing_m, dtype=np.float64)
    return _connected_graph(np.stack([np.tile(steps, k), np.repeat(steps, k)], axis=1), u, v, w)


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
    adj = graph.adjacency
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
        raise ValueError("no generators")
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

    All cells share one pass over the sum of squared cell sizes (candidate,
    partner) pairs, laid out candidate by candidate with each candidate's
    partners in cell order; one ``bincount`` adds each candidate's terms in
    that order.
    """
    members = np.asarray(members, dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    mass = np.asarray(mass, dtype=np.float64)
    sizes = np.diff(bounds)
    out = np.full(len(sizes), -1, dtype=np.int64)
    if members.size == 0:
        return out
    cell = np.repeat(np.arange(len(sizes)), sizes)
    span = sizes[cell]  # each candidate's partner count
    candidate = np.repeat(np.arange(members.size), span)
    # a candidate's k-th pair takes the k-th member of its cell as the partner
    shift = np.repeat(bounds[cell] - (np.cumsum(span) - span), span)
    partner = members[shift + np.arange(candidate.size)]
    w = oracle.dist.take(np.repeat(members * oracle.dist.shape[1], span) + partner)
    w *= w
    w *= mass[partner]  # (d * d) * mass
    cost = np.bincount(candidate, weights=w, minlength=members.size)
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
        raise ValueError("cell has no member nodes")
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
