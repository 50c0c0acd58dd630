"""Independent reference implementations used only to check the library.

Everything here is deliberately written with different algorithms or naive
loops so the tests never share a code path with what they verify.
"""

import heapq
import itertools

import numpy as np


def dijkstra(graph, source):
    """Single-source shortest distances via a binary heap."""
    dist = np.full(graph.n_nodes, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(graph.n_nodes, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in graph.neighbors(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def brute_graph_centroid(members, mass, dist):
    """Exhaustive argmin of the mass-weighted squared-distance sum."""
    best_node, best_cost = None, None
    for q in sorted(int(m) for m in members):
        cost = 0.0
        for p in members:
            cost += dist[q, p] ** 2 * mass[p]
        if best_cost is None or cost < best_cost:
            best_node, best_cost = q, cost
    return best_node


def brute_nearest(points, generators):
    """Nearest generator of each point by plain loops; ties to the smallest index."""
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    out = np.empty(len(points), dtype=int)
    for i, (px, py) in enumerate(points):
        best, best_d = 0, None
        for gi, (gx, gy) in enumerate(gens):
            d = (px - gx) ** 2 + (py - gy) ** 2
            if best_d is None or d < best_d:
                best, best_d = gi, d
        out[i] = best
    return out


def brute_plane_assignment(field, generators):
    """Per-pixel nearest-generator scan with plain loops over generators."""
    return brute_nearest(field.centers, generators)


def brute_coverage_objective(field, generators, r_m):
    """Assign, filter by radius, and sum squared distances pixel by pixel."""
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    assignment = brute_plane_assignment(field, gens)
    total = 0.0
    for pix in range(field.n_pixels):
        gx, gy = gens[assignment[pix]]
        px, py = field.centers[pix]
        d2 = (px - gx) ** 2 + (py - gy) ** 2
        if d2 <= r_m * r_m:
            total += d2 * field.mass[pix]
    return total


def brute_min_assignment_cost(cost):
    """Minimum total cost over all maximal injective assignments."""
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    best = np.inf
    rows = range(n_rows)
    for chosen_rows in itertools.combinations(rows, k):
        for chosen_cols in itertools.permutations(range(n_cols), k):
            total = sum(cost[r, c] for r, c in zip(chosen_rows, chosen_cols))
            if total < best:
                best = total
    return best


def random_connected_graph(rng, n_nodes, extra_edges, max_len=20):
    """Random tree plus chords; integer edge lengths keep float sums exact."""
    nodes = [(i, float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
             for i in range(n_nodes)]
    edges = []
    seen = set()
    for v in range(1, n_nodes):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.integers(1, max_len + 1))))
        seen.add((min(u, v), max(u, v)))
    added = 0
    while added < extra_edges:
        u = int(rng.integers(0, n_nodes))
        v = int(rng.integers(0, n_nodes))
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append((u, v, float(rng.integers(1, max_len + 1))))
        added += 1
    return nodes, edges
