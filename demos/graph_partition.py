"""Shortest-path Voronoi partitions and centroids on a road grid.

Three vehicles sit on a 12x12 street grid with 250 m blocks. Nodes are
assigned to the vehicle with the shortest road distance, each cell is cut
at a graph radius, and the cell centroid (the node minimizing the
mass-weighted squared road distance to the rest of the cell) is the node
the vehicle would be sent to. As in the cvr_graph controller, one pass
finds every cell and one more every centroid.
"""

import numpy as np

from cvrsim.roadnet import all_pairs_shortest, graph_cells, graph_centroids, grid_graph

graph = grid_graph(12, 250.0)
oracle = all_pairs_shortest(graph)
print(f"network: {graph.n_nodes} intersections, {graph.n_edges} road links")

rng = np.random.default_rng(3)
demand = rng.random(graph.n_nodes) ** 3  # a few strong nodes
demand /= demand.sum()

vehicles = [14, 70, 128]
radius = np.sqrt(2.0) * 1000.0
cells = graph_cells(oracle, vehicles, radius)
centroids = graph_centroids(oracle, cells.near, cells.near_bounds, demand)
share = np.bincount(cells.owner, minlength=len(vehicles)).tolist()
within = np.diff(cells.near_bounds)

for k, vehicle in enumerate(cells.generators.tolist()):
    centroid = int(centroids[k])
    print(
        f"vehicle at node {vehicle:3d}: owns {share[k]:3d} nodes, "
        f"{within[k]:3d} within {radius:.0f} m, centroid -> node {centroid:3d} "
        f"({oracle.dist[vehicle, centroid]:.0f} m away)"
    )

print(f"\npartition sizes {share} cover all {sum(share)} nodes exactly once")
