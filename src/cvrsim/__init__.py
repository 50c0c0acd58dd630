"""Coverage-control idle-vehicle rebalancing and a deterministic AMoD simulator.

The library splits into planar coverage geometry (:mod:`cvrsim.plane`), road
graph machinery (:mod:`cvrsim.roadnet`), demand synthesis (:mod:`cvrsim.demand`),
the rebalancing controllers (:mod:`cvrsim.rebalance`), the simulation engine
(:mod:`cvrsim.sim`), and scenario/CLI plumbing (:mod:`cvrsim.scenario`,
:mod:`cvrsim.cli`).
"""

from .demand import (
    Request,
    complement_mass,
    generate_requests,
    hellinger,
    mass_from_counts,
    synthesize_destination,
)
from .plane import (
    GridField,
    PlanarCell,
    coverage_objective,
    lloyd_step,
    mixture_density,
    plane_voronoi,
    polar_moment,
    r_limited_cell,
    rasterize_mixture,
    rasterize_node_mass,
    weighted_centroid,
)
from .rebalance import (
    PIState,
    RebalanceDecision,
    cvr_graph_targets,
    cvr_targets,
    do_nothing,
    lp_rebalance,
    pi_update,
)
from .roadnet import (
    DistanceOracle,
    RoadGraph,
    all_pairs_shortest,
    build_graph,
    graph_cells,
    graph_centroids,
    graph_from_json,
    graph_to_json,
    graph_voronoi,
    grid_graph,
    nearest_nodes,
)
from .scenario import build_config, desk_scenario, load_scenario
from .sim import (
    MFDParams,
    SimConfig,
    SimMetrics,
    World,
    estimate_pickup,
    match_tick,
    metrics_finalize,
    mfd_speed,
    run_scenario,
)

__version__ = "0.1.0"
