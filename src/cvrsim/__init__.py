"""Coverage-control idle-vehicle rebalancing and a deterministic AMoD simulator.

The library splits into planar coverage geometry (:mod:`cvrsim.plane`), road
graph machinery (:mod:`cvrsim.roadnet`), demand synthesis (:mod:`cvrsim.demand`),
the rebalancing controllers (:mod:`cvrsim.rebalance`), the simulation engine
(:mod:`cvrsim.sim`), and scenario/CLI plumbing (:mod:`cvrsim.scenario`,
:mod:`cvrsim.cli`). The package re-exports nothing: import each name from its
module, e.g. ``from cvrsim.sim import run_scenario``.
"""

__version__ = "0.1.0"
