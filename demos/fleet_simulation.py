"""Head-to-head fleet simulation: all rebalancing policies on one scenario.

Thirty taxis serve roughly 300 requests over three hours on a 20x20 street
grid whose pickups cluster in the north-east while drop-offs drift away
from it. The do-nothing baseline leaves idle taxis where they drop off;
the reactive assignment baseline chases pending requests; the coverage
controllers pull the idle fleet toward demand before requests appear, and
the PI adapter holds part of the fleet still whenever service is healthy.
"""

from cvrsim.scenario import desk_scenario
from cvrsim.sim import run_scenario

print(f"{'policy':<12} {'completion %':>12} {'wait s':>8} {'system s':>9} {'rebalance km':>13}")
for name in ("do_nothing", "lp", "cvr", "cvr_graph", "cvr_pi"):
    metrics, series, requests = run_scenario(desk_scenario(name, seed=1))
    print(f"{name:<12} {metrics.completion_rate_pct:>12.1f} "
          f"{metrics.mean_wait_s:>8.1f} {metrics.mean_system_time_s:>9.1f} "
          f"{metrics.rebalance_distance_km:>13.1f}")

print("\ncoverage control answers more requests with less waiting; the PI")
print("adapter keeps most of that while cutting empty rebalancing travel.")
