"""Scenario documents for each benchmark workload, built from a seed.

Every workload is a list of ``(label, document)`` pairs. A document is the
same JSON-shaped dict that ``cvrsim run`` reads from a scenario file; its
``sim.seed`` is the workload seed, or is derived from it.
"""

from __future__ import annotations

from cvrsim import scenario

# One desk scenario per controller: the traffic the tests, demos and sweeps run.
DESK_CONTROLLERS = (
    ("do_nothing", {}),
    ("lp", {}),
    ("cvr_graph", {}),
    ("cvr", {}),
    ("cvr_alpha", {"alpha": 0.3}),
    ("cvr_pi", {}),
)

# The city keeps the desk's shape at about twice its span and ten times its
# fleet. The 30x30 lattice keeps Floyd-Warshall near 2 s, so set-up can be
# repeated within a run; a 40x40 lattice costs about 20 s per build. The
# span, and so the 50 m raster (195 x 195 = 38 025 pixels), is that of a
# 40x40 lattice at 250 m.
CITY_K = 30
CITY_SPAN_M = 9750.0
CITY_N_AV = 300
CITY_HOUR = [[1800.0, 800.0], [1800.0, 1200.0]]  # [duration_s, requests/hour]
CITY_RESOLUTION_M = 50.0
# Same total accumulation as the desk (3200 background + 30 AVs), so the
# network runs at the desk's speed.
CITY_BASELINE_ACCUMULATION = scenario.DESK_BASELINE_ACCUMULATION + 30 - CITY_N_AV


def _scaled_mixture(mixture: list, scale: float) -> list:
    return [
        {
            "weight": comp["weight"],
            "mean": [scale * x for x in comp["mean"]],
            "cov": [[scale * scale * c for c in row] for row in comp["cov"]],
        }
        for comp in mixture
    ]


def desk(seed: int) -> list[tuple[str, dict]]:
    # Each controller gets its own demand draw, so the workload's simulated
    # totals average six independent realisations; seeds never overlap
    # between workload seeds.
    n = len(DESK_CONTROLLERS)
    return [
        (f"desk/{name}",
         scenario.desk_document(name, seed=n * seed + i, controller_extra=extra))
        for i, (name, extra) in enumerate(DESK_CONTROLLERS)
    ]


def city_document(controller: str, seed: int, hours: int) -> dict:
    """The city under ``controller``, its one-hour demand profile repeated ``hours`` times."""
    scale = CITY_SPAN_M / scenario.DESK_SPAN_M
    return {
        "graph": {"grid": {"k": CITY_K, "spacing_m": CITY_SPAN_M / (CITY_K - 1)}},
        "demand": {
            "origin": {"mixture": _scaled_mixture(scenario.DESK_ORIGIN_MIXTURE, scale)},
            "destination": {"mixture": _scaled_mixture(scenario.DESK_DEST_MIXTURE, scale)},
            "gamma": 0.5,
            "profile": CITY_HOUR * hours,
        },
        "fleet": {"n_av": CITY_N_AV, "placement": "uniform"},
        "controller": {"name": controller, "r_m": 1000.0},
        "sim": {
            "horizon_s": 3600.0 * hours,
            "control_period_s": 10.0,
            "baseline_accumulation": CITY_BASELINE_ACCUMULATION,
            "resolution_m": CITY_RESOLUTION_M,
            "seed": seed,
        },
    }


# city-graph runs two hours: one hour takes about 3 s, too short to measure
# steadily on a shared machine. One hour of city-planar takes about 17 s.
WORKLOADS = {
    "desk": desk,
    "city-graph": lambda seed: [("city-graph/cvr_graph", city_document("cvr_graph", seed, 2))],
    "city-planar": lambda seed: [("city-planar/cvr", city_document("cvr", seed, 1))],
}
