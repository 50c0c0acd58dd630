"""Pin the benchmark's city trajectories, so a refactor that moves one fails here.

The documents and the digest come from ``perfbench/workloads.py`` and
``perfbench/checks.py``, loaded by path; this file changes neither. Each run
goes through the calls ``cvrsim run`` makes: ``build_config``, ``World`` and
``run()``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cvrsim import rebalance
from cvrsim.scenario import build_config
from cvrsim.sim import World

from oracles import audit_accounting, audit_requests, brute_graph_centroid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (controller, hours) -> digest at workload seed 1
CITY_SHA256 = {
    ("cvr_graph", 2): "3418acca1558f22ea580b92d865efbbd8b96fdb19cf16d0ce709b77f2cd658a5",
    ("cvr", 1): "85fd751de1728c46421ddfee57bea3653dff3a2fac396a60ca9dafcae40874de",
}


@pytest.mark.parametrize("controller, hours", list(CITY_SHA256))
def test_city_trajectory_is_pinned(controller, hours):
    workloads = perfbench_module("workloads")
    checks = perfbench_module("checks")
    world = World(build_config(workloads.city_document(controller, 1, hours)))
    metrics = world.run()
    requests = world.requests[:world.n_injected]
    assert checks.check_world(world, metrics) == []
    assert checks.digest(metrics, world.series, requests) == CITY_SHA256[controller, hours]
    audit_requests(requests, metrics.to_dict())
    audit_accounting(requests, world.series, metrics.to_dict(), world.oracle.dist,
                     world.cfg.tick_s)


def test_city_graph_centroids_equal_brute_force(monkeypatch):
    # The city's 9750/29 m lattice has equal paths that round apart, and its
    # range-limited cells reach far more members than the property test draws.
    workloads = perfbench_module("workloads")
    world = World(build_config(workloads.city_document("cvr_graph", 1, 2)))
    ticks = []
    real = rebalance.graph_centroids

    def recording(oracle, members, bounds, mass):
        got = real(oracle, members, bounds, mass)
        ticks.append((np.array(members), np.array(bounds), np.array(mass), got))
        return got

    monkeypatch.setattr(rebalance, "graph_centroids", recording)
    world.run()
    assert len(ticks) == 720
    largest = 0
    for members, bounds, mass, got in ticks[::120]:
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            want = brute_graph_centroid(members[a:b], mass, world.oracle.dist)
            assert got[k] == (-1 if want is None else want)
            largest = max(largest, b - a)
    assert largest >= 25


@pytest.mark.parametrize("seed", [1, 7])
def test_coverage_controllers_beat_baselines_on_the_city(seed):
    """The paper's claim at city scale, on the one-hour city of the benchmark.

    Each coverage controller completes more requests, and keeps them waiting
    less on average, than holding every idle vehicle and than the reactive LP.
    The planar controller's gap to the graph one is printed, not bounded.
    """
    workloads = perfbench_module("workloads")
    runs = {name: World(build_config(workloads.city_document(name, seed, 1))).run()
            for name in ("do_nothing", "lp", "cvr_graph", "cvr")}
    completion = {name: m.completion_rate_pct for name, m in runs.items()}
    wait = {name: m.mean_wait_s for name, m in runs.items()}
    ok = all(completion[c] > completion[b] and wait[c] < wait[b]
             for c in ("cvr_graph", "cvr") for b in ("do_nothing", "lp"))
    detail = (f"seed {seed}: completion "
              + " ".join(f"{name}={value:.1f}" for name, value in completion.items())
              + "; wait " + " ".join(f"{name}={value:.0f}s" for name, value in wait.items())
              + f"; planar-graph gap {completion['cvr'] - completion['cvr_graph']:+.1f} points,"
              f" {wait['cvr'] - wait['cvr_graph']:+.0f} s")
    print(f"[city] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail
