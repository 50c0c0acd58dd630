"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The desk-scale benchmark runs (criteria 7-10) are shared through a
session fixture so every controller/seed combination is simulated once.
"""

import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cvrsim.cli import _sweep_workers, main as cli_main
from cvrsim.demand import complement_mass, hellinger, synthesize_destination
from cvrsim.plane import (
    coverage_objective,
    coverage_summary,
    lloyd_step,
    plane_voronoi,
    rasterize_mixture,
)
from cvrsim.rebalance import lp_rebalance
from cvrsim.roadnet import all_pairs_shortest, build_graph, graph_cells, graph_centroids
from cvrsim.scenario import build_config, desk_document
from cvrsim.sim import mfd_speed, run_scenario

from oracles import (
    audit_accounting,
    audit_requests,
    brute_graph_centroid,
    brute_min_assignment_cost,
    polar_moment,
    r_limited_cell,
    random_connected_graph,
    weighted_centroid,
)

SEEDS = list(range(1, 11))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# Desk-scale benchmark fixture: every (controller, period, seed) run once.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def desk():
    def config(controller, seed, control_period_s=10.0, **overrides):
        return build_config(desk_document(controller, seed=seed,
                                          control_period_s=control_period_s,
                                          controller_extra=overrides or None))

    ordering = {(ctrl, 10.0, seed): config(ctrl, seed)
                for ctrl in ("cvr", "cvr_graph", "lp", "do_nothing") for seed in SEEDS}
    others = {("cvr_pi", 10.0, seed): config("cvr_pi", seed) for seed in SEEDS}
    for ctrl in ("cvr", "lp"):
        for period in (60.0, 300.0):
            for seed in SEEDS:
                others[(ctrl, period, seed)] = config(ctrl, seed, control_period_s=period)
    others[("cvr_alpha0", 10.0, 1)] = config("cvr_alpha", 1, alpha=0.0)
    others[("cvr_alpha1", 10.0, 1)] = config("cvr_alpha", 1, alpha=1.0)

    # The runs are independent: start workers the way `cvrsim sweep` does.
    with ProcessPoolExecutor(max_workers=_sweep_workers(),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        t0 = time.time()
        runs = dict(zip(ordering, pool.map(run_scenario, ordering.values())))
        ordering_elapsed = time.time() - t0
        runs.update(zip(others, pool.map(run_scenario, others.values())))
    for metrics, series, requests in runs.values():
        audit_requests(requests, metrics.to_dict())
    return {"runs": runs, "ordering_elapsed": ordering_elapsed}


def test_every_desk_run_accounts_for_its_vehicle_time_and_distance(desk):
    cfg = build_config(desk_document("cvr"))
    dist = all_pairs_shortest(cfg.graph).dist  # every desk run shares this graph
    for metrics, series, requests in desk["runs"].values():
        audit_accounting(requests, series, metrics.to_dict(), dist, cfg.tick_s)
    assert len(desk["runs"]) == 92


def mean_metric(desk_runs, ctrl, attr, period=10.0):
    return float(np.mean([getattr(desk_runs[(ctrl, period, s)][0], attr) for s in SEEDS]))


# ---------------------------------------------------------------------------
# 1. Parallel-axis identity
# ---------------------------------------------------------------------------

def test_criterion_1_parallel_axis_identity():
    start = time.time()
    rng = np.random.default_rng(100)
    checked = 0
    while checked < 200:
        n = int(rng.integers(15, 40))
        mean = rng.uniform(5, 25, size=2)
        sd2 = rng.uniform(4, 120)
        field = rasterize_mixture((0, 0, 30, 30), 30.0 / n,
                                  [(1.0, mean, [[sd2, 0], [0, sd2]])])
        gens = rng.uniform(0, 30, size=(int(rng.integers(1, 6)), 2))
        i = int(rng.integers(0, len(gens)))
        r = float(rng.uniform(4, 50))
        # The simulator's pass gives generator i's limited mass, centroid and
        # moment about i; the oracle gives the same cell's moment about its centroid.
        summary = coverage_summary(field, gens, r)
        mass = summary.limited_mass[i]
        if mass <= 0:
            continue
        centroid = summary.limited_centroid[i]
        j_g = summary.j_limited[i]
        j_c = polar_moment(r_limited_cell(summary.assignment, field, i, gens[i], r), field,
                           centroid)
        residual = abs(j_g - (j_c + mass * float(np.sum((gens[i] - centroid) ** 2))))
        assert residual <= 1e-9 * j_g
        checked += 1
    elapsed = time.time() - start
    report(1, elapsed < 5.0,
           f"parallel-axis identity holds on 200 triples in {elapsed:.2f}s (< 5 s)")


# ---------------------------------------------------------------------------
# 2. Static coverage descent
# ---------------------------------------------------------------------------

def test_criterion_2_static_coverage_descent():
    start = time.time()
    box = (0.0, 0.0, 60.0, 60.0)
    diagonal = math.hypot(60, 60)
    steps_needed = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mean = rng.uniform(15, 45, size=2)
        sd = float(rng.uniform(6, 18))
        field = rasterize_mixture(box, 1.0, [(1.0, mean, [[sd * sd, 0], [0, sd * sd]])])
        gens = rng.uniform(0, 60, size=(6, 2))
        h = coverage_objective(gens, field, diagonal)
        converged = None
        for step in range(500):
            gens = lloyd_step(gens, field, diagonal)
            h_next = coverage_objective(gens, field, diagonal)
            assert h_next <= h + 1e-9 * max(h, 1e-12), f"ascent at seed {seed} step {step}"
            h = h_next
            assignment = plane_voronoi(field, gens)
            close = True
            for i in range(6):
                cell = r_limited_cell(assignment, field, i, gens[i], diagonal)
                if field.mass[cell].sum() <= 0:
                    continue
                c = weighted_centroid(cell, field)
                if float(np.linalg.norm(gens[i] - c)) >= field.resolution:
                    close = False
                    break
            if close:
                converged = step + 1
                break
        assert converged is not None, f"seed {seed} did not converge in 500 steps"
        steps_needed.append(converged)
    elapsed = time.time() - start
    report(2, elapsed < 30.0,
           f"descent monotone and converged within {max(steps_needed)} steps "
           f"on 20 seeds in {elapsed:.2f}s (< 30 s)")


# ---------------------------------------------------------------------------
# 3. Graph centroid equals brute force
# ---------------------------------------------------------------------------

def test_criterion_3_graph_centroid_brute_force():
    start = time.time()
    rng = np.random.default_rng(300)
    cells_checked = 0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        nodes, edges = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, n)))
        graph = build_graph(nodes, edges)
        oracle = all_pairs_shortest(graph)
        mass = rng.random(n)
        mass /= mass.sum()
        n_gens = int(rng.integers(1, min(6, n) + 1))
        gens = sorted(rng.choice(n, size=n_gens, replace=False).tolist())
        radius = float(rng.uniform(5, 80))
        # every cell in one batched pass, as the cvr_graph controller runs it
        cells = graph_cells(oracle, gens, radius)
        centroids = graph_centroids(oracle, cells.near, cells.near_bounds, mass)
        for k, (a, b) in enumerate(zip(cells.near_bounds[:-1], cells.near_bounds[1:])):
            got = int(centroids[k])
            want = brute_graph_centroid(cells.near[a:b], mass, oracle.dist)
            assert got == want, f"centroid mismatch: {got} vs {want}"
            cells_checked += 1
    elapsed = time.time() - start
    report(3, elapsed < 60.0,
           f"graph centroid == brute force on 100 graphs "
           f"({cells_checked} cells) in {elapsed:.2f}s (< 60 s)")


# ---------------------------------------------------------------------------
# 4. LP optimality
# ---------------------------------------------------------------------------

def test_criterion_4_lp_matches_permutation_brute_force():
    rng = np.random.default_rng(400)
    graph = build_graph(*random_connected_graph(rng, 40, extra_edges=30))
    oracle = all_pairs_shortest(graph)
    for _ in range(200):
        n_idle = int(rng.integers(1, 7))
        n_pending = int(rng.integers(1, 7))
        idle_nodes = rng.integers(0, 40, size=n_idle).tolist()
        origins = rng.integers(0, 40, size=n_pending).tolist()
        speed = float(rng.uniform(2, 15))
        decision = lp_rebalance(idle_nodes, np.zeros(n_idle), origins, oracle, speed)
        achieved = sum(
            oracle.dist[idle_nodes[k], dest] / speed
            for k, dest in enumerate(decision.destination.tolist()) if dest >= 0)
        cost = np.array([[oracle.dist[v, o] / speed for o in origins] for v in idle_nodes])
        optimal = brute_min_assignment_cost(cost)
        assert achieved == pytest.approx(optimal, abs=1e-9)
    report(4, True, "assignment cost equals permutation brute force on 200 instances")


# ---------------------------------------------------------------------------
# 5. Accumulation-speed relation
# ---------------------------------------------------------------------------

def test_criterion_5_speed_relation_checks():
    assert mfd_speed(0) == 36.0
    assert abs(mfd_speed(4320) - 36.0 * math.exp(-1.74)) < 1e-6
    assert abs(mfd_speed(4320) - mfd_speed(4320.0000001)) < 0.02
    for m in range(7200, 8001, 25):
        assert mfd_speed(m) == 0.0
    speeds = [mfd_speed(m) for m in range(0, 8001)]
    assert all(a >= b for a, b in zip(speeds, speeds[1:]))
    report(5, True, "free-flow 36.000, cutoff value, branch gap < 0.02, "
                    "zero beyond jam, monotone over 0..8000")


# ---------------------------------------------------------------------------
# 6. Imbalance endpoints and similarity trend
# ---------------------------------------------------------------------------

def test_criterion_6_imbalance_endpoints_and_trend():
    cfg = build_config(desk_document("cvr", gamma=1.0))  # gamma = 1: the observed destinations
    p_origin, p_dest = cfg.origin_mass, cfg.destination_mass
    p_comp = complement_mass(p_origin)
    assert np.array_equal(synthesize_destination(p_dest, p_comp, 1.0), p_dest)
    assert np.array_equal(synthesize_destination(p_dest, p_comp, 0.0), p_comp)
    distances = [hellinger(synthesize_destination(p_dest, p_comp, g), p_origin)
                 for g in (0.0, 0.25, 0.5, 0.75, 1.0)]
    strictly_decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    report(6, strictly_decreasing,
           "blend endpoints exact; similarity distance strictly decreasing: "
           + ", ".join(f"{d:.4f}" for d in distances))


# ---------------------------------------------------------------------------
# 7. Desk-scale controller ordering
# ---------------------------------------------------------------------------

def test_criterion_7_controller_ordering(desk):
    comp_cvr = mean_metric(desk["runs"], "cvr", "completion_rate_pct")
    comp_dn = mean_metric(desk["runs"], "do_nothing", "completion_rate_pct")
    comp_lp = mean_metric(desk["runs"], "lp", "completion_rate_pct")
    comp_graph = mean_metric(desk["runs"], "cvr_graph", "completion_rate_pct")
    wait_cvr = mean_metric(desk["runs"], "cvr", "mean_wait_s")
    wait_dn = mean_metric(desk["runs"], "do_nothing", "mean_wait_s")
    ok = (comp_cvr > comp_dn + 3.0
          and wait_cvr < wait_dn
          and comp_cvr >= comp_lp
          and abs(comp_graph - comp_cvr) <= 2.0
          and desk["ordering_elapsed"] < 600.0)
    report(7, ok,
           f"completion cvr={comp_cvr:.1f} graph={comp_graph:.1f} lp={comp_lp:.1f} "
           f"do_nothing={comp_dn:.1f}; wait cvr={wait_cvr:.0f}s < do_nothing={wait_dn:.0f}s; "
           f"40 runs in {desk['ordering_elapsed']:.0f}s (< 600 s)")


# ---------------------------------------------------------------------------
# 8. Fleet-size adapter trade-off
# ---------------------------------------------------------------------------

def test_criterion_8_pi_tradeoff(desk):
    comp_cvr = mean_metric(desk["runs"], "cvr", "completion_rate_pct")
    comp_pi = mean_metric(desk["runs"], "cvr_pi", "completion_rate_pct")
    reb_cvr = mean_metric(desk["runs"], "cvr", "rebalance_distance_km")
    reb_pi = mean_metric(desk["runs"], "cvr_pi", "rebalance_distance_km")
    ok = reb_pi <= 0.8 * reb_cvr and abs(comp_cvr - comp_pi) <= 3.0
    report(8, ok,
           f"rebalance {reb_pi:.0f} km <= 0.8 x {reb_cvr:.0f} km "
           f"(ratio {reb_pi / reb_cvr:.2f}); completion {comp_pi:.1f} "
           f"within 3 of {comp_cvr:.1f}")


# ---------------------------------------------------------------------------
# 9. Hold-fraction endpoints are exact aliases
# ---------------------------------------------------------------------------

def test_criterion_9_alpha_endpoints_bit_exact(desk):
    runs = desk["runs"]
    m0, s0, _ = runs[("cvr_alpha0", 10.0, 1)]
    m_cvr, s_cvr, _ = runs[("cvr", 10.0, 1)]
    m1, s1, _ = runs[("cvr_alpha1", 10.0, 1)]
    m_dn, s_dn, _ = runs[("do_nothing", 10.0, 1)]
    ok = (m0 == m_cvr and s0 == s_cvr and m1 == m_dn and s1 == s_dn)
    report(9, ok, "alpha=0 run is bit-identical to cvr; alpha=1 to do_nothing "
                  "(metrics and full time series)")


# ---------------------------------------------------------------------------
# 10. Sampling-time degradation
# ---------------------------------------------------------------------------

def test_criterion_10_sampling_time_degradation(desk):
    comp = {period: mean_metric(desk["runs"], "cvr", "completion_rate_pct", period)
            for period in (10.0, 60.0, 300.0)}
    comp_lp = {period: mean_metric(desk["runs"], "lp", "completion_rate_pct", period)
               for period in (10.0, 60.0, 300.0)}
    non_increasing = (comp[60.0] <= comp[10.0] + 1.0
                      and comp[300.0] <= comp[60.0] + 1.0)
    beats_lp = all(comp[p] > comp_lp[p] for p in (10.0, 60.0, 300.0))
    report(10, non_increasing and beats_lp,
           "cvr completion " + " -> ".join(f"{comp[p]:.1f}" for p in (10.0, 60.0, 300.0))
           + " over periods 10/60/300 s (non-increasing within 1 pt); "
           + "lp " + " -> ".join(f"{comp_lp[p]:.1f}" for p in (10.0, 60.0, 300.0)))


# ---------------------------------------------------------------------------
# 11. Determinism of artifacts
# ---------------------------------------------------------------------------

def test_criterion_11_byte_identical_artifacts(tmp_path):
    doc = desk_document("cvr_graph", seed=5)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out1)]) == 0
    assert cli_main(["run", "--scenario", str(scenario), "--out", str(out2)]) == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("metrics.json", "timeseries.csv", "requests.csv"))
    report(11, same, "repeated runs produce byte-identical metrics.json, "
                     "timeseries.csv, requests.csv")
