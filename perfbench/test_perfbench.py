"""Tests of the benchmark itself: span arithmetic, the checker, repeatable counts.

Run with ``python -m pytest perfbench``.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from cvrsim import roadnet, scenario, sim
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def short(docs, horizon_s=1800.0):
    """The same scenarios cut to a shorter horizon."""
    out = copy.deepcopy(docs)
    for _, doc in out:
        doc["sim"]["horizon_s"] = horizon_s
    return out


# -- span arithmetic ---------------------------------------------------------


def fake_clock(times):
    return iter(times).__next__


def test_self_times_subtract_children_and_leaves():
    # root A [0, 10] holds B [1, 4] (with two leaf calls of 0.25 s) and C [5, 6];
    # one leaf call of 0.5 s runs outside any span.
    tracer = spans.Tracer(clock=fake_clock([0, 1, 2, 2.25, 3, 3.25, 4, 5, 6, 10, 11, 11.5]))
    leaf = tracer.wrap_leaf("L", lambda: None)
    a = tracer.open("A")
    b = tracer.open("B")
    leaf()
    leaf()
    tracer.close(b)
    with tracer.span("C"):
        pass
    tracer.close(a)
    leaf()
    assert tracer.self_times() == pytest.approx({"A": 6.0, "B": 2.5, "C": 1.0, "L": 1.0})
    assert tracer.leaf_totals() == {"L": [3, pytest.approx(1.0)]}
    books = spans.account(tracer.names, tracer.starts, tracer.ends, tracer.parents,
                          tracer.leaves, wall_s=12.0)
    assert books["gap_s"] == pytest.approx(1.5)
    assert books["self_sum_s"] == pytest.approx(10.5)
    assert books["residual_s"] == pytest.approx(0.0)
    assert books["worst_self_s"] == pytest.approx(1.0)


def test_account_flags_a_child_that_outlives_its_parent():
    names, starts, ends, parents = ["A", "B"], [0.0, 1.0], [2.0, 5.0], [spans.ROOT, 0]
    books = spans.account(names, starts, ends, parents, {}, wall_s=6.0)
    assert books["worst_self_s"] < 0


def test_wrap_counts_errors_and_restore_undoes_patches():
    class Owner:
        @staticmethod
        def boom():
            raise ValueError("no")

    original = Owner.boom
    tracer = spans.Tracer()
    tracer.patch(Owner, "boom", "owner.boom")
    with pytest.raises(ValueError):
        Owner.boom()
    assert tracer.errors["owner.boom"] == 1
    assert len(tracer.durations("owner.boom")) == 1
    tracer.restore()
    assert Owner.boom is original


# -- correctness checker -------------------------------------------------------


@pytest.fixture(scope="module")
def desk_run():
    _, doc = short(WORKLOADS["desk"](5))[1]  # lp, half an hour
    world = sim.World(scenario.build_config(doc))
    metrics = world.run()
    return world, metrics


def test_checker_accepts_a_real_run(desk_run):
    world, metrics = desk_run
    assert checks.check_world(world, metrics) == []


def test_checker_rejects_a_request_counted_twice(desk_run):
    world, metrics = desk_run
    requests = world.requests[:world.n_injected]
    assert checks.check_requests(metrics, requests + [requests[0]])


def test_checker_rejects_a_request_with_two_states(desk_run):
    world, metrics = desk_run
    requests = [dataclasses.replace(r) for r in world.requests[:world.n_injected]]
    done = next(r for r in requests if r.pickup_time is not None)
    done.status = "cancelled"
    assert checks.check_requests(metrics, requests)


def test_checker_rejects_a_vehicle_missing_from_a_row(desk_run):
    world, metrics = desk_run
    series = list(world.series)
    row = list(series[10])
    row[next(col for col in range(1, 5) if row[col] > 0)] -= 1
    series[10] = tuple(row)
    assert checks.check_series(series, world.cfg.n_av, metrics.n_cancelled)


def test_checker_rejects_wrong_final_cancellations(desk_run):
    world, metrics = desk_run
    assert checks.check_series(world.series, world.cfg.n_av, metrics.n_cancelled + 1)


def test_checker_rejects_a_wrong_distance(desk_run):
    world, _ = desk_run
    dist = world.oracle.dist.copy()
    dist[3, 7] += 1e-3
    doctored = roadnet.DistanceOracle(dist=dist, next_hop=world.oracle.next_hop)
    assert checks.check_oracle(world.graph, doctored)


def test_checker_rejects_a_non_finite_metric(desk_run):
    _, metrics = desk_run
    assert checks.check_metrics_finite(dataclasses.replace(metrics, mean_wait_s=float("nan")))


def test_digest_sees_one_changed_timestamp(desk_run):
    world, metrics = desk_run
    requests = [dataclasses.replace(r) for r in world.requests[:world.n_injected]]
    before = checks.digest(metrics, world.series, requests)
    requests[-1].t0 += 1e-9
    assert checks.digest(metrics, world.series, requests) != before


# -- the traced run ------------------------------------------------------------

EXACT = ("roadnet.oracle_bytes", "plane.pixel_generator_pairs", "demand.requests",
         "rebalance.decisions", "sim.match_yield")


def test_traced_counts_repeat_exactly_at_one_seed():
    docs = short(WORKLOADS["desk"](3), horizon_s=1200.0)
    first_passes, first = run.traced(docs)
    second_passes, second = run.traced(docs)
    for passes in (first_passes, second_passes):
        assert not [r.problems for p in passes for r in p if r.problems]
    exact = [k for k in first if k.endswith(".calls")] + list(EXACT)
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert [r.digest for r in first_passes[1]] == [r.digest for r in second_passes[1]]
    assert first["plane.coverage_summary.calls"][0] > 0
    assert first["roadnet.position_node_distance.calls"][0] > 0


# -- the command line and its output ---------------------------------------------


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_metric_of_the_spec(monkeypatch, capsys, trace, kind):
    desk = WORKLOADS["desk"]
    monkeypatch.setitem(run.WORKLOADS, "desk", lambda seed: short(desk(seed)[:2], horizon_s=600.0))
    assert run.main(["--workload", "desk", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_workload_seeds_are_derived_from_the_seed_and_never_shared():
    seeds = {name: [doc["sim"]["seed"] for _, doc in make(17)] for name, make in WORKLOADS.items()}
    assert seeds["city-graph"] == seeds["city-planar"] == [17]
    assert seeds["desk"] == list(range(6 * 17, 6 * 18))


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


def test_same_digests_flags_a_changed_scenario():
    a = [run.ScenarioResult("x", digest="1"), run.ScenarioResult("y", digest="2")]
    b = [run.ScenarioResult("x", digest="1"), run.ScenarioResult("y", digest="3")]
    run.check_same_digests(a, b, "test")
    assert [r.problems != [] for r in b] == [False, True]


def test_reference_distances_match_a_grid():
    graph = roadnet.grid_graph(3, 100.0)
    ref = checks.reference_distances(graph)
    assert ref[0, 8] == pytest.approx(400.0)
    assert np.allclose(ref, ref.T)
