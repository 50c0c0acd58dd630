"""cvrsim benchmark: workloads, checks, timings and traced layers.

Builds one workload's scenario documents from a seed and runs each through
the calls ``cvrsim run`` makes: ``scenario.build_config``, ``sim.World(cfg)``
and ``World.run()``. Every scenario's result is checked, and a digest of its
metrics, timeseries rows and request records is printed.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in turn

With ``--trace 0`` the workload is run in passes, each setting every
scenario up once and running it once, until ``--seconds`` have gone by and
at least ``MIN_PASSES`` passes are done; the end-to-end metrics are medians
over the passes. With ``--trace 1`` one plain pass and one traced pass are
run, and the per-layer metrics come from spans recorded around cvrsim's
public functions. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any check failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _cannot_run(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


try:
    import cvrsim
    from cvrsim import demand, plane, rebalance, roadnet, scenario, sim
except ModuleNotFoundError as exc:
    _cannot_run(f"cannot import cvrsim from {SRC}: {exc}")
if Path(cvrsim.__file__).resolve().parent != SRC / "cvrsim":
    _cannot_run(f"cvrsim imported from {cvrsim.__file__}, not from {SRC}")

import checks  # noqa: E402  (needs cvrsim on the path)
from spans import Tracer, account  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every run sets each scenario up, and runs it, at least this many times.
MIN_PASSES = 2
# Controllers whose decisions feed rebalance.decisions and rebalance.hold_share.
DECIDERS = ("cvr_targets", "cvr_graph_targets", "lp_rebalance", "do_nothing")
# Rebalance functions reported with .calls, .s and .ms_p99.
REBALANCE_TIMED = ("cvr_targets", "cvr_graph_targets", "lp_rebalance", "hold_scores",
                   "hold_scores_graph", "select_holds", "pi_update")
GRAPH_CELL_FNS = ("graph_voronoi", "r_limited_graph_cell", "graph_centroid", "nearest_nodes")


@dataclass
class ScenarioResult:
    label: str
    setup_s: float = math.nan
    run_s: float = math.nan
    metrics: sim.SimMetrics | None = None
    digest: str | None = None
    problems: list[str] = field(default_factory=list)


def _no_span(name):
    return contextlib.nullcontext()


def run_scenario(label: str, doc: dict, tracer: Tracer | None = None) -> ScenarioResult:
    """Set the scenario up, run it to its horizon and check the result."""
    span = tracer.span if tracer is not None else _no_span
    result = ScenarioResult(label)
    try:
        t0 = time.perf_counter()
        with span("scenario.build_config"):
            cfg = scenario.build_config(doc)
        with span("sim.world_init"):
            world = sim.World(cfg)
        result.setup_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with span("sim.run"):
            metrics = world.run()
        result.run_s = time.perf_counter() - t0
        result.metrics = metrics
        result.problems = checks.check_world(world, metrics)
        result.digest = checks.digest(metrics, world.series, world.requests[:world.n_injected])
    except Exception as exc:  # a failed scenario is counted, and the others still run
        traceback.print_exc()
        result.problems.append(f"raised {exc!r}")
    return result


def run_pass(docs, tracer: Tracer | None = None) -> list[ScenarioResult]:
    return [run_scenario(label, doc, tracer) for label, doc in docs]


def check_same_digests(first: list[ScenarioResult], other: list[ScenarioResult], why: str
                       ) -> None:
    """Flag every scenario of ``other`` whose digest differs from ``first``."""
    for a, b in zip(first, other):
        if a.digest is not None and b.digest is not None and a.digest != b.digest:
            b.problems.append(f"digest differs from the first pass ({why})")


def simulated_totals(results: list[ScenarioResult]) -> tuple[float, float]:
    """Request-weighted mean system time and total rebalancing distance."""
    done = [r.metrics for r in results if r.metrics is not None]
    n_req = sum(m.n_requests for m in done)
    system = sum(m.mean_system_time_s * m.n_requests for m in done)
    return (system / n_req if n_req else math.nan,
            sum(m.rebalance_distance_km for m in done))


def end_to_end(docs, seconds: float) -> tuple[list[list[ScenarioResult]], dict]:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(docs))
    for later in passes[1:]:
        check_same_digests(passes[0], later, "the simulation is not deterministic")
    system_s, rebalance_km = simulated_totals(passes[0])
    # Each scenario's median over the passes, summed over the scenarios: a
    # burst of load from outside slows one pass of one scenario, not the sum.
    by_scenario = list(zip(*passes))
    metrics = {
        "setup_s": (sum(statistics.median(r.setup_s for r in runs) for runs in by_scenario), "s"),
        "run_s": (sum(statistics.median(r.run_s for r in runs) for runs in by_scenario), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mean_system_time_s": (system_s, "s"),
        "rebalance_km": (rebalance_km, "km"),
    }
    return passes, metrics


# -- traced run -----------------------------------------------------------------


def _oracle_bytes(tracer, args, oracle):
    size = oracle.dist.nbytes + oracle.next_hop.nbytes
    tracer.counters["roadnet.oracle_bytes"] = max(tracer.counters["roadnet.oracle_bytes"], size)


def _pixel_pairs(tracer, args, summary):
    field_, generators = args[0], args[1]
    tracer.counters["plane.pixel_generator_pairs"] += field_.n_pixels * len(generators)


def _requests(tracer, args, requests):
    tracer.counters["demand.requests"] += len(requests)


def _decisions(tracer, args, decision):
    tracer.counters["rebalance.decisions"] += len(decision.destination)
    tracer.counters["rebalance.held"] += len(decision.held_ids())


def _match_yield(tracer, args, result):
    """Count requests offered to a non-empty idle pool, replaying match_tick's walk."""
    pending, idle = args[0], args[1]
    matches, cancellations = result
    matched = {req.id for req, _ in matches}
    cancelled = {req.id for req in cancellations}
    pool = len(idle)
    offered = 0
    for req in pending:
        if pool == 0:
            break
        if req.id in cancelled:
            continue
        offered += 1
        if req.id in matched:
            pool -= 1
    tracer.counters["sim.offered"] += offered
    tracer.counters["sim.matches"] += len(matches)
    tracer.counters["sim.cancelled"] += len(cancellations)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names their callers look up."""
    patch = tracer.patch
    patch(sim, "all_pairs_shortest", "roadnet.all_pairs_shortest", observe=_oracle_bytes)
    patch(sim, "position_node_distance", "roadnet.position_node_distance", leaf=True)
    patch(rebalance, "position_node_distance", "roadnet.position_node_distance", leaf=True)
    patch(roadnet.DistanceOracle, "path", "roadnet.path", leaf=True)
    for name in GRAPH_CELL_FNS:
        patch(rebalance, name, f"roadnet.{name}")
    patch(plane, "rasterize_mixture", "plane.rasterize")
    patch(plane, "rasterize_node_mass", "plane.rasterize")
    patch(plane, "coverage_summary", "plane.coverage_summary", observe=_pixel_pairs)
    patch(demand, "generate_requests", "demand.generate_requests", observe=_requests)
    for name in REBALANCE_TIMED + ("do_nothing",):
        patch(rebalance, name, f"rebalance.{name}",
              observe=_decisions if name in DECIDERS else None)
    patch(sim, "match_tick", "sim.match_tick", observe=_match_yield)
    patch(sim.World, "step", "sim.step")


def layer_metrics(tracer: Tracer, wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics from the recorded spans, each as (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    leaves = tracer.leaf_totals()
    selfs = tracer.self_times()
    counters = tracer.counters

    def timed(name, calls=False, total=True, p50=False, p99=False):
        d = tracer.durations(name)
        if calls:
            out[f"{name}.calls"] = (len(d), "count")
        if total:
            out[f"{name}.s"] = (float(d.sum()), "s")
        for wanted, q in ((p50, 50), (p99, 99)):
            if wanted:
                out[f"{name}.ms_p{q}"] = (float(np.percentile(d, q)) * 1e3 if len(d) else 0.0,
                                          "ms")

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    timed("roadnet.all_pairs_shortest")
    out["roadnet.oracle_bytes"] = (counters["roadnet.oracle_bytes"], "bytes")
    for leaf in ("roadnet.position_node_distance", "roadnet.path"):
        calls, seconds = leaves.get(leaf, (0, 0.0))
        out[f"{leaf}.calls"] = (calls, "count")
        out[f"{leaf}.s"] = (seconds, "s")
    for name in GRAPH_CELL_FNS:
        timed(f"roadnet.{name}")
    out["roadnet.graph_centroid.empty"] = (tracer.errors["roadnet.graph_centroid"], "count")
    timed("plane.rasterize")
    timed("plane.coverage_summary", calls=True, p50=True, p99=True)
    out["plane.pixel_generator_pairs"] = (counters["plane.pixel_generator_pairs"], "count")
    timed("demand.generate_requests")
    out["demand.requests"] = (counters["demand.requests"], "count")
    for name in REBALANCE_TIMED:
        timed(f"rebalance.{name}", calls=True, p99=True)
    out["rebalance.decisions"] = (counters["rebalance.decisions"], "count")
    out["rebalance.hold_share"] = (ratio("rebalance.held", "rebalance.decisions"), "ratio")
    timed("sim.step", calls=True, total=False, p50=True, p99=True)
    out["sim.step.self_s"] = (selfs.get("sim.step", 0.0), "s")
    timed("sim.match_tick", calls=True)
    out["sim.match_yield"] = (ratio("sim.matches", "sim.offered"), "ratio")
    out["sim.cancelled"] = (counters["sim.cancelled"], "count")
    out["sim.world_init.self_s"] = (selfs.get("sim.world_init", 0.0), "s")
    timed("scenario.build_config")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.wall_s"] = (wall_s, "s")
    return out


def traced(docs) -> tuple[list[list[ScenarioResult]], dict]:
    plain = run_pass(docs)
    tracer = Tracer()
    install(tracer)
    try:
        t0 = time.perf_counter()
        with_spans = run_pass(docs, tracer)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    check_same_digests(plain, with_spans, "tracing changed the simulation")
    overhead_s = sum(r.run_s for r in with_spans) - sum(r.run_s for r in plain)
    metrics = layer_metrics(tracer, wall_s, overhead_s)
    books = account(tracer.names, tracer.starts, tracer.ends, tracer.parents,
                    tracer.leaves, wall_s)
    metrics["trace.gap_s"] = (books["gap_s"], "s")
    print(f"trace accounting: wall {wall_s:.6f} s = layer self {books['self_sum_s']:.6f} s"
          f" + benchmark gaps {books['gap_s']:.6f} s (residual {books['residual_s']:.3g} s,"
          f" smallest span self time {books['worst_self_s']:.3g} s)")
    if not (abs(books["residual_s"]) <= 1e-6 * max(wall_s, 1.0)
            and books["gap_s"] >= 0.0 and books["worst_self_s"] >= -1e-6):
        with_spans[-1].problems.append("span self times and gaps do not add up to the wall time")
    return [plain, with_spans], metrics


# -- command line ------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", required=True, type=_nonnegative_int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in a process of its own; nonzero if any of them failed."""
    codes = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        codes.append(proc.returncode)
    print(f"workloads {', '.join(WORKLOADS)}: exit codes {codes}")
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    docs = WORKLOADS[args.workload](args.seed)
    if args.trace:
        passes, metrics = traced(docs)
    else:
        passes, metrics = end_to_end(docs, args.seconds)

    results = [r for p in passes for r in p]
    failed = [r for r in results if r.problems]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(docs)} scenarios")
    for i, p in enumerate(passes):
        print(f"pass {i}: set-up {sum(r.setup_s for r in p)} s, run {sum(r.run_s for r in p)} s")
    for r in passes[0]:
        print(f"digest {r.label} {r.digest}")
    for r in failed:
        for problem in r.problems:
            print(f"FAILED {r.label}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {len(failed) / len(results)} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
