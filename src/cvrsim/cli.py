"""Command line entry points: run, sweep, gen-grid, inspect."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import scenario as scenario_mod
from .errors import ConfigValidationError, UnknownParameterError
from .roadnet import graph_to_json
from .sim import TIMESERIES_COLUMNS, World, run_scenario

_PERCENTILES = (25, 50, 75, 90)


def _write_metrics(metrics, out_dir: str) -> None:
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        fh.write(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
        fh.write("\n")


def _write_timeseries(series, out_dir: str) -> None:
    with open(os.path.join(out_dir, "timeseries.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_COLUMNS)
        for t, ia, ih, na, nc, m, rebal_km, cancelled in series:
            writer.writerow([f"{t:.3f}", ia, ih, na, nc, m, f"{rebal_km:.6f}", cancelled])


def _write_requests(requests, out_dir: str) -> None:
    def fmt(x):
        return "" if x is None else f"{x:.3f}"

    with open(os.path.join(out_dir, "requests.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t0", "match_t", "pickup_t", "status"])
        for r in requests:
            writer.writerow([r.id, fmt(r.t0), fmt(r.match_time), fmt(r.pickup_time), r.status])


def cmd_run(args) -> int:
    doc = scenario_mod.load_scenario(args.scenario)
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    cfg = scenario_mod.build_config(doc, base_dir=base_dir, seed_override=args.seed)
    out_dir = args.out or doc.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    metrics, series, requests = run_scenario(cfg)
    _write_metrics(metrics, out_dir)
    _write_timeseries(series, out_dir)
    _write_requests(requests, out_dir)
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return 0


def _sweep_worker(task):
    doc, base_dir, param, value, seed = task
    modified = scenario_mod.set_sweep_value(doc, param, value)
    cfg = scenario_mod.build_config(modified, base_dir=base_dir, seed_override=seed)
    metrics, _, _ = run_scenario(cfg)
    return metrics.to_dict()


def _nan_guard(x):
    return float("nan") if x is None else x


def _aggregate(values, results_by_value):
    """Per-value mean and percentile rows plus the normalized tuning score."""
    rows = []
    for value in values:
        runs = results_by_value[value]
        row = {"value": value, "runs": len(runs)}
        for metric in ("completion_rate_pct", "mean_wait_s", "mean_system_time_s",
                       "rebalance_distance_km"):
            samples = np.array([_nan_guard(r[metric]) for r in runs], dtype=np.float64)
            if np.isnan(samples).all():  # e.g. the wait when no run had an order
                row[f"{metric}_mean"] = math.nan
                row.update({f"{metric}_p{p}": math.nan for p in _PERCENTILES})
                continue
            row[f"{metric}_mean"] = float(np.nanmean(samples))
            for p in _PERCENTILES:
                row[f"{metric}_p{p}"] = float(np.nanpercentile(samples, p))
        rows.append(row)
    sys_means = np.array([row["mean_system_time_s_mean"] for row in rows])
    rebal_means = np.array([row["rebalance_distance_km_mean"] for row in rows])

    def minmax(x):
        known = x[~np.isnan(x)]  # a value whose runs had no request has no system time
        span = known.max() - known.min() if known.size else 0.0
        if not span > 0:
            return np.zeros_like(x)
        return (x - known.min()) / span

    theta = minmax(sys_means) + minmax(rebal_means)
    for row, th in zip(rows, theta):
        row["theta"] = float(th)
    return rows


def _sweep_workers() -> int:
    """Worker processes for a sweep: ``AMOD_THREADS``, a whole number >= 1, or one per CPU."""
    text = os.environ.get("AMOD_THREADS")
    if text is None:
        return os.cpu_count() or 1
    if not text.strip().isdecimal() or int(text) < 1:
        raise ConfigValidationError("AMOD_THREADS", f"must be a whole number >= 1, got {text!r}")
    return int(text)


def cmd_sweep(args) -> int:
    workers = _sweep_workers()
    doc = scenario_mod.load_scenario(args.scenario)
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    try:
        values = [json.loads(v) for v in args.values.split(",")]
    except json.JSONDecodeError:
        raise ConfigValidationError("values", f"cannot parse {args.values!r} as JSON scalars")
    for i, value in enumerate(values):
        if value in values[:i]:  # 20 and 20.0 would share one row of results
            raise ConfigValidationError("values", f"{value!r} is given twice in {args.values!r}")
    if args.reps < 1:
        raise ConfigValidationError("reps", "need at least one repetition")
    base_seed = args.seed
    if base_seed is None:
        base_seed = scenario_mod.build_config(doc, base_dir=base_dir).seed
    for value in values:  # fail before any run on a bad name or value
        scenario_mod.build_config(scenario_mod.set_sweep_value(doc, args.param, value),
                                  base_dir=base_dir, seed_override=base_seed)
    out_dir = args.out or doc.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)  # an unusable --out fails before any run too

    tasks = [(doc, base_dir, args.param, value, base_seed + rep)
             for value in values for rep in range(args.reps)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_sweep_worker, tasks))
    else:
        flat = [_sweep_worker(t) for t in tasks]

    results_by_value = {value: [] for value in values}
    for task, result in zip(tasks, flat):
        results_by_value[task[3]].append(result)
    rows = _aggregate(values, results_by_value)

    out_path = os.path.join(out_dir, "sweep.csv")
    columns = ["param"] + list(rows[0].keys())
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([args.param] + [row[c] for c in columns[1:]])
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def cmd_gen_grid(args) -> int:
    graph = scenario_mod.checked_grid_graph(args.k, args.spacing, "k", "spacing")
    with open(args.out, "w") as fh:
        json.dump(graph_to_json(graph), fh)
        fh.write("\n")
    print(f"wrote {args.out}: {graph.n_nodes} nodes, {graph.n_edges} edges")
    return 0


def cmd_inspect(args) -> int:
    doc = scenario_mod.load_scenario(args.scenario)
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    cfg = scenario_mod.build_config(doc, base_dir=base_dir, seed_override=args.seed)
    if not math.isfinite(args.time) or args.time < 0:
        raise ConfigValidationError("time", f"must be a finite time >= 0, got {args.time}")
    if args.time > cfg.horizon_s:
        raise ConfigValidationError("time", f"{args.time} beyond horizon {cfg.horizon_s}")
    out_dir = args.out or doc.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    world = World(cfg)
    world.run(until=args.time)
    snap = world.snapshot()

    with open(os.path.join(out_dir, "snapshot_vehicles.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x_m", "y_m", "state", "held", "destination"])
        for v in snap["vehicles"]:
            writer.writerow([v["id"], f"{v['x_m']:.3f}", f"{v['y_m']:.3f}",
                             v["state"], int(v["held"]),
                             "" if v["destination"] is None else v["destination"]])

    with open(os.path.join(out_dir, "snapshot_assignment.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        if "pixel_assignment" in snap:
            field = snap["field"]
            gen_ids = snap["pixel_generator_ids"]
            writer.writerow(["pixel_x", "pixel_y", "generator_index"])
            for pix, gen in enumerate(snap["pixel_assignment"]):
                x, y = field.centers[pix]
                writer.writerow([f"{x:.3f}", f"{y:.3f}", gen_ids[int(gen)]])
        elif "node_assignment" in snap:
            writer.writerow(["node", "generator_node"])
            for node, gen in enumerate(snap["node_assignment"]):
                writer.writerow([node, int(gen)])
        else:
            writer.writerow(["node", "generator_node"])
    print(f"snapshot at t={snap['t_s']:.1f}s written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvrsim",
        description="Coverage-control fleet rebalancing scenarios: run, sweep, inspect.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its artifacts")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run repetitions across parameter values")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated JSON scalars")
    sweep_p.add_argument("--reps", type=int, default=1)
    sweep_p.add_argument("--seed", type=int, default=None, help="base seed (seed..seed+reps-1)")
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(func=cmd_sweep)

    grid_p = sub.add_parser("gen-grid", help="emit a synthetic k-by-k grid network")
    grid_p.add_argument("--k", type=int, required=True)
    grid_p.add_argument("--spacing", type=float, required=True, help="edge length in meters")
    grid_p.add_argument("--out", required=True)
    grid_p.set_defaults(func=cmd_gen_grid)

    inspect_p = sub.add_parser("inspect", help="dump a mid-run fleet/partition snapshot")
    inspect_p.add_argument("--scenario", required=True)
    inspect_p.add_argument("--time", type=float, required=True)
    inspect_p.add_argument("--seed", type=int, default=None)
    inspect_p.add_argument("--out", default=None)
    inspect_p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigValidationError as exc:
        print(json.dumps({"error": "ConfigValidation", "field": exc.field,
                          "message": exc.reason}))
        return 2
    except UnknownParameterError as exc:
        print(json.dumps({"error": "UnknownParameter", "message": str(exc)}))
        return 2
    except OSError as exc:  # a path that cannot be read or written, e.g. FileNotFound
        print(json.dumps({"error": type(exc).__name__.removesuffix("Error"),
                          "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
