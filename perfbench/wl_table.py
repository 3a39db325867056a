"""``table_parallel``: a methods x trials table through ``run_table``.

``run_table`` with ``workers=2`` fans the cells of OmniMatch plus cheap and
neural baselines over the parallel engine (``repro.parallel.engine`` /
``sharing``), and the per-worker telemetry shards are merged by
``repro.obs.merge``. None of that code runs in any other workload.

Timed phase: ``--seconds / TABLE_BUDGET_S`` ``run_table`` calls, each
generating its world, sharing it with a fresh worker pool and running the
cells, as a user's call would. Set-up (median over the calls): from the
call to the first cell's start (world generation, shared-memory publish,
worker pool start), read from the ``task`` events' timestamps. Per-cell
(method x trial) wall times come from the ``trial`` events of the merged
``run.jsonl``; the program's telemetry is on in every run, traced or not.
"""

from __future__ import annotations

import math
import time

from common import SCRATCH, Outcome, TreePeakRss, median, percentile
from pipeline import make_world, setup_layers

METHODS = ("OmniMatch", "DeepCoNN", "CMF", "item-mean")
#: Methods cheap enough to re-run serially in-process as a parity check.
SERIAL_CHECK = ("item-mean", "CMF")
WORLD = {"num_users": 200, "num_items_per_domain": 100}
TRIALS = 2
OMNIMATCH_EPOCHS = 3
#: Seconds one table takes on the reference box (2 cores); turns
#: ``--seconds`` into a fixed number of tables, the same on every commit.
TABLE_BUDGET_S = 4.0


def run(args) -> Outcome:
    from repro.core import OmniMatchConfig
    from repro.eval import run_experiment, run_table
    from repro.obs import read_events

    out = Outcome()
    rss = TreePeakRss().start()
    config = OmniMatchConfig(epochs=OMNIMATCH_EPOCHS, early_stopping=False)
    tables = max(1, round(args.seconds / TABLE_BUDGET_S))
    walls, setup_seconds, events, rmse_runs = [], [], [], []
    for index in range(tables):
        telemetry = SCRATCH / f"table-{index}"
        called = time.time()
        start = time.perf_counter()
        results = run_table(
            list(METHODS), "amazon", scenarios=[("books", "movies")],
            trials=TRIALS, seed=args.seed, config=config, workers=2,
            telemetry_dir=telemetry, **WORLD,
        )
        walls.append(time.perf_counter() - start)
        table_events = read_events(telemetry / "run.jsonl")
        first_cell = min(e["ts"] - e["seconds"] for e in table_events if e["kind"] == "task")
        setup_seconds.append(first_cell - called)
        events.extend(table_events)
        rmse_runs.append({r.method: r.rmse_per_trial for r in results})
    peak = rss.stop()
    world = make_world(**WORLD)  # the same world, for the serial parity check

    cells = [e for e in events if e["kind"] == "trial"]
    tasks = [e for e in events if e["kind"] == "task"]
    rmses = [value for trials in rmse_runs[0].values() for value in trials]
    out.attempted = len(METHODS) * TRIALS * tables
    out.failed = sum(
        not math.isfinite(v) for run in rmse_runs for t in run.values() for v in t
    ) + sum(e["status"] != "ok" for e in tasks)
    out.check("table.all_cells", len(cells) == out.attempted, len(cells))
    out.check("table.finite_rmse", all(math.isfinite(v) for v in rmses), rmses)
    out.check(
        "table.repeatable", all(run == rmse_runs[0] for run in rmse_runs),
        f"{tables} tables of seed {args.seed}",
    )
    for method in SERIAL_CHECK:
        serial = run_experiment(
            method, "amazon", "books", "movies", trials=TRIALS, seed=args.seed,
            dataset=world, config=config,
        )
        out.check(
            f"table.parallel_equals_serial.{method}",
            serial.rmse_per_trial == rmse_runs[0][method],
            f"serial {serial.rmse_per_trial} parallel {rmse_runs[0][method]}",
        )

    # The tables repeat the same cells; like ``train``, keep the fastest
    # repeat of each cell and the fastest table, so a burst of other load
    # on the shared cores does not reach the figures.
    fastest: dict[tuple, float] = {}
    for event in cells:
        key = (event["method"], event["trial"])
        fastest[key] = min(fastest.get(key, math.inf), event["wall_seconds"])
    cell_ms = [seconds * 1e3 for seconds in fastest.values()]
    out.metrics = {
        "setup_s": median(setup_seconds),
        "throughput": len(METHODS) * TRIALS / min(walls),
        "latency_p50_ms": percentile(cell_ms, 50),
        "latency_p90_ms": percentile(cell_ms, 90),
        "peak_rss_mb": peak,
        "cold_rmse": sum(rmses) / len(rmses),
    }
    out.detail = {
        "tables": tables,
        "cells": len(cells),
        "table_seconds": walls,
        "setup_seconds": setup_seconds,
        "rmse": rmse_runs[0],
    }
    if args.trace:
        ends = [e for e in events if e["kind"] == "worker_end"]
        busy = sum(e["busy_seconds"] for e in ends)
        idle = sum(e["idle_seconds"] for e in ends)
        out.layers.update(setup_layers(1))
        out.layers["parallel.worker_busy_fraction"] = busy / (busy + idle)
        for method in METHODS:
            out.layers[f"parallel.task_s.{method}"] = sum(
                e["seconds"] for e in tasks if e["method"] == method
            ) / tables
        out.layers["trace.throughput"] = out.metrics["throughput"]
        out.layers["trace.latency_p50_ms"] = out.metrics["latency_p50_ms"]
    return out
