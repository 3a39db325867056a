"""Run-summary rendering: turn a ``run.jsonl`` into a human-readable report.

This backs the ``repro report`` CLI subcommand. The summary is computed
purely from the telemetry stream — nothing else about the run needs to be
on disk — so a report can be rendered on a different machine than the one
that trained, straight from the CI artifact.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .telemetry import DEFAULT_FILENAME, read_events

__all__ = ["load_run_events", "summarize_run", "render_report"]


def load_run_events(path: str | os.PathLike) -> list[dict]:
    """Events from a telemetry file, or from a run directory.

    A directory is resolved to its ``run.jsonl``; when that is absent but
    per-worker shards (``run-*.jsonl``) are present — a parallel run that
    was never merged, e.g. because it crashed — the shards are merged in
    memory so the report still renders.
    """
    path = Path(path)
    if path.is_dir():
        merged = path / DEFAULT_FILENAME
        if not merged.exists():
            from .merge import merged_events

            return merged_events(path)
        path = merged
    if not path.exists():
        raise FileNotFoundError(f"{path}: no telemetry file")
    return read_events(path)


def summarize_run(events: list[dict]) -> dict:
    """Aggregate a run's events into one summary dict.

    Keys: ``run`` / ``status`` / ``epochs`` (count) / ``samples`` /
    ``seconds`` / ``samples_per_sec`` / ``phases`` (per-phase totals from
    the final span summary) / ``health`` (counts by health kind) /
    ``final`` (last epoch's metrics) / ``alloc`` (summed per-epoch
    allocation counters from the graph optimizer, when the run emitted
    them) / ``trials`` (evaluation results) / ``checkpoints`` (written
    count).
    """
    summary: dict = {
        "run": None,
        "status": None,
        "epochs": 0,
        "samples": 0.0,
        "seconds": 0.0,
        "samples_per_sec": 0.0,
        "phases": {},
        "spans": {},
        "health": {},
        "final": {},
        "alloc": None,
        "metrics": {},
        "trials": [],
        "experiments": [],
        "checkpoints": 0,
        "workers": {},
        "tasks": {"ok": 0, "error": 0},
        "serving": {
            "score_calls": 0,
            "pairs": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "hit_rate": 0.0,
            "score_seconds": [],
            "score_p50": 0.0,
            "score_p95": 0.0,
            "pairs_per_sec": 0.0,
            "recommend_calls": 0,
            "items_ranked": 0,
            "items_per_sec": 0.0,
            "index_items": 0,
            "users_encoded": 0,
        },
        "daemon": {
            "started": False,
            "workers": 0,
            "catalog": 0,
            "received": 0,
            "completed": 0,
            "shed": 0,
            "timeouts": 0,
            "errors": 0,
            "deaths": 0,
            "requeues": 0,
            "stall_kills": 0,
            "degrades": 0,
            "max_level": 0,
            "truncated_shards": [],
            "dropped_lines": 0,
        },
        "tune": {
            "trials": {},
            "rungs": [],
            "best_trial": None,
            "best_rmse": None,
        },
        "ann": {
            "builds": 0,
            "nlist": 0,
            "store": None,
            "store_bytes": 0,
            "float32_bytes": 0,
            "build_seconds": 0.0,
            "probes": 0,
            "candidates": 0,
            "catalog_scanned": 0,
            "probe_seconds": [],
            "probe_p50": 0.0,
            "probe_p95": 0.0,
            "scan_fraction": 0.0,
            "recall": None,
            "recall_k": None,
        },
    }
    for event in events:
        kind = event.get("kind")
        if summary["run"] is None and "run" in event:
            summary["run"] = event["run"]
        if kind == "epoch":
            summary["epochs"] += 1
            summary["samples"] += event.get("samples", 0)
            summary["seconds"] += event.get("seconds", 0.0)
            summary["final"] = {
                key: event[key]
                for key in ("epoch", "total", "rating", "scl", "domain",
                            "valid_rmse", "samples_per_sec", "rng")
                if key in event
            }
            alloc = event.get("alloc")
            if isinstance(alloc, dict):
                totals = summary["alloc"] or {}
                for key, value in alloc.items():
                    if key == "peak_bytes":
                        # Running per-step high-water mark, not a delta.
                        totals[key] = max(totals.get(key, 0), value)
                    else:
                        totals[key] = totals.get(key, 0) + value
                summary["alloc"] = totals
        elif kind == "health":
            name = event.get("health_kind", "unknown")
            summary["health"][name] = summary["health"].get(name, 0) + 1
        elif kind == "span_summary":
            summary["phases"] = event.get("totals", {})
            summary["spans"] = event.get("spans", {})
        elif kind == "metrics_summary":
            summary["metrics"] = {
                "counters": event.get("counters", {}),
                "gauges": event.get("gauges", {}),
                "histograms": event.get("histograms", {}),
            }
        elif kind == "run_end":
            summary["status"] = event.get("status")
        elif kind == "checkpoint_write":
            summary["checkpoints"] += 1
        elif kind == "trial":
            summary["trials"].append(
                {
                    key: event[key]
                    for key in ("method", "trial", "seed", "rmse", "mae")
                    if key in event
                }
            )
        elif kind == "experiment":
            summary["experiments"].append(
                {
                    key: event[key]
                    for key in ("method", "scenario", "rmse", "mae", "trials")
                    if key in event
                }
            )
        elif kind == "worker_end":
            worker = event.get("worker", "?")
            busy = float(event.get("busy_seconds", 0.0))
            idle = float(event.get("idle_seconds", 0.0))
            total = busy + idle
            summary["workers"][worker] = {
                "busy_seconds": busy,
                "idle_seconds": idle,
                "tasks_done": event.get("tasks_done", 0),
                "utilization": busy / total if total > 0 else 0.0,
            }
        elif kind == "task":
            status = event.get("status", "ok")
            summary["tasks"][status] = summary["tasks"].get(status, 0) + 1
        elif kind == "serve_score":
            serving = summary["serving"]
            serving["score_calls"] += 1
            serving["pairs"] += event.get("pairs", 0)
            serving["cache_hits"] += event.get("cache_hits", 0)
            serving["cache_misses"] += event.get("cache_misses", 0)
            serving["score_seconds"].append(float(event.get("seconds", 0.0)))
        elif kind == "serve_recommend":
            serving = summary["serving"]
            serving["recommend_calls"] += 1
            serving["items_ranked"] += event.get("catalog", 0)
            serving["score_seconds"].append(float(event.get("seconds", 0.0)))
        elif kind == "serve_index":
            summary["serving"]["index_items"] += event.get("items", 0)
        elif kind == "serve_encode_users":
            summary["serving"]["users_encoded"] += event.get("users", 0)
        elif kind == "serve_ann_build":
            ann = summary["ann"]
            ann["builds"] += 1
            ann["nlist"] = event.get("nlist", 0)
            ann["store"] = event.get("store")
            ann["store_bytes"] = event.get("store_bytes", 0)
            ann["float32_bytes"] = event.get("float32_bytes", 0)
            ann["build_seconds"] += float(event.get("seconds", 0.0))
        elif kind == "serve_ann_probe":
            ann = summary["ann"]
            ann["probes"] += 1
            ann["candidates"] += event.get("candidates", 0)
            ann["catalog_scanned"] += event.get("catalog", 0)
            ann["probe_seconds"].append(float(event.get("seconds", 0.0)))
        elif kind == "serve_ann_recall":
            summary["ann"]["recall"] = event.get("recall")
            summary["ann"]["recall_k"] = event.get("k")
        elif kind == "daemon_start":
            daemon = summary["daemon"]
            daemon["started"] = True
            daemon["workers"] = event.get("workers", 0)
            daemon["catalog"] = event.get("catalog", 0)
        elif kind == "daemon_worker_death":
            summary["daemon"]["deaths"] += 1
            summary["daemon"]["requeues"] += event.get("requeued", 0)
        elif kind == "daemon_stall_kill":
            summary["daemon"]["stall_kills"] += 1
        elif kind == "daemon_degrade":
            daemon = summary["daemon"]
            daemon["degrades"] += 1
            daemon["max_level"] = max(daemon["max_level"], event.get("level", 0))
        elif kind in ("daemon_stats", "daemon_stop"):
            # Counters are cumulative: the latest event wins.
            daemon = summary["daemon"]
            daemon["started"] = True
            for key in ("received", "completed", "shed", "timeouts", "errors"):
                daemon[key] = event.get(key, daemon[key])
        elif kind == "tune_trial":
            tune = summary["tune"]
            entry = tune["trials"].setdefault(
                event.get("trial"),
                {"params": {}, "rungs": {}, "epochs": 0, "killed_at": None},
            )
            if event.get("status") == "defined":
                entry["params"] = event.get("params", {})
            else:
                rmse = event.get("valid_rmse")
                entry["rungs"][event.get("rung")] = rmse
                entry["epochs"] = max(entry["epochs"], event.get("epochs", 0))
        elif kind == "tune_rung":
            tune = summary["tune"]
            tune["rungs"].append(
                {
                    key: event[key]
                    for key in ("rung", "budget", "trials", "promoted", "killed")
                    if key in event
                }
            )
            for trial_id in event.get("killed", []):
                entry = tune["trials"].setdefault(
                    trial_id,
                    {"params": {}, "rungs": {}, "epochs": 0, "killed_at": None},
                )
                entry["killed_at"] = event.get("rung")
        elif kind == "tune_result":
            summary["tune"]["best_trial"] = event.get("best_trial")
            summary["tune"]["best_rmse"] = event.get("best_rmse")
        elif kind == "merge":
            summary["daemon"]["truncated_shards"] = event.get(
                "truncated_shards", []
            )
            summary["daemon"]["dropped_lines"] = event.get("dropped_lines", 0)
    if summary["seconds"] > 0:
        summary["samples_per_sec"] = summary["samples"] / summary["seconds"]
    serving = summary["serving"]
    lookups = serving["cache_hits"] + serving["cache_misses"]
    if lookups:
        serving["hit_rate"] = serving["cache_hits"] / lookups
    if serving["score_seconds"]:
        latencies = np.asarray(serving["score_seconds"], dtype=np.float64)
        serving["score_p50"] = float(np.percentile(latencies, 50))
        serving["score_p95"] = float(np.percentile(latencies, 95))
        total_seconds = float(latencies.sum())
        if total_seconds > 0:
            serving["pairs_per_sec"] = serving["pairs"] / total_seconds
            serving["items_per_sec"] = serving["items_ranked"] / total_seconds
    ann = summary["ann"]
    if ann["probe_seconds"]:
        latencies = np.asarray(ann["probe_seconds"], dtype=np.float64)
        ann["probe_p50"] = float(np.percentile(latencies, 50))
        ann["probe_p95"] = float(np.percentile(latencies, 95))
    if ann["catalog_scanned"]:
        ann["scan_fraction"] = ann["candidates"] / ann["catalog_scanned"]
    return summary


def _format_seconds(seconds: float) -> str:
    return f"{seconds:8.3f}s"


def _format_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" else f"{count:.0f} B"
        count /= 1024
    return f"{count:.1f} GiB"


def render_report(events: list[dict]) -> str:
    """Render the run summary as the plain-text report the CLI prints."""
    summary = summarize_run(events)
    lines = [
        f"run {summary['run'] or '<unknown>'} — "
        f"status: {summary['status'] or 'in progress'}",
        f"epochs: {summary['epochs']}  samples: {summary['samples']:.0f}  "
        f"wall-clock: {summary['seconds']:.2f}s  "
        f"throughput: {summary['samples_per_sec']:.1f} samples/s",
    ]

    if summary["phases"]:
        # Share is relative to total traced wall-clock (the sum of top-level
        # spans), so a parent like ``epoch`` reads ~100% and its nested
        # phases read as fractions of it — not a double-counting sum.
        top_level = [
            entry["inclusive_seconds"]
            for path, entry in summary["spans"].items()
            if "/" not in path
        ]
        total = sum(top_level) if top_level else sum(summary["phases"].values())
        lines.append("")
        lines.append("phase time breakdown")
        width = max(len(name) for name in summary["phases"])
        for name, seconds in sorted(
            summary["phases"].items(), key=lambda kv: -kv[1]
        ):
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(
                f"  {name:<{width}s} {_format_seconds(seconds)} {share:5.1f}%"
            )

    if summary["health"]:
        lines.append("")
        lines.append("health events")
        for name, count in sorted(summary["health"].items()):
            lines.append(f"  {name:<16s} {count}")

    if summary["final"]:
        lines.append("")
        final = summary["final"]
        parts = [f"epoch {final.get('epoch', '?')}"]
        if "total" in final:
            parts.append(f"loss {final['total']:.4f}")
        if final.get("valid_rmse") is not None:
            parts.append(f"valid RMSE {final['valid_rmse']:.4f}")
        if "samples_per_sec" in final:
            parts.append(f"{final['samples_per_sec']:.1f} samples/s")
        if "rng" in final:
            parts.append(f"rng {final['rng']}")
        lines.append("final metrics: " + "  ".join(parts))

    if summary["alloc"]:
        alloc = summary["alloc"]
        hits = alloc.get("arena_hits", 0)
        misses = alloc.get("arena_misses", 0)
        requests = hits + misses
        hit_rate = hits / requests if requests else 0.0
        parts = [
            f"peak {_format_bytes(alloc.get('peak_bytes', 0))}/step",
            f"arena {hit_rate:.1%} hit ({hits}/{requests})",
            f"fused {alloc.get('fused_ops', 0)} ops",
            f"fwd {_format_bytes(alloc.get('graph_bytes', 0))}",
            f"bwd {_format_bytes(alloc.get('backward_bytes', 0))}",
        ]
        lines.append("allocation: " + "  ".join(parts))

    if summary["trials"]:
        lines.append("")
        lines.append("evaluation trials")
        for trial in summary["trials"]:
            lines.append(
                f"  {trial.get('method', '?'):<12s} trial {trial.get('trial', '?')} "
                f"(seed {trial.get('seed', '?')}): "
                f"RMSE {trial.get('rmse', float('nan')):.3f}  "
                f"MAE {trial.get('mae', float('nan')):.3f}"
            )

    if summary["workers"]:
        lines.append("")
        total_tasks = sum(summary["tasks"].values())
        lines.append(
            f"worker utilization ({len(summary['workers'])} workers, "
            f"{total_tasks} tasks, {summary['tasks'].get('error', 0)} errors)"
        )
        for worker, stats in sorted(summary["workers"].items(), key=lambda kv: str(kv[0])):
            lines.append(
                f"  worker {worker}: busy {stats['busy_seconds']:.2f}s  "
                f"idle {stats['idle_seconds']:.2f}s  "
                f"tasks {stats['tasks_done']}  "
                f"utilization {100.0 * stats['utilization']:.1f}%"
            )

    serving = summary["serving"]
    if serving["score_calls"] or serving["recommend_calls"]:
        lines.append("")
        lookups = serving["cache_hits"] + serving["cache_misses"]
        lines.append(
            f"serving engine ({serving['score_calls']} score calls, "
            f"{serving['recommend_calls']} recommend calls)"
        )
        lines.append(
            f"  pairs scored {serving['pairs']}  "
            f"cache hits {serving['cache_hits']}/{lookups} "
            f"({100.0 * serving['hit_rate']:.1f}%)"
        )
        lines.append(
            f"  latency p50 {serving['score_p50'] * 1000.0:.1f}ms  "
            f"p95 {serving['score_p95'] * 1000.0:.1f}ms  "
            f"throughput {serving['pairs_per_sec']:.0f} pairs/s"
        )
        if serving["recommend_calls"]:
            lines.append(
                f"  catalog ranking: {serving['items_ranked']} items "
                f"({serving['items_per_sec']:.0f} items/s)  "
                f"index encodes {serving['index_items']}"
            )
        if serving["users_encoded"]:
            lines.append(f"  users pre-encoded: {serving['users_encoded']}")

    tune = summary["tune"]
    if tune["trials"]:
        lines.append("")
        best = tune["best_trial"]
        header = f"hyperparameter tuning ({len(tune['trials'])} trials"
        if tune["rungs"]:
            header += f", {len(tune['rungs'])} rungs"
        if best is not None and tune["best_rmse"] is not None:
            header += f"; best trial {best} @ RMSE {tune['best_rmse']:.4f}"
        lines.append(header + ")")
        for rung in tune["rungs"]:
            lines.append(
                f"  rung {rung.get('rung', '?')} "
                f"(budget {rung.get('budget', '?')} epochs): "
                f"{len(rung.get('trials', []))} trials -> "
                f"promoted {len(rung.get('promoted', []))}, "
                f"killed {len(rung.get('killed', []))}"
            )
        # Figure-4-style sensitivity table: hyperparameter assignments
        # against validation RMSE at each rung budget.
        param_names = sorted(
            {name for entry in tune["trials"].values() for name in entry["params"]}
        )
        rung_ids = sorted(
            {r for entry in tune["trials"].values() for r in entry["rungs"]}
        )

        def _cell(value) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        rows = []
        for trial_id in sorted(tune["trials"]):
            entry = tune["trials"][trial_id]
            if best is not None and trial_id == best:
                status = "best"
            elif entry["killed_at"] is not None:
                status = f"killed@r{entry['killed_at']}"
            else:
                status = "finalist"
            rows.append(
                [str(trial_id)]
                + [_cell(entry["params"].get(name)) for name in param_names]
                + [_cell(entry["rungs"].get(r)) for r in rung_ids]
                + [status]
            )
        columns = ["trial"] + param_names + [f"r{r}" for r in rung_ids] + ["status"]
        widths = [
            max(len(columns[i]), *(len(row[i]) for row in rows))
            for i in range(len(columns))
        ]
        lines.append("  sensitivity table (validation RMSE per rung budget)")
        lines.append(
            "  " + "  ".join(col.rjust(w) for col, w in zip(columns, widths))
        )
        for row in rows:
            lines.append(
                "  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )

    ann = summary["ann"]
    if ann["builds"] or ann["probes"]:
        lines.append("")
        lines.append(
            f"ann retrieval ({ann['builds']} index builds, "
            f"{ann['probes']} probes)"
        )
        if ann["builds"]:
            ratio = (
                ann["float32_bytes"] / ann["store_bytes"]
                if ann["store_bytes"]
                else 0.0
            )
            lines.append(
                f"  coarse index: nlist {ann['nlist']}  "
                f"store {ann['store'] or '?'} "
                f"({ann['store_bytes']} bytes, {ratio:.1f}x vs float32)  "
                f"build {ann['build_seconds']:.2f}s"
            )
        if ann["probes"]:
            lines.append(
                f"  candidates scored: {ann['candidates']}/"
                f"{ann['catalog_scanned']} catalog rows "
                f"({100.0 * ann['scan_fraction']:.1f}% scanned)  "
                f"probe p50 {ann['probe_p50'] * 1000.0:.1f}ms  "
                f"p95 {ann['probe_p95'] * 1000.0:.1f}ms"
            )
        if ann["recall"] is not None:
            lines.append(
                f"  measured recall@{ann['recall_k']}: {ann['recall']:.3f}"
            )

    daemon = summary["daemon"]
    if daemon["started"]:
        lines.append("")
        lines.append(
            f"serving daemon ({daemon['workers']} workers, "
            f"catalog {daemon['catalog']})"
        )
        lines.append(
            f"  requests {daemon['received']}  ok {daemon['completed']}  "
            f"shed {daemon['shed']}  timeouts {daemon['timeouts']}  "
            f"errors {daemon['errors']}"
        )
        if daemon["deaths"] or daemon["stall_kills"] or daemon["degrades"]:
            lines.append(
                f"  chaos absorbed: deaths {daemon['deaths']} "
                f"(requeued {daemon['requeues']})  "
                f"stall kills {daemon['stall_kills']}  "
                f"degrades {daemon['degrades']} "
                f"(max level {daemon['max_level']})"
            )
    if daemon["dropped_lines"]:
        shards = ", ".join(daemon["truncated_shards"])
        prefix = "  " if daemon["started"] else ""
        if not daemon["started"]:
            lines.append("")
        lines.append(
            f"{prefix}telemetry loss: {daemon['dropped_lines']} torn "
            f"line(s) dropped from {shards}"
        )

    if summary["checkpoints"]:
        lines.append("")
        lines.append(f"checkpoints written: {summary['checkpoints']}")
    return "\n".join(lines)
