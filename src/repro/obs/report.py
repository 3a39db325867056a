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

from .schema import translate_events
from .telemetry import DEFAULT_FILENAME, read_events

__all__ = ["load_run_events", "summarize_run", "render_report"]

#: Numeric span fields that are not amounts to sum (``calls`` is summed
#: apart, with its default of 1).
_NOT_SUMMED = frozenset({"seq", "ts", "calls"})


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

    Events of retired kinds are first read as today's (see
    :data:`repro.obs.schema.RETIRED_KINDS`). Keys: ``run`` / ``status`` /
    ``epochs`` (count) / ``samples`` / ``seconds`` / ``samples_per_sec`` /
    ``spans`` (``{component: {name: row}}``: summed ``calls``, ``seconds``
    and numeric fields, plus per-call ``p50``/``p95`` when every event of
    the group is a single call) / ``metrics`` (``{component: latest
    snapshot}``) / ``health`` (counts by health kind) / ``final`` (last
    epoch's metrics) / ``alloc`` (summed per-epoch allocation counters, when
    the run emitted them) / ``trials``
    (evaluation results) / ``checkpoints`` (written count) / ``workers`` /
    ``tasks`` / ``daemon`` / ``tune``.
    """
    summary: dict = {
        "run": next((event["run"] for event in events if "run" in event), None),
        "status": None,
        "epochs": 0,
        "samples": 0.0,
        "seconds": 0.0,
        "samples_per_sec": 0.0,
        "spans": {},
        "metrics": {},
        "health": {},
        "final": {},
        "alloc": None,
        "trials": [],
        "experiments": [],
        "checkpoints": 0,
        "workers": {},
        "tasks": {"ok": 0, "error": 0},
        "daemon": {
            "started": False,
            "workers": 0,
            "catalog": 0,
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
    }
    # Per-call seconds of each span group, or None once a multi-call event
    # joined it; and one entry per dead (run, worker, generation).
    call_seconds: dict[tuple, list[float] | None] = {}
    deaths: dict[tuple, list] = {}
    for event in translate_events(events):
        kind = event.get("kind")
        if kind == "span":
            component, name = event["component"], event["name"]
            row = summary["spans"].setdefault(component, {}).setdefault(
                name, {"calls": 0, "seconds": 0.0}
            )
            calls = event.get("calls", 1)
            row["calls"] += calls
            for key, value in event.items():
                if (
                    key not in _NOT_SUMMED
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)
                ):
                    row[key] = row.get(key, 0) + value
            group = (component, name)
            seconds = call_seconds.setdefault(group, [])
            if seconds is not None and calls == 1:
                seconds.append(float(event["seconds"]))
            else:
                call_seconds[group] = None
        elif kind == "metrics":
            summary["metrics"][event["component"]] = {
                key: event[key] for key in ("counters", "gauges", "histograms")
            }
        elif kind == "epoch":
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
        elif kind == "daemon_start":
            daemon = summary["daemon"]
            daemon["started"] = True
            daemon["workers"] = event.get("workers", 0)
            daemon["catalog"] = event.get("catalog", 0)
        elif kind == "worker_death":
            death = deaths.setdefault(
                (event.get("run"), event.get("worker"), event.get("generation")),
                [0, False],
            )
            death[0] += event.get("requeued", 0)
            death[1] = death[1] or bool(event.get("stalled", False))
        elif kind == "daemon_degrade":
            daemon = summary["daemon"]
            daemon["degrades"] += 1
            daemon["max_level"] = max(daemon["max_level"], event.get("level", 0))
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
    for (component, name), seconds in call_seconds.items():
        if seconds:
            row = summary["spans"][component][name]
            row["p50"] = float(np.percentile(seconds, 50))
            row["p95"] = float(np.percentile(seconds, 95))
    daemon = summary["daemon"]
    daemon["deaths"] = len(deaths)
    daemon["requeues"] = sum(requeued for requeued, _ in deaths.values())
    daemon["stall_kills"] = sum(stalled for _, stalled in deaths.values())
    return summary


def _format_fields(fields: dict) -> str:
    """``  name=value`` pairs in name order (fractions to 4 significant
    digits; counters kept as floats print as integers)."""
    parts = []
    for key, value in sorted(fields.items()):
        if isinstance(value, float):
            value = int(value) if value.is_integer() else f"{value:.4g}"
        parts.append(f"  {key}={value}")
    return "".join(parts)


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

    if summary["spans"]:
        lines.append("")
        lines.append("spans (calls, seconds, per-call p50/p95, summed counts)")
        rows = [
            (component, name, row)
            for component, names in sorted(summary["spans"].items())
            for name, row in sorted(names.items())
        ]
        widths = [max(len(row[i]) for row in rows) for i in (0, 1)]
        for component, name, row in rows:
            text = (
                f"  {component:<{widths[0]}s}  {name:<{widths[1]}s} "
                f"{row['calls']:6d} {row['seconds']:8.3f}s"
            )
            if "p50" in row:
                text += (
                    f"  p50 {row['p50'] * 1000.0:.1f}ms"
                    f"  p95 {row['p95'] * 1000.0:.1f}ms"
                )
            counts = {
                key: value for key, value in row.items()
                if key not in ("calls", "seconds", "p50", "p95")
            }
            lines.append(text + _format_fields(counts))

    for component, snapshot in sorted(summary["metrics"].items()):
        lines.append("")
        lines.append(f"metrics: {component}")
        for section in ("counters", "gauges"):
            if snapshot[section]:
                lines.append(f"  {section}:" + _format_fields(snapshot[section]))
        for name, hist in sorted(snapshot["histograms"].items()):
            lines.append(
                f"  histogram {name}: n={hist.get('count', 0)}"
                + "".join(
                    f"  {key} {hist[key]:.4g}" for key in ("p50", "p95") if key in hist
                )
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
        parts = [
            f"peak {_format_bytes(alloc.get('peak_bytes', 0))}/step",
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

    daemon = summary["daemon"]
    if daemon["started"]:
        lines.append("")
        lines.append(
            f"serving daemon ({daemon['workers']} workers, "
            f"catalog {daemon['catalog']})"
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
