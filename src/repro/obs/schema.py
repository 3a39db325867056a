"""Telemetry event schema: the contract a ``run.jsonl`` must honor.

Every event carries the base fields written by
:class:`repro.obs.TelemetrySink` — ``seq`` (int, strictly increasing per
run id), ``ts`` (number), ``run`` (str), ``kind`` (str) — and each known
kind additionally requires the payload fields listed in :data:`EVENT_FIELDS`.
Extra fields are always allowed (events are forward-extensible); unknown
kinds and missing required fields are not.

:func:`validate_run_file` is what the CI observability job (and the
integration tests) run against an emitted telemetry file: it parses every
event, checks each against the schema, verifies the per-run ``seq``
ordering, and returns a small census of what the run contained.
"""

from __future__ import annotations

import os
from collections import Counter

from .telemetry import read_events

__all__ = [
    "EVENT_FIELDS",
    "TelemetrySchemaError",
    "validate_event",
    "validate_run_file",
]


class TelemetrySchemaError(ValueError):
    """An event (or a run file) violates the telemetry schema."""


#: Required payload fields per event kind (base fields are always required).
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    # Run lifecycle (trainer)
    "run_start": ("seed", "epochs", "train_interactions"),
    "batch": ("epoch", "batch", "loss", "grad_norm", "lr"),
    "epoch": ("epoch", "seconds", "samples", "samples_per_sec", "total"),
    "health": ("epoch", "health_kind"),
    "span_summary": ("totals", "spans"),
    "metrics_summary": ("counters", "gauges", "histograms"),
    "run_end": ("status", "epochs_trained"),
    # Checkpoint lifecycle (repro.core.checkpoint)
    "checkpoint_write": ("path", "epoch"),
    "checkpoint_read": ("path", "epoch"),
    "checkpoint_prune": ("removed",),
    # Evaluation protocol (repro.eval.protocol)
    "trial": ("method", "trial", "seed", "rmse", "mae"),
    "experiment": ("method", "scenario", "rmse", "mae", "trials"),
    # Dataset I/O (repro.data.io)
    "dataset_load": ("path", "domain", "records"),
    "dataset_save": ("path", "domain", "records"),
    # Task pool workers (repro.parallel.pool / repro.obs.merge); engine
    # cells add method/scenario labels to "task"
    "worker_start": ("worker", "generation"),
    "worker_end": ("worker", "busy_seconds", "idle_seconds", "tasks_done"),
    "task": ("task", "worker", "status", "seconds"),
    "merge": ("shards", "events"),
    # No longer emitted; kept so run.jsonl files that carry it still validate
    "pool_task": ("task", "worker", "status", "seconds"),
    # Hyperparameter tuner (repro.tune)
    "tune_trial": ("trial", "rung", "status"),
    "tune_rung": ("rung", "budget", "trials", "promoted", "killed"),
    "tune_result": ("best_trial", "best_rmse", "trials"),
    # Serving engine (repro.serve.engine)
    "serve_index": ("items", "catalog", "seconds"),
    "serve_encode_users": ("users", "seconds"),
    "serve_score": ("pairs", "seconds", "cache_hits", "cache_misses"),
    "serve_recommend": ("user", "k", "catalog", "seconds"),
    # Approximate retrieval (repro.serve.ann via the engine)
    "serve_ann_build": ("items", "nlist", "iters", "store", "seconds"),
    "serve_ann_probe": ("user", "k", "nprobe", "candidates", "catalog", "seconds"),
    "serve_ann_recall": ("users", "k", "recall"),
    # Serving daemon (repro.serve.daemon)
    "daemon_start": ("workers", "catalog", "port"),
    "daemon_worker_ready": ("slot", "generation"),
    "daemon_worker_death": ("slot", "generation", "exitcode", "requeued"),
    "daemon_requeue": ("job", "slot", "attempt"),
    "daemon_stall_kill": ("slot", "generation", "age_seconds"),
    "daemon_degrade": ("level", "previous", "depth"),
    "daemon_stats": ("received", "completed", "shed", "timeouts", "errors", "depth", "level"),
    "daemon_stop": ("received", "completed", "shed", "timeouts", "errors", "deaths"),
}

_BASE_FIELDS = ("seq", "ts", "run", "kind")


def validate_event(event: object) -> dict:
    """Check one event against the schema; returns it on success."""
    if not isinstance(event, dict):
        raise TelemetrySchemaError(f"event is not a JSON object: {event!r}")
    for name in _BASE_FIELDS:
        if name not in event:
            raise TelemetrySchemaError(f"event missing base field {name!r}: {event!r}")
    if not isinstance(event["seq"], int) or isinstance(event["seq"], bool):
        raise TelemetrySchemaError(f"seq must be an integer: {event['seq']!r}")
    if event["seq"] < 0:
        raise TelemetrySchemaError(f"seq must be non-negative: {event['seq']!r}")
    if not isinstance(event["ts"], (int, float)) or isinstance(event["ts"], bool):
        raise TelemetrySchemaError(f"ts must be a number: {event['ts']!r}")
    if not isinstance(event["run"], str) or not event["run"]:
        raise TelemetrySchemaError(f"run must be a non-empty string: {event['run']!r}")
    kind = event["kind"]
    if kind not in EVENT_FIELDS:
        raise TelemetrySchemaError(
            f"unknown event kind {kind!r} (known: {', '.join(sorted(EVENT_FIELDS))})"
        )
    missing = [name for name in EVENT_FIELDS[kind] if name not in event]
    if missing:
        raise TelemetrySchemaError(
            f"event kind {kind!r} missing required field(s): {', '.join(missing)}"
        )
    return event


def validate_run_file(path: str | os.PathLike) -> dict:
    """Validate every event in a telemetry file (plus rotated segments).

    Returns ``{"events": total, "runs": n, "kinds": {kind: count}}``.
    Raises :class:`TelemetrySchemaError` on any schema violation, including
    a non-increasing ``seq`` within one run id, and ``ValueError`` on a
    malformed line that is not the tolerated torn tail.
    """
    events = read_events(path)
    if not events:
        raise TelemetrySchemaError(f"{path}: no telemetry events")
    last_seq: dict[str, int] = {}
    kinds: Counter[str] = Counter()
    for position, event in enumerate(events):
        try:
            validate_event(event)
        except TelemetrySchemaError as error:
            raise TelemetrySchemaError(f"{path}: event {position}: {error}") from None
        run = event["run"]
        if run in last_seq and event["seq"] <= last_seq[run]:
            raise TelemetrySchemaError(
                f"{path}: event {position}: seq {event['seq']} not increasing "
                f"for run {run!r} (previous {last_seq[run]})"
            )
        last_seq[run] = event["seq"]
        kinds[event["kind"]] += 1
    return {"events": len(events), "runs": len(last_seq), "kinds": dict(kinds)}
