"""Telemetry event schema: the contract a ``run.jsonl`` must honor.

Every event carries the base fields written by
:class:`repro.obs.TelemetrySink` — ``seq`` (int, strictly increasing per
run id), ``ts`` (number), ``run`` (str), ``kind`` (str) — and each known
kind additionally requires the payload fields listed in :data:`EVENT_FIELDS`.
Extra fields are always allowed (events are forward-extensible); unknown
kinds and missing required fields are not. Measurements take two generic
shapes, ``span`` and ``metrics``; the per-feature kinds they replaced are
in :data:`RETIRED_KINDS`, which gives each its required fields (so old
files still validate) and what it reads as (:func:`translate_events`).

:func:`validate_run_file` is what the CI observability job (and the
integration tests) run against an emitted telemetry file: it parses every
event, checks each against the schema, verifies the per-run ``seq``
ordering, and returns a small census of what the run contained.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple

from .telemetry import read_events

__all__ = [
    "EVENT_FIELDS",
    "RETIRED_KINDS",
    "TelemetrySchemaError",
    "translate_events",
    "validate_event",
    "validate_run_file",
]


class TelemetrySchemaError(ValueError):
    """An event (or a run file) violates the telemetry schema."""


#: Required payload fields per event kind (base fields are always required).
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    # Generic measurements: one or more calls of one named operation, and a
    # cumulative counters/gauges/histograms snapshot (the latest event per
    # component wins). Integer fields of a span are counts a reader sums.
    "span": ("component", "name", "seconds"),
    "metrics": ("component", "counters", "gauges", "histograms"),
    # Run lifecycle (trainer)
    "run_start": ("seed", "epochs", "train_interactions"),
    "batch": ("epoch", "batch", "loss", "grad_norm", "lr"),
    "epoch": ("epoch", "seconds", "samples", "samples_per_sec", "total"),
    "health": ("epoch", "health_kind"),
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
    # Worker fleets (repro.parallel.supervisor: the task pool and the
    # daemon; repro.obs.merge); engine cells add method/scenario labels to
    # "task"
    "worker_start": ("worker", "generation"),
    "worker_end": ("worker", "busy_seconds", "idle_seconds", "tasks_done"),
    "task": ("task", "worker", "status", "seconds"),
    "merge": ("shards", "events"),
    # Parent side of a worker fleet (repro.serve.daemon)
    "worker_death": ("worker", "generation", "exitcode", "requeued", "stalled"),
    # Hyperparameter tuner (repro.tune)
    "tune_trial": ("trial", "rung", "status"),
    "tune_rung": ("rung", "budget", "trials", "promoted", "killed"),
    "tune_result": ("best_trial", "best_rmse", "trials"),
    # Serving daemon (repro.serve.daemon)
    "daemon_start": ("workers", "catalog", "port"),
    "daemon_degrade": ("level", "previous", "depth"),
}


class Retired(NamedTuple):
    """A kind readers translate: its required fields as written, and the
    events of today's vocabulary it reads as."""

    fields: tuple[str, ...]
    translate: Callable[[dict], list[dict]]


def _as(kind: str, **fixed) -> Callable[[dict], list[dict]]:
    """Read an event as ``kind`` with ``fixed`` fields set (an old ``slot``
    is today's ``worker``)."""

    def translate(event: dict) -> list[dict]:
        out = {**event, "kind": kind, **fixed}
        if "slot" in out:
            out["worker"] = out.pop("slot")
        return [out]

    return translate


def _span(component: str, name: str, *counts: str) -> Callable[[dict], list[dict]]:
    """Read an event as one call of ``component``/``name`` with ``counts``."""

    def translate(event: dict) -> list[dict]:
        keep = ("seq", "ts", "run", "seconds", *counts)
        out = {key: event[key] for key in keep if key in event}
        return [{**out, "kind": "span", "component": component, "name": name}]

    return translate


def _metrics(component: str, counters=(), gauges=()) -> Callable[[dict], list[dict]]:
    """Read an event as a ``component`` snapshot of the named fields."""

    def translate(event: dict) -> list[dict]:
        out = {key: event[key] for key in ("seq", "ts", "run")}
        return [{
            **out, "kind": "metrics", "component": component, "histograms": {},
            "counters": {key: event[key] for key in counters if key in event},
            "gauges": {key: event[key] for key in gauges if key in event},
        }]

    return translate


def _trainer_spans(event: dict) -> list[dict]:
    return [
        {"seq": event["seq"], "ts": event["ts"], "run": event["run"],
         "kind": "span", "component": "trainer", "name": path,
         "calls": entry["calls"], "seconds": entry["inclusive_seconds"],
         "exclusive_seconds": entry["exclusive_seconds"]}
        for path, entry in event["spans"].items()
    ]


_DAEMON_COUNTERS = ("received", "completed", "shed", "timeouts", "errors", "deaths")

#: Every kind readers translate before summarizing, with its required
#: fields. All but ``serve_ann_build`` are retired: files that carry them
#: still validate and report. ``serve_ann_build`` is still emitted, under
#: its own name, because perfbench's trace reader takes the IVF build
#: time from it; readers translate it like the retired kinds.
RETIRED_KINDS: dict[str, Retired] = {
    "pool_task": Retired(("task", "worker", "status", "seconds"), _as("task")),
    "daemon_worker_ready": Retired(("slot", "generation"), _as("worker_start")),
    "daemon_worker_death": Retired(
        ("slot", "generation", "exitcode", "requeued"),
        _as("worker_death", stalled=False),
    ),
    # The requeue count rides on the death event.
    "daemon_requeue": Retired(("job", "slot", "attempt"), lambda event: []),
    # Files of that era log the watchdog's SIGKILL and the death it caused
    # as two events; readers count one death per (run, worker, generation).
    "daemon_stall_kill": Retired(
        ("slot", "generation", "age_seconds"),
        _as("worker_death", exitcode=None, requeued=0, stalled=True),
    ),
    "span_summary": Retired(("totals", "spans"), _trainer_spans),
    "metrics_summary": Retired(
        ("counters", "gauges", "histograms"), _as("metrics", component="trainer")
    ),
    "serve_index": Retired(
        ("items", "catalog", "seconds"),
        _span("serve.engine", "index", "items", "catalog"),
    ),
    "serve_encode_users": Retired(
        ("users", "seconds"), _span("serve.engine", "encode_users", "users")
    ),
    "serve_score": Retired(
        ("pairs", "seconds", "cache_hits", "cache_misses"),
        _span("serve.engine", "score", "pairs", "cache_hits", "cache_misses"),
    ),
    "serve_recommend": Retired(
        ("user", "k", "catalog", "seconds"),
        _span("serve.engine", "recommend", "catalog"),
    ),
    "serve_ann_build": Retired(
        ("items", "nlist", "iters", "store", "seconds"),
        _span("serve.ann", "build", "items", "store_bytes", "float32_bytes"),
    ),
    "serve_ann_probe": Retired(
        ("user", "k", "nprobe", "candidates", "catalog", "seconds"),
        _span("serve.ann", "probe", "candidates", "catalog"),
    ),
    "serve_ann_recall": Retired(
        ("users", "k", "recall"),
        _metrics("serve.ann", gauges=("recall", "k", "users", "nprobe")),
    ),
    "daemon_stats": Retired(
        ("received", "completed", "shed", "timeouts", "errors", "depth", "level"),
        _metrics("daemon", counters=_DAEMON_COUNTERS, gauges=("depth", "level")),
    ),
    "daemon_stop": Retired(
        _DAEMON_COUNTERS, _metrics("daemon", counters=_DAEMON_COUNTERS)
    ),
}


def translate_events(events: Iterable[dict]) -> Iterator[dict]:
    """``events`` in today's vocabulary: each kind of
    :data:`RETIRED_KINDS` is replaced by what it reads as."""
    for event in events:
        retired = RETIRED_KINDS.get(event.get("kind"))
        if retired is None:
            yield event
        else:
            yield from retired.translate(event)


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
    if kind in EVENT_FIELDS:
        required = EVENT_FIELDS[kind]
    elif kind in RETIRED_KINDS:
        required = RETIRED_KINDS[kind].fields
    else:
        known = sorted({*EVENT_FIELDS, *RETIRED_KINDS})
        raise TelemetrySchemaError(
            f"unknown event kind {kind!r} (known: {', '.join(known)})"
        )
    missing = [name for name in required if name not in event]
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
