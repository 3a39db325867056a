"""``repro.obs`` — structured observability for training and evaluation.

Four pieces, composable but separable:

* :class:`MetricsRegistry` — counters / gauges / histograms updated on the
  training hot path (batch loss, grad norm, learning rate, samples/s,
  RNG-stream checksums);
* :class:`SpanTracer` — hierarchical wall-clock spans with inclusive and
  exclusive time, plus flat per-name totals;
* :class:`TelemetrySink` — one run's append-only ``run.jsonl`` event
  stream (crash-tolerant line appends, size-based rotation), with an
  ambient active-sink stack (:func:`use_sink` / :func:`emit_event`) so
  leaf modules can publish without plumbing;
* the schema (:func:`validate_event` / :func:`validate_run_file`) and the
  report renderer (:func:`render_report`) behind ``repro report``.
"""

from .merge import find_shards, merge_shards, merged_events
from .metrics import MetricsRegistry
from .report import load_run_events, render_report, summarize_run
from .schema import (
    EVENT_FIELDS,
    TelemetrySchemaError,
    validate_event,
    validate_run_file,
)
from .telemetry import (
    TelemetrySink,
    emit_event,
    get_active_sink,
    read_events,
    use_sink,
)
from .tracing import SpanTracer

__all__ = [
    "MetricsRegistry",
    "SpanTracer",
    "TelemetrySink",
    "emit_event",
    "get_active_sink",
    "use_sink",
    "read_events",
    "EVENT_FIELDS",
    "TelemetrySchemaError",
    "validate_event",
    "validate_run_file",
    "load_run_events",
    "summarize_run",
    "render_report",
    "find_shards",
    "merged_events",
    "merge_shards",
]
