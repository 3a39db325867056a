"""Throughput arithmetic and benchmark report writing.

The benchmarks under ``benchmarks/`` turn measured wall-clock into
samples (or pairs) per second with :func:`throughput` and write their
``BENCH_*.json`` reports with :func:`write_report`, so every change has a
perf trajectory to regress against. Per-phase training time (batch assembly,
forward, backward, optimizer step) comes from the trainer's
:class:`repro.obs.SpanTracer` (``trainer.tracer.totals()``).
"""

from __future__ import annotations

import json
import os

__all__ = ["throughput", "write_report"]


def throughput(samples: int, seconds: float) -> float:
    """Samples per second, 0.0 when no time elapsed (or negative skew)."""
    return samples / seconds if seconds > 0 else 0.0


def write_report(path: str | os.PathLike, payload: dict) -> None:
    """Write a benchmark payload as pretty-printed JSON, atomically.

    The payload is serialized in full before any byte reaches disk and the
    file is replaced via temp-file + fsync + rename
    (:func:`repro.atomicio.atomic_write_text`), so a crash — or an
    unserializable payload — mid-write never truncates an existing report.
    """
    from .atomicio import atomic_write_text  # local import: keep module light

    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
