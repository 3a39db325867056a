"""Run metrics: counters, gauges, and streaming histograms.

The :class:`MetricsRegistry` is the in-memory side of the observability
layer. The trainer feeds it per-batch (loss, gradient norm, learning rate)
and per-epoch (throughput, validation RMSE, RNG-stream checksum) values;
at run end its :meth:`~MetricsRegistry.snapshot` is emitted into the
telemetry stream as one ``metrics`` event (component ``trainer``).

Design constraints, in order: updates must be cheap enough to sit on the
training hot path (a dict lookup and a couple of float ops), the state must
be JSON-serializable as-is, and histograms must stay bounded — they keep
exact streaming aggregates (count/sum/min/max/last) plus a fixed-size
window of recent observations for percentile estimates.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["MetricsRegistry"]

#: Observations retained per histogram for percentile estimation.
_WINDOW = 512


class _Histogram:
    """Streaming aggregate of one observed series."""

    __slots__ = ("count", "total", "minimum", "maximum", "last", "recent")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.last = float("nan")
        self.recent: deque[float] = deque(maxlen=_WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.last = value
        self.recent.append(value)

    def summary(self) -> dict[str, float]:
        window = np.asarray(self.recent, dtype=np.float64)
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
            "last": self.last,
            "p50": float(np.percentile(window, 50)),
            "p95": float(np.percentile(window, 95)),
        }


class MetricsRegistry:
    """Named counters (monotone), gauges (last value), and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float | str] = {}
        self._histograms: dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # Updates (hot path)
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (non-negative) to counter ``name``."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be non-negative")
        self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float | str) -> None:
        """Record the current value of ``name`` (numbers, or short strings
        for identity-style gauges like RNG-stream checksums)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one observation to histogram ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = _Histogram()
        hist.observe(float(value))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current counter value (0.0 when never incremented)."""
        return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | str | None:
        """Current gauge value (None when never set)."""
        return self._gauges.get(name)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready state: ``{"counters", "gauges", "histograms"}``."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: hist.summary() for name, hist in self._histograms.items()
            },
        }

    def reset(self) -> None:
        """Drop all recorded state."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
