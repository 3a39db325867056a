"""Hierarchical tracing spans: nested wall-clock with exclusive time.

:class:`SpanTracer` keeps a *tree* keyed by the span path (e.g.
``epoch/forward``), so a run summary can show both how long each phase took
in total (:meth:`SpanTracer.totals`, one flat ``seconds`` per name) and
where inside the run it was spent. Exclusive time — a span's inclusive
wall-clock minus its children's — is derived at summary time, which keeps
the enter/exit hot path to a couple of dict operations.

Re-entrant spans: per-name totals accumulate only at nesting depth 0, so
``span("forward")`` inside ``span("forward")`` never double-counts the same
wall-clock.

The trainer times each phase once and hands the measured duration to
:meth:`SpanTracer.exit` (via :meth:`SpanTracer.enter`'s token).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = ["SpanTracer"]

#: Separator for rendering span paths ("epoch/forward").
PATH_SEP = "/"


class SpanTracer:
    """Accumulates a tree of ``{span path: (inclusive seconds, calls)}``."""

    def __init__(self) -> None:
        self._stack: list[str] = []
        self._inclusive: dict[tuple[str, ...], float] = {}
        self._calls: dict[tuple[str, ...], int] = {}
        self._depth: dict[str, int] = {}
        self._totals: dict[str, float] = {}
        self._total_calls: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def enter(self, name: str) -> tuple[str, ...]:
        """Open a span named ``name`` under the currently-open spans.

        Returns the span's path token; pass it (with the measured duration)
        to :meth:`exit`. Use this two-call form when the caller owns the
        timing — e.g. to feed one measurement to several consumers — and
        :meth:`span` when the tracer should time the block itself.
        """
        self._stack.append(name)
        self._depth[name] = self._depth.get(name, 0) + 1
        return tuple(self._stack)

    def exit(self, token: tuple[str, ...], elapsed: float) -> None:
        """Close the span opened as ``token``, crediting ``elapsed`` seconds."""
        if not self._stack or tuple(self._stack) != token:
            raise RuntimeError(
                f"span exit out of order: closing {PATH_SEP.join(token)!r} but "
                f"open stack is {PATH_SEP.join(self._stack)!r}"
            )
        name = self._stack.pop()
        depth = self._depth[name] - 1
        self._depth[name] = depth
        self._inclusive[token] = self._inclusive.get(token, 0.0) + elapsed
        self._calls[token] = self._calls.get(token, 0) + 1
        self._total_calls[name] = self._total_calls.get(name, 0) + 1
        if depth == 0:
            self._totals[name] = self._totals.get(name, 0.0) + elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a child of the currently-open spans."""
        token = self.enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.exit(token, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Per-name wall-clock totals, depth-0 only (flat, not per path)."""
        return dict(self._totals)

    def call_counts(self) -> dict[str, int]:
        """Per-name call counts (every entry, including re-entrant ones)."""
        return dict(self._total_calls)

    def summary(self) -> dict[str, dict[str, float]]:
        """``{path: {"calls", "inclusive_seconds", "exclusive_seconds"}}``.

        ``exclusive_seconds`` is the path's inclusive time minus the
        inclusive time of its direct children — the time spent in the span
        itself rather than in any traced sub-phase.
        """
        children_total: dict[tuple[str, ...], float] = {}
        for path, seconds in self._inclusive.items():
            if len(path) > 1:
                parent = path[:-1]
                children_total[parent] = children_total.get(parent, 0.0) + seconds
        return {
            PATH_SEP.join(path): {
                "calls": self._calls[path],
                "inclusive_seconds": seconds,
                "exclusive_seconds": seconds - children_total.get(path, 0.0),
            }
            for path, seconds in sorted(self._inclusive.items())
        }

    def tree(self) -> dict:
        """Nested ``{name: {"seconds", "calls", "children": {...}}}`` view."""
        root: dict = {}
        for path, seconds in sorted(self._inclusive.items()):
            level = root
            for part in path[:-1]:
                level = level.setdefault(
                    part, {"seconds": 0.0, "calls": 0, "children": {}}
                )["children"]
            node = level.setdefault(
                path[-1], {"seconds": 0.0, "calls": 0, "children": {}}
            )
            node["seconds"] += seconds
            node["calls"] += self._calls[path]
        return root

    def reset(self) -> None:
        """Drop all spans (any open spans are abandoned)."""
        self._stack.clear()
        self._inclusive.clear()
        self._calls.clear()
        self._depth.clear()
        self._totals.clear()
        self._total_calls.clear()
