"""Bounded LRU cache of per-user rating-head inputs.

For steady-state serving the expensive part of a cold-start prediction is
everything *upstream* of the rating head: auxiliary-document generation,
tokenization, and two CNN extractor passes. All of it collapses into two
vectors per user — the mode-specific ``(invariant, user_repr)`` pair from
:meth:`OmniMatchModel._rating_inputs`, which training feeds to
``rating_logits`` and serving folds into the head's first layer
(:func:`repro.serve.blocking.score_user_rows`) — so the cache stores
exactly those rows.

The cache is bounded (default 4096 users ~ a few MB) with LRU eviction:
serving millions of users cannot hold every representation resident, but a
traffic mixture is heavily repeat-skewed, so the working set stays hot.
Because every fill goes through the canonical blocked encoder
(``repro.serve.blocking``), an evicted-then-re-encoded user gets back the
bit-identical vectors — eviction changes cost, never predictions.

``warm()`` pre-encodes a user list in large blocks, the deployment move for
a known evaluation set or an anticipated traffic cohort.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Sequence

import numpy as np

from ..obs import MetricsRegistry

__all__ = ["UserReprCache"]

#: Default maximum resident users.
DEFAULT_CAPACITY = 4096


class UserReprCache:
    """LRU over ``user_id -> (invariant_row, user_repr_row)``."""

    def __init__(
        self,
        encode_users: Callable[[Sequence[str]], tuple[np.ndarray, np.ndarray]],
        capacity: int = DEFAULT_CAPACITY,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """``encode_users`` maps a batch of user ids to the stacked
        ``(invariant, user_repr)`` matrices, one row per user, and must be
        deterministic per user regardless of batch composition (the engine's
        blocked encoder guarantees this)."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.encode_users = encode_users
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._entries

    @property
    def hits(self) -> int:
        return int(self.metrics.counter("serve.cache.hits"))

    @property
    def misses(self) -> int:
        return int(self.metrics.counter("serve.cache.misses"))

    @property
    def evictions(self) -> int:
        return int(self.metrics.counter("serve.cache.evictions"))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    def _insert(self, user_id: str, invariant: np.ndarray, user_repr: np.ndarray) -> None:
        self._entries[user_id] = (invariant, user_repr)
        self._entries.move_to_end(user_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.metrics.inc("serve.cache.evictions")

    def _fill(self, user_ids: Sequence[str]) -> None:
        """Encode ``user_ids`` (deduplicated, order-preserving) and insert."""
        unique = list(dict.fromkeys(user_ids))
        if not unique:
            return
        invariant, user_repr = self.encode_users(unique)
        for row, user_id in enumerate(unique):
            self._insert(user_id, invariant[row], user_repr[row])

    def warm(self, user_ids: Iterable[str]) -> int:
        """Pre-encode ``user_ids`` not yet resident; returns how many were
        encoded. Warming counts neither hits nor misses."""
        missing = [u for u in dict.fromkeys(user_ids) if u not in self._entries]
        self._fill(missing)
        return len(missing)

    def get_many(self, user_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(invariant, user_repr)`` rows aligned with ``user_ids``
        (duplicates welcome); encodes all misses in one blocked batch.

        One miss is counted per unique user encoded; every other occurrence
        is a hit (it is served from the cached row).
        """
        # Pin every row this call needs in a call-local map first: inserting
        # freshly encoded users below may evict resident entries (including
        # ones this very request hit) when unique users exceed the capacity.
        pinned: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        missing = []
        for user_id in dict.fromkeys(user_ids):
            entry = self._entries.get(user_id)
            if entry is None:
                missing.append(user_id)
            else:
                pinned[user_id] = entry
                self._entries.move_to_end(user_id)
        if missing:
            invariant, user_repr = self.encode_users(missing)
            for row, user_id in enumerate(missing):
                pinned[user_id] = (invariant[row], user_repr[row])
                self._insert(user_id, invariant[row], user_repr[row])
        self.metrics.inc("serve.cache.misses", len(missing))
        if len(user_ids) > len(missing):
            self.metrics.inc("serve.cache.hits", len(user_ids) - len(missing))
        invariant_rows = []
        repr_rows = []
        for user_id in user_ids:
            entry = pinned[user_id]
            invariant_rows.append(entry[0])
            repr_rows.append(entry[1])
        return np.stack(invariant_rows), np.stack(repr_rows)

    def evict(self, user_id: str) -> bool:
        """Drop one user (e.g. after their profile changed); True if present."""
        if user_id in self._entries:
            del self._entries[user_id]
            return True
        return False

    def clear(self) -> None:
        self._entries.clear()
