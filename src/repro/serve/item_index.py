"""Item-representation index: the catalog side of the serving engine.

The OmniMatch rating head (Eq. 18) consumes items only through
``item_extractor(item_doc)`` — a per-item vector that never depends on the
user. The :class:`ItemIndex` therefore encodes each item exactly once and
holds the results in one contiguous ``(n_items, d)`` matrix, laid out so
the head's ``invariant * item_repr`` operand is a single broadcast multiply
against a slot-ordered row block (no per-pair gathers needed on the
full-catalog ranking path).

Encoding is lazy and blocked: ``rows(ids)`` materializes only the slots a
pair batch touches (what the eval protocol needs), while ``build()`` pushes
the whole catalog through the extractor in canonical blocks (what
``recommend`` needs). Either route produces bit-identical rows — see
``repro.serve.blocking`` for the invariant that makes this true.

Items outside the catalog (no visible target-domain reviews) are encoded
into an overflow side table from their all-padding documents, matching the
legacy predictor's behaviour of scoring any item id it is handed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .blocking import DEFAULT_BLOCK, encode_blocked, inference_mode

__all__ = ["ItemIndex"]


class ItemIndex:
    """Encode-once item representations over a fixed catalog."""

    def __init__(
        self,
        model,
        store,
        catalog: Sequence[str] | None = None,
        block: int = DEFAULT_BLOCK,
    ) -> None:
        self.model = model
        self.store = store
        self.block = block
        #: Rows pushed through the item extractor so far, overflow items and
        #: re-encodes after :meth:`invalidate` included.
        self.items_encoded = 0
        self.item_ids = (
            list(catalog)
            if catalog is not None
            else sorted(store.dataset.target.items)
        )
        self.slots = {item_id: slot for slot, item_id in enumerate(self.item_ids)}
        #: Fallback row shape/dtype for the zero-encoded-slots paths; actual
        #: encoder output (once seen) takes precedence in `_row_template`.
        self.dim = int(model.item_extractor.output_dim)
        self.dtype = np.dtype(model.config.dtype)
        self._reprs: np.ndarray | None = None
        self._valid = np.zeros(len(self.item_ids), dtype=bool)
        self._overflow: dict[str, np.ndarray] = {}
        self._version = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.item_ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.slots

    @property
    def encoded_count(self) -> int:
        """Catalog slots encoded so far (overflow items not counted)."""
        return int(self._valid.sum())

    @property
    def version(self) -> int:
        """Bumped whenever catalog rows change (encodes or invalidation).

        Derived structures (the ANN retriever) key their caches on this so
        a stale coarse index is rebuilt before its next query.
        """
        return self._version

    # ------------------------------------------------------------------
    def _encode_docs(self, docs: np.ndarray) -> np.ndarray:
        with inference_mode(self.model):
            return encode_blocked(
                lambda chunk: self.model.item_extractor(chunk).data,
                docs,
                self.block,
            )

    def _encode_slots(self, slots: np.ndarray) -> None:
        docs = np.stack([self.store.item_doc(self.item_ids[s]) for s in slots])
        reprs = self._encode_docs(docs)
        if self._reprs is None:
            self._reprs = np.zeros(
                (len(self.item_ids), reprs.shape[1]), dtype=reprs.dtype
            )
        self._reprs[slots] = reprs
        self._valid[slots] = True
        self._version += 1
        self.items_encoded += len(slots)

    def ensure(self, item_ids: Iterable[str]) -> None:
        """Encode any of ``item_ids`` not yet materialized (blocked, in slot
        order); unknown ids go to the overflow table."""
        item_ids = list(item_ids)
        missing = sorted(
            {
                self.slots[i]
                for i in item_ids
                if i in self.slots and not self._valid[self.slots[i]]
            }
        )
        if missing:
            self._encode_slots(np.array(missing, dtype=np.intp))
        extra = sorted(
            {i for i in item_ids if i not in self.slots and i not in self._overflow}
        )
        if extra:
            docs = np.stack([self.store.item_doc(i) for i in extra])
            reprs = self._encode_docs(docs)
            for item_id, row in zip(extra, reprs):
                self._overflow[item_id] = row
            self.items_encoded += len(extra)

    def build(self) -> np.ndarray:
        """Materialize the full catalog matrix (encode-once; idempotent)."""
        missing = np.flatnonzero(~self._valid)
        if len(missing):
            self._encode_slots(missing)
        elif self._reprs is None:
            # Empty catalog (or one invalidated down to nothing to encode):
            # materialize an explicit (0, d) matrix in the configured compute
            # dtype instead of leaving the lazy None in place.
            dim, dtype = self._row_template()
            self._reprs = np.zeros((len(self.item_ids), dim), dtype=dtype)
        return self.reprs

    def adopt(self, reprs: np.ndarray) -> None:
        """Install an externally built catalog matrix (zero-copy).

        The serving daemon encodes the catalog exactly once in the parent,
        publishes the matrix through a shared-memory pack, and each worker
        adopts the attached view — the rows must have been produced by the
        same model through the canonical blocked encoder, or the engine's
        bit-identity contract is void. The array is used as-is (it may be
        a read-only shared-memory view); every slot is marked valid, so no
        encode path will ever write into it.
        """
        if reprs.ndim != 2 or reprs.shape[0] != len(self.item_ids):
            raise ValueError(
                f"adopted matrix must be ({len(self.item_ids)}, d); "
                f"got {reprs.shape}"
            )
        self._reprs = reprs
        self._valid = np.ones(len(self.item_ids), dtype=bool)
        self._version += 1

    def invalidate(self, item_ids: Iterable[str] | None = None) -> int:
        """Mark rows stale so the next access re-encodes them.

        Call after item documents change (new reviews, catalog refresh).
        With ``item_ids`` omitted, the whole catalog and the overflow table
        are dropped. Returns the number of rows invalidated; bumps
        :attr:`version` when anything was.
        """
        if item_ids is None:
            dropped = int(self._valid.sum()) + len(self._overflow)
            self._valid[:] = False
            self._overflow.clear()
        else:
            dropped = 0
            for item_id in item_ids:
                slot = self.slots.get(item_id)
                if slot is not None and self._valid[slot]:
                    self._valid[slot] = False
                    dropped += 1
                elif self._overflow.pop(item_id, None) is not None:
                    dropped += 1
        if dropped:
            self._version += 1
        return dropped

    @property
    def reprs(self) -> np.ndarray:
        """The ``(n_items, d)`` representation matrix (builds it if needed)."""
        if not self._valid.all() or self._reprs is None:
            return self.build()
        return self._reprs

    def _row_template(self) -> tuple[int, np.dtype]:
        """Width/dtype of a representation row. Prefers what the encoder
        actually produced; with zero encoded slots *and* an empty overflow
        table it falls back to the configured compute dtype explicitly."""
        if self._reprs is not None:
            return self._reprs.shape[1], self._reprs.dtype
        if self._overflow:
            first = next(iter(self._overflow.values()))
            return first.shape[-1], first.dtype
        return self.dim, self.dtype

    def rows(self, item_ids: Sequence[str]) -> np.ndarray:
        """Representation rows for ``item_ids`` (encoding misses first)."""
        self.ensure(item_ids)
        dim, dtype = self._row_template()
        out = np.empty((len(item_ids), dim), dtype)
        for position, item_id in enumerate(item_ids):
            slot = self.slots.get(item_id)
            out[position] = (
                self._overflow[item_id] if slot is None else self._reprs[slot]
            )
        return out
