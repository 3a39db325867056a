"""Columnar shared-memory encodings of datasets and document matrices.

A :class:`~repro.data.records.CrossDomainDataset` is a pair of review
lists — Python objects that would otherwise be pickled into every worker
task. :func:`publish_dataset` lowers each domain to five flat columns
(user ids, item ids, ratings, summaries, texts — strings as byte buffers
with offset arrays) inside one :class:`~repro.parallel.shm.ShmPack`;
:func:`attach_dataset` rebuilds an equal dataset in the worker from
zero-copy views. Review order is preserved exactly, so every derived
index (``by_user``, ``like_minded``) and every seeded RNG draw over the
reviews is bit-identical to the parent's — the determinism contract of
the parallel engine rests on this.

:func:`publish_document_matrices` does the same for a built
:class:`~repro.data.batching.DocumentMatrices` plus its vocabulary, so
workers can construct a :meth:`DocumentStore.from_matrices
<repro.data.batching.DocumentStore.from_matrices>` store without
re-tokenizing or re-encoding the corpus.

Task functions take either a published ref or the in-process object
(inline runs skip shared memory): :func:`resolve_dataset` and
:func:`resolved_store` turn either form into the object a trainer uses.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..data.batching import DocumentMatrices, DocumentStore
from ..data.records import CrossDomainDataset, DomainData, Review
from ..data.split import ColdStartSplit
from ..text import Vocabulary
from .shm import ShmPack, ShmRef, attach, pack_strings, unpack_strings

__all__ = [
    "SharedDatasetRef",
    "SharedStoreRef",
    "publish_dataset",
    "attach_dataset",
    "publish_document_matrices",
    "attach_document_store",
    "resolve_dataset",
    "resolved_store",
]

#: Attached datasets a worker keeps alive, keyed by segment name. Tasks
#: usually arrive grouped by world, so two cover the switch between worlds.
_DATASET_CACHE: dict[str, CrossDomainDataset] = {}
_DATASET_CACHE_SIZE = 2


@dataclass(frozen=True)
class SharedDatasetRef:
    """Picklable handle to a published dataset."""

    shm: ShmRef
    source_name: str
    target_name: str
    metadata_pickle: bytes


@dataclass(frozen=True)
class SharedStoreRef:
    """Picklable handle to published document matrices + vocabulary."""

    shm: ShmRef
    doc_len: int
    vocab_size: int
    field: str


def _domain_arrays(domain: DomainData, side: str) -> dict[str, np.ndarray]:
    reviews = domain.reviews
    arrays: dict[str, np.ndarray] = {}
    for column, values in (
        ("users", [r.user_id for r in reviews]),
        ("items", [r.item_id for r in reviews]),
        ("summaries", [r.summary for r in reviews]),
        ("texts", [r.text for r in reviews]),
    ):
        buffer, offsets = pack_strings(values)
        arrays[f"{side}.{column}.bytes"] = buffer
        arrays[f"{side}.{column}.offsets"] = offsets
    arrays[f"{side}.ratings"] = np.array([r.rating for r in reviews], dtype=np.float64)
    return arrays


def publish_dataset(dataset: CrossDomainDataset, prefix: str = "repro-ds") -> tuple[ShmPack, SharedDatasetRef]:
    """Publish ``dataset`` into shared memory; returns (owned pack, ref)."""
    arrays: dict[str, np.ndarray] = {}
    arrays.update(_domain_arrays(dataset.source, "source"))
    arrays.update(_domain_arrays(dataset.target, "target"))
    pack = ShmPack.publish(arrays, prefix=prefix)
    ref = SharedDatasetRef(
        shm=pack.ref,
        source_name=dataset.source.name,
        target_name=dataset.target.name,
        metadata_pickle=pickle.dumps(dataset.metadata),
    )
    return pack, ref


def _rebuild_domain(name: str, arrays: dict[str, np.ndarray], side: str) -> DomainData:
    columns = {
        column: unpack_strings(
            arrays[f"{side}.{column}.bytes"], arrays[f"{side}.{column}.offsets"]
        )
        for column in ("users", "items", "summaries", "texts")
    }
    ratings = arrays[f"{side}.ratings"]
    reviews = [
        Review(
            user_id=columns["users"][i],
            item_id=columns["items"][i],
            rating=float(ratings[i]),
            summary=columns["summaries"][i],
            text=columns["texts"][i],
        )
        for i in range(len(ratings))
    ]
    return DomainData(name, reviews)


def attach_dataset(ref: SharedDatasetRef) -> CrossDomainDataset:
    """Rebuild an equal :class:`CrossDomainDataset` from a published ref.

    The string columns are decoded into regular Python objects (reviews
    must outlive the mapping), so the attachment is closed before
    returning — no segment handles leak into the caller.
    """
    pack = attach(ref.shm)
    try:
        source = _rebuild_domain(ref.source_name, pack.arrays, "source")
        target = _rebuild_domain(ref.target_name, pack.arrays, "target")
    finally:
        pack.close()
    return CrossDomainDataset(
        source=source, target=target, metadata=pickle.loads(ref.metadata_pickle)
    )


# ----------------------------------------------------------------------
# Document matrices
# ----------------------------------------------------------------------
def publish_document_matrices(
    store: DocumentStore, prefix: str = "repro-docs"
) -> tuple[ShmPack, SharedStoreRef]:
    """Publish a built store's matrices + vocabulary into shared memory."""
    matrices = store.build_matrices()
    vocab_bytes, vocab_offsets = pack_strings(store.vocab.tokens)
    pack = ShmPack.publish(
        {
            "source": matrices.source,
            "target": matrices.target,
            "target_valid": matrices.target_valid,
            "items": matrices.items,
            "vocab.bytes": vocab_bytes,
            "vocab.offsets": vocab_offsets,
        },
        prefix=prefix,
    )
    ref = SharedStoreRef(
        shm=pack.ref,
        doc_len=store.doc_len,
        vocab_size=store.vocab_size,
        field=store.field,
    )
    return pack, ref


def attach_document_store(
    ref: SharedStoreRef, dataset: CrossDomainDataset, split: ColdStartSplit
) -> DocumentStore:
    """Build a :class:`DocumentStore` over shared matrices (zero-copy).

    The int32 document tensors stay mapped in the segment — the returned
    store's :class:`DocumentMatrices` are read-only views, so the mapping
    must outlive the store; it is kept on ``store.attached_pack`` and the
    caller may ``close()`` it once the store (and anything holding its
    matrices) is discarded. Slot tables are recomputed locally (they are
    deterministic functions of the dataset), and the vocabulary is rebuilt
    from the published token list.
    """
    pack = attach(ref.shm)
    vocab = Vocabulary(unpack_strings(pack["vocab.bytes"], pack["vocab.offsets"]))
    users = sorted(dataset.source.users | dataset.target.users)
    items = sorted(dataset.target.items)
    matrices = DocumentMatrices(
        user_slots={user_id: slot for slot, user_id in enumerate(users)},
        item_slots={item_id: slot for slot, item_id in enumerate(items)},
        source=pack["source"],
        target=pack["target"],
        target_valid=pack["target_valid"],
        items=pack["items"],
    )
    store = DocumentStore.from_matrices(
        dataset,
        split,
        matrices=matrices,
        vocab=vocab,
        doc_len=ref.doc_len,
        vocab_size=ref.vocab_size,
        field=ref.field,
    )
    store.attached_pack = pack
    return store


# ----------------------------------------------------------------------
# Ref-or-object resolution (task side)
# ----------------------------------------------------------------------
def resolve_dataset(
    dataset: "SharedDatasetRef | CrossDomainDataset",
) -> CrossDomainDataset:
    """The dataset behind ``dataset``: attached (and cached) if it is a ref."""
    if not isinstance(dataset, SharedDatasetRef):
        return dataset
    cached = _DATASET_CACHE.get(dataset.shm.name)
    if cached is None:
        if len(_DATASET_CACHE) >= _DATASET_CACHE_SIZE:
            _DATASET_CACHE.clear()
        cached = _DATASET_CACHE[dataset.shm.name] = attach_dataset(dataset)
    return cached


@contextmanager
def resolved_store(
    store: "SharedStoreRef | DocumentStore | None",
    dataset: CrossDomainDataset,
    split: ColdStartSplit,
) -> Iterator["DocumentStore | None"]:
    """Yield the store behind ``store``; an attached mapping is closed on exit."""
    if not isinstance(store, SharedStoreRef):
        yield store
        return
    attached = attach_document_store(store, dataset, split)
    try:
        yield attached
    finally:
        attached.attached_pack.close()
