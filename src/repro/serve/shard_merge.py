"""Sharded top-K scoring: per-worker partial ranking, parent-side merge.

The daemon splits the catalog's slot space into contiguous shards — one
per worker — and asks each worker for its local top-K. Correctness rests
on two facts:

* **Row independence.** ``InferenceEngine._score_user_rows`` scores
  through the folded rating head
  (:func:`repro.serve.blocking.score_user_rows`): the user is folded into
  the head's first layer once per call, and item rows go through GEMMs of
  exactly ``batch_size`` rows (the last block zero-padded). Every
  operation is row-wise or a GEMM with that fixed row count, so the score
  of slot ``s`` does not depend on which other slots share the call. A
  shard scoring ``[lo, hi)`` therefore produces *bit-identical* scores to
  a full-catalog scan restricted to those rows.
* **Total order.** Ranking is by ``(-score, slot)`` — strictly total, no
  float ties left to argsort whims — so the merge of per-shard top-K
  lists equals the global top-K exactly: any item in the global top-K is
  in its own shard's top-K (at most K items beat it anywhere, so at most
  K beat it locally).

IVF retrieval is not fanned out: it scores only a shortlist, so the daemon
hands an IVF recommend to one worker with the whole slot range ``[0, n)``.
Every worker holds the same deterministically built coarse index (same
matrix, seed, nlist, iters → same k-means) and probes it identically, so
whichever worker gets the job ranks the same candidates through the same
folded head; its single partial merges to itself and matches
single-process IVF bit for bit, and ``nprobe >= nlist`` remains the exact
path. (``shard_topk`` still keeps only the candidates inside ``[lo, hi)``,
so IVF over several shards is correct too — it just repeats the user
encode and the probe on every worker.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["merge_topk", "shard_bounds", "shard_topk"]


def shard_bounds(n_items: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slot ranges splitting ``n_items`` evenly.

    The first ``n_items % shards`` shards get one extra slot; empty
    shards are legal (a 2-item catalog on 4 workers) and score nothing.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    base, extra = divmod(n_items, shards)
    bounds = []
    lo = 0
    for shard in range(shards):
        hi = lo + base + (1 if shard < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def shard_topk(
    engine,
    user_id: str,
    k: int,
    lo: int,
    hi: int,
    *,
    retrieval: str = "exact",
    nprobe: int | None = None,
    exclude_slots=None,
) -> list[tuple[int, float]]:
    """Local top-``k`` of slots ``[lo, hi)`` as ``[(slot, score), ...]``.

    Scores go through the engine's folded rating head, so each
    ``(slot, score)`` is bit-identical to what a full-catalog
    ``recommend`` computes for that slot. The returned list is sorted by
    ``(-score, slot)`` and carries plain Python ints/floats (picklable,
    JSON-exact: float32 → float64 round-trips losslessly).
    """
    reprs = engine.items.reprs
    invariant, user_repr = engine.users.get_many([user_id])
    if retrieval == "ivf":
        index = engine.ann_index()
        probes = min(
            nprobe if nprobe is not None else engine.nprobe, index.nlist
        )
        candidates = engine._probe(index, invariant, user_repr, probes)
        slots = candidates[(candidates >= lo) & (candidates < hi)]
    else:
        slots = np.arange(lo, hi, dtype=np.intp)
    if exclude_slots:
        slots = slots[np.isin(slots, list(exclude_slots), invert=True)]
    if len(slots) == 0:
        return []
    scores = engine._score_user_rows(invariant, user_repr, reprs, slots)
    kept = min(k, len(slots))
    if kept < len(slots):
        top = np.argpartition(-scores, kept - 1)[:kept]
    else:
        top = np.arange(len(slots))
    top = top[np.lexsort((slots[top], -scores[top]))]
    return [(int(slots[i]), float(scores[i])) for i in top]


def merge_topk(
    shard_lists: list[list[tuple[int, float]]], k: int
) -> list[tuple[int, float]]:
    """Global top-``k`` from per-shard partials, ordered by ``(-score, slot)``.

    Shards are disjoint slot ranges, so no dedup is needed; the merge is a
    plain sort of at most ``shards * k`` entries.
    """
    merged = [pair for shard in shard_lists for pair in shard]
    merged.sort(key=lambda pair: (-pair[1], pair[0]))
    return merged[:k]
