"""The high-throughput inference engine: encode once, score from caches.

``OmniMatchModel`` factors cleanly at serving time (Eq. 18): a per-user
``(invariant, user_repr)`` pair, a per-item representation, and a tiny
rating MLP joining them. The legacy ``ColdStartPredictor`` re-ran both CNN
extractor towers over full token documents for every (user, item) pair;
the :class:`InferenceEngine` runs each tower once per *entity* instead —
items into an :class:`~repro.serve.item_index.ItemIndex`, users into a
bounded :class:`~repro.serve.user_cache.UserReprCache` — so steady-state
scoring is the rating-head MLP over cached vectors, with the user folded
into its first layer (``repro.serve.blocking.score_user_rows``): one
``item_dim``-wide GEMM per block of items instead of a ``head_dim``-wide
one over concatenated features.

Bit-identity contract: every user encode goes through the one user-encode
primitive (one conv GEMM per document, heads on ``USER_BLOCK``-row
blocks), every item encode through the canonical blocked encoder, and
every score through the one folded-head primitive (all in
``repro.serve.blocking``), so engine predictions match the re-encoding
reference path (``repro.serve.reference``) bit for bit, and ``recommend``
scores match ``score_pairs`` over the same catalog exactly. A user-cache
miss encodes the missed users' own documents and nothing else. The folded
head reassociates the first layer's sums, so served scores equal the
training MLP (``OmniMatchModel.rating_logits``) on the same
representations to float rounding, not bit for bit.

Retrieval: ``recommend`` is exact brute force by default. At large catalog
sizes switch to ``retrieval="ivf"`` — coarse k-means routing over the item
matrix (``repro.serve.ann``) shortlists the inverted lists of the
``nprobe`` best centroids, and only the shortlist goes through the exact
rating head, so candidate scores stay bit-identical to brute force and
``nprobe >= nlist`` *is* the exact path.

Observability: each index build, user encode, score, recommend and IVF
probe is one ``span`` event (components ``serve.engine`` and
``serve.ann``, rendered by ``repro report``) sent to an explicit sink or
the ambient one installed via ``repro.obs.use_sink``; with neither, the
engine builds no event at all. Cache and encode counts are plain ints on
:attr:`users` and :attr:`items`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..obs import get_active_sink
from .ann import DEFAULT_NPROBE, IVFIndex, default_nlist
from .blocking import (
    DEFAULT_BLOCK,
    encode_users,
    score_pairs_by_user,
    score_user_rows,
)
from .item_index import ItemIndex
from .user_cache import DEFAULT_CAPACITY, UserReprCache

__all__ = ["ColdStartDocuments", "InferenceEngine", "Recommendation"]

_RETRIEVALS = ("exact", "ivf")


@dataclass(frozen=True)
class Recommendation:
    """One ranked catalog entry from :meth:`InferenceEngine.recommend`."""

    item_id: str
    score: float


class ColdStartDocuments:
    """Target-document policy shared by the engine and the reference path.

    A training user keeps their real target document; a cold-start user
    gets the auxiliary document (Algorithm 1), falling back to their source
    document when no like-minded neighbor exists or when the
    ``use_auxiliary_reviews`` ablation is off (§4.1's suboptimal strategy).
    """

    def __init__(self, result, store=None) -> None:
        self.store = store if store is not None else result.store
        self.aux_generator = result.aux_generator
        self.use_aux = result.model.config.use_auxiliary_reviews
        self._train_users = set(self.store.split.train_users)
        self._cache: dict[str, np.ndarray] = {}

    def target_doc(self, user_id: str) -> np.ndarray:
        """Target-extractor input for ``user_id`` (real, auxiliary, fallback)."""
        if user_id in self._cache:
            return self._cache[user_id]
        if user_id in self._train_users:
            doc = self.store.user_target_doc(user_id)
        elif self.use_aux:
            reviews = self.aux_generator.generate(user_id)
            if reviews:
                doc = self.store.encode_reviews(reviews)
            else:  # no like-minded user found for any record: source fallback
                doc = self.store.user_source_doc(user_id)
        else:
            doc = self.store.user_source_doc(user_id)
        self._cache[user_id] = doc
        return doc

    def source_doc(self, user_id: str) -> np.ndarray:
        """Source-extractor input (exists for every user)."""
        return self.store.user_source_doc(user_id)


class InferenceEngine:
    """Encode-once pair scoring and full-catalog top-K recommendation."""

    def __init__(
        self,
        result,
        *,
        batch_size: int = DEFAULT_BLOCK,
        cache_capacity: int = DEFAULT_CAPACITY,
        catalog: Sequence[str] | None = None,
        store=None,
        telemetry=None,
        retrieval: str = "exact",
        nlist: int | None = None,
        nprobe: int | None = None,
        ann_store: str = "float32",
        ann_seed: int | None = None,
    ) -> None:
        """
        Parameters
        ----------
        result:
            A :class:`repro.core.TrainResult` (model + store + generator).
        batch_size:
            Rows per item encode block *and* per rating-head block. All
            paths that must agree bitwise have to share this value. Users
            encode one document per conv GEMM and run their heads in
            :data:`~repro.serve.blocking.USER_BLOCK`-row blocks, whatever
            the batch size.
        cache_capacity:
            Maximum resident users in the representation LRU.
        catalog:
            Item universe for ``recommend`` (default: every target-domain
            item). Items outside it can still be scored pairwise.
        store:
            Optional :class:`~repro.data.DocumentStore` override — e.g. one
            rebuilt via ``DocumentStore.with_dataset`` over a catalog scaled
            after training. Defaults to ``result.store``.
        telemetry:
            Optional :class:`repro.obs.TelemetrySink`; when omitted, events
            go to the ambient sink if one is installed.
        retrieval:
            Default ``recommend`` strategy: ``"exact"`` brute force or
            ``"ivf"`` coarse-probe + exact re-rank.
        nlist / nprobe:
            IVF shape: number of inverted lists (default ``sqrt(catalog)``)
            and lists probed per query (default 8; ``>= nlist`` recovers the
            exact result bit for bit).
        ann_store:
            Routing representation store: ``"float32"`` routes over the
            item matrix in place; ``"int8"`` keeps a quantized copy (~4x
            smaller) and routes off that. Re-ranking is always float32.
        ann_seed:
            K-means seeding RNG seed (default: the model's training seed).
            The coarse index runs at most
            :data:`~repro.serve.ann.DEFAULT_ITERS` Lloyd's iterations.
        """
        if retrieval not in _RETRIEVALS:
            raise ValueError(f"retrieval must be one of {_RETRIEVALS}")
        self.model = result.model
        self.store = store if store is not None else result.store
        self.aux_generator = result.aux_generator
        self.batch_size = batch_size
        self.out_dtype = np.dtype(self.model.config.dtype)
        self.telemetry = telemetry
        self.docs = ColdStartDocuments(result, store=self.store)
        self.items = ItemIndex(self.model, self.store, catalog=catalog, block=batch_size)
        self.users = UserReprCache(self._encode_users, capacity=cache_capacity)
        self.retrieval = retrieval
        self.nlist = nlist
        self.nprobe = nprobe if nprobe is not None else DEFAULT_NPROBE
        self.ann_store = ann_store
        self.ann_seed = ann_seed if ann_seed is not None else self.model.config.seed
        self._ann: IVFIndex | None = None
        self._ann_key: tuple | None = None
        # Reusable scratch for the single-user catalog scorer: one
        # (batch_size, item_dim) block of item rows and the score vector,
        # so recommend allocates nothing O(catalog) per call.
        self._features_scratch: np.ndarray | None = None
        self._scores_scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _sink(self):
        """The explicit sink, else the ambient one (None: emit nothing)."""
        return self.telemetry if self.telemetry is not None else get_active_sink()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _encode_users(self, user_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Stacked rating-head inputs for ``user_ids`` (the cache's miss
        encoder; see :func:`~repro.serve.blocking.encode_users`)."""
        return encode_users(self.model, user_ids, self.docs)

    def warm(self, user_ids: Iterable[str]) -> int:
        """Pre-encode a user cohort; returns how many were newly encoded."""
        start = time.perf_counter()
        encoded = self.users.warm(user_ids)
        sink = self._sink()
        if sink is not None:
            sink.emit(
                "span", component="serve.engine", name="encode_users",
                seconds=time.perf_counter() - start, users=encoded,
            )
        return encoded

    def build_index(self) -> int:
        """Push the whole catalog through the item extractor (idempotent);
        returns the number of items encoded by this call."""
        before = self.items.encoded_count
        start = time.perf_counter()
        self.items.build()
        encoded = self.items.encoded_count - before
        sink = self._sink() if encoded else None
        if sink is not None:
            sink.emit(
                "span", component="serve.engine", name="index",
                seconds=time.perf_counter() - start,
                items=encoded, catalog=len(self.items),
            )
        return encoded

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _scores_buffer(self, size: int) -> np.ndarray:
        """A ``(size,)`` view of the reusable score scratch (grown, never
        shrunk, so steady-state calls allocate nothing catalog-sized)."""
        if self._scores_scratch is None or len(self._scores_scratch) < size:
            self._scores_scratch = np.empty(size, dtype=self.out_dtype)
        return self._scores_scratch[:size]

    def _score_user_rows(
        self,
        invariant: np.ndarray,
        user_repr: np.ndarray,
        matrix: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score one user against ``matrix`` rows (all of them, or the
        ``slots`` gather) through the folded rating head, in the engine's
        reusable ``(batch_size, item_dim)`` row scratch and score buffer."""
        shape = (self.batch_size, matrix.shape[1])
        scratch = self._features_scratch
        if scratch is None or scratch.shape != shape or scratch.dtype != matrix.dtype:
            self._features_scratch = np.zeros(shape, dtype=matrix.dtype)
        count = len(matrix) if slots is None else len(slots)
        return score_user_rows(
            self.model.rating_classifier, invariant, user_repr, matrix, slots,
            block=self.batch_size,
            out=self._scores_buffer(count),
            rows=self._features_scratch,
        )

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Expected ratings for explicit ``(user_id, item_id)`` pairs.

        Bit-identical to the re-encoding reference path
        (:func:`repro.serve.reference.naive_score_pairs`) at the same
        ``batch_size``, and to ``recommend``'s score for each pair: pairs
        are grouped by user and each user's items go through one folded
        head call. Each unique user/item is encoded at most once across
        the engine's lifetime (modulo LRU eviction).
        """
        pairs = list(pairs)
        start = time.perf_counter()
        hits_before, misses_before = self.users.hits, self.users.misses
        if pairs:
            user_ids = [u for u, _ in pairs]
            # Cache lookups per batch_size pairs keep the stacked user rows
            # bounded; each user's own rows are copied out of the stack.
            user_rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for chunk_start in range(0, len(pairs), self.batch_size):
                chunk = user_ids[chunk_start : chunk_start + self.batch_size]
                invariant, user_repr = self.users.get_many(chunk)
                for row, user_id in enumerate(chunk):
                    if user_id not in user_rows:
                        user_rows[user_id] = (
                            invariant[row].copy(), user_repr[row].copy()
                        )
            out = score_pairs_by_user(
                self.model.rating_classifier,
                user_ids,
                user_rows,
                self.items.rows([i for _, i in pairs]),
                block=self.batch_size,
            )
        else:
            out = np.empty(0, dtype=self.out_dtype)
        sink = self._sink()
        if sink is not None:
            sink.emit(
                "span", component="serve.engine", name="score",
                seconds=time.perf_counter() - start, pairs=len(pairs),
                cache_hits=self.users.hits - hits_before,
                cache_misses=self.users.misses - misses_before,
            )
        return out

    # ------------------------------------------------------------------
    # Approximate retrieval
    # ------------------------------------------------------------------
    def set_retrieval(
        self,
        retrieval: str | None = None,
        *,
        nlist: int | None = None,
        nprobe: int | None = None,
        ann_store: str | None = None,
    ) -> None:
        """Reconfigure the default retrieval strategy in place.

        Changing ``nlist`` or ``ann_store`` drops the cached coarse index so
        the next IVF query rebuilds it; ``nprobe`` is query-time only.
        """
        if retrieval is not None:
            if retrieval not in _RETRIEVALS:
                raise ValueError(f"retrieval must be one of {_RETRIEVALS}")
            self.retrieval = retrieval
        if nlist is not None:
            self.nlist = nlist
        if nprobe is not None:
            self.nprobe = nprobe
        if ann_store is not None:
            self.ann_store = ann_store

    def ann_index(self) -> IVFIndex:
        """The coarse IVF index over the current catalog matrix, building
        (and re-building after :meth:`ItemIndex.invalidate` or any catalog
        encode that bumped ``items.version``) as needed."""
        self.build_index()
        reprs = self.items.reprs
        nlist = self.nlist if self.nlist is not None else default_nlist(len(reprs))
        key = (self.items.version, nlist, self.ann_store, self.ann_seed)
        if self._ann is None or self._ann_key != key:
            index = IVFIndex(
                reprs,
                nlist=nlist,
                seed=self.ann_seed,
                store=self.ann_store,
            )
            self._ann, self._ann_key = index, key
            stats = index.stats
            sink = self._sink()
            if sink is not None:
                # Read as span("serve.ann", "build") through the retired-kind
                # table; the name stays while perfbench's trace reader uses it.
                sink.emit(
                    "serve_ann_build",
                    items=stats.items, nlist=stats.nlist, iters=stats.iters_run,
                    store=stats.store, seconds=stats.seconds,
                    store_bytes=stats.store_bytes,
                    float32_bytes=stats.float32_bytes,
                )
        return self._ann

    def _probe(
        self,
        index: IVFIndex,
        invariant: np.ndarray,
        user_repr: np.ndarray,
        nprobe: int,
    ) -> np.ndarray:
        """Shortlist slots: rate the centroids with the folded head (as
        pseudo-items), probe the ``nprobe`` best (ties toward the lower
        centroid id)."""
        centroid_scores = np.array(
            self._score_user_rows(invariant, user_repr, index.centroids),
            copy=True,  # the scratch buffer is about to be reused
        )
        order = np.lexsort((np.arange(len(centroid_scores)), -centroid_scores))
        return index.candidate_slots(order, nprobe)

    def measure_recall(
        self,
        user_ids: Sequence[str],
        k: int = 10,
        nprobe: int | None = None,
    ) -> float:
        """Mean recall@k of IVF retrieval against the exact oracle over
        ``user_ids`` (1.0 when every approximate top-k matches). Emits a
        ``metrics`` event for component ``serve.ann`` (gauges ``recall``,
        ``k``, ``users``, ``nprobe``)."""
        user_ids = list(user_ids)
        if not user_ids:
            raise ValueError("measure_recall needs at least one user")
        recalls = []
        for user_id in user_ids:
            exact = {r.item_id for r in self.recommend(user_id, k, retrieval="exact")}
            if not exact:
                continue
            approx = {
                r.item_id
                for r in self.recommend(user_id, k, retrieval="ivf", nprobe=nprobe)
            }
            recalls.append(len(exact & approx) / len(exact))
        recall = float(np.mean(recalls)) if recalls else 1.0
        sink = self._sink()
        if sink is not None:
            sink.emit(
                "metrics", component="serve.ann", counters={}, histograms={},
                gauges={
                    "recall": recall, "k": k, "users": len(user_ids),
                    "nprobe": nprobe if nprobe is not None else self.nprobe,
                },
            )
        return recall

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def recommend(
        self,
        user_id: str,
        k: int = 10,
        exclude_items: Iterable[str] | None = None,
        *,
        retrieval: str | None = None,
        nprobe: int | None = None,
    ) -> list[Recommendation]:
        """Top-``k`` of full-catalog scoring for one user.

        With ``retrieval="exact"`` every catalog item is scored via the
        folded rating head over the item matrix in ``batch_size``-row
        blocks (bit-identical to ``score_pairs`` on the same pairs). With
        ``"ivf"`` only the shortlist from the probed inverted lists is
        scored — through the *same* folded head, so candidate scores match
        brute force bit for
        bit and ``nprobe >= nlist`` recovers the exact ranking exactly.
        Ties break toward the lower catalog slot; ``exclude_items`` removes
        already-seen items from the ranking. ``retrieval``/``nprobe``
        override the engine defaults for this call only.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        mode = retrieval if retrieval is not None else self.retrieval
        if mode not in _RETRIEVALS:
            raise ValueError(f"retrieval must be one of {_RETRIEVALS}")
        start = time.perf_counter()
        self.build_index()
        catalog_size = len(self.items)
        if catalog_size == 0:
            return []
        reprs = self.items.reprs
        invariant, user_repr = self.users.get_many([user_id])
        if mode == "ivf":
            index = self.ann_index()
            probes = min(
                nprobe if nprobe is not None else self.nprobe, index.nlist
            )
            probe_start = time.perf_counter()
            slots = self._probe(index, invariant, user_repr, probes)
            scores = self._score_user_rows(invariant, user_repr, reprs, slots)
            sink = self._sink()
            if sink is not None:
                sink.emit(
                    "span", component="serve.ann", name="probe",
                    seconds=time.perf_counter() - probe_start,
                    candidates=len(slots), catalog=catalog_size,
                )
        else:
            slots = None
            scores = self._score_user_rows(invariant, user_repr, reprs)
        if exclude_items:
            positions = self.items.slots
            if slots is not None:
                for item_id in exclude_items:
                    slot = positions.get(item_id)
                    if slot is not None:
                        at = np.searchsorted(slots, slot)
                        if at < len(slots) and slots[at] == slot:
                            scores[at] = -np.inf
            else:
                for item_id in exclude_items:
                    slot = positions.get(item_id)
                    if slot is not None:
                        scores[slot] = -np.inf
        ranked = min(k, int(np.isfinite(scores).sum()))
        sink = self._sink()
        if sink is not None:
            sink.emit(
                "span", component="serve.engine", name="recommend",
                seconds=time.perf_counter() - start, catalog=catalog_size,
            )
        if ranked == 0:
            return []
        top = np.argpartition(-scores, ranked - 1)[:ranked]
        # Exact ordering pass; ties break toward the lower catalog slot.
        tie_break = top if slots is None else slots[top]
        top = top[np.lexsort((tie_break, -scores[top]))]
        return [
            Recommendation(
                self.items.item_ids[slot if slots is None else slots[slot]],
                float(scores[slot]),
            )
            for slot in top
        ]
