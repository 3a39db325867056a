"""IVF retrieval through the engine: bit-identity, recall, edge cases."""

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.core import OmniMatchTrainer
from repro.data import scale_target_catalog
from repro.serve import InferenceEngine, ItemIndex

from .helpers import tiny_config


@pytest.fixture(scope="module")
def engine(trained):
    return InferenceEngine(trained, batch_size=32, nlist=6, ann_seed=0)


def ranking(recs):
    return [(r.item_id, r.score) for r in recs]


def steady_peaks(call, warm=2, measured=2):
    """Peak traced bytes above the starting level for each of ``measured``
    calls, after ``warm`` traced calls (tracemalloc's first traced calls
    allocate a little of their own)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for _ in range(warm):
            call()
        peaks = []
        for _ in range(measured):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if started:
            tracemalloc.stop()
    return peaks


class TestExactDegradation:
    def test_nprobe_at_least_nlist_is_bit_identical(self, engine, world):
        dataset, split = world
        for user in [split.train_users[0], *split.test_users[:2]]:
            exact = engine.recommend(user, k=10, retrieval="exact")
            approx = engine.recommend(user, k=10, retrieval="ivf", nprobe=6)
            assert ranking(exact) == ranking(approx)

    def test_int8_store_keeps_exact_rerank(self, trained, world):
        # Routing over quantized codes may shuffle *which* lists are probed,
        # but with every list probed the candidate set is the full catalog
        # and the float32 re-rank must reproduce brute force bit for bit.
        dataset, split = world
        engine = InferenceEngine(
            trained, batch_size=32, nlist=6, ann_store="int8", ann_seed=0
        )
        user = split.test_users[0]
        exact = engine.recommend(user, k=10, retrieval="exact")
        approx = engine.recommend(user, k=10, retrieval="ivf", nprobe=999)
        assert ranking(exact) == ranking(approx)

    def test_measure_recall_is_one_at_full_probe(self, engine, world):
        dataset, split = world
        recall = engine.measure_recall(split.test_users[:3], k=5, nprobe=6)
        assert recall == 1.0

    def test_partial_probe_recall_is_sane(self, engine, world):
        dataset, split = world
        recall = engine.measure_recall(split.test_users[:3], k=5, nprobe=2)
        assert 0.0 <= recall <= 1.0


class TestEdgeCases:
    def test_k_larger_than_catalog_under_ivf(self, engine, world):
        dataset, split = world
        recs = engine.recommend(
            split.test_users[0], k=10_000, retrieval="ivf", nprobe=999
        )
        assert len(recs) == len(engine.items)
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)

    def test_exclusion_under_ivf(self, engine, world):
        dataset, split = world
        user = split.test_users[1]
        full = engine.recommend(user, k=5, retrieval="ivf", nprobe=6)
        excluded = {full[0].item_id, full[2].item_id}
        filtered = engine.recommend(
            user, k=5, exclude_items=excluded, retrieval="ivf", nprobe=6
        )
        assert excluded.isdisjoint({r.item_id for r in filtered})
        survivors = [r.item_id for r in full if r.item_id not in excluded]
        assert [r.item_id for r in filtered[: len(survivors)]] == survivors

    def test_all_cold_catalog(self, trained, world):
        # A catalog of ids with no visible reviews: every item document is
        # all padding, every representation identical. IVF must still rank
        # k of them instead of diverging on the degenerate k-means input.
        dataset, split = world
        ghosts = [f"GHOST{i:03d}" for i in range(12)]
        engine = InferenceEngine(
            trained, batch_size=32, catalog=ghosts, nlist=3, ann_seed=0
        )
        recs = engine.recommend(
            split.test_users[0], k=5, retrieval="ivf", nprobe=3
        )
        assert len(recs) == 5
        assert {r.item_id for r in recs} <= set(ghosts)

    def test_unreviewed_catalog_items_reachable_under_ivf(self, trained, world):
        # Items appended to the catalog *without* any reviews (the overflow
        # regime) land in some inverted list like everything else and stay
        # reachable when their list is probed.
        dataset, split = world
        base = sorted(dataset.target.items)
        ghosts = [f"ZZNEW{i:03d}" for i in range(3)]
        engine = InferenceEngine(
            trained, batch_size=32, catalog=base + ghosts, nlist=5, ann_seed=0
        )
        exact = engine.recommend(
            split.test_users[0], k=len(base) + 3, retrieval="exact"
        )
        approx = engine.recommend(
            split.test_users[0], k=len(base) + 3, retrieval="ivf", nprobe=5
        )
        assert ranking(exact) == ranking(approx)
        assert set(ghosts) <= {r.item_id for r in approx}


class TestIndexLifecycle:
    def test_ann_index_cached_until_invalidation(self, trained):
        engine = InferenceEngine(trained, batch_size=32, nlist=4, ann_seed=0)
        first = engine.ann_index()
        assert engine.ann_index() is first  # same catalog version: cached
        engine.items.invalidate()
        rebuilt = engine.ann_index()
        assert rebuilt is not first
        # Re-encoding the same documents reproduces the same clustering.
        np.testing.assert_array_equal(rebuilt.assignments, first.assignments)

    def test_set_retrieval_reconfigures_default(self, trained, world):
        dataset, split = world
        engine = InferenceEngine(trained, batch_size=32, nlist=6, ann_seed=0)
        assert engine.retrieval == "exact"
        engine.set_retrieval("ivf", nprobe=6)
        user = split.test_users[0]
        assert ranking(engine.recommend(user, k=5)) == ranking(
            engine.recommend(user, k=5, retrieval="exact")
        )
        with pytest.raises(ValueError, match="retrieval"):
            engine.set_retrieval("annoy")
        with pytest.raises(ValueError, match="retrieval"):
            engine.recommend(user, k=5, retrieval="flat")


class TestScratchReuse:
    def test_recommend_reuses_scratch_buffers(self, trained, world):
        dataset, split = world
        engine = InferenceEngine(trained, batch_size=32)
        user = split.test_users[0]
        engine.recommend(user, k=5)
        features = engine._features_scratch
        scores = engine._scores_scratch
        engine.recommend(user, k=5)
        assert engine._features_scratch is features
        assert engine._scores_scratch is scores
        # The feature scratch is batch-sized, not catalog-sized.
        assert features.shape[0] == engine.batch_size
        assert len(scores) == len(engine.items)

    def test_no_per_call_catalog_allocation_regression(self, trained, world):
        # REPRO_TENSOR_STATS counts every autograd-graph tensor. The served
        # head runs outside the tape, so a steady-state recommend records
        # no graph bytes; the tape checks below keep scoring from drifting
        # back onto a catalog-sized tape. tracemalloc, after them, measures
        # the numpy working set itself.
        dataset, split = world
        engine = InferenceEngine(trained, batch_size=32)
        user = split.test_users[0]
        engine.recommend(user, k=5)  # warm: encodes catalog + user
        previous = nn.set_tensor_stats(True)
        try:
            nn.reset_tensor_stats()
            engine.recommend(user, k=5)
            first = nn.tensor_stats()
            nn.reset_tensor_stats()
            engine.recommend(user, k=5)
            second = nn.tensor_stats()
        finally:
            nn.set_tensor_stats(previous)
            nn.reset_tensor_stats()
        assert first == second
        # Per-block head tensors: every graph tensor is O(batch), so the
        # whole call's graph bytes stay within blocks * batch * head-width
        # float64 budget — a repeat/concatenate feature build would blow
        # well past this.
        blocks = -(-len(engine.items) // engine.batch_size)
        head_width = engine._features_scratch.shape[1]
        per_block_budget = 8 * engine.batch_size * (4 * head_width)
        assert first["graph_bytes"] <= blocks * per_block_budget

        # numpy reports its buffers to tracemalloc. Over a 2040-item catalog
        # (64 blocks) with 64-wide item rows, two steady-state recommends
        # peak at the same numpy bytes, and the peak stays under a few
        # batch_size-row blocks of head input. Gathering the scanned rows
        # in one piece (the whole (catalog, item_dim) matrix again) would
        # not fit. IVF at full probe scores through the slots gather.
        wide = OmniMatchTrainer(
            dataset, split, tiny_config(epochs=1, invariant_dim=64)
        ).fit()
        grown = scale_target_catalog(dataset, 2000, seed=5)
        big = InferenceEngine(
            wide, batch_size=32, store=wide.store.with_dataset(grown),
            nlist=8, ann_seed=0,
        )
        reprs = big.items.reprs
        block_bytes = (
            big.batch_size * wide.model.rating_classifier.dims[0] * reprs.itemsize
        )
        assert reprs.nbytes > 4 * block_bytes
        for mode in ("exact", "ivf"):
            peaks = steady_peaks(
                lambda: big.recommend(user, k=5, retrieval=mode, nprobe=8)
            )
            # Equal numpy bytes; Python's own objects (float freelists, the
            # metrics windows) move the traced peak by tens of bytes.
            assert abs(peaks[0] - peaks[1]) <= 1024, (mode, peaks)
            assert peaks[0] < 4 * block_bytes, (mode, peaks, block_bytes)
