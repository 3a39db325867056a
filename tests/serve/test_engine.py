"""InferenceEngine: bit-identity with the re-encoding reference, dedup,
predictor delegation, and the cold-start edge cases."""

import numpy as np
import pytest

from repro.core import ColdStartPredictor, OmniMatchTrainer
from repro.serve import InferenceEngine, naive_score_pairs
from repro.serve.blocking import USER_BLOCK

from .helpers import tiny_config


@pytest.fixture(scope="module")
def mode_results(world):
    """One 1-epoch TrainResult per (cold_inference, use_auxiliary_reviews)."""
    dataset, split = world
    results = {}
    for mode in ("blend", "dual", "aux_only"):
        for use_aux in (True, False):
            config = tiny_config(
                epochs=1, cold_inference=mode, use_auxiliary_reviews=use_aux
            )
            results[(mode, use_aux)] = OmniMatchTrainer(
                dataset, split, config
            ).fit()
    return results


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["blend", "dual", "aux_only"])
    @pytest.mark.parametrize("use_aux", [True, False])
    def test_engine_matches_naive_reference(
        self, mode_results, test_pairs, mode, use_aux
    ):
        result = mode_results[(mode, use_aux)]
        engine = InferenceEngine(result, batch_size=32)
        cached = engine.score_pairs(test_pairs)
        naive = naive_score_pairs(result, test_pairs, batch_size=32)
        np.testing.assert_array_equal(cached, naive)

    @pytest.mark.parametrize("batch_size", [7, 256])
    @pytest.mark.parametrize("mode", ["blend", "dual", "aux_only"])
    def test_engine_matches_naive_reference_at_any_batch_size(
        self, mode_results, test_pairs, mode, batch_size
    ):
        """Users encode in USER_BLOCK rows on both paths whatever the batch
        size; items and head chunks follow ``batch_size`` on both. (Batch
        size 32 is the test above.)"""
        result = mode_results[(mode, True)]
        engine = InferenceEngine(result, batch_size=batch_size)
        np.testing.assert_array_equal(
            engine.score_pairs(test_pairs),
            naive_score_pairs(result, test_pairs, batch_size=batch_size),
        )

    @pytest.mark.parametrize("batch_size", [7, 256])
    def test_single_user_miss_encodes_one_user_block(
        self, mode_results, test_pairs, monkeypatch, batch_size
    ):
        result = mode_results[("dual", True)]
        extractor = result.model.user_extractor
        rows = {"extract_target": [], "extract_source": []}
        for name, calls in rows.items():
            tower = getattr(extractor, name)

            def spy(chunk, tower=tower, calls=calls):
                calls.append(len(chunk))
                return tower(chunk)

            monkeypatch.setattr(extractor, name, spy)
        engine = InferenceEngine(result, batch_size=batch_size)
        engine.score_pairs(test_pairs[:1])
        assert rows == {
            "extract_target": [USER_BLOCK],
            "extract_source": [USER_BLOCK],
        }

    def test_repeat_scoring_is_stable(self, mode_results, test_pairs):
        engine = InferenceEngine(mode_results[("dual", True)], batch_size=32)
        first = engine.score_pairs(test_pairs)
        second = engine.score_pairs(test_pairs)  # pure cache hits
        np.testing.assert_array_equal(first, second)
        assert engine.users.hits > 0

    def test_dedup_within_one_call(self, mode_results, test_pairs):
        """The dedup satellite: a pair list where one user appears many
        times encodes that user once and still matches the naive path."""
        result = mode_results[("dual", True)]
        user, item = test_pairs[0]
        items = sorted({i for _, i in test_pairs})
        pairs = [(user, i) for i in items] * 3  # heavy duplication
        engine = InferenceEngine(result, batch_size=32)
        cached = engine.score_pairs(pairs)
        np.testing.assert_array_equal(
            cached, naive_score_pairs(result, pairs, batch_size=32)
        )
        assert engine.users.misses == 1  # the single unique user
        assert engine.items.items_encoded == len(items)

    def test_chunking_is_invisible(self, mode_results, test_pairs):
        """Scoring pair-by-pair equals scoring the whole list at once, at
        the same batch size — the caches hide call boundaries."""
        result = mode_results[("dual", True)]
        engine = InferenceEngine(result, batch_size=32)
        whole = engine.score_pairs(test_pairs)
        one_by_one = np.concatenate(
            [engine.score_pairs([pair]) for pair in test_pairs]
        )
        np.testing.assert_array_equal(whole, one_by_one)


class TestPredictorDelegation:
    def test_predict_pairs_matches_engine(self, trained, test_pairs):
        predictor = ColdStartPredictor(trained, batch_size=32)
        engine = InferenceEngine(trained, batch_size=32)
        np.testing.assert_array_equal(
            predictor.predict_pairs(test_pairs), engine.score_pairs(test_pairs)
        )

    def test_predictor_exposes_engine(self, trained):
        predictor = ColdStartPredictor(trained)
        assert isinstance(predictor.engine, InferenceEngine)
        assert predictor.engine.batch_size == predictor.batch_size

    def test_target_doc_compat(self, trained, world):
        dataset, split = world
        predictor = ColdStartPredictor(trained)
        warm_user = split.train_users[0]
        np.testing.assert_array_equal(
            predictor._target_doc(warm_user),
            trained.store.user_target_doc(warm_user),
        )


class TestEdgeCases:
    def test_empty_pair_list(self, trained):
        engine = InferenceEngine(trained)
        out = engine.score_pairs([])
        assert out.shape == (0,)
        assert out.dtype == np.dtype(trained.model.config.dtype)
        assert engine.items.encoded_count == 0  # nothing materialized

    def test_single_pair(self, trained, test_pairs):
        engine = InferenceEngine(trained, batch_size=32)
        out = engine.score_pairs(test_pairs[:1])
        assert out.shape == (1,)
        assert 1.0 <= float(out[0]) <= 5.0

    def test_all_cold_user_batch(self, trained, world):
        dataset, split = world
        cold = list(split.test_users)
        items = sorted(dataset.target.items)[:5]
        pairs = [(u, i) for u in cold for i in items]
        engine = InferenceEngine(trained, batch_size=32)
        out = engine.score_pairs(pairs)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(
            out, naive_score_pairs(trained, pairs, batch_size=32)
        )

    def test_cold_user_without_neighbors_falls_back_to_source(
        self, world, trained, test_pairs
    ):
        """Source-fallback path: when Algorithm 1 finds no like-minded user,
        the target document *is* the source document."""
        dataset, split = world
        user = split.test_users[0]
        trained.aux_generator._cache[user] = []  # force 'no neighbors'
        engine = InferenceEngine(trained, batch_size=32)
        np.testing.assert_array_equal(
            engine.docs.target_doc(user), trained.store.user_source_doc(user)
        )
        pairs = [(user, i) for _, i in test_pairs[:4]]
        np.testing.assert_array_equal(
            engine.score_pairs(pairs),
            naive_score_pairs(trained, pairs, batch_size=32),
        )
        del trained.aux_generator._cache[user]

    def test_lru_eviction_reencode_determinism(self, trained, test_pairs):
        """A capacity-1 engine thrashes the cache yet scores identically."""
        thrashed = InferenceEngine(trained, batch_size=32, cache_capacity=1)
        roomy = InferenceEngine(trained, batch_size=32)
        first = thrashed.score_pairs(test_pairs)
        np.testing.assert_array_equal(first, roomy.score_pairs(test_pairs))
        np.testing.assert_array_equal(first, thrashed.score_pairs(test_pairs))
        assert thrashed.users.evictions > 0

    def test_output_dtype_follows_config(self, world):
        dataset, split = world
        result64 = OmniMatchTrainer(
            dataset, split, tiny_config(epochs=1, dtype="float64")
        ).fit()
        engine = InferenceEngine(result64, batch_size=32)
        test = split.eval_interactions(dataset, "test")
        out = engine.score_pairs([(r.user_id, r.item_id) for r in test[:3]])
        assert out.dtype == np.float64
