"""Full-catalog recommend: exact top-K of brute-force pair scoring."""

import numpy as np
import pytest

from repro.serve import InferenceEngine, Recommendation


def brute_force_topk(engine, user_id, k):
    """Ground truth: score every catalog item as explicit pairs, then sort
    by (-score, slot) — the engine's documented tie-break."""
    catalog = engine.items.item_ids
    scores = engine.score_pairs([(user_id, item) for item in catalog])
    order = np.lexsort((np.arange(len(scores)), -scores))[:k]
    return [(catalog[slot], scores[slot]) for slot in order]


@pytest.fixture(scope="module")
def engine(trained):
    return InferenceEngine(trained, batch_size=32)


class TestExactness:
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_topk_matches_brute_force(self, engine, world, k):
        dataset, split = world
        for user in [split.train_users[0], *split.test_users[:2]]:
            recs = engine.recommend(user, k=k)
            expected = brute_force_topk(engine, user, k)
            assert [r.item_id for r in recs] == [i for i, _ in expected]
            np.testing.assert_array_equal(
                np.array([r.score for r in recs], dtype=engine.out_dtype),
                np.array([s for _, s in expected]),
            )

    def test_k_larger_than_catalog_is_clamped(self, engine, world):
        dataset, split = world
        recs = engine.recommend(split.test_users[0], k=10_000)
        assert len(recs) == len(engine.items)
        scores = [r.score for r in recs]
        assert scores == sorted(scores, reverse=True)

    def test_scores_are_expected_ratings(self, engine, world):
        dataset, split = world
        recs = engine.recommend(split.test_users[0], k=3)
        for rec in recs:
            assert isinstance(rec, Recommendation)
            assert 1.0 <= rec.score <= 5.0


class TestExclusion:
    def test_excluded_items_never_ranked(self, engine, world):
        dataset, split = world
        user = split.test_users[1]
        full = engine.recommend(user, k=5)
        excluded = {full[0].item_id, full[2].item_id}
        filtered = engine.recommend(user, k=5, exclude_items=excluded)
        assert excluded.isdisjoint({r.item_id for r in filtered})
        # The survivors keep their relative order from the full ranking.
        survivors = [r.item_id for r in full if r.item_id not in excluded]
        assert [r.item_id for r in filtered[: len(survivors)]] == survivors

    def test_excluding_whole_catalog_returns_empty(self, engine, world):
        dataset, split = world
        recs = engine.recommend(
            split.test_users[0], k=5, exclude_items=engine.items.item_ids
        )
        assert recs == []


class TestCaching:
    def test_repeated_recommends_encode_catalog_once(self, trained, world):
        dataset, split = world
        engine = InferenceEngine(trained, batch_size=32)
        first = engine.recommend(split.test_users[0], k=4)
        encoded = engine.items.items_encoded
        assert encoded == len(engine.items)
        again = engine.recommend(split.test_users[0], k=4)
        assert engine.items.items_encoded == encoded
        assert first == again

    def test_k_must_be_positive(self, engine, world):
        dataset, split = world
        with pytest.raises(ValueError, match="k"):
            engine.recommend(split.test_users[0], k=0)
