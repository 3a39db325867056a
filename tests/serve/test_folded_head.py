"""The folded rating head: close to the training MLP, and every serving
path that scores a (user, item) gets the same bits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import RATING_VALUES, OmniMatchTrainer
from repro.nn import functional as F
from repro.serve import InferenceEngine
from repro.serve.blocking import inference_mode, score_user_rows

from .helpers import tiny_config

MODES = ("dual", "blend", "aux_only")


@pytest.fixture(scope="module")
def results(world):
    """One 1-epoch TrainResult per (cold_inference, use_aux, dtype)."""
    dataset, split = world
    return {
        (mode, use_aux, dtype): OmniMatchTrainer(
            dataset,
            split,
            tiny_config(
                epochs=1, cold_inference=mode,
                use_auxiliary_reviews=use_aux, dtype=dtype,
            ),
        ).fit()
        for mode in MODES
        for use_aux in (True, False)
        for dtype in ("float32", "float64")
    }


class TestFoldMatchesTrainingHead:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("use_aux", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_folded_head_matches_rating_classifier(
        self, results, world, mode, use_aux, dtype
    ):
        dataset, split = world
        result = results[(mode, use_aux, dtype)]
        model = result.model
        engine = InferenceEngine(result, batch_size=16)
        users = [*split.test_users[:4], *split.train_users[:2]]
        invariant, user_repr = engine.users.get_many(users)
        config = model.config
        user_width = (
            2 * config.invariant_dim + config.specific_dim
            if mode == "dual"
            else config.invariant_dim + config.specific_dim
        )
        assert user_repr.shape[1] == user_width
        items = engine.items.reprs
        for row in range(len(users)):
            folded = score_user_rows(
                model.rating_classifier, invariant[row], user_repr[row], items,
                block=engine.batch_size,
            )
            features = np.concatenate(
                [
                    np.repeat(user_repr[row : row + 1], len(items), axis=0),
                    items,
                    invariant[row] * items,
                ],
                axis=1,
            )
            with inference_mode(model):
                logits = model.rating_classifier(nn.Tensor(features))
                expected = F.softmax(logits, axis=-1).data @ RATING_VALUES
            assert folded.dtype == np.dtype(dtype)
            np.testing.assert_allclose(folded, expected, rtol=1e-5, atol=1e-5)


@pytest.fixture(scope="module")
def catalog_scores(trained, world):
    """``{user: {item: score}}`` from full-catalog exact recommends."""
    dataset, split = world
    engine = InferenceEngine(trained, batch_size=8)
    users = [*split.test_users[:3], *split.train_users[:2]]
    return {
        user: {
            rec.item_id: rec.score
            for rec in engine.recommend(user, k=len(engine.items))
        }
        for user in users
    }


class TestPairScoringMatchesRecommend:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_shuffled_interleaved_duplicated_pairs(
        self, trained, catalog_scores, data
    ):
        users = sorted(catalog_scores)
        items = sorted(catalog_scores[users[0]])
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(users), st.sampled_from(items)),
                min_size=1, max_size=40,
            )
        )
        pairs = data.draw(st.permutations(pairs + pairs[: len(pairs) // 2]))
        capacity = data.draw(st.integers(1, len(users)))
        engine = InferenceEngine(trained, batch_size=8, cache_capacity=capacity)
        scores = engine.score_pairs(pairs)
        assert [float(s) for s in scores] == [
            catalog_scores[user][item] for user, item in pairs
        ]
