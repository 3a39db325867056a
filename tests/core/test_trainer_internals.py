"""White-box tests of the trainer's document-augmentation machinery."""

import numpy as np
import pytest

from repro.core import OmniMatchConfig, OmniMatchTrainer
from repro.data import GeneratorConfig, cold_start_split, generate_domain_pair, iter_batches


@pytest.fixture(scope="module")
def world():
    dataset = generate_domain_pair(
        "books",
        "movies",
        GeneratorConfig(num_users=90, num_items_per_domain=40,
                        reviews_per_user_mean=5.0, seed=51),
    )
    split = cold_start_split(dataset, seed=0)
    return dataset, split


def make_trainer(world, **overrides):
    dataset, split = world
    base = dict(embed_dim=16, num_filters=4, kernel_sizes=(2, 3), invariant_dim=8,
                specific_dim=8, projection_dim=6, doc_len=24, vocab_size=300,
                epochs=1, early_stopping=False)
    base.update(overrides)
    return OmniMatchTrainer(dataset, split, OmniMatchConfig(**base))


def reference_epoch(trainer, interactions):
    """Per-sample batch assembly: the oracle for ``_epoch_batches``.

    Replays the trainer's RNG stream on a copy — one shuffle per epoch, then
    one double per sample in batch order — and builds every row from the
    document store one interaction at a time. Returns the list of
    ``(batch interactions, (source, target, items, labels))`` and the RNG
    state after the epoch.
    """
    config, store = trainer.config, trainer.store
    rng = np.random.default_rng()
    rng.bit_generator.state = trainer._rng.bit_generator.state
    use_aux = config.use_auxiliary_reviews and config.aux_mix_prob > 0.0
    empty_doc = np.zeros(config.doc_len, dtype=np.int64)
    epoch = []
    for batch in iter_batches(interactions, config.batch_size, rng):
        source, target, items, labels = [], [], [], []
        for interaction in batch:
            source.append(store.user_source_doc(interaction.user_id))
            draw = rng.random()
            if draw < config.target_dropout_prob:
                target.append(empty_doc)
            elif use_aux and draw < config.target_dropout_prob + config.aux_mix_prob:
                target.append(trainer._auxiliary_doc(interaction.user_id))
            else:
                target.append(store.user_target_doc(interaction.user_id))
            items.append(store.item_doc(interaction.item_id))
            labels.append(interaction.rating_index)
        arrays = (np.stack(source), np.stack(target), np.stack(items),
                  np.asarray(labels, dtype=np.int64))
        epoch.append((batch, arrays))
    return epoch, rng.bit_generator.state


def assembled_epoch(trainer, interactions):
    """What ``_epoch_batches`` yields, checked against the oracle.

    Returns ``(batch interactions, arrays)`` per batch, where the
    interactions come from the oracle's replay of the shuffle.
    """
    expected, rng_after = reference_epoch(trainer, interactions)
    actual = list(trainer._epoch_batches(interactions))
    assert len(actual) == len(expected)
    for arrays, (_, oracle) in zip(actual, expected):
        assert len(arrays) == len(oracle)
        for array, oracle_array in zip(arrays, oracle):
            np.testing.assert_array_equal(array, oracle_array)
    assert trainer._rng.bit_generator.state == rng_after
    return [(batch, arrays) for arrays, (batch, _) in zip(actual, expected)]


class TestBatchArrays:
    def test_shapes_aligned(self, world):
        dataset, split = world
        trainer = make_trainer(world)
        [(_, (src, tgt, item, labels))] = assembled_epoch(
            trainer, split.train_interactions(dataset)[:10]
        )
        assert src.shape == tgt.shape == item.shape == (10, 24)
        assert labels.shape == (10,)
        assert labels.dtype == np.int64

    def test_labels_zero_based(self, world):
        dataset, split = world
        trainer = make_trainer(world)
        [(_, (_, _, _, labels))] = assembled_epoch(
            trainer, split.train_interactions(dataset)[:50]
        )
        assert labels.min() >= 0 and labels.max() <= 4

    def test_target_dropout_produces_empty_docs(self, world):
        dataset, split = world
        trainer = make_trainer(world, target_dropout_prob=1.0, aux_mix_prob=0.0)
        [(_, (_, tgt, _, _))] = assembled_epoch(
            trainer, split.train_interactions(dataset)[:10]
        )
        np.testing.assert_allclose(tgt, 0)

    def test_full_aux_mix_uses_auxiliary_docs(self, world):
        dataset, split = world
        trainer = make_trainer(world, target_dropout_prob=0.0, aux_mix_prob=1.0)
        [(batch, (_, tgt, _, _))] = assembled_epoch(
            trainer, split.train_interactions(dataset)[:10]
        )
        for interaction, doc in zip(batch, tgt):
            expected = trainer._auxiliary_doc(interaction.user_id)
            np.testing.assert_array_equal(doc, expected)

    def test_no_augmentation_uses_real_docs(self, world):
        dataset, split = world
        trainer = make_trainer(world, target_dropout_prob=0.0, aux_mix_prob=0.0)
        [(batch, (_, tgt, _, _))] = assembled_epoch(
            trainer, split.train_interactions(dataset)[:10]
        )
        for interaction, doc in zip(batch, tgt):
            np.testing.assert_array_equal(
                doc, trainer.store.user_target_doc(interaction.user_id)
            )

    def test_aux_disabled_never_mixes(self, world):
        dataset, split = world
        trainer = make_trainer(
            world, use_auxiliary_reviews=False, aux_mix_prob=1.0,
            target_dropout_prob=0.0,
        )
        [(batch, (_, tgt, _, _))] = assembled_epoch(
            trainer, split.train_interactions(dataset)[:10]
        )
        for interaction, doc in zip(batch, tgt):
            np.testing.assert_array_equal(
                doc, trainer.store.user_target_doc(interaction.user_id)
            )

    def test_aux_doc_cached(self, world):
        dataset, split = world
        trainer = make_trainer(world)
        user = split.train_users[0]
        assert trainer._auxiliary_doc(user) is trainer._auxiliary_doc(user)


class TestFastPathEquivalence:
    """The vectorized gather must reproduce per-sample assembly exactly."""

    def test_batch_arrays_match_legacy(self, world):
        # A full epoch at the default mixing probabilities, so source,
        # target, auxiliary and blanked rows all occur.
        dataset, split = world
        trainer = make_trainer(world, batch_size=32)
        interactions = split.train_interactions(dataset)
        epoch = assembled_epoch(trainer, interactions)
        assert len(epoch) == -(-len(interactions) // 32)
        assert sum(len(batch) for batch, _ in epoch) == len(interactions)

    def test_rng_stream_matches_across_batches(self, world):
        # Same seed, consecutive epochs: the vectorized draws must consume
        # the RNG exactly like the per-sample scalar draws, so the stream
        # stays aligned from one epoch's shuffle to the next.
        dataset, split = world
        trainer = make_trainer(world, batch_size=32)
        interactions = split.train_interactions(dataset)
        for _ in range(3):
            assembled_epoch(trainer, interactions)


class TestTrainEvalMode:
    def test_train_mode_restored_after_validation(self, world):
        # Regression: train mode was only restored on the early-stopping
        # branch, so a validation pass that leaves the model in eval mode
        # (the trainer must not rely on the predictor restoring it) silently
        # disabled dropout for every later epoch when early stopping is off.
        trainer = make_trainer(world, epochs=2, early_stopping=False, dropout=0.3)
        modes = []
        original = trainer.model.compute_losses

        def spy(*args, **kwargs):
            modes.append(trainer.model.training)
            return original(*args, **kwargs)

        def leaky_validation(result):
            trainer.model.eval()
            return 1.0

        trainer.model.compute_losses = spy
        trainer._validation_rmse = leaky_validation
        trainer.fit(validate_every=1)
        assert modes and all(modes)

    def test_model_in_eval_mode_after_fit(self, world):
        trainer = make_trainer(world, epochs=1)
        trainer.fit()
        assert not trainer.model.training


class TestTrainerErrors:
    def test_empty_train_set_raises(self, world):
        dataset, split = world
        trainer = make_trainer(world)
        # sabotage: a split whose train users have no target reviews
        from repro.data.split import ColdStartSplit

        bad_split = ColdStartSplit(
            train_users=("nonexistent-user",),
            valid_users=split.valid_users,
            test_users=split.test_users,
        )
        trainer.split = bad_split
        with pytest.raises(ValueError):
            trainer.fit()
