"""Kill-resume equivalence: a checkpointed run killed at an epoch boundary
or mid-epoch, then resumed, must reproduce the uninterrupted run bit-for-bit
— weights, per-epoch losses, and early-stopping behaviour — for both
optimizers."""

import numpy as np
import pytest

from repro.core import OmniMatchTrainer
from repro.faults import CrashInjector, SimulatedCrash

from .helpers import (
    assert_histories_identical,
    assert_states_identical,
    tiny_config,
    train_uninterrupted,
)

EPOCHS = 4


def resume_after_partial(world, config, stop_epoch, tmp_path, epochs=EPOCHS):
    """Train ``stop_epoch`` epochs with checkpointing, then resume fresh."""
    dataset, split = world
    first = OmniMatchTrainer(dataset, split, config)
    first.fit(stop_epoch, checkpoint_every=1, checkpoint_dir=tmp_path)
    fresh = OmniMatchTrainer(dataset, split, config)
    return fresh.fit(epochs, resume_from=tmp_path)


class TestEpochBoundaryResume:
    @pytest.mark.parametrize("stop_epoch", [1, 2, 3])
    def test_fast_path(self, world, tmp_path, stop_epoch):
        config = tiny_config()
        baseline = train_uninterrupted(world, config, EPOCHS)
        resumed = resume_after_partial(world, config, stop_epoch, tmp_path)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
        assert_histories_identical(baseline.history, resumed.history)

    def test_adam_optimizer(self, world, tmp_path):
        config = tiny_config(optimizer="adam")
        baseline = train_uninterrupted(world, config, EPOCHS)
        resumed = resume_after_partial(world, config, 2, tmp_path)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
        assert_histories_identical(baseline.history, resumed.history)

    def test_early_stopping_bookkeeping_survives(self, world, tmp_path):
        config = tiny_config(early_stopping=True, patience=3)
        baseline = train_uninterrupted(world, config, EPOCHS)
        resumed = resume_after_partial(world, config, 2, tmp_path)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
        assert_histories_identical(baseline.history, resumed.history)

    def test_resume_records_health_event(self, world, tmp_path):
        config = tiny_config()
        resumed = resume_after_partial(world, config, 2, tmp_path)
        assert any(event.kind == "resume" for event in resumed.health)

    def test_resume_extends_training_past_config_epochs(self, world, tmp_path):
        # config.epochs is a run-length bound, not training state: a
        # checkpoint from an epochs=2 config must resume under epochs=4
        # and land bit-identically on the uninterrupted 4-epoch run.
        dataset, split = world
        baseline = train_uninterrupted(world, tiny_config(epochs=EPOCHS), EPOCHS)
        first = OmniMatchTrainer(dataset, split, tiny_config(epochs=2))
        first.fit(checkpoint_every=1, checkpoint_dir=tmp_path)
        fresh = OmniMatchTrainer(dataset, split, tiny_config(epochs=EPOCHS))
        resumed = fresh.fit(resume_from=tmp_path)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
        assert_histories_identical(baseline.history, resumed.history)

    def test_resume_past_requested_epochs_is_a_noop(self, world, tmp_path):
        config = tiny_config()
        baseline = train_uninterrupted(world, config, 2)
        dataset, split = world
        first = OmniMatchTrainer(dataset, split, config)
        first.fit(2, checkpoint_every=1, checkpoint_dir=tmp_path)
        fresh = OmniMatchTrainer(dataset, split, config)
        resumed = fresh.fit(2, resume_from=tmp_path)
        assert len(resumed.history) == 2
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )


class TestMidEpochCrashResume:
    def test_crash_injector_then_resume(self, world, tmp_path):
        config = tiny_config()
        baseline = train_uninterrupted(world, config, EPOCHS)
        dataset, split = world
        doomed = OmniMatchTrainer(dataset, split, config)
        with pytest.raises(SimulatedCrash):
            doomed.fit(
                EPOCHS,
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                fault_injector=CrashInjector(epoch=3, batch=1),
            )
        fresh = OmniMatchTrainer(dataset, split, config)
        resumed = fresh.fit(EPOCHS, resume_from=tmp_path)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
        assert_histories_identical(baseline.history, resumed.history)


class TestCheckpointMechanics:
    def test_retention_keeps_last_k(self, world, tmp_path):
        config = tiny_config()
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        trainer.fit(4, checkpoint_every=1, checkpoint_dir=tmp_path, keep_last=2)
        epoch_dirs = sorted(
            p.name for p in tmp_path.iterdir() if p.name.startswith("epoch-")
        )
        assert epoch_dirs == ["epoch-0003", "epoch-0004"]

    def test_best_checkpoint_written_and_kept(self, world, tmp_path):
        config = tiny_config(early_stopping=True, patience=4)
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        result = trainer.fit(
            4, checkpoint_every=1, checkpoint_dir=tmp_path, keep_last=1
        )
        assert (tmp_path / "best" / "MANIFEST.json").exists()
        from repro.core import read_training_checkpoint

        best = read_training_checkpoint(tmp_path / "best")
        recorded = [s.valid_rmse for s in result.history if s.valid_rmse is not None]
        assert best.best_rmse == min(recorded)

    def test_checkpoint_every_requires_dir(self, world):
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, tiny_config())
        with pytest.raises(ValueError, match="checkpoint_dir"):
            trainer.fit(1, checkpoint_every=1)

    def test_checkpointing_does_not_perturb_training(self, world, tmp_path):
        config = tiny_config()
        baseline = train_uninterrupted(world, config, 3)
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        checkpointed = trainer.fit(
            3, checkpoint_every=1, checkpoint_dir=tmp_path
        )
        assert_states_identical(
            baseline.model.state_dict(), checkpointed.model.state_dict()
        )

    def test_empty_validation_with_early_stopping_rejected(self, world):
        from repro.data import ColdStartSplit

        dataset, split = world
        hollow = ColdStartSplit(
            train_users=split.train_users,
            valid_users=(),
            test_users=split.test_users,
        )
        trainer = OmniMatchTrainer(dataset, hollow, tiny_config(early_stopping=True))
        with pytest.raises(ValueError, match="validation split is empty"):
            trainer.fit(1)
