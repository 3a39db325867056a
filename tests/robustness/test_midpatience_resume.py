"""Kill-and-resume *mid-patience*: the early-stopping bookkeeping
(``best_rmse``, ``stale`` counter), a backed-off learning rate, and the
divergence retry budget are all training state — a run killed while any of
them is non-default and then resumed must behave bit-identically to the
uninterrupted run, stopping at the same epoch and tolerating the same
total number of divergences. The ASHA tuner's rung-resume depends on this.
"""

import pytest

from repro.core import (
    HealthEvent,
    OmniMatchTrainer,
    read_training_checkpoint,
    write_training_checkpoint,
)
from repro.core.trainer import TrainingDivergedError
from repro.faults import NonFiniteLossInjector

from .helpers import (
    assert_histories_identical,
    assert_states_identical,
    tiny_config,
    train_uninterrupted,
)


def stale_after(history, epoch):
    """Replay the early-stopping counter over ``history`` up to ``epoch``."""
    best = float("inf")
    stale = 0
    for stats in history:
        if stats.epoch > epoch:
            break
        if stats.valid_rmse < best - 1e-6:
            best = stats.valid_rmse
            stale = 0
        else:
            stale += 1
    return stale


class TestMidPatienceResume:
    """Kill while ``stale`` is non-zero; the resumed run must stop where
    the uninterrupted run stops, not ``patience`` epochs later."""

    def test_world_produces_a_mid_patience_epoch(self, world):
        # Guard for the tests below: with patience=2 the toy world goes
        # stale at epoch 5 and stops at epoch 6, so epoch 5 is a genuine
        # mid-patience kill point. If the generator changes, re-pick one.
        config = tiny_config(early_stopping=True, patience=2)
        baseline = train_uninterrupted(world, config, 12)
        assert len(baseline.history) == 6
        assert stale_after(baseline.history, 5) == 1

    def test_resume_stops_at_same_epoch(self, world, tmp_path):
        config = tiny_config(early_stopping=True, patience=2)
        baseline = train_uninterrupted(world, config, 12)
        dataset, split = world
        first = OmniMatchTrainer(dataset, split, config)
        first.fit(5, checkpoint_every=1, checkpoint_dir=tmp_path)
        fresh = OmniMatchTrainer(dataset, split, config)
        resumed = fresh.fit(12, resume_from=tmp_path)
        assert len(resumed.history) == len(baseline.history)
        assert_histories_identical(baseline.history, resumed.history)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )

    def test_checkpoint_carries_stale_and_best(self, world, tmp_path):
        config = tiny_config(early_stopping=True, patience=2)
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        trainer.fit(5, checkpoint_every=1, checkpoint_dir=tmp_path)
        loaded = read_training_checkpoint(tmp_path / "epoch-0005")
        assert loaded.stale == 1
        # best-so-far is epoch 4 (the last improvement before going stale)
        assert loaded.best_rmse == loaded.history[3].valid_rmse
        assert loaded.best_state is not None


class TestBackedOffLrResume:
    """A transient divergence backs off ``optimizer.lr``; the backed-off
    rate must survive kill-and-resume so later epochs step identically."""

    def test_lr_backoff_persisted_in_checkpoint(self, world, tmp_path):
        config = tiny_config()
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        trainer.fit(
            3, checkpoint_every=1, checkpoint_dir=tmp_path,
            fault_injector=NonFiniteLossInjector(epoch=2, batch=0),
        )
        loaded = read_training_checkpoint(tmp_path / "epoch-0003")
        expected = config.learning_rate * config.lr_backoff_factor
        assert loaded.optimizer_state["hyper"]["lr"] == pytest.approx(expected)

    def test_resume_after_backoff_is_bit_identical(self, world, tmp_path):
        config = tiny_config()
        baseline = train_uninterrupted(
            world, config, 6,
            fault_injector=NonFiniteLossInjector(epoch=2, batch=0),
        )
        dataset, split = world
        first = OmniMatchTrainer(dataset, split, config)
        first.fit(
            3, checkpoint_every=1, checkpoint_dir=tmp_path,
            fault_injector=NonFiniteLossInjector(epoch=2, batch=0),
        )
        fresh = OmniMatchTrainer(dataset, split, config)
        resumed = fresh.fit(6, resume_from=tmp_path)
        assert_histories_identical(baseline.history, resumed.history)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
        # The backoff happened exactly once, before the kill.
        assert sum(1 for e in resumed.health if e.kind == "lr_backoff") == 1


class TestRetryBudgetResume:
    """Regression: ``retries_left`` used to reset to the full
    ``max_divergence_retries`` on resume, so a killed-and-resumed run
    tolerated more divergences in total than an uninterrupted one."""

    def test_uninterrupted_budget_exhausts(self, world):
        config = tiny_config(max_divergence_retries=1)
        with pytest.raises(TrainingDivergedError):
            train_uninterrupted(
                world, config, 6,
                fault_injector=NonFiniteLossInjector(epoch=4, batch=0, repeat=True),
            )

    def test_resumed_run_does_not_regain_spent_retries(self, world, tmp_path):
        config = tiny_config(max_divergence_retries=1)
        dataset, split = world
        first = OmniMatchTrainer(dataset, split, config)
        # Epoch 2 diverges once (transient): the single retry is spent,
        # training recovers, and epoch 3's checkpoint records the rollback.
        first.fit(
            3, checkpoint_every=1, checkpoint_dir=tmp_path,
            fault_injector=NonFiniteLossInjector(epoch=2, batch=0),
        )
        fresh = OmniMatchTrainer(dataset, split, config)
        # A second divergence after resume must exhaust the budget — the
        # rollback spent before the kill still counts.
        with pytest.raises(TrainingDivergedError, match="retry budget"):
            fresh.fit(
                6, resume_from=tmp_path,
                fault_injector=NonFiniteLossInjector(epoch=5, batch=0, repeat=True),
            )

    def test_unspent_budget_survives_resume(self, world, tmp_path):
        config = tiny_config(max_divergence_retries=1)
        dataset, split = world
        first = OmniMatchTrainer(dataset, split, config)
        first.fit(2, checkpoint_every=1, checkpoint_dir=tmp_path)
        fresh = OmniMatchTrainer(dataset, split, config)
        # No rollbacks before the kill: the resumed run still has its one
        # retry and recovers from a single transient divergence.
        resumed = fresh.fit(
            5, resume_from=tmp_path,
            fault_injector=NonFiniteLossInjector(epoch=4, batch=0),
        )
        assert sum(1 for e in resumed.health if e.kind == "rollback") == 1
        assert len(resumed.history) == 5


class TestOldPreemptCheckpoint:
    """Checkpoints written while the trainer could still stop cooperatively
    end their health log with a ``preempt`` event; they must still read
    and resume bit-identically."""

    def test_checkpoint_with_preempt_event_resumes(self, world, tmp_path):
        config = tiny_config()
        baseline = train_uninterrupted(world, config, 4)
        dataset, split = world
        OmniMatchTrainer(dataset, split, config).fit(
            2, checkpoint_every=2, checkpoint_dir=tmp_path / "run"
        )
        checkpoint = read_training_checkpoint(tmp_path / "run" / "epoch-0002")
        checkpoint.health.append(HealthEvent(
            epoch=2, kind="preempt", detail="stop_check requested cooperative stop",
        ))
        write_training_checkpoint(checkpoint, tmp_path / "old" / "epoch-0002")
        loaded = read_training_checkpoint(tmp_path / "old" / "epoch-0002")
        assert loaded.health[-1].kind == "preempt"

        resumed = OmniMatchTrainer(dataset, split, config).fit(
            4, resume_from=tmp_path / "old"
        )
        assert any(e.kind == "preempt" for e in resumed.health)
        assert_histories_identical(baseline.history, resumed.history)
        assert_states_identical(
            baseline.model.state_dict(), resumed.model.state_dict()
        )
