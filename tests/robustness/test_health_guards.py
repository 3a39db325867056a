"""Numerical-health guards: every injected NaN/Inf is detected, rolled
back, and either recovered (transient fault) or escalated to
:class:`TrainingDivergedError` with the budget exhausted (persistent
fault) — and every step of that lands in the structured health log."""

import numpy as np
import pytest

from repro.core import OmniMatchTrainer, TrainingDivergedError
from repro.faults import NonFiniteGradientInjector, NonFiniteLossInjector

from .helpers import tiny_config, train_uninterrupted

EPOCHS = 4


def kinds(result):
    return [event.kind for event in result.health]


class TestTransientFaultRecovery:
    def test_nan_gradient_recovered(self, world):
        config = tiny_config()
        result = train_uninterrupted(
            world, config, EPOCHS,
            fault_injector=NonFiniteGradientInjector(epoch=2, batch=0),
        )
        assert [s.epoch for s in result.history] == [1, 2, 3, 4]
        assert kinds(result) == ["nonfinite_grad", "rollback", "lr_backoff"]
        assert all(np.isfinite(s.total) for s in result.history)

    def test_inf_loss_recovered_with_value_logged(self, world):
        config = tiny_config()
        result = train_uninterrupted(
            world, config, EPOCHS,
            fault_injector=NonFiniteLossInjector(
                epoch=3, batch=0, value=float("inf")
            ),
        )
        assert [s.epoch for s in result.history] == [1, 2, 3, 4]
        detection = result.health[0]
        assert detection.kind == "nonfinite_loss"
        assert detection.epoch == 3 and detection.batch == 0
        assert detection.value == float("inf")

    def test_lr_backoff_applied_after_rollback(self, world):
        # The snapshot restore must not undo the backoff: the recorded lr
        # is the *post*-restore, post-backoff value.
        config = tiny_config(lr_backoff_factor=0.25)
        result = train_uninterrupted(
            world, config, EPOCHS,
            fault_injector=NonFiniteGradientInjector(epoch=1, batch=0),
        )
        backoff = next(e for e in result.health if e.kind == "lr_backoff")
        assert backoff.value == pytest.approx(config.learning_rate * 0.25)

    def test_nonfinite_grad_in_later_parameter(self, world):
        config = tiny_config()
        result = train_uninterrupted(
            world, config, EPOCHS,
            fault_injector=NonFiniteGradientInjector(
                epoch=2, batch=1, param_index=3, value=float("-inf")
            ),
        )
        assert [s.epoch for s in result.history] == [1, 2, 3, 4]
        assert "nonfinite_grad" in kinds(result)


class TestPersistentFaultEscalation:
    def test_budget_exhaustion_raises(self, world):
        config = tiny_config(max_divergence_retries=2)
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        with pytest.raises(TrainingDivergedError, match="retry budget of 2"):
            trainer.fit(
                EPOCHS,
                fault_injector=NonFiniteLossInjector(
                    epoch=1, batch=0, repeat=True
                ),
            )

    def test_rollback_count_matches_budget(self, world):
        config = tiny_config(max_divergence_retries=3)
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        injector = NonFiniteGradientInjector(epoch=1, batch=0, repeat=True)
        with pytest.raises(TrainingDivergedError):
            trainer.fit(EPOCHS, fault_injector=injector)
        # budget retries, plus the final detection that exhausted it
        assert injector.fired == config.max_divergence_retries + 1

    def test_zero_budget_fails_on_first_divergence(self, world):
        config = tiny_config(max_divergence_retries=0)
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        with pytest.raises(TrainingDivergedError, match="retry budget of 0"):
            trainer.fit(
                EPOCHS,
                fault_injector=NonFiniteGradientInjector(epoch=1, batch=0),
            )

    def test_model_restored_to_last_good_state_on_escalation(self, world):
        # After the error, the model must hold the snapshot taken at the
        # start of the poisoned epoch — not NaN-laced parameters.
        config = tiny_config(max_divergence_retries=1)
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, config)
        with pytest.raises(TrainingDivergedError):
            trainer.fit(
                EPOCHS,
                fault_injector=NonFiniteLossInjector(
                    epoch=2, batch=0, repeat=True
                ),
            )
        for name, value in trainer.model.state_dict().items():
            assert np.isfinite(value).all(), f"parameter {name} not finite"
