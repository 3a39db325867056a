"""Deterministic distributed hyperparameter tuning (``repro tune``).

The tuner searches over :class:`~repro.core.config.OmniMatchConfig`
fields with rung-synchronous successive halving (the deterministic
flavour of ASHA): a declarative search space (:mod:`~repro.tune.space`)
expands into an ordered trial list, rungs fan over the
:class:`~repro.parallel.pool.TaskPool`, the scheduler
(:mod:`~repro.tune.scheduler`) ranks each rung from the validation-RMSE
stream in the telemetry shards, losing trials are killed at the barrier
(every rung task has finished by then, so a kill just means the trial is
never resubmitted), and promoted trials resume from their checkpoints —
never recomputing an epoch. Same spec + seed ⇒ same schedule, same
kills, byte-identical ``best_config.json``.
"""

from .runner import TuneError, TuneResult, run_tuning, trained_epoch_census
from .scheduler import (
    GridScheduler,
    RungDecision,
    SuccessiveHalving,
    make_scheduler,
)
from .space import SearchSpaceError, TrialSpec, enumerate_trials, parse_space
from .worker import TrialTaggedSink, run_rung

__all__ = [
    "GridScheduler",
    "RungDecision",
    "SearchSpaceError",
    "SuccessiveHalving",
    "TrialSpec",
    "TrialTaggedSink",
    "TuneError",
    "TuneResult",
    "enumerate_trials",
    "make_scheduler",
    "parse_space",
    "run_rung",
    "run_tuning",
    "trained_epoch_census",
]
