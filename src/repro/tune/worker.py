"""Budgeted rung execution: what one tuner task runs inside a pool worker.

:func:`run_rung` trains one trial up to its rung's *cumulative* epoch
budget. Rung 0 starts fresh; every later rung **resumes from the trial's
newest checkpoint** (written by the previous rung at its final epoch) and
trains only the marginal epochs — a promoted trial never recomputes an
epoch it already paid for. Early stopping is disabled in trial configs
(the scheduler owns stopping), so every rung runs to its budget, and
``validate_every=1`` records validation RMSE every epoch.

Telemetry is the load-bearing result path: every event the trainer emits
during the rung is stamped with ``trial``/``rung`` by
:class:`TrialTaggedSink`, and the rung ends with a ``tune_trial`` event
carrying the final validation RMSE and the per-epoch curve. The scheduler
ranks rungs by reading those events back out of the worker shards — the
function's return value is transport metadata only.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..core import OmniMatchConfig, OmniMatchTrainer
from ..data import ColdStartSplit, CrossDomainDataset
from ..data.batching import DocumentStore
from ..parallel.pool import TaskContext
from ..parallel.sharing import (
    SharedDatasetRef,
    SharedStoreRef,
    resolve_dataset,
    resolved_store,
)

__all__ = ["TrialTaggedSink", "run_rung"]


class TrialTaggedSink:
    """Stamp ``trial``/``rung`` into every event written to a shard sink.

    Worker shards interleave events from many rung tasks; the tags are
    what lets the scheduler (and the report's sensitivity table) attribute
    each ``epoch`` event to its trial afterwards. ``close`` only flushes —
    the pool owns the underlying shard sink's lifetime.
    """

    def __init__(self, sink, trial: int, rung: int) -> None:
        self._sink = sink
        self.trial = trial
        self.rung = rung

    def emit(self, kind: str, **fields):
        fields.setdefault("trial", self.trial)
        fields.setdefault("rung", self.rung)
        return self._sink.emit(kind, **fields)

    def flush(self, fsync: bool = False) -> None:
        self._sink.flush(fsync=fsync)

    def close(self) -> None:
        self._sink.flush()


def run_rung(
    ctx: TaskContext,
    *,
    trial_id: int,
    rung: int,
    budget: int,
    config: OmniMatchConfig,
    dataset_ref: "SharedDatasetRef | CrossDomainDataset",
    store_ref: "SharedStoreRef | DocumentStore | None",
    split: ColdStartSplit,
    trial_dir: str,
    resume: bool,
) -> dict[str, Any]:
    """Train ``trial_id`` to cumulative epoch ``budget``; checkpoint at the end.

    Returns ``{"trial", "rung", "epochs", "valid_rmse", "resumed_from"}``
    — metadata for bookkeeping. The authoritative RMSE travels through the
    telemetry shard (``tune_trial`` event).
    """
    dataset = resolve_dataset(dataset_ref)
    tagged = (
        TrialTaggedSink(ctx.sink, trial_id, rung) if ctx.sink is not None else None
    )
    with resolved_store(store_ref, dataset, split) as store:
        trainer = OmniMatchTrainer(
            dataset, split, config, telemetry=tagged, store=store
        )
        result = trainer.fit(
            budget,
            validate_every=1,
            resume_from=trial_dir if resume else None,
            checkpoint_every=budget,
            checkpoint_dir=trial_dir,
            keep_last=1,
        )

    history = result.history
    # The health log accumulates across rungs; the *last* resume event is
    # this fit's (its epoch = the previous rung's budget).
    resumed_from = next(
        (event.epoch for event in reversed(result.health) if event.kind == "resume"),
        0,
    ) if resume else 0
    curve = {stats.epoch: stats.valid_rmse for stats in history}
    final = history[-1]
    if ctx.sink is not None:
        ctx.sink.emit(
            "tune_trial",
            trial=trial_id,
            rung=rung,
            status="done",
            budget=budget,
            epochs=final.epoch,
            valid_rmse=final.valid_rmse,
            curve={str(epoch): rmse for epoch, rmse in sorted(curve.items())},
        )
        ctx.sink.flush()
    return {
        "trial": trial_id,
        "rung": rung,
        "epochs": final.epoch,
        "valid_rmse": final.valid_rmse,
        "resumed_from": resumed_from,
        "status": "done",
        "checkpoint_dir": str(Path(trial_dir)),
    }
