"""Tuner orchestration: fan rungs over the pool, decide at the barriers.

The runner owns everything deterministic about a tune:

1. one world and one cold-start split (``split_seed``) shared by every
   trial — trials differ only in hyperparameters;
2. the trial list from :func:`repro.tune.space.enumerate_trials`
   (spec + seed ⇒ same trials, same order);
3. rung-synchronous scheduling: each rung's tasks are submitted in trial
   order, the pool is drained (a barrier), and the rung is ranked from
   the ``tune_trial`` events read back out of the telemetry shards — the
   per-epoch RMSE stream workers wrote is the scheduler's input, not the
   pool's return values;
4. killed trials are never resubmitted, and promotions resume from the
   trial's checkpoint;
5. the best-config artifact is serialized with sorted keys and no
   timestamps/paths, so two runs of the same ``(spec, seed)`` — or the
   same spec run inline vs. over workers — produce **byte-identical**
   files.

Bulk data travels once: with ``workers >= 2`` the dataset (and, when no
document-shaping field is tuned, one :class:`DocumentStore`) is published
to shared memory and workers attach.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..core import OmniMatchConfig
from ..data import CrossDomainDataset, cold_start_split, generate_scenario
from ..data.batching import DocumentStore
from ..obs import TelemetrySink, merge_shards, read_events
from ..parallel.pool import TaskPool
from ..parallel.sharing import publish_dataset, publish_document_matrices
from .scheduler import RungDecision, make_scheduler
from .space import TrialSpec, enumerate_trials
from .worker import run_rung

__all__ = ["TuneError", "TuneResult", "run_tuning", "trained_epoch_census"]

#: Config fields that shape the document store; tuning any of them makes a
#: shared store invalid (each trial then builds its own).
_STORE_FIELDS = frozenset({"doc_len", "vocab_size", "field"})

ARTIFACT_NAME = "best_config.json"


class TuneError(RuntimeError):
    """The tune could not complete (missing scores, empty rung, ...)."""


@dataclass
class TuneResult:
    """Everything a caller needs after a tune."""

    best_trial: int
    best_params: dict[str, Any]
    best_rmse: float
    best_config: OmniMatchConfig
    trials: list[dict[str, Any]]
    rungs: list[RungDecision]
    total_epochs: int
    wall_seconds: float
    artifact_path: Path
    telemetry_dir: Path


def trained_epoch_census(telemetry_dir) -> tuple[int, int]:
    """(total trained epochs, duplicated (trial, epoch) pairs) from shards.

    Every epoch a trial actually trains emits exactly one tagged ``epoch``
    event in exactly one rung task; a duplicate means a promoted trial
    *recomputed* an epoch instead of resuming — the bug the checkpoint
    resume exists to prevent. The census reads the worker shards (or the
    merged ``run.jsonl`` if shards were already merged).
    """
    pairs: Counter[tuple[int, int]] = Counter()
    for event in _scan_shards(Path(telemetry_dir)):
        if event.get("kind") == "epoch" and "trial" in event:
            pairs[(event["trial"], event["epoch"])] += 1
    duplicates = sum(count - 1 for count in pairs.values())
    return sum(pairs.values()), duplicates


def _scan_shards(telemetry_dir: Path) -> list[dict]:
    shards = sorted(telemetry_dir.glob("run-*.jsonl"))
    if not shards:
        merged = telemetry_dir / "run.jsonl"
        shards = [merged] if merged.exists() else []
    events: list[dict] = []
    for shard in shards:
        events.extend(read_events(shard))
    return events


def _rung_scores(
    telemetry_dir: Path, rung: int, trial_ids: list[int]
) -> dict[int, float]:
    """Read each trial's rung score back out of the telemetry stream."""
    scores: dict[int, float] = {}
    for event in _scan_shards(telemetry_dir):
        if (
            event.get("kind") == "tune_trial"
            and event.get("rung") == rung
            and event.get("status") == "done"
        ):
            rmse = event.get("valid_rmse")
            scores[event["trial"]] = float("nan") if rmse is None else float(rmse)
    missing = [t for t in trial_ids if t not in scores]
    if missing:
        raise TuneError(
            f"rung {rung}: no tune_trial event in telemetry for trial(s) "
            f"{missing} — the scheduler cannot rank this rung"
        )
    return {t: scores[t] for t in trial_ids}


def _json_params(params: tuple[tuple[str, Any], ...]) -> dict[str, Any]:
    return {name: value for name, value in params}


def run_tuning(
    spec: Mapping[str, Any],
    *,
    base_config: OmniMatchConfig | None = None,
    dataset: CrossDomainDataset | None = None,
    dataset_name: str = "amazon",
    source: str = "books",
    target: str = "movies",
    generator_overrides: Mapping[str, Any] | None = None,
    seed: int = 0,
    num_samples: int = 1,
    scheduler: str = "asha",
    min_epochs: int = 1,
    max_epochs: int = 9,
    eta: int = 3,
    train_fraction: float = 1.0,
    split_seed: int = 0,
    workers: int = 0,
    out_dir: str | Path,
    telemetry_dir: str | Path | None = None,
    max_task_retries: int = 2,
    fault_plan=None,
) -> TuneResult:
    """Run one tune end-to-end; returns the winner and writes the artifact.

    ``out_dir`` receives ``best_config.json`` plus per-trial checkpoint
    directories under ``trials/``; telemetry shards land in
    ``telemetry_dir`` (default ``out_dir/telemetry``) and are merged into
    a schema-valid ``run.jsonl`` at the end. ``workers < 2`` runs inline;
    both modes produce byte-identical artifacts. ``fault_plan`` (a
    :class:`~repro.faults.WorkerFaultPlan`) injects deterministic worker
    deaths and stalls (chaos tests).
    """
    started = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    telemetry_dir = (
        Path(telemetry_dir) if telemetry_dir is not None else out_dir / "telemetry"
    )

    sched = make_scheduler(
        scheduler, min_epochs=min_epochs, max_epochs=max_epochs, eta=eta
    )
    trials = enumerate_trials(
        spec, base_config, seed=seed, num_samples=num_samples,
        max_epochs=sched.budgets[-1],
    )
    by_id: dict[int, TrialSpec] = {t.trial_id: t for t in trials}

    if dataset is None:
        dataset = generate_scenario(
            dataset_name, source, target, **dict(generator_overrides or {})
        )
    split_args = {"train_fraction": train_fraction, "seed": split_seed}
    split = cold_start_split(dataset, **split_args)
    if not split.valid_users:
        raise TuneError(
            "the cold-start split has no validation users — the tuner "
            "ranks trials by validation RMSE and cannot run without them"
        )

    tuned_fields = {name for t in trials for name, _ in t.params}
    share_store = not (tuned_fields & _STORE_FIELDS)

    parent_sink = TelemetrySink(
        telemetry_dir, filename="run-parent.jsonl", run_id="tune"
    )
    packs = []
    decisions: list[RungDecision] = []
    trial_rungs: dict[int, dict[int, float]] = {t.trial_id: {} for t in trials}
    killed_at: dict[int, int] = {}
    try:
        for trial in trials:
            parent_sink.emit(
                "tune_trial", trial=trial.trial_id, rung=0, status="defined",
                params=_json_params(trial.params),
            )
        parent_sink.flush()

        dataset_ref: Any = dataset
        store_ref: Any = None
        if workers >= 2:
            pack, dataset_ref = publish_dataset(dataset)
            packs.append(pack)
            if share_store:
                store = DocumentStore(
                    dataset, split,
                    doc_len=(base_config or OmniMatchConfig()).doc_len,
                    vocab_size=(base_config or OmniMatchConfig()).vocab_size,
                    field=(base_config or OmniMatchConfig()).field,
                )
                pack, store_ref = publish_document_matrices(store)
                packs.append(pack)
        elif share_store:
            base = base_config or OmniMatchConfig()
            store_ref = DocumentStore(
                dataset, split, doc_len=base.doc_len,
                vocab_size=base.vocab_size, field=base.field,
            )

        alive = [t.trial_id for t in trials]
        with TaskPool(
            workers, telemetry_dir=telemetry_dir,
            max_task_retries=max_task_retries, fault_plan=fault_plan,
        ) as pool:
            for rung_index, budget in enumerate(sched.budgets):
                for trial_id in alive:
                    trial = by_id[trial_id]
                    pool.submit(
                        run_rung,
                        trial_id=trial_id,
                        rung=rung_index,
                        budget=budget,
                        config=trial.config,
                        dataset_ref=dataset_ref,
                        store_ref=store_ref,
                        split=split,
                        trial_dir=str(out_dir / "trials" / f"trial-{trial_id:04d}"),
                        resume=rung_index > 0,
                    )
                pool.drain()

                scores = _rung_scores(telemetry_dir, rung_index, alive)
                for trial_id, rmse in scores.items():
                    trial_rungs[trial_id][rung_index] = rmse
                decision = sched.decide(rung_index, scores)
                decisions.append(decision)
                for trial_id in decision.killed:
                    killed_at[trial_id] = rung_index
                parent_sink.emit(
                    "tune_rung",
                    rung=rung_index,
                    budget=budget,
                    trials=list(alive),
                    promoted=list(decision.promoted),
                    killed=list(decision.killed),
                    scores={str(t): scores[t] for t in sorted(scores)},
                )
                parent_sink.flush()
                if decision.promoted:
                    alive = list(decision.promoted)

        final = decisions[-1]
        best_trial = final.ranked[0]
        best_rmse = trial_rungs[best_trial][final.rung]
        best_spec = by_id[best_trial]

        trial_summaries = [
            {
                "trial": t.trial_id,
                "params": _json_params(t.params),
                "rungs": {
                    str(r): rmse for r, rmse in sorted(trial_rungs[t.trial_id].items())
                },
                "killed_at_rung": killed_at.get(t.trial_id),
            }
            for t in trials
        ]
        artifact = {
            "best": {
                "trial": best_trial,
                "params": _json_params(best_spec.params),
                "valid_rmse": best_rmse,
            },
            "config": dataclasses.asdict(best_spec.config),
            "scheduler": sched.describe(),
            "space": {k: dict(v) for k, v in sorted(spec.items())},
            "seed": seed,
            "num_samples": num_samples,
            "split": {"train_fraction": train_fraction, "seed": split_seed},
            "scenario": {
                "dataset": dataset_name, "source": source, "target": target,
            },
            "trials": trial_summaries,
            "rungs": [
                {
                    "rung": d.rung, "budget": d.budget, "ranked": list(d.ranked),
                    "promoted": list(d.promoted), "killed": list(d.killed),
                }
                for d in decisions
            ],
        }
        artifact_path = out_dir / ARTIFACT_NAME
        artifact_path.write_text(
            json.dumps(artifact, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

        parent_sink.emit(
            "tune_result",
            best_trial=best_trial,
            best_rmse=best_rmse,
            trials=len(trials),
            rungs=len(decisions),
            artifact=ARTIFACT_NAME,
        )
    finally:
        parent_sink.close()
        for pack in packs:
            pack.unlink()

    total_epochs, _ = trained_epoch_census(telemetry_dir)
    merge_shards(telemetry_dir)
    return TuneResult(
        best_trial=best_trial,
        best_params=_json_params(best_spec.params),
        best_rmse=best_rmse,
        best_config=best_spec.config,
        trials=trial_summaries,
        rungs=decisions,
        total_epochs=total_epochs,
        wall_seconds=time.perf_counter() - started,
        artifact_path=artifact_path,
        telemetry_dir=telemetry_dir,
    )
