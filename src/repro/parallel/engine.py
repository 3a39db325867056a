"""Deterministic multiprocess execution of experiment tasks.

The engine takes a list of :class:`ExperimentTask` cells — each "run
method M on scenario S for trials T with seed σ" — and executes them as a
:class:`~repro.parallel.pool.TaskPool` workload (submit every cell, drain,
cancel nothing), either inline (``workers < 2``) or across worker
processes, with **bit-identical results** in both modes and against a
plain serial :func:`~repro.eval.protocol.run_experiment` loop. The
contract rests on three facts:

* every task carries explicit seeds; trial ``t`` of a cell always uses
  ``seed + trial_offset + t``, no matter which worker runs it or in what
  order;
* generated worlds and OmniMatch document stores are built **once** by
  the parent (generation is a deterministic function of the scenario) and,
  with workers, shipped through ``multiprocessing.shared_memory`` with
  review order preserved exactly (see :mod:`repro.parallel.sharing`), so
  every index and RNG draw in a worker matches the parent's;
* per-trial metrics come back labeled by task and are reduced by the
  caller in trial order, so the float reductions see the same values in
  the same order as a serial run.

Supervision is the pool's: a worker that dies (killed, segfault, an
injected :class:`~repro.faults.WorkerFaultPlan` death) has its cell
requeued with ``attempt + 1`` (bounded by ``max_task_retries``) on a
respawned worker; a cell that *raises* is not retried — exceptions are
deterministic — and surfaces as :class:`ParallelExecutionError`.

Telemetry: pass ``telemetry_dir`` and each worker streams its events to
its own ``run-w<id>g<gen>.jsonl`` shard (one ``task`` event per cell,
labeled with ``method`` and ``scenario``); after a successful run the
shards are merged into one schema-valid ``run.jsonl`` (see
:func:`repro.obs.merge_shards`) that ``repro report`` consumes.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core import OmniMatchConfig
from ..data import CrossDomainDataset, cold_start_split, generate_scenario
from ..data.batching import DocumentStore
from .pool import TaskContext, TaskPool, TaskPoolError
from .sharing import (
    publish_dataset,
    publish_document_matrices,
    resolve_dataset,
    resolved_store,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..eval.protocol import ExperimentResult
    from ..faults import WorkerFaultPlan

__all__ = ["ExperimentTask", "ParallelExecutionError", "run_tasks"]

#: Methods that consume a pre-built document store (others ignore it, so
#: building one for them would be wasted parent-side work).
_STORE_METHODS = frozenset({"OmniMatch"})

#: The engine's failures are the pool's; the old name stays importable.
ParallelExecutionError = TaskPoolError


@dataclass(frozen=True)
class ExperimentTask:
    """One (method, scenario) cell — or a slice of one — to execute.

    ``trial_offset`` renumbers the trials so a cell split across workers
    still derives the serial per-trial seeds.
    """

    index: int
    method: str
    dataset_name: str
    source: str
    target: str
    trials: int
    trial_offset: int
    seed: int
    train_fraction: float
    config: OmniMatchConfig | None
    generator_overrides: tuple[tuple[str, object], ...]
    emit_summary: bool

    def world_key(self) -> tuple:
        """Tasks with equal keys share one generated world."""
        return (self.dataset_name, self.source, self.target, self.generator_overrides)

    @property
    def scenario(self) -> str:
        return f"{self.source} -> {self.target}"


def _run_cell(
    ctx: TaskContext, task: ExperimentTask, dataset, stores: dict
) -> "ExperimentResult":
    """Pool task: one cell against its world and per-trial stores.

    ``dataset`` and the ``stores`` values (keyed by trial seed) are
    shared-memory refs in worker mode and the parent's objects inline.
    """
    from ..eval.protocol import run_experiment

    world = resolve_dataset(dataset)
    with ExitStack() as attached:

        def store_provider(ds, split, trial_seed):
            return attached.enter_context(
                resolved_store(stores.get(trial_seed), ds, split)
            )

        return run_experiment(
            task.method,
            task.dataset_name,
            task.source,
            task.target,
            trials=task.trials,
            train_fraction=task.train_fraction,
            seed=task.seed,
            config=task.config,
            dataset=world,
            telemetry=ctx.sink,
            trial_offset=task.trial_offset,
            emit_summary=task.emit_summary,
            store_provider=store_provider if stores else None,
        )


def _build_worlds(
    tasks: list[ExperimentTask], dataset: CrossDomainDataset | None
) -> dict[tuple, CrossDomainDataset]:
    """Generate (or adopt) each distinct world exactly once."""
    worlds: dict[tuple, CrossDomainDataset] = {}
    for task in tasks:
        key = task.world_key()
        if key in worlds:
            continue
        if dataset is not None:
            worlds[key] = dataset
        else:
            worlds[key] = generate_scenario(
                task.dataset_name,
                task.source,
                task.target,
                **dict(task.generator_overrides),
            )
    return worlds


def run_tasks(
    tasks: "list[ExperimentTask]",
    *,
    workers: int = 0,
    telemetry_dir=None,
    dataset: CrossDomainDataset | None = None,
    max_task_retries: int = 2,
    fault_plan: "WorkerFaultPlan | None" = None,
) -> "list[ExperimentResult]":
    """Execute ``tasks``; returns one result per task, in task order.

    ``workers < 2`` runs inline (no processes, no shared memory) over the
    same parent-built worlds and stores, so the two modes differ only in
    transport — never in numbers. ``dataset`` short-circuits world
    generation when the caller already owns the world (trial fan-out).
    ``fault_plan`` is a test hook injecting deterministic worker deaths
    and stalls, keyed on the pool's ``(slot, generation, unit)``.
    """
    if len({task.index for task in tasks}) != len(tasks):
        raise ValueError("task indexes must be unique")
    worlds = _build_worlds(tasks, dataset)
    packs = []

    def share(obj, publish):
        """The object itself inline; a published shared-memory ref otherwise.

        Worker mode keeps only the ref, so the parent drops each built store
        before the workers fork and they do not inherit its pages."""
        if workers < 2:
            return obj
        pack, ref = publish(obj)
        packs.append(pack)
        return ref

    try:
        world_refs = {
            key: share(world, publish_dataset) for key, world in worlds.items()
        }
        # One store per distinct (world, split, document shape); each task
        # gets the stores of its trials, keyed by trial seed.
        stores: dict[tuple, object] = {}
        task_stores: list[dict[int, object]] = []
        for task in tasks:
            task_stores.append({})
            if task.method not in _STORE_METHODS:
                continue
            config = task.config if task.config is not None else OmniMatchConfig()
            world = worlds[task.world_key()]
            first_seed = task.seed + task.trial_offset
            for trial_seed in range(first_seed, first_seed + task.trials):
                key = (
                    task.world_key(), task.train_fraction, trial_seed,
                    config.doc_len, config.vocab_size, config.field,
                )
                if key not in stores:
                    split = cold_start_split(
                        world, train_fraction=task.train_fraction, seed=trial_seed
                    )
                    stores[key] = share(
                        DocumentStore(
                            world, split, doc_len=config.doc_len,
                            vocab_size=config.vocab_size, field=config.field,
                        ),
                        publish_document_matrices,
                    )
                task_stores[-1][trial_seed] = stores[key]

        with TaskPool(
            workers, telemetry_dir=telemetry_dir,
            max_task_retries=max_task_retries,
            fault_plan=fault_plan,
        ) as pool:
            indexes = [
                pool.submit(
                    _run_cell, task, world_refs[task.world_key()], task_store,
                    labels={"method": task.method, "scenario": task.scenario},
                )
                for task, task_store in zip(tasks, task_stores)
            ]
            outcomes = pool.drain()
        if telemetry_dir is not None:
            from ..obs import merge_shards

            merge_shards(telemetry_dir)
        return [outcomes[index].value for index in indexes]
    finally:
        for pack in packs:
            pack.unlink()
