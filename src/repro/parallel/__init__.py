"""Deterministic multiprocess experiment execution.

``repro.parallel`` fans experiment cells (and trials within a cell)
across a pool of worker processes with bit-identical results to serial
execution. Bulk data — generated datasets and document matrices —
travels through ``multiprocessing.shared_memory`` segments published
once by the parent (:mod:`~repro.parallel.shm`,
:mod:`~repro.parallel.sharing`). Worker processes are created in one
place, :mod:`~repro.parallel.supervisor` (spawn, death detection,
respawn, stop), which runs the serving daemon's fleet and
:mod:`~repro.parallel.pool`, the task pool with crash requeue
and telemetry sharding; :mod:`~repro.parallel.engine` (experiment cells)
and the hyperparameter tuner are workloads on that pool.
"""

from .engine import ExperimentTask, ParallelExecutionError, run_tasks
from .pool import TaskContext, TaskOutcome, TaskPool, TaskPoolError
from .sharing import (
    SharedDatasetRef,
    SharedStoreRef,
    attach_dataset,
    attach_document_store,
    publish_dataset,
    publish_document_matrices,
)
from .shm import (
    AttachedPack,
    ShmLayout,
    ShmPack,
    ShmRef,
    attach,
    install_signal_cleanup,
    live_segments,
    pack_strings,
    unpack_strings,
)
from .supervisor import WorkerDeath, WorkerSupervisor

__all__ = [
    "ExperimentTask",
    "ParallelExecutionError",
    "run_tasks",
    "TaskContext",
    "TaskOutcome",
    "TaskPool",
    "TaskPoolError",
    "SharedDatasetRef",
    "SharedStoreRef",
    "publish_dataset",
    "attach_dataset",
    "publish_document_matrices",
    "attach_document_store",
    "ShmLayout",
    "ShmRef",
    "ShmPack",
    "AttachedPack",
    "attach",
    "install_signal_cleanup",
    "live_segments",
    "pack_strings",
    "unpack_strings",
    "WorkerDeath",
    "WorkerSupervisor",
]
