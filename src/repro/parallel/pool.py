"""Task pool: the one task runner over supervised workers.

Every multiprocess workload in the repo that executes *tasks* runs here:
the experiment engine (:func:`repro.parallel.engine.run_tasks` submits a
fixed batch of cells and drains) and the tuner (one submit-and-drain
barrier per rung). The worker runtime — spawn, liveness, respawn with
a bumped generation, the per-generation task queue and result pipe, the
worker loop, the fault plan, stop — is
:class:`~repro.parallel.supervisor.WorkerSupervisor`'s; the pool adds what
is specific to tasks:

* ``submit(fn, *args, **kwargs)`` enqueues a call of a module-level
  function; the pool invokes it as ``fn(ctx, *args, **kwargs)`` where
  ``ctx`` is a :class:`TaskContext` carrying the task coordinates and the
  worker's telemetry sink;
* an in-flight map (which slot holds which task) so a worker death
  requeues exactly the lost task with ``attempt + 1``, bounded by
  ``max_task_retries``.

Every generation gets the same fixed worker arguments. Workers are
forked, so each inherits the parent's state as of its spawn, the default
dtype included.

``workers < 2`` runs every task inline in submission order — no processes,
no shared memory, same outcomes — through the same run-a-task handler and
:class:`~repro.parallel.supervisor.WorkerShard` as the workers, so both
modes emit identical telemetry: when
``telemetry_dir`` is given, each worker (and the inline loop) writes
``run-w<id>g<gen>.jsonl`` with a ``worker_start``, one ``task`` event per
task and a ``worker_end``; the caller merges shards when *it* is done
writing its own (:func:`repro.obs.merge_shards`).

Exceptions raised by a task are deterministic, so they are never retried:
the outcome carries the traceback and :meth:`TaskPool.drain` raises
:class:`TaskPoolError`.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..obs import TelemetrySink
from .supervisor import WorkerShard, WorkerSupervisor, run_worker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import WorkerFaultPlan

__all__ = ["TaskContext", "TaskOutcome", "TaskPool", "TaskPoolError"]


class TaskPoolError(RuntimeError):
    """A task raised, or exhausted its worker-death retry budget."""


@dataclass(frozen=True)
class TaskContext:
    """Coordinates handed to a task function as its first argument.

    ``sink`` is the worker's telemetry shard (or ``None``).
    """

    index: int
    attempt: int
    worker: int
    generation: int
    sink: "TelemetrySink | None"


@dataclass
class TaskOutcome:
    """Terminal state of one submitted task.

    ``status`` is ``"ok"`` (value holds the function's return) or
    ``"error"`` (``error`` holds the traceback).
    """

    index: int
    status: str
    value: Any = None
    error: str | None = None
    worker: int | None = None
    generation: int | None = None
    attempt: int = 0
    seconds: float = 0.0


@dataclass(frozen=True)
class _PoolPayload:
    """What travels over a worker's task queue."""

    index: int
    fn: Callable
    args: tuple
    kwargs: tuple[tuple[str, Any], ...]
    labels: tuple[tuple[str, Any], ...] = ()
    attempt: int = 0


def _run_task(shard: WorkerShard, payload: _PoolPayload) -> TaskOutcome:
    """Run one task and emit its ``task`` event."""
    worker, generation, sink = shard.slot, shard.generation, shard.sink
    ctx = TaskContext(
        index=payload.index,
        attempt=payload.attempt,
        worker=worker,
        generation=generation,
        sink=sink,
    )
    outcome = TaskOutcome(
        index=payload.index, status="ok", worker=worker,
        generation=generation, attempt=payload.attempt,
    )
    task_start = time.perf_counter()
    try:
        outcome.value = payload.fn(ctx, *payload.args, **dict(payload.kwargs))
    except Exception:
        outcome.status = "error"
        outcome.error = traceback.format_exc()
    outcome.seconds = time.perf_counter() - task_start
    if sink is not None:
        sink.emit(
            "task", task=payload.index, worker=worker,
            status=outcome.status, seconds=outcome.seconds,
            attempt=payload.attempt, **dict(payload.labels),
        )
        sink.flush()
    return outcome


def _task_handler(shard: WorkerShard) -> Callable[[_PoolPayload], TaskOutcome]:
    """The pool's message handler, in a worker and in the inline loop."""
    return functools.partial(_run_task, shard)


class TaskPool:
    """Dynamically-fed worker pool (see module docstring).

    Use as a context manager; workers are spawned on the first
    :meth:`drain` (so a pool that only ever runs inline never forks, and
    workers fork after the caller has published its shared data).
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        telemetry_dir=None,
        max_task_retries: int = 2,
        fault_plan: "WorkerFaultPlan | None" = None,
    ) -> None:
        self.workers = workers
        self.telemetry_dir = telemetry_dir
        self.max_task_retries = max_task_retries
        self.fault_plan = fault_plan
        self._supervisor: WorkerSupervisor | None = None
        self._in_flight: list[_PoolPayload | None] = [None] * workers
        self._inline: WorkerShard | None = None
        self._pending: deque[_PoolPayload] = deque()
        self._outcomes: dict[int, TaskOutcome] = {}
        self._next_index = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Graceful shutdown: sentinel every worker, then reap stragglers."""
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.stop()
        if self._inline is not None:
            self._inline.close()

    # -- submission ----------------------------------------------------
    def submit(
        self, fn: Callable, /, *args, labels: dict | None = None, **kwargs
    ) -> int:
        """Enqueue ``fn(ctx, *args, **kwargs)``; returns the task index.

        Indexes count up from 0 in submission order. ``labels`` (a
        reserved keyword, not passed to ``fn``) are copied into the task's
        ``task`` telemetry event and its retry-exhaustion message.
        """
        if self._closed:
            raise TaskPoolError("pool is closed")
        index = self._next_index
        self._next_index += 1
        self._pending.append(
            _PoolPayload(
                index=index, fn=fn, args=args, kwargs=tuple(kwargs.items()),
                labels=tuple((labels or {}).items()),
            )
        )
        return index

    # -- execution ------------------------------------------------------
    def drain(self) -> dict[int, TaskOutcome]:
        """Run until every submitted task has an outcome; return them all.

        The first ``"error"`` outcome raises :class:`TaskPoolError`
        carrying the worker traceback.
        """
        if self.workers < 2:
            self._drain_inline()
        else:
            self._drain_workers()
        for outcome in self._outcomes.values():
            if outcome.status == "error":
                raise TaskPoolError(
                    f"task {outcome.index} raised in worker "
                    f"{outcome.worker} (exceptions are deterministic; "
                    f"not retried):\n{outcome.error}"
                )
        return dict(self._outcomes)

    def _drain_inline(self) -> None:
        if self._inline is None:
            self._inline = WorkerShard(0, 0, self.telemetry_dir)
            self._inline.start()
        handle = _task_handler(self._inline)
        while self._pending:
            payload = self._pending.popleft()
            self._outcomes[payload.index] = self._inline.run(handle, payload)

    # -- worker mode ----------------------------------------------------
    def _handle(self, slot: int, outcome: TaskOutcome) -> None:
        in_flight = self._in_flight[slot]
        if in_flight is not None and in_flight.index == outcome.index:
            self._in_flight[slot] = None
        self._outcomes[outcome.index] = outcome

    def _requeue(self, deaths: list) -> None:
        """Requeue the tasks dead workers held."""
        for death in deaths:
            payload = self._in_flight[death.slot]
            self._in_flight[death.slot] = None
            if payload is None or payload.index in self._outcomes:
                continue
            retry = dataclasses.replace(payload, attempt=payload.attempt + 1)
            if retry.attempt > self.max_task_retries:
                labels = ", ".join(str(value) for _, value in payload.labels)
                raise TaskPoolError(
                    f"task {payload.index}{f' ({labels})' if labels else ''} "
                    f"lost {retry.attempt} workers; giving up after "
                    f"{self.max_task_retries} retries"
                )
            self._pending.appendleft(retry)

    def _drain_workers(self) -> None:
        if self._supervisor is None:
            self._supervisor = WorkerSupervisor(
                run_worker,
                (_task_handler, self.telemetry_dir, None, self.fault_plan),
                self.workers,
            )
            self._supervisor.start()
        while len(self._outcomes) < self._next_index:
            for slot, in_flight in enumerate(self._in_flight):
                if in_flight is None and self._pending:
                    payload = self._in_flight[slot] = self._pending.popleft()
                    self._supervisor.send(slot, payload)
            # Deaths first: receive() then hands over every result a dead
            # worker sent before dying, so only unfinished tasks requeue.
            deaths = self._supervisor.check()
            for slot, outcome in self._supervisor.receive(
                timeout=0 if deaths else 0.2
            ):
                self._handle(slot, outcome)
            self._requeue(deaths)
