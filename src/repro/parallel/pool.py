"""Preemptible task pool: the one task runner over supervised workers.

Every multiprocess workload in the repo that executes *tasks* runs here:
the experiment engine (:func:`repro.parallel.engine.run_tasks` submits a
fixed batch of cells and drains) and the ASHA tuner (waves of rungs with
cancels between them). Process lifecycle — spawn, liveness, respawn with a
bumped generation, dropping a dead generation's queue, stop — is
:class:`~repro.parallel.supervisor.WorkerSupervisor`'s; the pool adds what
is specific to tasks:

* ``submit(fn, *args, **kwargs)`` enqueues a call of a module-level
  function; the pool invokes it as ``fn(ctx, *args, **kwargs)`` where
  ``ctx`` is a :class:`TaskContext` carrying the task coordinates, the
  worker's telemetry sink, and a ``should_stop`` callable;
* an in-flight map (which slot holds which task) so a worker death
  requeues exactly the lost task with ``attempt + 1``, bounded by
  ``max_task_retries``;
* ``cancel(index)`` removes a still-pending task outright, or — when the
  task is already running — flips the worker's cancel cell, which the
  task's ``should_stop`` hook observes, requesting a *cooperative* stop
  (the trainer's ``stop_check`` checkpoints and exits at the next epoch
  boundary). The cell stores the **task index**, so a stale cancel can
  never leak into the worker's next task: requeue-safe accounting;
* a worker that dies while its task has a cancel pending is not requeued:
  its death *is* the cancellation.

``workers < 2`` runs every task inline in submission order — no processes,
no shared memory, same outcomes — through the same run-a-task helper as
the workers, so both modes emit identical telemetry: when
``telemetry_dir`` is given, each worker (and the inline loop) writes
``run-w<id>g<gen>.jsonl`` with a ``worker_start``, one ``task`` event per
task and a ``worker_end``; the caller merges shards when *it* is done
writing its own (:func:`repro.obs.merge_shards`).

Exceptions raised by a task are deterministic, so they are never retried:
the outcome carries the traceback and :meth:`TaskPool.drain` raises
:class:`TaskPoolError` (unless told to collect errors instead).
"""

from __future__ import annotations

import dataclasses
import os
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..obs import TelemetrySink
from .supervisor import WorkerSupervisor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import WorkerKillPlan

__all__ = ["TaskContext", "TaskOutcome", "TaskPool", "TaskPoolError"]

#: ``cancel_cell`` value meaning "no cancellation requested".
_NO_CANCEL = -1


class TaskPoolError(RuntimeError):
    """A task raised, or exhausted its worker-death retry budget."""


@dataclass(frozen=True)
class TaskContext:
    """Coordinates and hooks handed to a task function as its first argument.

    ``should_stop`` returns ``True`` once the parent has requested this
    task's cancellation; long-running tasks poll it at safe stopping
    points (the trainer accepts it directly as ``fit(stop_check=...)``).
    ``sink`` is the worker's telemetry shard (or ``None``).
    """

    index: int
    attempt: int
    worker: int
    generation: int
    should_stop: Callable[[], bool]
    sink: "TelemetrySink | None"


@dataclass
class TaskOutcome:
    """Terminal state of one submitted task.

    ``status`` is ``"ok"`` (value holds the function's return),
    ``"cancelled"`` (never ran, or died while a cancel was pending), or
    ``"error"`` (``error`` holds the traceback). ``cancel_requested``
    records that :meth:`TaskPool.cancel` was called for the task even when
    it still completed — a cooperative stop returns normally, so the
    *caller* decides what a preempted result means.
    """

    index: int
    status: str
    value: Any = None
    error: str | None = None
    worker: int | None = None
    generation: int | None = None
    attempt: int = 0
    seconds: float = 0.0
    cancel_requested: bool = False


@dataclass(frozen=True)
class _PoolPayload:
    """What travels over a worker's task queue."""

    index: int
    fn: Callable
    args: tuple
    kwargs: tuple[tuple[str, Any], ...]
    labels: tuple[tuple[str, Any], ...] = ()
    attempt: int = 0


class _Runner:
    """Runs tasks for one worker generation (or the inline loop).

    Owns the generation's telemetry shard: ``worker_start`` on creation,
    one ``task`` event per :meth:`run`, ``worker_end`` on :meth:`close`.
    """

    def __init__(
        self, worker: int, generation: int, telemetry_dir,
        should_stop: Callable[[int], bool],
    ) -> None:
        self.worker = worker
        self.generation = generation
        self.should_stop = should_stop
        self.sink = None
        if telemetry_dir is not None:
            self.sink = TelemetrySink(
                telemetry_dir,
                filename=f"run-w{worker}g{generation}.jsonl",
                run_id=f"w{worker}g{generation}",
            )
            self.sink.emit(
                "worker_start", worker=worker, generation=generation, pid=os.getpid()
            )
            self.sink.flush()
        self.started = time.perf_counter()
        self.busy_seconds = 0.0
        self.tasks_done = 0

    def run(self, payload: _PoolPayload) -> TaskOutcome:
        ctx = TaskContext(
            index=payload.index,
            attempt=payload.attempt,
            worker=self.worker,
            generation=self.generation,
            should_stop=lambda: self.should_stop(payload.index),
            sink=self.sink,
        )
        outcome = TaskOutcome(
            index=payload.index, status="ok", worker=self.worker,
            generation=self.generation, attempt=payload.attempt,
        )
        task_start = time.perf_counter()
        try:
            outcome.value = payload.fn(ctx, *payload.args, **dict(payload.kwargs))
        except Exception:
            outcome.status = "error"
            outcome.error = traceback.format_exc()
        outcome.seconds = time.perf_counter() - task_start
        if outcome.status == "ok":
            self.busy_seconds += outcome.seconds
            self.tasks_done += 1
        if self.sink is not None:
            self.sink.emit(
                "task", task=payload.index, worker=self.worker,
                status=outcome.status, seconds=outcome.seconds,
                attempt=payload.attempt, **dict(payload.labels),
            )
            self.sink.flush()
        return outcome

    def close(self) -> None:
        if self.sink is not None:
            total = time.perf_counter() - self.started
            self.sink.emit(
                "worker_end",
                worker=self.worker,
                busy_seconds=self.busy_seconds,
                idle_seconds=max(0.0, total - self.busy_seconds),
                tasks_done=self.tasks_done,
            )
            self.sink.close()


def _pool_worker_main(
    worker_id: int,
    generation: int,
    task_queue,
    result_queue,
    cancel_cell,
    telemetry_dir,
    default_dtype: str,
    fast_math: bool,
    kill_plan: "WorkerKillPlan | None",
) -> None:
    """Worker loop: pull payloads until the ``None`` sentinel arrives."""
    from ..nn.tensor import set_default_dtype, set_fast_math

    # Mirror the parent's numeric configuration: a parent that toggled
    # flags after import would otherwise silently diverge from a serial run.
    set_default_dtype(default_dtype)
    set_fast_math(fast_math)

    runner = _Runner(
        worker_id, generation, telemetry_dir,
        lambda index: cancel_cell.value == index,
    )
    try:
        while True:
            payload = task_queue.get()
            if payload is None:
                break
            if kill_plan is not None and kill_plan.should_kill(
                payload.index, payload.attempt
            ):
                # Abrupt death — after draining this process's result-queue
                # feeder thread (dying while it holds the shared write lock
                # would wedge every other worker).
                result_queue.close()
                result_queue.join_thread()
                os._exit(kill_plan.EXIT_CODE)
            outcome = runner.run(payload)
            # Clear only our own cancellation: the parent may already
            # have signalled a *different* index for the next task.
            with cancel_cell.get_lock():
                if cancel_cell.value == payload.index:
                    cancel_cell.value = _NO_CANCEL
            result_queue.put((worker_id, outcome))
    finally:
        runner.close()


class TaskPool:
    """Dynamically-fed, cancelable worker pool (see module docstring).

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
        kill_plan: "WorkerKillPlan | None" = None,
    ) -> None:
        self.workers = workers
        self.telemetry_dir = telemetry_dir
        self.max_task_retries = max_task_retries
        self.kill_plan = kill_plan
        self._supervisor: WorkerSupervisor | None = None
        self._result_queue = None
        self._cancel_cells: dict[int, Any] = {}
        # Fixed length, so cancel() may scan it from another thread.
        self._in_flight: list[_PoolPayload | None] = [None] * workers
        self._inline: _Runner | None = None
        self._pending: deque[_PoolPayload] = deque()
        self._outcomes: dict[int, TaskOutcome] = {}
        self._cancel_requested: set[int] = set()
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

    # -- submission / cancellation ------------------------------------
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

    def cancel(self, index: int) -> str:
        """Request cancellation of task ``index``.

        Returns ``"done"`` (already finished — nothing to do),
        ``"cancelled"`` (was still pending; removed without running),
        ``"signalled"`` (running; its ``should_stop`` now returns True),
        or ``"unknown"`` (never submitted).
        """
        if not 0 <= index < self._next_index:
            return "unknown"
        if index in self._outcomes:
            return "done"
        for position, payload in enumerate(self._pending):
            if payload.index == index:
                del self._pending[position]
                self._outcomes[index] = TaskOutcome(
                    index=index, status="cancelled", attempt=payload.attempt,
                    cancel_requested=True,
                )
                return "cancelled"
        self._cancel_requested.add(index)
        for slot, payload in enumerate(self._in_flight):
            if payload is not None and payload.index == index:
                cell = self._cancel_cells[slot]
                with cell.get_lock():
                    cell.value = index
                return "signalled"
        # Submitted, not finished, not pending, not in flight: the task is
        # between a worker death and its requeue — the requeue handler will
        # see the pending cancel and retire it.
        return "signalled"

    # -- execution ------------------------------------------------------
    def drain(self, *, raise_on_error: bool = True) -> dict[int, TaskOutcome]:
        """Run until every submitted task has an outcome; return them all.

        With ``raise_on_error`` (default) the first ``"error"`` outcome
        raises :class:`TaskPoolError` carrying the worker traceback.
        """
        if self.workers < 2:
            self._drain_inline()
        else:
            self._drain_workers()
        if raise_on_error:
            for outcome in self._outcomes.values():
                if outcome.status == "error":
                    raise TaskPoolError(
                        f"task {outcome.index} raised in worker "
                        f"{outcome.worker} (exceptions are deterministic; "
                        f"not retried):\n{outcome.error}"
                    )
        return dict(self._outcomes)

    def outcome(self, index: int) -> TaskOutcome:
        """The recorded outcome of ``index`` (after :meth:`drain`)."""
        return self._outcomes[index]

    def _drain_inline(self) -> None:
        if self._inline is None:
            self._inline = _Runner(0, 0, self.telemetry_dir, lambda index: False)
        while self._pending:
            payload = self._pending.popleft()
            self._outcomes[payload.index] = self._inline.run(payload)

    # -- worker mode ----------------------------------------------------
    def _worker_args(self, slot: int, generation: int, task_queue) -> tuple:
        """Each generation gets a fresh cancel cell (and queue, from the
        supervisor) and the parent's numeric configuration as of its spawn."""
        from ..nn.tensor import fast_math_enabled, get_default_dtype

        cell = self._cancel_cells[slot] = self._supervisor.ctx.Value("q", _NO_CANCEL)
        return (
            slot, generation, task_queue, self._result_queue, cell,
            self.telemetry_dir, str(get_default_dtype()), fast_math_enabled(),
            self.kill_plan,
        )

    def _handle(self, message) -> None:
        slot, outcome = message
        in_flight = self._in_flight[slot]
        if in_flight is not None and in_flight.index == outcome.index:
            self._in_flight[slot] = None
        if outcome.index in self._outcomes:
            return  # e.g. cancelled while a death-requeue was in flight
        outcome.cancel_requested = outcome.index in self._cancel_requested
        self._outcomes[outcome.index] = outcome

    def _reap(self) -> None:
        """Respawn dead workers; requeue the tasks they held, or record them
        cancelled when a cancel was pending."""
        deaths = self._supervisor.check()
        if not deaths:
            return
        # A worker may have posted a result just before dying.
        while True:
            try:
                self._handle(self._result_queue.get_nowait())
            except queue_module.Empty:
                break
        for death in deaths:
            payload = self._in_flight[death.slot]
            self._in_flight[death.slot] = None
            if payload is None or payload.index in self._outcomes:
                continue
            if payload.index in self._cancel_requested:
                # The death *is* the cancellation: the caller asked for
                # this task to stop, so don't requeue.
                self._outcomes[payload.index] = TaskOutcome(
                    index=payload.index, status="cancelled",
                    worker=death.slot, generation=death.generation,
                    attempt=payload.attempt, cancel_requested=True,
                )
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
                _pool_worker_main, self._worker_args, self.workers
            )
            self._result_queue = self._supervisor.ctx.Queue()
            self._supervisor.start()
        while len(self._outcomes) < self._next_index:
            for slot, in_flight in enumerate(self._in_flight):
                if in_flight is None and self._pending:
                    payload = self._in_flight[slot] = self._pending.popleft()
                    self._supervisor.send(slot, payload)
            try:
                self._handle(self._result_queue.get(timeout=0.2))
                continue
            except queue_module.Empty:
                pass
            self._reap()
