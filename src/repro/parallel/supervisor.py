"""The one worker runtime: a supervised fleet of worker processes.

Both multiprocess subsystems sit on :class:`WorkerSupervisor`: the task
pool (:mod:`repro.parallel.pool`, and through it the experiment engine
and the tuner) and the recommendation daemon's serving fleet. Everything
the two fleets share lives here; what a message means, and what a death
means for work in flight, stays with the caller.

* **One slot, many generations.** A fleet has a fixed number of worker
  *slots*; each death respawns the same slot with ``generation + 1``, so
  deterministic chaos plans (:class:`~repro.faults.WorkerFaultPlan`) can
  target ``(slot, generation, unit)`` coordinates and telemetry shards
  never collide.
* **Fresh task queue and result pipe per generation.** A worker killed
  mid-``get`` can die holding its queue's reader lock, so every respawn
  gets a brand-new queue and the dead one is closed without joining its
  feeder thread; the caller re-enqueues whatever the dead worker had not
  completed. Replies travel back on the generation's own pipe
  (:class:`_ResultPipe`), which no other process writes, so a worker
  killed mid-send can tear only its own last frame.
* **One worker loop.** :func:`run_worker` is every worker's main loop:
  open the generation's telemetry shard, run the fleet's set-up, emit
  ``worker_start``, report ready, then handle messages until the ``None``
  sentinel — applying the fault plan before each, timing busy and idle —
  and emit ``worker_end``.
* **The caller polls.** :meth:`~WorkerSupervisor.check` is cheap (one
  ``is_alive`` per slot) and returns the deaths it healed; call it from a
  housekeeping tick. :meth:`~WorkerSupervisor.receive` returns the
  replies that arrived; call it from one thread only, the fleet's single
  reader. No background thread is hidden inside the supervisor.
* **Fork, fixed arguments, daemonic, default signals.** Workers are
  forked, so they inherit what the parent built and published before
  :meth:`~WorkerSupervisor.start` (a respawn inherits the parent's state
  as of the respawn), and every generation receives the same fixed
  arguments. They are daemonic, so a parent that exits normally
  terminates them. The worker entry resets SIGTERM/SIGINT to
  their default action: a Python handler inherited from the parent (the
  shared-memory sweep of :mod:`repro.parallel.shm`) would otherwise run in
  the worker, and a worker stuck in a C-level wait would never run it and
  so survive SIGTERM.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_readable
from typing import Any, Callable, Sequence

from ..obs import TelemetrySink

__all__ = ["WorkerDeath", "WorkerShard", "WorkerSupervisor", "run_worker"]

#: Seconds :meth:`WorkerSupervisor.stop` waits after SIGTERM before SIGKILL.
_TERM_GRACE_S = 2.0

#: The first frame every generation sends on its pipe, once set up.
_READY = "ready"


@dataclass(frozen=True)
class WorkerDeath:
    """One detected worker death (already respawned when reported)."""

    slot: int
    generation: int
    exitcode: int | None


class _ResultPipe:
    """One worker generation's result pipe, read by the parent without
    ever blocking.

    The worker is the only writer, so no lock is shared with the rest of
    the fleet (a worker SIGKILLed while holding a shared queue's write lock
    would wedge every other writer for good). A SIGKILL mid-send can still
    leave a partial frame in this pipe, and a blocking ``recv`` would wait
    for the rest forever. So the parent reads whatever bytes are there and
    reassembles ``Connection.send`` frames itself; a torn frame stays an
    incomplete buffer and is dropped with its generation.
    """

    def __init__(self, ctx) -> None:
        self.reader, self.writer = ctx.Pipe(duplex=False)
        os.set_blocking(self.reader.fileno(), False)
        self._buffer = bytearray()

    def messages(self) -> list:
        """Every complete message that has arrived, in order."""
        while True:
            try:
                chunk = os.read(self.reader.fileno(), 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._buffer += chunk
        out = []
        while len(self._buffer) >= 4:
            (size,) = struct.unpack("!i", self._buffer[:4])
            if len(self._buffer) < 4 + size:
                break
            out.append(pickle.loads(self._buffer[4 : 4 + size]))
            del self._buffer[: 4 + size]
        return out

    def close(self) -> None:
        self.reader.close()
        self.writer.close()


@dataclass
class _Generation:
    """One slot's current (or retired) worker process and its channels."""

    slot: int
    generation: int
    process: multiprocessing.Process
    task_queue: "multiprocessing.Queue"
    pipe: _ResultPipe
    ready: bool = False


class WorkerShard:
    """One worker generation's telemetry shard and busy clock.

    Writes ``run-w<slot>g<gen>.jsonl`` (when ``telemetry_dir`` is given):
    ``worker_start`` on :meth:`start`, and on :meth:`close` a
    ``worker_end`` with the seconds spent inside :meth:`run`, the rest of
    the wall time since :meth:`start` as idle, and the units handled.
    """

    def __init__(
        self, slot: int, generation: int, telemetry_dir=None, run_id: str | None = None
    ) -> None:
        self.slot = slot
        self.generation = generation
        self.sink = None
        if telemetry_dir is not None:
            self.sink = TelemetrySink(
                telemetry_dir,
                filename=f"run-w{slot}g{generation}.jsonl",
                run_id=run_id or f"w{slot}g{generation}",
            )
        self.started = time.perf_counter()
        self.busy_seconds = 0.0
        self.units = 0

    def start(self) -> None:
        """Start the wall clock and emit ``worker_start``."""
        self.started = time.perf_counter()
        if self.sink is not None:
            self.sink.emit(
                "worker_start", worker=self.slot, generation=self.generation,
                pid=os.getpid(),
            )
            self.sink.flush()

    def run(self, handle: Callable[[Any], Any], message: Any) -> Any:
        """``handle(message)``, timed as busy."""
        start = time.perf_counter()
        try:
            return handle(message)
        finally:
            self.busy_seconds += time.perf_counter() - start
            self.units += 1

    def close(self) -> None:
        """Emit ``worker_end`` and close the shard."""
        if self.sink is not None:
            total = time.perf_counter() - self.started
            self.sink.emit(
                "worker_end",
                worker=self.slot,
                busy_seconds=self.busy_seconds,
                idle_seconds=max(0.0, total - self.busy_seconds),
                tasks_done=self.units,
            )
            self.sink.close()


def run_worker(
    slot: int,
    generation: int,
    task_queue,
    result_conn,
    setup: Callable[[WorkerShard], Callable[[Any], Any]],
    telemetry_dir=None,
    run_id: str | None = None,
    fault_plan=None,
) -> None:
    """The worker loop every fleet runs; returns once the sentinel arrives.

    ``setup(shard)`` builds the fleet's per-worker state from the
    generation's :class:`WorkerShard` (its slot, generation and telemetry
    sink) and returns the message handler; each handler return value is
    sent back as the reply. ``fault_plan`` (a
    :class:`~repro.faults.WorkerFaultPlan`) is applied before each message
    with that message's unit index.
    """
    shard = WorkerShard(slot, generation, telemetry_dir, run_id)
    handle = setup(shard)
    shard.start()
    result_conn.send(_READY)
    unit = 0
    while True:
        message = task_queue.get()
        if message is None:
            break
        if fault_plan is not None:
            fault_plan.apply(slot, generation, unit)
        unit += 1
        result_conn.send(shard.run(handle, message))
    shard.close()
    result_conn.close()


def _worker_entry(target: Callable, *args) -> None:
    """Process entry: default signal dispositions, then the fleet's target."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)
    target(*args)


class WorkerSupervisor:
    """Own a fixed-size fleet of long-lived worker processes.

    Each generation runs ``target(slot, generation, task_queue,
    result_conn, *args)``: every generation of every slot receives the
    same ``args`` (shared-memory refs, a set-up, a fault plan), and what
    differs between them is the slot and generation alone. The target is
    expected to run :func:`run_worker`, which treats a ``None`` message as
    the stop sentinel.
    """

    def __init__(self, target: Callable, args: Sequence, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.target = target
        self.args = tuple(args)
        self.workers = workers
        self.ctx = multiprocessing.get_context("fork")
        self._slots: dict[int, _Generation] = {}
        # Dead generations whose pipes the reader has not drained yet; only
        # receive() closes them, so check() never closes a pipe mid-read.
        self._retired: list[_Generation] = []
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    def _spawn(self, slot: int, generation: int) -> _Generation:
        task_queue = self.ctx.Queue()
        pipe = _ResultPipe(self.ctx)
        process = self.ctx.Process(
            target=_worker_entry,
            args=(
                self.target, slot, generation, task_queue, pipe.writer,
                *self.args,
            ),
            daemon=True,
        )
        process.start()
        return _Generation(slot, generation, process, task_queue, pipe)

    def start(self) -> None:
        """Spawn generation 0 of every slot (idempotent)."""
        if self._started:
            return
        for slot in range(self.workers):
            self._slots[slot] = self._spawn(slot, generation=0)
        self._started = True

    # ------------------------------------------------------------------
    def alive_count(self) -> int:
        return sum(1 for s in self._slots.values() if s.process.is_alive())

    def generation(self, slot: int) -> int:
        return self._slots[slot].generation

    def pid(self, slot: int) -> int | None:
        return self._slots[slot].process.pid

    def is_ready(self) -> bool:
        """Every slot's *current* generation has reported ready."""
        with self._lock:
            return self._started and all(s.ready for s in self._slots.values())

    def send(self, slot: int, message: object) -> None:
        """Enqueue ``message`` on the slot's *current* task queue."""
        self._slots[slot].task_queue.put(message)

    def kill(self, slot: int) -> None:
        """SIGKILL a slot's current process (stall mitigation; the next
        :meth:`check` heals it like any other death)."""
        process = self._slots[slot].process
        if process.is_alive():
            process.kill()

    # ------------------------------------------------------------------
    def check(self) -> list[WorkerDeath]:
        """Detect dead slots; respawn each with ``generation + 1``.

        Returns the deaths found this call (empty when the fleet is
        healthy). The dead generation's task queue is discarded — callers
        must re-enqueue anything that worker had not completed via
        :meth:`send`, which targets the fresh queue. Its pipe is retired
        unread: the next :meth:`receive` hands over every whole reply it
        holds, then closes it.
        """
        if self._stopped:
            return []
        deaths: list[WorkerDeath] = []
        for slot, dead in list(self._slots.items()):
            if dead.process.is_alive():
                continue
            deaths.append(WorkerDeath(slot, dead.generation, dead.process.exitcode))
            dead.process.join(timeout=1)
            # The dead generation's queue may hold undelivered messages and
            # may even be lock-wedged; drop it without joining its feeder.
            dead.task_queue.cancel_join_thread()
            dead.task_queue.close()
            fresh = self._spawn(slot, dead.generation + 1)
            with self._lock:
                self._slots[slot] = fresh
                self._retired.append(dead)
        return deaths

    def receive(self, timeout: float) -> list[tuple[int, Any]]:
        """Replies that arrived, as ``(slot, reply)`` pairs in pipe order.

        Waits up to ``timeout`` seconds for the first one. Reads the
        current generations' pipes and drains and closes retired ones, so
        a death seen by :meth:`check` before this call loses none of the
        replies its worker finished sending. Never blocks on a torn frame.
        Call from one thread only.
        """
        with self._lock:
            retired, self._retired = self._retired, []
            current = list(self._slots.values())
        replies: list[tuple[int, Any]] = []
        for gen in retired:
            replies += self._read(gen)
            gen.pipe.close()
        readable = wait_readable(
            [gen.pipe.reader for gen in current], timeout=0 if replies else timeout
        )
        for gen in current:
            if gen.pipe.reader in readable:
                replies += self._read(gen)
        return replies

    @staticmethod
    def _read(gen: _Generation) -> list[tuple[int, Any]]:
        replies = []
        for message in gen.pipe.messages():
            if not gen.ready:  # the first frame is the ready signal
                gen.ready = True
                continue
            replies.append((gen.slot, message))
        return replies

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Stop the fleet; return once every worker process is reaped.

        Sentinels every worker and waits up to ``timeout`` seconds for them
        to exit, discarding whatever they still send so none stays blocked
        mid-send. Survivors get SIGTERM, then SIGKILL after
        :data:`_TERM_GRACE_S` more. Call after the fleet's reader has
        stopped calling :meth:`receive`. Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        fleet = [*self._slots.values(), *self._retired]
        for gen in self._slots.values():
            try:
                gen.task_queue.put(None)
            except (ValueError, OSError):  # queue already closed
                pass
        self._wait_exit(fleet, timeout)
        for gen in fleet:
            if gen.process.is_alive():
                gen.process.terminate()
        self._wait_exit(fleet, _TERM_GRACE_S)
        for gen in fleet:
            if gen.process.is_alive():
                gen.process.kill()
            gen.process.join()
            gen.task_queue.cancel_join_thread()
            gen.task_queue.close()
            gen.pipe.close()
        self._retired = []

    @staticmethod
    def _wait_exit(fleet: list[_Generation], seconds: float) -> None:
        deadline = time.monotonic() + seconds
        while True:
            alive = [gen for gen in fleet if gen.process.is_alive()]
            remaining = deadline - time.monotonic()
            if not alive or remaining <= 0:
                return
            wait_readable(
                [gen.process.sentinel for gen in alive]
                + [gen.pipe.reader for gen in alive],
                timeout=remaining,
            )
            for gen in alive:
                gen.pipe.messages()
