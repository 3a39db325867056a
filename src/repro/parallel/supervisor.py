"""Supervision of a fixed fleet of worker processes: the one place a
worker process is created.

Both multiprocess subsystems sit on :class:`WorkerSupervisor`: the task
pool (:mod:`repro.parallel.pool`, and through it the experiment engine
and the tuner) and the recommendation daemon's serving fleet. The
supervisor owns process lifecycle only; what travels over the queues, and
what a death means for work in flight, stays with the caller.

* **One slot, many generations.** A fleet has a fixed number of worker
  *slots*; each death respawns the same slot with ``generation + 1``, so
  deterministic chaos plans can target ``(slot, generation)`` coordinates
  and telemetry shards never collide.
* **Fresh task queue per generation.** A worker killed mid-``get`` can
  die holding the queue's reader lock; reusing that queue would wedge the
  respawned worker. Every respawn gets a brand-new queue, the dead one is
  closed without joining its feeder thread, and the caller re-enqueues
  whatever the dead worker had not completed (the supervisor cannot know
  message semantics, so in-flight tracking stays with the caller).
* **The caller polls.** :meth:`check` is cheap (one ``is_alive`` per
  slot) and returns the deaths it healed; call it from a housekeeping
  tick. No background thread is hidden inside the supervisor, so there is
  exactly one place in the host process that reacts to deaths.
* **Fork, daemonic.** Workers are forked, so they inherit what the parent
  built and published before :meth:`start`, and daemonic, so a parent
  that exits normally terminates them.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["WorkerDeath", "WorkerSupervisor"]


@dataclass(frozen=True)
class WorkerDeath:
    """One detected worker death (already respawned when reported)."""

    slot: int
    generation: int
    exitcode: int | None


@dataclass
class _Slot:
    process: multiprocessing.Process
    task_queue: "multiprocessing.Queue"
    generation: int


class WorkerSupervisor:
    """Own a fixed-size fleet of long-lived worker processes.

    ``target`` is the worker main; ``args_fn(slot, generation, task_queue)``
    builds its argument tuple, so the caller decides what each generation
    receives (queues, shared-memory refs, chaos plans keyed by generation).
    Workers must treat a ``None`` message on their task queue as the stop
    sentinel. ``ctx`` is the fork context the fleet runs on; callers build
    the queues they share with workers from it.
    """

    def __init__(
        self,
        target: Callable,
        args_fn: Callable[[int, int, "multiprocessing.Queue"], Sequence],
        workers: int,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.target = target
        self.args_fn = args_fn
        self.workers = workers
        self.ctx = multiprocessing.get_context("fork")
        self._slots: dict[int, _Slot] = {}
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    def _spawn(self, slot: int, generation: int) -> _Slot:
        task_queue = self.ctx.Queue()
        process = self.ctx.Process(
            target=self.target,
            args=tuple(self.args_fn(slot, generation, task_queue)),
            daemon=True,
        )
        process.start()
        return _Slot(process=process, task_queue=task_queue, generation=generation)

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

    def send(self, slot: int, message: object) -> None:
        """Enqueue ``message`` on the slot's *current* task queue."""
        self._slots[slot].task_queue.put(message)

    def broadcast(self, message: object) -> None:
        for slot in self._slots.values():
            slot.task_queue.put(message)

    def kill(self, slot: int) -> None:
        """SIGKILL a slot's current process (stall mitigation; the next
        :meth:`check` heals it like any other death)."""
        process = self._slots[slot].process
        if process.is_alive():
            process.kill()

    # ------------------------------------------------------------------
    def check(self, respawn: bool = True) -> list[WorkerDeath]:
        """Detect dead slots; respawn each with ``generation + 1``.

        Returns the deaths found this call (empty when the fleet is
        healthy). The dead generation's task queue is discarded — callers
        must re-enqueue anything that worker had not completed via
        :meth:`send`, which targets the fresh queue.
        """
        if self._stopped:
            return []
        deaths: list[WorkerDeath] = []
        for slot_id, slot in list(self._slots.items()):
            if slot.process.is_alive():
                continue
            deaths.append(
                WorkerDeath(
                    slot=slot_id,
                    generation=slot.generation,
                    exitcode=slot.process.exitcode,
                )
            )
            slot.process.join(timeout=1)
            # The dead generation's queue may hold undelivered messages and
            # may even be lock-wedged; drop it without joining its feeder.
            slot.task_queue.cancel_join_thread()
            slot.task_queue.close()
            if respawn:
                self._slots[slot_id] = self._spawn(slot_id, slot.generation + 1)
            else:
                del self._slots[slot_id]
        return deaths

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 10.0) -> None:
        """Graceful stop: sentinel every live worker, join, then terminate
        stragglers (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        for slot in self._slots.values():
            if slot.process.is_alive():
                try:
                    slot.task_queue.put(None)
                except (ValueError, OSError):  # queue already closed
                    pass
        for slot in self._slots.values():
            slot.process.join(timeout=timeout)
        for slot in self._slots.values():
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=2)
            slot.task_queue.cancel_join_thread()
            slot.task_queue.close()
