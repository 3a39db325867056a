"""Resilient multi-worker recommendation daemon.

:class:`RecommendDaemon` turns the single-process
:class:`~repro.serve.engine.InferenceEngine` into a long-lived service
without giving up its bit-identity contract:

* The parent encodes the catalog **once**, publishes the ``(n, d)`` item
  matrix through a :class:`~repro.parallel.shm.ShmPack`, and forks a
  fixed fleet of workers (:class:`~repro.parallel.WorkerSupervisor`) that
  adopt zero-copy views of it. An exact recommend fans out: each worker
  scores the contiguous slot shard the daemon puts in its job through the
  folded rating head (fixed-size blocks), so the parent-side merge
  (:mod:`~repro.serve.shard_merge`) reproduces single-process
  ``recommend`` output bit for bit. An IVF recommend scans only a
  shortlist, so it goes to one worker with the whole slot range, like a
  ``score`` or ``warm`` op; the three share one round-robin counter.
* Requests arrive over a JSON-lines socket (:mod:`~repro.serve.protocol`),
  are micro-batched under a max-delay budget, sent to their workers, and
  merged as results stream back — no barrier across requests.

Robustness envelope (each failure mode is detected, mitigated, and keeps
a stated guarantee — see DESIGN.md §14 for the full table):

* **Worker death** mid-request: a housekeeping tick detects the corpse,
  respawns the slot at ``generation + 1`` with a fresh task queue and a
  fresh result pipe, and re-dispatches every job the dead worker still
  owed, bounded by a retry budget. Completed responses are never wrong —
  a job either finishes with exact scores or fails loudly. Each worker
  generation writes results to its own pipe, with no lock shared with
  other workers, so a SIGKILL mid-send cannot wedge the rest of the
  fleet.
* **Wedged worker**: a stall watchdog SIGKILLs any slot whose oldest
  in-flight dispatch exceeds the stall budget, converting the stall into
  the already-handled death path.
* **Overload**: admission is bounded — beyond ``queue_limit`` queued
  requests the daemon sheds explicitly (``status: "shed"``, the wire's
  429) instead of queueing unboundedly; health/ready/stats probes are
  answered inline by the connection readers so they stay responsive
  while the compute path is saturated.
* **Sustained overload**: a degradation ladder with hysteresis — level 0
  serves as configured, level 1 forces IVF retrieval (approximate-but-
  exact-scored shortlists on one worker instead of every shard), level 2
  additionally sheds requests for users no worker has encoded yet
  (cached-user-only).
* **Deadlines**: a request may carry ``deadline_ms``; expired requests
  are answered ``timeout`` whether still queued or in flight, and any
  late shard results are discarded, never half-merged.
* **Poisoned request**: a request that raises inside a worker is
  answered ``error`` for that request alone; batch-mates and the worker
  survive.

Telemetry: the parent writes a ``run-daemon.jsonl`` shard, each worker
generation writes ``run-w<slot>g<gen>.jsonl``, and :meth:`stop` merges
them into a schema-valid ``run.jsonl`` (tolerating shards torn by killed
workers).
"""

from __future__ import annotations

import functools
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..faults import POISON_USER
from ..obs import TelemetrySink
from ..obs.merge import merge_shards
from ..parallel import ShmPack, WorkerSupervisor, attach
from ..parallel.supervisor import run_worker
from .engine import InferenceEngine
from .protocol import ProtocolError, encode_message, read_messages, validate_request
from .shard_merge import merge_topk, shard_bounds, shard_topk

__all__ = ["DaemonConfig", "RecommendDaemon"]

#: Degradation ladder levels.
LEVEL_NORMAL, LEVEL_APPROXIMATE, LEVEL_CACHED_ONLY = 0, 1, 2
_LEVEL_NAMES = ("normal", "approximate", "cached_only")


@dataclass
class DaemonConfig:
    """Tunable envelope of the daemon (defaults suit the test worlds)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``daemon.port``.
    port: int = 0
    workers: int = 2
    #: Micro-batch shape: flush a batch at ``max_batch`` requests or after
    #: ``max_delay_ms`` of the oldest request waiting, whichever first.
    max_batch: int = 8
    max_delay_ms: float = 2.0
    #: Admission bound: queued-but-undispatched requests beyond this shed.
    queue_limit: int = 64
    #: Applied when a request carries no ``deadline_ms`` (None = unbounded).
    default_deadline_ms: float | None = None
    #: In-flight dispatch older than this is a wedge: SIGKILL the worker.
    stall_timeout_s: float = 10.0
    #: Re-dispatches of one job to one slot after worker deaths.
    max_retries: int = 2
    #: Degradation ladder thresholds on depth (queued + in flight), with
    #: recovery at half the threshold (hysteresis so the level is stable).
    degrade_soft: int = 24
    degrade_hard: int = 48
    #: Housekeeping cadence (death sweep, watchdog, deadlines, ladder).
    tick_s: float = 0.01
    #: Seconds ``stop`` waits for in-flight jobs before failing them.
    drain_timeout_s: float = 5.0
    # Engine shape — must match any reference engine used for comparison.
    batch_size: int | None = None
    cache_capacity: int | None = None
    retrieval: str = "exact"
    nlist: int | None = None
    nprobe: int | None = None
    ann_store: str = "float32"
    ann_seed: int | None = None
    #: Build the coarse IVF index at worker start so the first degraded
    #: request does not pay the k-means build.
    prebuild_ann: bool = True
    #: Directory for telemetry shards (None disables telemetry).
    telemetry_dir: str | None = None
    #: Chaos hook: a repro.faults.WorkerFaultPlan of deaths and stalls.
    fault_plan: object | None = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute_job(engine: InferenceEngine, job: dict):
    op = job["op"]
    # The document store deliberately tolerates unknown ids (all-padding
    # docs), so the chaos suite's poison sentinel trips here instead —
    # standing in for any request that raises mid-execution in a worker.
    if POISON_USER in (
        job.get("user"),
        *(user for user, _ in job.get("pairs", ())),
        *job.get("users", ()),
    ):
        raise RuntimeError(f"poisoned request: user {POISON_USER!r}")
    if op == "recommend":
        return shard_topk(
            engine,
            job["user"],
            job["k"],
            job["lo"],
            job["hi"],
            retrieval=job.get("retrieval", "exact"),
            nprobe=job.get("nprobe"),
            exclude_slots=job.get("exclude_slots"),
        )
    if op == "score":
        return [float(s) for s in engine.score_pairs(job["pairs"])]
    if op == "warm":
        return int(engine.warm(job["users"]))
    raise ValueError(f"unknown worker op {op!r}")


def _execute_batch(engine: InferenceEngine, message: tuple) -> list:
    """Run one ``("batch", jobs)`` message; one ``(job, status, payload)``
    entry per job."""
    _, jobs = message
    entries = []
    for job in jobs:
        try:
            entries.append((job["job"], "ok", _execute_job(engine, job)))
        except Exception as error:  # noqa: BLE001 - one bad request must
            # not take down the batch, the worker, or the fleet.
            entries.append((job["job"], "error", f"{type(error).__name__}: {error}"))
    return entries


def _daemon_worker_main(
    slot: int,
    generation: int,
    task_queue,
    result_conn,
    result,
    shm_ref,
    catalog: Sequence[str],
    engine_options: dict,
    prebuild_ann: bool,
    telemetry_dir: str | None,
    run_stamp: str,
    fault_plan,
) -> None:
    """One serving worker: adopt the shared catalog, answer batches until
    the stop sentinel (the supervisor's :func:`run_worker` loop).

    Forked from the parent, so ``result`` (the trained model) arrives by
    inheritance, never pickled; the catalog matrix arrives as a read-only
    shared-memory view. A recommend job carries the slot range to score.
    """
    pack = attach(shm_ref)

    def setup(sink):
        engine = InferenceEngine(
            result, catalog=list(catalog), telemetry=sink, **engine_options
        )
        engine.items.adopt(pack["reprs"])
        if prebuild_ann and len(catalog):
            engine.ann_index()
        return functools.partial(_execute_batch, engine)

    run_worker(
        slot, generation, task_queue, result_conn, setup, telemetry_dir,
        f"{run_stamp}-w{slot}g{generation}", fault_plan,
    )
    pack.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Connection:
    """One accepted client socket plus a write lock for its responders."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.file = sock.makefile("rb")
        self.lock = threading.Lock()
        self.open = True

    def send(self, message: dict) -> None:
        """Best-effort response write; a vanished client is not an error."""
        try:
            data = encode_message(message)
        except ProtocolError:  # pragma: no cover - responses are small
            return
        with self.lock:
            if not self.open:
                return
            try:
                self.sock.sendall(data)
            except OSError:
                self.open = False

    def close(self) -> None:
        with self.lock:
            self.open = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.file.close()
        finally:
            self.sock.close()


@dataclass
class _Request:
    """One admitted client request waiting for dispatch."""

    message: dict
    conn: _Connection
    arrival: float
    deadline: float | None


@dataclass
class _Job:
    """One dispatched request: per-slot bookkeeping until the merge."""

    job_id: int
    request: _Request
    op: str
    #: slot -> the job dict sent to it (kept for re-dispatch after a death).
    payloads: dict[int, dict]
    pending: set[int]
    level: int
    retrieval: str | None = None
    partials: dict = field(default_factory=dict)
    attempts: dict = field(default_factory=dict)
    dispatched: dict = field(default_factory=dict)


class RecommendDaemon:
    """Supervised multi-worker serving front-end over one trained model."""

    def __init__(
        self,
        result,
        config: DaemonConfig | None = None,
        *,
        catalog: Sequence[str] | None = None,
        store=None,
    ) -> None:
        self.result = result
        self.config = config if config is not None else DaemonConfig()
        self._catalog_arg = catalog
        self._store = store
        self.port: int | None = None
        self._run_stamp = f"serve-{os.getpid():05d}"
        self._sink_lock = threading.Lock()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._intake: deque[_Request] = deque()
        self._outstanding: dict[int, _Job] = {}
        self._served_users: set[str] = set()
        # (slot, generation) pairs the stall watchdog SIGKILLed.
        self._stall_killed: set[tuple[int, int]] = set()
        self._level = LEVEL_NORMAL
        self._counters = {
            "received": 0,
            "completed": 0,
            "shed": 0,
            "timeouts": 0,
            "errors": 0,
            "retries": 0,
            "deaths": 0,
            "stall_kills": 0,
            "degrades": 0,
        }
        self._latencies: deque[float] = deque(maxlen=4096)
        self._next_job = 0
        self._round_robin = 0
        self._stopping = False
        self._started = False
        self._threads: list[threading.Thread] = []
        self._connections: list[_Connection] = []
        self._sink: TelemetrySink | None = None
        self._pack: ShmPack | None = None
        self._supervisor: WorkerSupervisor | None = None
        self._listener: socket.socket | None = None
        self._last_stats = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "RecommendDaemon":
        """Encode the catalog, spawn the fleet, open the socket, go live."""
        if self._started:
            return self
        cfg = self.config
        if cfg.telemetry_dir is not None:
            self._sink = TelemetrySink(
                cfg.telemetry_dir,
                filename="run-daemon.jsonl",
                run_id=f"{self._run_stamp}-daemon",
            )

        engine_options = {}
        if cfg.batch_size is not None:
            engine_options["batch_size"] = cfg.batch_size
        if cfg.cache_capacity is not None:
            engine_options["cache_capacity"] = cfg.cache_capacity
        engine_options.update(
            nlist=cfg.nlist,
            nprobe=cfg.nprobe,
            ann_store=cfg.ann_store,
            ann_seed=cfg.ann_seed,
        )
        parent_engine = InferenceEngine(
            self.result,
            catalog=self._catalog_arg,
            store=self._store,
            **engine_options,
        )
        parent_engine.build_index()
        self.item_ids = list(parent_engine.items.item_ids)
        self._slots_by_item = dict(parent_engine.items.slots)
        reprs = parent_engine.items.reprs
        # Publish installs the SIGTERM/SIGINT shm sweep, so a killed daemon
        # never leaks the catalog segment.
        self._pack = ShmPack.publish({"reprs": reprs}, prefix="repro-serve")
        self._bounds = shard_bounds(len(self.item_ids), cfg.workers)

        shm_ref = self._pack.ref
        run_stamp = self._run_stamp
        result = self.result
        catalog = self.item_ids
        store_override = self._store
        if store_override is not None:
            # Workers build their engines from the same store the parent
            # encoded the catalog from (fork passes it by inheritance).
            worker_result = _ResultWithStore(result, store_override)
        else:
            worker_result = result

        worker_args = (
            worker_result,
            shm_ref,
            catalog,
            dict(engine_options),
            cfg.prebuild_ann,
            cfg.telemetry_dir,
            run_stamp,
            cfg.fault_plan,
        )
        self._supervisor = WorkerSupervisor(
            _daemon_worker_main, lambda slot, generation: worker_args, cfg.workers
        )
        self._supervisor.start()

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((cfg.host, cfg.port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]

        for name, fn in (
            ("accept", self._accept_loop),
            ("collect", self._collect_loop),
            ("batch", self._batch_loop),
            ("housekeeping", self._housekeeping_loop),
        ):
            thread = threading.Thread(
                target=fn, name=f"repro-daemon-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

        self._started = True
        self._emit(
            "daemon_start",
            workers=cfg.workers,
            catalog=len(self.item_ids),
            port=self.port,
        )
        return self

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until every worker slot has reported ready."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.is_ready():
                return True
            time.sleep(0.01)
        return False

    def is_ready(self) -> bool:
        """Every slot's *current* generation has reported ready."""
        supervisor = self._supervisor
        return self._started and supervisor is not None and supervisor.is_ready()

    def stop(self) -> dict:
        """Drain, stop the fleet, merge telemetry, release shared memory.

        Returns the final stats snapshot. Idempotent.
        """
        if not self._started or self._stopping:
            return self.stats()
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutting the socket down first does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        # Give in-flight jobs a drain window; the collector keeps merging.
        drain_until = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < drain_until:
            with self._lock:
                if not self._outstanding and not self._intake:
                    break
            time.sleep(0.01)
        with self._lock:
            leftovers = list(self._outstanding.values())
            queued = list(self._intake)
            self._outstanding.clear()
            self._intake.clear()
        for job in leftovers:
            self._respond(
                job.request, {"status": "error", "error": "daemon stopping"}
            )
        for request in queued:
            self._respond(
                request, {"status": "error", "error": "daemon stopping"}
            )
        # The collector is the fleet's one reader: stop it before the fleet.
        for thread in self._threads:
            thread.join(timeout=5)
        if self._supervisor is not None:
            self._supervisor.stop()
        for conn in list(self._connections):
            conn.close()
        with self._lock:
            self._emit_stats()
        snapshot = self.stats()
        if self._sink is not None:
            self._sink.close()
            try:
                merge_shards(self.config.telemetry_dir)
            except FileNotFoundError:  # pragma: no cover - sink wrote a shard
                pass
        if self._pack is not None:
            self._pack.unlink()
        return snapshot

    def __enter__(self) -> "RecommendDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Chaos hook
    # ------------------------------------------------------------------
    def kill_worker(self, slot: int) -> None:
        """SIGKILL one worker (chaos hook; healed like any other death)."""
        if self._supervisor is not None:
            with self._lock:
                self._supervisor.kill(slot)

    # ------------------------------------------------------------------
    # Stats / telemetry
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            latencies = np.array(self._latencies, dtype=np.float64)
            snapshot = dict(self._counters)
            snapshot.update(
                depth=len(self._intake) + len(self._outstanding),
                queued=len(self._intake),
                in_flight=len(self._outstanding),
                level=self._level,
                level_name=_LEVEL_NAMES[self._level],
                served_users=len(self._served_users),
                workers=self.config.workers,
                workers_alive=(
                    self._supervisor.alive_count()
                    if self._supervisor is not None
                    else 0
                ),
            )
        if len(latencies):
            snapshot["latency_p50_ms"] = float(np.percentile(latencies, 50) * 1e3)
            snapshot["latency_p99_ms"] = float(np.percentile(latencies, 99) * 1e3)
        return snapshot

    def _emit(self, kind: str, **fields) -> None:
        if self._sink is not None:
            with self._sink_lock:
                self._sink.emit(kind, **fields)
                self._sink.flush()

    # ------------------------------------------------------------------
    # Accept / per-connection reader
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping:
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            conn = _Connection(sock)
            self._connections.append(conn)
            thread = threading.Thread(
                target=self._client_loop, args=(conn,), daemon=True
            )
            thread.start()

    def _client_loop(self, conn: _Connection) -> None:
        try:
            for message in read_messages(conn.file):
                self._handle_message(conn, message)
        except (OSError, ValueError):
            pass
        finally:
            conn.close()
            try:
                self._connections.remove(conn)
            except ValueError:
                pass

    def _handle_message(self, conn: _Connection, message: dict) -> None:
        request_id = message.get("id")
        try:
            validate_request(message)
        except ProtocolError as error:
            conn.send({"id": request_id, "status": "error", "error": str(error)})
            return
        op = message["op"]
        # Probes bypass the compute queue entirely: they must answer even
        # when the daemon is saturated or degraded.
        if op == "health":
            conn.send(
                {
                    "id": request_id,
                    "status": "ok",
                    "alive": True,
                    "workers_alive": (
                        self._supervisor.alive_count()
                        if self._supervisor is not None
                        else 0
                    ),
                    "level": self._level,
                }
            )
            return
        if op == "ready":
            conn.send({"id": request_id, "status": "ok", "ready": self.is_ready()})
            return
        if op == "stats":
            conn.send({"id": request_id, "status": "ok", "stats": self.stats()})
            return

        now = time.monotonic()
        deadline_ms = message.get("deadline_ms", self.config.default_deadline_ms)
        request = _Request(
            message=message,
            conn=conn,
            arrival=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
        )
        with self._cv:
            self._counters["received"] += 1
            if self._stopping:
                shed_reason = "stopping"
            elif len(self._intake) >= self.config.queue_limit:
                shed_reason = "queue_full"
            elif (
                self._level >= LEVEL_CACHED_ONLY
                and op == "recommend"
                and message["user"] not in self._served_users
            ):
                shed_reason = "cold_user_degraded"
            else:
                shed_reason = None
            if shed_reason is not None:
                self._counters["shed"] += 1
                level = self._level
            else:
                self._intake.append(request)
                self._cv.notify_all()
        if shed_reason is not None:
            conn.send(
                {
                    "id": request_id,
                    "status": "shed",
                    "reason": shed_reason,
                    "level": level,
                }
            )

    # ------------------------------------------------------------------
    # Batching / dispatch
    # ------------------------------------------------------------------
    def _batch_loop(self) -> None:
        cfg = self.config
        max_delay = cfg.max_delay_ms / 1e3
        while True:
            with self._cv:
                while not self._stopping:
                    if self._intake:
                        age = time.monotonic() - self._intake[0].arrival
                        if len(self._intake) >= cfg.max_batch or age >= max_delay:
                            break
                        self._cv.wait(timeout=max(1e-4, max_delay - age))
                    else:
                        self._cv.wait(timeout=0.05)
                if self._stopping:
                    return
                batch = [
                    self._intake.popleft()
                    for _ in range(min(cfg.max_batch, len(self._intake)))
                ]
                expired = self._dispatch_batch(batch)
            # Socket writes happen outside the lock: a slow client must not
            # stall admission, collection, or the housekeeping tick.
            for request in expired:
                self._respond(
                    request,
                    {"status": "timeout", "error": "deadline expired in queue"},
                )

    def _next_slot(self) -> int:
        """The next slot for a single-worker job, round robin (lock held)."""
        slot = self._round_robin % self.config.workers
        self._round_robin += 1
        return slot

    def _dispatch_batch(self, batch: list[_Request]) -> list[_Request]:
        """Turn admitted requests into per-slot job batches (lock held).

        An exact recommend fans out, one shard range per slot; an IVF
        recommend, a ``score`` and a ``warm`` go to one slot, round robin.

        Returns the requests whose deadline already expired in the queue;
        the caller answers them after releasing the lock.
        """
        cfg = self.config
        now = time.monotonic()
        per_slot: dict[int, list[dict]] = {}
        expired: list[_Request] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                self._counters["timeouts"] += 1
                expired.append(request)
                continue
            message = request.message
            op = message["op"]
            self._next_job += 1
            job_id = self._next_job
            level = self._level
            if op == "recommend":
                retrieval = message.get("retrieval")
                if retrieval is None:
                    retrieval = (
                        "ivf" if level >= LEVEL_APPROXIMATE else cfg.retrieval
                    )
                exclude_slots = [
                    self._slots_by_item[item]
                    for item in message.get("exclude", [])
                    if item in self._slots_by_item
                ]
                payload = {
                    "job": job_id,
                    "op": "recommend",
                    "user": message["user"],
                    "k": message.get("k", 10),
                    "retrieval": retrieval,
                    "nprobe": message.get("nprobe", cfg.nprobe),
                    "exclude_slots": exclude_slots,
                }
                if retrieval == "ivf":
                    # A shortlist scan gains nothing from fanning out; it
                    # would only encode the user and probe on every slot.
                    ranges = {self._next_slot(): (0, len(self.item_ids))}
                else:
                    ranges = dict(enumerate(self._bounds))
                payloads = {
                    slot: dict(payload, lo=lo, hi=hi)
                    for slot, (lo, hi) in ranges.items()
                }
            else:
                if op == "score":
                    payload = {
                        "job": job_id,
                        "op": "score",
                        "pairs": [tuple(pair) for pair in message["pairs"]],
                    }
                else:  # warm
                    payload = {
                        "job": job_id,
                        "op": "warm",
                        "users": list(message["users"]),
                    }
                payloads = {self._next_slot(): payload}
                retrieval = None
            job = _Job(
                job_id=job_id,
                request=request,
                op=op,
                payloads=payloads,
                pending=set(payloads),
                level=level,
                retrieval=retrieval,
            )
            for slot, slot_payload in payloads.items():
                job.attempts[slot] = 0
                job.dispatched[slot] = now
                per_slot.setdefault(slot, []).append(slot_payload)
            self._outstanding[job_id] = job
        for slot, jobs in per_slot.items():
            self._supervisor.send(slot, ("batch", jobs))
        return expired

    # ------------------------------------------------------------------
    # Collection / merge
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            replies = self._supervisor.receive(timeout=0.1)
            for slot, entries in replies:
                self._absorb_results(slot, entries)
            if not replies and self._stopping:
                with self._lock:
                    if not self._outstanding:
                        return

    def _absorb_results(self, slot: int, entries: list) -> None:
        finished: list[tuple[_Job, dict]] = []
        with self._lock:
            for job_id, status, payload in entries:
                job = self._outstanding.get(job_id)
                if job is None or slot not in job.pending:
                    continue  # late duplicate after a retry, or timed out
                if status == "error":
                    del self._outstanding[job_id]
                    self._counters["errors"] += 1
                    finished.append(
                        (job, {"status": "error", "error": payload})
                    )
                    continue
                job.pending.discard(slot)
                job.partials[slot] = payload
                if job.pending:
                    continue
                del self._outstanding[job_id]
                now = time.monotonic()
                if job.request.deadline is not None and now > job.request.deadline:
                    self._counters["timeouts"] += 1
                    finished.append(
                        (
                            job,
                            {
                                "status": "timeout",
                                "error": "deadline expired in flight",
                            },
                        )
                    )
                    continue
                self._counters["completed"] += 1
                self._latencies.append(now - job.request.arrival)
                finished.append((job, self._success_response(job)))
        for job, response in finished:
            self._respond(job.request, response)

    def _success_response(self, job: _Job) -> dict:
        """Build the ``ok`` payload from shard partials (lock held)."""
        message = job.request.message
        if job.op == "recommend":
            merged = merge_topk(list(job.partials.values()), message.get("k", 10))
            self._served_users.add(message["user"])
            return {
                "status": "ok",
                "items": [[self.item_ids[slot], score] for slot, score in merged],
                "retrieval": job.retrieval,
                "level": job.level,
            }
        if job.op == "score":
            self._served_users.update(user for user, _ in message["pairs"])
            (scores,) = job.partials.values()
            return {"status": "ok", "scores": scores, "level": job.level}
        self._served_users.update(message["users"])
        (warmed,) = job.partials.values()
        return {"status": "ok", "warmed": warmed, "level": job.level}

    def _respond(self, request: _Request, response: dict) -> None:
        response.setdefault("id", request.message.get("id"))
        request.conn.send(response)

    # ------------------------------------------------------------------
    # Housekeeping: deaths, watchdog, deadlines, degradation
    # ------------------------------------------------------------------
    def _housekeeping_loop(self) -> None:
        cfg = self.config
        while not self._stopping:
            time.sleep(cfg.tick_s)
            failed: list[tuple[_Job, dict]] = []
            with self._lock:
                if self._supervisor is None:
                    continue
                for death in self._supervisor.check():
                    self._counters["deaths"] += 1
                    requeued = self._requeue_slot(death.slot, failed)
                    key = (death.slot, death.generation)
                    self._emit(
                        "worker_death",
                        worker=death.slot,
                        generation=death.generation,
                        exitcode=death.exitcode,
                        requeued=requeued,
                        stalled=key in self._stall_killed,
                    )
                    self._stall_killed.discard(key)
                self._watchdog()
                self._sweep_deadlines(failed)
                self._update_level()
                now = time.monotonic()
                if now - self._last_stats >= 1.0:
                    self._last_stats = now
                    self._emit_stats()
            for job, response in failed:
                self._respond(job.request, response)

    def _requeue_slot(self, slot: int, failed: list) -> int:
        """Re-dispatch every job the dead slot still owed (lock held)."""
        now = time.monotonic()
        requeued = 0
        for job_id, job in list(self._outstanding.items()):
            if slot not in job.pending:
                continue
            attempt = job.attempts.get(slot, 0) + 1
            if attempt > self.config.max_retries:
                del self._outstanding[job_id]
                self._counters["errors"] += 1
                failed.append(
                    (
                        job,
                        {
                            "status": "error",
                            "error": (
                                f"retry budget exhausted after {attempt - 1} "
                                f"worker deaths"
                            ),
                        },
                    )
                )
                continue
            job.attempts[slot] = attempt
            job.dispatched[slot] = now
            self._counters["retries"] += 1
            self._supervisor.send(slot, ("batch", [job.payloads[slot]]))
            requeued += 1
        return requeued

    def _watchdog(self) -> None:
        """SIGKILL slots whose oldest in-flight dispatch looks wedged."""
        now = time.monotonic()
        budget = self.config.stall_timeout_s
        stalled: set[int] = set()
        for job in self._outstanding.values():
            for slot in job.pending:
                age = now - job.dispatched.get(slot, now)
                if age > budget:
                    stalled.add(slot)
        for slot in stalled:
            self._counters["stall_kills"] += 1
            self._stall_killed.add((slot, self._supervisor.generation(slot)))
            self._supervisor.kill(slot)

    def _sweep_deadlines(self, failed: list) -> None:
        """Expire queued and in-flight requests past their deadline."""
        now = time.monotonic()
        expired_queued = [
            request
            for request in self._intake
            if request.deadline is not None and now > request.deadline
        ]
        for request in expired_queued:
            self._intake.remove(request)
            self._counters["timeouts"] += 1
            failed.append(
                (
                    _Job(0, request, request.message["op"], {}, set(), self._level),
                    {"status": "timeout", "error": "deadline expired in queue"},
                )
            )
        for job_id, job in list(self._outstanding.items()):
            if job.request.deadline is not None and now > job.request.deadline:
                del self._outstanding[job_id]
                self._counters["timeouts"] += 1
                failed.append(
                    (
                        job,
                        {
                            "status": "timeout",
                            "error": "deadline expired in flight",
                        },
                    )
                )

    def _update_level(self) -> None:
        """Depth-driven degradation ladder with half-threshold hysteresis."""
        cfg = self.config
        depth = len(self._intake) + len(self._outstanding)
        level = self._level
        if depth >= cfg.degrade_hard:
            level = LEVEL_CACHED_ONLY
        elif depth >= cfg.degrade_soft:
            level = max(level, LEVEL_APPROXIMATE)
        elif depth <= cfg.degrade_soft // 2:
            level = LEVEL_NORMAL
        elif level == LEVEL_CACHED_ONLY and depth <= cfg.degrade_hard // 2:
            level = LEVEL_APPROXIMATE
        if level != self._level:
            self._counters["degrades"] += 1
            self._emit(
                "daemon_degrade",
                level=level,
                previous=self._level,
                depth=depth,
            )
            self._level = level

    def _emit_stats(self) -> None:
        """One cumulative ``metrics`` snapshot (caller holds the lock)."""
        if self._sink is None:
            return
        self._emit(
            "metrics",
            component="daemon",
            counters=dict(self._counters),
            gauges={
                "depth": len(self._intake) + len(self._outstanding),
                "level": self._level,
            },
            histograms={},
        )


class _ResultWithStore:
    """A TrainResult proxy whose ``store`` is the daemon's override."""

    def __init__(self, result, store) -> None:
        self._result = result
        self.store = store

    def __getattr__(self, name: str):
        return getattr(self._result, name)
