"""Tests for the worker supervisor: slot/generation lifecycle, the shared
worker loop, result pipes, readiness, and a stop that always reaps."""

import ctypes
import os
import signal
import time

import pytest

from repro.faults import WorkerFaultPlan
from repro.parallel import WorkerDeath, WorkerSupervisor
from repro.parallel.supervisor import run_worker


def echo_worker(slot, generation, task_queue, result_conn, fault_plan=None):
    """Doubles integers; 'die' exits like a SIGKILL; None stops."""

    def setup(shard):
        def handle(message):
            if message == "die":
                os._exit(9)
            return (slot, generation, message * 2)

        return handle

    run_worker(
        slot, generation, task_queue, result_conn, setup, fault_plan=fault_plan
    )


def wedged_worker(*_):
    """Stands in for a worker wedged in C code (a hung BLAS pool): a
    relocked default pthread mutex blocks forever in the kernel, where no
    Python signal handler can run."""
    mutex = ctypes.create_string_buffer(64)  # >= sizeof(pthread_mutex_t)
    libc = ctypes.CDLL(None)
    for name in ("pthread_mutex_init", "pthread_mutex_lock"):
        getattr(libc, name).restype = ctypes.c_int
    libc.pthread_mutex_init.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    libc.pthread_mutex_lock.argtypes = [ctypes.c_void_p]
    libc.pthread_mutex_init(mutex, None)
    libc.pthread_mutex_lock(mutex)
    libc.pthread_mutex_lock(mutex)


def sigterm_proof_worker(*_):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    wedged_worker()


def make_supervisor(workers=2, fault_plan=None):
    return WorkerSupervisor(echo_worker, (fault_plan,), workers)


def collect(supervisor, count, timeout=20.0):
    replies = []
    deadline = time.monotonic() + timeout
    while len(replies) < count and time.monotonic() < deadline:
        replies += [reply for _, reply in supervisor.receive(timeout=0.2)]
    return replies


def wait_for_death(supervisor, timeout=20.0):
    deaths = []
    deadline = time.monotonic() + timeout
    while not deaths and time.monotonic() < deadline:
        deaths = supervisor.check()
        time.sleep(0.02)
    return deaths


def wait_ready(supervisor, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not supervisor.is_ready() and time.monotonic() < deadline:
        supervisor.receive(timeout=0.05)
    return supervisor.is_ready()


class TestSupervisor:
    def test_round_trip_through_every_slot(self):
        supervisor = make_supervisor()
        supervisor.start()
        try:
            supervisor.send(0, 10)
            supervisor.send(1, 20)
            assert sorted(collect(supervisor, 2)) == [(0, 0, 20), (1, 0, 40)]
            assert supervisor.alive_count() == 2
        finally:
            supervisor.stop()

    def test_death_is_detected_and_respawned_with_next_generation(self):
        supervisor = make_supervisor()
        supervisor.start()
        try:
            supervisor.send(0, "die")
            deaths = wait_for_death(supervisor)
            assert deaths == [WorkerDeath(slot=0, generation=0, exitcode=9)]
            assert supervisor.generation(0) == 1
            assert supervisor.generation(1) == 0
            # The respawned generation serves from a fresh queue and pipe.
            supervisor.send(0, 7)
            assert collect(supervisor, 1) == [(0, 1, 14)]
        finally:
            supervisor.stop()

    def test_kill_heals_like_any_death(self):
        supervisor = make_supervisor(workers=1)
        supervisor.start()
        try:
            supervisor.send(0, 1)
            assert collect(supervisor, 1) == [(0, 0, 2)]
            supervisor.kill(0)
            deaths = wait_for_death(supervisor)
            assert deaths[0].slot == 0
            assert deaths[0].exitcode != 0
            supervisor.send(0, 3)
            assert collect(supervisor, 1) == [(0, 1, 6)]
        finally:
            supervisor.stop()

    def test_replies_sent_before_a_death_are_received(self):
        # Generation 0 answers unit 0, then dies taking unit 1: the reply
        # still in its retired pipe is handed over after check().
        plan = WorkerFaultPlan(kills=[(0, 0, 1)])
        supervisor = make_supervisor(workers=1, fault_plan=plan)
        supervisor.start()
        try:
            supervisor.send(0, 5)
            supervisor.send(0, 6)
            deaths = wait_for_death(supervisor)
            assert deaths == [
                WorkerDeath(slot=0, generation=0, exitcode=WorkerFaultPlan.EXIT_CODE)
            ]
            assert supervisor.receive(timeout=0) == [(0, (0, 0, 10))]
        finally:
            supervisor.stop()

    def test_ready_tracks_the_current_generation(self):
        supervisor = make_supervisor()
        assert not supervisor.is_ready()
        supervisor.start()
        try:
            assert wait_ready(supervisor)
            supervisor.send(1, "die")
            assert wait_for_death(supervisor)[0].slot == 1
            assert not supervisor.is_ready()  # generation 1 has not reported
            assert wait_ready(supervisor)
        finally:
            supervisor.stop()

    def test_fault_plan_stall_delays_the_unit(self):
        plan = WorkerFaultPlan(stalls={(0, 0, 0): 0.5})
        supervisor = make_supervisor(workers=1, fault_plan=plan)
        supervisor.start()
        try:
            assert wait_ready(supervisor)
            start = time.monotonic()
            supervisor.send(0, 4)
            assert collect(supervisor, 1) == [(0, 0, 8)]
            assert time.monotonic() - start >= 0.5
        finally:
            supervisor.stop()

    def test_stop_is_graceful_and_idempotent(self):
        supervisor = make_supervisor()
        supervisor.start()
        supervisor.stop()
        assert supervisor.alive_count() == 0
        supervisor.stop()  # second call must not raise
        assert supervisor.check() == []  # post-stop checks are inert

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            make_supervisor(workers=0)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # a zombie would still answer


class TestStopReapsEveryWorker:
    """``stop()`` returns within its bound and leaves no worker behind,
    even when workers never read their stop sentinel."""

    @pytest.fixture()
    def python_sigterm_handler(self):
        # The parent's Python handler (like the shm sweep) is inherited by
        # every forked worker unless the worker entry resets it.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        yield
        signal.signal(signal.SIGTERM, previous)

    @pytest.mark.parametrize("target", [wedged_worker, sigterm_proof_worker])
    def test_wedged_workers_are_reaped_within_the_bound(
        self, target, python_sigterm_handler
    ):
        supervisor = WorkerSupervisor(target, (), workers=2)
        supervisor.start()
        pids = [supervisor.pid(slot) for slot in range(2)]
        time.sleep(0.3)  # let both workers reach the wedge
        start = time.monotonic()
        supervisor.stop(timeout=0.5)
        assert time.monotonic() - start < 0.5 + 2.0 + 2.0
        assert_reaped(pids)
