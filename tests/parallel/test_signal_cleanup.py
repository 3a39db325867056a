"""A SIGTERM'd publisher must not leak /dev/shm segments or processes.

The atexit sweep only covers normal interpreter exits; a daemon killed
with SIGTERM dies without running it. ``ShmPack.publish`` installs
SIGTERM/SIGINT handlers that run the sweep first, stop the host's worker
fleet, and then restore the signal's default behavior, so the process
still reports a signal death.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parallel import install_signal_cleanup

SRC = str(Path(__file__).resolve().parents[2] / "src")

PUBLISHER = """
import sys, time
import numpy as np
from repro.parallel import ShmPack
pack = ShmPack.publish({'x': np.zeros(256)}, prefix='repro-sigterm')
print(pack.ref.name, flush=True)
time.sleep(60)  # wait to be killed
"""


def run_publisher_and_signal(signum):
    proc = subprocess.Popen(
        [sys.executable, "-c", PUBLISHER],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        name = proc.stdout.readline().strip()
        assert name.startswith("repro-sigterm")
        proc.send_signal(signum)
        returncode = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return name, returncode


HOST = """
import signal, sys, time
import numpy as np
from repro.parallel import ShmPack, WorkerSupervisor
from repro.parallel.supervisor import run_worker

STUBBORN = sys.argv[1] == "stubborn"

def setup(sink):
    if STUBBORN:  # survives SIGTERM once ready: only SIGKILL stops it
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    return lambda message: message

def target(slot, generation, task_queue, result_conn):
    run_worker(slot, generation, task_queue, result_conn, setup)

ShmPack.publish({'x': np.zeros(256)}, prefix='repro-sigterm')
fleet = WorkerSupervisor(target, lambda slot, generation: (), workers=2)
fleet.start()
while not fleet.is_ready():
    fleet.receive(0.1)
print(fleet.pid(0), fleet.pid(1), flush=True)
time.sleep(60)  # wait to be killed
"""


def running_pids():
    """pid -> ppid of every process on the box that is not a zombie."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if fields[0] != "Z":
            table[int(entry)] = int(fields[1])
    return table


def descendants(root):
    table = running_pids()
    found, frontier = set(), {root}
    while frontier:
        frontier = {pid for pid, ppid in table.items() if ppid in frontier} - found
        found |= frontier
    return found


def sigterm_host(mode):
    """SIGTERM a host running a 2-worker fleet; its process tree at that
    moment, its worker pids, its exit status, and what still runs after."""
    proc = subprocess.Popen(
        [sys.executable, "-c", HOST, mode],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    tree = set()
    try:
        workers = {int(pid) for pid in proc.stdout.readline().split()}
        tree = descendants(proc.pid)
        proc.send_signal(signal.SIGTERM)
        returncode = proc.wait(timeout=30)
        deadline = time.monotonic() + 5
        while (survivors := tree & set(running_pids())) and time.monotonic() < deadline:
            time.sleep(0.05)
        return tree, workers, returncode, survivors
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in tree & set(running_pids()):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def assert_segment_gone(name):
    from multiprocessing import shared_memory

    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        segment.close()
        time.sleep(0.05)
    raise AssertionError(f"segment {name} leaked in /dev/shm")


class TestSignalCleanup:
    def test_sigterm_unlinks_segments_and_keeps_signal_exit_status(self):
        name, returncode = run_publisher_and_signal(signal.SIGTERM)
        assert_segment_gone(name)
        # The handler re-raises with SIG_DFL restored: the exit status must
        # still say "killed by SIGTERM", not a clean exit.
        assert returncode == -signal.SIGTERM

    def test_sigint_unlinks_segments_too(self):
        name, returncode = run_publisher_and_signal(signal.SIGINT)
        assert_segment_gone(name)
        assert returncode != 0

    @pytest.mark.parametrize("mode", ["default", "stubborn"])
    def test_sigterm_stops_the_host_fleet(self, mode):
        """No process of a SIGTERMed host's tree outlives it: its workers
        (SIGKILLed when they ignore SIGTERM) and the resource tracker they
        kept alive are all gone, and the host still dies by SIGTERM."""
        tree, workers, returncode, survivors = sigterm_host(mode)
        assert len(workers) == 2 and workers <= tree
        assert returncode == -signal.SIGTERM
        assert not survivors, f"{sorted(survivors)} of {sorted(tree)} outlived the host"

    def test_install_is_idempotent_in_main_thread(self):
        assert install_signal_cleanup() is True
        assert install_signal_cleanup() is True

    def test_install_refuses_non_main_thread(self):
        import threading

        import repro.parallel.shm as shm

        previous = dict(shm._SIGNAL_PREVIOUS)
        shm._SIGNAL_PREVIOUS.clear()
        try:
            outcome = []
            thread = threading.Thread(
                target=lambda: outcome.append(install_signal_cleanup())
            )
            thread.start()
            thread.join()
            assert outcome == [False]
        finally:
            shm._SIGNAL_PREVIOUS.update(previous)
            if previous:
                install_signal_cleanup()


@pytest.fixture(autouse=True)
def restore_handlers():
    """Keep the test process's own handlers stable across tests."""
    term = signal.getsignal(signal.SIGTERM)
    intr = signal.getsignal(signal.SIGINT)
    yield
    signal.signal(signal.SIGTERM, term)
    signal.signal(signal.SIGINT, intr)
