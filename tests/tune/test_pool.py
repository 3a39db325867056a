"""TaskPool: inline/worker parity, chaos requeue, fork-inherited state."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import WorkerFaultPlan
from repro.nn import get_default_dtype, set_default_dtype
from repro.obs import merge_shards, read_events, validate_run_file
from repro.parallel import TaskPool, TaskPoolError


# ---------------------------------------------------------------------------
# Module-level task functions (pickled by reference into workers).
# ---------------------------------------------------------------------------
def double(ctx, value):
    return 2 * value


def coordinates(ctx):
    return {"index": ctx.index, "attempt": ctx.attempt, "worker": ctx.worker,
            "generation": ctx.generation}


def boom(ctx):
    raise ValueError("deliberate task failure")


def touch_and_return(ctx, path):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{ctx.index}\n")
    return ctx.index


def default_dtype_name(ctx):
    return ctx.worker, ctx.generation, str(get_default_dtype())


@pytest.fixture()
def float32_default():
    previous = set_default_dtype("float32")
    yield
    set_default_dtype(previous)


class TestInlineMode:
    def test_submission_order_and_values(self, tmp_path):
        log = tmp_path / "order.log"
        with TaskPool(0) as pool:
            indices = [pool.submit(touch_and_return, str(log)) for _ in range(4)]
            outcomes = pool.drain()
        assert [outcomes[i].value for i in indices] == indices
        assert log.read_text().splitlines() == [str(i) for i in indices]
        assert all(outcomes[i].status == "ok" for i in indices)

    def test_error_raises_on_drain(self):
        with TaskPool(0) as pool:
            pool.submit(boom)
            with pytest.raises(TaskPoolError, match="deliberate task failure"):
                pool.drain()

    def test_closed_pool_rejects_submit(self):
        pool = TaskPool(0)
        pool.close()
        with pytest.raises(TaskPoolError, match="closed"):
            pool.submit(double, 1)

    def test_inline_telemetry_merges_like_workers(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        with TaskPool(0, telemetry_dir=telemetry) as pool:
            pool.submit(double, 3)
            pool.drain()
        merge_shards(telemetry)
        stats = validate_run_file(telemetry / "run.jsonl")
        assert stats["kinds"]["task"] == 1


class TestWorkerMode:
    def test_values_match_inline(self):
        with TaskPool(0) as inline:
            inline_indices = [inline.submit(double, v) for v in (1, 2, 3, 4, 5)]
            inline_outcomes = inline.drain()
            expected = [inline_outcomes[i].value for i in inline_indices]
        with TaskPool(2) as pool:
            indices = [pool.submit(double, v) for v in (1, 2, 3, 4, 5)]
            outcomes = pool.drain()
        assert [outcomes[i].value for i in indices] == expected

    def test_shards_schema_valid(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        with TaskPool(2, telemetry_dir=telemetry) as pool:
            for value in range(4):
                pool.submit(double, value)
            pool.drain()
        merge_shards(telemetry)
        stats = validate_run_file(telemetry / "run.jsonl")
        assert stats["kinds"]["task"] == 4
        assert stats["kinds"]["worker_start"] == 2
        assert stats["kinds"]["worker_end"] == 2

    def test_worker_death_requeues_task(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        # The first dispatch puts task i on slot i, so this kills task 1's
        # first attempt.
        plan = WorkerFaultPlan(kills=[(1, 0, 0)])
        with TaskPool(2, telemetry_dir=telemetry, fault_plan=plan) as pool:
            indices = [pool.submit(double, v) for v in range(5)]
            outcomes = pool.drain()
        assert [outcomes[i].value for i in indices] == [0, 2, 4, 6, 8]
        assert outcomes[1].attempt == 1  # reran on the replacement worker
        merge_shards(telemetry)
        events = read_events(telemetry / "run.jsonl")
        generations = {e["generation"] for e in events if e["kind"] == "worker_start"}
        assert generations == {0, 1}  # a replacement worker was spawned

    def test_retry_budget_exhausted(self):
        # The retry goes back to the first free slot: slot 0's respawn.
        plan = WorkerFaultPlan(kills=[(0, 0, 0), (0, 1, 0)])
        with TaskPool(2, max_task_retries=1, fault_plan=plan) as pool:
            pool.submit(double, 1)
            with pytest.raises(TaskPoolError, match="giving up"):
                pool.drain()

    def test_workers_inherit_the_parent_default_dtype(self, float32_default):
        # Each generation-0 worker runs one task and dies on its second, so
        # tasks 2 and 3 run on respawns forked from the parent mid-drain.
        plan = WorkerFaultPlan(kills=[(0, 0, 1), (1, 0, 1)])
        with TaskPool(2, fault_plan=plan) as pool:
            indices = [pool.submit(default_dtype_name) for _ in range(4)]
            outcomes = pool.drain()
        seen = [outcomes[i].value for i in indices]
        assert [dtype for _, _, dtype in seen] == ["float32"] * 4
        assert [generation for _, generation, _ in seen] == [0, 0, 1, 1]


#: Runs a 2-worker pool whose one task returns a result larger than 1 MiB.
#: ``Connection._send_bytes`` is patched before the pool forks: the first
#: large send writes the frame header and half the body, then SIGKILLs its
#: own process, tearing the frame the parent is reading.
TORN_FRAME_SCRIPT = """
import os, signal, struct, sys
from multiprocessing import connection
from repro.parallel import TaskPool

marker = sys.argv[1]
send_bytes = connection.Connection._send_bytes

def tearing_send_bytes(self, buf):
    size = len(buf)
    if size > 1 << 20:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return send_bytes(self, buf)  # tear only the first attempt
        self._send(struct.pack("!i", size) + bytes(buf[: size // 2]))
        os.kill(os.getpid(), signal.SIGKILL)
    return send_bytes(self, buf)

connection.Connection._send_bytes = tearing_send_bytes

def big(ctx):
    return bytes(2 << 20)

with TaskPool(2) as pool:
    index = pool.submit(big)
    outcome = pool.drain()[index]
print(outcome.status, outcome.attempt, len(outcome.value))
"""


class TestTornResultFrame:
    def test_worker_killed_mid_frame_is_retried(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-c", TORN_FRAME_SCRIPT, str(tmp_path / "torn")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")},
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the pool's workers too
            proc.communicate()
            pytest.fail("TaskPool.drain hung on a torn result frame")
        assert proc.returncode == 0, err
        assert (tmp_path / "torn").exists()  # the frame really was torn
        assert out.split() == ["ok", "1", str(2 << 20)]
