"""TaskPool: inline/worker parity, cancellation, preemption, chaos requeue."""

import os
import threading
import time

import pytest

from repro.faults import WorkerKillPlan
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


def wait_for_cancel(ctx, started_path, deadline=15.0):
    """Announce start, then poll ``should_stop`` — the cooperative idiom."""
    with open(started_path, "w", encoding="utf-8") as handle:
        handle.write(str(ctx.index))
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if ctx.should_stop():
            return "stopped"
        time.sleep(0.01)
    return "timeout"


def die_on_cancel(ctx, started_path, deadline=15.0):
    """Crash abruptly once cancelled: death-is-the-cancellation path."""
    with open(started_path, "w", encoding="utf-8") as handle:
        handle.write(str(ctx.index))
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if ctx.should_stop():
            os._exit(117)
        time.sleep(0.01)
    return "timeout"


def observe_stop(ctx):
    return bool(ctx.should_stop())


def _cancel_when_started(pool, index, started_path):
    """Background thread: wait for the task to announce itself, then cancel."""

    def run():
        while not os.path.exists(started_path):
            time.sleep(0.01)
        pool.cancel(index)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


class TestInlineMode:
    def test_submission_order_and_values(self, tmp_path):
        log = tmp_path / "order.log"
        with TaskPool(0) as pool:
            indices = [pool.submit(touch_and_return, str(log)) for _ in range(4)]
            outcomes = pool.drain()
        assert [outcomes[i].value for i in indices] == indices
        assert log.read_text().splitlines() == [str(i) for i in indices]
        assert all(outcomes[i].status == "ok" for i in indices)

    def test_cancel_pending_never_runs(self, tmp_path):
        log = tmp_path / "order.log"
        with TaskPool(0) as pool:
            first = pool.submit(touch_and_return, str(log))
            second = pool.submit(touch_and_return, str(log))
            assert pool.cancel(second) == "cancelled"
            outcomes = pool.drain()
        assert outcomes[first].status == "ok"
        assert outcomes[second].status == "cancelled"
        assert outcomes[second].cancel_requested
        assert log.read_text().splitlines() == [str(first)]

    def test_error_raises_on_drain(self):
        with TaskPool(0) as pool:
            pool.submit(boom)
            with pytest.raises(TaskPoolError, match="deliberate task failure"):
                pool.drain()

    def test_error_collected_without_raise(self):
        with TaskPool(0) as pool:
            good = pool.submit(double, 4)
            bad = pool.submit(boom)
            outcomes = pool.drain(raise_on_error=False)
        assert outcomes[good].value == 8
        assert outcomes[bad].status == "error"
        assert "deliberate task failure" in outcomes[bad].error

    def test_cancel_statuses(self):
        with TaskPool(0) as pool:
            index = pool.submit(double, 1)
            assert pool.cancel(999) == "unknown"
            pool.drain()
            assert pool.cancel(index) == "done"

    def test_inline_never_stops(self):
        with TaskPool(0) as pool:
            index = pool.submit(observe_stop)
            assert pool.drain()[index].value is False

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

    def test_cooperative_cancel_of_running_task(self, tmp_path):
        started = tmp_path / "started"
        with TaskPool(2) as pool:
            index = pool.submit(wait_for_cancel, str(started))
            thread = _cancel_when_started(pool, index, str(started))
            outcomes = pool.drain()
            thread.join(timeout=5)
        # A cooperative stop returns normally — the caller sees both the
        # result and the fact that cancellation was requested.
        assert outcomes[index].status == "ok"
        assert outcomes[index].value == "stopped"
        assert outcomes[index].cancel_requested

    def test_death_with_cancel_pending_is_cancellation(self, tmp_path):
        started = tmp_path / "started"
        with TaskPool(2) as pool:
            index = pool.submit(die_on_cancel, str(started))
            thread = _cancel_when_started(pool, index, str(started))
            outcomes = pool.drain()
            thread.join(timeout=5)
        assert outcomes[index].status == "cancelled"
        assert outcomes[index].cancel_requested

    def test_stale_cancel_never_leaks_to_next_task(self, tmp_path):
        started = tmp_path / "started"
        with TaskPool(2) as pool:
            preempted = pool.submit(wait_for_cancel, str(started))
            thread = _cancel_when_started(pool, preempted, str(started))
            pool.drain()
            thread.join(timeout=5)
            # New tasks after the cancel must see a clean should_stop.
            followers = [pool.submit(observe_stop) for _ in range(4)]
            outcomes = pool.drain()
        assert [outcomes[i].value for i in followers] == [False] * 4

    def test_worker_death_requeues_task(self, tmp_path):
        telemetry = tmp_path / "telemetry"
        plan = WorkerKillPlan(kills=[(2, 0)])  # kill task 2's first attempt
        with TaskPool(2, telemetry_dir=telemetry, kill_plan=plan) as pool:
            indices = [pool.submit(double, v) for v in range(5)]
            outcomes = pool.drain()
        assert [outcomes[i].value for i in indices] == [0, 2, 4, 6, 8]
        assert outcomes[2].attempt == 1  # reran on the replacement worker
        merge_shards(telemetry)
        events = read_events(telemetry / "run.jsonl")
        generations = {e["generation"] for e in events if e["kind"] == "worker_start"}
        assert generations == {0, 1}  # a replacement worker was spawned

    def test_retry_budget_exhausted(self):
        plan = WorkerKillPlan(kills=[(0, 0), (0, 1)])
        with TaskPool(2, max_task_retries=1, kill_plan=plan) as pool:
            pool.submit(double, 1)
            with pytest.raises(TaskPoolError, match="giving up"):
                pool.drain()
