"""Engine tests: serial/parallel bit-identity, crash supervision, cleanup."""

import pytest

from repro.core import OmniMatchConfig
from repro.eval import METHODS, run_experiment
from repro.eval.protocol import run_table
from repro.faults import WorkerFaultPlan
from repro.obs import read_events, validate_run_file
from repro.parallel import (
    ExperimentTask,
    ParallelExecutionError,
    live_segments,
    run_tasks,
)

SMALL = dict(num_users=60, num_items_per_domain=30, reviews_per_user_mean=4.0)
TINY_CONFIG = OmniMatchConfig(epochs=2, patience=1)


def small_task(index, method="item-mean", **kwargs):
    defaults = dict(
        index=index, method=method, dataset_name="amazon", source="books",
        target="movies", trials=1, trial_offset=0, seed=0, train_fraction=1.0,
        config=None, generator_overrides=tuple(sorted(SMALL.items())),
        emit_summary=True,
    )
    defaults.update(kwargs)
    return ExperimentTask(**defaults)


class TestBitIdentity:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_parallel_matches_serial_for_every_method(self, method):
        config = TINY_CONFIG if method == "OmniMatch" else None
        serial = run_experiment(
            method, "amazon", "books", "movies", trials=2, seed=0,
            config=config, **SMALL,
        )
        parallel = run_experiment(
            method, "amazon", "books", "movies", trials=2, seed=0,
            config=config, workers=2, **SMALL,
        )
        assert parallel.rmse_per_trial == serial.rmse_per_trial
        assert parallel.mae_per_trial == serial.mae_per_trial
        assert parallel.rmse == serial.rmse
        assert parallel.mae == serial.mae
        assert parallel.rmse_std == serial.rmse_std

    def test_inline_engine_matches_serial(self):
        serial = run_experiment(
            "OmniMatch", "amazon", "books", "movies", trials=2, seed=0,
            config=TINY_CONFIG, **SMALL,
        )
        inline = run_table(
            ["OmniMatch"], "amazon", scenarios=[("books", "movies")],
            trials=2, seed=0, config=TINY_CONFIG, workers=0, **SMALL,
        )[0]
        assert inline.rmse_per_trial == serial.rmse_per_trial
        assert inline.mae_per_trial == serial.mae_per_trial

    def test_table_cells_ordered_and_identical(self):
        methods = ["item-mean", "global-mean"]
        scenarios = [("books", "movies"), ("movies", "books")]
        inline = run_table(
            methods, "amazon", scenarios=scenarios, trials=1, seed=0,
            workers=0, **SMALL,
        )
        parallel = run_table(
            methods, "amazon", scenarios=scenarios, trials=1, seed=0,
            workers=2, **SMALL,
        )
        assert [(r.method, r.scenario) for r in inline] == [
            (method, f"{source} -> {target}")
            for source, target in scenarios for method in methods
        ]
        assert [(r.rmse, r.mae) for r in parallel] == [
            (r.rmse, r.mae) for r in inline
        ]


class TestSupervision:
    def test_worker_death_requeues_deterministically(self, tmp_path):
        tasks = [small_task(i) for i in range(4)]
        clean = run_tasks(tasks, workers=2)
        # Both slots' first generation dies on its first cell.
        chaotic = run_tasks(
            tasks, workers=2, telemetry_dir=tmp_path,
            fault_plan=WorkerFaultPlan([(0, 0, 0), (1, 0, 0)]),
        )
        assert [(r.rmse, r.mae) for r in chaotic] == [
            (r.rmse, r.mae) for r in clean
        ]
        # Replacement workers write generation-suffixed shards.
        shards = sorted(p.name for p in tmp_path.glob("run-*.jsonl"))
        assert any("g1" in name for name in shards)

    def test_retries_exhausted_raises(self):
        plan = WorkerFaultPlan([(0, 0, 0), (0, 1, 0)])
        with pytest.raises(ParallelExecutionError, match="giving up"):
            run_tasks([small_task(0)], workers=2, max_task_retries=1, fault_plan=plan)

    def test_task_exception_propagates_without_retry(self):
        with pytest.raises(ParallelExecutionError, match="not retried"):
            run_tasks([small_task(0, method="no-such-method")], workers=2)

    def test_duplicate_task_indexes_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_tasks([small_task(0), small_task(0)], workers=0)


class TestTelemetry:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_table_emits_one_task_event_per_cell(self, tmp_path, workers):
        methods = ["item-mean", "global-mean"]
        scenarios = [("books", "movies"), ("movies", "books")]
        run_table(
            methods, "amazon", scenarios=scenarios, trials=1, seed=0,
            workers=workers, telemetry_dir=tmp_path, **SMALL,
        )
        stats = validate_run_file(tmp_path / "run.jsonl")
        tasks = [
            e for e in read_events(tmp_path / "run.jsonl") if e["kind"] == "task"
        ]
        assert sorted((e["method"], e["scenario"]) for e in tasks) == sorted(
            (method, f"{source} -> {target}")
            for source, target in scenarios for method in methods
        )
        assert all(e["status"] == "ok" for e in tasks)
        assert stats["kinds"]["worker_end"] == max(workers, 1)


class TestCleanup:
    def test_no_leaked_segments_after_success(self):
        run_tasks([small_task(0)], workers=2)
        assert live_segments() == frozenset()

    def test_no_leaked_segments_after_failure(self):
        with pytest.raises(ParallelExecutionError):
            run_tasks([small_task(0, method="no-such-method")], workers=2)
        assert live_segments() == frozenset()

    def test_no_leaked_segments_after_worker_deaths(self):
        plan = WorkerFaultPlan([(0, 0, 0), (0, 1, 0)])
        with pytest.raises(ParallelExecutionError):
            run_tasks([small_task(0)], workers=2, max_task_retries=1, fault_plan=plan)
        assert live_segments() == frozenset()
