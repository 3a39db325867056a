"""Integration tests: the trainer and eval protocol stream valid telemetry."""

import json

import pytest

from repro.core import OmniMatchConfig, OmniMatchTrainer
from repro.data import GeneratorConfig, cold_start_split, generate_domain_pair
from repro.eval import run_experiment
from repro.faults import NonFiniteLossInjector
from repro.obs import (
    TelemetrySink,
    read_events,
    render_report,
    validate_run_file,
)


@pytest.fixture(scope="module")
def world():
    dataset = generate_domain_pair(
        "books", "movies",
        GeneratorConfig(num_users=60, num_items_per_domain=30,
                        reviews_per_user_mean=4.0, seed=11),
    )
    return dataset, cold_start_split(dataset, seed=2)


def tiny_config(**overrides):
    base = dict(embed_dim=12, num_filters=3, kernel_sizes=(2,), invariant_dim=8,
                specific_dim=8, projection_dim=6, doc_len=16, vocab_size=200,
                epochs=2, batch_size=32, early_stopping=False, seed=5)
    base.update(overrides)
    return OmniMatchConfig(**base)


@pytest.fixture(scope="module")
def traced_run(world, tmp_path_factory):
    dataset, split = world
    directory = tmp_path_factory.mktemp("telemetry")
    sink = TelemetrySink(directory, run_id="itest")
    trainer = OmniMatchTrainer(dataset, split, tiny_config(), telemetry=sink)
    trainer.fit(2, validate_every=1,
                checkpoint_every=1, checkpoint_dir=directory / "ckpt")
    sink.close()
    return trainer, directory / "run.jsonl"


class TestTrainedRunStream:
    def test_schema_valid(self, traced_run):
        _, path = traced_run
        stats = validate_run_file(path)
        assert stats["runs"] == 1
        for kind in ("run_start", "batch", "epoch", "span", "metrics",
                     "run_end", "checkpoint_write", "health"):
            assert kind in stats["kinds"], kind

    def test_trainer_spans_are_the_tracer_summary(self, traced_run):
        trainer, path = traced_run
        events = read_events(path)
        spans = {
            e["name"]: {"calls": e["calls"], "inclusive_seconds": e["seconds"],
                        "exclusive_seconds": e["exclusive_seconds"]}
            for e in events if e["kind"] == "span" and e["component"] == "trainer"
        }
        assert spans == trainer.tracer.summary()
        assert {"batch_assembly", "forward", "backward", "optimizer",
                "validation"} <= {path.rsplit("/", 1)[-1] for path in spans}
        [run_start] = [e for e in events if e["kind"] == "run_start"]
        assert "legacy_path" not in run_start

    def test_batch_events_carry_training_signal(self, traced_run):
        _, path = traced_run
        batches = [e for e in read_events(path) if e["kind"] == "batch"]
        assert batches
        for event in batches:
            assert event["loss"] > 0
            assert event["grad_norm"] >= 0
            assert event["lr"] > 0
            assert event["samples"] > 0

    def test_epoch_events_carry_throughput_and_rng(self, traced_run):
        _, path = traced_run
        epochs = [e for e in read_events(path) if e["kind"] == "epoch"]
        assert len(epochs) == 2
        for event in epochs:
            assert event["samples_per_sec"] > 0
            assert len(event["rng"]) == 16
        # The RNG stream advances between epochs.
        assert epochs[0]["rng"] != epochs[1]["rng"]

    def test_run_end_reports_completion(self, traced_run):
        _, path = traced_run
        [run_end] = [e for e in read_events(path) if e["kind"] == "run_end"]
        assert run_end["status"] == "completed"
        assert run_end["epochs_trained"] == 2

    def test_metrics_summary_counts_all_batches(self, traced_run):
        _, path = traced_run
        events = read_events(path)
        [summary] = [e for e in events if e["kind"] == "metrics"]
        assert summary["component"] == "trainer"
        batches = [e for e in events if e["kind"] == "batch"]
        assert summary["counters"]["batches"] == len(batches)
        assert summary["histograms"]["batch_loss"]["count"] == len(batches)
        assert "rng_checksum" in summary["gauges"]

    def test_report_renders(self, traced_run):
        _, path = traced_run
        text = render_report(read_events(path))
        assert "status: completed" in text
        assert "spans (calls, seconds" in text
        assert "epoch/forward" in text
        assert "metrics: trainer" in text

    def test_events_are_plain_json(self, traced_run):
        _, path = traced_run
        for line in path.read_text().splitlines():
            json.loads(line)


class TestHealthFolding:
    def test_injected_fault_appears_in_stream(self, world, tmp_path):
        dataset, split = world
        sink = TelemetrySink(tmp_path, run_id="faulty")
        trainer = OmniMatchTrainer(dataset, split, tiny_config(), telemetry=sink)
        trainer.fit(2, fault_injector=NonFiniteLossInjector(epoch=1, batch=0))
        sink.close()
        events = read_events(tmp_path / "run.jsonl")
        health_kinds = {e["health_kind"] for e in events if e["kind"] == "health"}
        assert "nonfinite_loss" in health_kinds
        assert "rollback" in health_kinds
        # The same recovery is also counted in the metrics summary.
        [summary] = [e for e in events if e["kind"] == "metrics"]
        assert summary["counters"]["health.nonfinite_loss"] >= 1
        validate_run_file(tmp_path / "run.jsonl")

    def test_run_without_sink_emits_nothing_and_still_trains(self, world):
        dataset, split = world
        trainer = OmniMatchTrainer(dataset, split, tiny_config())
        result = trainer.fit(1)
        assert len(result.history) == 1
        # Tracer and metrics still record locally even without a sink.
        assert trainer.tracer.totals()
        assert trainer.metrics.counter("batches") > 0


class TestEvalTelemetry:
    def test_trials_and_experiment_events(self, world, tmp_path):
        dataset, _ = world
        sink = TelemetrySink(tmp_path, run_id="eval")
        result = run_experiment(
            "global-mean", "amazon", "books", "movies",
            trials=2, dataset=dataset, telemetry=sink,
        )
        sink.close()
        events = read_events(tmp_path / "run.jsonl")
        trials = [e for e in events if e["kind"] == "trial"]
        assert [e["trial"] for e in trials] == [0, 1]
        assert [e["seed"] for e in trials] == [0, 1]
        assert trials[0]["rmse"] == pytest.approx(result.rmse_per_trial[0])
        [experiment] = [e for e in events if e["kind"] == "experiment"]
        assert experiment["rmse"] == pytest.approx(result.rmse)
        assert experiment["trials"] == 2
        assert experiment["rmse_std"] == pytest.approx(result.rmse_std)
        assert experiment["mae_std"] == pytest.approx(result.mae_std)
        assert experiment["wall_seconds"] == pytest.approx(result.wall_seconds)
        assert trials[0]["wall_seconds"] >= trials[0]["fit_seconds"]
        validate_run_file(tmp_path / "run.jsonl")

    def test_no_sink_protocol_still_works(self, world):
        dataset, _ = world
        result = run_experiment(
            "global-mean", "amazon", "books", "movies",
            trials=1, dataset=dataset,
        )
        assert result.trials == 1


class TestCheckpointEvents:
    def test_write_read_prune_emit_events(self, world, tmp_path):
        from repro.core import read_training_checkpoint
        from repro.core.checkpoint import prune_checkpoints
        from repro.obs import use_sink

        dataset, split = world
        run_dir = tmp_path / "run"
        trainer = OmniMatchTrainer(dataset, split, tiny_config())
        trainer.fit(3, checkpoint_every=1, checkpoint_dir=run_dir, keep_last=2)

        sink = TelemetrySink(tmp_path / "obs", run_id="ckpt-test")
        with use_sink(sink):
            checkpoint = read_training_checkpoint(run_dir / "epoch-0003")
            prune_checkpoints(run_dir, keep_last=1)
        sink.close()
        assert checkpoint.epoch == 3
        events = read_events(sink.path)
        [read] = [e for e in events if e["kind"] == "checkpoint_read"]
        assert read["epoch"] == 3
        [prune] = [e for e in events if e["kind"] == "checkpoint_prune"]
        assert len(prune["removed"]) == 1

    def test_traced_fit_emits_prune_events(self, world, tmp_path):
        dataset, split = world
        sink = TelemetrySink(tmp_path / "obs", run_id="prune-test")
        trainer = OmniMatchTrainer(dataset, split, tiny_config(), telemetry=sink)
        trainer.fit(3, checkpoint_every=1, checkpoint_dir=tmp_path / "run",
                    keep_last=1)
        sink.close()
        events = read_events(sink.path)
        writes = [e for e in events if e["kind"] == "checkpoint_write"]
        prunes = [e for e in events if e["kind"] == "checkpoint_prune"]
        assert len(writes) == 3
        assert prunes, "keep_last=1 over 3 epochs must prune"
        validate_run_file(sink.path)
