"""Unit tests for the telemetry schema and run-report rendering."""

import pytest

from repro.obs import (
    EVENT_FIELDS,
    TelemetrySchemaError,
    TelemetrySink,
    load_run_events,
    render_report,
    summarize_run,
    validate_event,
    validate_run_file,
)


def make_event(kind="health", **overrides):
    event = {"seq": 0, "ts": 1.0, "run": "r1", "kind": kind}
    event.update({name: 0 for name in EVENT_FIELDS.get(kind, ())})
    event.update(overrides)
    return event


class TestValidateEvent:
    def test_valid_event_passes(self):
        event = make_event("run_end", status="completed", epochs_trained=2)
        assert validate_event(event) is event

    def test_non_dict_rejected(self):
        with pytest.raises(TelemetrySchemaError, match="not a JSON object"):
            validate_event([1, 2, 3])

    @pytest.mark.parametrize("missing", ["seq", "ts", "run", "kind"])
    def test_missing_base_field_rejected(self, missing):
        event = make_event()
        del event[missing]
        with pytest.raises(TelemetrySchemaError, match=missing):
            validate_event(event)

    def test_bool_seq_rejected(self):
        with pytest.raises(TelemetrySchemaError, match="seq must be an integer"):
            validate_event(make_event(seq=True))

    def test_negative_seq_rejected(self):
        with pytest.raises(TelemetrySchemaError, match="non-negative"):
            validate_event(make_event(seq=-1))

    def test_empty_run_rejected(self):
        with pytest.raises(TelemetrySchemaError, match="run must be"):
            validate_event(make_event(run=""))

    def test_unknown_kind_rejected(self):
        with pytest.raises(TelemetrySchemaError, match="unknown event kind"):
            validate_event(make_event("made_up_kind"))

    def test_missing_required_payload_field_rejected(self):
        event = make_event("batch")
        del event["loss"]
        with pytest.raises(TelemetrySchemaError, match="loss"):
            validate_event(event)

    def test_extra_fields_allowed(self):
        event = make_event("health", extra_annotation="fine")
        validate_event(event)


class TestValidateRunFile:
    def test_valid_file(self, tmp_path):
        with TelemetrySink(tmp_path, run_id="r1") as sink:
            sink.emit("run_start", seed=0, epochs=2, train_interactions=10)
            sink.emit("run_end", status="completed", epochs_trained=2)
        stats = validate_run_file(tmp_path / "run.jsonl")
        assert stats["events"] == 2
        assert stats["runs"] == 1
        assert stats["kinds"] == {"run_start": 1, "run_end": 1}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("")
        with pytest.raises(TelemetrySchemaError, match="no telemetry events"):
            validate_run_file(path)

    def test_non_increasing_seq_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            '{"seq": 1, "ts": 1.0, "run": "r1", "kind": "health", '
            '"epoch": 0, "health_kind": "x"}',
            '{"seq": 1, "ts": 2.0, "run": "r1", "kind": "health", '
            '"epoch": 0, "health_kind": "x"}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TelemetrySchemaError, match="not increasing"):
            validate_run_file(path)

    def test_interleaved_runs_each_monotone(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            '{"seq": 0, "ts": 1.0, "run": "a", "kind": "health", '
            '"epoch": 0, "health_kind": "x"}',
            '{"seq": 0, "ts": 1.0, "run": "b", "kind": "health", '
            '"epoch": 0, "health_kind": "x"}',
            '{"seq": 1, "ts": 2.0, "run": "a", "kind": "health", '
            '"epoch": 1, "health_kind": "x"}',
        ]
        path.write_text("\n".join(lines) + "\n")
        stats = validate_run_file(path)
        assert stats["runs"] == 2

    def test_schema_violation_names_position(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"seq": 0, "ts": 1.0, "run": "r", "kind": "nope"}\n')
        with pytest.raises(TelemetrySchemaError, match="event 0"):
            validate_run_file(path)


class TestReport:
    def write_run(self, directory):
        with TelemetrySink(directory, run_id="report-test") as sink:
            sink.emit("run_start", seed=0, epochs=2, train_interactions=100)
            for epoch in (1, 2):
                sink.emit(
                    "epoch", epoch=epoch, seconds=0.5, samples=100,
                    samples_per_sec=200.0, total=2.0 / epoch,
                    valid_rmse=1.5 / epoch, rng="cafe0123",
                )
            sink.emit("health", epoch=1, health_kind="checkpoint")
            sink.emit("checkpoint_write", path="ckpt/epoch-0001", epoch=1)
            sink.emit(
                "span_summary",
                totals={"epoch": 1.0, "forward": 0.6},
                spans={
                    "epoch": {"calls": 2, "inclusive_seconds": 1.0,
                              "exclusive_seconds": 0.4},
                    "epoch/forward": {"calls": 6, "inclusive_seconds": 0.6,
                                      "exclusive_seconds": 0.6},
                },
            )
            sink.emit("metrics_summary", counters={"batches": 6},
                      gauges={"lr": 1.0}, histograms={})
            sink.emit("run_end", status="completed", epochs_trained=2)
        return directory / "run.jsonl"

    def test_summarize_run(self, tmp_path):
        events = load_run_events(self.write_run(tmp_path))
        summary = summarize_run(events)
        assert summary["run"] == "report-test"
        assert summary["status"] == "completed"
        assert summary["epochs"] == 2
        assert summary["samples"] == 200
        assert summary["samples_per_sec"] == pytest.approx(200.0)
        assert summary["phases"]["forward"] == pytest.approx(0.6)
        assert summary["health"] == {"checkpoint": 1}
        assert summary["checkpoints"] == 1
        assert summary["final"]["epoch"] == 2
        assert summary["metrics"]["counters"]["batches"] == 6

    def write_alloc_run(self, directory):
        with TelemetrySink(directory, run_id="alloc-test") as sink:
            sink.emit("run_start", seed=0, epochs=2, train_interactions=100)
            for epoch in (1, 2):
                sink.emit(
                    "epoch", epoch=epoch, seconds=0.5, samples=100,
                    samples_per_sec=200.0, total=2.0 / epoch,
                    alloc={
                        "graph_bytes": 1024, "backward_bytes": 512,
                        "peak_bytes": 4096 * epoch, "arena_hits": 30,
                        "arena_misses": 10, "fused_ops": 5,
                    },
                )
            sink.emit("run_end", status="completed", epochs_trained=2)
        return directory / "run.jsonl"

    def test_summarize_alloc_counters(self, tmp_path):
        summary = summarize_run(load_run_events(self.write_alloc_run(tmp_path)))
        alloc = summary["alloc"]
        assert alloc["graph_bytes"] == 2048  # summed across epochs
        assert alloc["arena_hits"] == 60
        assert alloc["peak_bytes"] == 8192  # high-water mark, not a sum
        assert alloc["fused_ops"] == 10

    def test_render_report_allocation_line(self, tmp_path):
        text = render_report(load_run_events(self.write_alloc_run(tmp_path)))
        assert "allocation:" in text
        assert "arena 75.0% hit (60/80)" in text
        assert "fused 10 ops" in text
        assert "peak 8.0 KiB/step" in text

    def test_no_allocation_line_without_alloc_events(self, tmp_path):
        text = render_report(load_run_events(self.write_run(tmp_path)))
        assert "allocation:" not in text

    def test_render_report_mentions_key_facts(self, tmp_path):
        events = load_run_events(self.write_run(tmp_path))
        text = render_report(events)
        assert "report-test" in text
        assert "completed" in text
        assert "forward" in text
        assert "checkpoint" in text
        assert "rng cafe0123" in text

    def test_load_run_events_accepts_directory(self, tmp_path):
        self.write_run(tmp_path)
        assert len(load_run_events(tmp_path)) == 8

    def test_load_run_events_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_events(tmp_path / "nope.jsonl")

    def test_render_report_on_eval_only_stream(self, tmp_path):
        with TelemetrySink(tmp_path, run_id="eval-only") as sink:
            sink.emit("trial", method="m", trial=0, seed=0, rmse=1.0, mae=0.8)
        text = render_report(load_run_events(tmp_path))
        assert "eval-only" in text
        assert "trial 0" in text

    def write_ann_run(self, directory):
        with TelemetrySink(directory, run_id="ann-test") as sink:
            sink.emit("serve_ann_build", items=1000, nlist=32, iters=5,
                      store="int8", seconds=0.4, store_bytes=256_000,
                      float32_bytes=1_024_000)
            for user in ("U1", "U2"):
                sink.emit("serve_ann_probe", user=user, k=10, nprobe=4,
                          nlist=32, candidates=125, catalog=1000,
                          seconds=0.002)
            sink.emit("serve_ann_recall", users=2, k=10, recall=0.95,
                      nprobe=4)
        return directory / "run.jsonl"

    def test_summarize_ann_events(self, tmp_path):
        path = self.write_ann_run(tmp_path)
        validate_run_file(path)
        ann = summarize_run(load_run_events(path))["ann"]
        assert ann["builds"] == 1
        assert ann["nlist"] == 32
        assert ann["store"] == "int8"
        assert ann["probes"] == 2
        assert ann["candidates"] == 250
        assert ann["scan_fraction"] == pytest.approx(0.125)
        assert ann["probe_p50"] == pytest.approx(0.002)
        assert ann["recall"] == pytest.approx(0.95)

    def test_summarize_worker_death_counts_stalls_and_requeues(self, tmp_path):
        with TelemetrySink(tmp_path, run_id="serve") as sink:
            sink.emit("daemon_start", workers=2, catalog=10, port=1)
            sink.emit("worker_death", worker=0, generation=0, exitcode=-9,
                      requeued=2, stalled=True)
            sink.emit("worker_death", worker=1, generation=0, exitcode=117,
                      requeued=1, stalled=False)
        validate_run_file(tmp_path / "run.jsonl")
        daemon = summarize_run(load_run_events(tmp_path / "run.jsonl"))["daemon"]
        assert (daemon["deaths"], daemon["requeues"], daemon["stall_kills"]) == (2, 3, 1)

    def test_render_report_ann_section(self, tmp_path):
        text = render_report(load_run_events(self.write_ann_run(tmp_path)))
        assert "ann retrieval (1 index builds, 2 probes)" in text
        assert "nlist 32" in text
        assert "4.0x vs float32" in text
        assert "12.5% scanned" in text
        assert "recall@10: 0.950" in text
