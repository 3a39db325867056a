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
from repro.obs.schema import RETIRED_KINDS, translate_events


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
        assert summary["spans"]["trainer"]["epoch/forward"] == {
            "calls": 6, "seconds": 0.6, "exclusive_seconds": 0.6,
        }
        assert summary["health"] == {"checkpoint": 1}
        assert summary["checkpoints"] == 1
        assert summary["final"]["epoch"] == 2
        assert summary["metrics"]["trainer"]["counters"]["batches"] == 6

    def write_alloc_run(self, directory):
        # An older run file: its alloc blocks still carry the arena and
        # fusion counters that training no longer emits.
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
        assert "arena" not in text
        assert "fused" not in text
        assert "peak 8.0 KiB/step" in text

    def test_old_alloc_run_still_validates(self, tmp_path):
        stats = validate_run_file(self.write_alloc_run(tmp_path))
        assert stats["kinds"]["epoch"] == 2

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
        summary = summarize_run(load_run_events(path))
        build, probe = summary["spans"]["serve.ann"].values()
        assert build["calls"] == 1
        assert build["store_bytes"] == 256_000
        assert probe["calls"] == 2
        assert probe["candidates"] == 250
        assert probe["catalog"] == 2000
        assert probe["p50"] == pytest.approx(0.002)
        gauges = summary["metrics"]["serve.ann"]["gauges"]
        assert gauges == {"recall": 0.95, "k": 10, "users": 2, "nprobe": 4}

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
        assert "serve.ann  build " in text
        assert "float32_bytes=1024000  items=1000  store_bytes=256000" in text
        assert "candidates=250  catalog=2000" in text
        assert "metrics: serve.ann" in text
        assert "k=10  nprobe=4  recall=0.95  users=2" in text


#: Values for required fields of retired kinds whose type matters to a
#: reader; every other field gets 1.
FIELD_VALUES = {
    "spans": {"epoch": {"calls": 2, "inclusive_seconds": 1.0,
                        "exclusive_seconds": 0.4}},
    "totals": {"epoch": 1.0},
    "counters": {"batches": 6},
    "gauges": {"lr": 1.0},
    "histograms": {},
    "store": "int8",
    "user": "U1",
    "status": "ok",
    "recall": 0.9,
}


class TestVocabulary:
    def test_emitted_vocabulary_is_25_kinds(self):
        assert set(EVENT_FIELDS).isdisjoint(RETIRED_KINDS)
        assert len(set(EVENT_FIELDS) | {"serve_ann_build"}) == 25

    @pytest.mark.parametrize("kind", sorted(RETIRED_KINDS))
    def test_retired_kind_validates_and_renders(self, kind, tmp_path):
        with TelemetrySink(tmp_path, run_id="old") as sink:
            sink.emit(kind, **{
                name: FIELD_VALUES.get(name, 1)
                for name in RETIRED_KINDS[kind].fields
            })
        assert validate_run_file(tmp_path / "run.jsonl")["kinds"] == {kind: 1}
        events = load_run_events(tmp_path)
        for event in translate_events(events):
            validate_event(event)  # each reads as today's vocabulary
        assert "old" in render_report(events)

    # (old kind, old fields, new span name, count fields) per engine call
    CALLS = [
        ("serve_index", dict(items=40, catalog=40, seconds=0.02), "index"),
        ("serve_encode_users", dict(users=3, seconds=0.004), "encode_users"),
        ("serve_score", dict(pairs=12, seconds=0.003, cache_hits=9,
                             cache_misses=3), "score"),
        ("serve_score", dict(pairs=12, seconds=0.001, cache_hits=12,
                             cache_misses=0), "score"),
        ("serve_recommend", dict(user="U1", k=3, catalog=40, seconds=0.005,
                                 retrieval="exact"), "recommend"),
    ]
    LABELS = ("user", "k", "retrieval")

    def test_old_and_new_shapes_summarize_alike(self, tmp_path):
        with TelemetrySink(tmp_path / "old", run_id="r") as sink:
            for kind, fields, _ in self.CALLS:
                sink.emit(kind, **fields)
        with TelemetrySink(tmp_path / "new", run_id="r") as sink:
            for _, fields, name in self.CALLS:
                sink.emit("span", component="serve.engine", name=name, **{
                    key: value for key, value in fields.items()
                    if key not in self.LABELS
                })
        old, new = (
            summarize_run(load_run_events(tmp_path / shape))["spans"]
            for shape in ("old", "new")
        )
        assert old == new
        assert new["serve.engine"]["score"]["pairs"] == 24

    @pytest.mark.parametrize("shape", ["old", "new"])
    def test_score_latency_excludes_recommend(self, shape, tmp_path):
        """A 1 ms score and a 100 ms recommend: the score row's p50 is the
        score's alone (the per-feature summary once pooled both)."""
        with TelemetrySink(tmp_path, run_id="latency") as sink:
            if shape == "old":
                sink.emit("serve_score", pairs=10, seconds=0.001,
                          cache_hits=0, cache_misses=1)
                sink.emit("serve_recommend", user="U1", k=3, catalog=1000,
                          seconds=0.1)
            else:
                sink.emit("span", component="serve.engine", name="score",
                          seconds=0.001, pairs=10, cache_hits=0, cache_misses=1)
                sink.emit("span", component="serve.engine", name="recommend",
                          seconds=0.1, catalog=1000)
        events = load_run_events(tmp_path)
        engine = summarize_run(events)["spans"]["serve.engine"]
        assert engine["score"]["p50"] == pytest.approx(0.001)
        assert engine["recommend"]["p50"] == pytest.approx(0.1)
        assert "p50 1.0ms" in render_report(events)

    def test_multi_call_span_has_no_percentiles(self, tmp_path):
        with TelemetrySink(tmp_path, run_id="calls") as sink:
            sink.emit("span", component="c", name="n", seconds=0.5, calls=5)
            sink.emit("span", component="c", name="n", seconds=0.1)
        row = summarize_run(load_run_events(tmp_path))["spans"]["c"]["n"]
        assert row == {"calls": 6, "seconds": pytest.approx(0.6)}

    def test_latest_metrics_snapshot_wins(self, tmp_path):
        with TelemetrySink(tmp_path, run_id="m") as sink:
            for received in (3, 7):
                sink.emit("metrics", component="daemon",
                          counters={"received": received}, gauges={},
                          histograms={})
            sink.emit("daemon_stats", received=9, completed=9, shed=0,
                      timeouts=0, errors=0, depth=0, level=0)
            sink.emit("metrics", component="trainer", counters={"batches": 2},
                      gauges={}, histograms={})
        metrics = summarize_run(load_run_events(tmp_path))["metrics"]
        assert metrics["daemon"]["counters"]["received"] == 9
        assert metrics["trainer"]["counters"] == {"batches": 2}
