"""Serving telemetry: span events, schema validation, report rendering."""

from repro.core import OmniMatchTrainer
from repro.obs import (
    EVENT_FIELDS,
    TelemetrySink,
    load_run_events,
    render_report,
    summarize_run,
    use_sink,
    validate_run_file,
)
from repro.serve import DaemonConfig, InferenceEngine, RecommendDaemon, ServeClient

from .helpers import tiny_config


def spans(path, name=None):
    return [
        e for e in load_run_events(path)
        if e["kind"] == "span" and name in (None, e["name"])
    ]


def exercise_engine(engine, world, test_pairs):
    dataset, split = world
    engine.warm(split.test_users[:3])
    engine.score_pairs(test_pairs)
    engine.score_pairs(test_pairs)  # second pass: pure cache hits
    engine.recommend(split.test_users[0], k=3)


class TestEventEmission:
    def test_explicit_sink_receives_serve_events(
        self, trained, world, test_pairs, tmp_path
    ):
        with TelemetrySink(tmp_path, run_id="serve-x") as sink:
            engine = InferenceEngine(trained, batch_size=32, telemetry=sink)
            exercise_engine(engine, world, test_pairs)
        names = [e["name"] for e in spans(tmp_path)]
        assert names.count("encode_users") == 1
        assert names.count("score") == 2
        assert names.count("recommend") == 1
        assert names.count("index") == 1  # catalog built once
        assert {e["component"] for e in spans(tmp_path)} == {"serve.engine"}

    def test_ambient_sink_used_when_no_explicit_one(
        self, trained, test_pairs, tmp_path
    ):
        with TelemetrySink(tmp_path, run_id="serve-ambient") as sink:
            with use_sink(sink):
                InferenceEngine(trained, batch_size=32).score_pairs(
                    test_pairs[:4]
                )
        assert [e["name"] for e in spans(tmp_path)] == ["score"]

    def test_no_sink_is_silent(self, trained, test_pairs):
        engine = InferenceEngine(trained, batch_size=32)
        engine.score_pairs(test_pairs[:4])  # must not raise

    def test_events_validate_against_schema(
        self, trained, world, test_pairs, tmp_path
    ):
        with TelemetrySink(tmp_path, run_id="serve-schema") as sink:
            engine = InferenceEngine(trained, batch_size=32, telemetry=sink)
            exercise_engine(engine, world, test_pairs)
        stats = validate_run_file(tmp_path / "run.jsonl")
        assert stats["events"] >= 5
        assert stats["kinds"]["span"] == 5

    def test_score_event_reports_call_local_cache_deltas(
        self, trained, test_pairs, tmp_path
    ):
        with TelemetrySink(tmp_path, run_id="serve-deltas") as sink:
            engine = InferenceEngine(trained, batch_size=32, telemetry=sink)
            engine.score_pairs(test_pairs)
            engine.score_pairs(test_pairs)
        first, second = spans(tmp_path, "score")
        unique_users = len({u for u, _ in test_pairs})
        assert first["cache_misses"] == unique_users
        assert second["cache_misses"] == 0
        assert second["cache_hits"] == len(test_pairs)


class TestReport:
    def test_summarize_run_aggregates_serving(
        self, trained, world, test_pairs, tmp_path
    ):
        with TelemetrySink(tmp_path, run_id="serve-summary") as sink:
            engine = InferenceEngine(trained, batch_size=32, telemetry=sink)
            exercise_engine(engine, world, test_pairs)
        serving = summarize_run(load_run_events(tmp_path))["spans"]["serve.engine"]
        score = serving["score"]
        assert score["calls"] == 2
        assert score["pairs"] == 2 * len(test_pairs)
        assert serving["recommend"]["calls"] == 1
        assert serving["index"]["items"] > 0
        assert score["cache_hits"] > 0
        assert score["p95"] >= score["p50"] > 0.0

    def test_render_report_has_serving_section(
        self, trained, world, test_pairs, tmp_path
    ):
        with TelemetrySink(tmp_path, run_id="serve-render") as sink:
            engine = InferenceEngine(trained, batch_size=32, telemetry=sink)
            exercise_engine(engine, world, test_pairs)
        text = render_report(load_run_events(tmp_path))
        assert "serve.engine  score " in text
        assert "cache_hits=" in text
        assert "pairs=" in text

    def test_report_without_serve_events_omits_section(self, tmp_path):
        with TelemetrySink(tmp_path, run_id="no-serve") as sink:
            sink.emit(
                "experiment",
                method="omnimatch", scenario="s", rmse=1.0, mae=0.8, trials=1,
            )
        text = render_report(load_run_events(tmp_path))
        assert "serve.engine" not in text


class TestEmittedVocabulary:
    """Live code writes only today's kinds: ``span``/``metrics`` for
    measurements, plus ``serve_ann_build``, which keeps its name for
    perfbench's trace reader."""

    ALLOWED = set(EVENT_FIELDS) | {"serve_ann_build"}

    def kinds(self, path):
        kinds = {e["kind"] for e in load_run_events(path)}
        assert kinds <= self.ALLOWED, kinds - self.ALLOWED
        return kinds

    def test_traced_fit(self, world, tmp_path):
        dataset, split = world
        with TelemetrySink(tmp_path, run_id="fit") as sink:
            OmniMatchTrainer(
                dataset, split, tiny_config(epochs=1), telemetry=sink
            ).fit()
        assert {"span", "metrics", "run_end"} <= self.kinds(tmp_path)

    def test_ivf_recommend(self, trained, world, tmp_path):
        _, split = world
        with TelemetrySink(tmp_path, run_id="ivf") as sink:
            engine = InferenceEngine(trained, retrieval="ivf", nlist=4,
                                     nprobe=2, telemetry=sink)
            engine.recommend(split.test_users[0], k=3)
            engine.measure_recall(split.test_users[:2], k=3)
        assert {"span", "metrics", "serve_ann_build"} <= self.kinds(tmp_path)

    def test_daemon_run(self, trained, world, test_pairs, tmp_path):
        _, split = world
        config = DaemonConfig(workers=1, nlist=4, nprobe=2,
                              telemetry_dir=str(tmp_path))
        with RecommendDaemon(trained, config) as daemon:
            assert daemon.wait_ready(timeout=60)
            with ServeClient(daemon.config.host, daemon.port) as client:
                for retrieval in ("exact", "ivf"):
                    response = client.recommend(
                        split.test_users[0], k=3, retrieval=retrieval
                    )
                    assert response["status"] == "ok"
                assert client.score(test_pairs[:4])["status"] == "ok"
        kinds = self.kinds(tmp_path / "run.jsonl")
        assert {"daemon_start", "metrics", "span", "worker_end"} <= kinds
