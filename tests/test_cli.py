"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "amazon"
        assert args.source == "books"
        assert args.target == "movies"
        assert args.trials == 1

    def test_invalid_domain_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--source", "gardening"])

    def test_train_checkpoint_flag(self):
        args = build_parser().parse_args(["train", "--checkpoint", "/tmp/x"])
        assert args.checkpoint == "/tmp/x"

    def test_train_fault_tolerance_flags(self):
        args = build_parser().parse_args([
            "train", "--checkpoint", "/tmp/x", "--checkpoint-every", "2",
            "--keep-last", "5", "--resume", "/tmp/x/epoch-0004",
        ])
        assert args.checkpoint_every == 2
        assert args.keep_last == 5
        assert args.resume == "/tmp/x/epoch-0004"

    def test_train_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.checkpoint_every == 0
        assert args.keep_last == 3
        assert args.resume is None

    def test_checkpoint_every_requires_checkpoint_dir(self):
        from repro.cli import _cmd_train

        args = build_parser().parse_args(["train", "--checkpoint-every", "2"])
        with pytest.raises(SystemExit, match="requires --checkpoint"):
            _cmd_train(args)

    def test_train_telemetry_flag(self):
        args = build_parser().parse_args(["train", "--telemetry", "/tmp/obs"])
        assert args.telemetry == "/tmp/obs"
        assert build_parser().parse_args(["train"]).telemetry is None

    def test_compare_workers_flag(self):
        args = build_parser().parse_args(["compare", "--workers", "2"])
        assert args.workers == 2
        assert build_parser().parse_args(["compare"]).workers == 0

    def test_experiment_parses(self):
        args = build_parser().parse_args([
            "experiment", "--method", "CMF", "--trials", "2",
            "--train-fraction", "0.5", "--workers", "2", "--telemetry", "/tmp/t",
        ])
        assert args.method == "CMF"
        assert args.trials == 2
        assert args.train_fraction == 0.5
        assert args.workers == 2
        assert args.telemetry == "/tmp/t"

    def test_experiment_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--method", "SVD++"])

    def test_recommend_parses(self):
        args = build_parser().parse_args([
            "recommend", "--user", "U0007", "--k", "5",
            "--epochs", "2", "--telemetry", "/tmp/serve",
        ])
        assert args.command == "recommend"
        assert args.user == "U0007"
        assert args.k == 5
        assert args.epochs == 2
        assert args.telemetry == "/tmp/serve"

    def test_recommend_defaults(self):
        args = build_parser().parse_args(["recommend"])
        assert args.user is None
        assert args.k == 10
        assert args.epochs == 8
        assert args.telemetry is None
        assert args.retrieval == "exact"
        assert args.nlist is None and args.nprobe is None
        assert args.ann_store == "float32"
        assert args.exclude_seen is False

    def test_recommend_parses_retrieval_flags(self):
        args = build_parser().parse_args([
            "recommend", "--retrieval", "ivf", "--nlist", "64",
            "--nprobe", "4", "--ann-store", "int8", "--exclude-seen",
        ])
        assert args.retrieval == "ivf"
        assert args.nlist == 64
        assert args.nprobe == 4
        assert args.ann_store == "int8"
        assert args.exclude_seen is True

    def test_recommend_rejects_unknown_retrieval(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--retrieval", "annoy"])

    def test_bench_parses(self):
        args = build_parser().parse_args([
            "bench", "--methods", "item-mean,CMF",
            "--scenarios", "books:movies,music:books", "--workers", "4",
        ])
        assert args.methods == "item-mean,CMF"
        assert args.scenarios == "books:movies,music:books"
        assert args.workers == 4

    def test_report_parses(self):
        args = build_parser().parse_args(["report", "/tmp/run.jsonl"])
        assert args.command == "report"
        assert args.path == "/tmp/run.jsonl"
        assert args.validate is False
        assert build_parser().parse_args(
            ["report", "x", "--validate"]
        ).validate is True


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "OmniMatch" in out
        assert "amazon" in out

    def test_generate_prints_card(self, capsys):
        assert main(["generate", "--source", "books", "--target", "movies"]) == 0
        out = capsys.readouterr().out
        assert "overlap_users" in out
        assert "books -> movies" in out

    def test_case_study_prints_trace(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "cold-start user" in out
        assert "borrowed" in out or "no like-minded" in out

    def test_report_renders_run_file(self, tmp_path, capsys):
        from repro.obs import TelemetrySink

        with TelemetrySink(tmp_path, run_id="cli-test") as sink:
            sink.emit("run_start", seed=0, epochs=1, train_interactions=10)
            sink.emit("epoch", epoch=1, seconds=0.1, samples=10,
                      samples_per_sec=100.0, total=1.0)
            sink.emit("run_end", status="completed", epochs_trained=1)
        assert main(["report", str(tmp_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert "cli-test" in out
        assert "completed" in out

    def test_report_validates_run_with_retired_fields(self, tmp_path, capsys):
        # A run.jsonl as earlier versions wrote it: run_start names
        # legacy_path, span_summary carries the flat perf totals, and a
        # recovered divergence logs a kernel_fallback health event.
        import json

        events = [
            dict(kind="run_start", seed=0, epochs=2, start_epoch=1,
                 train_interactions=10, batch_size=4, dtype="float32",
                 optimizer="adadelta", legacy_path=False, rng="cafe0123"),
            dict(kind="health", epoch=1, health_kind="nonfinite_grad",
                 batch=0, value=None, detail=""),
            dict(kind="health", epoch=1, health_kind="rollback", batch=0,
                 value=None, detail="restored start-of-epoch state"),
            dict(kind="health", epoch=1, health_kind="lr_backoff", batch=None,
                 value=0.5, detail="learning rate scaled by 0.5"),
            dict(kind="health", epoch=1, health_kind="kernel_fallback",
                 batch=None, value=None,
                 detail="retrying epoch on reference (non-fast-math) kernels"),
            dict(kind="epoch", epoch=1, seconds=0.1, samples=10,
                 samples_per_sec=100.0, total=1.0),
            dict(kind="span_summary", totals={"forward": 0.05},
                 spans={"epoch/forward": {"calls": 3, "inclusive_seconds": 0.05,
                                          "exclusive_seconds": 0.05}},
                 perf={"forward": 0.05}),
            dict(kind="metrics_summary", counters={}, gauges={}, histograms={}),
            dict(kind="run_end", status="completed", epochs_trained=1),
        ]
        lines = [
            json.dumps(dict(seq=seq, ts=1.0 + seq, run="old-run", **event))
            for seq, event in enumerate(events)
        ]
        (tmp_path / "run.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["report", str(tmp_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert "kernel_fallback" in out

    def test_report_missing_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["report", str(tmp_path / "nope.jsonl")])

    def test_experiment_runs_parallel_trials(self, tmp_path, capsys):
        telemetry = tmp_path / "obs"
        assert main([
            "experiment", "--method", "item-mean", "--trials", "2",
            "--workers", "2", "--telemetry", str(telemetry),
        ]) == 0
        out = capsys.readouterr().out
        assert "method=item-mean" in out
        assert "RMSE=" in out and "wall_s=" in out
        assert (telemetry / "run.jsonl").exists()

    def test_recommend_ranks_catalog(self, tmp_path, capsys):
        telemetry = tmp_path / "serve-obs"
        assert main([
            "recommend", "--epochs", "1", "--k", "3",
            "--telemetry", str(telemetry),
        ]) == 0
        out = capsys.readouterr().out
        assert "top-3 of" in out
        assert "expected rating" in out
        assert "cache:" in out
        assert (telemetry / "run.jsonl").exists()

    def test_recommend_ivf_with_exclusion(self, tmp_path, capsys):
        telemetry = tmp_path / "ann-obs"
        assert main([
            "recommend", "--epochs", "1", "--k", "3",
            "--retrieval", "ivf", "--nlist", "8", "--nprobe", "8",
            "--exclude-seen", "--telemetry", str(telemetry),
        ]) == 0
        out = capsys.readouterr().out
        assert "ivf retrieval" in out
        assert "ivf: nlist=8" in out
        from repro.obs import read_events
        from repro.obs.schema import validate_run_file

        census = validate_run_file(telemetry / "run.jsonl")
        assert census["kinds"].get("serve_ann_build") == 1
        assert any(
            (e.get("component"), e.get("name")) == ("serve.ann", "probe")
            for e in read_events(telemetry / "run.jsonl") if e["kind"] == "span"
        )

    def test_bench_prints_table(self, capsys):
        assert main([
            "bench", "--methods", "item-mean,global-mean",
            "--scenarios", "books:movies", "--trials", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "item-mean" in out and "global-mean" in out
        assert "wall_s" in out

    def test_bench_rejects_bad_scenario(self):
        with pytest.raises(SystemExit, match="source:target"):
            main(["bench", "--scenarios", "books-movies"])

    def test_bench_rejects_unknown_method(self):
        with pytest.raises(SystemExit, match="unknown method"):
            main(["bench", "--methods", "item-mean,SVD++"])

    def test_report_validates_unmerged_shard_directory(self, tmp_path, capsys):
        from repro.obs import TelemetrySink

        with TelemetrySink(tmp_path, filename="run-w0g0.jsonl",
                           run_id="w0g0") as sink:
            sink.emit("worker_start", worker=0, generation=0)
            sink.emit("worker_end", worker=0, busy_seconds=1.0,
                      idle_seconds=1.0, tasks_done=1)
        assert main(["report", str(tmp_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "schema OK (run-w0g0.jsonl)" in out
        assert "worker utilization" in out

    def test_report_validates_retired_daemon_kinds(self, tmp_path, capsys):
        """Daemon files written before ``worker_death`` existed still
        validate, and their deaths, requeues and stall kills still count."""
        from repro.obs import TelemetrySink

        with TelemetrySink(tmp_path, run_id="serve-old") as sink:
            sink.emit("daemon_start", workers=2, catalog=10, port=1)
            sink.emit("daemon_worker_ready", slot=0, generation=0)
            sink.emit("daemon_stall_kill", slot=0, generation=0, age_seconds=0.5)
            sink.emit("daemon_worker_death", slot=0, generation=0,
                      exitcode=-9, requeued=2)
            sink.emit("daemon_requeue", job=1, slot=0, attempt=1)
            sink.emit("daemon_stop", received=3, completed=3, shed=0,
                      timeouts=0, errors=0, deaths=1)
        assert main(["report", str(tmp_path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "chaos absorbed: deaths 1 (requeued 2)  stall kills 1" in out
