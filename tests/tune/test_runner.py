"""End-to-end tuner: determinism, resume-no-recompute, chaos, artifacts."""

import json

import pytest

from repro.faults import WorkerFaultPlan
from repro.obs import read_events, validate_run_file
from repro.tune import SearchSpaceError, TuneError, run_tuning, trained_epoch_census

from .helpers import tiny_config

SPEC = {
    "learning_rate": {"grid": [0.4, 1.0, 1.6]},
    "alpha": {"uniform": [0.05, 0.3]},
}

TUNE_KWARGS = dict(
    seed=3, num_samples=1, scheduler="asha", min_epochs=1, max_epochs=2,
    eta=2, split_seed=1,
)


def tune(world, out_dir, **overrides):
    kwargs = dict(TUNE_KWARGS, **overrides)
    return run_tuning(
        SPEC, base_config=tiny_config(), dataset=world, out_dir=out_dir,
        **kwargs,
    )


class TestDeterminism:
    def test_same_seed_byte_identical_artifact(self, world, tmp_path):
        first = tune(world, tmp_path / "a")
        second = tune(world, tmp_path / "b")
        assert first.artifact_path.read_bytes() == second.artifact_path.read_bytes()
        assert first.best_trial == second.best_trial
        assert first.best_rmse == second.best_rmse

    def test_workers_match_inline_byte_for_byte(self, world, tmp_path):
        inline = tune(world, tmp_path / "inline", workers=0)
        pooled = tune(world, tmp_path / "pool", workers=2)
        assert inline.artifact_path.read_bytes() == pooled.artifact_path.read_bytes()

    def test_different_seed_changes_sampled_params(self, world, tmp_path):
        a = tune(world, tmp_path / "a")
        b = tune(world, tmp_path / "b", seed=4)
        params_a = json.loads(a.artifact_path.read_text())["trials"][0]["params"]
        params_b = json.loads(b.artifact_path.read_text())["trials"][0]["params"]
        assert params_a["alpha"] != params_b["alpha"]


class TestSchedule:
    def test_asha_kills_and_promotes(self, world, tmp_path):
        result = tune(world, tmp_path / "t")
        assert [d.budget for d in result.rungs] == [1, 2]
        rung0 = result.rungs[0]
        assert len(rung0.ranked) == 3
        assert len(rung0.promoted) == 1
        assert len(rung0.killed) == 2
        assert result.best_trial == rung0.promoted[0]

    def test_best_is_min_rmse_of_final_rung(self, world, tmp_path):
        result = tune(world, tmp_path / "t")
        artifact = json.loads(result.artifact_path.read_text())
        final_scores = artifact["trials"][result.best_trial]["rungs"]
        assert artifact["best"]["valid_rmse"] == final_scores["1"]
        killed = [t["killed_at_rung"] for t in artifact["trials"]]
        assert killed.count(0) == 2 and killed.count(None) == 1

    def test_grid_trains_every_trial_to_full_budget(self, world, tmp_path):
        result = tune(world, tmp_path / "t", scheduler="grid")
        assert [d.budget for d in result.rungs] == [2]
        assert result.rungs[0].killed == ()
        assert result.total_epochs == 3 * 2


class TestResume:
    def test_promoted_trial_resumes_instead_of_recomputing(self, world, tmp_path):
        result = tune(world, tmp_path / "t")
        total, duplicates = trained_epoch_census(result.telemetry_dir)
        # 3 trials x 1 epoch at rung 0, + 1 marginal epoch for the winner.
        assert total == result.total_epochs == 4
        assert duplicates == 0
        events = read_events(result.telemetry_dir / "run.jsonl")
        resumes = [e for e in events
                   if e["kind"] == "health" and e.get("health_kind") == "resume"]
        assert len(resumes) == 1  # exactly one promotion, exactly one resume
        assert resumes[0]["trial"] == result.best_trial

    def test_winner_checkpoint_on_disk(self, world, tmp_path):
        result = tune(world, tmp_path / "t")
        trial_dir = tmp_path / "t" / "trials" / f"trial-{result.best_trial:04d}"
        assert (trial_dir / "epoch-0002").is_dir()


class TestTelemetry:
    def test_merged_stream_schema_valid(self, world, tmp_path):
        result = tune(world, tmp_path / "t", workers=2)
        stats = validate_run_file(result.telemetry_dir / "run.jsonl")
        assert stats["kinds"]["tune_trial"] == 3 + 4  # defined + per-rung results
        assert stats["kinds"]["tune_rung"] == 2
        assert stats["kinds"]["tune_result"] == 1

    def test_scheduler_input_is_the_event_stream(self, world, tmp_path):
        result = tune(world, tmp_path / "t")
        events = read_events(result.telemetry_dir / "run.jsonl")
        rung0 = next(e for e in events if e["kind"] == "tune_rung" and e["rung"] == 0)
        done = {e["trial"]: e["valid_rmse"] for e in events
                if e["kind"] == "tune_trial" and e["rung"] == 0
                and e["status"] == "done"}
        assert rung0["scores"] == {str(t): r for t, r in done.items()}


class TestChaos:
    def test_worker_death_mid_tune_same_artifact(self, world, tmp_path):
        clean = tune(world, tmp_path / "clean", workers=2)
        chaotic = tune(
            world, tmp_path / "chaos", workers=2,
            fault_plan=WorkerFaultPlan(kills=[(1, 0, 0)]),
        )
        assert clean.artifact_path.read_bytes() == chaotic.artifact_path.read_bytes()
        _, duplicates = trained_epoch_census(chaotic.telemetry_dir)
        assert duplicates == 0


class TestValidation:
    def test_bad_space_raises(self, world, tmp_path):
        with pytest.raises(SearchSpaceError):
            run_tuning({"epochs": {"grid": [3]}}, dataset=world,
                       out_dir=tmp_path / "t")

    def test_missing_scores_raise_tune_error(self, tmp_path):
        from repro.tune.runner import _rung_scores

        with pytest.raises(TuneError, match="cannot rank"):
            _rung_scores(tmp_path, 0, [0, 1])
