"""Tests for the experiment protocol, registry, and table formatting."""

import numpy as np
import pytest

from repro.eval import (
    METHODS,
    PAPER_METHODS,
    ExperimentResult,
    format_comparison,
    format_table,
    improvement_over_best_baseline,
    make_predictor,
    run_experiment,
)
from repro.data import GeneratorConfig, cold_start_split, generate_domain_pair

SMALL = dict(num_users=90, num_items_per_domain=40, reviews_per_user_mean=5.0)


class TestRegistry:
    def test_paper_methods_all_registered(self):
        for name in PAPER_METHODS:
            assert name in METHODS

    def test_reference_methods_registered(self):
        assert "global-mean" in METHODS
        assert "item-mean" in METHODS

    def test_unknown_method_rejected(self):
        dataset = generate_domain_pair("books", "movies", GeneratorConfig(**SMALL, seed=2))
        split = cold_start_split(dataset, seed=0)
        with pytest.raises(KeyError):
            make_predictor("SVD++", dataset, split)

    def test_make_predictor_returns_fitted(self):
        dataset = generate_domain_pair("books", "movies", GeneratorConfig(**SMALL, seed=2))
        split = cold_start_split(dataset, seed=0)
        fitted = make_predictor("item-mean", dataset, split)
        test = split.eval_interactions(dataset, "test")
        assert fitted.predict_interactions(test).shape == (len(test),)


class TestRunExperiment:
    def test_result_structure(self):
        result = run_experiment(
            "item-mean", "amazon", "books", "movies", trials=2, **SMALL
        )
        assert result.method == "item-mean"
        assert result.scenario == "books -> movies"
        assert len(result.rmse_per_trial) == 2
        assert result.rmse == pytest.approx(np.mean(result.rmse_per_trial))
        assert 0 < result.rmse < 3
        assert 0 < result.mae <= result.rmse

    def test_trials_vary_split(self):
        result = run_experiment(
            "item-mean", "amazon", "books", "movies", trials=3, **SMALL
        )
        assert len(set(result.rmse_per_trial)) > 1

    def test_train_fraction_forwarded(self):
        full = run_experiment("global-mean", "amazon", "books", "movies",
                              trials=1, train_fraction=1.0, **SMALL)
        small = run_experiment("global-mean", "amazon", "books", "movies",
                               trials=1, train_fraction=0.2, **SMALL)
        assert np.isfinite(full.rmse) and np.isfinite(small.rmse)

    def test_row_rendering(self):
        result = run_experiment("item-mean", "amazon", "books", "movies",
                                trials=1, **SMALL)
        row = result.row()
        assert set(row) == {"method", "scenario", "RMSE", "MAE"}

    def test_deterministic_given_seed(self):
        a = run_experiment("item-mean", "amazon", "books", "movies",
                           trials=1, seed=5, **SMALL)
        b = run_experiment("item-mean", "amazon", "books", "movies",
                           trials=1, seed=5, **SMALL)
        assert a.rmse == b.rmse


class TestKwargRouting:
    def test_unknown_generator_override_rejected(self):
        with pytest.raises(TypeError, match="reviews_per_user_meen"):
            run_experiment("item-mean", "amazon", "books", "movies",
                           trials=1, reviews_per_user_meen=4.0)

    def test_scenario_methods_rejects_unknown_kwargs(self):
        from repro.eval import run_scenario_methods

        with pytest.raises(TypeError, match="cold_fraktion"):
            run_scenario_methods(["item-mean"], "amazon", "books", "movies",
                                 trials=1, cold_fraktion=0.5, **SMALL)

    def test_scenario_methods_routes_train_fraction_to_split(self):
        from repro.eval import run_scenario_methods

        via_sweep = run_scenario_methods(
            ["global-mean"], "amazon", "books", "movies",
            trials=1, train_fraction=0.2, **SMALL,
        )[0]
        direct = run_experiment(
            "global-mean", "amazon", "books", "movies",
            trials=1, train_fraction=0.2, **SMALL,
        )
        # Same split (train_fraction reached cold_start_split, not the
        # generator) => identical metrics.
        assert via_sweep.rmse == direct.rmse
        assert via_sweep.mae == direct.mae

    def test_explicit_dataset_with_overrides_rejected(self):
        from repro.data import GeneratorConfig, generate_domain_pair

        dataset = generate_domain_pair(
            "books", "movies", GeneratorConfig(**SMALL, seed=2)
        )
        with pytest.raises(ValueError, match="num_users"):
            run_experiment("item-mean", "amazon", "books", "movies",
                           trials=1, dataset=dataset, num_users=10)


class TestTimingAndSpread:
    def test_std_and_wall_fields(self):
        result = run_experiment("item-mean", "amazon", "books", "movies",
                                trials=3, **SMALL)
        assert result.rmse_std == pytest.approx(np.std(result.rmse_per_trial))
        assert result.mae_std == pytest.approx(np.std(result.mae_per_trial))
        # Wall clock covers fit + predict + score, so it dominates fit.
        assert result.wall_seconds >= result.fit_seconds > 0

    def test_row_timing_columns_behind_flag(self):
        result = run_experiment("item-mean", "amazon", "books", "movies",
                                trials=2, **SMALL)
        assert set(result.row()) == {"method", "scenario", "RMSE", "MAE"}
        timed = result.row(include_timing=True)
        assert {"RMSE_std", "MAE_std", "fit_s", "wall_s"} <= set(timed)

    def test_trial_offset_renumbers_seeds(self):
        both = run_experiment("item-mean", "amazon", "books", "movies",
                              trials=2, seed=3, **SMALL)
        second_only = run_experiment("item-mean", "amazon", "books", "movies",
                                     trials=1, seed=3, trial_offset=1, **SMALL)
        assert second_only.rmse_per_trial == both.rmse_per_trial[1:]


class TestExperimentEvent:
    """Serial and ``workers=2`` runs both close with one ``experiment`` event."""

    @staticmethod
    def experiment_events(directory):
        from repro.obs import read_events

        return [
            e for e in read_events(directory / "run.jsonl")
            if e["kind"] == "experiment"
        ]

    def test_parallel_run_emits_one_event_matching_serial(self, tmp_path):
        from repro.cli import main

        kwargs = dict(trials=3, seed=4, **SMALL)
        serial = run_experiment("item-mean", "amazon", "books", "movies",
                                telemetry_dir=tmp_path / "serial", **kwargs)
        parallel = run_experiment("item-mean", "amazon", "books", "movies",
                                  workers=2, telemetry_dir=tmp_path / "par",
                                  **kwargs)
        assert parallel.rmse_per_trial == serial.rmse_per_trial
        [want] = self.experiment_events(tmp_path / "serial")
        [got] = self.experiment_events(tmp_path / "par")
        metrics = ("method", "scenario", "dataset", "rmse", "mae",
                   "rmse_std", "mae_std", "trials")
        assert {k: got[k] for k in metrics} == {k: want[k] for k in metrics}
        assert got["rmse"] == parallel.rmse and got["trials"] == 3
        assert got["fit_seconds"] == parallel.fit_seconds
        assert got["wall_seconds"] == parallel.wall_seconds
        assert main(["report", str(tmp_path / "par"), "--validate"]) == 0


class TestResultFormatting:
    def _fake(self, method, rmse_value, mae_value):
        return ExperimentResult(
            method=method, dataset="amazon", source="books", target="movies",
            rmse=rmse_value, mae=mae_value, trials=1,
        )

    def test_format_table_contains_all(self):
        results = [self._fake("A", 1.2, 0.9), self._fake("B", 1.1, 0.8)]
        table = format_table(results)
        assert "A" in table and "B" in table and "books -> movies" in table

    def test_improvement_computation(self):
        results = [
            self._fake("OmniMatch", 0.9, 0.7),
            self._fake("EMCDR", 1.0, 0.8),
            self._fake("CMF", 1.5, 1.2),
        ]
        assert improvement_over_best_baseline(results) == pytest.approx(10.0)

    def test_improvement_requires_both_sides(self):
        with pytest.raises(ValueError):
            improvement_over_best_baseline([self._fake("OmniMatch", 1.0, 0.8)])

    def test_format_comparison_includes_delta(self):
        results = [
            self._fake("OmniMatch", 0.9, 0.7),
            self._fake("EMCDR", 1.0, 0.8),
        ]
        out = format_comparison(results)
        assert "Δ%" in out
