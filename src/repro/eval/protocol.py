"""Experiment protocol: one call = one cell of a paper table.

``run_experiment`` generates the scenario, applies the cold-start split,
fits a method, and scores RMSE/MAE on the held-out cold-start test users —
averaged over ``trials`` random trials, as in the paper (§5.4: "5 random
trials ... reported the average").

When a :class:`~repro.obs.TelemetrySink` is passed (or active via
:func:`~repro.obs.use_sink`), every trial emits a ``trial`` event tagged
with its span path and seed, and each experiment closes with an
``experiment`` summary event; the trainer's own per-epoch/per-batch events
flow into the same sink because the experiment installs it as the ambient
sink while methods fit.

Parallelism: ``run_experiment``, ``run_scenario_methods``, and
:func:`run_table` all take ``workers`` — with ``workers >= 2`` the work
fans out over the experiment engine's :class:`repro.parallel.TaskPool`
workers (trials for a single experiment; (method, scenario) cells for the
sweeps) with bit-identical results to serial mode: the same per-trial
seeds drive the same RNG streams, and the parent reassembles per-trial
metrics in trial order before averaging. Datasets and document matrices
travel to workers through shared memory, not pickles (see
``repro.parallel``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core import OmniMatchConfig
from ..data import CrossDomainDataset, cold_start_split, generate_scenario
from ..data.synthetic import GeneratorConfig
from ..obs import SpanTracer, get_active_sink, use_sink
from .metrics import mae, rmse
from .registry import make_predictor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.batching import DocumentStore
    from ..data.split import ColdStartSplit
    from ..obs import TelemetrySink

__all__ = [
    "PAPER_SCENARIOS",
    "ExperimentResult",
    "run_experiment",
    "run_scenario_methods",
    "run_table",
]

#: The six cross-domain scenarios of the paper's Tables 2-3, in row order.
PAPER_SCENARIOS: tuple[tuple[str, str], ...] = (
    ("books", "movies"),
    ("movies", "books"),
    ("books", "music"),
    ("music", "books"),
    ("movies", "music"),
    ("music", "movies"),
)

_GENERATOR_FIELDS = frozenset(f.name for f in dataclass_fields(GeneratorConfig))


def _check_generator_overrides(overrides: dict) -> None:
    """Reject overrides that are not :class:`GeneratorConfig` fields.

    Misrouted split- or protocol-level options (``train_fraction``,
    ``config``, a typo'd knob) used to fall through ``**kwargs`` into
    :func:`generate_scenario` and fail deep inside ``dataclasses.replace``
    — or worse, be silently dropped. Fail here, by name, instead.
    """
    unknown = sorted(set(overrides) - _GENERATOR_FIELDS)
    if unknown:
        raise TypeError(
            f"unknown generator override(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(_GENERATOR_FIELDS))}"
        )


@dataclass
class ExperimentResult:
    """Averaged metrics for one (method, scenario) cell."""

    method: str
    dataset: str
    source: str
    target: str
    rmse: float
    mae: float
    trials: int
    rmse_per_trial: list[float] = field(default_factory=list)
    mae_per_trial: list[float] = field(default_factory=list)
    #: Cross-trial standard deviations — the paper averages over random
    #: trials, so the spread is part of faithfully reporting a cell.
    rmse_std: float = 0.0
    mae_std: float = 0.0
    fit_seconds: float = 0.0
    #: Full per-trial wall clock: fit + predict + score. ``fit_seconds``
    #: alone under-reports methods with expensive inference (the Table 6
    #: timing comparison needs the whole cell cost).
    wall_seconds: float = 0.0

    @property
    def scenario(self) -> str:
        return f"{self.source} -> {self.target}"

    def row(self, include_timing: bool = False) -> dict:
        """Render this cell as a flat table row.

        With ``include_timing`` the row additionally carries the trial
        spread and wall-clock columns (off by default so the paper-shaped
        tables stay paper-shaped).
        """
        row = {
            "method": self.method,
            "scenario": self.scenario,
            "RMSE": round(self.rmse, 3),
            "MAE": round(self.mae, 3),
        }
        if include_timing:
            row["RMSE_std"] = round(self.rmse_std, 3)
            row["MAE_std"] = round(self.mae_std, 3)
            row["fit_s"] = round(self.fit_seconds, 3)
            row["wall_s"] = round(self.wall_seconds, 3)
        return row


def _assemble_result(
    method: str,
    dataset_name: str,
    source: str,
    target: str,
    rmses: list[float],
    maes: list[float],
    fit_seconds: float,
    wall_seconds: float,
) -> ExperimentResult:
    """Fold per-trial metrics into a cell result.

    Serial runs and the parallel parent both come through here with the
    per-trial lists in trial order, so the float reductions are performed
    on the same values in the same order — bit-identical output.
    """
    return ExperimentResult(
        method=method,
        dataset=dataset_name,
        source=source,
        target=target,
        rmse=float(np.mean(rmses)),
        mae=float(np.mean(maes)),
        trials=len(rmses),
        rmse_per_trial=rmses,
        mae_per_trial=maes,
        rmse_std=float(np.std(rmses)),
        mae_std=float(np.std(maes)),
        fit_seconds=fit_seconds,
        wall_seconds=wall_seconds,
    )


def run_experiment(
    method: str,
    dataset_name: str,
    source: str,
    target: str,
    trials: int = 3,
    train_fraction: float = 1.0,
    seed: int = 0,
    config: OmniMatchConfig | None = None,
    dataset: CrossDomainDataset | None = None,
    telemetry: "TelemetrySink | None" = None,
    *,
    trial_offset: int = 0,
    emit_summary: bool = True,
    store_provider: "Callable[[CrossDomainDataset, ColdStartSplit, int], DocumentStore | None] | None" = None,
    workers: int = 0,
    telemetry_dir=None,
    **generator_overrides,
) -> ExperimentResult:
    """Evaluate ``method`` on one cross-domain scenario.

    Each trial re-splits the overlapping users (and reseeds the method) so
    the averages carry split variance, matching the paper's protocol. The
    generated world itself is held fixed across trials — it plays the role
    of the (fixed) real dataset.

    ``telemetry`` (optional) receives one ``trial`` event per trial and a
    closing ``experiment`` event; it is installed as the ambient sink for
    the duration of the run so nested emitters (trainer epochs/batches,
    checkpoint I/O) land in the same ``run.jsonl``. Without it, an already
    active ambient sink (if any) is used.

    Engine plumbing (rarely set by hand): ``trial_offset`` renumbers the
    trials ``trial_offset .. trial_offset + trials - 1`` so a worker
    executing a slice of a larger experiment derives the same per-trial
    seeds (``seed + trial``) and labels as the serial run; with
    ``emit_summary=False`` the closing ``experiment`` event is suppressed
    (with ``workers >= 2`` the workers run that way, and the parent emits
    the event into its own ``run-parent.jsonl`` shard and re-merges).
    ``store_provider`` maps ``(dataset, split, trial_seed)`` to a pre-built
    document store — or None to build locally. With ``workers >= 2`` the
    trials themselves fan out over a worker pool (``telemetry_dir`` then
    collects per-worker shards; a per-process ``telemetry`` sink cannot
    cross the process boundary and is rejected).
    """
    _check_generator_overrides(generator_overrides)
    if dataset is not None and generator_overrides:
        raise ValueError(
            "generator overrides have no effect when an explicit dataset "
            f"is passed: {', '.join(sorted(generator_overrides))}"
        )
    if workers >= 2:
        if telemetry is not None:
            raise ValueError(
                "a TelemetrySink cannot be shared with worker processes; "
                "pass telemetry_dir=... to collect per-worker shards"
            )
        from ..parallel.engine import ExperimentTask, run_tasks

        tasks = [
            ExperimentTask(
                index=trial,
                method=method,
                dataset_name=dataset_name,
                source=source,
                target=target,
                trials=1,
                trial_offset=trial_offset + trial,
                seed=seed,
                train_fraction=train_fraction,
                config=config,
                generator_overrides=tuple(sorted(generator_overrides.items())),
                emit_summary=False,
            )
            for trial in range(trials)
        ]
        partials = run_tasks(
            tasks, workers=workers, telemetry_dir=telemetry_dir, dataset=dataset
        )
        rmses = [value for part in partials for value in part.rmse_per_trial]
        maes = [value for part in partials for value in part.mae_per_trial]
        result = _assemble_result(
            method, dataset_name, source, target, rmses, maes,
            fit_seconds=sum(part.fit_seconds for part in partials),
            wall_seconds=sum(part.wall_seconds for part in partials),
        )
        if telemetry_dir is not None and emit_summary:
            # The workers ran single-trial slices with the summary off; the
            # parent adds its own shard with the reassembled cell and
            # re-merges (a re-merge replaces ``run.jsonl``).
            from ..obs import TelemetrySink, merge_shards

            with TelemetrySink(
                telemetry_dir, filename="run-parent.jsonl", run_id="experiment"
            ) as sink:
                _emit_experiment(sink, result)
            merge_shards(telemetry_dir)
        return result

    own_sink = None
    if telemetry is None and telemetry_dir is not None:
        from ..obs import TelemetrySink

        telemetry = own_sink = TelemetrySink(telemetry_dir)
    try:
        return _run_experiment_serial(
            method, dataset_name, source, target, trials, train_fraction,
            seed, config, dataset, telemetry, trial_offset, emit_summary,
            store_provider, generator_overrides,
        )
    finally:
        if own_sink is not None:
            own_sink.close()


def _run_experiment_serial(
    method, dataset_name, source, target, trials, train_fraction, seed,
    config, dataset, telemetry, trial_offset, emit_summary, store_provider,
    generator_overrides,
) -> ExperimentResult:
    with use_sink(telemetry):
        sink = telemetry if telemetry is not None else get_active_sink()
        tracer = SpanTracer()
        if dataset is None:
            dataset = generate_scenario(
                dataset_name, source, target, **generator_overrides
            )
        rmses: list[float] = []
        maes: list[float] = []
        fit_seconds = 0.0
        wall_seconds = 0.0
        scenario = f"{source} -> {target}"
        for index in range(trials):
            trial = trial_offset + index
            trial_seed = seed + trial
            split = cold_start_split(
                dataset, train_fraction=train_fraction, seed=trial_seed
            )
            store = (
                store_provider(dataset, split, trial_seed)
                if store_provider is not None
                else None
            )
            with tracer.span(f"trial[{trial}]"):
                wall_start = time.perf_counter()
                start = time.perf_counter()
                fitted = make_predictor(
                    method, dataset, split, seed=trial_seed, config=config,
                    store=store,
                )
                elapsed = time.perf_counter() - start
                fit_seconds += elapsed
                test = split.eval_interactions(dataset, "test")
                predicted = fitted.predict_interactions(test)
                actual = np.array([r.rating for r in test])
                rmses.append(rmse(actual, predicted))
                maes.append(mae(actual, predicted))
                wall_elapsed = time.perf_counter() - wall_start
                wall_seconds += wall_elapsed
            if sink is not None:
                sink.emit(
                    "trial",
                    method=method,
                    scenario=scenario,
                    trial=trial,
                    seed=trial_seed,
                    span=f"trial[{trial}]",
                    rmse=rmses[-1],
                    mae=maes[-1],
                    fit_seconds=elapsed,
                    wall_seconds=wall_elapsed,
                    test_interactions=len(test),
                )
        result = _assemble_result(
            method, dataset_name, source, target, rmses, maes,
            fit_seconds=fit_seconds, wall_seconds=wall_seconds,
        )
        if sink is not None:
            if emit_summary:
                _emit_experiment(sink, result, spans=tracer.totals())
            sink.flush()
        return result


def _emit_experiment(sink: "TelemetrySink", result: ExperimentResult, **extra) -> None:
    """The closing ``experiment`` event of one cell."""
    sink.emit(
        "experiment",
        method=result.method,
        scenario=result.scenario,
        dataset=result.dataset,
        rmse=result.rmse,
        mae=result.mae,
        rmse_std=result.rmse_std,
        mae_std=result.mae_std,
        trials=result.trials,
        fit_seconds=result.fit_seconds,
        wall_seconds=result.wall_seconds,
        **extra,
    )


def run_scenario_methods(
    methods: list[str],
    dataset_name: str,
    source: str,
    target: str,
    trials: int = 3,
    seed: int = 0,
    telemetry: "TelemetrySink | None" = None,
    *,
    train_fraction: float = 1.0,
    config: OmniMatchConfig | None = None,
    workers: int = 0,
    telemetry_dir=None,
    **generator_overrides,
) -> list[ExperimentResult]:
    """Evaluate several methods on one scenario, sharing the generated world.

    Split-level options are routed explicitly: ``train_fraction`` goes to
    the cold-start split inside :func:`run_experiment`, ``config`` to the
    method, and only genuine :class:`GeneratorConfig` fields may appear in
    ``**generator_overrides`` — anything else raises ``TypeError`` instead
    of being misapplied to the generator. With ``workers >= 2`` the method
    cells fan out over the parallel engine (one shared-memory copy of the
    world, bit-identical results).
    """
    _check_generator_overrides(generator_overrides)
    if workers >= 2:
        return run_table(
            methods,
            dataset_name,
            scenarios=[(source, target)],
            trials=trials,
            seed=seed,
            train_fraction=train_fraction,
            config=config,
            workers=workers,
            telemetry_dir=telemetry_dir,
            **generator_overrides,
        )
    own_sink = None
    if telemetry is None and telemetry_dir is not None:
        from ..obs import TelemetrySink

        telemetry = own_sink = TelemetrySink(telemetry_dir)
    dataset = generate_scenario(dataset_name, source, target, **generator_overrides)
    try:
        return [
            run_experiment(
                method, dataset_name, source, target,
                trials=trials, seed=seed, dataset=dataset,
                train_fraction=train_fraction, config=config, telemetry=telemetry,
            )
            for method in methods
        ]
    finally:
        if own_sink is not None:
            own_sink.close()


def run_table(
    methods: list[str],
    dataset_name: str,
    scenarios: "list[tuple[str, str]] | None" = None,
    *,
    trials: int = 3,
    seed: int = 0,
    train_fraction: float = 1.0,
    config: OmniMatchConfig | None = None,
    workers: int = 0,
    telemetry_dir=None,
    max_task_retries: int = 2,
    **generator_overrides,
) -> list[ExperimentResult]:
    """Evaluate a full methods × scenarios table through the engine.

    Returns one :class:`ExperimentResult` per (scenario, method) cell, in
    row-major order (scenarios outer, methods inner). Each generated world
    is built exactly once by the parent and shared by every cell — through
    shared memory when ``workers >= 2``, in-process otherwise — so even
    the inline mode is faster than running the cells independently.
    """
    _check_generator_overrides(generator_overrides)
    from ..parallel.engine import ExperimentTask, run_tasks

    if scenarios is None:
        scenarios = list(PAPER_SCENARIOS)
    overrides = tuple(sorted(generator_overrides.items()))
    tasks = [
        ExperimentTask(
            index=index,
            method=method,
            dataset_name=dataset_name,
            source=source,
            target=target,
            trials=trials,
            trial_offset=0,
            seed=seed,
            train_fraction=train_fraction,
            config=config,
            generator_overrides=overrides,
            emit_summary=True,
        )
        for index, (source, target, method) in enumerate(
            (source, target, method)
            for source, target in scenarios
            for method in methods
        )
    ]
    return run_tasks(
        tasks,
        workers=workers,
        telemetry_dir=telemetry_dir,
        max_task_retries=max_task_retries,
    )
