"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the library version and the registered methods/datasets.
``generate``
    Generate a scenario and print its size card.
``compare``
    Fit every paper method on one scenario and print the comparison table.
``train``
    Train OmniMatch on one scenario, report cold-start RMSE/MAE, and
    optionally save a checkpoint.
``case-study``
    Print the §5.10-style auxiliary-review generation trace for one
    cold-start user.
``recommend``
    Train briefly, then rank the full target catalog for one (cold-start)
    user through the serving engine — encode-once caches, blocked
    full-catalog scoring, exact top-K.
``experiment``
    Run one method on one scenario through the experiment protocol,
    optionally fanning the trials across ``--workers`` processes.
``bench``
    Run a methods × scenarios table through the parallel engine
    (``--workers N``) and print every cell with timing columns.
``report``
    Summarize a telemetry file (``run.jsonl``) written by a run with
    ``--telemetry``: span table, metrics, health events, final metrics.
    Also accepts a directory of per-worker shards from a parallel run.
``tune``
    Distributed hyperparameter search with deterministic successive
    halving (ASHA): a declarative search space fans over worker
    processes, losing trials are killed at rung barriers, promoted
    trials resume from their checkpoints, and the winner lands in a
    byte-deterministic ``best_config.json``.
``serve``
    Train briefly, then run the resilient serving daemon — a supervised
    multi-worker fleet sharding the catalog behind a JSON-lines socket,
    with deadlines, retries, load shedding and graceful degradation.
``loadtest``
    Start a daemon, drive it with zipf-skewed traffic (optionally killing
    workers mid-traffic), verify every completed response bit-exactly
    against a single-process engine, and print the outcome census.
"""

from __future__ import annotations

import argparse

import numpy as np

from . import __version__
from .core import (
    AuxiliaryReviewGenerator,
    ColdStartPredictor,
    OmniMatchConfig,
    OmniMatchTrainer,
    save_checkpoint,
)
from .data import DATASET_PROFILES, DOMAINS, cold_start_split, generate_scenario
from .eval import (
    METHODS,
    PAPER_METHODS,
    PAPER_SCENARIOS,
    format_comparison,
    mae,
    rmse,
    run_experiment,
    run_scenario_methods,
    run_table,
)
from .obs import TelemetrySink, load_run_events, render_report, validate_run_file

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OmniMatch (EDBT 2025) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and registry information")

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="amazon", choices=sorted(DATASET_PROFILES))
        p.add_argument("--source", default="books", choices=sorted(DOMAINS))
        p.add_argument("--target", default="movies", choices=sorted(DOMAINS))
        p.add_argument("--seed", type=int, default=0)

    generate = sub.add_parser("generate", help="generate a scenario, print its card")
    add_scenario_args(generate)

    compare = sub.add_parser("compare", help="compare all paper methods on one scenario")
    add_scenario_args(compare)
    compare.add_argument("--trials", type=int, default=1)
    compare.add_argument("--workers", type=int, default=0,
                         help="fan the method cells across N worker processes "
                              "(results are bit-identical to serial)")
    compare.add_argument("--telemetry", default=None, metavar="DIR",
                         help="write run telemetry (per-worker shards merged "
                              "into DIR/run.jsonl when --workers >= 2)")

    experiment = sub.add_parser(
        "experiment", help="run one method on one scenario (parallel trials)"
    )
    add_scenario_args(experiment)
    experiment.add_argument("--method", default="OmniMatch",
                            choices=sorted(METHODS))
    experiment.add_argument("--trials", type=int, default=3)
    experiment.add_argument("--train-fraction", type=float, default=1.0)
    experiment.add_argument("--workers", type=int, default=0,
                            help="fan the trials across N worker processes")
    experiment.add_argument("--telemetry", default=None, metavar="DIR")

    bench = sub.add_parser(
        "bench", help="run a methods x scenarios table through the engine"
    )
    bench.add_argument("--dataset", default="amazon", choices=sorted(DATASET_PROFILES))
    bench.add_argument("--methods", default=None,
                       help="comma-separated method names (default: paper methods)")
    bench.add_argument("--scenarios", default=None,
                       help="comma-separated source:target pairs "
                            "(default: the six paper scenarios)")
    bench.add_argument("--trials", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--workers", type=int, default=0,
                       help="fan the table cells across N worker processes")
    bench.add_argument("--telemetry", default=None, metavar="DIR")

    train = sub.add_parser("train", help="train OmniMatch and score cold-start users")
    add_scenario_args(train)
    train.add_argument("--epochs", type=int, default=25)
    train.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="directory to save the final model (and, with "
                            "--checkpoint-every, periodic training checkpoints)")
    train.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="write a crash-safe training checkpoint every N "
                            "epochs under the --checkpoint directory")
    train.add_argument("--keep-last", type=int, default=3, metavar="K",
                       help="retain only the K newest periodic checkpoints "
                            "(the best-by-validation one is always kept)")
    train.add_argument("--resume", default=None, metavar="DIR",
                       help="resume training from a checkpoint directory (or "
                            "pick the newest valid checkpoint in a run "
                            "directory); requires identical scenario flags")
    train.add_argument("--telemetry", default=None, metavar="DIR",
                       help="stream structured run telemetry (per-epoch and "
                            "per-batch metrics, span timings, health events) "
                            "to DIR/run.jsonl; summarize with `repro report`")

    case = sub.add_parser("case-study", help="auxiliary-review trace for one cold user")
    add_scenario_args(case)

    recommend = sub.add_parser(
        "recommend", help="train briefly, then rank the full catalog for a user"
    )
    add_scenario_args(recommend)
    recommend.add_argument("--epochs", type=int, default=8)
    recommend.add_argument("--user", default=None, metavar="USER_ID",
                           help="user to recommend for (default: the cold-start "
                                "user with the richest source history)")
    recommend.add_argument("--k", type=int, default=10,
                           help="how many catalog items to return")
    recommend.add_argument("--retrieval", choices=("exact", "ivf"),
                           default="exact",
                           help="full-catalog ranking strategy: exact brute "
                                "force, or IVF coarse-probe + exact re-rank")
    recommend.add_argument("--nlist", type=int, default=None, metavar="N",
                           help="IVF inverted-list count "
                                "(default: sqrt(catalog))")
    recommend.add_argument("--nprobe", type=int, default=None, metavar="N",
                           help="IVF lists probed per query (default 8; "
                                ">= nlist recovers the exact ranking)")
    recommend.add_argument("--ann-store", choices=("float32", "int8"),
                           default="float32",
                           help="IVF routing store (int8 quantizes the "
                                "routing copy ~4x smaller)")
    recommend.add_argument("--exclude-seen", action="store_true",
                           help="drop items the user already interacted with "
                                "in training data from the ranking")
    recommend.add_argument("--telemetry", default=None, metavar="DIR",
                           help="stream serve-stage telemetry (index build, "
                                "cache hits, score latency, ann probes) to "
                                "DIR/run.jsonl")

    tune = sub.add_parser(
        "tune", help="ASHA hyperparameter search over OmniMatchConfig"
    )
    add_scenario_args(tune)
    tune.add_argument("--space", default=None, metavar="JSON|@FILE",
                      help="search-space spec: inline JSON or @path to a "
                           "JSON file mapping config fields to one "
                           "distribution each (grid/choice/uniform/"
                           "log_uniform); default tunes learning_rate "
                           "and alpha")
    tune.add_argument("--samples", type=int, default=1,
                      help="joint draws of the sampled (non-grid) fields "
                           "per grid point")
    tune.add_argument("--scheduler", choices=("asha", "grid"), default="asha",
                      help="asha: successive halving with early kills; "
                           "grid: exhaustive (every trial trains the full "
                           "budget)")
    tune.add_argument("--min-epochs", type=int, default=1,
                      help="first-rung epoch budget")
    tune.add_argument("--max-epochs", type=int, default=9,
                      help="final-rung (cumulative) epoch budget")
    tune.add_argument("--eta", type=int, default=3,
                      help="halving rate: budgets grow by eta, top 1/eta "
                           "of each rung is promoted")
    tune.add_argument("--train-fraction", type=float, default=1.0)
    tune.add_argument("--workers", type=int, default=0,
                      help="fan rung trials across N worker processes "
                           "(results are byte-identical to inline)")
    tune.add_argument("--out", default="tune-out", metavar="DIR",
                      help="output directory: best_config.json, per-trial "
                           "checkpoints under trials/, telemetry under "
                           "telemetry/")

    report = sub.add_parser(
        "report", help="summarize a run.jsonl telemetry file"
    )
    report.add_argument("path", help="run.jsonl file, or a directory containing one")
    report.add_argument("--validate", action="store_true",
                        help="schema-check every event before summarizing")

    def add_daemon_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--epochs", type=int, default=8)
        p.add_argument("--workers", type=int, default=2,
                       help="serving worker processes (catalog shards)")
        p.add_argument("--retrieval", choices=("exact", "ivf"), default="exact")
        p.add_argument("--nprobe", type=int, default=None, metavar="N")
        p.add_argument("--max-batch", type=int, default=8,
                       help="most requests one dispatch takes from the intake")
        p.add_argument("--queue-limit", type=int, default=64,
                       help="queued requests beyond this are shed")
        p.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-request deadline")
        p.add_argument("--telemetry", default=None, metavar="DIR",
                       help="write daemon + worker telemetry shards, merged "
                            "into DIR/run.jsonl on shutdown")

    serve = sub.add_parser(
        "serve", help="train briefly, then run the serving daemon"
    )
    add_scenario_args(serve)
    add_daemon_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 binds an ephemeral port)")

    loadtest = sub.add_parser(
        "loadtest", help="drive a daemon with verified zipf traffic"
    )
    add_scenario_args(loadtest)
    add_daemon_args(loadtest)
    loadtest.add_argument("--requests", type=int, default=200)
    loadtest.add_argument("--concurrency", type=int, default=4)
    loadtest.add_argument("--k", type=int, default=5)
    loadtest.add_argument("--zipf-s", type=float, default=1.1,
                          help="user-popularity skew exponent")
    loadtest.add_argument("--kill-at", default=None, metavar="IDX:SLOT,...",
                          help="chaos plan: kill worker SLOT right before "
                               "request IDX (comma-separated pairs)")
    loadtest.add_argument("--no-verify", action="store_true",
                          help="skip the bit-exact reference comparison")
    return parser


def _cmd_info() -> int:
    print(f"repro {__version__} — OmniMatch (EDBT 2025) reproduction")
    print(f"datasets: {', '.join(sorted(DATASET_PROFILES))}")
    print(f"domains:  {', '.join(sorted(DOMAINS))}")
    print(f"methods:  {', '.join(sorted(METHODS))}")
    print(f"paper table order: {', '.join(PAPER_METHODS)}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = generate_scenario(args.dataset, args.source, args.target)
    for key, value in dataset.summary().items():
        print(f"{key:>16s}: {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    results = run_scenario_methods(
        list(PAPER_METHODS), args.dataset, args.source, args.target,
        trials=args.trials, seed=args.seed,
        workers=args.workers, telemetry_dir=args.telemetry,
    )
    print(format_comparison(results))
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(
        args.method, args.dataset, args.source, args.target,
        trials=args.trials, train_fraction=args.train_fraction,
        seed=args.seed, workers=args.workers, telemetry_dir=args.telemetry,
    )
    row = result.row(include_timing=True)
    print("  ".join(f"{key}={value}" for key, value in row.items()))
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    return 0


def _parse_scenarios(spec: str | None) -> list[tuple[str, str]]:
    if spec is None:
        return list(PAPER_SCENARIOS)
    scenarios = []
    for chunk in spec.split(","):
        source, sep, target = chunk.strip().partition(":")
        if not sep or not source or not target:
            raise SystemExit(f"bad scenario {chunk!r}; expected source:target")
        scenarios.append((source, target))
    return scenarios


def _cmd_bench(args: argparse.Namespace) -> int:
    methods = (
        [m.strip() for m in args.methods.split(",")]
        if args.methods else list(PAPER_METHODS)
    )
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise SystemExit(f"unknown method(s): {', '.join(unknown)}")
    results = run_table(
        methods, args.dataset, scenarios=_parse_scenarios(args.scenarios),
        trials=args.trials, seed=args.seed,
        workers=args.workers, telemetry_dir=args.telemetry,
    )
    rows = [result.row(include_timing=True) for result in results]
    widths = {
        key: max(len(key), *(len(str(row[key])) for row in rows))
        for key in rows[0]
    }
    print("  ".join(f"{key:<{widths[key]}}" for key in rows[0]))
    for row in rows:
        print("  ".join(f"{str(value):<{widths[key]}}" for key, value in row.items()))
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    if args.checkpoint_every and not args.checkpoint:
        raise SystemExit("--checkpoint-every requires --checkpoint DIR")
    dataset = generate_scenario(args.dataset, args.source, args.target)
    split = cold_start_split(dataset, seed=args.seed)
    config = OmniMatchConfig(epochs=args.epochs, seed=args.seed)
    fit_kwargs: dict = {}
    if args.checkpoint_every:
        fit_kwargs.update(
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint,
            keep_last=args.keep_last,
        )
    if args.resume:
        fit_kwargs["resume_from"] = args.resume
    sink = TelemetrySink(args.telemetry) if args.telemetry else None
    try:
        result = OmniMatchTrainer(dataset, split, config, telemetry=sink).fit(
            **fit_kwargs
        )
    finally:
        if sink is not None:
            sink.close()
            print(f"telemetry written to {sink.path}")
    predictor = ColdStartPredictor(result)
    test = split.eval_interactions(dataset, "test")
    predicted = predictor.predict_interactions(test)
    actual = np.array([r.rating for r in test])
    print(f"trained {len(result.history)} epochs "
          f"({result.train_seconds:.1f}s); cold-start test: "
          f"RMSE={rmse(actual, predicted):.3f} MAE={mae(actual, predicted):.3f}")
    recoveries = [e for e in result.health
                  if e.kind in ("nonfinite_loss", "nonfinite_grad", "rollback",
                                "lr_backoff")]
    if recoveries:
        kinds = ", ".join(sorted({e.kind for e in recoveries}))
        print(f"run health: {len(recoveries)} divergence-recovery event(s) [{kinds}]")
    if args.checkpoint:
        save_checkpoint(result, args.checkpoint)
        print(f"checkpoint saved to {args.checkpoint}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .serve import InferenceEngine

    dataset = generate_scenario(args.dataset, args.source, args.target)
    split = cold_start_split(dataset, seed=args.seed)
    config = OmniMatchConfig(epochs=args.epochs, seed=args.seed)
    sink = TelemetrySink(args.telemetry) if args.telemetry else None
    try:
        result = OmniMatchTrainer(dataset, split, config, telemetry=sink).fit()
        user = args.user
        if user is None:
            user = max(split.test_users,
                       key=lambda u: len(dataset.source.reviews_of_user(u)))
        engine = InferenceEngine(
            result, telemetry=sink,
            retrieval=args.retrieval, nlist=args.nlist,
            nprobe=args.nprobe, ann_store=args.ann_store,
        )
        engine.warm([user])
        # --exclude-seen drops the user's *training-visible* target
        # interactions; a cold user's held-out interactions stay rankable
        # (recommending them back is exactly the eval protocol's success).
        seen = None
        if args.exclude_seen:
            seen = sorted(
                r.item_id
                for r in dataset.target.reviews_of_user(user)
                if user in split.train_users
            )
        ranked = engine.recommend(user, k=args.k, exclude_items=seen)
    finally:
        if sink is not None:
            sink.close()
    print(f"top-{len(ranked)} of {len(engine.items)} catalog items "
          f"for user {user} ({dataset.scenario}, {args.retrieval} retrieval)")
    for rank, rec in enumerate(ranked, start=1):
        print(f"{rank:>3d}. {rec.item_id}  expected rating {rec.score:.3f}")
    if seen:
        print(f"excluded {len(seen)} already-seen item(s)")
    hits, misses = engine.users.hits, engine.users.misses
    print(f"cache: {hits} hits / {misses} misses; "
          f"{engine.items.encoded_count} items indexed")
    if args.retrieval == "ivf":
        stats = engine.ann_index().stats
        print(f"ivf: nlist={stats.nlist} nprobe={engine.nprobe} "
              f"store={stats.store} ({stats.store_bytes} bytes)")
    if args.telemetry:
        print(f"telemetry written to {sink.path}")
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    dataset = generate_scenario(args.dataset, args.source, args.target)
    split = cold_start_split(dataset, seed=args.seed)
    generator = AuxiliaryReviewGenerator(dataset, allowed_users=split.train_users,
                                         seed=args.seed)
    user = max(split.test_users,
               key=lambda u: len(dataset.source.reviews_of_user(u)))
    print(f"cold-start user {user} ({dataset.scenario})")
    for index, sel in enumerate(generator.explain(user), start=1):
        status = (
            f"borrowed \"{sel.auxiliary_review}\" from {sel.like_minded_user}"
            if sel.succeeded
            else "no like-minded user"
        )
        print(f"({index}) {sel.source_item} rated {sel.source_rating:.0f} "
              f"(\"{sel.source_review}\") -> {status}")
    return 0


def _train_for_serving(args: argparse.Namespace):
    dataset = generate_scenario(args.dataset, args.source, args.target)
    split = cold_start_split(dataset, seed=args.seed)
    config = OmniMatchConfig(epochs=args.epochs, seed=args.seed)
    return OmniMatchTrainer(dataset, split, config).fit(), dataset, split


def _daemon_config_from_args(args: argparse.Namespace):
    from .serve import DaemonConfig

    return DaemonConfig(
        host=getattr(args, "host", "127.0.0.1"),
        port=getattr(args, "port", 0),
        workers=args.workers,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        default_deadline_ms=args.deadline_ms,
        retrieval=args.retrieval,
        nprobe=args.nprobe,
        telemetry_dir=args.telemetry,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import RecommendDaemon

    result, dataset, _ = _train_for_serving(args)
    daemon = RecommendDaemon(result, _daemon_config_from_args(args))
    daemon.start()
    if not daemon.wait_ready():
        daemon.stop()
        raise SystemExit("daemon workers failed to become ready")
    print(f"serving {dataset.scenario} on {daemon.config.host}:{daemon.port} "
          f"({args.workers} workers, catalog {len(daemon.item_ids)})")
    print("ops: recommend, score, warm, health, ready, stats — "
          "one JSON object per line; Ctrl-C to stop")
    try:
        while True:
            import time as _time

            _time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        stats = daemon.stop()
        print(f"stopped: {stats['received']} requests, "
              f"{stats['completed']} ok, {stats['shed']} shed, "
              f"{stats['errors']} errors, {stats['deaths']} worker deaths")
        if args.telemetry:
            print(f"telemetry merged into {args.telemetry}/run.jsonl")
    return 0


def _parse_kill_plan(spec: str | None) -> dict[int, int]:
    if not spec:
        return {}
    plan: dict[int, int] = {}
    for chunk in spec.split(","):
        index, sep, slot = chunk.strip().partition(":")
        if not sep:
            raise SystemExit(f"bad --kill-at entry {chunk!r}; expected IDX:SLOT")
        plan[int(index)] = int(slot)
    return plan


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from .serve import InferenceEngine, RecommendDaemon
    from .serve.loadtest import LoadTestConfig, run_loadtest

    result, dataset, split = _train_for_serving(args)
    daemon = RecommendDaemon(result, _daemon_config_from_args(args))
    daemon.start()
    if not daemon.wait_ready():
        daemon.stop()
        raise SystemExit("daemon workers failed to become ready")
    reference = None
    if not args.no_verify:
        reference = InferenceEngine(result, nprobe=args.nprobe)
    users = sorted(split.test_users) + sorted(split.train_users)
    items = sorted(dataset.target.items)
    lt_config = LoadTestConfig(
        requests=args.requests,
        concurrency=args.concurrency,
        k=args.k,
        zipf_s=args.zipf_s,
        deadline_ms=args.deadline_ms,
        seed=args.seed,
    )
    try:
        outcome = run_loadtest(
            daemon, users, items,
            reference=reference, config=lt_config,
            kill_at=_parse_kill_plan(args.kill_at),
        )
    finally:
        stats = daemon.stop()
    summary = outcome.summary()
    print(f"loadtest {dataset.scenario}: {summary['sent']} requests "
          f"({args.concurrency} clients, zipf s={args.zipf_s})")
    print(f"  ok {summary['ok']}  shed {summary['shed']}  "
          f"timeouts {summary['timeouts']}  errors {summary['errors']}  "
          f"client timeouts {summary['client_timeouts']}")
    print(f"  latency p50 {summary['latency_p50_ms']:.1f}ms  "
          f"p99 {summary['latency_p99_ms']:.1f}ms  "
          f"throughput {summary['requests_per_sec']:.0f} req/s")
    if outcome.recoveries:
        print(f"  recovery after kill: max {summary['recovery_max_s']:.2f}s "
              f"over {len(outcome.recoveries)} kill(s) "
              f"({stats['deaths']} deaths healed)")
    if reference is not None:
        verdict = ("all completed responses bit-identical to the "
                   "single-process engine"
                   if not outcome.mismatches
                   else f"{len(outcome.mismatches)} MISMATCHED response(s)")
        print(f"  verification: {verdict}")
    if args.telemetry:
        print(f"telemetry merged into {args.telemetry}/run.jsonl")
    return 1 if outcome.mismatches else 0


_DEFAULT_TUNE_SPACE = {
    "learning_rate": {"log_uniform": [0.2, 2.0]},
    "alpha": {"grid": [0.1, 0.2, 0.3]},
}


def _cmd_tune(args: argparse.Namespace) -> int:
    import json

    from .tune import SearchSpaceError, run_tuning

    if args.space is None:
        spec = _DEFAULT_TUNE_SPACE
    elif args.space.startswith("@"):
        with open(args.space[1:], encoding="utf-8") as handle:
            spec = json.load(handle)
    else:
        spec = json.loads(args.space)

    try:
        result = run_tuning(
            spec,
            dataset_name=args.dataset, source=args.source, target=args.target,
            seed=args.seed, num_samples=args.samples,
            scheduler=args.scheduler, min_epochs=args.min_epochs,
            max_epochs=args.max_epochs, eta=args.eta,
            train_fraction=args.train_fraction, split_seed=args.seed,
            workers=args.workers, out_dir=args.out,
        )
    except SearchSpaceError as error:
        raise SystemExit(f"bad search space: {error}")

    mode = f"{args.workers} workers" if args.workers >= 2 else "inline"
    print(f"tuned {len(result.trials)} trials over {len(result.rungs)} "
          f"rung(s) ({args.scheduler}, {mode}) in {result.wall_seconds:.1f}s "
          f"— {result.total_epochs} epochs trained")
    for decision in result.rungs:
        print(f"  rung {decision.rung} (budget {decision.budget}): "
              f"{len(decision.ranked)} trials, "
              f"promoted {len(decision.promoted)}, "
              f"killed {len(decision.killed)}")
    params = ", ".join(f"{k}={v}" for k, v in sorted(result.best_params.items()))
    print(f"best trial {result.best_trial}: valid RMSE "
          f"{result.best_rmse:.4f} ({params})")
    print(f"best config written to {result.artifact_path}")
    print(f"telemetry merged into {result.telemetry_dir}/run.jsonl "
          f"(summarize with `repro report`)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.validate:
        from pathlib import Path

        from .obs import find_shards

        target = Path(args.path)
        targets = [target]
        if target.is_dir():
            merged = target / "run.jsonl"
            # Validate the merged stream when present, raw shards otherwise.
            targets = [merged] if merged.exists() else find_shards(target)
            if not targets:
                raise SystemExit(f"{target}: no run.jsonl or telemetry shards")
        for item in targets:
            stats = validate_run_file(item)
            print(f"schema OK ({item.name}): {stats['events']} event(s), "
                  f"{stats['runs']} run(s), kinds: "
                  + ", ".join(f"{k}={v}" for k, v in sorted(stats["kinds"].items())))
    events = load_run_events(args.path)
    print(render_report(events))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "case-study":
        return _cmd_case_study(args)
    if args.command == "recommend":
        return _cmd_recommend(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    raise AssertionError(f"unhandled command {args.command!r}")
