"""Serving-daemon benchmark: latency, throughput and chaos robustness.

Drives the multi-worker :class:`RecommendDaemon` with zipf-skewed traffic
twice — once healthy, once with scripted worker kills mid-run — and
reports p50/p99 latency, request throughput, shed/timeout census, and
kill-to-recovery time. The hard gates are the robustness envelope, not
absolute speed (which is hardware-bound): **zero** responses may deviate
from the single-process reference engine, the failed fraction stays
inside the error budget, and the fleet recovers from every kill within
the recovery gate. Results are printed and written to
``BENCH_serving.json``. ``REPRO_BENCH_FAST=1`` shrinks the world for a
harness smoke run.
"""

from __future__ import annotations

from repro.core import OmniMatchTrainer
from repro.data import cold_start_split, generate_scenario, scale_target_catalog
from repro.perf import write_report
from repro.serve import (
    DaemonConfig,
    InferenceEngine,
    LoadTestConfig,
    RecommendDaemon,
    run_loadtest,
)

from conftest import FAST, WORLDS, bench_config, run_once

EPOCHS = 2 if FAST else 3
#: Catalog size after post-training growth (what the fleet shards).
CATALOG = 1_000 if FAST else 20_000
WORKERS = 2 if FAST else 4
REQUESTS = 80 if FAST else 400
CONCURRENCY = 4
K = 10
NLIST = 32 if FAST else 128
NPROBE = 8
#: Robustness gates (the point of this benchmark).
ERROR_BUDGET = 0.1
RECOVERY_GATE_S = 20.0


def _daemon_config(telemetry_dir=None) -> DaemonConfig:
    return DaemonConfig(
        workers=WORKERS,
        max_batch=8,
        queue_limit=4 * REQUESTS,  # latency run should never shed
        max_retries=3,
        nlist=NLIST,
        nprobe=NPROBE,
        ann_seed=0,
        telemetry_dir=telemetry_dir,
    )


def _run_suite() -> dict:
    dataset = generate_scenario("amazon", "books", "movies", **WORLDS["amazon"])
    split = cold_start_split(dataset, seed=0)
    config = bench_config(epochs=EPOCHS, early_stopping=False)
    result = OmniMatchTrainer(dataset, split, config).fit()

    grown = scale_target_catalog(
        dataset, CATALOG - len(dataset.target.items), seed=1
    )
    store = result.store.with_dataset(grown)
    reference = InferenceEngine(
        result, store=store, nlist=NLIST, nprobe=NPROBE, ann_seed=0
    )
    users = sorted(split.test_users) + sorted(split.train_users)
    items = sorted(grown.target.items)[:50]

    report: dict = {
        "fast": FAST,
        "catalog": CATALOG,
        "workers": WORKERS,
        "requests": REQUESTS,
    }

    # Phase 1 — healthy traffic: latency and throughput envelope.
    daemon = RecommendDaemon(result, _daemon_config(), store=store)
    daemon.start()
    assert daemon.wait_ready(timeout=120)
    try:
        healthy = run_loadtest(
            daemon,
            users,
            items,
            reference=reference,
            config=LoadTestConfig(
                requests=REQUESTS, concurrency=CONCURRENCY, k=K, seed=5
            ),
        )
    finally:
        daemon.stop()
    report["healthy"] = healthy.summary()

    # Phase 2 — same traffic while workers are killed mid-run.
    daemon = RecommendDaemon(result, _daemon_config(), store=store)
    daemon.start()
    assert daemon.wait_ready(timeout=120)
    kill_at = {REQUESTS // 4: 0, REQUESTS // 2: WORKERS - 1}
    try:
        chaos = run_loadtest(
            daemon,
            users,
            items,
            reference=reference,
            config=LoadTestConfig(
                requests=REQUESTS, concurrency=CONCURRENCY, k=K, seed=6
            ),
            kill_at=kill_at,
        )
        chaos_stats = daemon.stats()
    finally:
        daemon.stop()
    report["chaos"] = chaos.summary()
    report["chaos"]["deaths"] = chaos_stats["deaths"]
    report["chaos"]["retries"] = chaos_stats["retries"]
    report["mismatches"] = healthy.mismatches + chaos.mismatches
    return report


def test_serving_daemon(benchmark):
    report = run_once(benchmark, _run_suite)

    print()
    print(
        f"serving daemon — catalog {report['catalog']}, "
        f"{report['workers']} workers, {report['requests']} requests/phase"
    )
    for phase in ("healthy", "chaos"):
        s = report[phase]
        print(
            f"  {phase:8s}  p50 {s['latency_p50_ms']:8.2f} ms   "
            f"p99 {s['latency_p99_ms']:8.2f} ms   "
            f"{s['requests_per_sec']:7.1f} req/s   "
            f"ok {s['ok']}/{s['sent']}  shed {s['shed']}  "
            f"timeouts {s['timeouts']}  errors {s['errors']}"
        )
    print(
        f"  chaos: deaths {report['chaos']['deaths']}  "
        f"retries {report['chaos']['retries']}  "
        f"recovery max {report['chaos']['recovery_max_s']:.2f}s  "
        f"mismatches {len(report['mismatches'])}"
    )

    write_report("BENCH_serving.json", report)

    # Robustness gates hold at every scale, FAST included: correctness and
    # recovery are not allowed to be hardware-dependent.
    assert report["mismatches"] == []
    assert report["healthy"]["failed_fraction"] == 0.0
    assert report["chaos"]["failed_fraction"] <= ERROR_BUDGET
    assert report["chaos"]["deaths"] >= 2
    assert report["chaos"]["recovery_max_s"] <= RECOVERY_GATE_S
    assert report["healthy"]["latency_p99_ms"] > 0.0
