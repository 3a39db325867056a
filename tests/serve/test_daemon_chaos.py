"""Chaos suite for the daemon: scripted deaths, stalls and poison.

Every fault here is deterministic (repro.faults plans keyed on worker
slot/generation/unit coordinates, one unit per request batch), and the acceptance bar is always the
same: the daemon may spend latency absorbing a fault, but every ``ok``
response stays bit-identical to the single-process reference engine, no
request goes unanswered, and the fleet heals back to full strength.
"""

import os
import signal
import time

import pytest

from repro.faults import POISON_USER, WorkerFaultPlan
from repro.obs import load_run_events, render_report, validate_run_file
from repro.parallel import attach
from repro.serve import (
    DaemonConfig,
    InferenceEngine,
    LoadTestConfig,
    RecommendDaemon,
    ServeClient,
    build_schedule,
    run_loadtest,
)
from repro.serve.daemon import LEVEL_CACHED_ONLY

FAST = bool(os.environ.get("REPRO_CHAOS_FAST"))


@pytest.fixture(scope="module")
def reference(trained):
    return InferenceEngine(trained, nlist=8, nprobe=2, ann_seed=0)


@pytest.fixture(scope="module")
def users(world):
    dataset, split = world
    test = {r.user_id for r in split.eval_interactions(dataset, "test")}
    return sorted(test)


def wire_items(engine, user, k, **kwargs):
    return [[r.item_id, r.score] for r in engine.recommend(user, k, **kwargs)]


def make_daemon(trained, **overrides):
    config = DaemonConfig(
        workers=2, nlist=8, nprobe=2, ann_seed=0, max_delay_ms=1.0, **overrides
    )
    daemon = RecommendDaemon(trained, config).start()
    assert daemon.wait_ready(timeout=60)
    return daemon


class TestScheduledKills:
    def test_worker_death_mid_request_is_absorbed(
        self, trained, reference, users
    ):
        # Slot 0 generation 0 dies on its very first batch: the request is
        # requeued onto the respawned generation and completes exactly.
        plan = WorkerFaultPlan(kills=[(0, 0, 0)])
        daemon = make_daemon(trained, fault_plan=plan)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.request(
                    {"op": "recommend", "user": users[0], "k": 5}, timeout=60
                )
            assert response["status"] == "ok"
            assert response["items"] == wire_items(reference, users[0], 5)
            stats = daemon.stats()
        finally:
            daemon.stop()
        assert stats["deaths"] == 1
        assert stats["retries"] >= 1
        assert stats["errors"] == 0
        assert stats["workers_alive"] == 2  # the fleet healed

    def test_single_slot_ivf_recommend_is_requeued_on_its_slot(
        self, trained, reference, users
    ):
        # An IVF recommend runs on one slot; both slots' first generation
        # dies on its first batch, so whichever slot gets the job, the job
        # is requeued onto that slot's respawn and completes exactly.
        plan = WorkerFaultPlan(kills=[(0, 0, 0), (1, 0, 0)])
        daemon = make_daemon(trained, fault_plan=plan)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.request(
                    {
                        "op": "recommend",
                        "user": users[0],
                        "k": 5,
                        "retrieval": "ivf",
                    },
                    timeout=60,
                )
            assert response["status"] == "ok"
            assert response["items"] == wire_items(
                reference, users[0], 5, retrieval="ivf"
            )
            stats = daemon.stats()
        finally:
            daemon.stop()
        assert stats["deaths"] == 1  # the other slot never got a batch
        assert stats["retries"] == 1
        assert stats["errors"] == 0

    def test_retry_budget_exhaustion_surfaces_as_error(
        self, trained, users
    ):
        # Slot 0 dies on its first batch in every generation; with one
        # retry allowed the request must fail loudly, not hang.
        plan = WorkerFaultPlan(kills=[(0, g, 0) for g in range(4)])
        daemon = make_daemon(trained, fault_plan=plan, max_retries=1)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.request(
                    {"op": "recommend", "user": users[0], "k": 5}, timeout=60
                )
            assert response["status"] == "error"
            assert "retry budget exhausted" in response["error"]
            stats = daemon.stats()
        finally:
            daemon.stop()
        assert stats["deaths"] == 2
        assert stats["errors"] == 1

    def test_external_kill_between_requests_is_absorbed(
        self, trained, reference, users
    ):
        daemon = make_daemon(trained)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                before = client.recommend(users[1], k=4)
                assert before["status"] == "ok"
                daemon.kill_worker(0)
                after = client.request(
                    {"op": "recommend", "user": users[2], "k": 4}, timeout=60
                )
            assert after["status"] == "ok"
            assert after["items"] == wire_items(reference, users[2], 4)
            stats = daemon.stats()
        finally:
            daemon.stop()
        assert stats["deaths"] >= 1
        assert stats["workers_alive"] == 2


    def test_sigterm_to_a_worker_spares_the_catalog_segment(
        self, trained, reference, users
    ):
        # A forked worker inherits the parent's shm registry and its
        # SIGTERM sweep; neither may unlink the catalog the fleet shares,
        # or every respawn would die attaching it.
        daemon = make_daemon(trained)
        try:
            os.kill(daemon._supervisor.pid(0), signal.SIGTERM)
            deadline = time.monotonic() + 30
            while daemon.stats()["deaths"] == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert daemon.wait_ready(timeout=30)
            attach(daemon._pack.ref).close()  # the segment is still there
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.request(
                    {"op": "recommend", "user": users[0], "k": 5}, timeout=60
                )
            assert response["status"] == "ok"
            assert response["items"] == wire_items(reference, users[0], 5)
            stats = daemon.stats()
        finally:
            daemon.stop()
        assert stats["deaths"] == 1


class TestStalls:
    def test_watchdog_converts_wedge_into_death(
        self, trained, reference, users, tmp_path
    ):
        # Slot 0 generation 0 wedges on its first batch far past the stall
        # budget; the watchdog SIGKILLs it and the respawn completes the
        # request bit-identically.
        plan = WorkerFaultPlan(stalls={(0, 0, 0): 60.0})
        daemon = make_daemon(
            trained, fault_plan=plan, stall_timeout_s=0.5, telemetry_dir=str(tmp_path)
        )
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.request(
                    {"op": "recommend", "user": users[0], "k": 5}, timeout=60
                )
            assert response["status"] == "ok"
            assert response["items"] == wire_items(reference, users[0], 5)
            stats = daemon.stats()
        finally:
            daemon.stop()
        assert stats["stall_kills"] >= 1
        assert stats["deaths"] >= 1
        assert stats["errors"] == 0
        deaths = [
            e for e in load_run_events(tmp_path / "run.jsonl")
            if e["kind"] == "worker_death"
        ]
        assert deaths[0]["worker"] == 0 and deaths[0]["generation"] == 0
        assert deaths[0]["stalled"] is True
        assert deaths[0]["requeued"] == 1


class TestPoison:
    def test_poisoned_request_errors_without_collateral(
        self, trained, reference, users
    ):
        daemon = make_daemon(trained)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                # Pipeline the poison between two healthy requests.
                healthy_1 = client.send(
                    {"op": "recommend", "user": users[0], "k": 4}
                )
                poison = client.send(
                    {"op": "recommend", "user": POISON_USER, "k": 4}
                )
                healthy_2 = client.send(
                    {"op": "recommend", "user": users[1], "k": 4}
                )
                poisoned = client.wait(poison, timeout=60)
                assert poisoned["status"] == "error"
                assert "poisoned request" in poisoned["error"]
                for request_id, user in (
                    (healthy_1, users[0]),
                    (healthy_2, users[1]),
                ):
                    response = client.wait(request_id, timeout=60)
                    assert response["status"] == "ok"
                    assert response["items"] == wire_items(reference, user, 4)
            stats = daemon.stats()
        finally:
            daemon.stop()
        # Poison is the request's fault: no worker died absorbing it.
        assert stats["deaths"] == 0
        assert stats["workers_alive"] == 2

    def test_poisoned_score_pairs_error_too(self, trained, users):
        daemon = make_daemon(trained)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.score([[POISON_USER, "nope"]])
            assert response["status"] == "error"
        finally:
            daemon.stop()


class TestDegradedServing:
    def test_cached_only_level_sheds_cold_users_serves_warm_ones(
        self, trained, reference, users, monkeypatch
    ):
        daemon = make_daemon(trained)
        # Pin the level: the housekeeping tick would otherwise reset an
        # idle daemon to normal before the next request arrives.
        monkeypatch.setattr(daemon, "_update_level", lambda: None)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                warm_user, cold_user = users[0], users[1]
                assert client.recommend(warm_user, k=4)["status"] == "ok"
                with daemon._lock:
                    daemon._level = LEVEL_CACHED_ONLY
                cold = client.recommend(cold_user, k=4)
                assert cold["status"] == "shed"
                assert cold["reason"] == "cold_user_degraded"
                warm = client.recommend(warm_user, k=4)
                assert warm["status"] == "ok"
                # Level 2 forces approximate retrieval — still bit-exact
                # against the reference engine in the same mode.
                assert warm["retrieval"] == "ivf"
                assert warm["level"] == LEVEL_CACHED_ONLY
                assert warm["items"] == wire_items(
                    reference, warm_user, 4, retrieval="ivf"
                )
                # An explicit retrieval pin still wins over the ladder.
                pinned = client.recommend(warm_user, k=4, retrieval="exact")
                assert pinned["items"] == wire_items(reference, warm_user, 4)
        finally:
            daemon.stop()


class TestLoadSchedule:
    def test_schedule_is_deterministic_per_seed(self, users):
        config = LoadTestConfig(requests=40, seed=7)
        items = [f"i{i}" for i in range(10)]
        assert build_schedule(users, items, config) == build_schedule(
            users, items, config
        )
        other = build_schedule(users, items, LoadTestConfig(requests=40, seed=8))
        assert other != build_schedule(users, items, config)

    def test_zipf_skew_prefers_head_users(self, users):
        config = LoadTestConfig(requests=300, zipf_s=1.5, score_fraction=0.0)
        schedule = build_schedule(users, [], config)
        head = sum(1 for r in schedule if r["user"] == users[0])
        tail = sum(1 for r in schedule if r["user"] == users[-1])
        assert head > tail


class TestLoadUnderChaos:
    """The headline acceptance test: zipf traffic, scripted kills, zero
    incorrect responses, bounded failures, measured recovery."""

    def test_loadtest_with_kills_yields_zero_mismatches(
        self, trained, reference, users, world, tmp_path
    ):
        dataset, _ = world
        requests = 30 if FAST else 80
        daemon = make_daemon(
            trained, telemetry_dir=str(tmp_path), max_retries=3
        )
        config = LoadTestConfig(
            requests=requests,
            concurrency=3,
            k=5,
            score_fraction=0.25,
            seed=11,
        )
        items = sorted(dataset.target.items)[:20]
        kill_at = {requests // 4: 0, requests // 2: 1}
        try:
            result = run_loadtest(
                daemon,
                users,
                items,
                reference=reference,
                config=config,
                kill_at=kill_at,
            )
            stats = daemon.stats()
        finally:
            daemon.stop()

        assert result.mismatches == []  # zero incorrect responses, ever
        assert result.sent == requests
        assert result.ok + result.failed == requests
        # Error budget: worker deaths may cost retries, never silent drops,
        # and with retries available nearly everything completes.
        assert result.ok >= requests * 0.9
        assert stats["deaths"] >= 2
        assert result.recoveries  # each kill's recovery was measured
        assert max(result.recoveries) < 30.0
        summary = result.summary()
        assert summary["mismatches"] == 0
        assert summary["failed_fraction"] <= 0.1

        # The run's telemetry merged into a schema-valid story.
        stats_file = validate_run_file(tmp_path / "run.jsonl")
        assert stats_file["kinds"]["worker_death"] == stats["deaths"] >= 2
        events = load_run_events(tmp_path / "run.jsonl")
        text = render_report(events)
        assert "serving daemon" in text
        assert "chaos absorbed" in text
