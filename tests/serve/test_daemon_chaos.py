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
from repro.serve.daemon import DRAIN_TIMEOUT_S, LEVEL_CACHED_ONLY, _Job

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
    config = DaemonConfig(workers=2, nlist=8, nprobe=2, ann_seed=0, **overrides)
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


class _StubSupervisor:
    """Generation lookups and SIGKILLs recorded, nothing killed."""

    def __init__(self):
        self.kills = []

    def generation(self, slot):
        return 0

    def kill(self, slot):
        self.kills.append(slot)


class TestStalls:
    def test_watchdog_counts_one_kill_per_stalled_worker(self, trained):
        # Housekeeping ticks every 10 ms; a slot still pending after its
        # SIGKILL (the death not reaped yet) must not be killed or counted
        # again on the next tick.
        daemon = RecommendDaemon(trained, DaemonConfig(stall_timeout_s=0.5))
        daemon._supervisor = supervisor = _StubSupervisor()
        daemon._outstanding[0] = _Job(
            job_id=0, request=None, op="recommend", payloads={0: {}},
            pending={0}, level=0, dispatched={0: time.monotonic() - 5.0},
        )
        daemon._watchdog()
        daemon._watchdog()
        assert daemon._counters["stall_kills"] == 1
        assert supervisor.kills == [0]

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
        # The respawn may itself overrun the budget on a loaded box, so the
        # exact count is pinned by the stub test above, not here.
        assert stats["stall_kills"] >= 1
        assert stats["deaths"] >= 1
        assert stats["errors"] == 0
        deaths = [
            e for e in load_run_events(tmp_path / "run.jsonl")
            if e["kind"] == "worker_death"
        ]
        assert [
            (e["worker"], e["generation"]) for e in deaths
        ].count((0, 0)) == 1
        assert deaths[0]["worker"] == 0 and deaths[0]["generation"] == 0
        assert deaths[0]["stalled"] is True
        assert deaths[0]["requeued"] == 1


def spy_sends(daemon, monkeypatch):
    """Record ``(time, slot, jobs)`` for every batch the daemon sends."""
    sent = []
    send = daemon._supervisor.send

    def spy(slot, message):
        sent.append((time.monotonic(), slot, message[1]))
        send(slot, message)

    monkeypatch.setattr(daemon._supervisor, "send", spy)
    return sent


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


class TestIdleFirstPlacement:
    def test_single_slot_jobs_skip_a_stalled_slot(
        self, trained, reference, users, test_pairs, monkeypatch
    ):
        # Slot 0 wedges on its first batch for 5 s (inside the watchdog's
        # budget). While it is busy, every single-slot job must go to the
        # idle slot 1 and come back at once; round robin would queue every
        # other one behind the stall.
        plan = WorkerFaultPlan(stalls={(0, 0, 0): 5.0})
        daemon = make_daemon(trained, fault_plan=plan, stall_timeout_s=60.0)
        sends = spy_sends(daemon, monkeypatch)
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                stalled = client.send(
                    {"op": "recommend", "user": users[0], "k": 5, "retrieval": "ivf"}
                )
                wait_for(lambda: sends)
                assert sends[0][1] == 0
                for i, user in enumerate(users[1:4]):
                    response = client.request(
                        {"op": "recommend", "user": user, "k": 5, "retrieval": "ivf"},
                        timeout=2.0,
                    )
                    assert response["status"] == "ok"
                    assert response["items"] == wire_items(
                        reference, user, 5, retrieval="ivf"
                    )
                    pairs = test_pairs[3 * i:3 * i + 3]
                    response = client.request(
                        {"op": "score", "pairs": pairs}, timeout=2.0
                    )
                    assert response["status"] == "ok"
                    assert response["scores"] == [
                        float(s) for s in reference.score_pairs(pairs)
                    ]
                assert [slot for _, slot, _ in sends[1:]] == [1] * 6
                response = client.wait(stalled, timeout=30)
                assert response["status"] == "ok"
                assert response["items"] == wire_items(
                    reference, users[0], 5, retrieval="ivf"
                )
            stats = daemon.stats()
        finally:
            daemon.stop()
        assert stats["deaths"] == 0 and stats["stall_kills"] == 0


class TestOverload:
    """Both slots stalled, then a pipelined burst: the intake holds what
    no idle slot can take, sheds beyond ``queue_limit``, and lets the held
    requests go in batches of at most ``max_batch``."""

    STALL_S = 2.0

    def occupy_both_slots(self, client, sends, users):
        # An exact recommend fans out: one batch to each slot, both stall.
        occupier = client.send({"op": "recommend", "user": users[0], "k": 5})
        wait_for(lambda: len(sends) == 2)
        return occupier

    def make_stalled_daemon(self, trained, **overrides):
        plan = WorkerFaultPlan(
            stalls={(0, 0, 0): self.STALL_S, (1, 0, 0): self.STALL_S}
        )
        return make_daemon(
            trained, fault_plan=plan, stall_timeout_s=60.0, **overrides
        )

    def test_burst_beyond_queue_limit_sheds_and_held_requests_batch(
        self, trained, reference, users, monkeypatch
    ):
        daemon = self.make_stalled_daemon(trained, queue_limit=4)
        sends = spy_sends(daemon, monkeypatch)
        burst = [users[1 + i % 5] for i in range(10)]
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                occupier = self.occupy_both_slots(client, sends, users)
                ids = [
                    client.send({"op": "recommend", "user": user, "k": 5})
                    for user in burst
                ]
                responses = [client.wait(i, timeout=30) for i in ids]
                assert client.wait(occupier, timeout=30)["status"] == "ok"
            stats = daemon.stats()
        finally:
            daemon.stop()
        # Nothing leaves the intake while both slots are busy and it holds
        # fewer than max_batch requests, so exactly queue_limit are held.
        assert [r["status"] for r in responses] == ["ok"] * 4 + ["shed"] * 6
        assert {r["reason"] for r in responses[4:]} == {"queue_full"}
        for user, response in zip(burst, responses[:4]):
            assert response["items"] == wire_items(reference, user, 5)
        # When a slot frees, the four go out in one dispatch.
        assert sorted(slot for _, slot, _ in sends[2:]) == [0, 1]
        assert [len(jobs) for _, _, jobs in sends[2:]] == [4, 4]
        assert stats["shed"] == 6 and stats["errors"] == 0

    def test_full_intake_flushes_to_busy_slots_at_max_batch(
        self, trained, reference, users, monkeypatch
    ):
        daemon = self.make_stalled_daemon(trained, max_batch=2)
        sends = spy_sends(daemon, monkeypatch)
        burst = users[1:6]
        try:
            with ServeClient(daemon.config.host, daemon.port) as client:
                occupier = self.occupy_both_slots(client, sends, users)
                ids = [
                    client.send({"op": "recommend", "user": user, "k": 5})
                    for user in burst
                ]
                responses = [client.wait(i, timeout=30) for i in ids]
                assert client.wait(occupier, timeout=30)["status"] == "ok"
        finally:
            daemon.stop()
        for user, response in zip(burst, responses):
            assert response["status"] == "ok"
            assert response["items"] == wire_items(reference, user, 5)
        # Two full batches went to the busy slots; the fifth request
        # waited for a slot to free.
        batches = [len(jobs) for _, _, jobs in sends[2:]]
        assert batches == [2, 2, 2, 2, 1, 1]
        occupied_at = sends[0][0]
        assert all(
            t < occupied_at + self.STALL_S for t, _, _ in sends[2:6]
        )
        assert sends[6][0] >= occupied_at + self.STALL_S * 0.9

    def test_stop_drains_held_requests(
        self, trained, reference, users, monkeypatch
    ):
        # Requests held while both slots are busy are part of stop()'s
        # drain: they are sent and answered, and stop() returns once the
        # stall is over, not after its whole drain window.
        daemon = self.make_stalled_daemon(trained)
        sends = spy_sends(daemon, monkeypatch)
        held_users = users[1:4]
        with ServeClient(daemon.config.host, daemon.port) as client:
            occupier = self.occupy_both_slots(client, sends, users)
            ids = [
                client.send({"op": "recommend", "user": user, "k": 5})
                for user in held_users
            ]
            wait_for(lambda: daemon.stats()["queued"] == len(ids))
            started = time.monotonic()
            daemon.stop()
            stopped_in = time.monotonic() - started
            assert client.wait(occupier, timeout=5)["status"] == "ok"
            for request_id, user in zip(ids, held_users):
                response = client.wait(request_id, timeout=5)
                assert response["status"] == "ok"
                assert response["items"] == wire_items(reference, user, 5)
        assert stopped_in < DRAIN_TIMEOUT_S - 1.0


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
