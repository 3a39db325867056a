"""Functional tests for the multi-worker recommendation daemon.

The headline guarantee: every ``ok`` response is bit-identical to what a
single-process :class:`InferenceEngine` computes — sharding, batching and
degradation may change *latency* and *availability*, never *content*.
"""

import time

import pytest

from repro.serve import (
    DaemonConfig,
    InferenceEngine,
    RecommendDaemon,
    ServeClient,
)
from repro.serve.daemon import (
    LEVEL_APPROXIMATE,
    LEVEL_CACHED_ONLY,
    LEVEL_NORMAL,
)
from repro.serve.protocol import encode_message


@pytest.fixture(scope="module")
def daemon(trained):
    config = DaemonConfig(workers=2, nlist=8, nprobe=2, ann_seed=0)
    daemon = RecommendDaemon(trained, config).start()
    assert daemon.wait_ready(timeout=60)
    yield daemon
    daemon.stop()


@pytest.fixture(scope="module")
def reference(trained):
    return InferenceEngine(trained, nlist=8, nprobe=2, ann_seed=0)


@pytest.fixture(scope="module")
def users(world):
    dataset, split = world
    test = {r.user_id for r in split.eval_interactions(dataset, "test")}
    return sorted(test)[:6]


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.config.host, daemon.port) as client:
        yield client


def wire_items(engine, user, k, **kwargs):
    return [[r.item_id, r.score] for r in engine.recommend(user, k, **kwargs)]


class TestLifecycle:
    def test_probes_answer(self, client, daemon):
        health = client.health()
        assert health["alive"] is True
        assert health["workers_alive"] == 2
        assert client.ready()["ready"] is True
        stats = client.stats()["stats"]
        assert stats["workers"] == 2
        assert stats["received"] >= 0

    def test_stop_is_idempotent_and_reports(self, trained):
        daemon = RecommendDaemon(trained, DaemonConfig(workers=1)).start()
        assert daemon.wait_ready(timeout=60)
        first = daemon.stop()
        assert first["workers_alive"] == 0
        assert daemon.stop()["workers_alive"] == 0  # second stop is a no-op

    def test_stop_returns_promptly(self, trained):
        # The accept thread must wake when the listener closes, not wait out
        # stop()'s thread-join timeout.
        daemon = RecommendDaemon(trained, DaemonConfig(workers=1)).start()
        assert daemon.wait_ready(timeout=60)
        started = time.monotonic()
        daemon.stop()
        assert time.monotonic() - started < 1.0

    def test_context_manager_serves_and_stops(self, trained, users, reference):
        with RecommendDaemon(trained, DaemonConfig(workers=1)) as daemon:
            assert daemon.wait_ready(timeout=60)
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.recommend(users[0], k=3)
        assert response["status"] == "ok"
        assert response["items"] == wire_items(reference, users[0], 3)


class TestBitIdentity:
    def test_recommend_exact_matches_reference(self, client, reference, users):
        for user in users:
            response = client.recommend(user, k=5)
            assert response["status"] == "ok"
            assert response["retrieval"] == "exact"
            assert response["items"] == wire_items(reference, user, 5)

    def test_recommend_ivf_matches_reference(self, client, reference, users):
        for user in users[:3]:
            response = client.recommend(user, k=5, retrieval="ivf")
            assert response["status"] == "ok"
            assert response["retrieval"] == "ivf"
            assert response["items"] == wire_items(
                reference, user, 5, retrieval="ivf"
            )

    def test_k_beyond_catalog_is_clamped(self, client, reference, users):
        catalog = len(reference.items)
        response = client.recommend(users[0], k=catalog + 50)
        assert response["status"] == "ok"
        assert response["items"] == wire_items(reference, users[0], catalog + 50)

    def test_exclusions_apply_over_the_wire(self, client, reference, users):
        user = users[1]
        exclude = [r.item_id for r in reference.recommend(user, 2)]
        response = client.recommend(user, k=5, exclude=exclude)
        assert response["items"] == wire_items(
            reference, user, 5, exclude_items=exclude
        )
        returned = {item for item, _ in response["items"]}
        assert not returned & set(exclude)

    def test_scores_match_reference_exactly(self, client, reference, users, test_pairs):
        pairs = test_pairs[:8]
        response = client.score(pairs)
        assert response["status"] == "ok"
        assert response["scores"] == [float(s) for s in reference.score_pairs(pairs)]

    def test_warm_then_serve(self, client, reference, users):
        response = client.warm(users)
        assert response["status"] == "ok"
        assert response["warmed"] >= 0
        after = client.recommend(users[2], k=4)
        assert after["items"] == wire_items(reference, users[2], 4)

    def test_pipelined_requests_all_come_back_correct(
        self, client, reference, users
    ):
        sent = {
            client.send({"op": "recommend", "user": user, "k": 3}): user
            for user in users
        }
        for request_id, user in sent.items():
            response = client.wait(request_id, timeout=30)
            assert response["status"] == "ok"
            assert response["items"] == wire_items(reference, user, 3)


class TestPlacement:
    """Which slots a job reaches, seen through a spy on the supervisor's
    ``send``: exact recommends fan out over the shards, IVF recommends and
    ``warm``/``score`` ops go to one slot, the next idle one in round-robin
    order."""

    @pytest.fixture()
    def sends(self, daemon, monkeypatch):
        sent = []
        send = daemon._supervisor.send

        def spy(slot, message):
            sent.append((slot, message))
            send(slot, message)

        monkeypatch.setattr(daemon._supervisor, "send", spy)
        return sent

    @staticmethod
    def jobs(sends, op):
        return [
            (slot, job)
            for slot, (_, batch) in sends
            for job in batch
            if job["op"] == op
        ]

    @pytest.mark.parametrize("exclude_count", [0, 2])
    def test_ivf_recommend_goes_to_one_slot(
        self, client, reference, users, sends, exclude_count
    ):
        user = users[3]
        exclude = [
            r.item_id for r in reference.recommend(user, 3, retrieval="ivf")
        ][:exclude_count]
        response = client.recommend(user, k=5, retrieval="ivf", exclude=exclude)
        assert response["status"] == "ok"
        assert response["items"] == wire_items(
            reference, user, 5, retrieval="ivf", exclude_items=exclude
        )
        ((slot, job),) = self.jobs(sends, "recommend")
        assert slot in (0, 1)
        assert (job["lo"], job["hi"]) == (0, len(reference.items))

    def test_consecutive_ivf_recommends_alternate_slots(
        self, client, users, sends
    ):
        for user in users[:2]:
            assert client.recommend(user, k=3, retrieval="ivf")["status"] == "ok"
        slots = [slot for slot, _ in self.jobs(sends, "recommend")]
        assert sorted(slots) == [0, 1]

    def test_exact_recommend_fans_out_over_the_shards(
        self, client, reference, users, sends
    ):
        response = client.recommend(users[4], k=5)
        assert response["items"] == wire_items(reference, users[4], 5)
        ranges = {
            slot: (job["lo"], job["hi"])
            for slot, job in self.jobs(sends, "recommend")
        }
        half = (len(reference.items) + 1) // 2
        assert ranges == {0: (0, half), 1: (half, len(reference.items))}

    def test_consecutive_warms_reach_both_slots(self, client, users, sends):
        for _ in range(2):
            assert client.warm(users[:2])["status"] == "ok"
        assert sorted(slot for slot, _ in self.jobs(sends, "warm")) == [0, 1]


class TestWorkConserving:
    def test_lone_request_on_idle_fleet_is_sent_without_waiting(
        self, client, daemon, reference, users, monkeypatch
    ):
        # Spy on the batcher's condition: every wait records how many
        # requests sat in the intake. On an idle fleet an admitted request
        # must go straight to a worker, so no wait may ever see one.
        intake_at_wait = []
        wait = daemon._cv.wait

        def spy(timeout=None):
            intake_at_wait.append(len(daemon._intake))
            return wait(timeout)

        monkeypatch.setattr(daemon._cv, "wait", spy)
        for user in users[:5]:
            response = client.recommend(user, k=3, retrieval="ivf")
            assert response["status"] == "ok"
            assert response["items"] == wire_items(
                reference, user, 3, retrieval="ivf"
            )
        assert intake_at_wait  # the batcher did wait, with nothing queued
        assert not any(intake_at_wait)


class TestRequestErrors:
    def test_malformed_request_errors_without_side_effects(self, client):
        response = client.request({"op": "explode"})
        assert response["status"] == "error"
        assert "unknown op" in response["error"]
        assert client.health()["alive"] is True

    def test_missing_user_rejected(self, client):
        response = client.request({"op": "recommend"})
        assert response["status"] == "error"

    def test_expired_deadline_times_out(self, client, users):
        response = client.recommend(users[0], k=3, deadline_ms=0)
        assert response["status"] == "timeout"

    def test_generous_deadline_succeeds(self, client, reference, users):
        response = client.recommend(users[0], k=3, deadline_ms=30_000)
        assert response["status"] == "ok"
        assert response["items"] == wire_items(reference, users[0], 3)


class TestOversizedResponse:
    def test_oversized_response_is_answered_with_an_error(
        self, client, users, monkeypatch
    ):
        # Every catalog item in one recommend outgrows a 512-byte line.
        monkeypatch.setattr("repro.serve.protocol.MAX_LINE_BYTES", 512)
        response = client.request(
            {"op": "recommend", "user": users[0], "k": 1000, "id": 41},
            timeout=5.0,
        )
        assert response == {
            "id": 41, "status": "error",
            "error": "response exceeds MAX_LINE_BYTES",
        }

    def test_oversized_id_is_answered_and_daemon_keeps_serving(
        self, client, users, monkeypatch
    ):
        # A request that just fits one 512-byte line, whose id alone makes
        # even the error answer too long: the answer drops the id, and the
        # thread that sent it keeps answering later requests.
        monkeypatch.setattr("repro.serve.protocol.MAX_LINE_BYTES", 512)
        request = {"op": "recommend", "user": users[0], "k": 3, "id": ""}
        request["id"] = "x" * (512 - len(encode_message(request)))
        client.send(request)
        assert client.wait(None, timeout=5.0) == {
            "id": None, "status": "error",
            "error": "response exceeds MAX_LINE_BYTES",
        }
        response = client.request(
            {"op": "recommend", "user": users[0], "k": 3, "id": 42},
            timeout=5.0,
        )
        assert response["status"] == "ok"


class TestLoadShedding:
    def test_zero_queue_sheds_compute_but_answers_probes(self, trained, users):
        config = DaemonConfig(workers=1, queue_limit=0)
        with RecommendDaemon(trained, config) as daemon:
            assert daemon.wait_ready(timeout=60)
            with ServeClient(daemon.config.host, daemon.port) as client:
                response = client.recommend(users[0], k=3)
                assert response["status"] == "shed"
                assert response["reason"] == "queue_full"
                assert client.health()["alive"] is True
            stats = daemon.stats()
        assert stats["shed"] == 1
        assert stats["completed"] == 0


class TestDegradationLadder:
    """White-box: the ladder is pure state over (depth, level), so it is
    tested without sockets by shaping the intake directly."""

    @pytest.fixture()
    def idle_daemon(self, trained):
        return RecommendDaemon(
            trained, DaemonConfig(degrade_soft=4, degrade_hard=8)
        )

    def set_depth(self, daemon, depth):
        daemon._intake.clear()
        daemon._intake.extend(object() for _ in range(depth))

    def test_escalates_at_soft_then_hard(self, idle_daemon):
        assert idle_daemon._level == LEVEL_NORMAL
        self.set_depth(idle_daemon, 4)
        idle_daemon._update_level()
        assert idle_daemon._level == LEVEL_APPROXIMATE
        self.set_depth(idle_daemon, 8)
        idle_daemon._update_level()
        assert idle_daemon._level == LEVEL_CACHED_ONLY

    def test_recovers_with_hysteresis(self, idle_daemon):
        self.set_depth(idle_daemon, 8)
        idle_daemon._update_level()
        assert idle_daemon._level == LEVEL_CACHED_ONLY
        # Draining below hard/2 steps down one level, not to normal.
        self.set_depth(idle_daemon, 4)
        idle_daemon._update_level()
        assert idle_daemon._level == LEVEL_CACHED_ONLY  # 4 > hard//2
        self.set_depth(idle_daemon, 3)
        idle_daemon._update_level()
        assert idle_daemon._level == LEVEL_APPROXIMATE
        self.set_depth(idle_daemon, 3)
        idle_daemon._update_level()
        assert idle_daemon._level == LEVEL_APPROXIMATE  # 3 > soft//2
        self.set_depth(idle_daemon, 2)
        idle_daemon._update_level()
        assert idle_daemon._level == LEVEL_NORMAL

    def test_each_transition_counts_one_degrade(self, idle_daemon):
        self.set_depth(idle_daemon, 8)
        idle_daemon._update_level()
        idle_daemon._update_level()  # no change, no count
        self.set_depth(idle_daemon, 0)
        idle_daemon._update_level()
        assert idle_daemon._counters["degrades"] == 2
