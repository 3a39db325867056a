"""UserReprCache under churn: eviction pressure never changes results.

Property-style suite (satellite): drive a seeded random interleaving of
``get_many`` / ``warm`` / ``evict`` against a cache whose capacity is far
below the working set, and assert every returned row is bit-identical to
an uncached oracle. The daemon leans on exactly this invariant — level-2
degradation serves cached users while the catalog churns through the LRU,
and a row that drifted after re-encoding would silently corrupt rankings.
"""

import numpy as np
import pytest

from repro.obs import load_run_events
from repro.serve import (
    DaemonConfig,
    InferenceEngine,
    RecommendDaemon,
    ServeClient,
    UserReprCache,
)


def oracle_encoder():
    """Deterministic per-user rows, independent of batch composition."""

    def encode(user_ids):
        seeds = [abs(hash(u)) % 997 for u in user_ids]
        invariant = np.array(
            [[s * 0.5, s * 0.25, s * 0.125] for s in seeds], dtype=np.float64
        )
        user_repr = np.array(
            [[s, s + 1.0, s + 2.0, s + 3.0] for s in seeds], dtype=np.float64
        )
        return invariant, user_repr

    return encode


def expected_rows(user_ids):
    return oracle_encoder()(user_ids)


class TestChurnProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_random_interleaving_matches_oracle(self, seed, capacity):
        rng = np.random.default_rng(seed)
        users = [f"user-{i}" for i in range(capacity * 4)]
        cache = UserReprCache(oracle_encoder(), capacity=capacity)
        for _ in range(120):
            op = rng.choice(["get", "warm", "evict"], p=[0.7, 0.2, 0.1])
            batch = [
                users[i]
                for i in rng.integers(0, len(users), rng.integers(1, 6))
            ]
            if op == "get":
                invariant, user_repr = cache.get_many(batch)
                want_inv, want_repr = expected_rows(batch)
                np.testing.assert_array_equal(invariant, want_inv)
                np.testing.assert_array_equal(user_repr, want_repr)
            elif op == "warm":
                cache.warm(batch)
            else:
                cache.evict(batch[0])
            assert len(cache) <= capacity

    @pytest.mark.parametrize("seed", [0, 7])
    def test_counters_stay_consistent_under_churn(self, seed):
        rng = np.random.default_rng(seed)
        users = [f"user-{i}" for i in range(12)]
        cache = UserReprCache(oracle_encoder(), capacity=3)
        requested = 0
        for _ in range(80):
            batch = [
                users[i]
                for i in rng.integers(0, len(users), rng.integers(1, 5))
            ]
            cache.get_many(batch)
            requested += len(batch)
            # Every requested row was either a hit or a miss, exactly once.
            assert cache.hits + cache.misses == requested
            # Evictions can never outrun insertions (= misses + warms).
            assert cache.evictions <= cache.misses
        assert cache.misses > len(users)  # churn actually re-encoded users

    def test_warm_then_evict_then_get_reencodes_identically(self):
        cache = UserReprCache(oracle_encoder(), capacity=4)
        cache.warm(["a", "b"])
        first = cache.get_many(["a", "b"])
        assert cache.evict("a") is True
        second = cache.get_many(["a", "b"])
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestEngineUnderChurn:
    """The same property end-to-end: a tiny-cache engine must agree with an
    unconstrained one on every recommendation and score, bit for bit."""

    def test_recommendations_survive_eviction_pressure(self, trained, world):
        dataset, split = world
        users = sorted(
            {r.user_id for r in split.eval_interactions(dataset, "test")}
        )[:8]
        churned = InferenceEngine(trained, cache_capacity=2)
        oracle = InferenceEngine(trained)
        rng = np.random.default_rng(13)
        for _ in range(24):
            user = users[int(rng.integers(len(users)))]
            got = churned.recommend(user, k=5)
            want = oracle.recommend(user, k=5)
            assert [(r.item_id, r.score) for r in got] == [
                (r.item_id, r.score) for r in want
            ]
        assert churned.users.evictions > 0  # the pressure was real

    def test_scores_survive_eviction_pressure(self, trained, test_pairs):
        churned = InferenceEngine(trained, cache_capacity=1)
        oracle = InferenceEngine(trained)
        pairs = test_pairs[:12]
        np.testing.assert_array_equal(
            churned.score_pairs(pairs), oracle.score_pairs(pairs)
        )
        np.testing.assert_array_equal(  # revisit after full churn
            churned.score_pairs(pairs[:4]), oracle.score_pairs(pairs[:4])
        )


class TestDaemonUnderChurn:
    """The same property inside the daemon's workers: each worker's cache
    evicts and re-encodes users between requests, and every response still
    equals the in-process reference engine's."""

    def test_two_passes_over_more_users_than_the_caches_hold(
        self, trained, world, tmp_path
    ):
        dataset, _ = world
        users = sorted(dataset.source.users)[:24]
        shape = dict(retrieval="ivf", nlist=8, nprobe=2, ann_seed=0)
        reference = InferenceEngine(trained, **shape)
        items = sorted(reference.items.item_ids)[:3]
        config = DaemonConfig(
            workers=2, cache_capacity=2,
            telemetry_dir=str(tmp_path), **shape,
        )
        daemon = RecommendDaemon(trained, config).start()
        try:
            assert daemon.wait_ready(timeout=60)
            with ServeClient(config.host, daemon.port) as client:
                for _ in range(2):
                    for user in users:
                        pairs = [(user, item) for item in items]
                        response = client.score(pairs)
                        assert response["status"] == "ok"
                        assert response["scores"] == [
                            float(s) for s in reference.score_pairs(pairs)
                        ]
                        response = client.recommend(user, k=5)
                        assert response["status"] == "ok"
                        assert response["items"] == [
                            [r.item_id, r.score]
                            for r in reference.recommend(user, 5)
                        ]
        finally:
            daemon.stop()
        # Every recommend reaches both workers' caches, so by a user's next
        # score request 23 other users have passed through a 2-user cache:
        # each score request, first pass or second, must miss and encode.
        misses = {}
        for event in load_run_events(tmp_path / "run.jsonl"):
            if event["kind"] == "span" and event["name"] == "score":
                worker = event["run"].rsplit("-", 1)[1]
                misses[worker] = misses.get(worker, 0) + event["cache_misses"]
        assert set(misses) <= {"w0g0", "w1g0"}  # no respawns
        assert sum(misses.values()) == 2 * len(users)
