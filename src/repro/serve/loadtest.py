"""Load generation and under-fire verification for the serving daemon.

:func:`run_loadtest` drives a :class:`~repro.serve.daemon.RecommendDaemon`
with zipf-skewed traffic from several client threads, optionally kills
workers at scheduled points mid-traffic (the chaos plan), and checks every
completed response for **bit-exact** agreement with a single-process
:class:`~repro.serve.engine.InferenceEngine` run in the same retrieval
mode — the daemon's core guarantee is that chaos may slow, shed, or fail
requests, but may never produce an incorrect completed response.

The request schedule is deterministic (seeded RNG): user popularity is
zipf-distributed (rank ``r`` drawn with weight ``1 / (r + 1)**s``), the
recommend/score mix is a seeded coin per request, and chaos kills are
keyed to request indices — so a failing chaos run replays exactly.

Accounting distinguishes every way a request can end: ``ok`` (verified),
``shed`` (explicit load rejection), ``timeout`` (daemon-side deadline),
``error`` (daemon answered that the request failed), and
``client_timeout`` (no response within the client's own patience — the
only bucket where the daemon said nothing). Recovery time after each
scheduled kill is measured as the gap from the kill to the next verified
``ok`` completion.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .protocol import ServeClient

__all__ = ["LoadTestConfig", "LoadTestResult", "build_schedule", "run_loadtest"]

#: Pairs per score request.
SCORE_PAIRS = 4
#: Client-side patience per request.
RESPONSE_TIMEOUT_S = 30.0


@dataclass
class LoadTestConfig:
    """Shape of the generated traffic."""

    requests: int = 200
    #: Client threads, each with its own daemon connection.
    concurrency: int = 4
    k: int = 5
    #: Zipf skew exponent for user popularity (0 = uniform).
    zipf_s: float = 1.1
    #: Fraction of requests that are pair-scoring instead of recommend.
    score_fraction: float = 0.2
    #: Per-request daemon deadline (None = unbounded).
    deadline_ms: float | None = None
    seed: int = 0


@dataclass
class LoadTestResult:
    """Outcome census of one load test."""

    sent: int = 0
    ok: int = 0
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    client_timeouts: int = 0
    #: Completed responses whose payload differed from the reference engine.
    mismatches: list = field(default_factory=list)
    #: Wall-clock seconds per completed (any status) request.
    latencies: list = field(default_factory=list)
    #: Seconds from each scheduled kill to the next verified ok response.
    recoveries: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def failed(self) -> int:
        """Requests that did not complete: shed + timeouts + errors +
        client timeouts (every one answered or accounted, never silent)."""
        return self.shed + self.timeouts + self.errors + self.client_timeouts

    def latency_ms(self, percentile: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), percentile) * 1e3)

    def summary(self) -> dict:
        throughput = self.sent / self.wall_seconds if self.wall_seconds > 0 else 0.0
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "client_timeouts": self.client_timeouts,
            "mismatches": len(self.mismatches),
            "failed_fraction": self.failed / self.sent if self.sent else 0.0,
            "latency_p50_ms": self.latency_ms(50),
            "latency_p99_ms": self.latency_ms(99),
            "requests_per_sec": throughput,
            "wall_seconds": self.wall_seconds,
            "recovery_max_s": max(self.recoveries) if self.recoveries else 0.0,
        }


def _zipf_weights(count: int, s: float) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, count + 1, dtype=np.float64), s)
    return weights / weights.sum()


def build_schedule(
    users: list[str], items: list[str], config: LoadTestConfig
) -> list[dict]:
    """The deterministic request list a load test replays."""
    if not users:
        raise ValueError("load test needs at least one user")
    rng = np.random.default_rng(config.seed)
    user_weights = _zipf_weights(len(users), config.zipf_s)
    schedule: list[dict] = []
    for _ in range(config.requests):
        user = users[int(rng.choice(len(users), p=user_weights))]
        if items and rng.random() < config.score_fraction:
            chosen = rng.choice(
                len(items), size=min(SCORE_PAIRS, len(items)), replace=False
            )
            request = {
                "op": "score",
                "pairs": [[user, items[int(i)]] for i in chosen],
            }
        else:
            request = {"op": "recommend", "user": user, "k": config.k}
        if config.deadline_ms is not None:
            request["deadline_ms"] = config.deadline_ms
        schedule.append(request)
    return schedule


def _verify(response: dict, request: dict, reference, ref_lock) -> str | None:
    """Compare one ok response against the reference engine, bit for bit.

    Returns a mismatch description, or None when the response is exact.
    """
    with ref_lock:
        if request["op"] == "recommend":
            expected = reference.recommend(
                request["user"],
                request["k"],
                retrieval=response.get("retrieval", "exact"),
            )
            got = [(item, score) for item, score in response.get("items", [])]
            want = [(r.item_id, r.score) for r in expected]
            if got != want:
                return (
                    f"recommend({request['user']!r}, k={request['k']}, "
                    f"retrieval={response.get('retrieval')!r}): "
                    f"got {got}, want {want}"
                )
        else:
            pairs = [tuple(p) for p in request["pairs"]]
            expected = [float(s) for s in reference.score_pairs(pairs)]
            got = list(response.get("scores", []))
            if got != expected:
                return f"score({pairs!r}): got {got}, want {expected}"
    return None


def run_loadtest(
    daemon,
    users: list[str],
    items: list[str] | None = None,
    *,
    reference=None,
    config: LoadTestConfig | None = None,
    kill_at: dict[int, int] | None = None,
) -> LoadTestResult:
    """Drive ``daemon`` with the scheduled traffic; verify every completion.

    ``kill_at`` maps request index → worker slot: immediately before that
    request is sent, the slot is SIGKILLed through ``daemon.kill_worker``
    (the chaos plan). ``reference`` is a single-process engine over the
    same model/catalog; when provided, each ``ok`` response is checked for
    exact equality and divergences land in ``result.mismatches``.
    """
    config = config if config is not None else LoadTestConfig()
    schedule = build_schedule(users, items or [], config)
    kill_at = dict(kill_at or {})
    result = LoadTestResult()
    lock = threading.Lock()
    ref_lock = threading.Lock()
    cursor = {"next": 0}
    kill_times: list[float] = []
    ok_times: list[float] = []

    def client_loop() -> None:
        client = ServeClient(daemon.config.host, daemon.port)
        try:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(schedule):
                        return
                    cursor["next"] = index + 1
                request = schedule[index]
                if index in kill_at:
                    daemon.kill_worker(kill_at[index])
                    with lock:
                        kill_times.append(time.monotonic())
                started = time.perf_counter()
                try:
                    response = client.request(
                        dict(request), timeout=RESPONSE_TIMEOUT_S
                    )
                except (TimeoutError, ConnectionError):
                    with lock:
                        result.sent += 1
                        result.client_timeouts += 1
                    continue
                elapsed = time.perf_counter() - started
                status = response.get("status")
                mismatch = None
                if status == "ok" and reference is not None:
                    mismatch = _verify(response, request, reference, ref_lock)
                with lock:
                    result.sent += 1
                    result.latencies.append(elapsed)
                    if status == "ok":
                        result.ok += 1
                        ok_times.append(time.monotonic())
                        if mismatch is not None:
                            result.mismatches.append(
                                {"index": index, "detail": mismatch}
                            )
                    elif status == "shed":
                        result.shed += 1
                    elif status == "timeout":
                        result.timeouts += 1
                    else:
                        result.errors += 1
        finally:
            client.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client_loop, daemon=True)
        for _ in range(config.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - started

    ok_sorted = sorted(ok_times)
    for killed_at in kill_times:
        later = [t for t in ok_sorted if t > killed_at]
        if later:
            result.recoveries.append(later[0] - killed_at)
    return result
