"""The benchmark's own check: bit-exact verification of served responses.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from loadgen import Record  # noqa: E402
from verify import verify  # noqa: E402


@pytest.fixture(scope="module")
def served():
    """A small trained model, the engine that 'served' the responses, and
    an independent reference engine over the same model."""
    from repro.core import OmniMatchConfig, OmniMatchTrainer
    from repro.data import cold_start_split, generate_scenario
    from repro.serve import InferenceEngine

    world = generate_scenario(
        "amazon", "books", "movies", num_users=120, num_items_per_domain=60
    )
    split = cold_start_split(world, seed=0)
    config = OmniMatchConfig(epochs=1, early_stopping=False)
    result = OmniMatchTrainer(world, split, config).fit()
    user = sorted(split.test_users)[0]
    items = sorted(world.target.items)[:4]
    return InferenceEngine(result), InferenceEngine(result), user, items


def _wire(message: dict) -> dict:
    """Round-trip through the daemon's wire encoding."""
    from repro.serve.protocol import decode_message, encode_message

    return decode_message(encode_message(message))


def _records(server, user, items) -> list[Record]:
    recommend = {"op": "recommend", "user": user, "k": 5, "id": 1}
    ranked = server.recommend(user, 5)
    score = {"op": "score", "pairs": [[user, item] for item in items], "id": 2}
    scores = server.score_pairs([(user, item) for item in items])
    return [
        Record("open", recommend, _wire({
            "id": 1, "status": "ok", "retrieval": "exact", "level": 0,
            "items": [[r.item_id, r.score] for r in ranked],
        }), 0.01),
        Record("open", score, _wire({
            "id": 2, "status": "ok", "level": 0, "scores": [float(s) for s in scores],
        }), 0.01),
    ]


def test_exact_responses_verify(served):
    server, reference, user, items = served
    assert verify(_records(server, user, items), reference) == []


def test_one_ulp_score_change_is_a_mismatch(served):
    server, reference, user, items = served
    records = _records(server, user, items)
    item, score = records[0].response["items"][0]
    records[0].response["items"][0] = [item, float(np.nextafter(score, np.inf))]
    mismatches = verify(records, reference)
    assert len(mismatches) == 1 and "recommend(" in mismatches[0]


def test_corrupted_pair_score_is_a_mismatch(served):
    server, reference, user, items = served
    records = _records(server, user, items)
    records[1].response["scores"][2] += 1e-6
    mismatches = verify(records, reference)
    assert len(mismatches) == 1 and "score(" in mismatches[0]


def test_swapped_ranking_is_a_mismatch(served):
    server, reference, user, items = served
    records = _records(server, user, items)
    ranking = records[0].response["items"]
    ranking[0], ranking[1] = ranking[1], ranking[0]
    assert len(verify(records, reference)) == 1


def test_repeated_bad_response_counts_every_time(served):
    server, reference, user, items = served
    records = _records(server, user, items) * 2
    records[0].response["items"].reverse()  # records[2] is the same record
    assert len(verify(records, reference)) == 2


def test_failed_requests_are_not_verified(served):
    server, reference, user, items = served
    records = _records(server, user, items)
    records[0].response = {"id": 1, "status": "shed"}
    records[1].response = None
    assert verify(records, reference) == []
