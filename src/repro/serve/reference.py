"""The naive re-encoding reference path: correctness oracle and benchmark
baseline for the serving engine.

:func:`naive_score_pairs` is what serving looked like before the engine:
every call re-runs both extractor towers over the full token documents of
every pair — a user appearing in 500 pairs is encoded 500 times. It keeps
no representation state between calls (document *assembly* is still cached,
as the legacy predictor's was; the towers are what cost).

It produces **bit-identical** predictions to
:meth:`repro.serve.engine.InferenceEngine.score_pairs` at the same
``batch_size`` because both route every extractor pass through the same
primitives (see ``repro.serve.blocking``) — user towers through
``encode_users``, items through ``encode_blocked`` in ``batch_size``-row
blocks — and score through the same folded rating head
(:func:`~repro.serve.blocking.score_pairs_by_user`: pairs grouped by user,
one folded call per user). The regression tests and
``benchmarks/test_inference.py`` hold the two paths to exact equality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .blocking import (
    DEFAULT_BLOCK,
    encode_blocked,
    encode_users,
    inference_mode,
    score_pairs_by_user,
)
from .engine import ColdStartDocuments

__all__ = ["naive_score_pairs"]


def naive_score_pairs(
    result,
    pairs: Sequence[tuple[str, str]],
    batch_size: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Expected ratings for ``pairs``, re-encoding every document per call
    (a user in many pairs is encoded once per pair)."""
    model = result.model
    store = result.store
    if len(pairs) == 0:
        return np.empty(0, dtype=np.dtype(model.config.dtype))
    user_ids = [u for u, _ in pairs]
    invariant, user_repr = encode_users(model, user_ids, ColdStartDocuments(result))
    item_docs = np.stack([store.item_doc(i) for _, i in pairs])
    with inference_mode(model):
        item_repr = encode_blocked(
            lambda c: model.item_extractor(c).data, item_docs, batch_size
        )
    user_rows = {}
    for row, user_id in enumerate(user_ids):
        user_rows.setdefault(user_id, (invariant[row], user_repr[row]))
    return score_pairs_by_user(
        model.rating_classifier, user_ids, user_rows, item_repr, block=batch_size
    )
