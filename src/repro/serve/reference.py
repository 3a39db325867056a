"""The naive re-encoding reference path: correctness oracle and benchmark
baseline for the serving engine.

:func:`naive_score_pairs` is what serving looked like before the engine:
every call re-runs both extractor towers over the full token documents of
every pair — a user appearing in 500 pairs is encoded 500 times. It keeps
no representation state between calls (document *assembly* is still cached,
as the legacy predictor's was; the towers are what cost).

It produces **bit-identical** predictions to
:meth:`repro.serve.engine.InferenceEngine.score_pairs` at the same
``batch_size`` because both route every extractor pass through the
canonical blocked encoder (see ``repro.serve.blocking``) — user towers in
``USER_BLOCK``-row blocks, items in ``batch_size``-row blocks — and score
through the same folded rating head
(:func:`~repro.serve.blocking.score_pairs_by_user`: pairs grouped by user,
one folded call per user). The regression tests and
``benchmarks/test_inference.py`` hold the two paths to exact equality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from .blocking import (
    DEFAULT_BLOCK,
    USER_BLOCK,
    encode_blocked,
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
    docs = ColdStartDocuments(result)
    user_ids = [u for u, _ in pairs]
    target_docs = np.stack([docs.target_doc(u) for u in user_ids])
    item_docs = np.stack([store.item_doc(i) for _, i in pairs])
    with inference_mode(model):
        target_inv, target_spec = encode_blocked(
            lambda c: tuple(t.data for t in model.user_extractor.extract_target(c)),
            target_docs,
            USER_BLOCK,
        )
        source_inv = None
        if model.config.cold_inference in ("blend", "dual"):
            source_docs = np.stack([docs.source_doc(u) for u in user_ids])
            source_inv, _ = encode_blocked(
                lambda c: tuple(
                    t.data for t in model.user_extractor.extract_source(c)
                ),
                source_docs,
                USER_BLOCK,
            )
        item_repr = encode_blocked(
            lambda c: model.item_extractor(c).data, item_docs, batch_size
        )
        invariant, user_repr = model._rating_inputs(
            nn.Tensor(source_inv) if source_inv is not None else None,
            nn.Tensor(target_inv),
            nn.Tensor(target_spec),
        )
    user_rows = {}
    for row, user_id in enumerate(user_ids):
        user_rows.setdefault(user_id, (invariant.data[row], user_repr.data[row]))
    return score_pairs_by_user(
        model.rating_classifier, user_ids, user_rows, item_repr, block=batch_size
    )
