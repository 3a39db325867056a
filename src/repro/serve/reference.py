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
``USER_BLOCK``-row blocks, items in ``batch_size``-row blocks — and chunk
the rating head identically. The regression tests and
``benchmarks/test_inference.py`` hold the two paths to exact equality.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from ..core.model import RATING_VALUES
from ..nn import functional as F
from .blocking import DEFAULT_BLOCK, USER_BLOCK, encode_blocked, inference_mode
from .engine import ColdStartDocuments

__all__ = ["naive_score_pairs"]


def naive_score_pairs(
    result,
    pairs: Sequence[tuple[str, str]],
    batch_size: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Expected ratings for ``pairs``, re-encoding every document per call."""
    model = result.model
    store = result.store
    docs = ColdStartDocuments(result)
    blend = model.config.cold_inference in ("blend", "dual")
    out = np.empty(len(pairs), dtype=np.dtype(model.config.dtype))
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        target_docs = np.stack([docs.target_doc(u) for u, _ in chunk])
        item_docs = np.stack([store.item_doc(i) for _, i in chunk])
        with inference_mode(model):
            target_inv, target_spec = encode_blocked(
                lambda c: tuple(
                    t.data for t in model.user_extractor.extract_target(c)
                ),
                target_docs,
                USER_BLOCK,
            )
            source_inv = None
            if blend:
                source_docs = np.stack([docs.source_doc(u) for u, _ in chunk])
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
            features = np.concatenate(
                [user_repr.data, item_repr, invariant.data * item_repr],
                axis=1,
            )
            # The head runs through the same padded-block primitive as the
            # engine's _score_rows — the GEMM m is fixed on both paths.
            scores = encode_blocked(
                lambda c: F.softmax(
                    model.rating_classifier(nn.Tensor(c)), axis=-1
                ).data
                @ RATING_VALUES,
                features,
                batch_size,
            )
        out[start : start + len(chunk)] = scores
    return out
