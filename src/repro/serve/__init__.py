"""``repro.serve`` — the high-throughput inference engine.

Encode-once serving for OmniMatch: an :class:`ItemIndex` holding the
catalog's item-representation matrix, a bounded :class:`UserReprCache` of
per-user rating-head inputs, and an :class:`InferenceEngine` that scores
(user, item) pairs from the caches and ranks the full catalog with exact
top-K. Predictions are bit-identical to the naive re-encoding path
(:func:`naive_score_pairs`) — see ``repro.serve.blocking`` for the
fixed-block encoding invariant and the folded rating head that make the
guarantee hold.

``repro.core.ColdStartPredictor`` delegates here, so the evaluation
protocol and every caller of ``predict_pairs`` get the cached fast path
without code changes.

At scale, ``recommend(retrieval="ivf")`` swaps brute force for an
:class:`IVFIndex` — coarse k-means routing plus exact rating-head re-rank
over the probed inverted lists (``repro.serve.ann``), optionally routing
over an int8 :class:`QuantizedMatrix` store (``repro.serve.quant``).

As a service, :class:`RecommendDaemon` (``repro.serve.daemon``) shards the
catalog across a supervised worker fleet behind a JSON-lines socket
(``repro.serve.protocol``) with deadlines, bounded retries, load shedding
and a chaos-tested degradation ladder; :class:`ServeClient` talks to it
and ``repro.serve.loadtest`` drives and verifies it under fire.
"""

from .ann import DEFAULT_NPROBE, IVFBuildStats, IVFIndex, default_nlist
from .blocking import DEFAULT_BLOCK, encode_blocked, inference_mode
from .daemon import DaemonConfig, RecommendDaemon
from .engine import ColdStartDocuments, InferenceEngine, Recommendation
from .item_index import ItemIndex
from .loadtest import (
    LoadTestConfig,
    LoadTestResult,
    build_schedule,
    run_loadtest,
)
from .protocol import ServeClient
from .quant import QuantizedMatrix
from .reference import naive_score_pairs
from .shard_merge import merge_topk, shard_bounds, shard_topk
from .user_cache import DEFAULT_CAPACITY, UserReprCache

__all__ = [
    "DEFAULT_BLOCK",
    "DEFAULT_CAPACITY",
    "DEFAULT_NPROBE",
    "default_nlist",
    "encode_blocked",
    "inference_mode",
    "ColdStartDocuments",
    "DaemonConfig",
    "InferenceEngine",
    "IVFBuildStats",
    "IVFIndex",
    "ItemIndex",
    "LoadTestConfig",
    "LoadTestResult",
    "build_schedule",
    "run_loadtest",
    "QuantizedMatrix",
    "Recommendation",
    "RecommendDaemon",
    "ServeClient",
    "UserReprCache",
    "merge_topk",
    "naive_score_pairs",
    "shard_bounds",
    "shard_topk",
]
