"""CMF — Collective Matrix Factorization (Singh & Gordon 2008).

Factorizes the source and target rating matrices *simultaneously* with a
shared user-factor matrix: ``r^s(u,i) = mu_s + b_u + b_i^s + p_u . q_i^s``
and ``r^t(u,j) = mu_t + b_u + b_j^t + p_u . q_j^t``. Because ``p_u`` and
``b_u`` are learned from both domains, a cold-start user (who has only
source interactions) still gets a usable latent factor for target-domain
prediction — CMF is the oldest cross-domain transfer mechanism in the
paper's baseline set.
"""

from __future__ import annotations

import numpy as np

from ..data.records import CrossDomainDataset
from ..data.split import ColdStartSplit
from .base import BaselineRecommender, clip_rating, source_triples, visible_target_triples
from .mf import MFConfig, sgd_wavefront

__all__ = ["CMF"]


class CMF(BaselineRecommender):
    """Joint SGD factorization of both domains with shared user factors."""

    name = "CMF"

    def __init__(
        self,
        config: MFConfig | None = None,
        source_weight: float = 1.0,
        use_bias: bool = False,
    ) -> None:
        """``use_bias=False`` (default) matches the original CMF formulation,
        which factorizes the raw rating matrices without user/item bias
        terms — the main reason CMF is the weakest baseline in the paper's
        tables (it must spend factors modelling rating offsets)."""
        self.config = config if config is not None else MFConfig()
        self.source_weight = source_weight
        self.use_bias = use_bias
        self.user_index: dict[str, int] = {}
        self.item_index: dict[tuple[str, str], int] = {}  # (domain, item) -> idx
        self._user_factors: np.ndarray | None = None
        self._item_factors: np.ndarray | None = None
        self._user_bias: np.ndarray | None = None
        self._item_bias: np.ndarray | None = None
        self._mean = {"s": 3.0, "t": 3.0}

    def fit(self, dataset: CrossDomainDataset, split: ColdStartSplit) -> "CMF":
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        src = source_triples(dataset)
        tgt = visible_target_triples(dataset, split)
        if not src or not tgt:
            raise ValueError("CMF needs interactions in both domains")

        users = sorted({u for u, _, _ in src} | {u for u, _, _ in tgt})
        self.user_index = {u: k for k, u in enumerate(users)}
        items = [("s", i) for i in sorted({i for _, i, _ in src})] + [
            ("t", i) for i in sorted({i for _, i, _ in tgt})
        ]
        self.item_index = {key: k for k, key in enumerate(items)}

        self._user_factors = rng.normal(0, cfg.init_std, (len(users), cfg.num_factors))
        self._item_factors = rng.normal(0, cfg.init_std, (len(items), cfg.num_factors))
        self._user_bias = np.zeros(len(users))
        self._item_bias = np.zeros(len(items))
        self._mean["s"] = float(np.mean([r for _, _, r in src]))
        self._mean["t"] = float(np.mean([r for _, _, r in tgt]))

        rows = [
            (self.user_index[u], self.item_index[("s", i)], r, self._mean["s"], self.source_weight)
            for u, i, r in src
        ] + [
            (self.user_index[u], self.item_index[("t", i)], r, self._mean["t"], 1.0)
            for u, i, r in tgt
        ]
        encoded = np.array(rows)
        means = encoded[:, 3]

        def predict(dot, user_bias, item_bias, batch):
            if user_bias is None:
                return dot
            return dot + ((means[batch] + user_bias) + item_bias)

        sgd_wavefront(
            encoded[:, 0].astype(np.int64), encoded[:, 1].astype(np.int64),
            encoded[:, 2], self._user_factors, self._item_factors,
            self._user_bias if self.use_bias else None,
            self._item_bias if self.use_bias else None,
            predict, cfg, rng, weights=encoded[:, 4],
        )
        return self

    def predict(self, user_id: str, item_id: str) -> float:
        u = self.user_index.get(user_id)
        i = self.item_index.get(("t", item_id))
        if self.use_bias:
            pred = self._mean["t"]
            if u is not None:
                pred += self._user_bias[u]
            if i is not None:
                pred += self._item_bias[i]
        else:
            pred = self._mean["t"] if (u is None or i is None) else 0.0
        if u is not None and i is not None:
            pred += float(self._user_factors[u] @ self._item_factors[i])
        return clip_rating(pred)
