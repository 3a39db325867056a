"""EMCDR — Embedding and Mapping for Cross-Domain Recommendation (Man 2017).

Three stages, exactly the pipeline the paper describes in §5.3 / §7.1:

1. Biased MF learns latent factors independently in the source and target
   domains (target MF sees only protocol-visible interactions).
2. An MLP mapping function ``f: p_u^s -> p_u^t`` is trained on the
   *overlapping training users*, who have factors in both domains.
3. A cold-start user's target factor is ``f(p_u^s)``; prediction uses the
   target MF's item factors and biases with the mapped user factor.

The mapping quality degrades sharply when overlap users are few — the
error-propagation failure mode that Table 4 demonstrates.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.records import CrossDomainDataset
from ..data.split import ColdStartSplit
from .base import BaselineRecommender, clip_rating, source_triples, visible_target_triples
from .mf import BiasedMF, MFConfig

__all__ = ["EMCDR"]


class EMCDR(BaselineRecommender):
    """MF in each domain + MLP bridge learned from overlapping users."""

    name = "EMCDR"

    def __init__(
        self,
        mf_config: MFConfig | None = None,
        hidden_dim: int = 32,
        mapping_epochs: int = 200,
        mapping_lr: float = 0.01,
        seed: int = 0,
    ) -> None:
        # Plain (bias-free) MF, as in Man et al. 2017.
        self.mf_config = mf_config if mf_config is not None else MFConfig(use_bias=False)
        self.hidden_dim = hidden_dim
        self.mapping_epochs = mapping_epochs
        self.mapping_lr = mapping_lr
        self.seed = seed
        self.source_mf = BiasedMF(self.mf_config)
        self.target_mf = BiasedMF(self.mf_config)
        self._mapping: nn.MLP | None = None
        self._train_users: set[str] = set()

    # ------------------------------------------------------------------
    def fit(self, dataset: CrossDomainDataset, split: ColdStartSplit) -> "EMCDR":
        self._train_users = set(split.train_users)
        self.source_mf.fit(source_triples(dataset))
        self.target_mf.fit(visible_target_triples(dataset, split))

        pairs = [
            (self.source_mf.user_vector(u), self.target_mf.user_vector(u))
            for u in split.train_users
        ]
        pairs = [(s, t) for s, t in pairs if s is not None and t is not None]
        if not pairs:
            raise ValueError("EMCDR found no overlapping users with factors in both domains")
        x = np.stack([s for s, _ in pairs])
        y = np.stack([t for _, t in pairs])

        rng = np.random.default_rng(self.seed)
        k = self.mf_config.num_factors
        self._mapping = nn.MLP([k, self.hidden_dim, k], rng)
        optimizer = nn.Adam(self._mapping.parameters(), lr=self.mapping_lr)
        inputs = nn.Tensor(x)
        for _ in range(self.mapping_epochs):
            optimizer.zero_grad()
            loss = nn.mse_loss(self._mapping(inputs), y)
            loss.backward()
            optimizer.step()
        self._mapping.eval()
        return self

    # ------------------------------------------------------------------
    def _mapped_vector(self, user_id: str) -> np.ndarray | None:
        source_vec = self.source_mf.user_vector(user_id)
        if source_vec is None or self._mapping is None:
            return None
        with nn.no_grad():
            return self._mapping(nn.Tensor(source_vec[None, :])).data[0]

    def predict(self, user_id: str, item_id: str) -> float:
        if user_id in self._train_users and self.target_mf.user_vector(user_id) is not None:
            return clip_rating(self.target_mf.predict(user_id, item_id))
        mapped = self._mapped_vector(user_id)
        return clip_rating(
            self.target_mf.predict(user_id, item_id, user_vector=mapped)
        )
