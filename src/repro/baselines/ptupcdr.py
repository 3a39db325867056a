"""PTUPCDR — Personalized Transfer of User Preferences (Zhu et al. 2022).

Instead of EMCDR's single global mapping, a *meta-network* generates a
personalized bridge for each user from their source-domain interaction
characteristics:

1. Biased MF in both domains (as EMCDR).
2. A characteristics encoder summarizes the user's source history as an
   attention-weighted mean of the source item factors they interacted with
   (weights from a small scoring network over item factor + rating).
3. The meta-network maps the characteristics vector to a personalized
   ``k x k`` bridge matrix ``W_u``; the transferred factor is
   ``W_u p_u^s``.
4. The meta-network is trained task-oriented: minimize the squared error of
   the *predicted target ratings* of training users (not the factor-space
   distance), which is the paper's key improvement over EMCDR.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.records import CrossDomainDataset
from ..data.split import ColdStartSplit
from .base import BaselineRecommender, clip_rating, source_triples, visible_target_triples
from .mf import BiasedMF, MFConfig

__all__ = ["PTUPCDR"]


class PTUPCDR(BaselineRecommender):
    """Meta-network personalized bridge over biased-MF factors."""

    name = "PTUPCDR"

    def __init__(
        self,
        mf_config: MFConfig | None = None,
        meta_hidden: int = 32,
        meta_epochs: int = 40,
        meta_lr: float = 0.005,
        seed: int = 0,
    ) -> None:
        # Plain (bias-free) MF, as in Zhu et al. 2022.
        self.mf_config = mf_config if mf_config is not None else MFConfig(use_bias=False)
        self.meta_hidden = meta_hidden
        self.meta_epochs = meta_epochs
        self.meta_lr = meta_lr
        self.seed = seed
        self.source_mf = BiasedMF(self.mf_config)
        self.target_mf = BiasedMF(self.mf_config)
        self._attention: nn.MLP | None = None
        self._meta: nn.MLP | None = None
        self._train_users: set[str] = set()
        self._dataset: CrossDomainDataset | None = None

    # ------------------------------------------------------------------
    def _feature_rows(self, user_id: str) -> np.ndarray | None:
        """``[item_vector, rating / 5]`` per source review of the user."""
        assert self._dataset is not None
        rows = []
        for review in self._dataset.source.reviews_of_user(user_id):
            vec = self.source_mf.item_vector(review.item_id)
            if vec is not None:
                rows.append(np.concatenate([vec, [review.rating / 5.0]]))
        return np.stack(rows) if rows else None

    def _characteristics(self, user_id: str) -> np.ndarray | None:
        """Attention-weighted mean of the user's source item factors."""
        features = self._feature_rows(user_id)
        if features is None:
            return None
        if self._attention is None:
            return features[:, :-1].mean(axis=0)
        with nn.no_grad():
            scores = self._attention(nn.Tensor(features)).data.reshape(-1)
        weights = np.exp(scores - scores.max())
        weights = weights / weights.sum()
        return weights @ features[:, :-1]

    def _bridge(self, user_id: str) -> np.ndarray | None:
        """Personalized transferred target factor ``W_u p_u^s``."""
        chars = self._characteristics(user_id)
        p_s = self.source_mf.user_vector(user_id)
        if chars is None or p_s is None or self._meta is None:
            return None
        k = self.mf_config.num_factors
        with nn.no_grad():
            w_flat = self._meta(nn.Tensor(chars[None, :])).data[0]
        return w_flat.reshape(k, k) @ p_s

    # ------------------------------------------------------------------
    def fit(self, dataset: CrossDomainDataset, split: ColdStartSplit) -> "PTUPCDR":
        self._dataset = dataset
        self._train_users = set(split.train_users)
        self.source_mf.fit(source_triples(dataset))
        self.target_mf.fit(visible_target_triples(dataset, split))

        rng = np.random.default_rng(self.seed)
        k = self.mf_config.num_factors
        self._attention = nn.MLP([k + 1, self.meta_hidden, 1], rng)
        self._meta = nn.MLP([k, self.meta_hidden, k * k], rng)

        # Task-oriented training samples: training users' target interactions.
        samples: list[tuple[str, np.ndarray, float, float]] = []
        for user in split.train_users:
            p_s = self.source_mf.user_vector(user)
            if p_s is None:
                continue
            for review in dataset.target.reviews_of_user(user):
                q = self.target_mf.item_vector(review.item_id)
                if q is None:
                    continue
                base = self.target_mf.global_mean
                samples.append((user, q, review.rating - base, float(p_s @ q)))
        if not samples:
            raise ValueError("PTUPCDR found no usable training samples")

        optimizer = nn.Adam(
            self._attention.parameters() + self._meta.parameters(), lr=self.meta_lr
        )
        users = sorted({s[0] for s in samples})
        by_user: dict[str, list[tuple[np.ndarray, float]]] = {u: [] for u in users}
        for user, q, residual, _ in samples:
            by_user[user].append((q, residual))
        # Only the attention and meta networks train: each user's source
        # feature rows, p_s, target item factors and residuals are fixed by
        # the fitted MFs, so they are built once, not once per meta epoch.
        frozen: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for user in users:
            features = self._feature_rows(user)
            if features is not None:
                frozen[user] = (
                    features,
                    self.source_mf.user_vector(user),
                    np.stack([q for q, _ in by_user[user]]),
                    np.array([r for _, r in by_user[user]]),
                )

        for _ in range(self.meta_epochs):
            rng.shuffle(users)
            optimizer.zero_grad()
            total: nn.Tensor | None = None
            count = 0
            for user in users:
                if user not in frozen:
                    continue
                features, p_s, qs, residuals = frozen[user]
                chars = self._characteristics_train(features)
                w_flat = self._meta(chars)
                w = w_flat.reshape(k, k)
                p_t = w @ nn.Tensor(p_s)
                preds = nn.Tensor(qs) @ p_t
                err = preds - nn.Tensor(residuals)
                loss = (err * err).sum()
                total = loss if total is None else total + loss
                count += len(residuals)
            if total is None:
                break
            (total / float(count)).backward()
            optimizer.step()
            optimizer.zero_grad()
        self._attention.eval()
        self._meta.eval()
        return self

    def _characteristics_train(self, features: np.ndarray) -> nn.Tensor:
        """Differentiable characteristics encoding of feature rows (training path)."""
        assert self._attention is not None
        scores = self._attention(nn.Tensor(features)).reshape(1, -1)
        weights = nn.functional.softmax(scores, axis=-1)
        return (weights @ nn.Tensor(features[:, :-1])).reshape(-1)

    # ------------------------------------------------------------------
    def predict(self, user_id: str, item_id: str) -> float:
        if user_id in self._train_users and self.target_mf.user_vector(user_id) is not None:
            return clip_rating(self.target_mf.predict(user_id, item_id))
        transferred = self._bridge(user_id)
        return clip_rating(
            self.target_mf.predict(user_id, item_id, user_vector=transferred)
        )
