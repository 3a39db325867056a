"""Biased matrix factorization — the substrate for CMF / EMCDR / PTUPCDR.

Classic SGD-trained MF:  ``r_hat(u, i) = mu + b_u + b_i + p_u . q_i``.
Entities are string ids; unknown users/items at prediction time fall back to
the bias terms they do have (or the global mean), which is precisely the
cold-start failure mode the cross-domain methods try to fix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MFConfig", "BiasedMF", "sgd_wavefront"]


@dataclass(frozen=True)
class MFConfig:
    """Hyperparameters of the SGD factorization.

    ``use_bias=False`` reproduces the plain factorization the original
    EMCDR / PTUPCDR papers build on (``r_hat = mu + p_u . q_i``): user
    rating offsets must then travel through the latent factors, which is
    exactly what their mapping functions struggle to transfer.
    """

    num_factors: int = 16
    learning_rate: float = 0.015
    reg: float = 0.05
    epochs: int = 30
    init_std: float = 0.1
    use_bias: bool = True
    seed: int = 0


def _wavefront_levels(
    users: np.ndarray, items: np.ndarray, num_users: int, num_items: int
) -> np.ndarray:
    """Level of each sample in visit order: 1 + the highest level among the
    earlier samples that share its user row or its item row."""
    last_user = [0] * num_users
    last_item = [0] * num_items
    levels = []
    for u, i in zip(users.tolist(), items.tolist()):
        lu, li = last_user[u], last_item[i]
        level = (lu if lu > li else li) + 1
        last_user[u] = last_item[i] = level
        levels.append(level)
    return np.array(levels, dtype=np.int64)


def sgd_wavefront(
    users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    user_factors: np.ndarray,
    item_factors: np.ndarray,
    user_bias: np.ndarray | None,
    item_bias: np.ndarray | None,
    predict,
    cfg: MFConfig,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
) -> None:
    """``cfg.epochs`` of per-sample SGD, in place, one wavefront at a time.

    Each epoch visits the samples in one ``rng.shuffle`` order. The samples
    are grouped into levels (:func:`_wavefront_levels`); no two samples of
    a level touch the same user or item row, and every sample's earlier
    neighbours sit in lower levels, so running the levels in order — one
    gather → predict → update → scatter each — hands every sample exactly
    the rows the one-sample-at-a-time loop would, and the factors come out
    bit for bit the same. The dot product is a batched ``matmul`` of
    ``(n, 1, k) @ (n, k, 1)``, which reduces each row like ``p_u @ q_i``
    (``einsum`` and ``(P * Q).sum(1)`` do not); every other op is
    elementwise.

    ``predict(dot, b_u, b_i, batch)`` maps the level's dot products (and
    its gathered bias rows, None when the biases are off) to predictions;
    ``batch`` indexes the level's samples. ``weights`` scales each error.
    """
    lr, reg = cfg.learning_rate, cfg.reg
    order = np.arange(len(ratings))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        levels = _wavefront_levels(
            users[order], items[order], len(user_factors), len(item_factors)
        )
        schedule = order[np.argsort(levels, kind="stable")]
        bounds = np.cumsum(np.bincount(levels))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            batch = schedule[start:stop]
            u, i = users[batch], items[batch]
            pu, qi = user_factors[u], item_factors[i]
            dot = np.matmul(pu[:, None, :], qi[:, :, None])[:, 0, 0]
            bu = bi = None
            if user_bias is not None:
                bu, bi = user_bias[u], item_bias[i]
            err = ratings[batch] - predict(dot, bu, bi, batch)
            if weights is not None:
                err = weights[batch] * err
            if user_bias is not None:
                user_bias[u] = bu + lr * (err - reg * bu)
                item_bias[i] = bi + lr * (err - reg * bi)
            err = err[:, None]
            user_factors[u] = pu + lr * (err * qi - reg * pu)
            item_factors[i] = qi + lr * (err * pu - reg * qi)


class BiasedMF:
    """Biased MF over (user_id, item_id, rating) triples."""

    def __init__(self, config: MFConfig | None = None) -> None:
        self.config = config if config is not None else MFConfig()
        self.user_index: dict[str, int] = {}
        self.item_index: dict[str, int] = {}
        self.user_factors: np.ndarray | None = None
        self.item_factors: np.ndarray | None = None
        self.user_bias: np.ndarray | None = None
        self.item_bias: np.ndarray | None = None
        self.global_mean: float = 0.0

    # ------------------------------------------------------------------
    def fit(self, triples: list[tuple[str, str, float]]) -> "BiasedMF":
        """Train on (user, item, rating) triples with SGD."""
        if not triples:
            raise ValueError("cannot fit MF on an empty interaction list")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        self.user_index = {u: k for k, u in enumerate(sorted({t[0] for t in triples}))}
        self.item_index = {i: k for k, i in enumerate(sorted({t[1] for t in triples}))}
        num_users, num_items = len(self.user_index), len(self.item_index)

        self.user_factors = rng.normal(0, cfg.init_std, (num_users, cfg.num_factors))
        self.item_factors = rng.normal(0, cfg.init_std, (num_items, cfg.num_factors))
        self.user_bias = np.zeros(num_users)
        self.item_bias = np.zeros(num_items)
        self.global_mean = float(np.mean([t[2] for t in triples]))

        encoded = np.array(
            [(self.user_index[u], self.item_index[i], r) for u, i, r in triples]
        )
        mean = self.global_mean

        def predict(dot, user_bias, item_bias, batch):
            pred = mean + dot
            return pred if user_bias is None else pred + (user_bias + item_bias)

        sgd_wavefront(
            encoded[:, 0].astype(np.int64), encoded[:, 1].astype(np.int64),
            encoded[:, 2], self.user_factors, self.item_factors,
            self.user_bias if cfg.use_bias else None,
            self.item_bias if cfg.use_bias else None,
            predict, cfg, rng,
        )
        return self

    # ------------------------------------------------------------------
    def user_vector(self, user_id: str) -> np.ndarray | None:
        """Latent factor of ``user_id`` (None when unseen in training)."""
        index = self.user_index.get(user_id)
        return None if index is None else self.user_factors[index]

    def item_vector(self, item_id: str) -> np.ndarray | None:
        """Latent factor of ``item_id`` (None when unseen in training)."""
        index = self.item_index.get(item_id)
        return None if index is None else self.item_factors[index]

    def predict(
        self,
        user_id: str,
        item_id: str,
        user_vector: np.ndarray | None = None,
        user_bias: float | None = None,
    ) -> float:
        """Predict a rating; external vectors/biases override lookups.

        External overrides are how mapping-based methods (EMCDR, PTUPCDR)
        inject a cold user's *transferred* latent factor.
        """
        pred = self.global_mean
        u = self.user_index.get(user_id)
        i = self.item_index.get(item_id)
        if self.config.use_bias:
            if user_bias is not None:
                pred += user_bias
            elif u is not None:
                pred += self.user_bias[u]
            if i is not None:
                pred += self.item_bias[i]
        vec = user_vector
        if vec is None and u is not None:
            vec = self.user_factors[u]
        if vec is not None and i is not None:
            pred += float(vec @ self.item_factors[i])
        return float(np.clip(pred, 1.0, 5.0))
