"""DeepCoNN (Zheng et al. 2017) — single-domain review-based baseline.

The model the paper's related-work section (§7.2) builds from: two parallel
text CNNs encode the user's review document and the item's review document;
the concatenated features feed a factorization-machine-style interaction
layer that regresses the rating.

Not part of the paper's comparison tables (it has no cross-domain transfer
mechanism), but a natural reference: for cold-start users its *target*
review document is empty, so it degenerates to item-side evidence — the
precise failure OmniMatch's auxiliary reviews repair. Registered in
``repro.eval`` as ``"DeepCoNN"``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import DocumentStore, iter_batches
from ..data.records import CrossDomainDataset
from ..data.split import ColdStartSplit
from ..text import train_ppmi_svd_embeddings
from .base import BaselineRecommender, clip_rating

__all__ = ["DeepCoNN"]


class DeepCoNN(BaselineRecommender):
    """Two parallel text CNNs + interaction layer, trained on MSE."""

    name = "DeepCoNN"

    def __init__(
        self,
        embed_dim: int = 32,
        num_filters: int = 16,
        kernel_sizes: tuple[int, ...] = (3,),
        latent_dim: int = 16,
        doc_len: int = 48,
        epochs: int = 8,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ) -> None:
        self.embed_dim = embed_dim
        self.num_filters = num_filters
        self.kernel_sizes = kernel_sizes
        self.latent_dim = latent_dim
        self.doc_len = doc_len
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._store: DocumentStore | None = None
        self._mean = 3.0

    # ------------------------------------------------------------------
    def _build(self, vocab_size: int, table: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        self._embedding = nn.Embedding(
            vocab_size, self.embed_dim, weights=table, trainable=False, padding_idx=0
        )
        self._user_conv = nn.TextConv(self.embed_dim, self.num_filters,
                                      self.kernel_sizes, rng)
        self._item_conv = nn.TextConv(self.embed_dim, self.num_filters,
                                      self.kernel_sizes, rng)
        self._user_head = nn.Linear(self._user_conv.output_dim, self.latent_dim, rng)
        self._item_head = nn.Linear(self._item_conv.output_dim, self.latent_dim, rng)
        self._bias_head = nn.Linear(2 * self.latent_dim, 1, rng)

    def _parameters(self):
        return (
            self._user_conv.parameters() + self._item_conv.parameters()
            + self._user_head.parameters() + self._item_head.parameters()
            + self._bias_head.parameters()
        )

    def _forward(self, user_docs: np.ndarray, item_docs: np.ndarray) -> nn.Tensor:
        z_user = self._user_head(self._user_conv(self._embedding(user_docs))).relu()
        z_item = self._item_head(self._item_conv(self._embedding(item_docs))).relu()
        # FM-style: first-order linear term + second-order interaction (dot).
        interaction = (z_user * z_item).sum(axis=-1)
        linear = self._bias_head(nn.concat([z_user, z_item], axis=-1)).reshape(-1)
        return interaction + linear + self._mean

    # ------------------------------------------------------------------
    def fit(self, dataset: CrossDomainDataset, split: ColdStartSplit) -> "DeepCoNN":
        self._store = DocumentStore(dataset, split, doc_len=self.doc_len)
        table = train_ppmi_svd_embeddings(
            self._store.visible_token_documents(), self._store.vocab,
            dim=self.embed_dim, seed=self.seed,
        )
        self._build(len(self._store.vocab), table)

        interactions = split.train_interactions(dataset)
        cold = set(split.cold_users)
        interactions += [
            r for r in dataset.target.reviews
            if r.user_id not in cold and r.user_id not in set(split.train_users)
        ]
        self._mean = float(np.mean([r.rating for r in interactions]))

        rng = np.random.default_rng(self.seed)
        optimizer = nn.Adam(self._parameters(), lr=self.learning_rate)
        for _ in range(self.epochs):
            for batch in iter_batches(interactions, self.batch_size, rng):
                user_docs = np.stack(
                    [self._store.user_target_doc(r.user_id) for r in batch]
                )
                item_docs = np.stack([self._store.item_doc(r.item_id) for r in batch])
                ratings = np.array([r.rating for r in batch])
                optimizer.zero_grad()
                loss = nn.mse_loss(self._forward(user_docs, item_docs), ratings)
                loss.backward()
                optimizer.step()
        return self

    # ------------------------------------------------------------------
    def predict(self, user_id: str, item_id: str) -> float:
        assert self._store is not None, "fit() must be called first"
        try:
            user_doc = self._store.user_target_doc(user_id)
        except KeyError:  # cold-start user: no target reviews exist
            user_doc = np.zeros(self.doc_len, dtype=np.int64)
        item_doc = self._store.item_doc(item_id)
        with nn.no_grad():
            value = self._forward(user_doc[None, :], item_doc[None, :]).data[0]
        return clip_rating(float(value))
