"""Feature Extraction Module (paper §4.2).

Each *user* document passes through:

* a frozen word-embedding lookup (PPMI-SVD table — fastText stand-in);
* a per-domain encoder: multi-kernel text CNN (default) or the transformer
  encoder (the OmniMatch-BERT ablation);
* two fully-connected heads: the **domain-invariant** head, whose weights
  are *shared* between the source and target extractors, and the
  **domain-specific** head, private to each domain (shared-private
  paradigm, Bousmalis et al. 2016).

*Item* documents use a separate encoder and a single shared-feature head —
the paper uses only the shared feature for items.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .config import OmniMatchConfig

__all__ = ["DocumentEncoder", "UserFeatureExtractor", "ItemFeatureExtractor"]


class DocumentEncoder(nn.Module):
    """Token ids -> pooled document vector (CNN or transformer back-end)."""

    def __init__(
        self,
        embedding: nn.Embedding,
        config: OmniMatchConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.embedding = embedding
        self.kind = config.extractor
        if self.kind == "cnn":
            self.encoder = nn.TextConv(
                config.embed_dim,
                config.num_filters,
                config.kernel_sizes,
                rng,
                pooling=config.pooling,
            )
            self.output_dim = self.encoder.output_dim
        else:
            self.encoder = nn.TransformerEncoder(
                embed_dim=config.embed_dim,
                num_layers=config.transformer_layers,
                num_heads=config.transformer_heads,
                hidden_dim=config.embed_dim * 2,
                max_len=config.doc_len,
                rng=rng,
                dropout=min(config.dropout, 0.2),
            )
            self.output_dim = config.embed_dim

    def forward(self, token_ids: np.ndarray) -> nn.Tensor:
        """``(batch, doc_len)`` int ids -> ``(batch, output_dim)`` features."""
        embedded = self.embedding(token_ids)
        if self.kind == "cnn":
            return self.encoder(embedded, token_mask=(np.asarray(token_ids) != 0))
        return self.encoder(embedded)


class UserFeatureExtractor(nn.Module):
    """Shared-private user extractors for both domains.

    ``invariant_head`` is one Linear applied to both domains' pooled CNN
    outputs (weight sharing per §4.2: "the weights of the domain-invariant
    fully-connected layer ... are shared"); each domain owns its encoder and
    its specific head.
    """

    def __init__(
        self,
        embedding: nn.Embedding,
        config: OmniMatchConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.config = config
        self.source_encoder = DocumentEncoder(embedding, config, rng)
        self.target_encoder = DocumentEncoder(embedding, config, rng)
        pooled_dim = self.source_encoder.output_dim
        self.invariant_head = nn.Linear(pooled_dim, config.invariant_dim, rng)
        self.source_specific_head = nn.Linear(pooled_dim, config.specific_dim, rng)
        self.target_specific_head = nn.Linear(pooled_dim, config.specific_dim, rng)
        self.drop = nn.Dropout(config.dropout, rng)

    @property
    def representation_dim(self) -> int:
        """Dim of r_j = invariant (+) specific (Eq. 10)."""
        return self.config.invariant_dim + self.config.specific_dim

    def encode(self, token_ids: np.ndarray, domain: str) -> nn.Tensor:
        """A tower's first step: ``domain``'s document encoder."""
        encoder = self.source_encoder if domain == "source" else self.target_encoder
        return encoder(token_ids)

    def heads(self, pooled: nn.Tensor, domain: str) -> tuple[nn.Tensor, nn.Tensor]:
        """A tower's second step: (invariant, specific) features of
        :meth:`encode`'s output for ``domain`` (Eq. 8-9)."""
        specific_head = (
            self.source_specific_head if domain == "source" else self.target_specific_head
        )
        invariant = self.drop(F.relu(self.invariant_head(pooled)))
        specific = self.drop(F.relu(specific_head(pooled)))
        return invariant, specific

    def extract_source(self, token_ids: np.ndarray) -> tuple[nn.Tensor, nn.Tensor]:
        """Return (invariant, specific) source-domain user features (Eq. 8-9)."""
        return self.heads(self.encode(token_ids, "source"), "source")

    def extract_target(self, token_ids: np.ndarray) -> tuple[nn.Tensor, nn.Tensor]:
        """Return (invariant, specific) target-domain user features."""
        return self.heads(self.encode(token_ids, "target"), "target")

    @staticmethod
    def combine(invariant: nn.Tensor, specific: nn.Tensor) -> nn.Tensor:
        """r_j = r_invariant (+) r_specific (Eq. 10)."""
        return nn.concat([invariant, specific], axis=-1)


class ItemFeatureExtractor(nn.Module):
    """Item encoder: pooled document -> shared feature (paper uses only the
    shared feature for items)."""

    def __init__(
        self,
        embedding: nn.Embedding,
        config: OmniMatchConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.encoder = DocumentEncoder(embedding, config, rng)
        self.head = nn.Linear(self.encoder.output_dim, config.invariant_dim, rng)
        self.drop = nn.Dropout(config.dropout, rng)
        self.output_dim = config.invariant_dim

    def forward(self, token_ids: np.ndarray) -> nn.Tensor:
        pooled = self.encoder(token_ids)
        return self.drop(F.relu(self.head(pooled)))
