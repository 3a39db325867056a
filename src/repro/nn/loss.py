"""Loss functions: MSE, cross-entropy, and supervised contrastive loss.

The supervised contrastive loss follows Khosla et al. (2020), Eq. 13 of the
OmniMatch paper: for every anchor, positives are the samples in the batch
that carry the same label (here: user-item pairs with the same rating, and
the source/target views of the same user-item pair).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module
from .tensor import Tensor

__all__ = [
    "MSELoss",
    "CrossEntropyLoss",
    "SupConLoss",
    "mse_loss",
    "cross_entropy",
    "softmax_cross_entropy",
    "supcon_loss",
]


def mse_loss(predicted: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error."""
    target_data = (
        target.data
        if isinstance(target, Tensor)
        else np.asarray(target, dtype=predicted.data.dtype)
    )
    diff = predicted - Tensor(target_data, dtype=predicted.data.dtype)
    return (diff * diff).mean()


def _check_logits_labels(logits: Tensor, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.shape != (logits.data.shape[0],):
        raise ValueError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    return labels


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Fused mean negative log-likelihood with a hand-written backward.

    One tape node replacing the exp / sum / log / gather chain of the
    composed formulation; the backward is the closed form
    ``(softmax(logits) - one_hot(labels)) / batch``. Numerically identical
    to the composed version (same max-shifted logsumexp), but ~5x fewer
    intermediate arrays on the training hot path.
    """
    labels = _check_logits_labels(logits, labels)
    x = logits.data
    n = x.shape[0]
    rows = np.arange(n)
    shifted = x - x.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_likelihood = shifted[rows, labels] - np.log(denom[:, 0])
    loss = np.asarray(-log_likelihood.mean(), dtype=x.dtype)

    def backward(grad: np.ndarray) -> None:
        probs = exp / denom
        probs[rows, labels] -= 1.0
        probs *= np.asarray(grad, dtype=x.dtype) / n
        logits._accumulate(probs, owned=True)

    return Tensor._make(loss, (logits,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under ``logits``.

    ``logits`` has shape ``(batch, num_classes)``; ``labels`` shape ``(batch,)``.
    Runs the fused :func:`softmax_cross_entropy` kernel.
    """
    return softmax_cross_entropy(logits, labels)


def supcon_loss(features: Tensor, labels: np.ndarray, temperature: float = 0.07) -> Tensor:
    """Supervised contrastive loss (Khosla et al. 2020; paper Eq. 13).

    Parameters
    ----------
    features:
        Projected representations, shape ``(batch, dim)``. They are
        L2-normalized internally, as is standard for SupCon.
    labels:
        Integer labels, shape ``(batch,)``. Samples with equal labels form
        positive pairs.
    temperature:
        The ``tau`` scalar (paper uses 0.07).

    Anchors without any positive in the batch contribute zero, matching the
    ``1/|P(i)|`` convention with empty positive sets skipped.
    """
    labels = np.asarray(labels).reshape(-1)
    n = features.data.shape[0]
    dtype = features.data.dtype
    if labels.shape[0] != n:
        raise ValueError("labels must match the batch size")
    if n < 2:
        return Tensor(0.0, dtype=dtype)

    z = F.l2_normalize(features, axis=-1)
    logits = (z @ z.T) / temperature

    not_self = 1.0 - np.eye(n, dtype=dtype)
    pos_mask = (labels[:, None] == labels[None, :]).astype(dtype) * not_self
    pos_counts = pos_mask.sum(axis=1)
    valid = pos_counts > 0
    if not valid.any():
        return Tensor(0.0, dtype=dtype)

    # Exclude self-similarity from the denominator A(i) = I \ {x_i}.
    masked_logits = logits + Tensor(np.where(not_self > 0, 0.0, -1e9), dtype=dtype)
    log_prob = masked_logits - F.logsumexp(masked_logits, axis=1, keepdims=True)

    per_anchor = (log_prob * Tensor(pos_mask)).sum(axis=1) / Tensor(
        np.maximum(pos_counts, 1.0)
    )
    weights = (valid / valid.sum()).astype(dtype)
    return -(per_anchor * Tensor(weights)).sum()


class MSELoss(Module):
    def forward(self, predicted: Tensor, target: np.ndarray | Tensor) -> Tensor:
        return mse_loss(predicted, target)


class CrossEntropyLoss(Module):
    def forward(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return cross_entropy(logits, labels)


class SupConLoss(Module):
    def __init__(self, temperature: float = 0.07) -> None:
        super().__init__()
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature

    def forward(self, features: Tensor, labels: np.ndarray) -> Tensor:
        return supcon_loss(features, labels, temperature=self.temperature)
