"""Functional building blocks composed from :class:`~repro.nn.tensor.Tensor` ops.

Everything here is differentiable unless noted. The implementations favour
numerical stability (log-sum-exp shifted softmax) because the supervised
contrastive loss and the domain classifier both exponentiate logits.
"""

from __future__ import annotations

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor, as_tensor, get_default_dtype

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "logsumexp",
    "dropout",
    "gradient_reversal",
    "l2_normalize",
    "linear_relu",
    "one_hot",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, the paper's activation throughout (Eq. 5)."""
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    x = as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))  # constant, no grad
    shifted = x - shift
    out = shifted.exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        out = out.reshape(*np.squeeze(out.data, axis=axis).shape)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    x = as_tensor(x)
    return x - logsumexp(x, axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-rate)``.

    At evaluation time (``training=False``) this is the identity, so no
    rescaling is needed at inference.
    """
    if not training or rate <= 0.0:
        return as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_tensor(x)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)


def gradient_reversal(x: Tensor, lam: float = 1.0) -> Tensor:
    """Gradient Reversal Layer (Ganin & Lempitsky 2015).

    Forward pass is the identity; the backward pass multiplies gradients by
    ``-lam``. This is the mechanism the Domain Adversarial Training Module
    uses to *maximize* the domain-classification loss with respect to the
    feature-extractor parameters while the classifier itself minimizes it.
    """
    x = as_tensor(x)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(-lam * grad)

    return Tensor._make(x.data.copy(), (x,), backward)


def linear_relu(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``relu(x @ W.T + b)`` with a hand-written backward pass.

    Functionally identical to composing :class:`~repro.nn.Linear` with
    :func:`relu`, but records one tape node instead of three and reuses the
    forward activation as the backward mask — the MLP hot path (rating head,
    domain classifiers, projection head) spends most of its non-GEMM time in
    tape bookkeeping, which this removes. ``x`` must be 2-D ``(batch, in)``.
    """
    if x.data.ndim != 2:
        raise ValueError(f"linear_relu expects 2-D input, got shape {x.data.shape}")
    out_data = x.data @ weight.data.T
    if _tensor._TENSOR_STATS_ENABLED:
        _tensor._TENSOR_STATS["matmul_flops"] += 2 * out_data.size * x.data.shape[1]
    if bias is not None:
        out_data += bias.data
    np.maximum(out_data, 0.0, out=out_data)
    mask = out_data > 0

    def backward(grad: np.ndarray) -> None:
        masked = grad * mask
        if x.requires_grad:
            x._accumulate(masked @ weight.data, owned=True)
        if weight.requires_grad:
            weight._accumulate(masked.T @ x.data, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(masked.sum(axis=0), owned=True)

    parents = (x, weight) + ((bias,) if bias is not None else ())
    return Tensor._make(out_data, parents, backward)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows onto the unit sphere (used before the contrastive loss)."""
    x = as_tensor(x)
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def one_hot(
    labels: np.ndarray, num_classes: int, dtype: np.dtype | type | None = None
) -> np.ndarray:
    """Dense one-hot encoding of integer ``labels`` (non-differentiable)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    out = np.zeros(
        (labels.size, num_classes),
        dtype=np.dtype(dtype) if dtype is not None else get_default_dtype(),
    )
    out[np.arange(labels.size), labels.reshape(-1)] = 1.0
    return out.reshape(*labels.shape, num_classes)
