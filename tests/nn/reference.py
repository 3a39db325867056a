"""Slow, obvious reference compositions: the oracles for the fused kernels.

``repro.nn`` trains on hand-written fused kernels only
(``softmax_cross_entropy``, ``linear_relu``, ``conv_bank_pool``, the
argmax ``Tensor.max``). Each function here is the op-by-op formulation a
fused kernel replaces, built from autograd primitives or from a direct
``tensordot``; the tests check the kernels against these on many inputs,
and check these against naive loops and finite differences.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import repro.nn as nn
from repro.nn import Tensor
from repro.nn import functional as F


def cross_entropy(logits, labels):
    """Composed ``log_softmax -> one-hot mul -> sum -> mean`` NLL."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = F.log_softmax(logits, axis=-1)
    one_hot = F.one_hot(labels, logits.data.shape[1], dtype=logits.data.dtype)
    picked = (log_probs * Tensor(one_hot)).sum(axis=-1)
    return -picked.mean()


def relu_linear(linear, x):
    """``relu(linear(x))`` as two separate tape nodes (the unfused MLP layer)."""
    return F.relu(linear(x))


def tensor_max(x, axis, keepdims=False):
    """Maximum over ``axis`` whose backward splits the gradient among ties."""
    out_data = x.data.max(axis=axis, keepdims=keepdims)
    expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
    mask = x.data == expanded
    counts = mask.sum(axis=axis, keepdims=True)

    def backward(grad):
        g = np.asarray(grad)
        if not keepdims:
            g = np.expand_dims(g, axis=axis)
        x._accumulate(mask * g / counts, owned=True)

    return Tensor._make(out_data, (x,), backward)


def max_over_time(x):
    """Tie-splitting max-pool over the sequence axis: ``(B, T, F) -> (B, F)``."""
    return tensor_max(x, axis=1)


def mean_over_time(x, weights=None):
    """(Weighted) mean-pool over the sequence axis: ``(B, T, F) -> (B, F)``.

    ``weights`` (shape ``(B, T)``, non-negative) are normalized per row, with
    the denominator floored at 1e-9 so an all-masked row pools to zero.
    """
    if weights is None:
        return x.mean(axis=1)
    weights = np.asarray(weights, dtype=x.data.dtype)
    if weights.shape != x.data.shape[:2]:
        raise ValueError(f"weights shape {weights.shape} != {x.data.shape[:2]}")
    normalized = weights / np.maximum(weights.sum(axis=1, keepdims=True), 1e-9)
    return (x * Tensor(normalized[:, :, None])).sum(axis=1)


def window_weights(token_mask, kernel_size):
    """Fraction of non-pad tokens per convolution window: ``(B, T)``."""
    windows = sliding_window_view(token_mask, kernel_size, axis=1)
    return windows.mean(axis=-1)


def conv1d_text(x, weight, bias=None, relu=False):
    """Valid 1-D convolution over the sequence axis, by ``tensordot``.

    ``x`` is ``(batch, seq_len, embed)``, ``weight`` ``(filters, kernel,
    embed)``; the result is ``(batch, seq_len - kernel + 1, filters)``.
    ``relu=True`` clamps in the same node. The backward is written out by
    hand: one ``tensordot`` for the weight gradient and one shifted GEMM
    per kernel tap for the input gradient.
    """
    batch, seq_len, embed_dim = x.data.shape
    num_filters, kernel_size, w_embed = weight.data.shape
    if w_embed != embed_dim:
        raise ValueError(f"embedding dim mismatch: input {embed_dim}, weight {w_embed}")
    if kernel_size > seq_len:
        raise ValueError(f"kernel size {kernel_size} exceeds sequence length {seq_len}")
    t_out = seq_len - kernel_size + 1
    # (batch, T, embed, kernel) -> (batch, T, kernel, embed)
    windows = sliding_window_view(x.data, kernel_size, axis=1).transpose(0, 1, 3, 2)
    out_data = np.tensordot(windows, weight.data, axes=([2, 3], [1, 2]))
    if bias is not None:
        out_data = out_data + bias.data
    if relu:
        out_data = np.maximum(out_data, 0.0)

    def backward(grad):
        if relu:
            grad = grad * (out_data > 0)
        if weight.requires_grad:
            # (kernel, embed, filters) -> (filters, kernel, embed)
            grad_w = np.tensordot(windows, grad, axes=([0, 1], [0, 1]))
            weight._accumulate(grad_w.transpose(2, 0, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 1)), owned=True)
        if x.requires_grad:
            grad_x = np.zeros_like(x.data)
            for offset in range(kernel_size):
                grad_x[:, offset : offset + t_out, :] += grad @ weight.data[:, offset, :]
            x._accumulate(grad_x, owned=True)

    parents = (x, weight) + ((bias,) if bias is not None else ())
    return Tensor._make(out_data, parents, backward)


def conv1d_composed(x, weight, bias=None, relu=False):
    """:func:`conv1d_text` from autograd primitives: one shifted GEMM per tap."""
    kernel_size = weight.data.shape[1]
    t_out = x.data.shape[1] - kernel_size + 1
    out = None
    for offset in range(kernel_size):
        term = x[:, offset : offset + t_out, :] @ weight[:, offset, :].T
        out = term if out is None else out + term
    if bias is not None:
        out = out + bias
    return out.relu() if relu else out


def conv_pool(x, weights, biases, pooling, masks=None):
    """Per-kernel conv + ReLU + pooling + concat: what ``conv_bank_pool`` fuses.

    ``masks`` is an optional per-kernel list of ``(B, T_k)`` window weights
    for the mean pooling (``None`` entries pool unweighted).
    """
    pooled = []
    for index, (weight, bias) in enumerate(zip(weights, biases)):
        feature_map = conv1d_text(x, weight, bias, relu=True)
        if pooling in ("max", "max_mean"):
            pooled.append(max_over_time(feature_map))
        if pooling in ("mean", "max_mean"):
            pooled.append(
                mean_over_time(feature_map, None if masks is None else masks[index])
            )
    return nn.concat(pooled, axis=-1)


def text_conv(conv, x, token_mask=None):
    """``TextConv.forward`` composed kernel by kernel from the oracles above."""
    masks = None
    if token_mask is not None and conv.pooling in ("mean", "max_mean"):
        mask = token_mask.astype(x.data.dtype)
        masks = [window_weights(mask, k) for k in conv.kernel_sizes]
    return conv_pool(
        x,
        [getattr(conv, f"weight_k{k}") for k in conv.kernel_sizes],
        [getattr(conv, f"bias_k{k}") for k in conv.kernel_sizes],
        conv.pooling,
        masks,
    )
