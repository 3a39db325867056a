"""1-D text convolution bank with max/mean-over-time pooling.

OmniMatch's Feature Extraction Module (paper §4.2, Eq. 4–7) applies a bank
of 1-D convolutions with kernel sizes (3, 4, 5) over the word-embedding
matrix of a review document, followed by ReLU and max-over-time pooling.

The whole bank — every kernel size, the ReLU and the pooling — is one tape
node (:func:`conv_bank_pool`) with a hand-written backward, because the
im2col expansion is the hot loop of training. The per-kernel composition it
replaces (a convolution node, a ReLU, a tie-splitting max, a weighted mean
and a concat per kernel size) lives on in ``tests/nn/reference.py`` as the
oracle the bank is checked against.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import init
from . import tensor as _tensor
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "conv_bank_pool",
    "TextConv",
    "clear_conv_workspace",
]

#: Rotating pools of reusable im2col workspaces keyed by
#: (batch, t_out, kernel, embed, dtype). Each conv_bank_pool forward acquires
#: the pool's next buffer, copies its sliding windows in, and runs a single
#: contiguous GEMM — eliminating the dominant allocation of the hot loop.
#: Every acquisition stamps the buffer (``_BUF_STAMPS``); a backward pass
#: whose saved stamp is still current reuses the forward's columns as-is,
#: otherwise it refills from the saved input and grows the pool so that on
#: the next step every same-shaped conv in the model holds a distinct
#: buffer. Steady-state training therefore performs one im2col per conv
#: per step, never a backward refill.
_WORKSPACES: dict[tuple, list[np.ndarray]] = {}
_BUF_STAMPS: dict[int, int] = {}
_HANDOUTS: dict[tuple, int] = {}
_NEXT_STAMP = 0
_MAX_KEYS = 32
_MAX_POOL = 4


def clear_conv_workspace() -> None:
    """Drop all cached im2col buffers (frees memory between experiments)."""
    _WORKSPACES.clear()
    _BUF_STAMPS.clear()
    _HANDOUTS.clear()
    _PAD_BUFFERS.clear()


def _im2col(x_data: np.ndarray, kernel_size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Contiguous ``(batch * t_out, kernel * embed)`` window matrix.

    Fills a pooled workspace instead of allocating, and uses ``copyto`` from
    the strided ``sliding_window_view`` — the same copy ``tensordot`` would
    make internally, minus the allocation and axis bookkeeping. Returns the
    2-D column view plus the backing buffer and its acquisition stamp, so a
    backward pass can tell whether the columns are still valid.
    """
    global _NEXT_STAMP
    batch, seq_len, embed_dim = x_data.shape
    t_out = seq_len - kernel_size + 1
    key = (batch, t_out, kernel_size, embed_dim, x_data.dtype)
    pool = _WORKSPACES.get(key)
    if pool is None:
        if len(_WORKSPACES) >= _MAX_KEYS:
            clear_conv_workspace()
        pool = [np.empty((batch, t_out, kernel_size, embed_dim), dtype=x_data.dtype)]
        _WORKSPACES[key] = pool
    index = _HANDOUTS.get(key, 0)
    _HANDOUTS[key] = index + 1
    buf = pool[index % len(pool)]
    stamp = _NEXT_STAMP
    _NEXT_STAMP += 1
    _BUF_STAMPS[id(buf)] = stamp
    # (B, T, E, K) view -> (B, T, K, E) layout in the contiguous buffer
    np.copyto(buf, sliding_window_view(x_data, kernel_size, axis=1).transpose(0, 1, 3, 2))
    return buf.reshape(batch * t_out, kernel_size * embed_dim), buf, stamp


#: Zero-initialized pad buffers for conv_bank_pool, keyed by shape+dtype.
#: Only the first ``seq_len`` frames are ever written, so the zero tail laid
#: down at allocation time persists across reuses.
_PAD_BUFFERS: dict[tuple, np.ndarray] = {}


def _padded_cols(
    x_data: np.ndarray, kernel_max: int, pad: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """im2col of ``x_data`` extended with ``pad`` zero frames on the right.

    The zero frames let one ``kernel_max``-tap window matrix serve every
    kernel size in a bank: a k-tap convolution equals the ``kernel_max``-tap
    convolution of its zero-extended kernel, and the extension supplies the
    window positions the smaller kernels reach past ``seq_len - kernel_max``.
    """
    batch, seq_len, embed_dim = x_data.shape
    if pad == 0:
        return _im2col(x_data, kernel_max)
    key = (batch, seq_len + pad, embed_dim, x_data.dtype)
    xpad = _PAD_BUFFERS.get(key)
    if xpad is None:
        if len(_PAD_BUFFERS) >= _MAX_KEYS:
            _PAD_BUFFERS.clear()
        xpad = np.zeros((batch, seq_len + pad, embed_dim), dtype=x_data.dtype)
        _PAD_BUFFERS[key] = xpad
    xpad[:, :seq_len] = x_data
    return _im2col(xpad, kernel_max)


def conv_bank_pool(
    x: Tensor,
    weights: list[Tensor],
    biases: list[Tensor | None],
    pooling: str = "max_mean",
    window_weights: list[np.ndarray | None] | None = None,
) -> Tensor:
    """Whole conv bank + ReLU + pooling as one tape node: ``(B, T, E) -> (B, D)``.

    Runs every kernel size of a :class:`TextConv` bank in a single GEMM by
    right-padding the input with ``max(k) - min(k)`` zero frames and
    zero-extending each kernel to ``max(k)`` taps, then slices the per-kernel
    feature maps out of the shared output and pools them in place. Output
    layout matches the composed formulation: per kernel, max-over-time then
    (for ``max_mean``) mean-over-time, concatenated over kernels —
    ``D = len(weights) * num_filters * (2 if pooling == 'max_mean' else 1)``.

    The hand-written backward scatters all pooled gradients into one
    full-bank array, applies the ReLU mask once, and recovers every
    gradient from two GEMMs. Compared to a per-kernel convolution +
    pooling composition this trades ~25% more GEMM FLOPs (the zero taps) for
    one im2col instead of ``len(weights)``, one tape node instead of ~6,
    and strictly fewer allocations — a net win at the model's sizes
    (per-width GEMMs over column prefixes were measured ~30% slower than
    the single wide GEMM despite skipping the zero taps).
    """
    if pooling not in ("max", "mean", "max_mean"):
        raise ValueError("pooling must be 'max', 'mean', or 'max_mean'")
    batch, seq_len, embed_dim = x.data.shape
    kernel_sizes = [w.data.shape[1] for w in weights]
    filter_counts = [w.data.shape[0] for w in weights]
    offsets = np.concatenate([[0], np.cumsum(filter_counts)])
    total_f = int(offsets[-1])
    kernel_max = max(kernel_sizes)
    pad = kernel_max - min(kernel_sizes)
    t_out_pad = seq_len + pad - kernel_max + 1

    dtype = x.data.dtype
    w_all = np.zeros((total_f, kernel_max * embed_dim), dtype=dtype)
    bias_all = np.zeros(total_f, dtype=dtype)
    for i, (w, b, k) in enumerate(zip(weights, biases, kernel_sizes)):
        lo, hi = offsets[i], offsets[i + 1]
        w_all[lo:hi, : k * embed_dim] = w.data.reshape(filter_counts[i], -1)
        if b is not None:
            bias_all[lo:hi] = b.data

    cols, ws_buf, ws_stamp = _padded_cols(x.data, kernel_max, pad)
    # One wide GEMM against the zero-extended kernels. Splitting this per
    # kernel width (to skip the ~20% zero-tap FLOPs) measures ~30% *slower*:
    # narrow GEMMs waste more BLAS efficiency than the dead taps cost.
    full2d = cols @ w_all.T
    if _tensor._TENSOR_STATS_ENABLED:
        _tensor._TENSOR_STATS["matmul_flops"] += 2 * full2d.size * cols.shape[1]
    full = full2d.reshape(batch, t_out_pad, total_f)
    full += bias_all
    np.maximum(full, 0.0, out=full)

    num_k = len(kernel_sizes)
    f_each = filter_counts[0]
    # Uniform filter counts let the bank be viewed as (batch, t, num_k, f_each)
    # with each kernel's block an exact last-axis group, so both poolings
    # collapse to single whole-array primitives instead of per-kernel loops
    # over strided column slices. Tail rows (kernels narrower than kernel_max
    # produce fewer valid windows) are masked to -1 so they can never win the
    # max, and their mean weight is zero so they contribute exact +0.0 terms.
    vectorized = pooling == "max_mean" and all(c == f_each for c in filter_counts)
    full4 = mx4 = norm_stack = None
    saved: list[tuple] = []  # per kernel: (t_out, winners, normalized)
    if vectorized:
        full4 = full.reshape(batch, t_out_pad, num_k, f_each)
        norm_stack = np.zeros((batch, t_out_pad, num_k), dtype=dtype)
        for i, k in enumerate(kernel_sizes):
            t_out = seq_len - k + 1
            if t_out < t_out_pad:
                full4[:, t_out:, i, :] = -1.0
            wts = window_weights[i] if window_weights is not None else None
            if wts is None:
                norm_stack[:, :t_out, i] = 1.0 / t_out
            else:
                wts = np.asarray(wts, dtype=dtype)
                denom = np.maximum(wts.sum(axis=1, keepdims=True), 1e-9)
                norm_stack[:, :t_out, i] = wts / denom
        mx4 = full4.max(axis=1)
        mean4 = np.einsum("btkf,btk->bkf", full4, norm_stack)
        out3 = np.empty((batch, num_k, 2 * f_each), dtype=dtype)
        out3[:, :, :f_each] = mx4
        out3[:, :, f_each:] = mean4
        out = out3.reshape(batch, num_k * 2 * f_each)
    else:
        parts: list[np.ndarray] = []
        for i, k in enumerate(kernel_sizes):
            t_out = seq_len - k + 1
            block = full[:, :t_out, offsets[i] : offsets[i + 1]]
            winners = None
            if pooling in ("max", "max_mean"):
                winners = np.expand_dims(np.argmax(block, axis=1), axis=1)
                parts.append(np.take_along_axis(block, winners, axis=1)[:, 0, :])
            normalized = None
            if pooling in ("mean", "max_mean"):
                wts = window_weights[i] if window_weights is not None else None
                if wts is None:
                    parts.append(block.mean(axis=1))
                else:
                    wts = np.asarray(wts, dtype=dtype)
                    denom = np.maximum(wts.sum(axis=1, keepdims=True), 1e-9)
                    normalized = wts / denom
                    parts.append(np.einsum("btf,bt->bf", block, normalized))
            saved.append((t_out, winners, normalized))
        out = np.concatenate(parts, axis=1)

    def backward(grad: np.ndarray) -> None:
        g = np.asarray(grad)
        if vectorized:
            g3 = g.reshape(batch, num_k, 2 * f_each)
            g_max = g3[:, :, :f_each]
            g_mean = g3[:, :, f_each:]
            grad_full = np.empty(full.shape, dtype=full.dtype)
            gf4 = grad_full.reshape(batch, t_out_pad, num_k, f_each)
            # The mean gradient is one broadcast outer product over the whole
            # buffer (tail weights are zero, so tail rows land on exact
            # zeros — no separate fill pass); the max winner is then added on
            # top. argmax over the bool equality mask reproduces np.argmax's
            # first-index tie-break while scanning far faster than the float
            # argmax it replaces.
            np.multiply(norm_stack[:, :, :, None], g_mean[:, None, :, :], out=gf4)
            winners = np.argmax(full4 == mx4[:, None, :, :], axis=1)[:, None, :, :]
            vals = np.take_along_axis(gf4, winners, axis=1)
            vals += g_max[:, None, :, :]
            np.put_along_axis(gf4, winners, vals, axis=1)
        else:
            grad_full = np.zeros(full.shape, dtype=full.dtype)
            col = 0
            for i, (t_out, winners, normalized) in enumerate(saved):
                width = filter_counts[i]
                gblock = grad_full[:, :t_out, offsets[i] : offsets[i + 1]]
                if pooling in ("mean", "max_mean"):
                    # concat order per kernel is [max, mean]; mean is last
                    mean_col = col + width if pooling == "max_mean" else col
                    g_mean = g[:, mean_col : mean_col + width]
                    if normalized is None:
                        gblock += (g_mean / t_out)[:, None, :]
                    else:
                        gblock += g_mean[:, None, :] * normalized[:, :, None]
                if pooling in ("max", "max_mean"):
                    g_max = g[:, col : col + width]
                    vals = np.take_along_axis(gblock, winners, axis=1)
                    vals += g_max[:, None, :]
                    np.put_along_axis(gblock, winners, vals, axis=1)
                col += width * (2 if pooling == "max_mean" else 1)
        grad_full *= full > 0
        grad2d = grad_full.reshape(batch * t_out_pad, total_f)

        if any(w.requires_grad for w in weights):
            if _BUF_STAMPS.get(id(ws_buf)) == ws_stamp:
                bank_cols = ws_buf.reshape(batch * t_out_pad, kernel_max * embed_dim)
            else:
                # Clobbered by a same-shaped bank — refill, and grow the pool
                # so next step's banks keep distinct buffers.
                pool = _WORKSPACES.get(
                    (batch, t_out_pad, kernel_max, embed_dim, dtype)
                )
                if pool is not None and len(pool) < _MAX_POOL:
                    pool.append(np.empty_like(pool[0]))
                bank_cols, _, _ = _padded_cols(x.data, kernel_max, pad)
            grad_w_all = grad2d.T @ bank_cols
            for i, (w, k) in enumerate(zip(weights, kernel_sizes)):
                if w.requires_grad:
                    gw = grad_w_all[offsets[i] : offsets[i + 1], : k * embed_dim]
                    w._accumulate(np.ascontiguousarray(gw).reshape(w.data.shape), owned=True)
        if any(b is not None and b.requires_grad for b in biases):
            gb_all = grad2d.sum(axis=0)
            for i, b in enumerate(biases):
                if b is not None and b.requires_grad:
                    b._accumulate(gb_all[offsets[i] : offsets[i + 1]].copy(), owned=True)
        if x.requires_grad:
            gcols = (grad2d @ w_all).reshape(batch, t_out_pad, kernel_max, embed_dim)
            grad_xpad = np.zeros((batch, seq_len + pad, embed_dim), dtype=dtype)
            for offset in range(kernel_max):
                grad_xpad[:, offset : offset + t_out_pad, :] += gcols[:, :, offset, :]
            x._accumulate(grad_xpad[:, :seq_len, :], owned=True)

    parents = (x, *weights, *(b for b in biases if b is not None))
    return Tensor._make(out, parents, backward)


class TextConv(Module):
    """Multi-kernel text CNN: convolve, ReLU, pool, concatenate.

    With kernel sizes ``(3, 4, 5)`` and ``num_filters`` filters each, the
    output dimension is ``3 * num_filters`` (doubled under ``max_mean``
    pooling) — the paper's extractor front-end (200 kernels per size in the
    paper; scaled down here).

    ``pooling``:
      * ``'max'`` — classic max-over-time (paper Eq. 6-7);
      * ``'mean'`` — padding-aware mean-over-time;
      * ``'max_mean'`` — both, concatenated. Presence *and* frequency of
        n-gram features; frequency carries e.g. a user's sentiment-word mix.
    """

    def __init__(
        self,
        embed_dim: int,
        num_filters: int,
        kernel_sizes: tuple[int, ...],
        rng: np.random.Generator,
        pooling: str = "max",
    ) -> None:
        super().__init__()
        if not kernel_sizes:
            raise ValueError("at least one kernel size is required")
        if pooling not in ("max", "mean", "max_mean"):
            raise ValueError("pooling must be 'max', 'mean', or 'max_mean'")
        self.embed_dim = embed_dim
        self.num_filters = num_filters
        self.kernel_sizes = tuple(kernel_sizes)
        self.pooling = pooling
        for k in self.kernel_sizes:
            setattr(
                self,
                f"weight_k{k}",
                Parameter(init.xavier_uniform((num_filters, k, embed_dim), rng)),
            )
            setattr(self, f"bias_k{k}", Parameter(init.zeros((num_filters,))))

    @property
    def output_dim(self) -> int:
        per_pool = 2 if self.pooling == "max_mean" else 1
        return self.num_filters * len(self.kernel_sizes) * per_pool

    @staticmethod
    def _window_weights_from_cumsum(cumsum: np.ndarray, kernel_size: int) -> np.ndarray:
        """Fraction of non-pad tokens per convolution window: ``(B, T)``.

        Computed from the token mask's cumsum: two reads per window instead
        of ``kernel_size``, and one cumsum is shared by every kernel size in
        the bank. 0/1 masks keep all intermediate sums exactly
        representable, so this matches the window-mean definition bit for
        bit.
        """
        sums = cumsum[:, kernel_size - 1 :].copy()
        sums[:, 1:] -= cumsum[:, :-kernel_size]
        sums /= kernel_size
        return sums

    def forward(self, x: Tensor, token_mask: np.ndarray | None = None) -> Tensor:
        window_weights = None
        if token_mask is not None and self.pooling in ("mean", "max_mean"):
            mask_cumsum = token_mask.astype(x.data.dtype).cumsum(axis=1)
            window_weights = [
                self._window_weights_from_cumsum(mask_cumsum, k)
                for k in self.kernel_sizes
            ]
        return conv_bank_pool(
            x,
            [getattr(self, f"weight_k{k}") for k in self.kernel_sizes],
            [getattr(self, f"bias_k{k}") for k in self.kernel_sizes],
            pooling=self.pooling,
            window_weights=window_weights,
        )
