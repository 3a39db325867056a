"""Canonical blocked encoding: the serving engine's bit-identity primitive.

The extractors bottom out in BLAS GEMMs, and a GEMM's per-row results are
*not* independent of the batch's row count: OpenBLAS picks kernels and
blocking by the ``m`` dimension, so the same document encoded in a batch of
7 and a batch of 256 can differ in the last float32 bit. They *are*
independent of the other rows' content — two batches with the same row
count produce bit-identical outputs row by row, whatever else shares the
batch (measured property; ``tests/serve/test_blocking.py`` pins it).

The serving engine therefore runs every GEMM of an encode at a fixed row
count, so an entity's representation is a pure function of its own
document: encode-once caching, cache eviction + re-encode, and full
re-encoding (the naive reference path) all agree bit for bit. Two
primitives do it:

* Items go through :func:`encode_blocked`, which pads every block to
  exactly ``block`` rows — the engine's ``batch_size``
  (:data:`DEFAULT_BLOCK`). The catalog is encoded in bulk at build time,
  where one 256-document conv GEMM is cheaper than 256 one-document ones
  (7.9 vs 13.3 ms per 256 item documents, one BLAS thread, 2-core x86_64).
* Users go through :func:`encode_users`. A user-cache miss is usually one
  cold user, so padding it to a block would encode pad documents. The
  document encoder instead runs on one real document per call, so the
  conv bank's GEMM is a fixed
  ``(doc_len + pad - max(k) + 1) x (max(k) * embed)`` product on every
  call, and only the cheap head ``Linear`` layers run on zero-padded
  :data:`USER_BLOCK`-row blocks. A miss costs one document's encode; a
  user's rows hold for any number of misses and any fixed BLAS thread
  count by construction. At the default config they equal the earlier
  encoding (whole towers on 32-row padded blocks) bit for bit, so no
  served score moved.

The rating head has its own primitive here, :func:`score_user_rows`, for
the same reason: every serving path (exact scan, IVF candidates and
centroid probe, shard scans, pair scoring, and the reference path) scores
through it, so they all run the same float operations. It folds the user
into the head's first layer (Eq. 18's MLP over ``[user_repr, r_item,
invariant * r_item]``): with ``W0 = [W_u | W_i | W_x]`` split by column,

* ``const = user_repr @ W_u.T + b0`` (one row), and
* ``W_eff = W_i.T + invariant[:, None] * W_x.T`` (``item_dim x hidden``),

so a block of item rows costs ``relu(rows @ W_eff + const)`` — an
``item_dim``-wide GEMM instead of the ``head_dim``-wide one over
concatenated features — then the remaining layers, softmax and the
expected rating, in plain numpy (no autograd tape). The fold reassociates
the first layer's sums, so served scores equal the training MLP
(``OmniMatchModel.rating_logits``) on the same representations to float
rounding, not bit for bit; every serving path agrees with every other bit
for bit, because they share this function and its fixed block row count.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .. import nn
from ..core.model import RATING_VALUES

__all__ = [
    "DEFAULT_BLOCK",
    "USER_BLOCK",
    "encode_blocked",
    "encode_users",
    "inference_mode",
    "score_pairs_by_user",
    "score_user_rows",
]

#: Default rows per item encode block (also the engine's default batch size).
DEFAULT_BLOCK = 256

#: Rows per user-tower encode block, on every path that encodes a user.
USER_BLOCK = 32


@contextmanager
def inference_mode(model: nn.Module) -> Iterator[None]:
    """Eval mode + no-grad for the block, restoring the previous mode."""
    was_training = model.training
    model.eval()
    try:
        with nn.no_grad():
            yield
    finally:
        model.train(was_training)


def _pad_rows(rows: np.ndarray, block: int) -> np.ndarray:
    """Pad ``rows`` with all-padding-token documents up to ``block`` rows."""
    pad = np.zeros((block - len(rows), rows.shape[1]), dtype=rows.dtype)
    return np.concatenate([rows, pad])


def encode_blocked(
    encode: Callable[[np.ndarray], np.ndarray | Sequence[np.ndarray]],
    rows: np.ndarray,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Run ``encode`` over ``rows`` in blocks of exactly ``block`` rows.

    The final partial block is padded with all-zero (padding-token)
    documents so every ``encode`` call sees the same row count; the pad
    rows' outputs are discarded. ``encode`` maps a ``(block, doc_len)``
    array to one ``(block, d)`` array or a tuple of them (e.g. the user
    extractor's ``(invariant, specific)`` pair); the outputs are stacked
    back to ``len(rows)`` rows in order.

    Raises ``ValueError`` on an empty input — callers own the trivial case
    because the output width is unknowable without running ``encode``.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    if len(rows) == 0:
        raise ValueError("encode_blocked needs at least one row")
    pieces: list[np.ndarray | Sequence[np.ndarray]] = []
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        kept = len(chunk)
        if kept < block:
            chunk = _pad_rows(chunk, block)
        out = encode(chunk)
        if isinstance(out, np.ndarray):
            pieces.append(out[:kept])
        else:
            pieces.append(tuple(part[:kept] for part in out))
    if isinstance(pieces[0], np.ndarray):
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    outputs = tuple(
        parts[0] if len(pieces) == 1 else np.concatenate(parts)
        for parts in zip(*pieces)
    )
    return outputs


def encode_users(model, user_ids: Sequence[str], docs) -> tuple[np.ndarray, np.ndarray]:
    """Stacked rating-head inputs ``(invariant, user_repr)`` for ``user_ids``.

    ``docs`` hands out each user's token documents (``target_doc`` and
    ``source_doc``, as :class:`repro.serve.engine.ColdStartDocuments`
    does). Each tower runs its document encoder on one document at a time,
    unpadded, then its heads in :data:`USER_BLOCK`-row blocks; the source
    tower runs only when ``cold_inference`` blends it in. The
    mode-specific combination of Eq. 18 is elementwise and a concat, so it
    runs on the whole batch at once.
    """
    extractor = model.user_extractor

    def tower(domain: str, documents: np.ndarray) -> tuple[np.ndarray, ...]:
        pooled = np.concatenate(
            [extractor.encode(documents[d : d + 1], domain).data
             for d in range(len(documents))]
        )
        return encode_blocked(
            lambda chunk: tuple(
                t.data for t in extractor.heads(nn.Tensor(chunk), domain)
            ),
            pooled,
            USER_BLOCK,
        )

    with inference_mode(model):
        target_inv, target_spec = tower(
            "target", np.stack([docs.target_doc(u) for u in user_ids])
        )
        source_inv = None
        if model.config.cold_inference in ("blend", "dual"):
            source_inv, _ = tower(
                "source", np.stack([docs.source_doc(u) for u in user_ids])
            )
        invariant, user_repr = model._rating_inputs(
            nn.Tensor(source_inv) if source_inv is not None else None,
            nn.Tensor(target_inv),
            nn.Tensor(target_spec),
        )
    return invariant.data, user_repr.data


class _FoldedHead:
    """The rating head with one user folded into its first layer."""

    def __init__(
        self, head: nn.MLP, invariant: np.ndarray, user_repr: np.ndarray
    ) -> None:
        first = head.linears[0]
        weight = first.weight.data
        user_repr = user_repr.reshape(-1)
        user_width = len(user_repr)
        item_width = (weight.shape[1] - user_width) // 2
        # Row-major weight column slices go to BLAS as they are (no copy).
        self.const = weight[:, :user_width] @ user_repr
        if first.bias is not None:
            self.const += first.bias.data
        # (item_dim, hidden) in C order: the block GEMM's fast layout.
        self.w_eff = weight[:, user_width + item_width :].T.copy()
        self.w_eff *= invariant.reshape(-1, 1)
        self.w_eff += weight[:, user_width : user_width + item_width].T
        self.rest = [
            (
                np.ascontiguousarray(linear.weight.data.T),
                None if linear.bias is None else linear.bias.data,
            )
            for linear in head.linears[1:]
        ]
        self.final_relu = head.final_activation
        self.ratings = RATING_VALUES.astype(weight.dtype)

    def __call__(self, rows: np.ndarray, kept: int) -> np.ndarray:
        """Expected ratings for the first ``kept`` rows of one padded block.

        Every GEMM and the softmax run on the whole block, so their row
        count never changes; the elementwise bias and ReLU steps, exact
        in IEEE arithmetic whatever the array length, skip the pad rows.
        """
        hidden = rows @ self.w_eff
        hidden[:kept] += self.const
        for weight, bias in self.rest:
            np.maximum(hidden[:kept], 0.0, out=hidden[:kept])
            hidden = hidden @ weight
            if bias is not None:
                hidden += bias
        if self.final_relu:
            np.maximum(hidden, 0.0, out=hidden)
        # Softmax-weighted expected rating, sum_k p(k) * k, without forming
        # p. Column-major logits make the per-row reductions over the five
        # classes several times faster.
        logits = np.asfortranarray(hidden)
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        return ((logits @ self.ratings) / logits.sum(axis=1))[:kept]


def score_user_rows(
    head: nn.MLP,
    invariant: np.ndarray,
    user_repr: np.ndarray,
    matrix: np.ndarray,
    slots: np.ndarray | None = None,
    *,
    block: int = DEFAULT_BLOCK,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Expected ratings of one user against ``matrix`` rows (all of them,
    or the ``slots`` gather), through the folded rating head.

    ``invariant``/``user_repr`` are the user's rating-head inputs (one row
    each). Item rows are copied ``block`` at a time into ``rows`` (a
    ``(block, item_dim)`` scratch, allocated when omitted) and the final
    partial block is zero-padded, so every head GEMM has exactly ``block``
    rows and a row's score does not depend on which rows share its block.
    Scores go to ``out`` (allocated when omitted) and are returned.
    """
    count = len(matrix) if slots is None else len(slots)
    if out is None:
        out = np.empty(count, dtype=matrix.dtype)
    if count == 0:
        return out
    if rows is None:
        rows = np.zeros((block, matrix.shape[1]), dtype=matrix.dtype)
    folded = _FoldedHead(head, invariant, user_repr)
    for start in range(0, count, block):
        kept = min(block, count - start)
        if slots is None:
            rows[:kept] = matrix[start : start + kept]
        else:
            np.take(matrix, slots[start : start + kept], axis=0, out=rows[:kept])
        if kept < block:  # zero the pad rows, like encode_blocked
            rows[kept:] = 0.0
        out[start : start + kept] = folded(rows, kept)
    return out


def score_pairs_by_user(
    head: nn.MLP,
    user_ids: Sequence[str],
    user_rows: Mapping[str, tuple[np.ndarray, np.ndarray]],
    item_rows: np.ndarray,
    *,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Expected ratings for pairs: pair ``p`` is user ``user_ids[p]``,
    whose rating-head inputs are ``user_rows[user_id] = (invariant,
    user_repr)``, with item row ``item_rows[p]``.

    Pairs are grouped by user in first-seen order and each user's item
    rows go through one :func:`score_user_rows` call, so a pair's score is
    the one a full-catalog scan gives that (user, item).
    """
    out = np.empty(len(user_ids), dtype=item_rows.dtype)
    groups: dict[str, list[int]] = {}
    for position, user_id in enumerate(user_ids):
        groups.setdefault(user_id, []).append(position)
    rows = np.zeros((block, item_rows.shape[1]), dtype=item_rows.dtype)
    for user_id, positions in groups.items():
        positions = np.asarray(positions, dtype=np.intp)
        invariant, user_repr = user_rows[user_id]
        out[positions] = score_user_rows(
            head, invariant, user_repr, item_rows, positions,
            block=block, rows=rows,
        )
    return out
