"""Canonical blocked encoding: the serving engine's bit-identity primitive.

The extractors bottom out in BLAS GEMMs, and a GEMM's per-row results are
*not* independent of the batch's row count: OpenBLAS picks kernels and
blocking by the ``m`` dimension, so the same document encoded in a batch of
7 and a batch of 256 can differ in the last float32 bit. They *are*
independent of the other rows' content — two batches with the same row
count produce bit-identical outputs row by row, whatever else shares the
batch (measured property; ``tests/serve/test_blocking.py`` pins it).

The serving engine therefore encodes **everything** — item catalog blocks,
user-cache fills, and the naive re-encoding reference path — through
:func:`encode_blocked`, which pads every block to exactly ``block`` rows.
With the GEMM ``m`` fixed, an entity's representation is a pure function of
its own document: encode-once caching, cache eviction + re-encode, and
full re-encoding all agree bit for bit.

Two fixed row counts are in use. Items (and rating-head chunks) go in
blocks of the engine's ``batch_size`` (:data:`DEFAULT_BLOCK`), because the
catalog is encoded in bulk. Users always go in blocks of
:data:`USER_BLOCK`, whatever the batch size: a user-cache miss is usually
one cold user, and a 256-row block would be 255 rows of padding. 32 is the
smallest block whose rows are bit-identical to a 256-row block on the
reference box (blocks of 1–16 differ), so it serves the same scores.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .. import nn

__all__ = ["DEFAULT_BLOCK", "USER_BLOCK", "encode_blocked", "inference_mode"]

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
