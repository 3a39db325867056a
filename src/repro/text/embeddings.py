"""Offline word embeddings: PPMI co-occurrence + truncated SVD.

Substitution note (see DESIGN.md §2): the paper feeds pretrained 300-d
fastText vectors to the CNN. With no network access, we train embeddings on
the corpus itself using the classic count-based pipeline — positive
pointwise mutual information over a symmetric context window, factorized
with a truncated SVD (Levy & Goldberg 2014 showed this is closely related
to skip-gram with negative sampling). Like fastText in the paper, the
resulting table is *frozen* during model training.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .vocab import Vocabulary

__all__ = ["train_ppmi_svd_embeddings", "random_embeddings"]


def _cooccurrence_counts(
    documents: Iterable[Sequence[str]],
    vocab: Vocabulary,
    window: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric within-window co-occurrence counts over the corpus.

    One shifted-array pass per offset ``1..window`` over the concatenated
    corpus: the token at position ``t`` pairs with the one at ``t - offset``
    when both sit in the same document and neither is PAD, and each pair
    is counted in both directions. Returns the nonzero cells as ``(rows,
    cols, counts)`` in row-major order (``counts`` as float64).
    """
    docs = [[vocab.index_of(tok) for tok in doc] for doc in documents]
    ids = np.fromiter(chain.from_iterable(docs), dtype=np.int64)
    doc_of = np.repeat(np.arange(len(docs)), [len(doc) for doc in docs])
    not_pad = ids != vocab.pad_index
    rows, cols = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for offset in range(1, window + 1):
        keep = (
            (doc_of[offset:] == doc_of[:-offset])
            & not_pad[offset:]
            & not_pad[:-offset]
        )
        center, other = ids[offset:][keep], ids[:-offset][keep]
        rows += [center, other]
        cols += [other, center]
    size = len(vocab)
    cells, counts = np.unique(
        np.concatenate(rows) * size + np.concatenate(cols), return_counts=True
    )
    return cells // size, cells % size, counts.astype(np.float64)


def train_ppmi_svd_embeddings(
    documents: Iterable[Sequence[str]],
    vocab: Vocabulary,
    dim: int = 64,
    window: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Train a frozen embedding table of shape ``(len(vocab), dim)``.

    Rows for PAD stay zero; tokens never seen in the corpus (including UNK)
    get small deterministic random vectors so they are distinguishable from
    padding without carrying spurious semantics.
    """
    if dim < 1:
        raise ValueError("embedding dim must be >= 1")
    rows, cols, counts = _cooccurrence_counts(documents, vocab, window)
    size = len(vocab)
    total = counts.sum()
    if total == 0:
        return random_embeddings(size, dim, seed=seed, pad_index=vocab.pad_index)

    row_sums = np.bincount(rows, weights=counts, minlength=size)
    col_sums = np.bincount(cols, weights=counts, minlength=size)
    with np.errstate(divide="ignore"):
        pmi = np.log(counts * total / (row_sums[rows] * col_sums[cols]))
    positive = pmi > 0
    rows, cols, pmi = rows[positive], cols[positive], pmi[positive]

    k = min(dim, size - 1)
    rng = np.random.default_rng(seed)
    if size <= 2048:
        # Small vocabulary: dense SVD is cheap and — unlike ARPACK — exactly
        # deterministic across runs and thread counts.
        ppmi = np.zeros((size, size))
        ppmi[rows, cols] = pmi
        u, s, _ = np.linalg.svd(ppmi, full_matrices=False)
        u, s = u[:, :k], s[:k]
    else:
        # ~0.2 s to import scipy.sparse; only this branch uses it.
        from scipy.sparse import coo_matrix
        from scipy.sparse.linalg import svds

        ppmi = coo_matrix((pmi, (rows, cols)), shape=(size, size))
        v0 = rng.normal(size=size)
        u, s, _ = svds(ppmi.tocsc().astype(np.float64), k=k, v0=v0)
        # svds returns ascending singular values; flip to descending.
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    # Fix the sign convention so the factorization itself is canonical.
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    table = (u * signs) * np.sqrt(s)

    if k < dim:  # tiny vocabularies: pad with zeros to the requested dim
        table = np.concatenate([table, np.zeros((table.shape[0], dim - k))], axis=1)

    # Unseen tokens get small random vectors; PAD stays exactly zero.
    unseen = row_sums == 0
    unseen[vocab.pad_index] = False
    table[unseen] = rng.normal(0.0, 0.01, size=(int(unseen.sum()), dim))
    table[vocab.pad_index] = 0.0
    return table


def random_embeddings(
    vocab_size: int,
    dim: int,
    seed: int = 0,
    pad_index: int | None = 0,
) -> np.ndarray:
    """Deterministic random table — the control condition for ablations."""
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 0.1, size=(vocab_size, dim))
    if pad_index is not None:
        table[pad_index] = 0.0
    return table
