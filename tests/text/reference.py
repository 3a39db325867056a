"""Slow, obvious references for the PPMI-SVD embedding pipeline.

``repro.text.embeddings._cooccurrence_counts`` counts window pairs with
one shifted-array pass per offset and ``np.unique``; ``cooccurrence_counts``
is the per-token loop it replaced. ``train_ppmi_svd_embeddings`` builds the
PPMI matrix from numpy counts; ``ppmi_svd_embeddings`` is the
``scipy.sparse.coo_matrix`` formulation it replaced. The tests check both
pairs agree byte for byte.
"""

import numpy as np
from scipy.sparse import coo_matrix


def cooccurrence_counts(documents, vocab, window):
    """Symmetric within-window co-occurrence counts, one token at a time."""
    rows, cols, vals = [], [], []
    for doc in documents:
        ids = [vocab.index_of(tok) for tok in doc]
        for center, wid in enumerate(ids):
            if wid == vocab.pad_index:
                continue
            lo = max(0, center - window)
            for other in ids[lo:center]:
                if other == vocab.pad_index:
                    continue
                rows.append(wid)
                cols.append(other)
                vals.append(1.0)
                rows.append(other)
                cols.append(wid)
                vals.append(1.0)
    size = len(vocab)
    return coo_matrix((vals, (rows, cols)), shape=(size, size))


def ppmi_svd_embeddings(documents, vocab, dim=64, window=4, seed=0):
    """The embedding table through sparse matrices, as first written."""
    from repro.text import random_embeddings
    from scipy.sparse.linalg import svds

    counts = cooccurrence_counts(documents, vocab, window).tocsr()
    total = counts.sum()
    if total == 0:
        return random_embeddings(len(vocab), dim, seed=seed, pad_index=vocab.pad_index)

    row_sums = np.asarray(counts.sum(axis=1)).ravel()
    col_sums = np.asarray(counts.sum(axis=0)).ravel()

    coo = counts.tocoo()
    with np.errstate(divide="ignore"):
        pmi = np.log(coo.data * total / (row_sums[coo.row] * col_sums[coo.col]))
    positive = pmi > 0
    ppmi = coo_matrix(
        (pmi[positive], (coo.row[positive], coo.col[positive])), shape=counts.shape
    )

    k = min(dim, min(ppmi.shape) - 1)
    rng = np.random.default_rng(seed)
    if min(ppmi.shape) <= 2048:
        u, s, _ = np.linalg.svd(ppmi.toarray(), full_matrices=False)
        u, s = u[:, :k], s[:k]
    else:
        v0 = rng.normal(size=min(ppmi.shape))
        u, s, _ = svds(ppmi.tocsc().astype(np.float64), k=k, v0=v0)
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    table = (u * signs) * np.sqrt(s)

    if k < dim:
        table = np.concatenate([table, np.zeros((table.shape[0], dim - k))], axis=1)

    seen = np.asarray(counts.sum(axis=1)).ravel() > 0
    unseen = ~seen
    unseen[vocab.pad_index] = False
    table[unseen] = rng.normal(0.0, 0.01, size=(int(unseen.sum()), dim))
    table[vocab.pad_index] = 0.0
    return table
