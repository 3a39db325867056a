"""Slow, obvious reference for the vectorized co-occurrence count.

``repro.text.embeddings._cooccurrence_counts`` counts window pairs with
one shifted-array pass per offset. This is the per-token loop it
replaced; the tests check both give the same CSR matrix byte for byte.
"""

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
