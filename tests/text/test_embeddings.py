"""Unit tests for PPMI-SVD word embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import Vocabulary, random_embeddings, train_ppmi_svd_embeddings
from repro.text.embeddings import _cooccurrence_counts
from repro.text.vocab import PAD_TOKEN, UNK_TOKEN

from .reference import cooccurrence_counts


def corpus():
    """Two clear topical clusters: fruit words and metal words."""
    fruit = ["apple", "banana", "cherry"]
    metal = ["iron", "copper", "zinc"]
    docs = []
    rng = np.random.default_rng(0)
    for _ in range(200):
        group = fruit if rng.random() < 0.5 else metal
        docs.append(list(rng.choice(group, size=4)))
    return docs


class TestPPMISVD:
    def test_shape(self):
        docs = corpus()
        vocab = Vocabulary.build(docs)
        table = train_ppmi_svd_embeddings(docs, vocab, dim=8)
        assert table.shape == (len(vocab), 8)

    def test_pad_row_is_zero(self):
        docs = corpus()
        vocab = Vocabulary.build(docs)
        table = train_ppmi_svd_embeddings(docs, vocab, dim=8)
        np.testing.assert_allclose(table[vocab.pad_index], 0.0)

    def test_semantic_clusters(self):
        docs = corpus()
        vocab = Vocabulary.build(docs)
        table = train_ppmi_svd_embeddings(docs, vocab, dim=8)

        def cos(a, b):
            x, y = table[vocab.index_of(a)], table[vocab.index_of(b)]
            return x @ y / (np.linalg.norm(x) * np.linalg.norm(y) + 1e-12)

        assert cos("apple", "banana") > cos("apple", "iron")
        assert cos("iron", "copper") > cos("iron", "cherry")

    def test_deterministic(self):
        docs = corpus()
        vocab = Vocabulary.build(docs)
        t1 = train_ppmi_svd_embeddings(docs, vocab, dim=8, seed=3)
        t2 = train_ppmi_svd_embeddings(docs, vocab, dim=8, seed=3)
        np.testing.assert_allclose(t1, t2)

    def test_unseen_tokens_get_small_vectors(self):
        docs = corpus()
        vocab = Vocabulary.build(docs + [["neverseen"]])
        # remove the doc so 'neverseen' has no co-occurrences
        table = train_ppmi_svd_embeddings(docs, vocab, dim=8)
        vec = table[vocab.index_of("neverseen")]
        assert 0 < np.linalg.norm(vec) < 0.2

    def test_empty_corpus_falls_back_to_random(self):
        vocab = Vocabulary.build([["a", "b"]])
        table = train_ppmi_svd_embeddings([], vocab, dim=4)
        assert table.shape == (len(vocab), 4)
        np.testing.assert_allclose(table[vocab.pad_index], 0.0)

    def test_dim_larger_than_vocab_pads_with_zeros(self):
        docs = [["a", "b"], ["b", "a"]]
        vocab = Vocabulary.build(docs)
        table = train_ppmi_svd_embeddings(docs, vocab, dim=32)
        assert table.shape == (len(vocab), 32)

    def test_invalid_dim(self):
        vocab = Vocabulary.build([["a"]])
        import pytest

        with pytest.raises(ValueError):
            train_ppmi_svd_embeddings([["a"]], vocab, dim=0)


def assert_same_csr(docs, vocab, window):
    fast = _cooccurrence_counts(docs, vocab, window).tocsr()
    slow = cooccurrence_counts(docs, vocab, window).tocsr()
    for name in ("indptr", "indices", "data"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestCooccurrenceMatchesLoop:
    EDGE_DOCS = [
        [],
        ["a"],
        ["a", "b"],
        [PAD_TOKEN, "a", PAD_TOKEN, "b", "c"],
        ["a", "never-in-vocab", UNK_TOKEN, "b", "a", "a"],
        [PAD_TOKEN, PAD_TOKEN],
        [],
        ["c", "b", "a", "b", "c", "d", "e", "a", "b"],
    ]

    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_edge_documents(self, window):
        vocab = Vocabulary.build([["a", "b", "c", "d", "e"]])
        assert_same_csr(self.EDGE_DOCS, vocab, window)

    @pytest.mark.parametrize("docs", [[], [[]], [["a"]], [[PAD_TOKEN, "a"]]])
    def test_corpora_without_pairs(self, docs):
        vocab = Vocabulary.build([["a", "b"]])
        assert_same_csr(docs, vocab, 3)
        assert _cooccurrence_counts(docs, vocab, 3).nnz == 0

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "zz", PAD_TOKEN, UNK_TOKEN]),
                     max_size=9),
            max_size=6,
        ),
        window=st.integers(1, 5),
    )
    def test_drawn_corpora(self, docs, window):
        vocab = Vocabulary.build([["a", "b", "c"]])
        assert_same_csr(docs, vocab, window)

    def test_embedding_table_bit_identical(self, monkeypatch):
        from repro.text import embeddings

        docs = corpus()
        vocab = Vocabulary.build(docs)
        fast = train_ppmi_svd_embeddings(iter(docs), vocab, dim=8, seed=1)
        monkeypatch.setattr(embeddings, "_cooccurrence_counts", cooccurrence_counts)
        slow = train_ppmi_svd_embeddings(docs, vocab, dim=8, seed=1)
        assert np.array_equal(fast, slow)

class TestRandomEmbeddings:
    def test_deterministic(self):
        np.testing.assert_allclose(
            random_embeddings(10, 4, seed=1), random_embeddings(10, 4, seed=1)
        )

    def test_pad_zeroed(self):
        table = random_embeddings(5, 3, pad_index=0)
        np.testing.assert_allclose(table[0], 0.0)

    def test_no_pad_index(self):
        table = random_embeddings(5, 3, pad_index=None)
        assert np.linalg.norm(table[0]) > 0
