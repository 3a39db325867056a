"""The user-encode contract: a user's rating-head rows depend on the user's
own documents alone.

``repro.serve.blocking.encode_users`` runs each user tower's conv as one
GEMM per document and its heads on USER_BLOCK-row blocks, so a user's
``(invariant, user_repr)`` must be bit-identical whether the user is
encoded alone, in any batch, or in any order. The explicit small batches
below are the row counts at which one batch-wide conv GEMM over only the
real documents gives different bits on ``tiny_config`` shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OmniMatchConfig, OmniMatchTrainer
from repro.serve.blocking import encode_users
from repro.serve.engine import ColdStartDocuments

from .helpers import tiny_config

MODES = ("blend", "dual", "aux_only")
SHAPES = {
    "tiny": tiny_config,
    # The default extractor shapes (doc_len, embed_dim, filters, kernels,
    # pooling, head widths); only the vocabulary is cut for speed.
    "default": lambda **overrides: OmniMatchConfig(
        vocab_size=300, early_stopping=False, **overrides
    ),
    "transformer": lambda **overrides: tiny_config(
        extractor="transformer", transformer_layers=1, transformer_heads=2,
        **overrides,
    ),
}
CASES = [(shape, mode) for shape in ("tiny", "default") for mode in MODES]
CASES.append(("transformer", "dual"))


@pytest.fixture(scope="module")
def encoders(world):
    """(shape, mode) -> (encode(user_ids) -> rows, users, rows of each user
    encoded alone)."""
    dataset, split = world
    users = sorted(dataset.source.users)
    out = {}
    for shape, mode in CASES:
        result = OmniMatchTrainer(
            dataset, split, SHAPES[shape](epochs=1, cold_inference=mode)
        ).fit()
        docs = ColdStartDocuments(result)

        def encode(user_ids, model=result.model, docs=docs):
            return encode_users(model, list(user_ids), docs)

        alone = [encode([user]) for user in users]
        rows = {
            user: (inv[0], rep[0]) for user, (inv, rep) in zip(users, alone)
        }
        out[(shape, mode)] = (encode, users, rows)
    return out


def assert_rows(encode, batch, rows):
    invariant, user_repr = encode(batch)
    assert invariant.shape[0] == user_repr.shape[0] == len(batch)
    for position, user in enumerate(batch):
        want_inv, want_repr = rows[user]
        np.testing.assert_array_equal(invariant[position], want_inv, err_msg=user)
        np.testing.assert_array_equal(user_repr[position], want_repr, err_msg=user)


@pytest.mark.parametrize("shape,mode", CASES)
def test_whole_population_matches_alone(encoders, shape, mode):
    encode, users, rows = encoders[(shape, mode)]
    assert_rows(encode, users, rows)
    assert_rows(encode, users[::-1], rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", MODES)
def test_small_batches_match_alone_and_whole_population(encoders, mode, n):
    encode, users, rows = encoders[("tiny", mode)]
    everyone = encode(users)
    batch = encode(users[:n])
    for part, whole in zip(batch, everyone):
        np.testing.assert_array_equal(part, whole[:n])
    assert_rows(encode, users[:n], rows)
    assert_rows(encode, users[-n:][::-1], rows)


@pytest.mark.parametrize("shape,mode", CASES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_batch_in_any_order_matches_alone(encoders, shape, mode, data):
    encode, users, rows = encoders[(shape, mode)]
    batch = data.draw(
        st.lists(st.sampled_from(users), min_size=1, max_size=70), label="batch"
    )
    assert_rows(encode, batch, rows)
