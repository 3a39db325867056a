"""The wavefront SGD kernel against the per-sample loops it replaced.

``BiasedMF.fit`` and ``CMF.fit`` must leave exactly the factors and biases
the one-sample-at-a-time loops in ``reference.py`` leave: same seed, same
shuffle per epoch, same floats bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import CMF, BiasedMF, MFConfig
from repro.baselines.mf import _wavefront_levels
from repro.data.records import CrossDomainDataset, DomainData, Review
from repro.data.split import ColdStartSplit

from .reference import biased_mf_fit, cmf_fit

MF_ARRAYS = ("user_factors", "item_factors", "user_bias", "item_bias")
CMF_ARRAYS = ("_user_factors", "_item_factors", "_user_bias", "_item_bias")

configs = st.builds(
    MFConfig,
    num_factors=st.sampled_from([1, 3, 16, 33]),
    epochs=st.integers(1, 3),
    use_bias=st.booleans(),
    seed=st.integers(0, 2**16),
)


def triples(max_users=6, max_items=6, max_size=40):
    """(user, item, rating) lists with repeated users, items and pairs."""
    return st.lists(
        st.tuples(
            st.integers(0, max_users - 1).map(lambda u: f"u{u}"),
            st.integers(0, max_items - 1).map(lambda i: f"i{i}"),
            st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0]),
        ),
        min_size=1,
        max_size=max_size,
    )


def assert_same_arrays(fast, slow, names):
    for name in names:
        a, b = getattr(fast, name), getattr(slow, name)
        assert np.array_equal(a, b), (name, np.abs(a - b).max())


def cmf_world(source, target):
    def domain(name, rows):
        return DomainData(
            name, [Review(u, i, r, summary="good") for u, i, r in rows]
        )

    dataset = CrossDomainDataset(domain("books", source), domain("movies", target))
    return dataset, ColdStartSplit((), (), ())


ONE_TRIPLE = [("u0", "i0", 4.0)]
ONE_USER = [("u0", f"i{k % 5}", float(1 + k % 5)) for k in range(12)]
ONE_ITEM = [(f"u{k % 5}", "i0", float(1 + k % 5)) for k in range(12)]


class TestBiasedMFMatchesLoop:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(rows=triples(), config=configs)
    @example(rows=ONE_TRIPLE, config=MFConfig(num_factors=3, epochs=2))
    @example(rows=ONE_USER, config=MFConfig(num_factors=16, epochs=2))
    @example(rows=ONE_ITEM, config=MFConfig(num_factors=33, epochs=2, use_bias=False))
    def test_factors_and_biases_bit_identical(self, rows, config):
        fast = BiasedMF(config).fit(rows)
        slow = biased_mf_fit(BiasedMF(config), rows)
        assert fast.global_mean == slow.global_mean
        assert_same_arrays(fast, slow, MF_ARRAYS)


class TestCMFMatchesLoop:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        source=triples(),
        target=triples(),
        config=configs,
        use_bias=st.booleans(),
        source_weight=st.sampled_from([1.0, 0.5, 0.3]),
    )
    @example(source=ONE_TRIPLE, target=ONE_TRIPLE, config=MFConfig(num_factors=1),
             use_bias=True, source_weight=0.5)
    @example(source=ONE_USER, target=ONE_USER, config=MFConfig(num_factors=16),
             use_bias=False, source_weight=1.0)
    @example(source=ONE_ITEM, target=ONE_ITEM, config=MFConfig(num_factors=33),
             use_bias=True, source_weight=0.3)
    def test_factors_and_biases_bit_identical(
        self, source, target, config, use_bias, source_weight
    ):
        dataset, split = cmf_world(source, target)
        fast = CMF(config, source_weight=source_weight, use_bias=use_bias)
        slow = CMF(config, source_weight=source_weight, use_bias=use_bias)
        fast.fit(dataset, split)
        cmf_fit(slow, dataset, split)
        assert fast._mean == slow._mean
        assert_same_arrays(fast, slow, CMF_ARRAYS)


class TestWavefrontLevels:
    def test_one_user_serializes_every_sample(self):
        users = np.zeros(6, dtype=np.int64)
        items = np.arange(6, dtype=np.int64)
        assert _wavefront_levels(users, items, 1, 6).tolist() == [1, 2, 3, 4, 5, 6]

    def test_disjoint_samples_share_one_level(self):
        rows = np.arange(5, dtype=np.int64)
        assert _wavefront_levels(rows, rows, 5, 5).tolist() == [1] * 5

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=30
        )
    )
    def test_level_is_one_past_every_earlier_conflict(self, pairs):
        users = np.array([u for u, _ in pairs], dtype=np.int64)
        items = np.array([i for _, i in pairs], dtype=np.int64)
        levels = _wavefront_levels(users, items, 5, 5).tolist()
        for t, (u, i) in enumerate(pairs):
            earlier = [
                levels[s] for s in range(t)
                if users[s] == u or items[s] == i
            ]
            assert levels[t] == 1 + max(earlier, default=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_world_fit_matches_loop(seed):
    """A denser world than the drawn ones: 600 samples over 60 users, 40 items."""
    rng = np.random.default_rng(seed)
    rows = [
        (f"u{u}", f"i{i}", float(r))
        for u, i, r in zip(
            rng.integers(0, 60, 600), rng.integers(0, 40, 600), rng.integers(1, 6, 600)
        )
    ]
    config = MFConfig(epochs=4, seed=seed)
    fast = BiasedMF(config).fit(rows)
    slow = biased_mf_fit(BiasedMF(config), rows)
    assert_same_arrays(fast, slow, MF_ARRAYS)
