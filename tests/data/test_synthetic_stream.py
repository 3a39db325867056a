"""The generator's RNG call sequence is part of every world's identity.

``repro.data.synthetic`` composes and rates reviews with direct
bit-generator calls; ``reference.py`` holds the ``Generator.choice`` /
``np.rint`` formulations they replaced. A world generated with those
oracles patched in must equal the real one byte for byte, and the twelve
default scenarios must keep their committed digests, so any change to the
draws, their order or their sizes fails here by name (DESIGN.md §2).
"""

import hashlib
import itertools
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DATASET_PROFILES, DOMAINS, generate_domain_pair, generate_scenario
from repro.data import synthetic

from . import reference

PAIRS = list(itertools.permutations(DOMAINS, 2))

#: SHA-256 of :func:`world_digest` for every default scenario.
DEFAULT_DIGESTS = {
    "amazon:books->movies": "ffba3cfb14bfa0a1f591019da232ee1b64b4f069dacfca00bcbbc4f481c26aa1",
    "amazon:books->music": "919bda8727cd70c9761eedb213b156f55ebbc505ffd9c98d47d6502c3fc796e7",
    "amazon:movies->books": "2ffdb38140a3425fcd7af1517f6a2dea8a3e65115ab4e9c2e3515abf2e5030f1",
    "amazon:movies->music": "c3d5175fa0044684619b77dacc47c23fe2711aaed59538dad74c3eacd454a796",
    "amazon:music->books": "7e374c363b07579a0d1c163b4877922a52258ee0f3a228f3b1872cc7974f0e5f",
    "amazon:music->movies": "05be44b07acea4e4a52472445e73b2d282cd17b44cb56b26e1ebdbf802ef28e4",
    "douban:books->movies": "c24aa82ae8e564010f02cc531787cee18982d94dac7466486bb4dea1c10edb3f",
    "douban:books->music": "0c84a440643e82ddcb4e5464750b783ea37f22dfe78d949a49fa07e99dbd7f8b",
    "douban:movies->books": "7d6e692225031308c44ac2c820fff53243902b2dd1052dad640bfb12ca1acf2d",
    "douban:movies->music": "c6291150259e1bde998d168a0ea1985b34cd654284e8cb5420afd562b05a221b",
    "douban:music->books": "ff3b7cddfe499390b9d55703795e5908a87e3a017aa04f589594b69812b00826",
    "douban:music->movies": "5152c6647a773716fc63d234d7041ef77412aec1965cd3e40e3c45f0df2550cd",
}


def world_rows(dataset):
    return [
        (domain.name, r.user_id, r.item_id, r.rating, r.summary, r.text)
        for domain in (dataset.source, dataset.target)
        for r in domain.reviews
    ]


def world_digest(dataset):
    """One line per review of both domains, ``repr`` of every field."""
    digest = hashlib.sha256()
    for row in world_rows(dataset):
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def generate_with_oracles(source, target, config):
    with mock.patch.multiple(
        synthetic,
        _compose_summary=reference.compose_summary,
        _compose_text=reference.compose_text,
        _sample_ratings_curve=reference.sample_ratings_curve,
    ):
        return generate_domain_pair(source, target, config)


configs = st.builds(
    lambda profile, **fields: replace(DATASET_PROFILES[profile], **fields),
    profile=st.sampled_from(sorted(DATASET_PROFILES)),
    num_users=st.integers(2, 24),
    num_items_per_domain=st.integers(3, 30),
    summary_topic_words=st.integers(0, 6),
    summary_sentiment_words=st.integers(0, 6),
    summary_domain_words=st.integers(0, 6),
    text_extra_words=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)


class TestSameStreamAsOracles:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(pair=st.sampled_from(PAIRS), config=configs)
    def test_world_identical_to_choice_formulation(self, pair, config):
        fast = generate_domain_pair(*pair, config)
        slow = generate_with_oracles(*pair, config)
        assert world_rows(fast) == world_rows(slow)


@pytest.mark.parametrize(
    "profile,source,target",
    [(profile, *pair) for profile in sorted(DATASET_PROFILES) for pair in PAIRS],
    ids=lambda value: value,
)
def test_default_scenario_digest(profile, source, target):
    digest = world_digest(generate_scenario(profile, source, target))
    assert digest == DEFAULT_DIGESTS[f"{profile}:{source}->{target}"]
