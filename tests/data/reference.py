"""Slow, obvious review composition: the oracles for the generator's stream.

``repro.data.synthetic`` composes each review with direct bit-generator
calls (``rng.random`` + ``searchsorted`` for a weighted topic, one
``rng.integers`` per uniform draw) and rates it in plain Python. Each
function here is the ``Generator.choice`` / ``np.rint`` formulation those
replaced. ``choice`` makes the same draws inside, so a world generated with
these patched in must come out byte for byte the same; the tests check that.
"""

import numpy as np

from repro.data.synthetic import DOMAIN_WORDS, FILLER_WORDS, SENTIMENT, TOPICS


def sample_ratings_curve(affinity, user_bias, item_bias, noise, scale):
    """Map latent affinity to a 1..5 star rating."""
    raw = 3.0 + scale * affinity + user_bias + item_bias + noise
    return float(np.clip(np.rint(raw), 1, 5))


def compose_summary(rng, topic_names, item_topics, user_prefs, rating, domain, config):
    """Short topical summary: topic words + sentiment words + domain words."""
    blend = item_topics * (0.5 + user_prefs)
    blend = blend / blend.sum()
    words = []
    for _ in range(config.summary_topic_words):
        topic = topic_names[int(rng.choice(len(topic_names), p=blend))]
        words.append(str(rng.choice(TOPICS[topic])))
    words.extend(
        str(w) for w in rng.choice(SENTIMENT[rating], size=config.summary_sentiment_words)
    )
    words.extend(
        str(w) for w in rng.choice(DOMAIN_WORDS[domain], size=config.summary_domain_words)
    )
    rng.shuffle(words)
    return " ".join(words)


def compose_text(rng, summary, config, domain):
    """Longer noisy body: the summary diluted with filler and domain words."""
    extra = [str(w) for w in rng.choice(FILLER_WORDS, size=config.text_extra_words)]
    extra.extend(str(w) for w in rng.choice(DOMAIN_WORDS[domain], size=3))
    body = summary.split() + extra
    rng.shuffle(body)
    return " ".join(body)
