"""Synthetic cross-domain review corpus generator.

Substitution note (DESIGN.md §2): the paper evaluates on the public Amazon
Review and Douban datasets, which cannot be downloaded here. This generator
produces a corpus in which the paper's two modelling assumptions hold *by
construction*, so every experiment exercises the same code paths and keeps
its qualitative shape:

1. **Cross-domain preference consistency.** Each user owns a single latent
   topic-preference vector shared by all domains; a small domain-specific
   perturbation is added per domain. A sci-fi lover loves sci-fi books and
   sci-fi movies.
2. **Like-mindedness.** Ratings are a monotone function of user-item topic
   affinity plus user/item biases and noise, so two users who give the same
   item the same rating tend to have correlated preference vectors.

Review *summaries* are short and topical: words drawn from the item's topic
mixture weighted by the user's interest, plus sentiment words determined by
the rating, plus a couple of domain-specific words (so the domain classifier
has real signal to fight the GRL over). Full review *texts* are longer and
noisier — they mix in filler words — which reproduces the paper's finding
that summaries beat full texts (Table 5, OmniMatch-ReviewText).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .records import CrossDomainDataset, DomainData, Review

__all__ = [
    "GeneratorConfig",
    "DATASET_PROFILES",
    "DOMAINS",
    "TOPICS",
    "generate_scenario",
    "generate_domain_pair",
    "scale_target_catalog",
]

# ---------------------------------------------------------------------------
# Lexicons
# ---------------------------------------------------------------------------
TOPICS: dict[str, list[str]] = {
    "vampire": [
        "vampire", "fangs", "blood", "immortal", "nocturnal", "bite", "coven",
        "undead", "gothic", "pale", "thirst", "eternal", "nightwalker", "stake",
    ],
    "scifi": [
        "scifi", "spaceship", "galaxy", "robot", "alien", "future", "laser",
        "android", "warp", "cyber", "dystopia", "quantum", "starship", "clone",
    ],
    "horror": [
        "horror", "scary", "boogeyman", "creepy", "haunted", "ghost", "demon",
        "nightmare", "terrifying", "shadows", "sinister", "chilling", "eerie",
        "macabre",
    ],
    "adventure": [
        "adventure", "quest", "journey", "explorer", "treasure", "wilderness",
        "expedition", "daring", "escape", "survival", "trek", "voyage",
        "frontier", "discovery",
    ],
    "romance": [
        "romance", "love", "heart", "passion", "sweet", "tender", "kiss",
        "longing", "devotion", "soulmate", "swoon", "yearning", "beloved",
        "courtship",
    ],
    "mystery": [
        "mystery", "detective", "clue", "suspect", "twist", "puzzle", "secret",
        "whodunit", "alibi", "motive", "conspiracy", "riddle", "sleuth",
        "redherring",
    ],
    "comedy": [
        "comedy", "funny", "hilarious", "laugh", "witty", "absurd", "satire",
        "gag", "quirky", "slapstick", "banter", "parody", "deadpan", "goofy",
    ],
    "history": [
        "history", "historical", "war", "empire", "ancient", "medieval",
        "revolution", "dynasty", "battlefield", "heritage", "era", "archive",
        "chronicle", "regency",
    ],
}

SENTIMENT: dict[int, list[str]] = {
    1: ["terrible", "awful", "waste", "boring", "worst", "disappointing", "dull", "hated"],
    2: ["weak", "mediocre", "forgettable", "flat", "lacking", "tedious", "underwhelming", "meh"],
    3: ["okay", "decent", "average", "fine", "passable", "middling", "fair", "alright"],
    4: ["good", "enjoyable", "solid", "engaging", "liked", "recommended", "pleasant", "nice"],
    5: ["amazing", "fantastic", "masterpiece", "loved", "brilliant", "perfect", "stunning", "superb"],
}

DOMAIN_WORDS: dict[str, list[str]] = {
    "books": ["read", "pages", "chapter", "author", "prose", "paperback", "novel", "writing"],
    "movies": ["watched", "film", "screen", "director", "acting", "cinematography", "scenes", "cast"],
    "music": ["listened", "album", "tracks", "vocals", "melody", "lyrics", "rhythm", "chorus"],
}

FILLER_WORDS: list[str] = [
    "really", "very", "quite", "just", "maybe", "somehow", "definitely",
    "honestly", "probably", "overall", "though", "actually", "perhaps",
    "anyway", "basically", "certainly", "mostly", "rather", "slightly",
    "totally", "arrived", "quickly", "gift", "bought", "price", "package",
    "delivery", "ordered", "again", "friend", "family", "weekend", "evening",
]

DOMAINS = tuple(DOMAIN_WORDS)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic world.

    The two named profiles in :data:`DATASET_PROFILES` mirror the characters
    of the paper's datasets: ``amazon`` is sparser with milder rating noise;
    ``douban`` is denser, with stronger user/item bias variance — the regime
    in which mapping-based baselines (EMCDR/PTUPCDR) degrade hardest, which
    is exactly what Table 3 shows.
    """

    num_users: int = 320
    num_items_per_domain: int = 160
    overlap_fraction: float = 0.65
    reviews_per_user_mean: float = 9.0
    reviews_per_user_min: int = 3
    summary_topic_words: int = 4
    summary_sentiment_words: int = 2
    summary_domain_words: int = 1
    text_extra_words: int = 18
    affinity_scale: float = 1.2
    exposure_uniform_mix: float = 0.15
    exposure_sharpness: float = 4.0
    user_bias_std: float = 0.40
    item_bias_std: float = 0.35
    rating_noise_std: float = 0.35
    domain_preference_jitter: float = 0.15
    topic_concentration: float = 0.4
    item_topic_concentration: float = 0.25
    seed: int = 7


DATASET_PROFILES: dict[str, GeneratorConfig] = {
    "amazon": GeneratorConfig(
        num_users=500,
        num_items_per_domain=200,
        reviews_per_user_mean=8.0,
        seed=11,
    ),
    "douban": GeneratorConfig(
        num_users=420,
        num_items_per_domain=240,
        reviews_per_user_mean=7.0,
        rating_noise_std=0.45,
        user_bias_std=0.60,
        item_bias_std=0.50,
        domain_preference_jitter=0.12,
        seed=23,
    ),
}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
def _sample_ratings_curve(affinity: float, user_bias: float, item_bias: float,
                          noise: float, scale: float) -> float:
    """Map latent affinity to a 1..5 star rating.

    Plain float arithmetic: ``round`` rounds half to even, like ``np.rint``.
    """
    raw = 3.0 + scale * affinity + user_bias + item_bias + noise
    return float(min(max(round(raw), 1), 5))


def _draw_words(rng: np.random.Generator, lexicon: list[str], size: int) -> list[str]:
    """``size`` uniform draws from ``lexicon`` in one ``rng.integers`` call."""
    return [lexicon[i] for i in rng.integers(0, len(lexicon), size=size).tolist()]


def _compose_summary(
    rng: np.random.Generator,
    topic_names: list[str],
    item_topics: np.ndarray,
    user_prefs: np.ndarray,
    rating: int,
    domain: str,
    config: GeneratorConfig,
) -> str:
    """Short topical summary: topic words + sentiment words + domain words.

    Each word costs the bit-generator calls ``Generator.choice`` would make
    for it (DESIGN.md §2), without ``choice``'s per-call argument checks: a
    weighted topic is one ``rng.random()`` looked up in the blend's CDF,
    built once per review, and a uniform word is one ``rng.integers``.
    """
    blend = item_topics * (0.5 + user_prefs)
    blend = blend / blend.sum()
    cdf = blend.cumsum()
    cdf /= cdf[-1]
    words: list[str] = []
    for _ in range(config.summary_topic_words):
        topic = topic_names[int(cdf.searchsorted(rng.random(), side="right"))]
        lexicon = TOPICS[topic]
        words.append(lexicon[rng.integers(len(lexicon))])
    words += _draw_words(rng, SENTIMENT[rating], config.summary_sentiment_words)
    words += _draw_words(rng, DOMAIN_WORDS[domain], config.summary_domain_words)
    rng.shuffle(words)
    return " ".join(words)


def _compose_text(rng: np.random.Generator, summary: str, config: GeneratorConfig,
                  domain: str) -> str:
    """Longer noisy body: the summary diluted with filler and domain words."""
    extra = _draw_words(rng, FILLER_WORDS, config.text_extra_words)
    extra += _draw_words(rng, DOMAIN_WORDS[domain], 3)
    body = summary.split() + extra
    rng.shuffle(body)
    return " ".join(body)


def generate_domain_pair(
    source_domain: str,
    target_domain: str,
    config: GeneratorConfig,
) -> CrossDomainDataset:
    """Generate one cross-domain scenario.

    Users are drawn from a shared pool; ``overlap_fraction`` of them review
    in both domains, the rest in only one (keeping the like-minded index
    populated with non-overlapping users, as in the real datasets).
    """
    for domain in (source_domain, target_domain):
        if domain not in DOMAIN_WORDS:
            raise ValueError(f"unknown domain {domain!r}; choose from {sorted(DOMAIN_WORDS)}")
    if source_domain == target_domain:
        raise ValueError("source and target domains must differ")

    # Mix the scenario name into the seed so each (source, target) pair is a
    # distinct world — otherwise every scenario would share one latent
    # structure and the six table rows would be copies of each other.
    scenario_salt = zlib.crc32(f"{source_domain}->{target_domain}".encode())
    rng = np.random.default_rng((config.seed, scenario_salt))
    topic_names = list(TOPICS)
    num_topics = len(topic_names)

    # --- latent user structure (shared across domains: paper assumption 1)
    prefs = rng.dirichlet([config.topic_concentration] * num_topics, size=config.num_users)
    user_bias = rng.normal(0.0, config.user_bias_std, size=config.num_users)
    user_ids = [f"U{index:04d}" for index in range(config.num_users)]

    # membership: overlap users belong to both domains
    num_overlap = int(round(config.overlap_fraction * config.num_users))
    shuffled = rng.permutation(config.num_users)
    overlap = set(shuffled[:num_overlap].tolist())
    rest = shuffled[num_overlap:]
    half = len(rest) // 2
    source_only = set(rest[:half].tolist())
    target_only = set(rest[half:].tolist())

    domains_data: dict[str, list[Review]] = {source_domain: [], target_domain: []}
    for domain, member_extra in (
        (source_domain, source_only),
        (target_domain, target_only),
    ):
        members = sorted(overlap | member_extra)
        item_topics = rng.dirichlet(
            [config.item_topic_concentration] * num_topics,
            size=config.num_items_per_domain,
        )
        item_bias = rng.normal(0.0, config.item_bias_std, size=config.num_items_per_domain)
        item_ids = [f"{domain[:2].upper()}{index:04d}" for index in range(config.num_items_per_domain)]

        for user_index in members:
            jitter = rng.normal(0.0, config.domain_preference_jitter, size=num_topics)
            domain_prefs = np.clip(prefs[user_index] + jitter, 1e-6, None)
            domain_prefs = domain_prefs / domain_prefs.sum()

            count = max(
                config.reviews_per_user_min,
                int(rng.poisson(config.reviews_per_user_mean)),
            )
            count = min(count, config.num_items_per_domain)
            # Item exposure mixes preference-biased picks (users buy what
            # they like) with uniform picks (gifts, impulse buys) — pure
            # preference-biased exposure would compress each user's rating
            # spread and destroy the cross-domain bias signal.
            preference_part = (item_topics @ domain_prefs) ** config.exposure_sharpness
            preference_part = preference_part / preference_part.sum()
            uniform_part = np.full(config.num_items_per_domain, 1.0 / config.num_items_per_domain)
            mix = config.exposure_uniform_mix
            exposure = mix * uniform_part + (1.0 - mix) * preference_part
            chosen = rng.choice(
                config.num_items_per_domain, size=count, replace=False, p=exposure
            )
            # Users rate on a personal curve: affinity is standardized over
            # the user's *own* selected items, so preference-concentrated
            # exposure (which drives like-mindedness) does not inflate the
            # rating distribution toward the 5-star ceiling.
            raw = item_topics[chosen] @ domain_prefs
            centered = (raw - raw.mean()) / (raw.std() + 1e-9)
            for z, item_index in zip(centered, chosen):
                rating = _sample_ratings_curve(
                    float(z),
                    float(user_bias[user_index]),
                    float(item_bias[item_index]),
                    float(rng.normal(0.0, config.rating_noise_std)),
                    config.affinity_scale,
                )
                summary = _compose_summary(
                    rng, topic_names, item_topics[item_index], domain_prefs,
                    int(rating), domain, config,
                )
                text = _compose_text(rng, summary, config, domain)
                domains_data[domain].append(
                    Review(
                        user_id=user_ids[user_index],
                        item_id=item_ids[item_index],
                        rating=rating,
                        summary=summary,
                        text=text,
                    )
                )

    dataset = CrossDomainDataset(
        source=DomainData(source_domain, domains_data[source_domain]),
        target=DomainData(target_domain, domains_data[target_domain]),
        metadata={"config": config},
    )
    return dataset


def scale_target_catalog(
    dataset: CrossDomainDataset,
    extra_items: int,
    *,
    reviews_per_item: int = 2,
    seed: int = 0,
) -> CrossDomainDataset:
    """Grow the *target* catalog to serving scale after training.

    This models the production pattern the ANN retriever exists for: the
    model was trained on the original corpus, then the live catalog grows by
    ``extra_items`` new target-domain items, each carrying a few reviews
    from *new* users (ids disjoint from the original pool, so the
    cold-start split, the training interactions, and every user document
    are untouched — only item documents are new). Pair the result with
    :meth:`repro.data.DocumentStore.with_dataset` to serve the grown
    catalog through a trained model's frozen vocabulary.

    Unlike :func:`generate_domain_pair`, which composes one review at a
    time with a few bit-generator calls each, composition here is
    vectorized: one word-table gather per word slot across all new
    reviews, which is what makes 10^5-10^6-item catalogs practical to
    synthesize; full texts reuse the summaries since only summaries feed
    item documents. Deterministic in ``(dataset sizes, extra_items,
    reviews_per_item, seed)``.
    """
    if extra_items < 0:
        raise ValueError("extra_items must be >= 0")
    if reviews_per_item < 1:
        raise ValueError("reviews_per_item must be >= 1")
    if extra_items == 0:
        return dataset
    config: GeneratorConfig = dataset.metadata.get("config", GeneratorConfig())
    domain = dataset.target.name
    rng = np.random.default_rng((seed, zlib.crc32(f"scale:{domain}".encode())))
    topic_names = list(TOPICS)
    num_topics = len(topic_names)
    n_reviews = extra_items * reviews_per_item

    # Latent structure, all drawn at once: one topic mixture + bias per new
    # item, one preference vector + bias per new (single-review) user.
    item_topics = rng.dirichlet(
        [config.item_topic_concentration] * num_topics, size=extra_items
    )
    item_bias = rng.normal(0.0, config.item_bias_std, size=extra_items)
    prefs = rng.dirichlet([config.topic_concentration] * num_topics, size=n_reviews)
    user_bias = rng.normal(0.0, config.user_bias_std, size=n_reviews)
    review_item = np.repeat(np.arange(extra_items), reviews_per_item)

    # Ratings: the same latent->stars curve as generate_domain_pair, with
    # the affinity standardized over the whole batch (each new user has a
    # single review, so there is no per-user curve to standardize against).
    raw = np.einsum("ij,ij->i", item_topics[review_item], prefs)
    z = (raw - raw.mean()) / (raw.std() + 1e-9)
    stars = np.clip(
        np.rint(
            3.0
            + config.affinity_scale * z
            + user_bias
            + item_bias[review_item]
            + rng.normal(0.0, config.rating_noise_std, size=n_reviews)
        ),
        1,
        5,
    ).astype(np.intp)

    # Word tables: every lexicon list has a fixed length, so each word slot
    # is a single fancy-index gather over a rectangular table.
    topic_table = np.array([TOPICS[name] for name in topic_names])
    sent_table = np.array([SENTIMENT[r] for r in sorted(SENTIMENT)])
    domain_words = np.array(DOMAIN_WORDS[domain])

    # Topic index per word slot via per-review inverse CDF over the same
    # user-weighted blend as _compose_summary.
    blend = item_topics[review_item] * (0.5 + prefs)
    cum = np.cumsum(blend / blend.sum(axis=1, keepdims=True), axis=1)
    draws = rng.random((n_reviews, config.summary_topic_words))
    topic_idx = np.minimum(
        (draws[:, :, None] > cum[:, None, :]).sum(axis=2), num_topics - 1
    )
    word_cols = [
        topic_table[topic_idx[:, slot],
                    rng.integers(0, topic_table.shape[1], size=n_reviews)]
        for slot in range(config.summary_topic_words)
    ]
    word_cols.extend(
        sent_table[stars - 1, rng.integers(0, sent_table.shape[1], size=n_reviews)]
        for _ in range(config.summary_sentiment_words)
    )
    word_cols.extend(
        domain_words[rng.integers(0, len(domain_words), size=n_reviews)]
        for _ in range(config.summary_domain_words)
    )
    words = np.stack(word_cols, axis=1)

    base_items = len(dataset.target.items)
    item_ids = [f"{domain[:2].upper()}N{base_items + i:06d}" for i in range(extra_items)]
    reviews = list(dataset.target.reviews)
    for r in range(n_reviews):
        summary = " ".join(words[r])
        reviews.append(
            Review(
                user_id=f"UN{r:06d}",
                item_id=item_ids[review_item[r]],
                rating=float(stars[r]),
                summary=summary,
                text=summary,
            )
        )
    return CrossDomainDataset(
        source=dataset.source,
        target=DomainData(domain, reviews),
        metadata={**dataset.metadata, "scaled_items": extra_items},
    )


def generate_scenario(
    dataset: str,
    source_domain: str,
    target_domain: str,
    seed: int | None = None,
    **overrides,
) -> CrossDomainDataset:
    """Generate a named-profile scenario, e.g. ``("amazon", "books", "movies")``.

    ``seed`` (when given) and any :class:`GeneratorConfig` field overrides
    are applied on top of the dataset profile.
    """
    if dataset not in DATASET_PROFILES:
        raise ValueError(f"unknown dataset {dataset!r}; choose from {sorted(DATASET_PROFILES)}")
    config = DATASET_PROFILES[dataset]
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = replace(config, **overrides)
    cdd = generate_domain_pair(source_domain, target_domain, config)
    cdd.metadata["dataset"] = dataset
    return cdd
