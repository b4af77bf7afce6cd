from __future__ import annotations

import pytest

from shopstruct import (
    BuildConfig,
    Money,
    Rule,
    build_account,
    generate,
    normalize,
    SyntheticSpec,
)

GOLDEN_KEYWORDS = (
    "nike shoes",
    "nike soccer white",
    "nike air max",
    "adidas running shoes",
    "adidas superstar",
    "soccer colored mens",
    "adidas superstar sneaker",
    "air max",
    "garmin chronometer",
    "large superstar shoes",
    "large tee-shirt",
)

GOLDEN_BRANDS = ("nike", "adidas", "garmin")
GOLDEN_NON_BRANDS = ("reebok",)


def make_golden_rules() -> tuple[Rule, ...]:
    return tuple(
        Rule(
            keyword=normalize(text),
            cpc=Money(100_000 + 10_000 * i),
            items=frozenset({f"item-{i + 1}"}),
        )
        for i, text in enumerate(GOLDEN_KEYWORDS)
    )


@pytest.fixture(scope="session")
def golden_rules():
    return make_golden_rules()


@pytest.fixture(scope="session")
def golden_brands():
    return tuple(normalize(b) for b in GOLDEN_BRANDS)


@pytest.fixture(scope="session")
def golden_non_brands():
    return tuple(normalize(b) for b in GOLDEN_NON_BRANDS)


@pytest.fixture(scope="session")
def golden_account(golden_rules, golden_brands, golden_non_brands):
    return build_account(golden_rules, golden_brands, golden_non_brands)


@pytest.fixture(scope="session")
def golden_naive_account(golden_rules, golden_brands, golden_non_brands):
    return build_account(
        golden_rules,
        golden_brands,
        golden_non_brands,
        config=BuildConfig(mode="naive"),
    )


FOUR_KEYWORDS = ("nike shoes", "large tee-shirt", "garmin chronometer", "adidas shoes")


@pytest.fixture(scope="session")
def four_rules():
    items = (("item-1",), ("item-2", "item-3"), ("item-4",), ("item-5",))
    return tuple(
        Rule(
            keyword=normalize(text),
            cpc=Money(200_000 + 25_000 * i),
            items=frozenset(its),
        )
        for i, (text, its) in enumerate(zip(FOUR_KEYWORDS, items))
    )


MATRIX_SIZES = (10, 100, 1000)
MATRIX_SEEDS = (1, 2, 3)


@pytest.fixture(scope="session")
def matrix_catalogues():
    """Synthetic catalogues shared by the property and acceptance suites."""
    out = {}
    for n in MATRIX_SIZES:
        for seed in MATRIX_SEEDS:
            out[(n, seed)] = generate(SyntheticSpec(n=n, seed=seed))
    return out


@pytest.fixture(scope="session")
def matrix_accounts(matrix_catalogues):
    """Both build modes for every matrix catalogue."""
    out = {}
    for (n, seed), cat in matrix_catalogues.items():
        for mode in ("naive", "reduced"):
            out[(n, seed, mode)] = build_account(
                cat.rules,
                cat.brands,
                cat.non_brands,
                config=BuildConfig(mode=mode),
            )
    return out


LIMIT_CATALOGUES = (
    "golden",
    "golden-no-brands",
    "synth-300-0",
    "synth-300-0-no-brands",
    "synth-300-1",
    "synth-300-1-no-brands",
)


@pytest.fixture(scope="session")
def limit_catalogues(golden_rules, golden_brands, golden_non_brands):
    """(rules, brands, blocked brands) for the negative-limit suites: the
    golden catalogue and synth n=300 seeds 0-1, each with and without brands."""
    out = {"golden": (golden_rules, golden_brands, golden_non_brands)}
    for seed in (0, 1):
        cat = generate(SyntheticSpec(n=300, seed=seed))
        out[f"synth-300-{seed}"] = (cat.rules, cat.brands, cat.non_brands)
    for name, (rules, _, non_brands) in list(out.items()):
        out[f"{name}-no-brands"] = (rules, (), non_brands)
    return out


@pytest.fixture(scope="session")
def unlimited_accounts(limit_catalogues):
    """Each limit catalogue built with a limit no list reaches."""
    return {
        name: build_account(*catalogue, config=BuildConfig(limit=10**9))
        for name, catalogue in limit_catalogues.items()
    }


def index_postings(index) -> set[tuple]:
    """A ``NegativeIndex`` as the set of (family, token tuple, mask) of its
    entries, so two indexes over the same lists compare equal whatever
    order or history built them, and whichever of its words buckets a large
    negative; the family and the tokens name the negative.  Each large
    bucket must be non-empty, and each large entry must sit in exactly one
    bucket, keyed by one of its own words."""
    larges = [(word, words) for word, bucket in index.larges.items() for words in bucket]
    assert all(index.larges.values())
    assert all(word in words for word, words in larges)
    assert len({words for _, words in larges}) == len(larges)
    out = {("exact", words, mask) for words, mask in index.exact.items()}
    out |= {("phrase", words, mask) for words, mask in index.phrases.items()}
    out |= {
        ("large", words, mask) for bucket in index.larges.values() for words, mask in bucket.items()
    }
    return out
