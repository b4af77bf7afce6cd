from __future__ import annotations

from unittest import mock

import pytest

from shopstruct import (
    Account,
    BuildConfig,
    InputError,
    Money,
    NegativeKeyword,
    Rule,
    build_account,
    generate,
    normalize,
    parse_account,
    SyntheticSpec,
)
from shopstruct import snapshot

from pins import sha256

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


def negative_objects(account: Account) -> list[tuple[int, ...]]:
    """Each negative list of ``account``, campaign then its ad groups, as
    the numbers of the objects its negatives are, in ``sort_key`` order,
    numbered by first sight: two parses that share objects alike give equal
    numbers."""
    ids: dict[int, int] = {}
    out = []
    for c in account.campaigns:
        for negatives in (c.negatives, *(g.negatives for g in c.adgroups)):
            ordered = sorted(negatives, key=NegativeKeyword.sort_key)
            out.append(tuple(ids.setdefault(id(n), len(ids)) for n in ordered))
    return out


def parse_outcome(text: str, cut: bool = True):
    """``parse_account(text)`` as the account and its ``negative_objects``,
    or its error's type and message; with ``cut`` false, as the whole text
    parses with no list read from the writer's layout."""
    try:
        if cut:
            account = parse_account(text)
        else:
            with mock.patch.object(snapshot, "_cut_lists", lambda text: None):
                account = parse_account(text)
    except InputError as exc:
        return type(exc), str(exc)
    return account, negative_objects(account)


def assert_parses_as_a_whole(text: str) -> None:
    """``parse_account(text)`` gives what parsing the whole text gives: the
    same account holding the same objects list by list, or the same error."""
    assert parse_outcome(text) == parse_outcome(text, cut=False)


def assert_every_list_is_cut(account: Account, text: str) -> None:
    """``text``, ``account``'s snapshot, has each of its non-empty negative
    lists read from the writer's layout, and its skeleton parses to the
    account with every list taken."""
    lists = [
        negatives
        for c in account.campaigns
        for negatives in (c.negatives, *(g.negatives for g in c.adgroups))
    ]
    skeleton = snapshot._cut_lists(text)
    assert skeleton is not None
    assert len(skeleton.cut) == sum(1 for negatives in lists if negatives)
    assert snapshot.parse_account_document(skeleton) == account
    assert not skeleton.cut


def assert_same_text(text: str, expected: str) -> None:
    """``text == expected``, failing fast on snapshot-sized texts.

    pytest explains a failing ``==`` between two strings with a diff of
    their lines, which runs for minutes on a snapshot of a few MB.  This
    names the texts' lengths and sha256 digests instead, and the first
    offset where they differ with the text around it on each side."""
    if text == expected:
        return
    # The first differing offset, by halving: text[:lo] == expected[:lo].
    lo, hi = 0, min(len(text), len(expected))
    while lo < hi:
        mid = (lo + hi) // 2
        if text[lo : mid + 1] == expected[lo : mid + 1]:
            lo = mid + 1
        else:
            hi = mid
    start = max(0, lo - 40)
    raise AssertionError(
        f"texts differ at offset {lo}: lengths {len(text)} and {len(expected)}, "
        f"sha256 {sha256(text)} and {sha256(expected)}\n"
        f"  text:     {text[start : lo + 40]!r}\n"
        f"  expected: {expected[start : lo + 40]!r}"
    )
