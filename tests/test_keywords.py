from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopstruct import (
    DuplicateKeywordError,
    EmptyKeywordError,
    Keyword,
    MatchType,
    NegativeIndex,
    NegativeKeyword,
    blocks,
    distinct_keywords,
    exact,
    large,
    matches,
    normalize,
    phrase,
    subword_set,
    word_set,
)

words = st.sampled_from(["nike", "adidas", "shoes", "air", "max", "large", "red"])
keywords = st.lists(words, min_size=1, max_size=5).map(lambda ws: Keyword(tuple(ws)))


def test_normalize_folds_case_and_whitespace():
    assert normalize("  Nike   SHOES ") == Keyword(("nike", "shoes"))


def test_normalize_keeps_hyphens():
    assert normalize("large tee-shirt").words == ("large", "tee-shirt")


def test_normalize_is_idempotent():
    kw = normalize("Nike Air  Max")
    assert normalize(kw.text) == kw


@pytest.mark.parametrize("text", ["", "   ", "\t\n"])
def test_normalize_rejects_empty(text):
    with pytest.raises(EmptyKeywordError):
        normalize(text)


def test_keyword_text_round_trip():
    kw = Keyword(("air", "max"))
    assert kw.text == "air max"
    assert str(kw) == "air max"


def test_exact_requires_identical_word_sequence():
    assert matches(normalize("nike shoes"), exact(normalize("nike shoes")))
    assert not matches(normalize("shoes nike"), exact(normalize("nike shoes")))
    assert not matches(normalize("nike shoes red"), exact(normalize("nike shoes")))


def test_phrase_requires_contiguous_run():
    kw = normalize("nike shoes")
    assert matches(normalize("red nike shoes sale"), phrase(kw))
    assert matches(normalize("nike shoes"), phrase(kw))
    assert not matches(normalize("nike red shoes"), phrase(kw))
    assert not matches(normalize("shoes nike"), phrase(kw))


def test_large_ignores_order_and_extra_words():
    kw = normalize("nike shoes")
    assert matches(normalize("shoes red nike"), large(kw))
    assert not matches(normalize("nike sandals"), large(kw))


def test_word_set_and_subword_set():
    kw = normalize("a b c")
    assert word_set(kw) == frozenset({"a", "b", "c"})
    assert subword_set(kw) == frozenset(
        {("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "b", "c")}
    )


@given(query=keywords, kw=keywords)
def test_match_types_grow_strictly_more_permissive(query, kw):
    if matches(query, exact(kw)):
        assert matches(query, phrase(kw))
    if matches(query, phrase(kw)):
        assert matches(query, large(kw))


@given(query=keywords, kw=keywords, seed=st.randoms(use_true_random=False))
def test_large_match_is_order_blind(query, kw, seed):
    shuffled = list(query.words)
    seed.shuffle(shuffled)
    assert matches(query, large(kw)) == matches(Keyword(tuple(shuffled)), large(kw))


@given(query=keywords, kw=keywords)
def test_phrase_match_agrees_with_subword_set(query, kw):
    assert matches(query, phrase(kw)) == (kw.words in subword_set(query))


# A small vocabulary so negatives repeat words, overlap in runs and nest.
negatives = st.frozensets(
    st.builds(NegativeKeyword, keywords, st.sampled_from(list(MatchType))), max_size=12
)


@settings(max_examples=300, deadline=None)
@given(negs=negatives, query=st.lists(words, min_size=1, max_size=6))
def test_index_and_blocks_agree_with_reference_matches(negs, query):
    q = Keyword(tuple(query))
    first = NegativeIndex(negs).first_match(q)
    reference = min(
        (n for n in negs if matches(q, n)), key=NegativeKeyword.sort_key, default=None
    )
    assert first == reference
    assert blocks(negs, q) == (first is not None)


def test_match_type_ordering():
    assert MatchType.EXACT < MatchType.PHRASE < MatchType.LARGE
    assert MatchType.EXACT.rank == 0
    assert MatchType.LARGE.rank == 2


def test_negative_constructors_and_dispatch():
    q = normalize("red nike shoes")
    assert matches(q, phrase(normalize("nike shoes")))
    assert not matches(q, exact(normalize("nike shoes")))
    assert matches(q, large(normalize("shoes red")))


def test_negative_sort_key_orders_by_match_then_words():
    negs = [large(normalize("b")), phrase(normalize("a")), exact(normalize("c"))]
    ordered = sorted(negs, key=lambda n: n.sort_key())
    assert [n.match for n in ordered] == [
        MatchType.EXACT,
        MatchType.PHRASE,
        MatchType.LARGE,
    ]


def test_negative_describe():
    assert exact(normalize("air max")).describe() == "[exact] air max"


def test_distinct_keywords_rejects_duplicates():
    kws = [normalize("a b"), normalize("a  B")]
    with pytest.raises(DuplicateKeywordError):
        distinct_keywords(kws)
    distinct_keywords([normalize("a b"), normalize("b a")])


@settings(max_examples=100, deadline=None)
@given(kw=keywords, match=st.sampled_from(list(MatchType)))
def test_negative_caches_the_dataclass_hash_and_sort_key(kw, match):
    import pickle

    neg = NegativeKeyword(kw, match)
    assert hash(neg) == hash((kw, match))
    assert neg.sort_key() == (match.rank, kw.words)
    copy = pickle.loads(pickle.dumps(neg))
    assert copy == neg and hash(copy) == hash(neg)
    assert {neg: 1}[NegativeKeyword(Keyword(kw.words), match)] == 1
