from __future__ import annotations

import functools
import itertools

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
    distinct_keywords,
    exact,
    large,
    matches,
    normalize,
    phrase,
    subword_set,
)
from conftest import index_postings

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


def test_subword_set():
    kw = normalize("a b c")
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
    index = NegativeIndex(negs)
    hits = index.hits(q)
    first = hits[0][0] if hits else None
    reference = min(
        (n for n in negs if matches(q, n)), key=NegativeKeyword.sort_key, default=None
    )
    assert first == reference
    assert index.blocked(q) == (first is not None)


def _reference_hits(lists, query):
    """Each negative of ``lists`` that blocks ``query`` by ``matches``, with
    the bitmask of the lists holding it, smallest ``sort_key`` first."""
    masks: dict[NegativeKeyword, int] = {}
    for i, negs in enumerate(lists):
        for n in negs:
            if matches(query, n):
                masks[n] = masks.get(n, 0) | 1 << i
    return sorted(masks.items(), key=lambda hit: hit[0].sort_key())


@settings(max_examples=300, deadline=None)
@given(
    lists=st.lists(negatives, min_size=1, max_size=5),
    edits=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.builds(NegativeKeyword, keywords, st.sampled_from(list(MatchType))),
            st.booleans(),
        ),
        max_size=12,
    ),
    data=st.data(),
)
def test_edited_index_equals_a_fresh_one(lists, edits, data):
    index = NegativeIndex(*lists)
    before = index_postings(index)
    lists = [set(negs) for negs in lists]
    # Phrase edits besides the drawn ones: remove held phrase negatives and
    # add new ones, so phrase heads come and go.
    phrases = sorted(
        {(i, n) for i, negs in enumerate(lists) for n in negs if n.match is MatchType.PHRASE},
        key=lambda e: (e[0], e[1].sort_key()),
    )
    removed = data.draw(st.lists(st.sampled_from(phrases))) if phrases else []
    added = data.draw(st.lists(st.tuples(st.integers(0, 4), keywords.map(phrase)), max_size=4))
    edits = edits + [(i, n, False) for i, n in removed] + [(i, n, True) for i, n in added]
    bit_edits = []
    for i, neg, held in edits:
        i %= len(lists)
        if held:
            lists[i].add(neg)
        else:
            lists[i].discard(neg)
        bit_edits.append((neg, 1 << i, held))
    edited = index.edited(bit_edits)
    fresh = NegativeIndex(*lists)
    assert index_postings(edited) == index_postings(fresh)
    assert edited.heads == fresh.heads
    assert index_postings(index) == before
    # A query that repeats a phrase's first word, held or edited away, hits
    # what the reference says at every place a phrase can start.
    firsts = sorted({n.keyword.words[0] for _, n, _ in edits if n.match is MatchType.PHRASE})
    head = data.draw(st.sampled_from(firsts or ["nike"]))
    parts = data.draw(st.lists(st.lists(words, max_size=2), min_size=3, max_size=3))
    q = Keyword((*parts[0], head, *parts[1], head, *parts[2]))
    assert edited.hits(q) == _reference_hits(lists, q)


_ab, _ba, _aa = normalize("a b"), normalize("b a"), normalize("a a")


@pytest.mark.parametrize(
    "lists",
    [
        # Large negatives with one word set, and one that repeats a word.
        [{large(_ab)}, {large(_ba), large(_aa)}, {large(_ab), large(_aa)}, {large(_ba)}],
        # An exact and a phrase negative with one token tuple.
        [{exact(_ab)}, {phrase(_ab)}, {exact(_ab), phrase(_ab)}, {phrase(_ab), large(_ab)}],
    ],
    ids=["large a b, b a, a a", "exact and phrase a b"],
)
def test_negatives_sharing_tokens_or_words_stay_apart(lists):
    fresh = NegativeIndex(*lists)
    grown = NegativeIndex(*(set() for _ in lists)).edited(
        (n, 1 << i, True) for i, negs in enumerate(lists) for n in negs
    )
    # List 0 emptied, and list 3 given list 2's negatives.
    edits = [(n, 1, False) for n in lists[0]] + [(n, 1 << 3, True) for n in lists[2]]
    moved = fresh.edited(edits)
    moved_lists = [set(), lists[1], lists[2], lists[3] | lists[2]]
    assert index_postings(grown) == index_postings(fresh)
    assert index_postings(moved) == index_postings(NegativeIndex(*moved_lists))
    for index, held in ((fresh, lists), (grown, lists), (moved, moved_lists)):
        for text in ("a b", "b a", "a", "b", "a a", "c a b", "a b c", "b c a"):
            q = normalize(text)
            hits = index.hits(q)
            assert hits == _reference_hits(held, q)
            of_hits = 0
            for _, mask in hits:
                of_hits |= mask
            assert index.blocked(q) == of_hits


@settings(max_examples=300, deadline=None)
@given(
    lists=st.lists(negatives, min_size=2, max_size=5),
    edits=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.builds(NegativeKeyword, keywords, st.sampled_from(list(MatchType))),
            st.booleans(),
        ),
        max_size=12,
    ),
    data=st.data(),
)
def test_blocked_is_the_or_of_hits_and_the_reference_over_several_lists(lists, edits, data):
    fresh = NegativeIndex(*lists)
    held = [set(negs) for negs in lists]
    bit_edits = []
    for i, neg, keep in edits:
        i %= len(held)
        if keep:
            held[i].add(neg)
        else:
            held[i].discard(neg)
        bit_edits.append((neg, 1 << i, keep))
    for index, negs in ((fresh, lists), (fresh.edited(bit_edits), held)):
        # A query that repeats a phrase's first word, so a phrase can start
        # at more than one of its places.
        phrases = [n for s in negs for n in s if n.match is MatchType.PHRASE]
        firsts = sorted({n.keyword.words[0] for n in phrases})
        head = data.draw(st.sampled_from(firsts or ["nike"]))
        parts = data.draw(st.lists(st.lists(words, max_size=2), min_size=3, max_size=3))
        q = Keyword((*parts[0], head, *parts[1], head, *parts[2]))
        reference = sum(1 << i for i, s in enumerate(negs) if any(matches(q, n) for n in s))
        of_hits = 0
        for _, mask in index.hits(q):
            of_hits |= mask
        assert index.blocked(q) == of_hits == reference


_TINY = ("a", "b", "c", "d")
_tiny_larges = st.lists(st.sampled_from(_TINY), min_size=1, max_size=3).map(
    lambda ws: large(Keyword(tuple(ws)))
)


@settings(max_examples=200, deadline=None)
@given(
    lists=st.lists(
        st.frozensets(
            st.one_of(_tiny_larges, st.sampled_from([exact(_ab), phrase(_ab), phrase(_ba)])),
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
    floods=st.lists(st.tuples(st.sampled_from(_TINY), st.integers(0, 3), st.booleans())),
    edits=st.lists(st.tuples(st.integers(0, 3), _tiny_larges, st.booleans()), max_size=8),
)
def test_rarest_word_buckets_answer_as_the_reference(lists, floods, edits):
    # Large a b, b a and a a are three negatives, held by list 0 whatever was drawn.
    held = [set(negs) for negs in lists]
    held[0] |= {large(_ab), large(_ba), large(_aa)}
    fresh = NegativeIndex(*held)
    # A fresh index keys each large negative by its word held by the fewest
    # large negatives, the smallest such word on a tie.
    larges = {words for bucket in fresh.larges.values() for words in bucket}
    count = {w: sum(w in words for words in larges) for w in _TINY}
    for word, bucket in fresh.larges.items():
        assert all(word == min(words, key=lambda w: (count[w], w)) for words in bucket)
    # A flood adds (or removes) large negatives pairing one word with every
    # word, so the rarest word of the entries already filed changes.
    edits = [
        (i, large(Keyword((w, x))), keep) for w, i, keep in floods for x in _TINY
    ] + edits
    bit_edits = []
    for i, neg, keep in edits:
        i %= len(held)
        if keep:
            held[i].add(neg)
        else:
            held[i].discard(neg)
        bit_edits.append((neg, 1 << i, keep))
    edited = fresh.edited(bit_edits)
    after = NegativeIndex(*held)
    assert index_postings(edited) == index_postings(after)
    queries = [Keyword(q) for size in (1, 2, 3) for q in itertools.product(_TINY, repeat=size)]
    for index in (edited, after):
        for q in queries:
            reference = sum(1 << i for i, s in enumerate(held) if any(matches(q, n) for n in s))
            hits = index.hits(q)
            assert hits == _reference_hits(held, q)
            assert index.blocked(q) == functools.reduce(
                int.__or__, (mask for _, mask in hits), 0
            ) == reference


def test_match_type_ordering():
    # Canonical order lives in the negatives' sort key; the match types
    # themselves carry no ordering.
    kw = normalize("a")
    ordered = sorted(
        (NegativeKeyword(kw, m) for m in reversed(MatchType)), key=NegativeKeyword.sort_key
    )
    assert [n.match for n in ordered] == [MatchType.EXACT, MatchType.PHRASE, MatchType.LARGE]
    assert [n.sort_key()[0] for n in ordered] == [0, 1, 2]
    with pytest.raises(TypeError):
        MatchType.EXACT < MatchType.PHRASE


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
def test_negative_hashes_compares_and_pickles_by_value(kw, match):
    import pickle

    neg = NegativeKeyword(kw, match)
    copy = NegativeKeyword(Keyword(tuple(kw.words)), MatchType(match.value))
    assert copy == neg and hash(copy) == hash(neg)
    assert {neg: 1}[copy] == 1
    unpickled = pickle.loads(pickle.dumps(neg))
    assert unpickled == neg and hash(unpickled) == hash(neg)
    assert neg.sort_key() == (list(MatchType).index(match), kw.words)
    for other in MatchType:
        if other is not match:
            assert NegativeKeyword(kw, other) != neg


@settings(max_examples=100, deadline=None)
@given(kw=keywords, other=keywords)
def test_keyword_hashes_compares_and_pickles_as_its_one_field(kw, other):
    import pickle

    # Equal keywords hash alike, in one process and across a pickle round
    # trip; no output rests on the hash value, which str seeds per process.
    assert hash(kw) == hash((kw.words,))
    assert sorted([kw, other]) == [Keyword(ws) for ws in sorted([kw.words, other.words])]
    assert kw != kw.words
    assert normalize(kw.text) == kw
    copy = pickle.loads(pickle.dumps(kw))
    assert copy == kw and hash(copy) == hash(kw)
