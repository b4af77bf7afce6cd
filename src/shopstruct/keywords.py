"""Keyword text model and negative-keyword matching.

Search queries and bidding keywords are both short token sequences.  A negative
keyword blocks a query according to its match type:

* ``EXACT``  -- the query is exactly the negative's token sequence;
* ``PHRASE`` -- the negative's tokens occur as a contiguous run inside the query;
* ``LARGE``  -- every distinct word of the negative occurs somewhere in the query,
  regardless of order or repetition.

Each type blocks at least everything the previous one blocks, so permissiveness
strictly increases from exact to large.  All text is normalized to lowercase
whitespace-separated tokens; hyphens are kept inside a token ("tee-shirt" stays
one word).

This module is the one place that decides whether a negative blocks a query.
``NegativeIndex`` answers for fixed negative lists by hash lookups keyed by
the query's own words (an inverted-file lookup).  It can hold several lists
at once, storing each distinct negative once with the set of lists that hold
it, so one lookup per query gives every blocking negative with the bitmask of
its lists, or just the bitmask of the lists that block the query; a list's
first match is the first of those hits that it holds.  ``matches`` is the
plain reference definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from typing import Iterable, NamedTuple

from .errors import EmptyKeywordError


class Keyword(NamedTuple):
    """An immutable, normalized token sequence.

    A one-field named tuple, so hashing, equality and ordering run in C.
    ``hash(kw)`` is ``hash((kw.words,))``: set layouts and iteration orders,
    and with them every change log and snapshot byte, rest on that value.
    """

    words: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.words)

    def __str__(self) -> str:
        return self.text


def normalize(text: str) -> Keyword:
    """Lowercase and whitespace-split ``text`` into a Keyword.

    Raises EmptyKeywordError when no tokens remain.  Idempotent on its own
    output: normalize(k.text) == k.
    """
    tokens = tuple(text.lower().split())
    if not tokens:
        raise EmptyKeywordError(f"keyword text has no tokens: {text!r}")
    return Keyword(tokens)


def word_set(keyword: Keyword) -> frozenset[str]:
    """The set of distinct words of a keyword."""
    return frozenset(keyword.words)


def subword_set(keyword: Keyword) -> frozenset[tuple[str, ...]]:
    """All contiguous sub-sequences of the keyword's tokens, of length >= 1."""
    words = keyword.words
    n = len(words)
    return frozenset(words[i:j] for i in range(n) for j in range(i + 1, n + 1))


@total_ordering
class MatchType(Enum):
    """Negative keyword match type, in canonical (least permissive first) order."""

    EXACT = "exact"
    PHRASE = "phrase"
    LARGE = "large"

    @property
    def rank(self) -> int:
        return _MATCH_RANK[self]

    def __lt__(self, other: "MatchType") -> bool:
        if not isinstance(other, MatchType):
            return NotImplemented
        return self.rank < other.rank


_MATCH_RANK = {MatchType.EXACT: 0, MatchType.PHRASE: 1, MatchType.LARGE: 2}


@dataclass(frozen=True)
class NegativeKeyword:
    """A keyword paired with the match type under which it blocks queries.

    The hash and the sort key are computed once, at construction: sets and
    dicts of negatives then pay one Python call per hash instead of three
    (this class, ``Keyword`` and ``MatchType``).  The cached hash is the value
    the generated dataclass hash gives, ``hash((keyword, match))``, so set
    layouts and iteration orders are those of an uncached negative.
    """

    keyword: Keyword
    match: MatchType

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.keyword, self.match)))
        object.__setattr__(self, "_sort_key", (_MATCH_RANK[self.match], self.keyword.words))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__, so an unpickled copy hashes by this process.
        return (NegativeKeyword, (self.keyword, self.match))

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        return self._sort_key

    def describe(self) -> str:
        return f"[{self.match.value}] {self.keyword.text}"


def matches(query: Keyword, negative: NegativeKeyword) -> bool:
    """Does ``negative`` block ``query``?  The reference definition."""
    needle = negative.keyword.words
    hay = query.words
    if negative.match is MatchType.EXACT:
        return hay == needle
    if negative.match is MatchType.PHRASE:
        k = len(needle)
        return any(hay[i : i + k] == needle for i in range(len(hay) - k + 1))
    return set(needle) <= set(hay)


class QueryWords:
    """A query's token tuple, contiguous runs and word set, computed once so
    that every negative list the query meets can share them."""

    __slots__ = ("words", "runs", "distinct")

    def __init__(self, query: Keyword) -> None:
        self.words = query.words
        self.runs = subword_set(query)
        self.distinct = frozenset(query.words)


_Posting = tuple[tuple[int, tuple[str, ...]], NegativeKeyword, int]


class NegativeIndex:
    """One or more negative lists, keyed by query words.

    ``NegativeIndex(a, b, ...)`` indexes the lists ``a, b, ...`` together.
    Each distinct negative is stored once, in a posting that carries a
    bitmask of the lists holding it (bit ``i`` for the ``i``-th list), so a
    negative shared by many campaigns or ad groups costs one entry and one
    probe.  Exact negatives are keyed by their token tuple and phrase
    negatives by theirs, looked up once per contiguous run of the query.
    Large negatives are bucketed under their smallest word and confirmed by
    word-set inclusion.

    A list's first match is its hit with the smallest ``sort_key``: exact
    before phrase before large, canonical order within a type.
    """

    __slots__ = ("exact", "phrases", "larges")

    def __init__(self, *lists: Iterable[NegativeKeyword]) -> None:
        # Lists built or parsed by this package share one object per negative,
        # so occurrences are merged by identity and only distinct objects are
        # hashed by value; that second merge also joins the equal copies that
        # an update or a hand-made list may hold.
        by_id: dict[int, list] = {}
        for i, negatives in enumerate(lists):
            for neg in negatives:
                by_id.setdefault(id(neg), [neg, 0])[1] |= 1 << i
        masks: dict[NegativeKeyword, int] = {}
        for neg, mask in by_id.values():
            masks[neg] = masks.get(neg, 0) | mask
        self.exact: dict[tuple[str, ...], _Posting] = {}
        self.phrases: dict[tuple[str, ...], _Posting] = {}
        self.larges: dict[str, list[tuple[frozenset[str], _Posting]]] = {}
        for neg, mask in masks.items():
            words = neg.keyword.words
            posting = (neg.sort_key(), neg, mask)
            if neg.match is MatchType.EXACT:
                self.exact[words] = posting
            elif neg.match is MatchType.PHRASE:
                self.phrases[words] = posting
            else:
                self.larges.setdefault(min(words), []).append((frozenset(words), posting))

    def _postings(self, query: QueryWords) -> list[_Posting]:
        """The posting of every indexed negative that blocks ``query``, unsorted."""
        hit = self.exact.get(query.words)
        postings = [] if hit is None else [hit]
        if self.phrases:
            postings += [self.phrases[r] for r in query.runs if r in self.phrases]
        if self.larges:
            distinct = query.distinct
            postings += [
                posting
                for word in distinct
                for needed, posting in self.larges.get(word, ())
                if needed <= distinct
            ]
        return postings

    def hits(self, query: QueryWords) -> list[tuple[NegativeKeyword, int]]:
        """Every indexed negative that blocks ``query``, with the bitmask of
        the lists holding it, smallest ``sort_key`` first."""
        postings = self._postings(query)
        postings.sort()
        return [(neg, mask) for _, neg, mask in postings]

    def blocked(self, query: QueryWords) -> int:
        """The bitmask of the indexed lists that block ``query``."""
        mask = 0
        for _, _, holders in self._postings(query):
            mask |= holders
        return mask


def exact(keyword: Keyword) -> NegativeKeyword:
    return NegativeKeyword(keyword, MatchType.EXACT)


def phrase(keyword: Keyword) -> NegativeKeyword:
    return NegativeKeyword(keyword, MatchType.PHRASE)


def large(keyword: Keyword) -> NegativeKeyword:
    return NegativeKeyword(keyword, MatchType.LARGE)


def distinct_keywords(keywords: Iterable[Keyword]) -> None:
    """Raise when the iterable repeats a keyword; used at rule ingestion."""
    from .errors import DuplicateKeywordError

    seen: set[Keyword] = set()
    for kw in keywords:
        if kw in seen:
            raise DuplicateKeywordError(f"duplicate keyword: {kw.text!r}")
        seen.add(kw)
