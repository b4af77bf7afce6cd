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
``NegativeIndex`` answers for negative lists by hash lookups keyed by the
query's own words (an inverted-file lookup); a query's contiguous runs are
looked up only when one of its words starts a phrase negative.  It can hold
several lists at once, and keeps only the bitmask of the lists holding each
distinct negative, keyed by its tokens, so one lookup per query gives the
bitmask of the lists that block the query, ORed as each mask is found, with
no hit list built.  ``hits`` makes the blocking negatives themselves, sorted,
for explanations; a list's first match is the first of those hits that it
holds.  An index is never changed once built; ``NegativeIndex.edited``
derives the index of the lists after a few additions and removals from it.
``matches`` is the plain reference definition.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .errors import EmptyKeywordError


class Keyword(NamedTuple):
    """An immutable, normalized token sequence.

    A one-field named tuple, so hashing, equality and ordering run in C.
    No output rests on the hash: str hashes are seeded per process, so every
    change log and snapshot byte comes out in a sorted order.
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


class MatchType(Enum):
    """Negative keyword match type, in canonical (least permissive first) order."""

    EXACT = "exact"
    PHRASE = "phrase"
    LARGE = "large"

    # Members are singletons, so the identity hash is a value hash, in C.
    __hash__ = object.__hash__


# Each match type's place in canonical order, the first part of a sort key.
_MATCH_RANK = {MatchType.EXACT: 0, MatchType.PHRASE: 1, MatchType.LARGE: 2}


class NegativeKeyword(NamedTuple):
    """A keyword paired with the match type under which it blocks queries.

    A two-field named tuple, like ``Keyword``, so construction, hashing and
    equality run in C.  Negatives order by ``sort_key``, not as tuples.
    """

    keyword: Keyword
    match: MatchType

    def sort_key(self) -> tuple[int, tuple[str, ...]]:
        return _MATCH_RANK[self.match], self.keyword.words

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
    """A query's token tuple, word set and contiguous runs, shared by every
    negative list the query meets; the runs are made on first use."""

    __slots__ = ("query", "words", "distinct", "_runs")

    def __init__(self, query: Keyword) -> None:
        self.query = query
        self.words = query.words
        self.distinct = frozenset(query.words)
        self._runs: frozenset[tuple[str, ...]] | None = None

    @property
    def runs(self) -> frozenset[tuple[str, ...]]:
        if self._runs is None:
            self._runs = subword_set(self.query)
        return self._runs


class NegativeIndex:
    """One or more negative lists, keyed by query words.

    ``NegativeIndex(a, b, ...)`` indexes the lists ``a, b, ...`` together.
    Each distinct negative is stored once, as the bitmask of the lists
    holding it (bit ``i`` for the ``i``-th list), so a negative shared by
    many campaigns or ad groups costs one entry and one probe.  Every table
    maps a token tuple to its mask: ``exact`` and ``phrases`` key exact and
    phrase negatives by their tokens, and ``larges`` buckets large negatives
    under their smallest word, each confirmed by word-set inclusion.
    ``heads`` holds the phrase negatives' first words: every phrase
    occurrence starts at one, so the query's contiguous runs are looked up
    only when a head is among its words.

    A list's first match is its hit with the smallest ``sort_key``: exact
    before phrase before large, canonical order within a type.
    """

    __slots__ = ("exact", "phrases", "heads", "larges")

    def __init__(self, *lists: Iterable[NegativeKeyword]) -> None:
        # Masks are built per list family and merged by value.  The union of
        # the lists is one C-level set union; every negative starts from the
        # bits of the lists holding at least half of it, so only the few
        # entries such a list lacks, and the entries of smaller lists, are
        # touched one by one: no input goes quadratic.
        held = [s if isinstance(s, (set, frozenset)) else set(s) for s in lists]
        union = set().union(*held)
        base = sum(1 << i for i, s in enumerate(held) if 2 * len(s) >= len(union))
        masks = dict.fromkeys(union, base)
        for i, negatives in enumerate(held):
            bit = 1 << i
            if base & bit:
                for neg in union.difference(negatives):
                    masks[neg] ^= bit
            else:
                for neg in negatives:
                    masks[neg] |= bit
        self.exact: dict[tuple[str, ...], int] = {}
        self.phrases: dict[tuple[str, ...], int] = {}
        self.larges: dict[str, dict[tuple[str, ...], int]] = {}
        for neg, mask in masks.items():
            self._table(neg)[neg.keyword.words] = mask
        self.heads = frozenset(words[0] for words in self.phrases)

    def _table(self, negative: NegativeKeyword) -> dict[tuple[str, ...], int]:
        """The table that files ``negative``: the large bucket of its
        smallest word, made when missing, for a large one."""
        if negative.match is MatchType.EXACT:
            return self.exact
        if negative.match is MatchType.PHRASE:
            return self.phrases
        return self.larges.setdefault(min(negative.keyword.words), {})

    def edited(self, edits: Iterable[tuple[NegativeKeyword, int, bool]]) -> NegativeIndex:
        """The index after each ``(negative, bit, held)`` edit in turn sets
        (``held``) or clears list bit ``bit`` of ``negative``: the index a
        fresh build over the edited lists gives.

        ``self`` stays as it is.  The new index copies the three tables, and a
        large bucket when an edit first touches it.
        """
        new = object.__new__(NegativeIndex)
        new.exact, new.phrases, new.larges = dict(self.exact), dict(self.phrases), dict(self.larges)
        copied: set[str] = set()
        for neg, bit, held in edits:
            words = neg.keyword.words
            if neg.match is MatchType.LARGE and (key := min(words)) not in copied:
                copied.add(key)
                new.larges[key] = dict(new.larges.get(key, ()))
            table = new._table(neg)
            mask = table.get(words, 0)
            mask = mask | bit if held else mask & ~bit
            if mask:
                table[words] = mask
            else:
                table.pop(words, None)
        for key in copied:
            if not new.larges[key]:
                del new.larges[key]
        new.heads = frozenset(words[0] for words in new.phrases)
        return new

    def hits(self, query: QueryWords) -> list[tuple[NegativeKeyword, int]]:
        """Every indexed negative that blocks ``query``, with the bitmask of
        the lists holding it, smallest ``sort_key`` first.  Only explanations
        ask, so the few negatives returned are made here."""
        words, distinct, phrases, larges = query.words, query.distinct, self.phrases, self.larges
        found = [(exact(query.query), self.exact[words])] if words in self.exact else []
        if not self.heads.isdisjoint(distinct):
            runs = sorted(run for run in query.runs if run in phrases)
            found += [(phrase(Keyword(run)), phrases[run]) for run in runs]
        tokens = sorted(t for w in distinct for t in larges.get(w, ()) if distinct.issuperset(t))
        return found + [(large(Keyword(t)), larges[min(t)][t]) for t in tokens]

    def blocked(self, query: QueryWords) -> int:
        """The bitmask of the indexed lists that block ``query``: the OR of
        the masks of ``hits``, taken as each mask is found, with no hit list
        built."""
        mask = self.exact.get(query.words, 0)
        distinct = query.distinct
        if not self.heads.isdisjoint(distinct):
            phrases = self.phrases
            for run in query.runs:
                mask |= phrases.get(run, 0)
        larges = self.larges
        if larges:
            for word in distinct:
                bucket = larges.get(word)
                if bucket is not None:
                    for words, held in bucket.items():
                        if distinct.issuperset(words):
                            mask |= held
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
