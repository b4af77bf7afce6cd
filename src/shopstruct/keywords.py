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
several lists at once, storing each distinct negative once with the set of
lists that hold it, so one lookup per query gives every blocking negative with
the bitmask of its lists, sorted, or just the bitmask of the lists that block
the query, ORed as the lookup finds each negative, with no hit list built; a
list's first match is the first of those hits that it holds.  An
index is never changed once built; ``NegativeIndex.edited`` derives the index
of the lists after a few additions and removals from it, sharing every posting
they leave alone.
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


_Posting = tuple[tuple[int, tuple[str, ...]], NegativeKeyword, int]


class NegativeIndex:
    """One or more negative lists, keyed by query words.

    ``NegativeIndex(a, b, ...)`` indexes the lists ``a, b, ...`` together.
    Each distinct negative is stored once, in a posting that carries a
    bitmask of the lists holding it (bit ``i`` for the ``i``-th list), so a
    negative shared by many campaigns or ad groups costs one entry and one
    probe.  Exact negatives are keyed by their token tuple and phrase
    negatives by theirs.  ``heads`` holds the phrase negatives' first words:
    every phrase occurrence starts at one, so the query's contiguous runs are
    looked up only when a head is among its words.  Large negatives are
    bucketed under their smallest word and confirmed by word-set inclusion.

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
        self.heads = frozenset(words[0] for words in self.phrases)

    def edited(self, edits: Iterable[tuple[NegativeKeyword, int, bool]]) -> NegativeIndex:
        """The index after each ``(negative, bit, held)`` edit in turn sets
        (``held``) or clears list bit ``bit`` of ``negative``: as sets of
        (negative, mask), the index a fresh build over the edited lists gives.

        ``self`` stays as it is.  The new index copies the three tables, and a
        large bucket when an edit first touches it, and shares every posting.
        """
        new = object.__new__(NegativeIndex)
        new.exact, new.phrases, new.larges = dict(self.exact), dict(self.phrases), dict(self.larges)
        copied: set[str] = set()
        for neg, bit, held in edits:
            words = neg.keyword.words
            if neg.match is not MatchType.LARGE:
                table = new.exact if neg.match is MatchType.EXACT else new.phrases
                posting = _edited(table.get(words), neg, bit, held)
                if posting is None:
                    table.pop(words, None)
                else:
                    table[words] = posting
                continue
            key = min(words)
            if key not in copied:
                copied.add(key)
                new.larges[key] = list(new.larges.get(key, ()))
            bucket = new.larges[key]
            j = _position(bucket, neg)
            posting = _edited(None if j is None else bucket[j][1], neg, bit, held)
            if posting is None:
                if j is not None:
                    del bucket[j]
            elif j is None:
                bucket.append((frozenset(words), posting))
            else:
                bucket[j] = (bucket[j][0], posting)
        for key in copied:
            if not new.larges[key]:
                del new.larges[key]
        new.heads = frozenset(words[0] for words in new.phrases)
        return new

    def hits(self, query: QueryWords) -> list[tuple[NegativeKeyword, int]]:
        """Every indexed negative that blocks ``query``, with the bitmask of
        the lists holding it, smallest ``sort_key`` first."""
        hit = self.exact.get(query.words)
        postings = [] if hit is None else [hit]
        if not self.heads.isdisjoint(query.distinct):
            postings += [self.phrases[r] for r in query.runs if r in self.phrases]
        if self.larges:
            distinct = query.distinct
            postings += [
                posting
                for word in distinct
                for needed, posting in self.larges.get(word, ())
                if needed <= distinct
            ]
        postings.sort()
        return [(neg, mask) for _, neg, mask in postings]

    def blocked(self, query: QueryWords) -> int:
        """The bitmask of the indexed lists that block ``query``: the OR of
        the masks of ``hits``, taken as each posting is found, with no list
        of postings built."""
        hit = self.exact.get(query.words)
        mask = 0 if hit is None else hit[2]
        distinct = query.distinct
        if not self.heads.isdisjoint(distinct):
            phrases = self.phrases
            for run in query.runs:
                hit = phrases.get(run)
                if hit is not None:
                    mask |= hit[2]
        larges = self.larges
        if larges:
            for word in distinct:
                for needed, posting in larges.get(word, ()):
                    if needed <= distinct:
                        mask |= posting[2]
        return mask


def _position(bucket: list[tuple[frozenset[str], _Posting]], negative: NegativeKeyword) -> int | None:
    """Where in a large bucket ``negative``'s posting sits, or None."""
    return next((j for j, (_, p) in enumerate(bucket) if p[1].keyword == negative.keyword), None)


def _edited(
    posting: _Posting | None, negative: NegativeKeyword, bit: int, held: bool
) -> _Posting | None:
    """``posting`` (None when absent) with list bit ``bit`` set or cleared;
    None once no list holds the negative."""
    if posting is None:
        return (negative.sort_key(), negative, bit) if held else None
    key, stored, mask = posting
    mask = mask | bit if held else mask & ~bit
    return (key, stored, mask) if mask else None


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
