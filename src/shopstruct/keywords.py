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
query's own words (an inverted-file lookup): it takes the query ``Keyword``
itself, and makes the query's word set only when it holds large negatives,
the one lookup that needs it.  A large negative is filed
under one of its own words, the one rarest among the index's large
negatives, so a query word's bucket holds only the few negatives that
word is the rarest part of.  A phrase is looked up only at the query
positions that hold a phrase's first word, and only up to the longest
phrase starting with it.  An index can hold several lists at once, and
keeps only the bitmask of the lists holding each distinct negative, keyed
by its tokens, so one lookup per query gives the bitmask of the lists that
block the query, ORed as each mask is found, with no hit list built.
``hits`` makes the blocking negatives themselves, sorted, for
explanations; a list's first match is the first of those hits that it
holds.  An index is never changed once built; ``NegativeIndex.edited``
derives the index of the lists after a few additions and removals from it.
``matches`` is the plain reference definition.
"""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import DuplicateKeywordError, EmptyKeywordError


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


class NegativeIndex:
    """One or more negative lists, keyed by query words.

    ``NegativeIndex(a, b, ...)`` indexes the lists ``a, b, ...`` together.
    Each distinct negative is stored once, as the bitmask of the lists
    holding it (bit ``i`` for the ``i``-th list), so a negative shared by
    many campaigns or ad groups costs one entry and one probe.  Every table
    maps a token tuple to its mask: ``exact`` and ``phrases`` key exact and
    phrase negatives by their tokens, and ``larges`` buckets each large
    negative under one of its words, confirmed by word-set inclusion.

    The key rule: a fresh index files a large negative under its word held
    by the fewest of the index's large negatives, the smallest such word on
    a tie, so buckets stay short whatever a catalogue's spelling order.
    ``edited`` files an added large negative under its word with the
    smallest bucket at that point, and finds one already held in the
    buckets of its own words, so an edited index may bucket an entry apart
    from a fresh one; each large entry sits in exactly one bucket, keyed by
    one of its own words, either way, and every answer is the same.

    ``heads`` maps each phrase negative's first word to the length of the
    longest phrase starting with it: a phrase occurrence starts at a head,
    so only the query positions holding one are looked up.

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
        tables = {MatchType.EXACT: {}, MatchType.PHRASE: {}, MatchType.LARGE: {}}
        for neg, mask in masks.items():
            tables[neg.match][neg.keyword.words] = mask
        self.exact = tables[MatchType.EXACT]
        self.phrases = tables[MatchType.PHRASE]
        self.heads = _heads(self.phrases)
        larges = tables[MatchType.LARGE]
        # Each word's count among the large negatives, a repeated word once.
        held_by = Counter(itertools.chain.from_iterable(map(dict.fromkeys, larges)))
        self.larges: dict[str, dict[tuple[str, ...], int]] = {}
        for words, mask in larges.items():
            key = min(zip(map(held_by.__getitem__, words), words))[1]
            self.larges.setdefault(key, {})[words] = mask

    def edited(self, edits: Iterable[tuple[NegativeKeyword, int, bool]]) -> NegativeIndex:
        """The index after each ``(negative, bit, held)`` edit in turn sets
        (``held``) or clears list bit ``bit`` of ``negative``: the index a
        fresh build over the edited lists gives, up to which of its words
        buckets each large negative.

        ``self`` stays as it is.  The new index copies the three tables, and a
        large bucket when an edit first touches it.
        """
        new = object.__new__(NegativeIndex)
        new.exact, new.phrases, larges = dict(self.exact), dict(self.phrases), dict(self.larges)
        new.larges = larges
        copied: set[str] = set()
        for neg, bit, held in edits:
            words = neg.keyword.words
            if neg.match is MatchType.EXACT:
                table = new.exact
            elif neg.match is MatchType.PHRASE:
                table = new.phrases
            else:
                key = next((w for w in words if words in larges.get(w, ())), None)
                if key is None:
                    if not held:
                        continue
                    key = min(zip([len(larges.get(w, ())) for w in words], words))[1]
                if key not in copied:
                    copied.add(key)
                    larges[key] = dict(larges.get(key, ()))
                table = larges[key]
            mask = table.get(words, 0)
            mask = mask | bit if held else mask & ~bit
            if mask:
                table[words] = mask
            else:
                table.pop(words, None)
        for key in copied:
            if not larges[key]:
                del larges[key]
        new.heads = _heads(new.phrases)
        return new

    def hits(self, query: Keyword) -> list[tuple[NegativeKeyword, int]]:
        """Every indexed negative that blocks ``query``, with the bitmask of
        the lists holding it, smallest ``sort_key`` first.  Only explanations
        ask, so the few negatives returned are made here."""
        words, phrases = query.words, self.phrases
        found = [(exact(query), self.exact[words])] if words in self.exact else []
        runs = sorted(run for run in subword_set(query) if run in phrases)
        found += [(phrase(Keyword(run)), phrases[run]) for run in runs]
        if not self.larges:
            return found
        distinct = frozenset(words)
        larges = sorted(
            (t, held)
            for w in distinct
            if w in self.larges
            for t, held in self.larges[w].items()
            if distinct.issuperset(t)
        )
        return found + [(large(Keyword(t)), held) for t, held in larges]

    def blocked(self, query: Keyword) -> int:
        """The bitmask of the indexed lists that block ``query``: the OR of
        the masks of ``hits``, taken as each mask is found, with no hit list
        built."""
        words = query.words
        mask = self.exact.get(words, 0)
        heads = self.heads
        if not heads.keys().isdisjoint(words):
            # Only the runs that start at a head, none longer than the
            # longest phrase from it.
            phrases = self.phrases
            for i, word in enumerate(words):
                longest = heads.get(word)
                if longest:
                    for end in range(i + 1, min(len(words), i + longest) + 1):
                        mask |= phrases.get(words[i:end], 0)
        larges = self.larges
        if larges:
            distinct = frozenset(words)
            for word in distinct:
                bucket = larges.get(word)
                if bucket is not None:
                    for tokens, held in bucket.items():
                        if distinct.issuperset(tokens):
                            mask |= held
        return mask


def _heads(phrases: Iterable[tuple[str, ...]]) -> dict[str, int]:
    """Each phrase's first word, with the length of the longest phrase
    starting with it."""
    heads: dict[str, int] = {}
    for words in phrases:
        if len(words) > heads.get(words[0], 0):
            heads[words[0]] = len(words)
    return heads


def exact(keyword: Keyword) -> NegativeKeyword:
    return NegativeKeyword(keyword, MatchType.EXACT)


def phrase(keyword: Keyword) -> NegativeKeyword:
    return NegativeKeyword(keyword, MatchType.PHRASE)


def large(keyword: Keyword) -> NegativeKeyword:
    return NegativeKeyword(keyword, MatchType.LARGE)


def distinct_keywords(keywords: Iterable[Keyword]) -> None:
    """Raise when the iterable repeats a keyword; used at rule ingestion."""
    seen: set[Keyword] = set()
    for kw in keywords:
        if kw in seen:
            raise DuplicateKeywordError(f"duplicate keyword: {kw.text!r}")
        seen.add(kw)
