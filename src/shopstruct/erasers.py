"""Erasers: compact negative-keyword surrogates for whole keyword groups.

A large eraser is a set of words W; it erases every keyword whose word set
contains W.  An exact eraser erases a single keyword.  The *image* of an
eraser is the set of catalogue keywords it erases.  Replacing per-keyword
exact negatives with a few erasers whose images tile a keyword group is what
shrinks campaign negative lists.

Pipeline: enumerate candidate large erasers from word subsets of the keywords
(one pass files each keyword under each of its subsets, so a subset's image is
what is filed under it), build the conflict graph (images intersecting), color
it, keep the color class erasing the most keywords (its images are pairwise
disjoint), then pack the chosen erasers plus exact fillers into balanced
keyword groups.

The same filing, singletons included, is an account's ``subset_images``,
and its images of two or more keywords, ranked in greedy order once
(``rank_subset_images``), are the account's ``cover_ranking``.  An update
refiles both by the keywords it adds and removes (``refile_subset_images``),
moving only the refiled subsets in the ranking, and a campaign-opening add
walks the ranking for its cover (``cover_beside``) instead of filing and
sorting the whole catalogue again.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .errors import InfeasibleTargetError, InputError
from .keywords import Keyword, MatchType, NegativeKeyword

# The most words a large eraser holds, at build and in updates alike.
MAX_WORDS = 3

# A cover candidate in greedy order: minus its image size, its sorted word
# tuple and its image.
Ranked = tuple[int, tuple[str, ...], frozenset[Keyword]]

@dataclass(frozen=True)
class LargeEraser:
    """Erases every keyword whose word set includes ``words``."""

    words: frozenset[str]

    def __post_init__(self) -> None:
        if not self.words:
            raise InputError("large eraser needs at least one word")

    def to_negative(self) -> NegativeKeyword:
        return NegativeKeyword(Keyword(tuple(sorted(self.words))), MatchType.LARGE)


@dataclass(frozen=True)
class ExactEraser:
    """Erases exactly one keyword."""

    keyword: Keyword

    def to_negative(self) -> NegativeKeyword:
        return NegativeKeyword(self.keyword, MatchType.EXACT)


Eraser = Union[LargeEraser, ExactEraser]


def erases(eraser: Eraser, keyword: Keyword) -> bool:
    """``keywords.matches(keyword, eraser.to_negative())`` seen from the catalogue
    side: the same rule, held equal by a property test in tests/test_erasers.py."""
    if isinstance(eraser, LargeEraser):
        # Each word looked up in the keyword's few words: no set is built.
        words = keyword.words
        for word in eraser.words:
            if word not in words:
                return False
        return True
    return eraser.keyword == keyword


def eraser_image(eraser: Eraser, keywords: Iterable[Keyword]) -> frozenset[Keyword]:
    return frozenset(kw for kw in keywords if erases(eraser, kw))


def group_target(n: int, target_size: int | None = None) -> int:
    """The keyword-group size target for n keywords: ``target_size`` when
    given, else ceil(sqrt(n)) and at least 1.  Raises InputError below 1."""
    if target_size is None:
        return max(1, math.ceil(math.sqrt(n)))
    if target_size < 1:
        raise InputError(f"target size must be positive: {target_size}")
    return target_size


@dataclass(frozen=True)
class Candidate:
    """A candidate large eraser with its precomputed image."""

    eraser: LargeEraser
    image: frozenset[Keyword]

    @property
    def weight(self) -> int:
        return len(self.image)


def _filed(keywords: Iterable[Keyword]) -> dict[tuple[str, ...], list[Keyword]]:
    """One pass that files each distinct keyword under each sorted subset of
    up to ``MAX_WORDS`` of its distinct words, in first-seen order; a
    subset's image is the set of keywords filed under it."""
    filed: dict[tuple[str, ...], list[Keyword]] = {}
    for kw in dict.fromkeys(keywords):
        toks = sorted(set(kw.words))
        for r in range(1, min(MAX_WORDS, len(toks)) + 1):
            for ws in itertools.combinations(toks, r):
                filed.setdefault(ws, []).append(kw)
    return filed


def all_subset_images(keywords: Iterable[Keyword]) -> dict[tuple[str, ...], frozenset[Keyword]]:
    """Image over ``keywords`` of every word subset (size <= MAX_WORDS) of a
    keyword, keyed by its sorted word tuple, singletons included so that an
    added keyword can join them."""
    return {ws: frozenset(kws) for ws, kws in _filed(keywords).items()}


def rank_subset_images(
    images: Mapping[tuple[str, ...], frozenset[Keyword]],
) -> list[Ranked]:
    """The images of two or more keywords in ``images`` as ``(-size, words,
    image)`` triples in greedy order: largest image first, then by words.
    The word tuples differ, so images are never compared."""
    ranking = [(-size, ws, img) for ws, img in images.items() if (size := len(img)) >= 2]
    ranking.sort()
    return ranking


def refile_subset_images(
    images: Mapping[tuple[str, ...], frozenset[Keyword]],
    ranking: Sequence[Ranked],
    old: frozenset[Keyword],
    new: frozenset[Keyword],
) -> tuple[dict[tuple[str, ...], frozenset[Keyword]], list[Ranked]]:
    """``all_subset_images(new)`` and its ``rank_subset_images``, derived
    from ``images``, which is ``all_subset_images(old)``, and its
    ``ranking``: only the subsets of the keywords in one set and not the
    other are filed again, and only their entries leave the ranking and
    come back at their place.  ``images`` and ``ranking`` are left as they
    were."""
    out = dict(images)
    gone = _filed(old - new)
    for ws, kws in gone.items():
        left = out[ws].difference(kws)
        if left:
            out[ws] = left
        else:
            del out[ws]
    came = _filed(new - old)
    for ws, kws in came.items():
        held = out.get(ws)
        out[ws] = frozenset(kws) if held is None else held.union(kws)
    ranked = list(ranking)
    for ws in gone.keys() | came.keys():
        before = images.get(ws)
        if before is not None and len(before) >= 2:
            # (-size, words) sorts just before its own triple.
            del ranked[bisect.bisect_left(ranked, (-len(before), ws))]
        after = out.get(ws)
        if after is not None and len(after) >= 2:
            bisect.insort(ranked, (-len(after), ws, after))
    return out, ranked


def enumerate_candidates(
    keywords: Sequence[Keyword],
    *,
    max_image: int | None = None,
) -> tuple[Candidate, ...]:
    """All useful candidate large erasers over ``keywords``.

    Candidates are word subsets (size <= MAX_WORDS) of individual keywords with
    image size in [2, max_image]; a candidate is dropped when a strict subset of
    its words has the identical image (the smaller word set blocks everything
    the bigger one does and more besides, so the bigger one is redundant).
    Default max_image is ``group_target(n)``.  Deterministic order: image
    size descending, then lexicographic word set.
    """
    if max_image is None:
        max_image = group_target(len(keywords))
    filed = _filed(keywords)
    kept = {ws: frozenset(kws) for ws, kws in filed.items() if 2 <= len(kws) <= max_image}
    # Images only shrink as words are added, so some strict subset has the
    # same image exactly when some one-word-smaller subset does.
    minimal = [
        (ws, img)
        for ws, img in kept.items()
        if not any(kept.get(ws[:i] + ws[i + 1 :]) == img for i in range(len(ws)))
    ]
    minimal.sort(key=lambda t: (-len(t[1]), t[0]))
    return tuple(Candidate(LargeEraser(frozenset(ws)), img) for ws, img in minimal)


@dataclass(frozen=True)
class EraserGraph:
    """Conflict graph: one node per candidate, an edge when images intersect."""

    nodes: tuple[Candidate, ...]
    adjacency: tuple[frozenset[int], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


def build_graph(candidates: Sequence[Candidate]) -> EraserGraph:
    """Build the conflict graph via per-keyword cliques (images are small)."""
    holders: dict[Keyword, list[int]] = {}
    for idx, cand in enumerate(candidates):
        for kw in cand.image:
            holders.setdefault(kw, []).append(idx)
    adj: list[set[int]] = [set() for _ in candidates]
    for members in holders.values():
        for i, j in itertools.combinations(members, 2):
            adj[i].add(j)
            adj[j].add(i)
    return EraserGraph(tuple(candidates), tuple(frozenset(a) for a in adj))


def welsh_powell(graph: EraserGraph) -> tuple[int, ...]:
    """Greedy sequential coloring; every node gets the smallest free color.

    Nodes go by image size descending, then total neighbouring image weight
    ascending (least-conflicted heavy nodes first, so heavy independent
    erasers tend to share the first colors), then node order.
    """
    n = graph.node_count
    weights = [c.weight for c in graph.nodes]
    nbr_weight = [sum(weights[j] for j in graph.adjacency[i]) for i in range(n)]
    seq = sorted(range(n), key=lambda i: (-weights[i], nbr_weight[i], i))
    colors: dict[int, int] = {}
    for i in seq:
        used = {colors[j] for j in graph.adjacency[i] if j in colors}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return tuple(colors[i] for i in range(n))


def select_color_class(
    graph: EraserGraph, colors: Sequence[int]
) -> tuple[Candidate, ...]:
    """The color class with the greatest total image size (tie: lowest color).

    A proper coloring makes every class an independent set, so the returned
    candidates have pairwise disjoint images.
    """
    sums: dict[int, int] = {}
    for i, c in enumerate(colors):
        sums[c] = sums.get(c, 0) + graph.nodes[i].weight
    if not sums:
        return ()
    best = min(sums, key=lambda c: (-sums[c], c))
    return tuple(graph.nodes[i] for i, c in enumerate(colors) if c == best)


@dataclass(frozen=True)
class GroupPlan:
    """Keyword groups plus the erasers whose images tile each group exactly."""

    groups: tuple[frozenset[Keyword], ...]
    erasers: tuple[tuple[Eraser, ...], ...]
    target_size: int

    def __post_init__(self) -> None:
        if len(self.groups) != len(self.erasers):
            raise InputError("groups and eraser lists are misaligned")


def make_group_plan(
    keywords: Sequence[Keyword],
    selected: Sequence[Candidate],
    *,
    target_size: int | None = None,
) -> GroupPlan:
    """Pack selected erasers plus exact fillers into balanced keyword groups.

    The selected images must be pairwise disjoint.  Groups number
    k = ceil(n / target_size); each selected eraser carries its whole image
    into one group, placed into the currently lightest group that can take it
    without passing the target (unavoidable overflow is tolerated).  Keywords
    no eraser covers become exact erasers, placed (in catalogue order) into
    the open group sharing the most vocabulary, falling back to the lightest
    open group, tie to the group least covered by large erasers.  Each
    selected image must be its eraser's image over ``keywords``.
    """
    n = len(keywords)
    target_size = group_target(n, target_size)
    oversize = [c for c in selected if c.weight > target_size]
    if oversize:
        worst = max(c.weight for c in oversize)
        raise InfeasibleTargetError(
            f"target size {target_size} is below the largest selected image ({worst})"
        )
    seen: set[Keyword] = set()
    for cand in selected:
        if cand.image & seen:
            raise InputError("selected eraser images overlap")
        seen.update(cand.image)

    k = math.ceil(n / target_size)
    if k == 0:
        return GroupPlan((), (), target_size)

    position = {kw: i for i, kw in enumerate(keywords)}
    group_kws: list[list[Keyword]] = [[] for _ in range(k)]
    group_erasers: list[list[Eraser]] = [[] for _ in range(k)]
    sizes = [0] * k

    # The lightest group can take an image whenever any group can, so the
    # lightest group (tie: lowest index) is always the pick.
    lightest = [(0, g) for g in range(k)]
    ordered = sorted(
        selected,
        key=lambda c: (
            -c.weight,
            min(position[kw] for kw in c.image),
            tuple(sorted(c.eraser.words)),
        ),
    )
    for cand in ordered:
        _, g = heapq.heappop(lightest)
        group_kws[g].extend(sorted(cand.image, key=lambda kw: position[kw]))
        group_erasers[g].append(cand.eraser)
        sizes[g] += cand.weight
        heapq.heappush(lightest, (sizes[g], g))

    # Every keyword so far lies in its group's large-eraser images and none
    # placed from here on does, so the large-covered count is frozen.
    large_covered = tuple(sizes)
    open_groups = {g for g in range(k) if sizes[g] < target_size}
    vocabulary: list[set[str]] = [set() for _ in range(k)]
    holders: dict[str, int] = {}  # word -> bitmask of open groups whose vocabulary has it
    for g in open_groups:
        for kw in group_kws[g]:
            vocabulary[g].update(kw.words)
        for w in vocabulary[g]:
            holders[w] = holders.get(w, 0) | 1 << g

    for kw in keywords:
        if kw in seen:
            continue
        words = frozenset(kw.words)
        # levels[j]: the open groups holding more than j of the keyword's
        # words, so the last non-empty level holds the groups sharing most.
        levels: list[int] = []
        for w in words:
            mask = holders.get(w, 0)
            for j, level in enumerate(levels):
                levels[j] = level | mask
                mask &= level
            if mask:
                levels.append(mask)
        if levels:
            g = _lightest(levels[-1], sizes)
        else:
            # Some group is open: fewer than n <= k * target_size keywords
            # are placed so far.
            g = min(open_groups, key=lambda g: (sizes[g], large_covered[g], g))
        group_kws[g].append(kw)
        group_erasers[g].append(ExactEraser(kw))
        sizes[g] += 1
        if sizes[g] < target_size:
            for w in words - vocabulary[g]:
                holders[w] = holders.get(w, 0) | 1 << g
            vocabulary[g] |= words
        else:
            open_groups.discard(g)
            for w in vocabulary[g]:
                holders[w] &= ~(1 << g)

    return GroupPlan(
        tuple(frozenset(g) for g in group_kws),
        tuple(tuple(e) for e in group_erasers),
        target_size,
    )


def _lightest(groups: int, sizes: Sequence[int]) -> int:
    """The group of bitmask ``groups`` with the fewest keywords, tie to the
    lowest index."""
    best = -1
    while groups:
        low = groups & -groups
        g = low.bit_length() - 1
        if best < 0 or sizes[g] < sizes[best]:
            best = g
        groups ^= low
    return best


def reduce_keywords(
    members: Iterable[Keyword],
    universe: Iterable[Keyword],
) -> tuple[Eraser, ...]:
    """A small eraser set erasing exactly ``members`` and nothing else in ``universe``.

    Greedy cover (``_greedy_cover``) over the strict large candidates, those
    whose image lies inside ``members``.  The candidates are the word subsets
    of the universe's keywords, imaged in one pass over the universe (see
    ``_filed``); a subset that some non-member holds has it in its image and
    is not strict.
    """
    member_set = frozenset(members)
    universe_list = list(universe)
    if not member_set <= set(universe_list):
        raise InputError("reduce: members must lie inside the universe")
    strict = {
        ws: frozenset(kws)
        for ws, kws in _filed(universe_list).items()
        if len(kws) > 1 and member_set.issuperset(kws)
    }
    return _greedy_cover(rank_subset_images(strict), member_set)


def cover_beside(
    ranking: Iterable[Ranked],
    members: frozenset[Keyword],
    newcomer: Keyword,
) -> tuple[Eraser, ...]:
    """``reduce_keywords(members, members | {newcomer})`` read off
    ``ranking``, which is ``rank_subset_images(all_subset_images(members))``.
    A subset holding all its words in ``newcomer`` has the newcomer in its
    image, so the strict candidates are the others, already in greedy
    order."""
    words = frozenset(newcomer.words)
    return _greedy_cover((t for t in ranking if not words.issuperset(t[1])), members)


def _greedy_cover(ranking: Iterable[Ranked], members: frozenset[Keyword]) -> tuple[Eraser, ...]:
    """Large erasers from ``ranking`` (candidates in greedy order, each
    image inside ``members``), each taken when it erases at least two
    keywords not yet erased, then exact erasers for the rest.  Never longer
    than ``members`` itself."""
    chosen: list[Eraser] = []
    covered: set[Keyword] = set()
    for _, ws, img in ranking:
        # Late in the walk most images lie inside the cover: test that
        # first, with no set built.
        if not img <= covered and len(img - covered) >= 2:
            chosen.append(LargeEraser(frozenset(ws)))
            covered.update(img)
    for kw in sorted(members - covered):
        chosen.append(ExactEraser(kw))
    return tuple(chosen)
