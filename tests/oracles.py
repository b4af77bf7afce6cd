"""Reference implementations the tests compare the package against.

They are kept out of ``src/`` because they are slow on purpose:
``make_group_plan`` is the original packing that recomputes every group's
vocabulary for each uncovered keyword, ``expand`` takes eraser images by
scanning the universe, ``exact_packing_oracle`` searches every disjoint
sub-collection of candidates, ``enumerate_candidates`` copies every word's
keyword set before intersecting, ``reduce_keywords`` scans the whole universe
once per candidate word set, and ``_min_negatives_changes`` recomputes every
group's cover for every placement (k² covers for k groups).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from shopstruct.account import Account, AdGroup, Leaf, Rule, RuleTag
from shopstruct.builder import _check_limit, group_campaign_negatives
from shopstruct.erasers import (
    Candidate,
    Eraser,
    ExactEraser,
    GroupPlan,
    LargeEraser,
    eraser_image,
    erases,
)
from shopstruct.errors import CandidateLimitError, InfeasibleTargetError, InputError
from shopstruct.keywords import Keyword, exact, phrase, word_set
from shopstruct.updates import (
    AddAdGroup,
    AddNegative,
    AssignKeyword,
    Change,
    SetCampaignNegatives,
    SetGroupErasers,
    _open_campaign_changes,
)


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
    no eraser covers become exact erasers, placed (in catalogue order) with
    the group sharing the most vocabulary, falling back to the lightest group,
    tie to the group least covered by large erasers.
    """
    n = len(keywords)
    if target_size is None:
        target_size = max(1, math.ceil(math.sqrt(n)))
    if target_size < 1:
        raise InputError(f"target size must be positive: {target_size}")
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

    k = max(1, math.ceil(n / target_size)) if n else 0
    if k == 0:
        return GroupPlan((), (), target_size)

    position = {kw: i for i, kw in enumerate(keywords)}
    group_kws: list[list[Keyword]] = [[] for _ in range(k)]
    group_erasers: list[list[Eraser]] = [[] for _ in range(k)]

    def size(g: int) -> int:
        return len(group_kws[g])

    ordered = sorted(
        selected,
        key=lambda c: (
            -c.weight,
            min(position[kw] for kw in c.image),
            tuple(sorted(c.eraser.words)),
        ),
    )
    for cand in ordered:
        fitting = [g for g in range(k) if size(g) + cand.weight <= target_size]
        pool = fitting or list(range(k))
        g = min(pool, key=lambda g: (size(g), g))
        group_kws[g].extend(sorted(cand.image, key=lambda kw: position[kw]))
        group_erasers[g].append(cand.eraser)

    def vocabulary(g: int) -> set[str]:
        vocab: set[str] = set()
        for kw in group_kws[g]:
            vocab.update(word_set(kw))
        return vocab

    def large_covered(g: int) -> int:
        covered: set[Keyword] = set()
        for er in group_erasers[g]:
            if isinstance(er, LargeEraser):
                covered.update(kw for kw in group_kws[g] if erases(er, kw))
        return len(covered)

    uncovered = [kw for kw in keywords if kw not in seen]
    for kw in uncovered:
        words = word_set(kw)
        open_groups = [g for g in range(k) if size(g) < target_size]
        affine = [
            (len(words & vocabulary(g)), g) for g in open_groups
        ]
        affine = [(shared, g) for shared, g in affine if shared > 0]
        if affine:
            g = min(affine, key=lambda t: (-t[0], size(t[1]), t[1]))[1]
        else:
            pool = open_groups or list(range(k))
            g = min(pool, key=lambda g: (size(g), large_covered(g), g))
        group_kws[g].append(kw)
        group_erasers[g].append(ExactEraser(kw))

    return GroupPlan(
        tuple(frozenset(g) for g in group_kws),
        tuple(tuple(e) for e in group_erasers),
        target_size,
    )


def expand(erasers: Iterable[Eraser], universe: Iterable[Keyword]) -> frozenset[Keyword]:
    """Union of the erasers' images over ``universe``; inverse of reduce."""
    universe_list = list(universe)
    out: set[Keyword] = set()
    for er in erasers:
        out.update(eraser_image(er, universe_list))
    return frozenset(out)


def exact_packing_oracle(
    candidates: Sequence[Candidate], *, limit: int = 25
) -> tuple[int, tuple[Candidate, ...]]:
    """Exhaustive max-coverage disjoint sub-collection (branch and bound).

    Only meant for small instances; refuses more than ``limit`` candidates.
    Returns (coverage, chosen candidates).
    """
    if len(candidates) > limit:
        raise CandidateLimitError(
            f"{len(candidates)} candidates exceed the oracle limit of {limit}"
        )
    order = sorted(range(len(candidates)), key=lambda i: -candidates[i].weight)
    weights = [candidates[i].weight for i in order]
    images = [candidates[i].image for i in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    best_cov = 0
    best_pick: tuple[int, ...] = ()

    def walk(idx: int, used: frozenset[Keyword], cov: int, pick: tuple[int, ...]) -> None:
        nonlocal best_cov, best_pick
        if cov > best_cov:
            best_cov = cov
            best_pick = pick
        if idx == len(order) or cov + suffix[idx] <= best_cov:
            return
        if not (images[idx] & used):
            walk(idx + 1, used | images[idx], cov + weights[idx], pick + (idx,))
        walk(idx + 1, used, cov, pick)

    walk(0, frozenset(), 0, ())
    return best_cov, tuple(candidates[order[i]] for i in best_pick)


def enumerate_candidates(
    keywords: Sequence[Keyword],
    *,
    max_words: int = 3,
    max_image: int | None = None,
) -> tuple[Candidate, ...]:
    """All useful candidate large erasers over ``keywords``.

    Candidates are word subsets (size <= max_words) of individual keywords with
    image size in [2, max_image]; a candidate is dropped when a strict subset of
    its words has the identical image (the smaller word set blocks everything
    the bigger one does and more besides, so the bigger one is redundant).
    Default max_image is ceil(sqrt(n)).  Deterministic order: image size
    descending, then lexicographic word set.
    """
    n = len(keywords)
    if max_image is None:
        max_image = max(1, math.ceil(math.sqrt(n)))
    by_word: dict[str, set[Keyword]] = {}
    for kw in keywords:
        for w in word_set(kw):
            by_word.setdefault(w, set()).add(kw)

    images: dict[frozenset[str], frozenset[Keyword]] = {}
    for kw in keywords:
        toks = sorted(word_set(kw))
        for r in range(1, min(max_words, len(toks)) + 1):
            for combo in itertools.combinations(toks, r):
                ws = frozenset(combo)
                if ws in images:
                    continue
                img: set[Keyword] | None = None
                for w in combo:
                    hits = by_word.get(w, set())
                    img = set(hits) if img is None else (img & hits)
                    if not img:
                        break
                images[ws] = frozenset(img or ())

    kept = {
        ws: img for ws, img in images.items() if 2 <= len(img) <= max_image
    }
    # Redundancy: same image reachable from a strict word subset.
    minimal: list[Candidate] = []
    for ws, img in kept.items():
        redundant = False
        if len(ws) > 1:
            for r in range(1, len(ws)):
                for sub in itertools.combinations(sorted(ws), r):
                    if kept.get(frozenset(sub)) == img:
                        redundant = True
                        break
                if redundant:
                    break
        if not redundant:
            minimal.append(Candidate(LargeEraser(ws), img))
    minimal.sort(key=lambda c: (-c.weight, tuple(sorted(c.eraser.words))))
    return tuple(minimal)


def reduce_keywords(
    members: Iterable[Keyword],
    universe: Iterable[Keyword],
    *,
    max_words: int = 3,
) -> tuple[Eraser, ...]:
    """A small eraser set erasing exactly ``members`` and nothing else in ``universe``.

    Greedy cover: strict large candidates (image inside ``members``) taken
    largest-image-first while they erase at least two uncovered keywords, then
    exact erasers for the rest.  Never longer than ``members`` itself.
    """
    member_set = frozenset(members)
    universe_list = list(universe)
    if not member_set <= set(universe_list):
        raise InputError("reduce: members must lie inside the universe")

    seen_sets: set[frozenset[str]] = set()
    strict: list[tuple[frozenset[str], frozenset[Keyword]]] = []
    for kw in sorted(member_set):
        toks = sorted(word_set(kw))
        for r in range(1, min(max_words, len(toks)) + 1):
            for combo in itertools.combinations(toks, r):
                ws = frozenset(combo)
                if ws in seen_sets:
                    continue
                seen_sets.add(ws)
                img = frozenset(k for k in universe_list if ws <= word_set(k))
                if len(img) >= 2 and img <= member_set:
                    strict.append((ws, img))
    strict.sort(key=lambda t: (-len(t[1]), tuple(sorted(t[0]))))

    chosen: list[Eraser] = []
    covered: set[Keyword] = set()
    for ws, img in strict:
        fresh = img - covered
        if len(fresh) >= 2:
            chosen.append(LargeEraser(ws))
            covered.update(img)
    for kw in sorted(member_set - covered):
        chosen.append(ExactEraser(kw))
    return tuple(chosen)


def _min_negatives_changes(account: Account, rule: Rule) -> list[Change]:
    """Case: every group campaign blocks the keyword and the caller prefers
    re-covering groups over opening a campaign.  Each placement is costed by
    recomputing every group's eraser cover against the grown catalogue; the
    placement with the fewest literal negatives account-wide wins."""
    kw = rule.keyword
    group_camps = account.group_campaigns()
    if not group_camps:
        return _open_campaign_changes(account, rule)
    old_groups = list(account.partition)
    universe = sorted(account.keywords()) + [kw]
    snb = frozenset(phrase(b) for b in account.non_brands)

    best: tuple[int, int] | None = None
    best_erasers: list[tuple[Eraser, ...]] | None = None
    for target in range(len(old_groups)):
        new_erasers = []
        for pos, group in enumerate(old_groups):
            members = set(group) | ({kw} if pos == target else set())
            new_erasers.append(reduce_keywords(sorted(members), universe))
        total_erasers = sum(len(e) for e in new_erasers)
        campaign_negs = total_erasers * (len(old_groups) - 1) + len(snb) * len(
            old_groups
        )
        adgroup_negs = sum(
            (len(g) + (1 if pos == target else 0))
            * (len(g) + (1 if pos == target else 0) - 1)
            for pos, g in enumerate(old_groups)
        )
        cost = campaign_negs + adgroup_negs
        if best is None or (cost, target) < (best[0], best[1]):
            best = (cost, target)
            best_erasers = new_erasers
    assert best is not None and best_erasers is not None
    target = best[1]

    changes: list[Change] = []
    for pos, erasers in enumerate(best_erasers):
        if erasers != account.erasers[pos]:
            changes.append(SetGroupErasers(pos, erasers))
    for camp, negs in zip(group_camps, group_campaign_negatives(best_erasers, snb)):
        if negs != camp.negatives:
            _check_limit(account.limit, f"campaign {camp.name}", len(negs))
            changes.append(SetCampaignNegatives(camp.name, negs))
    chosen = group_camps[target]
    members = account.partition[target]
    for adgroup in chosen.adgroups:
        _check_limit(
            account.limit, f"ad group {adgroup.name!r}", len(adgroup.negatives) + 1
        )
        changes.append(AddNegative(chosen.name, exact(kw), adgroup.name))
    siblings = frozenset(exact(other) for other in members)
    _check_limit(account.limit, f"ad group {kw.text!r}", len(siblings))
    changes.append(
        AddAdGroup(
            chosen.name,
            AdGroup(
                name=kw.text, tag=RuleTag(kw), negatives=siblings, tree=Leaf(rule.cpc)
            ),
        )
    )
    changes.append(AssignKeyword(target, kw))
    return changes
