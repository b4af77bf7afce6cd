"""Reference implementations the tests compare the package against.

They are kept out of ``src/`` because they are slow on purpose:
``make_group_plan`` is the original packing that recomputes every group's
vocabulary for each uncovered keyword, ``expand`` takes eraser images by
scanning the universe, and ``exact_packing_oracle`` searches every disjoint
sub-collection of candidates.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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
from shopstruct.keywords import Keyword, word_set


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
