"""Compile a rule catalogue into the three-priority account structure.

Layout produced:

* one high priority campaign that blocks every catalogue keyword exactly and
  every brand and blocked-brand term as a phrase, with a single catch-all
  ad group (generic traffic lands here);
* one medium priority campaign (only when brands exist) blocking catalogue
  keywords exactly and blocked brands as phrases, one ad group per brand that
  blocks every other brand as a phrase (brand traffic lands per brand);
* one low priority campaign per keyword group; campaign negatives are the
  erasers of every *other* group plus blocked-brand phrases, and each keyword
  gets an ad group blocking its group siblings exactly (catalogue traffic
  lands on its own keyword's ad group).

Group shapes come from either the naive partition (per-keyword exact erasers)
or the reduced pipeline (shared large erasers packed into balanced groups).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .account import (
    Account,
    AdGroup,
    BrandCampaignTag,
    BrandTag,
    Campaign,
    CatchAllTag,
    GeneralCampaignTag,
    GroupCampaignTag,
    Leaf,
    Money,
    Priority,
    ProductTree,
    Rule,
    RuleTag,
    negative_count,
)
from .erasers import (
    Eraser,
    ExactEraser,
    build_graph,
    enumerate_candidates,
    make_group_plan,
    select_color_class,
    welsh_powell,
)
from .errors import InputError, LimitExceededError
from .keywords import (
    Keyword,
    NegativeIndex,
    NegativeKeyword,
    distinct_keywords,
    exact,
    phrase,
)

GENERAL_CAMPAIGN = "c1"
BRAND_CAMPAIGN = "c2"
CATCH_ALL_ADGROUP = "catch-all"


def group_campaign_name(index: int) -> str:
    return f"c3_{index}"


@dataclass(frozen=True)
class BuildConfig:
    """Knobs for the account compiler; the defaults are the recommended ones."""

    mode: str = "reduced"
    max_words: int = 3
    max_image: int | None = None
    target_size: int | None = None
    limit: int = 20000
    default_bid: Money = field(default_factory=lambda: Money(10_000))
    coloring_order: str = "weight"

    def __post_init__(self) -> None:
        if self.mode not in ("naive", "reduced"):
            raise InputError(f"unknown build mode: {self.mode!r}")
        if self.limit < 1:
            raise InputError("limit must be positive")
        if self.max_words < 1:
            raise InputError("max_words must be positive")


def _check_limit(limit: int, where: str, count: int) -> None:
    if count > limit:
        raise LimitExceededError(
            f"{where} needs {count} negatives, over the limit of {limit}"
        )


def _check_routable(keywords: Iterable[Keyword], non_brands: Sequence[Keyword]) -> None:
    """Reject keywords holding a blocked brand as a phrase: every campaign
    blocks such a keyword, so its traffic could never land anywhere."""
    blocked = NegativeIndex(phrase(b) for b in non_brands)
    for kw in keywords:
        hit = blocked.first_match(kw)
        if hit is not None:
            raise InputError(
                f"keyword {kw.text!r} contains the blocked brand"
                f" {hit.keyword.text!r}, so no campaign can route it"
            )


def _validate_inputs(
    rules: Sequence[Rule],
    brands: Sequence[Keyword],
    non_brands: Sequence[Keyword],
) -> None:
    distinct_keywords(r.keyword for r in rules)
    distinct_keywords(brands)
    distinct_keywords(non_brands)
    overlap = set(brands) & set(non_brands)
    if overlap:
        names = ", ".join(sorted(kw.text for kw in overlap))
        raise InputError(f"terms listed as both brand and blocked brand: {names}")
    _check_routable((r.keyword for r in rules), non_brands)


def naive_partition(
    keywords: Sequence[Keyword], *, target_size: int | None = None
) -> tuple[tuple[frozenset[Keyword], ...], tuple[tuple[Eraser, ...], ...]]:
    """Sorted keywords chunked into groups of the target size, one exact
    eraser per keyword."""
    n = len(keywords)
    if n == 0:
        return (), ()
    if target_size is None:
        target_size = max(1, math.ceil(math.sqrt(n)))
    ordered = sorted(keywords)
    chunks = [
        ordered[i : i + target_size] for i in range(0, n, target_size)
    ]
    groups = tuple(frozenset(chunk) for chunk in chunks)
    erasers = tuple(
        tuple(ExactEraser(kw) for kw in chunk) for chunk in chunks
    )
    return groups, erasers


def plan_groups(
    keywords: Sequence[Keyword], config: BuildConfig
) -> tuple[tuple[frozenset[Keyword], ...], tuple[tuple[Eraser, ...], ...]]:
    """Partition plus per-group erasers under the configured mode."""
    if config.mode == "naive":
        return naive_partition(keywords, target_size=config.target_size)
    candidates = enumerate_candidates(
        keywords, max_words=config.max_words, max_image=config.max_image
    )
    graph = build_graph(candidates)
    colors = welsh_powell(graph, order=config.coloring_order)
    selected = select_color_class(graph, colors)
    plan = make_group_plan(keywords, selected, target_size=config.target_size)
    return plan.groups, plan.erasers


def group_campaign_negatives(
    erasers: Sequence[Sequence[Eraser]],
    blocked: frozenset[NegativeKeyword],
    interned: dict[NegativeKeyword, NegativeKeyword] | None = None,
) -> list[frozenset[NegativeKeyword]]:
    """Each group campaign's negatives: the eraser negatives of every other
    group plus the blocked-brand phrases ``blocked``.

    Each group's negatives are built once; the unions reuse their stored
    hashes, so the k-fold repetition costs no per-negative hashing.  An
    eraser's negative is taken from ``interned`` (the account's table of one
    object per negative) when it holds an equal one, and added to it if not.
    """
    interned = {} if interned is None else interned
    per_group = [
        frozenset(
            interned.setdefault(neg, neg) for neg in (e.to_negative() for e in group)
        )
        for group in erasers
    ]
    return [
        blocked.union(*(negs for j, negs in enumerate(per_group) if j != own))
        for own in range(len(per_group))
    ]


def build_account(
    rules: Sequence[Rule],
    brands: Sequence[Keyword] = (),
    non_brands: Sequence[Keyword] = (),
    *,
    config: BuildConfig | None = None,
    brand_trees: Mapping[Keyword, ProductTree] | None = None,
) -> Account:
    """Compile rules into an account; campaigns come out in canonical order
    (general, brands, then groups by index)."""
    config = config or BuildConfig()
    _validate_inputs(rules, brands, non_brands)
    keywords = [r.keyword for r in rules]
    rule_by_kw = {r.keyword: r for r in rules}
    position = {kw: i for i, kw in enumerate(keywords)}

    # One object per distinct negative, shared by every list that holds it.
    interned: dict[NegativeKeyword, NegativeKeyword] = {}

    def shared(neg: NegativeKeyword) -> NegativeKeyword:
        return interned.setdefault(neg, neg)

    exact_of = {kw: shared(exact(kw)) for kw in keywords}
    phrase_of = {b: shared(phrase(b)) for b in brands}
    sk_exact = frozenset(exact_of.values())
    sb_phrases = frozenset(phrase_of.values())
    snb_phrases = frozenset(shared(phrase(b)) for b in non_brands)

    campaigns: list[Campaign] = []

    general_negs = sk_exact | sb_phrases | snb_phrases
    _check_limit(config.limit, f"campaign {GENERAL_CAMPAIGN}", len(general_negs))
    campaigns.append(
        Campaign(
            name=GENERAL_CAMPAIGN,
            priority=Priority.HIGH,
            tag=GeneralCampaignTag(),
            negatives=general_negs,
            adgroups=(
                AdGroup(
                    name=CATCH_ALL_ADGROUP,
                    tag=CatchAllTag(),
                    negatives=frozenset(),
                    tree=Leaf(config.default_bid),
                ),
            ),
        )
    )

    if brands:
        brand_negs = sk_exact | snb_phrases
        _check_limit(config.limit, f"campaign {BRAND_CAMPAIGN}", len(brand_negs))
        adgroups = []
        for brand in brands:
            others = frozenset(phrase_of[b] for b in brands if b != brand)
            _check_limit(config.limit, f"ad group {brand.text}", len(others))
            tree: ProductTree = Leaf(config.default_bid)
            if brand_trees and brand in brand_trees:
                tree = brand_trees[brand]
            adgroups.append(
                AdGroup(
                    name=brand.text,
                    tag=BrandTag(brand),
                    negatives=others,
                    tree=tree,
                )
            )
        campaigns.append(
            Campaign(
                name=BRAND_CAMPAIGN,
                priority=Priority.MEDIUM,
                tag=BrandCampaignTag(),
                negatives=brand_negs,
                adgroups=tuple(adgroups),
            )
        )

    partition, erasers = plan_groups(keywords, config)
    campaign_negatives = group_campaign_negatives(erasers, snb_phrases, interned)
    for idx, group in enumerate(partition):
        index = idx + 1
        name = group_campaign_name(index)
        negs = campaign_negatives[idx]
        _check_limit(config.limit, f"campaign {name}", len(negs))
        # Sibling lists are the group's exact set less the keyword's own,
        # built from shared objects whose hashes the sets already hold.
        group_exact = frozenset(exact_of[kw] for kw in group)
        adgroups = []
        for kw in sorted(group, key=lambda kw: position[kw]):
            siblings = group_exact - {exact_of[kw]}
            _check_limit(config.limit, f"ad group {kw.text}", len(siblings))
            adgroups.append(
                AdGroup(
                    name=kw.text,
                    tag=RuleTag(kw),
                    negatives=siblings,
                    tree=Leaf(rule_by_kw[kw].cpc),
                )
            )
        campaigns.append(
            Campaign(
                name=name,
                priority=Priority.LOW,
                tag=GroupCampaignTag(index),
                negatives=negs,
                adgroups=tuple(adgroups),
            )
        )

    return Account(
        limit=config.limit,
        brands=tuple(brands),
        non_brands=tuple(non_brands),
        campaigns=tuple(campaigns),
        partition=partition,
        erasers=erasers,
    )


@dataclass(frozen=True)
class ReductionStats:
    """Side-by-side negative counts of the naive and reduced builds."""

    n: int
    candidate_count: int
    conflict_edges: int
    covered: int
    group_count: int
    group_sizes: tuple[int, ...]
    naive_negatives: int
    reduced_negatives: int

    @property
    def ratio(self) -> float:
        if self.naive_negatives == 0:
            return 1.0
        return self.reduced_negatives / self.naive_negatives


def reduction_stats(
    rules: Sequence[Rule],
    brands: Sequence[Keyword] = (),
    non_brands: Sequence[Keyword] = (),
    *,
    config: BuildConfig | None = None,
) -> ReductionStats:
    """Build both ways and report how much the eraser pipeline saves."""
    config = config or BuildConfig()
    reduced_cfg = replace(config, mode="reduced")
    naive_cfg = replace(config, mode="naive")

    keywords = [r.keyword for r in rules]
    candidates = enumerate_candidates(
        keywords, max_words=config.max_words, max_image=config.max_image
    )
    graph = build_graph(candidates)
    colors = welsh_powell(graph, order=config.coloring_order)
    selected = select_color_class(graph, colors)

    reduced = build_account(rules, brands, non_brands, config=reduced_cfg)
    naive = build_account(rules, brands, non_brands, config=naive_cfg)
    return ReductionStats(
        n=len(keywords),
        candidate_count=graph.node_count,
        conflict_edges=graph.edge_count,
        covered=sum(c.weight for c in selected),
        group_count=len(reduced.partition),
        group_sizes=tuple(len(g) for g in reduced.partition),
        naive_negatives=negative_count(naive),
        reduced_negatives=negative_count(reduced),
    )
