"""Compile a rule catalogue into the three-tier account structure.

Layout produced:

* one High-tier campaign that blocks every catalogue keyword exactly and
  every brand and blocked-brand term as a phrase, with a single catch-all
  ad group (generic traffic lands here);
* one Medium-tier campaign (only when brands exist) blocking catalogue
  keywords exactly and blocked brands as phrases, one ad group per brand that
  blocks every other brand as a phrase (brand traffic lands per brand);
* one Low-tier campaign per keyword group; campaign negatives are the
  erasers of every *other* group plus blocked-brand phrases, and each keyword
  gets an ad group blocking its group siblings exactly (catalogue traffic
  lands on its own keyword's ad group).

Group shapes come from either the naive partition (per-keyword exact erasers)
or the reduced pipeline (shared large erasers packed into balanced groups).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from ._gcpause import gc_paused
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
    ProductTree,
    Rule,
    RuleTag,
    negative_count,
)
from .bounds import nk_exact
from .erasers import (
    Eraser,
    EraserGraph,
    ExactEraser,
    GroupPlan,
    build_graph,
    enumerate_candidates,
    group_target,
    make_group_plan,
    select_color_class,
    welsh_powell,
)
from .errors import InputError
from .keywords import Keyword, NegativeKeyword, distinct_keywords, exact, matches, phrase

GENERAL_CAMPAIGN = "c1"
BRAND_CAMPAIGN = "c2"
CATCH_ALL_ADGROUP = "catch-all"


def group_campaign_name(index: int) -> str:
    return f"c3_{index}"


@dataclass(frozen=True)
class BuildConfig:
    """The account compiler's settings: the build ``mode`` ("reduced" or
    "naive"), the keyword-group ``target_size`` (None for ceil(sqrt(n))), the
    negative-list ``limit`` and the ``default_bid`` of catch-all and brand
    ad groups.  The defaults are the recommended ones."""

    mode: str = "reduced"
    target_size: int | None = None
    limit: int = 20000
    default_bid: Money = field(default_factory=lambda: Money(10_000))

    def __post_init__(self) -> None:
        if self.mode not in ("naive", "reduced"):
            raise InputError(f"unknown build mode: {self.mode!r}")
        if self.limit < 1:
            raise InputError("limit must be positive")


def _check_routable(keywords: Iterable[Keyword], non_brands: Sequence[Keyword]) -> None:
    """Reject keywords holding a blocked brand as a phrase: every campaign
    blocks such a keyword, so its traffic could never land anywhere.  Only a
    keyword sharing a word with some blocked brand can hold one, so only
    those are matched, against the brands in sorted order."""
    brand_words = {w for b in non_brands for w in b.words}
    ordered = sorted(non_brands)
    for kw in keywords:
        if brand_words.isdisjoint(kw.words):
            continue
        held = next((b for b in ordered if matches(kw, phrase(b))), None)
        if held is not None:
            raise InputError(
                f"keyword {kw.text!r} contains the blocked brand"
                f" {held.text!r}, so no campaign can route it"
            )


def rule_adgroup(rule: Rule, negatives: frozenset[NegativeKeyword]) -> AdGroup:
    """The ad group that bids ``rule``'s keyword, blocking ``negatives``."""
    kw = rule.keyword
    return AdGroup(name=kw.text, tag=RuleTag(kw), negatives=negatives, tree=Leaf(rule.cpc))


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
) -> GroupPlan:
    """Sorted keywords in chunks of ``group_target`` size, one exact eraser each."""
    target_size = group_target(len(keywords), target_size)
    ordered = sorted(keywords)
    chunks = [ordered[i : i + target_size] for i in range(0, len(ordered), target_size)]
    return GroupPlan(
        tuple(frozenset(chunk) for chunk in chunks),
        tuple(tuple(ExactEraser(kw) for kw in chunk) for chunk in chunks),
        target_size,
    )


def _reduced_plan(
    keywords: Sequence[Keyword], target_size: int | None
) -> tuple[EraserGraph, GroupPlan]:
    """The conflict graph of the candidate large erasers, and the plan packed
    from its best color class.  A candidate's image is capped at the group
    target: a larger image fits in no group."""
    n = len(keywords)
    cap = min(group_target(n), group_target(n, target_size))
    graph = build_graph(enumerate_candidates(keywords, max_image=cap))
    selected = select_color_class(graph, welsh_powell(graph))
    return graph, make_group_plan(keywords, selected, target_size=target_size)


def plan_groups(keywords: Sequence[Keyword], config: BuildConfig) -> GroupPlan:
    """Partition plus per-group erasers under the configured mode."""
    if config.mode == "naive":
        return naive_partition(keywords, target_size=config.target_size)
    return _reduced_plan(keywords, config.target_size)[1]


def group_campaign_negatives(
    erasers: Sequence[Sequence[Eraser]],
    blocked: frozenset[NegativeKeyword],
) -> list[frozenset[NegativeKeyword]]:
    """Each group campaign's negatives: the eraser negatives of every other
    group plus the blocked-brand phrases ``blocked``.

    Each group's negatives are built once; the unions reuse their stored
    hashes, so the k-fold repetition costs no per-negative hashing.
    """
    per_group = [frozenset(e.to_negative() for e in group) for group in erasers]
    return [
        blocked.union(*(negs for j, negs in enumerate(per_group) if j != own))
        for own in range(len(per_group))
    ]


@gc_paused
def build_account(
    rules: Sequence[Rule],
    brands: Sequence[Keyword] = (),
    non_brands: Sequence[Keyword] = (),
    *,
    config: BuildConfig | None = None,
    brand_trees: Mapping[Keyword, ProductTree] | None = None,
) -> Account:
    """Compile rules into an account; campaigns come out in canonical order
    (general, brands, then groups by index).  Raises LimitExceededError when
    a negative list of the built account is over ``config.limit``."""
    config = config or BuildConfig()
    _validate_inputs(rules, brands, non_brands)
    plan = plan_groups([r.keyword for r in rules], config)
    return _emit_account(rules, brands, non_brands, config, plan, brand_trees)


def _emit_account(
    rules: Sequence[Rule],
    brands: Sequence[Keyword],
    non_brands: Sequence[Keyword],
    config: BuildConfig,
    plan: GroupPlan,
    brand_trees: Mapping[Keyword, ProductTree] | None = None,
) -> Account:
    """The account of validated inputs whose keyword groups ``plan`` gives."""
    keywords = [r.keyword for r in rules]
    rule_by_kw = {r.keyword: r for r in rules}
    position = {kw: i for i, kw in enumerate(keywords)}

    exact_of = {kw: exact(kw) for kw in keywords}
    phrase_of = {b: phrase(b) for b in brands}
    sk_exact = frozenset(exact_of.values())
    sb_phrases = frozenset(phrase_of.values())
    snb_phrases = frozenset(phrase(b) for b in non_brands)

    campaigns: list[Campaign] = []

    general_negs = sk_exact | sb_phrases | snb_phrases
    campaigns.append(
        Campaign(
            name=GENERAL_CAMPAIGN,
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
        adgroups = []
        for brand in brands:
            others = frozenset(phrase_of[b] for b in brands if b != brand)
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
                tag=BrandCampaignTag(),
                negatives=brand_negs,
                adgroups=tuple(adgroups),
            )
        )

    campaign_negatives = group_campaign_negatives(plan.erasers, snb_phrases)
    owned = zip(plan.groups, plan.erasers, campaign_negatives)
    for index, (group, erasers, negs) in enumerate(owned, 1):
        # Sibling lists are the group's exact set less the keyword's own.
        group_exact = frozenset(exact_of[kw] for kw in group)
        adgroups = tuple(
            rule_adgroup(rule_by_kw[kw], group_exact - {exact_of[kw]})
            for kw in sorted(group, key=lambda kw: position[kw])
        )
        campaigns.append(
            Campaign(
                name=group_campaign_name(index),
                tag=GroupCampaignTag(index),
                negatives=negs,
                adgroups=adgroups,
                erasers=erasers,
            )
        )

    account = Account(
        limit=config.limit,
        brands=tuple(brands),
        non_brands=tuple(non_brands),
        campaigns=tuple(campaigns),
    )
    account.check_limit()
    return account


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


@gc_paused
def reduction_stats(
    rules: Sequence[Rule],
    brands: Sequence[Keyword] = (),
    non_brands: Sequence[Keyword] = (),
    *,
    config: BuildConfig | None = None,
) -> ReductionStats:
    """Build the reduced account once, from the one candidate graph it
    counts, and report how much it saves.  The naive count is ``nk_exact``
    over the naive partition, with no naive build: its largest list, the
    High campaign, is in the reduced build too."""
    config = replace(config or BuildConfig(), mode="reduced")
    _validate_inputs(rules, brands, non_brands)
    keywords = [r.keyword for r in rules]
    graph, plan = _reduced_plan(keywords, config.target_size)
    reduced = _emit_account(rules, brands, non_brands, config, plan)
    exact_erasers = sum(isinstance(e, ExactEraser) for g in reduced.erasers for e in g)
    naive_groups = naive_partition(keywords, target_size=config.target_size).groups
    naive_sizes = [len(g) for g in naive_groups]
    return ReductionStats(
        n=len(keywords),
        candidate_count=graph.node_count,
        conflict_edges=graph.edge_count,
        covered=len(keywords) - exact_erasers,
        group_count=len(reduced.partition),
        group_sizes=tuple(len(g) for g in reduced.partition),
        naive_negatives=nk_exact(len(keywords), len(brands), len(non_brands), naive_sizes),
        reduced_negatives=negative_count(reduced),
    )
