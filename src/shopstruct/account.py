"""Account data model: rules, product trees, ad groups, campaigns, accounts.

An account is three priority tiers of shopping campaigns that carve up query
traffic purely with negative keyword lists:

* one High-priority campaign that catches generic traffic,
* one Medium-priority campaign with an ad group per reseller brand,
* Low-priority campaigns, one per keyword group, whose ad groups each own a
  single bidding keyword.

Everything here is immutable; updates build new values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import ClassVar, Collection, Iterable, Mapping, Sequence, Union

from ._gcpause import gc_paused
from .erasers import Eraser, Ranked, all_subset_images, rank_subset_images, refile_subset_images
from .errors import InputError, LimitExceededError, UnknownKeywordError
from .keywords import Keyword, NegativeIndex, NegativeKeyword

# Some negative lists of an account: campaign name -> the names of the
# lists meant in it, None for the campaign's own list and an ad group's name
# for that ad group's.
Lists = Mapping[str, Collection[Union[str, None]]]


@dataclass(frozen=True, order=True)
class Money:
    """An amount in micro currency units (1_000_000 micros = 1 unit)."""

    micros: int

    def __post_init__(self) -> None:
        if self.micros < 0:
            raise InputError(f"negative money amount: {self.micros}")


@dataclass(frozen=True)
class Rule:
    """keyword -> bid, advertising a non-empty set of shop items."""

    keyword: Keyword
    cpc: Money
    items: frozenset[str]

    def __post_init__(self) -> None:
        if not self.items:
            raise InputError(f"rule for {self.keyword.text!r} has no items")
        if any(not item for item in self.items):
            raise InputError(f"rule for {self.keyword.text!r} has an empty item id")


@dataclass(frozen=True)
class Leaf:
    """Terminal node of a product tree, bidding every product that reaches it."""

    bid: Money


@dataclass(frozen=True)
class Split:
    """Partition of products by one attribute's values, plus an 'others' branch."""

    attribute: str
    branches: tuple[tuple[str, "ProductTree"], ...]
    others: "ProductTree"

    def __post_init__(self) -> None:
        values = [v for v, _ in self.branches]
        if len(values) != len(set(values)):
            raise InputError(f"duplicate branch values on attribute {self.attribute!r}")


ProductTree = Union[Leaf, Split]


class Priority(Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


# --- tags identify the intended role of campaigns and ad groups -----------

@dataclass(frozen=True)
class CatchAllTag:
    """Ad group meant to receive all unrecognized traffic."""


@dataclass(frozen=True)
class BrandTag:
    """Ad group dedicated to one reseller brand."""

    brand: Keyword


@dataclass(frozen=True)
class RuleTag:
    """Ad group dedicated to one bidding keyword."""

    keyword: Keyword


AdGroupTag = Union[CatchAllTag, BrandTag, RuleTag]


@dataclass(frozen=True)
class GeneralCampaignTag:
    """The single High-priority campaign."""

    priority: ClassVar[Priority] = Priority.HIGH


@dataclass(frozen=True)
class BrandCampaignTag:
    """The single Medium-priority campaign."""

    priority: ClassVar[Priority] = Priority.MEDIUM


@dataclass(frozen=True)
class GroupCampaignTag:
    """A Low-priority campaign owning keyword group ``index`` (1-based)."""

    index: int
    priority: ClassVar[Priority] = Priority.LOW


CampaignTag = Union[GeneralCampaignTag, BrandCampaignTag, GroupCampaignTag]


@dataclass(frozen=True)
class AdGroup:
    name: str
    tag: AdGroupTag
    negatives: frozenset[NegativeKeyword]
    tree: ProductTree


@dataclass(frozen=True)
class Campaign:
    """A campaign, in the tier its tag names (``priority``).  A group
    campaign also owns the ``erasers`` whose images cover its keyword
    ``group`` exactly; the other group campaigns block those erasers.  The
    group is read off the campaign's rule ad groups, one per keyword, and
    like any derived state it stays out of ``==``."""

    name: str
    tag: CampaignTag
    negatives: frozenset[NegativeKeyword]
    adgroups: tuple[AdGroup, ...]
    erasers: tuple[Eraser, ...] = ()

    def __post_init__(self) -> None:
        if not self.adgroups:
            raise InputError(f"campaign {self.name!r} has no ad groups")
        if self.erasers and not isinstance(self.tag, GroupCampaignTag):
            raise InputError(f"campaign {self.name!r} holds erasers but is not a group campaign")
        names = [g.name for g in self.adgroups]
        if len(names) != len(set(names)):
            raise InputError(f"campaign {self.name!r} repeats an ad group name")

    @property
    def priority(self) -> Priority:
        return self.tag.priority

    @cached_property
    def group(self) -> frozenset[Keyword]:
        """The keywords of the campaign's rule ad groups."""
        return frozenset(g.tag.keyword for g in self.adgroups if type(g.tag) is RuleTag)


@dataclass(frozen=True)
class Account:
    """A full account: the brand lists and the campaigns.

    ``limit`` is the cap on every negative list, campaign or ad group.  The
    campaigns are one High-tier campaign, at most one Medium-tier one and
    the group campaigns, all in the Low tier, as their tags say.
    ``partition`` and ``erasers`` are read-only views, taken once per
    account: each group campaign's ``group`` (the keywords of its rule ad
    groups) and ``erasers``, in campaign storage order.  ``keywords()``,
    ``admission_index``, ``subset_images`` and ``cover_ranking`` are derived
    state of the same kind; like them they stay out of ``==``.  An update
    makes its account with ``successor``, which hands on what still holds.
    """

    limit: int
    brands: tuple[Keyword, ...]
    non_brands: tuple[Keyword, ...]
    campaigns: tuple[Campaign, ...]

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise InputError("limit must be positive")
        names = [c.name for c in self.campaigns]
        if len(names) != len(set(names)):
            raise InputError("account repeats a campaign name")
        tiers = [c.priority for c in self.campaigns]
        if tiers.count(Priority.HIGH) != 1:
            raise InputError("account needs exactly one High-tier campaign")
        if tiers.count(Priority.MEDIUM) > 1:
            raise InputError("account allows at most one Medium-tier campaign")

    # --- convenience accessors -------------------------------------------

    @cached_property
    def partition(self) -> tuple[frozenset[Keyword], ...]:
        return tuple(c.group for c in self.group_campaigns())

    @cached_property
    def erasers(self) -> tuple[tuple[Eraser, ...], ...]:
        return tuple(c.erasers for c in self.group_campaigns())

    @cached_property
    @gc_paused
    def admission_index(self) -> NegativeIndex:
        """The group campaigns' own lists in one index, bit ``i`` for the
        ``i``-th group campaign: the campaigns that block a new keyword, and
        the Low tier's campaign index in a ``Simulator``.  Built on first
        read, with the collector paused (see ``_catalogue_filing``), unless
        ``successor`` derived it from the account before."""
        return NegativeIndex(*(c.negatives for c in self.group_campaigns()))

    @property
    def subset_images(self) -> Mapping[tuple[str, ...], frozenset[Keyword]]:
        """``erasers.all_subset_images`` of the catalogue: each sorted subset
        of up to ``MAX_WORDS`` distinct words of a keyword, with its image."""
        return self._subset_filing[0]

    @property
    def cover_ranking(self) -> Sequence[Ranked]:
        """``erasers.rank_subset_images`` of ``subset_images``: the images of
        two or more keywords in greedy order, the candidates a
        campaign-opening add walks for its cover."""
        return self._subset_filing[1]

    @cached_property
    def _subset_filing(
        self,
    ) -> tuple[Mapping[tuple[str, ...], frozenset[Keyword]], Sequence[Ranked]]:
        """``subset_images`` and ``cover_ranking``, built together on first
        read of either: a built or parsed account files and ranks its whole
        catalogue once.  An account made by ``successor`` is handed a base,
        the keywords, images and ranking of the nearest account before it
        that read them, and on first read refiles only the keywords that
        came or went since."""
        base = vars(self).pop("_images_base", None)
        if base is None:
            return _catalogue_filing(self.keywords())
        keywords, images, ranking = base
        return refile_subset_images(images, ranking, keywords, self.keywords())

    def successor(
        self,
        campaigns: Iterable[Campaign],
        list_edits: Iterable[tuple[str, NegativeKeyword, bool]] | None,
    ) -> Account:
        """This account with ``campaigns`` swapped in, handed the derived
        state that carries over.

        ``campaigns`` keep this account's group campaigns in their order,
        any new one after them, and ``list_edits`` are the ``(campaign name,
        negative, held)`` edits, in order, that take the campaigns' own
        lists from this account's to theirs.  When this account has built
        its ``admission_index``, the new account's is derived from it by
        those edits.  ``list_edits`` is None after a campaign is removed,
        which shifts the bits of the ones after it; the new account then
        builds its own index when it is first read.  The new account is also
        handed the base its ``subset_images`` and ``cover_ranking`` are
        refiled from: this account's keywords, images and ranking when it
        read them, else the base it was handed."""
        account = replace(self, campaigns=tuple(campaigns))
        mine, theirs = vars(self), vars(account)
        index = mine.get("admission_index")
        if index is not None and list_edits is not None:
            bits = {c.name: 1 << i for i, c in enumerate(account.group_campaigns())}
            edits = [(neg, bits[name], held) for name, neg, held in list_edits if name in bits]
            # Fill the cached_property's slot, so the account never builds it.
            theirs["admission_index"] = index.edited(edits)
        if "_subset_filing" in mine:
            theirs["_images_base"] = (self.keywords(), *mine["_subset_filing"])
        elif "_images_base" in mine:
            theirs["_images_base"] = mine["_images_base"]
        return account

    def keywords(self) -> frozenset[Keyword]:
        """All bidding keywords (the union of the partition)."""
        return self._keywords

    @cached_property
    def _keywords(self) -> frozenset[Keyword]:
        out: set[Keyword] = set()
        for group in self.partition:
            out.update(group)
        return frozenset(out)

    def general_campaign(self) -> Campaign:
        return next(c for c in self.campaigns if isinstance(c.tag, GeneralCampaignTag))

    def brand_campaign(self) -> Campaign | None:
        for c in self.campaigns:
            if isinstance(c.tag, BrandCampaignTag):
                return c
        return None

    def group_campaigns(self) -> tuple[Campaign, ...]:
        return tuple(
            c for c in self.campaigns if isinstance(c.tag, GroupCampaignTag)
        )

    def group_of(self, keyword: Keyword) -> int:
        """Position (0-based) in ``partition`` of the group holding ``keyword``."""
        for pos, group in enumerate(self.partition):
            if keyword in group:
                return pos
        raise UnknownKeywordError(f"keyword not in account: {keyword.text!r}")

    # --- the negative limit ----------------------------------------------

    def over_limit(self, lists: Lists | None = None) -> dict[str, int]:
        """The size of every negative list over ``limit``, or of only those
        ``lists`` names, keyed by where it sits: campaign by campaign, each
        campaign's own list first."""
        over: dict[str, int] = {}
        for c in self.campaigns:
            own, adgroups = True, c.adgroups
            if lists is not None:
                if c.name not in lists:
                    continue
                names = lists[c.name]
                own = None in names
                # A campaign named only for its own list skips its ad groups.
                adgroups = [g for g in adgroups if g.name in names] if len(names) > own else ()
            if own and len(c.negatives) > self.limit:
                over[f"campaign {c.name}"] = len(c.negatives)
            for g in adgroups:
                if len(g.negatives) > self.limit:
                    over[f"ad group {g.name!r} of campaign {c.name}"] = len(g.negatives)
        return over

    def limit_message(self, where: str, count: int) -> str:
        """The one text for a list over the limit, in errors and findings."""
        return f"{where} holds {count} negatives, over the limit of {self.limit}"

    def check_limit(self, lists: Lists | None = None) -> None:
        """Raise LimitExceededError at the first list over ``limit``, in
        ``over_limit`` order, among every list or only those ``lists`` names.
        An update names the lists its change log makes longer or adds, so it
        may still shrink an account already over its cap."""
        for where, count in self.over_limit(lists).items():
            raise LimitExceededError(self.limit_message(where, count))


@gc_paused
def _catalogue_filing(
    keywords: frozenset[Keyword],
) -> tuple[Mapping[tuple[str, ...], frozenset[Keyword]], Sequence[Ranked]]:
    """``all_subset_images`` of a whole catalogue and its ranking.

    This and a from-scratch ``Account.admission_index`` run with the
    collector paused.  Each makes tens of thousands of containers at
    n=10000, and with the collector on they set off collections that walk
    the whole account, about 1.5M negative references, and free nothing.
    Pausing only one of the two moves those collections into the other.
    The per-update derivations stay as they are."""
    images = all_subset_images(keywords)
    return images, rank_subset_images(images)


def negative_count(account: Account) -> int:
    """Literal number of negatives stored account-wide (campaign + ad group)."""
    total = 0
    for c in account.campaigns:
        total += len(c.negatives)
        for g in c.adgroups:
            total += len(g.negatives)
    return total
