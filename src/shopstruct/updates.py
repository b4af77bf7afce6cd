"""Incremental account maintenance: add or remove rules without a rebuild.

Every operation returns the new account together with a change log whose
replay over the old account reproduces the new one exactly, so callers can
ship the log as a batch of mutations instead of re-uploading the account.
An update refuses to lengthen a negative list past the account's limit, and
checks only the lists its log lengthens or adds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence, TypeVar

from .account import (
    Account,
    AdGroup,
    Campaign,
    GroupCampaignTag,
    Rule,
    RuleTag,
)
from .builder import (
    _check_routable,
    group_campaign_name,
    rule_adgroup,
)
from .erasers import Eraser, ExactEraser, cover_beside, erases, group_target
from .errors import DuplicateKeywordError, InputError
from .keywords import Keyword, NegativeKeyword, exact, phrase


# --- change log ----------------------------------------------------------

T = TypeVar("T", AdGroup, Campaign)


def _relisted(obj: T, **lists: object) -> T:
    """``obj``, an ``AdGroup`` or ``Campaign``, with the lists in ``lists``
    swapped in.  A list edit changes no name or tag, so the checks its
    constructor made still hold and are not run again, and a campaign's
    cached ``group`` comes along with its other fields."""
    new = object.__new__(type(obj))
    vars(new).update(vars(obj), **lists)
    return new


class _Draft:
    """A copy-on-write account that one batch of changes edits in place.

    Campaigns sit in an insertion-ordered dict by name and a change swaps in
    a new value only for what it touches, so untouched campaigns and ad
    groups keep their identity.  Edited negative lists wait in ``pending``
    and are folded into their campaign by ``_relisted`` when a change reads
    that campaign, or at ``freeze``, which builds the ``Account`` once.  An
    eraser edit is swapped in by ``_relisted`` at once; only ops that change
    a campaign's ad groups go through its constructor and its checks.  Ad
    groups are found by name through a map per campaign, built on first use
    and dropped when its ad groups change.

    Every list a change lengthens or adds is named in ``grown``, in the
    shape ``Account.check_limit`` takes: each list an ``AddNegative`` gives
    a negative it lacked, each added ad group and each list of an added
    campaign.  An update's log only lengthens lists or only shortens them,
    so each named list is longer than in the parent account.

    Every edit of a campaign's own list is also kept, in order, in
    ``list_edits``, until a campaign is removed.  ``freeze`` hands them to
    ``Account.successor``, which carries the account's derived state over
    to the new one."""

    def __init__(self, account: Account) -> None:
        self.account = account
        self.campaigns = {c.name: c for c in account.campaigns}
        # campaign name -> {ad-group index, or None for its own list: list}
        self.pending: dict[str, dict[int | None, frozenset[NegativeKeyword]]] = {}
        # campaign name -> {ad-group name: index}
        self.positions: dict[str, dict[str, int]] = {}
        # campaign name -> {ad-group name, or None for its own list}
        self.grown: dict[str, set[str | None]] = {}
        # (campaign name, negative, held), or None once a campaign is removed
        self.list_edits: list[tuple[str, NegativeKeyword, bool]] | None = []

    def campaign(self, name: str) -> Campaign:
        """The campaign ``name`` with its pending lists folded in."""
        if name in self.pending:
            self._fold(name)
        return self._stored(name)

    def _stored(self, name: str) -> Campaign:
        if name not in self.campaigns:
            raise InputError(f"no campaign named {name!r}")
        return self.campaigns[name]

    def _fold(self, name: str) -> None:
        edits = self.pending.pop(name)
        camp = self.campaigns[name]
        negatives = edits.pop(None, camp.negatives)
        adgroups = camp.adgroups
        if edits:
            adgroups = tuple(
                _relisted(g, negatives=edits[i]) if i in edits else g
                for i, g in enumerate(adgroups)
            )
        self.campaigns[name] = _relisted(camp, negatives=negatives, adgroups=adgroups)

    def adgroup_index(self, campaign: Campaign, name: str) -> int:
        positions = self.positions.get(campaign.name)
        if positions is None:
            positions = {g.name: i for i, g in enumerate(campaign.adgroups)}
            self.positions[campaign.name] = positions
        if name not in positions:
            raise InputError(f"no ad group named {name!r} in {campaign.name}")
        return positions[name]

    def edit_negative(
        self, campaign: str, adgroup: str | None, negative: NegativeKeyword, held: bool
    ) -> None:
        """Add (``held``) or remove ``negative`` on the list of a campaign, or
        of one of its ad groups."""
        # Pending edits change lists only, so the stored ad groups are current.
        camp = self._stored(campaign)
        i = None if adgroup is None else self.adgroup_index(camp, adgroup)
        stored = camp.negatives if i is None else camp.adgroups[i].negatives
        edits = self.pending.setdefault(campaign, {})
        current = edits.get(i, stored)
        if held and negative not in current:
            self.grown.setdefault(campaign, set()).add(adgroup)
        edits[i] = current | {negative} if held else current - {negative}
        if i is None and self.list_edits is not None:
            self.list_edits.append((campaign, negative, held))

    def edit_eraser(self, campaign: str, eraser: Eraser, held: bool) -> None:
        """Append (``held``) or remove ``eraser`` on a group campaign's erasers."""
        camp = self.campaign(campaign)
        if not isinstance(camp.tag, GroupCampaignTag):
            raise InputError(f"campaign {campaign} is not a group campaign")
        erasers = list(camp.erasers)
        if held:
            erasers.append(eraser)
        elif eraser in erasers:
            erasers.remove(eraser)
        else:
            raise InputError(f"campaign {campaign} has no such eraser")
        self.campaigns[campaign] = _relisted(camp, erasers=tuple(erasers))

    def _restructure(self, campaign: Campaign) -> None:
        """Store ``campaign``, whose ad groups may not be the stored one's."""
        self.campaigns[campaign.name] = campaign
        self.positions.pop(campaign.name, None)

    def add_adgroup(self, campaign: str, adgroup: AdGroup) -> None:
        camp = self.campaign(campaign)
        self._restructure(replace(camp, adgroups=camp.adgroups + (adgroup,)))
        self.grown.setdefault(campaign, set()).add(adgroup.name)

    def remove_adgroup(self, campaign: str, adgroup: str) -> None:
        camp = self.campaign(campaign)
        i = self.adgroup_index(camp, adgroup)
        self._restructure(replace(camp, adgroups=camp.adgroups[:i] + camp.adgroups[i + 1 :]))

    def add_campaign(self, campaign: Campaign) -> None:
        if campaign.name in self.campaigns:
            raise InputError(f"account repeats campaign name {campaign.name!r}")
        self._restructure(campaign)
        self.grown[campaign.name] = {None, *(g.name for g in campaign.adgroups)}
        if self.list_edits is not None:
            self.list_edits += [(campaign.name, neg, True) for neg in campaign.negatives]

    def remove_campaign(self, name: str) -> None:
        self.campaign(name)
        del self.campaigns[name]
        self.list_edits = None

    def freeze(self) -> Account:
        for name in list(self.pending):
            self._fold(name)
        # Campaigns keep their place in the dict and a new one comes last.
        return self.account.successor(self.campaigns.values(), self.list_edits)


class Change:
    """One account mutation, a frozen dataclass per op kind.  ``describe()``
    gives its change-log line; ``apply(draft)`` performs it, raising
    InputError when its target is missing.  Eraser ops name the group
    campaign they edit."""


@dataclass(frozen=True)
class AddCampaign(Change):
    campaign: Campaign

    def describe(self) -> str:
        return f"add campaign {self.campaign.name}"

    def apply(self, draft: _Draft) -> None:
        draft.add_campaign(self.campaign)


@dataclass(frozen=True)
class RemoveCampaign(Change):
    campaign: str

    def describe(self) -> str:
        return f"remove campaign {self.campaign}"

    def apply(self, draft: _Draft) -> None:
        draft.remove_campaign(self.campaign)


@dataclass(frozen=True)
class AddAdGroup(Change):
    campaign: str
    adgroup: AdGroup

    def describe(self) -> str:
        return f"add ad group {self.adgroup.name!r} to campaign {self.campaign}"

    def apply(self, draft: _Draft) -> None:
        draft.add_adgroup(self.campaign, self.adgroup)


@dataclass(frozen=True)
class RemoveAdGroup(Change):
    campaign: str
    adgroup: str

    def describe(self) -> str:
        return f"remove ad group {self.adgroup!r} from campaign {self.campaign}"

    def apply(self, draft: _Draft) -> None:
        draft.remove_adgroup(self.campaign, self.adgroup)


@dataclass(frozen=True)
class _NegativeChange(Change):
    """One negative on a campaign, or on one of its ad groups."""

    campaign: str
    negative: NegativeKeyword
    adgroup: str | None = None

    def target(self) -> str:
        if self.adgroup is None:
            return f"campaign {self.campaign}"
        return f"ad group {self.adgroup!r} of campaign {self.campaign}"


@dataclass(frozen=True)
class AddNegative(_NegativeChange):
    def describe(self) -> str:
        return f"add negative {self.negative.describe()} to {self.target()}"

    def apply(self, draft: _Draft) -> None:
        draft.edit_negative(self.campaign, self.adgroup, self.negative, True)


@dataclass(frozen=True)
class RemoveNegative(_NegativeChange):
    def describe(self) -> str:
        return f"remove negative {self.negative.describe()} from {self.target()}"

    def apply(self, draft: _Draft) -> None:
        draft.edit_negative(self.campaign, self.adgroup, self.negative, False)


@dataclass(frozen=True)
class AddEraser(Change):
    campaign: str
    eraser: Eraser

    def describe(self) -> str:
        return (
            f"record eraser {self.eraser.to_negative().describe()}"
            f" for campaign {self.campaign}"
        )

    def apply(self, draft: _Draft) -> None:
        draft.edit_eraser(self.campaign, self.eraser, True)


@dataclass(frozen=True)
class RemoveEraser(Change):
    campaign: str
    eraser: Eraser

    def describe(self) -> str:
        return (
            f"drop eraser {self.eraser.to_negative().describe()}"
            f" from campaign {self.campaign}"
        )

    def apply(self, draft: _Draft) -> None:
        draft.edit_eraser(self.campaign, self.eraser, False)


def apply_changes(account: Account, changes: Iterable[Change]) -> Account:
    """Replay a change log over ``account`` and build the result once.

    Raises InputError at the first change whose target is missing, that
    repeats a campaign or ad group name, or that empties a campaign; the
    built account then checks its tiers."""
    return _replay(account, changes).freeze()


def _replay(account: Account, changes: Iterable[Change]) -> _Draft:
    draft = _Draft(account)
    for change in changes:
        change.apply(draft)
    return draft


# --- balance -------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """Whether group shapes have drifted far enough to warrant a rebuild."""

    keyword_count: int
    group_count: int
    max_group_size: int
    threshold: float
    recommended: bool
    reasons: tuple[str, ...]


BALANCE_FACTOR = 2.0


def check_balance(account: Account) -> BalanceReport:
    """Recommend a rebuild when group count or the biggest group passes
    ``BALANCE_FACTOR * group_target(n)``; balanced shapes keep both near
    the group target."""
    n = sum(len(g) for g in account.partition)
    group_count = len(account.partition)
    max_size = max((len(g) for g in account.partition), default=0)
    target = group_target(n)
    threshold = BALANCE_FACTOR * target
    why = f"factor {BALANCE_FACTOR} of the group target {target} for {n} keywords"
    reasons = []
    if group_count > threshold:
        reasons.append(f"{group_count} groups exceed {threshold:.1f} ({why})")
    if max_size > threshold:
        reasons.append(f"largest group has {max_size} keywords, over {threshold:.1f} ({why})")
    return BalanceReport(
        keyword_count=n,
        group_count=group_count,
        max_group_size=max_size,
        threshold=threshold,
        recommended=bool(reasons),
        reasons=tuple(reasons),
    )


# --- shared helpers ------------------------------------------------------


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of one maintenance operation."""

    account: Account
    changes: tuple[Change, ...]
    balance: BalanceReport
    rules: tuple[Rule, ...] | None = None


def _tier_campaigns(account: Account) -> list[Campaign]:
    """The High-tier campaign, then the Medium-tier one if there is one."""
    brand_camp = account.brand_campaign()
    return [account.general_campaign()] + ([brand_camp] if brand_camp is not None else [])


def _outcome(account: Account, changes: list[Change]) -> UpdateOutcome:
    """Apply ``changes``; raise LimitExceededError if they lengthen a list
    past the limit.  Only the lists the draft names as grown are checked."""
    draft = _replay(account, changes)
    new_account = draft.freeze()
    new_account.check_limit(draft.grown)
    return UpdateOutcome(new_account, tuple(changes), check_balance(new_account))


def _place_changes(chosen: Campaign, rule: Rule, neg: NegativeKeyword) -> list[Change]:
    """Put ``rule``'s keyword into group campaign ``chosen``: every sibling ad
    group blocks it by ``neg``, and its new ad group blocks the siblings."""
    siblings = frozenset(exact(other) for other in chosen.group)
    return [
        *(AddNegative(chosen.name, neg, adgroup.name) for adgroup in chosen.adgroups),
        AddAdGroup(chosen.name, rule_adgroup(rule, siblings)),
    ]


# --- add_rule ------------------------------------------------------------


def add_rule(account: Account, rule: Rule) -> UpdateOutcome:
    """Add one rule.

    When some Low-tier campaign already admits the keyword, the smallest
    admitting group takes it: the keyword becomes a new ad group there, its
    exact negative goes to that campaign's sibling ad groups, to the High
    and Medium campaigns and to every other group campaign that admits it.
    When every campaign blocks it, a fresh campaign is opened whose list is
    a recomputed cover of the existing catalogue.  Raises LimitExceededError
    when the rule would lengthen a negative list past the account's limit.
    """
    kw = rule.keyword
    if kw in account.keywords():
        raise DuplicateKeywordError(f"keyword already has a rule: {kw.text!r}")
    _check_routable([kw], account.non_brands)
    group_camps = account.group_campaigns()

    # The account's admission index gives the group campaigns whose lists
    # hold a negative that blocks the keyword (by value, so equal copies
    # agree); every other group campaign admits it.
    blocked = account.admission_index.blocked(kw)
    blocking = _tier_campaigns(account)
    admitting = [camp for i, camp in enumerate(group_camps) if not blocked >> i & 1]
    if admitting:
        # min keeps the first of equal sizes: the earliest campaign.
        chosen = min(admitting, key=lambda camp: len(camp.group))
        # A group campaign that blocks kw already needs no exact: remove_rule
        # keeps every negative that matches a catalogue keyword, kw included.
        blocking += [camp for camp in admitting if camp is not chosen]
    # One exact-negative object, shared by every list that gains it.
    neg = exact(kw)
    changes: list[Change] = [AddNegative(camp.name, neg) for camp in blocking]

    if admitting:
        changes += _place_changes(chosen, rule, neg)
        changes.append(AddEraser(chosen.name, ExactEraser(kw)))
    else:
        changes += _open_campaign_changes(account, rule)
    return _outcome(account, changes)


def _next_group_identity(account: Account) -> tuple[int, str]:
    used_names = {c.name for c in account.campaigns}
    index = max(
        (c.tag.index for c in account.campaigns if isinstance(c.tag, GroupCampaignTag)),
        default=0,
    ) + 1
    while group_campaign_name(index) in used_names:
        index += 1
    return index, group_campaign_name(index)


def _open_campaign_changes(account: Account, rule: Rule) -> list[Change]:
    """Case: every group campaign blocks the keyword; open a fresh one whose
    negatives are a recomputed minimal cover of the existing catalogue,
    ``reduce_keywords(existing, existing | {kw})`` read off the account's
    ranked subset images."""
    kw = rule.keyword
    cover = cover_beside(account.cover_ranking, account.keywords(), kw)
    negs = frozenset(
        [e.to_negative() for e in cover] + [phrase(b) for b in account.non_brands]
    )
    index, name = _next_group_identity(account)
    campaign = Campaign(
        name=name,
        tag=GroupCampaignTag(index),
        negatives=negs,
        adgroups=(rule_adgroup(rule, frozenset()),),
        erasers=(ExactEraser(kw),),
    )
    return [AddCampaign(campaign)]


# --- remove_rule ---------------------------------------------------------


def remove_rule(account: Account, keyword: Keyword) -> UpdateOutcome:
    """Remove the rule for ``keyword``: its ad group goes away, every negative
    that existed only on its behalf goes away, and a group left empty takes
    its campaign down with it."""
    group_camps = account.group_campaigns()
    own = group_camps[account.group_of(keyword)]
    remaining_global = account.keywords() - {keyword}

    changes: list[Change] = []

    def drop_if_present(campaign: Campaign, negative: NegativeKeyword) -> None:
        if negative in campaign.negatives:
            changes.append(RemoveNegative(campaign.name, negative))

    gone = exact(keyword)
    others = [camp for camp in group_camps if camp is not own]
    for camp in _tier_campaigns(account) + others:
        drop_if_present(camp, gone)

    for eraser in own.erasers:
        if isinstance(eraser, ExactEraser):
            if eraser.keyword == keyword:
                changes.append(RemoveEraser(own.name, eraser))
            continue
        if erases(eraser, keyword) and not any(
            erases(eraser, kw) for kw in remaining_global
        ):
            changes.append(RemoveEraser(own.name, eraser))
            for camp in others:
                drop_if_present(camp, eraser.to_negative())

    if own.group - {keyword}:
        own_adgroup = next((g for g in own.adgroups if g.tag == RuleTag(keyword)), None)
        if own_adgroup is None:
            raise InputError(f"no ad group for {keyword.text!r} in {own.name}")
        for adgroup in own.adgroups:
            if adgroup is not own_adgroup and gone in adgroup.negatives:
                changes.append(RemoveNegative(own.name, gone, adgroup.name))
        changes.append(RemoveAdGroup(own.name, own_adgroup.name))
    else:
        changes.append(RemoveCampaign(own.name))
    return _outcome(account, changes)


# --- remove_item ---------------------------------------------------------


def remove_item(
    account: Account, rules: Sequence[Rule], item: str
) -> UpdateOutcome:
    """Retire a shop item.  Rules advertising only that item are removed
    outright; other rules just shrink.  Unknown items are a no-op."""
    doomed: list[Keyword] = []
    new_rules: list[Rule] = []
    for r in rules:
        if item not in r.items:
            new_rules.append(r)
        elif r.items == frozenset({item}):
            doomed.append(r.keyword)
        else:
            new_rules.append(replace(r, items=r.items - {item}))

    changes: list[Change] = []
    current = account
    for kw in doomed:
        outcome = remove_rule(current, kw)
        changes.extend(outcome.changes)
        current = outcome.account
    return UpdateOutcome(
        account=current,
        changes=tuple(changes),
        balance=check_balance(current),
        rules=tuple(new_rules),
    )
