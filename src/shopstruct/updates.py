"""Incremental account maintenance: add or remove rules without a rebuild.

Every operation returns the new account together with a change log whose
replay over the old account reproduces the new one exactly, so callers can
ship the log as a batch of mutations instead of re-uploading the account.

Group bookkeeping convention: ``account.partition[pos]`` belongs to the
``pos``-th Low-priority campaign in campaign storage order.  Campaign tag
indices are stable identifiers and never renumbered, so removing a middle
group shifts positions but renames nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .account import (
    Account,
    AdGroup,
    Campaign,
    GroupCampaignTag,
    Leaf,
    Priority,
    Rule,
    RuleTag,
)
from .builder import (
    _check_limit,
    _check_routable,
    group_campaign_name,
    group_campaign_negatives,
)
from .erasers import (
    Eraser,
    ExactEraser,
    LargeEraser,
    eraser_image,
    reduce_keywords,
)
from .errors import DuplicateKeywordError, InputError
from .keywords import Keyword, NegativeKeyword, blocks, exact, phrase


# --- change log ----------------------------------------------------------


@dataclass(frozen=True)
class Change:
    """One account mutation.  ``op`` selects which optional fields apply.

    ``group`` is a 0-based partition position.  Bulk ops (``set_*``) replace a
    whole field; the granular ops add or remove one element.
    """

    op: str
    campaign: str | None = None
    adgroup: str | None = None
    negative: NegativeKeyword | None = None
    keyword: Keyword | None = None
    group: int | None = None
    eraser: Eraser | None = None
    erasers: tuple[Eraser, ...] | None = None
    negatives: frozenset[NegativeKeyword] | None = None
    keywords: frozenset[Keyword] | None = None
    new_campaign: Campaign | None = None
    new_adgroup: AdGroup | None = None


def describe(change: Change) -> str:
    """One human-readable line per change, for logs and the command line."""
    c = change
    if c.op == "add_campaign":
        return f"add campaign {c.new_campaign.name}"
    if c.op == "remove_campaign":
        return f"remove campaign {c.campaign}"
    if c.op == "add_adgroup":
        return f"add ad group {c.new_adgroup.name!r} to campaign {c.campaign}"
    if c.op == "remove_adgroup":
        return f"remove ad group {c.adgroup!r} from campaign {c.campaign}"
    if c.op == "add_campaign_negative":
        return f"add negative {c.negative.describe()} to campaign {c.campaign}"
    if c.op == "remove_campaign_negative":
        return f"remove negative {c.negative.describe()} from campaign {c.campaign}"
    if c.op == "add_adgroup_negative":
        return (
            f"add negative {c.negative.describe()} to ad group {c.adgroup!r}"
            f" of campaign {c.campaign}"
        )
    if c.op == "remove_adgroup_negative":
        return (
            f"remove negative {c.negative.describe()} from ad group {c.adgroup!r}"
            f" of campaign {c.campaign}"
        )
    if c.op == "set_campaign_negatives":
        return f"replace the negatives of campaign {c.campaign} ({len(c.negatives)})"
    if c.op == "assign_keyword":
        return f"assign keyword {c.keyword.text!r} to group {c.group + 1}"
    if c.op == "unassign_keyword":
        return f"unassign keyword {c.keyword.text!r} from group {c.group + 1}"
    if c.op == "add_group":
        return f"add keyword group of {len(c.keywords)}"
    if c.op == "remove_group":
        return f"remove keyword group {c.group + 1}"
    if c.op == "add_eraser":
        return f"record eraser {c.eraser.to_negative().describe()} for group {c.group + 1}"
    if c.op == "remove_eraser":
        return f"drop eraser {c.eraser.to_negative().describe()} from group {c.group + 1}"
    if c.op == "set_group_erasers":
        return f"replace the erasers of group {c.group + 1} ({len(c.erasers)})"
    raise InputError(f"unknown change op: {c.op!r}")


def _with_campaign(account: Account, name: str, campaign: Campaign) -> Account:
    out = tuple(campaign if c.name == name else c for c in account.campaigns)
    if all(c.name != name for c in account.campaigns):
        raise InputError(f"no campaign named {name!r}")
    return replace(account, campaigns=out)


def _find_campaign(account: Account, name: str) -> Campaign:
    for c in account.campaigns:
        if c.name == name:
            return c
    raise InputError(f"no campaign named {name!r}")


def _with_adgroup(campaign: Campaign, name: str, adgroup: AdGroup) -> Campaign:
    if all(g.name != name for g in campaign.adgroups):
        raise InputError(f"no ad group named {name!r} in campaign {campaign.name}")
    groups = tuple(adgroup if g.name == name else g for g in campaign.adgroups)
    return replace(campaign, adgroups=groups)


def apply_change(account: Account, change: Change) -> Account:
    """Apply one change; raises InputError when the target does not exist."""
    c = change
    if c.op == "add_campaign":
        return replace(account, campaigns=account.campaigns + (c.new_campaign,))
    if c.op == "remove_campaign":
        _find_campaign(account, c.campaign)
        return replace(
            account,
            campaigns=tuple(x for x in account.campaigns if x.name != c.campaign),
        )
    if c.op == "add_adgroup":
        camp = _find_campaign(account, c.campaign)
        camp = replace(camp, adgroups=camp.adgroups + (c.new_adgroup,))
        return _with_campaign(account, c.campaign, camp)
    if c.op == "remove_adgroup":
        camp = _find_campaign(account, c.campaign)
        if all(g.name != c.adgroup for g in camp.adgroups):
            raise InputError(f"no ad group named {c.adgroup!r} in {c.campaign}")
        camp = replace(
            camp, adgroups=tuple(g for g in camp.adgroups if g.name != c.adgroup)
        )
        return _with_campaign(account, c.campaign, camp)
    if c.op == "add_campaign_negative":
        camp = _find_campaign(account, c.campaign)
        camp = replace(camp, negatives=camp.negatives | {c.negative})
        return _with_campaign(account, c.campaign, camp)
    if c.op == "remove_campaign_negative":
        camp = _find_campaign(account, c.campaign)
        camp = replace(camp, negatives=camp.negatives - {c.negative})
        return _with_campaign(account, c.campaign, camp)
    if c.op == "add_adgroup_negative":
        camp = _find_campaign(account, c.campaign)
        for g in camp.adgroups:
            if g.name == c.adgroup:
                new = replace(g, negatives=g.negatives | {c.negative})
                return _with_campaign(account, c.campaign, _with_adgroup(camp, g.name, new))
        raise InputError(f"no ad group named {c.adgroup!r} in {c.campaign}")
    if c.op == "remove_adgroup_negative":
        camp = _find_campaign(account, c.campaign)
        for g in camp.adgroups:
            if g.name == c.adgroup:
                new = replace(g, negatives=g.negatives - {c.negative})
                return _with_campaign(account, c.campaign, _with_adgroup(camp, g.name, new))
        raise InputError(f"no ad group named {c.adgroup!r} in {c.campaign}")
    if c.op == "set_campaign_negatives":
        camp = _find_campaign(account, c.campaign)
        camp = replace(camp, negatives=c.negatives)
        return _with_campaign(account, c.campaign, camp)
    if c.op == "assign_keyword":
        groups = list(account.partition)
        groups[c.group] = groups[c.group] | {c.keyword}
        return replace(account, partition=tuple(groups))
    if c.op == "unassign_keyword":
        groups = list(account.partition)
        groups[c.group] = groups[c.group] - {c.keyword}
        return replace(account, partition=tuple(groups))
    if c.op == "add_group":
        return replace(
            account,
            partition=account.partition + (c.keywords,),
            erasers=account.erasers + (c.erasers,),
        )
    if c.op == "remove_group":
        groups = list(account.partition)
        erasers = list(account.erasers)
        del groups[c.group]
        del erasers[c.group]
        return replace(account, partition=tuple(groups), erasers=tuple(erasers))
    if c.op == "add_eraser":
        erasers = list(account.erasers)
        erasers[c.group] = erasers[c.group] + (c.eraser,)
        return replace(account, erasers=tuple(erasers))
    if c.op == "remove_eraser":
        erasers = list(account.erasers)
        current = list(erasers[c.group])
        if c.eraser not in current:
            raise InputError(f"group {c.group + 1} has no such eraser")
        current.remove(c.eraser)
        erasers[c.group] = tuple(current)
        return replace(account, erasers=tuple(erasers))
    if c.op == "set_group_erasers":
        erasers = list(account.erasers)
        erasers[c.group] = c.erasers
        return replace(account, erasers=tuple(erasers))
    raise InputError(f"unknown change op: {c.op!r}")


def apply_changes(account: Account, changes: Iterable[Change]) -> Account:
    for change in changes:
        account = apply_change(account, change)
    return account


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


def check_balance(account: Account, *, factor: float = 2.0) -> BalanceReport:
    """Recommend a rebuild when group count or the biggest group passes
    ``factor * sqrt(n)``; balanced shapes keep both near sqrt(n)."""
    n = sum(len(g) for g in account.partition)
    group_count = len(account.partition)
    max_size = max((len(g) for g in account.partition), default=0)
    threshold = factor * math.sqrt(n) if n else float(factor)
    reasons = []
    if group_count > threshold:
        reasons.append(
            f"{group_count} groups exceed {threshold:.1f} (factor {factor} of sqrt({n}))"
        )
    if max_size > threshold:
        reasons.append(
            f"largest group has {max_size} keywords, over {threshold:.1f}"
            f" (factor {factor} of sqrt({n}))"
        )
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


def _log_campaign_negative(
    changes: list[Change], campaign: Campaign, negative: NegativeKeyword, add: bool
) -> None:
    op = "add_campaign_negative" if add else "remove_campaign_negative"
    changes.append(Change(op=op, campaign=campaign.name, negative=negative))


# --- add_rule ------------------------------------------------------------


def add_rule(
    account: Account, rule: Rule, *, strategy: str = "new-campaign"
) -> UpdateOutcome:
    """Add one rule.

    When some Low-priority campaign already admits the keyword, the smallest
    admitting group takes it: the keyword becomes a new ad group there, its
    exact negative goes to that campaign's sibling ad groups and to every
    other campaign.  When every campaign blocks it, a fresh campaign is opened
    (``strategy="new-campaign"``), or with ``strategy="min-negatives"`` every
    group placement is costed by recomputing eraser covers and the cheapest
    account wins.
    """
    if strategy not in ("new-campaign", "min-negatives"):
        raise InputError(f"unknown add strategy: {strategy!r}")
    kw = rule.keyword
    if kw in account.keywords():
        raise DuplicateKeywordError(f"keyword already has a rule: {kw.text!r}")
    _check_routable([kw], account.non_brands)

    group_camps = account.group_campaigns()
    if len(group_camps) != len(account.partition):
        raise InputError("group campaigns and partition are out of step")
    changes: list[Change] = []

    general = account.general_campaign()
    _check_limit(account.limit, f"campaign {general.name}", len(general.negatives) + 1)
    _log_campaign_negative(changes, general, exact(kw), add=True)
    brand_camp = account.brand_campaign()
    if brand_camp is not None:
        _check_limit(
            account.limit, f"campaign {brand_camp.name}", len(brand_camp.negatives) + 1
        )
        _log_campaign_negative(changes, brand_camp, exact(kw), add=True)

    admitting = [
        pos for pos, camp in enumerate(group_camps) if not blocks(camp.negatives, kw)
    ]
    if admitting:
        pos = min(admitting, key=lambda p: (len(account.partition[p]), p))
        chosen = group_camps[pos]
        members = account.partition[pos]
        for other_pos, camp in enumerate(group_camps):
            if other_pos == pos:
                continue
            _check_limit(
                account.limit, f"campaign {camp.name}", len(camp.negatives) + 1
            )
            _log_campaign_negative(changes, camp, exact(kw), add=True)
        for adgroup in chosen.adgroups:
            _check_limit(
                account.limit,
                f"ad group {adgroup.name!r}",
                len(adgroup.negatives) + 1,
            )
            changes.append(
                Change(
                    op="add_adgroup_negative",
                    campaign=chosen.name,
                    adgroup=adgroup.name,
                    negative=exact(kw),
                )
            )
        siblings = frozenset(exact(other) for other in members)
        _check_limit(account.limit, f"ad group {kw.text!r}", len(siblings))
        changes.append(
            Change(
                op="add_adgroup",
                campaign=chosen.name,
                new_adgroup=AdGroup(
                    name=kw.text,
                    tag=RuleTag(kw),
                    negatives=siblings,
                    tree=Leaf(rule.cpc),
                ),
            )
        )
        changes.append(Change(op="assign_keyword", group=pos, keyword=kw))
        changes.append(Change(op="add_eraser", group=pos, eraser=ExactEraser(kw)))
    elif strategy == "new-campaign":
        changes.extend(_open_campaign_changes(account, rule))
    else:
        changes.extend(_min_negatives_changes(account, rule))

    new_account = apply_changes(account, changes)
    return UpdateOutcome(
        account=new_account,
        changes=tuple(changes),
        balance=check_balance(new_account),
    )


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
    negatives are a recomputed minimal cover of the existing catalogue."""
    kw = rule.keyword
    existing = account.keywords()
    cover = reduce_keywords(existing, existing | {kw})
    negs = frozenset(e.to_negative() for e in cover) | frozenset(
        phrase(b) for b in account.non_brands
    )
    _check_limit(account.limit, "new campaign", len(negs))
    index, name = _next_group_identity(account)
    campaign = Campaign(
        name=name,
        priority=Priority.LOW,
        tag=GroupCampaignTag(index),
        negatives=negs,
        adgroups=(
            AdGroup(
                name=kw.text,
                tag=RuleTag(kw),
                negatives=frozenset(),
                tree=Leaf(rule.cpc),
            ),
        ),
    )
    return [
        Change(op="add_group", keywords=frozenset({kw}), erasers=(ExactEraser(kw),)),
        Change(op="add_campaign", new_campaign=campaign),
    ]


def _min_negatives_changes(account: Account, rule: Rule) -> list[Change]:
    """Case: every group campaign blocks the keyword and the caller prefers
    re-covering groups over opening a campaign.  Each placement is costed by
    the literal negatives it leaves account-wide; the cheapest wins (tie: the
    lowest group).  Covers are taken against the grown catalogue, which is the
    same for every placement, and a group that does not take the keyword has
    the same cover wherever it goes, so each group's cover is computed once
    without and once with the keyword: 2k covers for k groups, not k²."""
    kw = rule.keyword
    group_camps = account.group_campaigns()
    if not group_camps:
        return _open_campaign_changes(account, rule)
    old_groups = account.partition
    k = len(old_groups)
    universe = account.keywords() | {kw}
    snb = frozenset(phrase(b) for b in account.non_brands)
    without = [reduce_keywords(group, universe) for group in old_groups]
    with_kw = [reduce_keywords(group | {kw}, universe) for group in old_groups]
    total = sum(len(e) for e in without)
    sibling_pairs = sum(len(g) * (len(g) - 1) for g in old_groups)

    def cost(t: int) -> int:
        erasers = total - len(without[t]) + len(with_kw[t])
        # The target group grows by one: (s + 1)s - s(s - 1) = 2s more
        # sibling exacts.
        adgroup_negs = sibling_pairs + 2 * len(old_groups[t])
        return erasers * (k - 1) + len(snb) * k + adgroup_negs

    target = min(range(k), key=lambda t: (cost(t), t))
    best_erasers = without[:target] + [with_kw[target]] + without[target + 1 :]

    changes: list[Change] = []
    for pos, erasers in enumerate(best_erasers):
        if erasers != account.erasers[pos]:
            changes.append(Change(op="set_group_erasers", group=pos, erasers=erasers))
    for camp, negs in zip(group_camps, group_campaign_negatives(best_erasers, snb)):
        if negs != camp.negatives:
            _check_limit(account.limit, f"campaign {camp.name}", len(negs))
            changes.append(
                Change(op="set_campaign_negatives", campaign=camp.name, negatives=negs)
            )
    chosen = group_camps[target]
    members = account.partition[target]
    for adgroup in chosen.adgroups:
        _check_limit(
            account.limit, f"ad group {adgroup.name!r}", len(adgroup.negatives) + 1
        )
        changes.append(
            Change(
                op="add_adgroup_negative",
                campaign=chosen.name,
                adgroup=adgroup.name,
                negative=exact(kw),
            )
        )
    siblings = frozenset(exact(other) for other in members)
    _check_limit(account.limit, f"ad group {kw.text!r}", len(siblings))
    changes.append(
        Change(
            op="add_adgroup",
            campaign=chosen.name,
            new_adgroup=AdGroup(
                name=kw.text, tag=RuleTag(kw), negatives=siblings, tree=Leaf(rule.cpc)
            ),
        )
    )
    changes.append(Change(op="assign_keyword", group=target, keyword=kw))
    return changes


# --- remove_rule ---------------------------------------------------------


def remove_rule(account: Account, keyword: Keyword) -> UpdateOutcome:
    """Remove the rule for ``keyword``: its ad group goes away, every negative
    that existed only on its behalf goes away, and a group left empty takes
    its campaign down with it."""
    pos = account.group_of(keyword)
    group_camps = account.group_campaigns()
    if len(group_camps) != len(account.partition):
        raise InputError("group campaigns and partition are out of step")
    own = group_camps[pos]
    members = account.partition[pos]
    remaining_global = account.keywords() - {keyword}

    changes: list[Change] = []

    def drop_if_present(campaign: Campaign, negative: NegativeKeyword) -> None:
        if negative in campaign.negatives:
            _log_campaign_negative(changes, campaign, negative, add=False)

    drop_if_present(account.general_campaign(), exact(keyword))
    brand_camp = account.brand_campaign()
    if brand_camp is not None:
        drop_if_present(brand_camp, exact(keyword))
    for other_pos, camp in enumerate(group_camps):
        if other_pos != pos:
            drop_if_present(camp, exact(keyword))

    for eraser in account.erasers[pos]:
        if isinstance(eraser, ExactEraser):
            if eraser.keyword == keyword:
                changes.append(Change(op="remove_eraser", group=pos, eraser=eraser))
            continue
        if keyword in eraser_image(eraser, members) and not eraser_image(
            eraser, remaining_global
        ):
            changes.append(Change(op="remove_eraser", group=pos, eraser=eraser))
            negative = eraser.to_negative()
            for other_pos, camp in enumerate(group_camps):
                if other_pos != pos:
                    drop_if_present(camp, negative)

    survivors = members - {keyword}
    if survivors:
        for adgroup in own.adgroups:
            if adgroup.name == keyword.text:
                continue
            if exact(keyword) in adgroup.negatives:
                changes.append(
                    Change(
                        op="remove_adgroup_negative",
                        campaign=own.name,
                        adgroup=adgroup.name,
                        negative=exact(keyword),
                    )
                )
        changes.append(
            Change(op="remove_adgroup", campaign=own.name, adgroup=keyword.text)
        )
        changes.append(Change(op="unassign_keyword", group=pos, keyword=keyword))
    else:
        changes.append(Change(op="remove_campaign", campaign=own.name))
        changes.append(Change(op="remove_group", group=pos))

    new_account = apply_changes(account, changes)
    return UpdateOutcome(
        account=new_account,
        changes=tuple(changes),
        balance=check_balance(new_account),
    )


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
