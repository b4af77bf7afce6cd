from __future__ import annotations

import functools
import importlib
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from shopstruct import (
    BuildConfig,
    DuplicateKeywordError,
    ExactEraser,
    GroupCampaignTag,
    InputError,
    LargeEraser,
    LimitExceededError,
    Keyword,
    Money,
    NegativeIndex,
    NegativeKeyword,
    Rule,
    RuleTag,
    Simulator,
    SyntheticSpec,
    UnknownKeywordError,
    account_document,
    add_rule,
    apply_changes,
    build_account,
    check_balance,
    exact,
    generate,
    large,
    normalize,
    phrase,
    reduce_keywords,
    remove_item,
    remove_rule,
    parse_account,
    render_account,
    verify_account,
)
from shopstruct.erasers import all_subset_images, group_target, rank_subset_images
from shopstruct.keywords import matches
from shopstruct.updates import (
    AddAdGroup,
    AddCampaign,
    AddEraser,
    AddNegative,
    RemoveAdGroup,
    RemoveCampaign,
    RemoveEraser,
    RemoveNegative,
    _outcome,
)
import oracles
from conftest import (
    GOLDEN_BRANDS,
    GOLDEN_NON_BRANDS,
    LIMIT_CATALOGUES,
    assert_every_list_is_cut,
    assert_parses_as_a_whole,
    assert_same_text,
    index_postings,
    make_golden_rules,
)
from pins import pin, sha256


def _op(change) -> str:
    """The op kind: the class name, with negatives on an ad group counted
    apart from negatives on a campaign."""
    name = type(change).__name__
    if isinstance(change, (AddNegative, RemoveNegative)) and change.adgroup is not None:
        return f"{name} (ad group)"
    return name


def _ops(outcome) -> Counter:
    return Counter(_op(c) for c in outcome.changes)


def _assert_replay(before, outcome):
    assert apply_changes(before, outcome.changes) == outcome.account


def _assert_carries_its_index(outcome):
    """For an update of an account that had built its admission index: the
    new account carries one derived from it unless a campaign closed, and
    that index equals a fresh build over the new lists."""
    account = outcome.account
    derived = vars(account).get("admission_index")
    closed = any(isinstance(c, RemoveCampaign) for c in outcome.changes)
    assert (derived is None) == closed
    if derived is not None:
        fresh = NegativeIndex(*(c.negatives for c in account.group_campaigns()))
        assert index_postings(derived) == index_postings(fresh)


def _assert_carries_its_images(before, outcome):
    """An update reads at most its own account's subset images and their
    ranking, never the new account's; whenever either account has read
    them, the images equal a fresh filing of its keywords and the ranking a
    fresh ranking of those images."""
    assert "_subset_filing" not in vars(outcome.account)
    for account in (before, outcome.account):
        filing = vars(account).get("_subset_filing")
        if filing is not None:
            images, ranking = filing
            assert images == all_subset_images(account.keywords())
            assert ranking == rank_subset_images(images)


def _assert_opens_the_reduced_cover(before, changes):
    """A campaign-opening add's list is ``reduce_keywords`` of the catalogue
    against the catalogue and the new keyword, plus the blocked-brand
    phrases."""
    [opened] = [c.campaign for c in changes if isinstance(c, AddCampaign)]
    [kw] = opened.group
    existing = before.keywords()
    cover = reduce_keywords(existing, existing | {kw})
    blocked = {phrase(b) for b in before.non_brands}
    assert opened.negatives == {e.to_negative() for e in cover} | blocked


def test_add_rule_holding_a_blocked_brand_rejected(golden_account):
    rule = Rule(normalize("cheap reebok runners"), Money(1), frozenset({"item-20"}))
    with pytest.raises(InputError, match="'cheap reebok runners'.*'reebok'"):
        add_rule(golden_account, rule)


def test_add_rule_into_admitting_group(golden_account):
    rule = Rule(normalize("nike jogging"), Money(77_000), frozenset({"item-20"}))
    out = add_rule(golden_account, rule)
    _assert_replay(golden_account, out)

    assert len(out.changes) == 8
    assert _ops(out) == Counter(
        {
            "AddNegative": 2,
            "AddNegative (ad group)": 4,
            "AddAdGroup": 1,
            "AddEraser": 1,
        }
    )

    acc = out.account
    # exact negative lands on the general and brand campaigns; both other
    # group campaigns block the keyword by their large negative "nike" already
    for name in ("c1", "c2"):
        camp = next(c for c in acc.campaigns if c.name == name)
        assert exact(rule.keyword) in camp.negatives
    for name in ("c3_2", "c3_3"):
        camp = next(c for c in acc.campaigns if c.name == name)
        assert camp.negatives == next(
            c for c in golden_account.campaigns if c.name == name
        ).negatives
        assert large(normalize("nike")) in camp.negatives

    # the keyword joined group 1 with a fresh ad group and sibling blocking
    assert acc.group_of(rule.keyword) == 0
    own = acc.group_campaigns()[0]
    assert exact(rule.keyword) not in own.negatives
    new_adgroup = next(g for g in own.adgroups if g.name == "nike jogging")
    assert len(new_adgroup.negatives) == 4
    for sibling in own.adgroups:
        if sibling.name != "nike jogging":
            assert exact(rule.keyword) in sibling.negatives
    assert ExactEraser(rule.keyword) in acc.erasers[0]
    assert new_adgroup.tree.bid == rule.cpc

    result = Simulator(acc).run(rule.keyword)
    assert result.disposition.kind == "landed"
    assert result.disposition.adgroup == "nike jogging"


def test_admitted_add_shares_one_exact_negative_object(golden_account):
    rule = Rule(normalize("nike jogging"), Money(77_000), frozenset({"item-20"}))
    out = add_rule(golden_account, rule)
    neg = exact(rule.keyword)
    lists = [c.negatives for c in out.account.campaigns]
    lists += [g.negatives for c in out.account.campaigns for g in c.adgroups]
    held = [next(n for n in negs if n == neg) for negs in lists if neg in negs]
    added = [c.negative for c in out.changes if isinstance(c, AddNegative)]
    # c1 and c2, plus group 1's four sibling ad groups.
    assert len(held) == len(added) == 6
    assert all(n is added[0] for n in held + added)


def test_list_edits_carry_each_group_campaigns_group(golden_account):
    # Every group campaign admits "running socks", so its add edits every
    # other group campaign's own list, and every one is rebuilt; each that
    # kept its ad groups carries the group its parent read instead of
    # reading it off its ad groups again.
    before = {c.name: c for c in golden_account.group_campaigns()}
    rule = Rule(normalize("running socks"), Money(77_000), frozenset({"item-20"}))
    grown = add_rule(golden_account, rule).account
    camps = grown.group_campaigns()
    chosen = camps[grown.group_of(rule.keyword)]
    assert chosen.group == before[chosen.name].group | {rule.keyword}
    for camp in camps:
        if camp is not chosen:
            assert camp is not before[camp.name]
            assert vars(camp)["group"] is vars(before[camp.name])["group"]
    # Removing the keyword again edits the same lists back; every group,
    # carried or read afresh, is its campaign's rule-tagged keywords.
    trimmed = remove_rule(grown, rule.keyword).account
    for camp in trimmed.group_campaigns():
        assert camp.group == {g.tag.keyword for g in camp.adgroups if isinstance(g.tag, RuleTag)}
        assert camp.group == before[camp.name].group
    assert trimmed == golden_account


def test_a_list_edit_keeps_every_other_field_and_the_cached_group(golden_account):
    camp = golden_account.group_campaigns()[0]
    camp.group  # read, so the campaign holds it
    first, second = camp.adgroups[:2]
    x = exact(normalize("x"))
    after = apply_changes(
        golden_account, [AddNegative(camp.name, x), AddNegative(camp.name, x, second.name)]
    )
    new = next(c for c in after.campaigns if c.name == camp.name)
    edited = new.adgroups[1]
    assert new.negatives == camp.negatives | {x}
    assert edited.negatives == second.negatives | {x}
    assert all(getattr(new, f) is getattr(camp, f) for f in ("name", "priority", "tag", "erasers"))
    assert all(getattr(edited, f) is getattr(second, f) for f in ("name", "tag", "tree"))
    assert vars(new)["group"] is vars(camp)["group"]
    assert new.adgroups[0] is first
    assert all(a is b for a, b in zip(new.adgroups[2:], camp.adgroups[2:], strict=True))
    # An eraser edit swaps in the erasers alone, the same way.
    eraser = ExactEraser(normalize("x"))
    after = apply_changes(golden_account, [AddEraser(camp.name, eraser)])
    new = next(c for c in after.campaigns if c.name == camp.name)
    assert new.erasers == camp.erasers + (eraser,)
    fields = ("name", "priority", "tag", "negatives", "adgroups")
    assert all(getattr(new, f) is getattr(camp, f) for f in fields)
    assert vars(new)["group"] is vars(camp)["group"]


def test_an_added_campaigns_ad_group_lists_count_as_lengthened(golden_account):
    # An update's own campaigns open with empty ad-group lists; a log may add
    # a campaign whose ad groups hold negatives, and those lists are checked.
    model = golden_account.group_campaigns()[0]
    fresh = replace(model, name="c9", tag=GroupCampaignTag(9), negatives=frozenset())
    size = max(len(g.negatives) for g in fresh.adgroups)
    longest = next(g for g in fresh.adgroups if len(g.negatives) == size)
    account = replace(golden_account, limit=size - 1)
    with pytest.raises(LimitExceededError) as err:
        _outcome(account, [AddCampaign(fresh)])
    assert str(err.value) == account.limit_message(f"ad group {longest.name!r} of campaign c9", size)


def test_add_rule_opens_new_campaign_when_blocked_everywhere(golden_account):
    rule = Rule(normalize("nike large shoes"), Money(90_000), frozenset({"item-21"}))
    out = add_rule(golden_account, rule)
    _assert_replay(golden_account, out)

    assert len(out.changes) == 3
    assert _ops(out) == Counter({"AddNegative": 2, "AddCampaign": 1})

    acc = out.account
    fresh = acc.group_campaigns()[3]
    assert fresh.name == "c3_4"
    assert fresh.negatives == frozenset(
        {
            large(normalize("adidas")),
            large(normalize("air")),
            large(normalize("soccer")),
            exact(normalize("garmin chronometer")),
            exact(normalize("large superstar shoes")),
            exact(normalize("large tee-shirt")),
            exact(normalize("nike shoes")),
            phrase(normalize("reebok")),
        }
    )
    assert fresh.group == frozenset({rule.keyword})
    assert fresh.erasers == (ExactEraser(rule.keyword),)

    # every catalogue keyword still routes to its own ad group
    sim = Simulator(acc)
    for kw in sorted(acc.keywords()):
        result = sim.run(kw)
        assert result.disposition.kind == "landed"
        assert result.disposition.adgroup == kw.text

    assert verify_account(acc).passed


def test_add_rule_rejects_duplicates(golden_account):
    dup = Rule(normalize("nike shoes"), Money(1_000), frozenset({"x"}))
    with pytest.raises(DuplicateKeywordError):
        add_rule(golden_account, dup)


def test_add_rule_prefers_smallest_admitting_group():
    rules = [
        Rule(normalize(t), Money(10_000 + i), frozenset({f"it-{i}"}))
        for i, t in enumerate(["a b", "c d", "e f", "g h"])
    ]
    account = build_account(
        rules, config=BuildConfig(mode="naive", target_size=3)
    )
    assert [len(g) for g in account.partition] == [3, 1]
    out = add_rule(
        account, Rule(normalize("zz yy"), Money(5_000), frozenset({"it-9"}))
    )
    assert out.account.group_of(normalize("zz yy")) == 1
    _assert_replay(account, out)


def test_add_rule_respects_the_limit(golden_rules, golden_brands, golden_non_brands):
    account = build_account(
        golden_rules, golden_brands, golden_non_brands, config=BuildConfig(limit=15)
    )
    with pytest.raises(LimitExceededError):
        add_rule(
            account, Rule(normalize("one more"), Money(1_000), frozenset({"i"}))
        )


def _limit_rule(account, path: str) -> Rule:
    """A rule that takes ``path`` through ``add_rule``.  Every group campaign
    admits two unknown words; the words of large erasers of two groups are
    blocked by both groups' erasers, so by every campaign."""
    if path == "admitted":
        return Rule(normalize("zzlimit yylimit"), Money(1_000), frozenset({"i"}))
    larges = [
        next(e for e in group if isinstance(e, LargeEraser))
        for group in account.erasers
        if any(isinstance(e, LargeEraser) for e in group)
    ]
    words = tuple(sorted(larges[0].words | larges[1].words)) + ("zzlimit",)
    return Rule(Keyword(words), Money(1_000), frozenset({"i"}))


@pytest.mark.parametrize("path", ["admitted", "new-campaign"])
@pytest.mark.parametrize("name", LIMIT_CATALOGUES)
def test_add_rule_refuses_to_lengthen_a_list_past_the_limit(unlimited_accounts, name, path):
    base = unlimited_accounts[name]
    rule = _limit_rule(base, path)
    grown = add_rule(base, rule)
    ops = _ops(grown)
    assert ("AddCampaign" in ops) == (path == "new-campaign")
    assert ("AddEraser" in ops) == (path == "admitted")
    before = oracles.list_sizes(base)
    after = oracles.list_sizes(grown.account)
    lengthened = {w: n for w, n in after.items() if n > before.get(w, 0)}
    # The largest list before (the account is within its limit), the largest
    # after (the update fits), and one below each lengthened list's new size,
    # most of them on an account already over its limit.
    limits = {max(before.values()), max(after.values())}
    limits |= {n - 1 for n in lengthened.values() if n > 1}
    for limit in sorted(limits):
        account = replace(base, limit=limit)
        over = [(w, n) for w, n in lengthened.items() if n > limit]
        if not over:
            out = add_rule(account, rule)
            assert out.account == replace(grown.account, limit=limit)
            assert out.changes == grown.changes
            continue
        where, count = over[0]
        with pytest.raises(LimitExceededError) as err:
            add_rule(account, rule)
        assert str(err.value) == f"{where} holds {count} negatives, over the limit of {limit}"
    assert max(after.values()) > max(before.values())


@pytest.mark.parametrize("name", LIMIT_CATALOGUES)
def test_removals_succeed_on_an_account_over_its_limit(
    limit_catalogues, unlimited_accounts, name
):
    # Removals lengthen no list, so they pass on an account already over
    # its limit; checking every list of the result would refuse them.
    base = unlimited_accounts[name]
    rules = limit_catalogues[name][0]
    over = replace(base, limit=1)
    assert over.over_limit()
    smallest = min(base.partition, key=len)
    for kw in (rules[0].keyword, min(smallest)):
        expected = remove_rule(base, kw)
        out = remove_rule(over, kw)
        assert out.account == replace(expected.account, limit=1)
        assert out.changes == expected.changes
    for item in sorted(rules[0].items | rules[-1].items):
        expected = remove_item(base, rules, item)
        out = remove_item(over, rules, item)
        assert out.account == replace(expected.account, limit=1)
        assert (out.changes, out.rules) == (expected.changes, expected.rules)


def test_remove_rule_walkthrough(golden_account):
    out = remove_rule(golden_account, normalize("air max"))
    _assert_replay(golden_account, out)

    assert len(out.changes) == 9
    assert _ops(out) == Counter(
        {
            "RemoveNegative": 4,
            "RemoveNegative (ad group)": 3,
            "RemoveAdGroup": 1,
            "RemoveEraser": 1,
        }
    )

    acc = out.account
    gone = exact(normalize("air max"))
    for campaign in acc.campaigns:
        assert gone not in campaign.negatives
        for adgroup in campaign.adgroups:
            assert gone not in adgroup.negatives
            assert adgroup.name != "air max"
    assert normalize("air max") not in acc.keywords()
    assert ExactEraser(normalize("air max")) not in acc.erasers[2]
    # the shared 'large' eraser still serves the two remaining large keywords
    assert large(normalize("large")) in acc.group_campaigns()[0].negatives
    assert verify_account(acc).passed


def test_remove_rule_drops_large_eraser_with_empty_image(golden_account):
    # removing both 'large ...' keywords leaves the shared eraser useless
    step1 = remove_rule(golden_account, normalize("large tee-shirt"))
    _assert_replay(golden_account, step1)
    step2 = remove_rule(step1.account, normalize("large superstar shoes"))
    _assert_replay(step1.account, step2)
    acc = step2.account
    for group in acc.erasers:
        assert large(normalize("large")) not in {e.to_negative() for e in group}
    for campaign in acc.campaigns:
        assert large(normalize("large")) not in campaign.negatives
    assert verify_account(acc).passed


def test_remove_last_keyword_removes_campaign(golden_account):
    rule = Rule(normalize("nike large shoes"), Money(90_000), frozenset({"item-21"}))
    grown = add_rule(golden_account, rule).account
    out = remove_rule(grown, rule.keyword)
    _assert_replay(grown, out)
    assert _ops(out)["RemoveCampaign"] == 1
    assert render_account(out.account) == render_account(golden_account)


def test_remove_rule_unknown_keyword(golden_account):
    with pytest.raises(UnknownKeywordError):
        remove_rule(golden_account, normalize("never added"))


def test_remove_item_shrinks_and_removes(golden_rules, golden_account):
    # item-9 belongs only to 'garmin chronometer' (rule 9)
    target = golden_rules[8]
    assert target.items == frozenset({"item-9"})
    out = remove_item(golden_account, golden_rules, "item-9")
    _assert_replay(golden_account, out)
    assert out.rules is not None
    assert all(r.keyword != target.keyword for r in out.rules)
    assert target.keyword not in out.account.keywords()
    assert verify_account(out.account).passed


def test_remove_item_shrinking_rule_keeps_account(golden_rules, golden_account):
    shared = Rule(
        normalize("extra rule"),
        Money(1_000),
        frozenset({"item-1", "item-99"}),
    )
    rules = list(golden_rules) + [shared]
    grown = add_rule(
        golden_account, shared
    ).account
    out = remove_item(grown, rules, "item-99")
    assert out.changes == ()
    assert out.account == grown
    kept = next(r for r in out.rules if r.keyword == shared.keyword)
    assert kept.items == frozenset({"item-1"})


def test_remove_item_unknown_is_noop(golden_rules, golden_account):
    out = remove_item(golden_account, golden_rules, "item-404")
    assert out.changes == ()
    assert out.account == golden_account
    assert tuple(out.rules) == tuple(golden_rules)


def test_check_balance_flags_drifted_shapes():
    rules = [
        Rule(normalize(f"kw{i} x{i}"), Money(1_000), frozenset({"i"}))
        for i in range(9)
    ]
    shattered = build_account(
        rules, config=BuildConfig(mode="naive", target_size=1)
    )
    report = check_balance(shattered)
    assert report.recommended
    assert any("groups" in r for r in report.reasons)

    lumped = build_account(
        rules, config=BuildConfig(mode="naive", target_size=9)
    )
    report = check_balance(lumped)
    assert report.recommended
    assert any("largest group" in r for r in report.reasons)

    balanced = build_account(rules, config=BuildConfig(mode="naive"))
    assert not check_balance(balanced).recommended


def test_balance_threshold_is_twice_the_group_target():
    for n in (0, 1, 9, 301):
        rules = [Rule(normalize(f"kw{i} x{i}"), Money(1_000), frozenset({"i"})) for i in range(n)]
        report = check_balance(build_account(rules, config=BuildConfig(mode="naive")))
        assert report.keyword_count == n
        assert report.threshold == 2 * group_target(n)


def test_update_outcomes_carry_balance(golden_account):
    rule = Rule(normalize("nike jogging"), Money(77_000), frozenset({"item-20"}))
    out = add_rule(golden_account, rule)
    assert out.balance.keyword_count == 12
    assert not out.balance.recommended


# The change log of the four walkthroughs below, one line per change, as the
# command line prints it.
WALKTHROUGH_LOG = (
    "add negative [exact] nike large shoes to campaign c1",
    "add negative [exact] nike large shoes to campaign c2",
    "add campaign c3_4",
    "add negative [exact] nike jogging to campaign c1",
    "add negative [exact] nike jogging to campaign c2",
    "add negative [exact] nike jogging to ad group 'nike shoes' of campaign c3_1",
    "add negative [exact] nike jogging to ad group 'nike soccer white' of campaign c3_1",
    "add negative [exact] nike jogging to ad group 'nike air max' of campaign c3_1",
    "add negative [exact] nike jogging to ad group 'soccer colored mens' of campaign c3_1",
    "add ad group 'nike jogging' to campaign c3_1",
    "record eraser [exact] nike jogging for campaign c3_1",
    "remove negative [exact] air max from campaign c1",
    "remove negative [exact] air max from campaign c2",
    "remove negative [exact] air max from campaign c3_1",
    "remove negative [exact] air max from campaign c3_2",
    "drop eraser [exact] air max from campaign c3_3",
    "remove negative [exact] air max from ad group 'garmin chronometer' of campaign c3_3",
    "remove negative [exact] air max from ad group 'large superstar shoes' of campaign c3_3",
    "remove negative [exact] air max from ad group 'large tee-shirt' of campaign c3_3",
    "remove ad group 'air max' from campaign c3_3",
    "remove negative [exact] nike large shoes from campaign c1",
    "remove negative [exact] nike large shoes from campaign c2",
    "drop eraser [exact] nike large shoes from campaign c3_4",
    "remove campaign c3_4",
)

OP_KINDS = {
    "AddCampaign",
    "RemoveCampaign",
    "AddAdGroup",
    "RemoveAdGroup",
    "AddNegative",
    "RemoveNegative",
    "AddNegative (ad group)",
    "RemoveNegative (ad group)",
    "AddEraser",
    "RemoveEraser",
}


def test_describe_covers_every_op(golden_account):
    rule = Rule(normalize("nike large shoes"), Money(90_000), frozenset({"item-21"}))
    seen = []
    seen += add_rule(golden_account, rule).changes
    seen += add_rule(
        golden_account,
        Rule(normalize("nike jogging"), Money(1_000), frozenset({"i"})),
    ).changes
    seen += remove_rule(golden_account, normalize("air max")).changes
    grown = add_rule(golden_account, rule).account
    seen += remove_rule(grown, rule.keyword).changes
    assert {_op(c) for c in seen} == OP_KINDS
    assert tuple(c.describe() for c in seen) == WALKTHROUGH_LOG


def test_apply_changes_rejects_missing_targets(golden_account):
    with pytest.raises(InputError):
        apply_changes(golden_account, [RemoveCampaign("c9")])


# Each log's second change would undo the fault of its first, so only a check
# at the faulty change itself rejects it.
@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda acc: [
                AddNegative("c3_1", exact(normalize("x")), "no such ad group"),
                AddAdGroup("c3_1", acc.group_campaigns()[0].adgroups[0]),
            ],
            "no ad group named 'no such ad group'",
        ),
        (
            lambda acc: [
                RemoveEraser("c3_1", ExactEraser(normalize("brand new"))),
                AddEraser("c3_1", ExactEraser(normalize("brand new"))),
            ],
            "campaign c3_1 has no such eraser",
        ),
        (
            lambda acc: [AddCampaign(acc.general_campaign()), RemoveCampaign("c1")],
            "repeats campaign name 'c1'",
        ),
        (
            lambda acc: [
                AddAdGroup("c2", acc.brand_campaign().adgroups[0]),
                RemoveAdGroup("c2", "nike"),
            ],
            "'c2' repeats an ad group name",
        ),
        (
            lambda acc: [
                RemoveAdGroup("c1", "catch-all"),
                AddAdGroup("c1", acc.general_campaign().adgroups[0]),
            ],
            "'c1' has no ad groups",
        ),
        # The same two faults on a campaign whose lists a change has just
        # edited: ops that change ad groups still run the campaign's checks.
        (
            lambda acc: [
                AddNegative("c2", exact(normalize("x")), "nike"),
                AddAdGroup("c2", acc.brand_campaign().adgroups[0]),
                RemoveAdGroup("c2", "nike"),
            ],
            "'c2' repeats an ad group name",
        ),
        (
            lambda acc: [
                AddNegative("c1", exact(normalize("x")), "catch-all"),
                RemoveAdGroup("c1", "catch-all"),
                AddAdGroup("c1", acc.general_campaign().adgroups[0]),
            ],
            "'c1' has no ad groups",
        ),
    ],
    ids=[
        "missing-adgroup",
        "missing-eraser",
        "repeated-campaign",
        "repeated-adgroup",
        "empty-campaign",
        "repeated-adgroup-after-a-list-edit",
        "empty-campaign-after-a-list-edit",
    ],
)
def test_apply_changes_rejects_a_bad_change_where_it_occurs(golden_account, make, message):
    with pytest.raises(InputError, match=message):
        apply_changes(golden_account, make(golden_account))


def test_negative_edits_around_an_ad_group_removal(golden_account):
    """Ad-group and campaign negatives on one campaign around the removal of
    one of its ad groups: later edits name ad groups at shifted positions."""
    camp = golden_account.group_campaigns()[0]
    first, second, third = camp.adgroups[:3]
    x, y = exact(normalize("x")), exact(normalize("y"))
    log = [
        AddNegative(camp.name, x, first.name),
        AddNegative(camp.name, x),
        AddNegative(camp.name, y, third.name),
        RemoveAdGroup(camp.name, second.name),
        AddNegative(camp.name, x, third.name),
        RemoveNegative(camp.name, x, first.name),
        AddNegative(camp.name, y, first.name),
        RemoveNegative(camp.name, x),
    ]
    after = apply_changes(golden_account, log)
    new = next(c for c in after.campaigns if c.name == camp.name)
    assert new.negatives == camp.negatives
    assert [g.name for g in new.adgroups] == [g.name for g in camp.adgroups if g is not second]
    assert new.adgroups[0].negatives == first.negatives | {y}
    assert new.adgroups[1].negatives == third.negatives | {x, y}
    assert new.adgroups[2:] == camp.adgroups[3:]
    # The draft swaps in a new value only for the campaign the log edits.
    assert all(
        a is b for a, b in zip(after.campaigns, golden_account.campaigns) if b is not camp
    )


def test_a_batch_replays_as_its_changes_one_at_a_time(golden_account, golden_rules):
    kw = golden_rules[0].keyword
    new = Rule(normalize("nike red"), Money(1), frozenset("i"))
    for log in (remove_rule(golden_account, kw).changes, add_rule(golden_account, new).changes):
        stepwise = functools.reduce(lambda acc, c: apply_changes(acc, [c]), log, golden_account)
        assert apply_changes(golden_account, log) == stepwise


@pytest.mark.parametrize(
    "campaign, message",
    [
        ("c1", "^campaign c1 is not a group campaign$"),
        ("c2", "^campaign c2 is not a group campaign$"),
        ("c9", "^no campaign named 'c9'$"),
    ],
    ids=["c1", "c2", "missing"],
)
@pytest.mark.parametrize(
    "make",
    [
        lambda name: AddEraser(name, ExactEraser(normalize("brand new"))),
        lambda name: RemoveEraser(name, ExactEraser(normalize("air max"))),
    ],
    ids=["add-eraser", "remove-eraser"],
)
def test_group_ops_reject_a_campaign_without_a_group(golden_account, make, campaign, message):
    with pytest.raises(InputError, match=message):
        apply_changes(golden_account, [make(campaign)])


# --- the blocked-everywhere path, and random update sequences ---------------


def _blocked_everywhere(account, rng):
    """A new keyword holding the words of two large erasers of different
    groups, so every group campaign blocks it; None when there is none."""
    larges = [
        (pos, sorted(e.words))
        for pos, group in enumerate(account.erasers)
        for e in group
        if isinstance(e, LargeEraser)
    ]
    if len({pos for pos, _ in larges}) < 2:
        return None
    present = account.keywords()
    camps = account.group_campaigns()
    index = NegativeIndex(*(c.negatives for c in camps))
    for _ in range(200):
        (g1, w1), (g2, w2) = rng.sample(larges, 2)
        if g1 == g2:
            continue
        kw = normalize(" ".join(w1 + [w for w in w2 if w not in w1]))
        if kw not in present and index.blocked(kw) == (1 << len(camps)) - 1:
            return kw
    return None


# --- add_rule admission against the per-negative reference -----------------


def _twin(account):
    """``account`` with every list holding its own fresh copies of its
    negatives: equal to the other lists' by value, never the same object."""

    def fresh(negatives):
        return frozenset(NegativeKeyword(n.keyword, n.match) for n in negatives)

    return replace(
        account,
        campaigns=tuple(
            replace(
                c,
                negatives=fresh(c.negatives),
                adgroups=tuple(replace(g, negatives=fresh(g.negatives)) for g in c.adgroups),
            )
            for c in account.campaigns
        ),
    )


@functools.cache
def _admission_accounts():
    cat = generate(SyntheticSpec(n=300, seed=0))
    synth = build_account(cat.rules, cat.brands, cat.non_brands)
    golden = build_account(
        make_golden_rules(),
        tuple(normalize(b) for b in GOLDEN_BRANDS),
        tuple(normalize(b) for b in GOLDEN_NON_BRANDS),
    )
    return {"golden": golden, "synth-300": synth, "synth-300 unshared": _twin(synth)}


def _admission_vocabulary(account):
    blocked = {w for b in account.non_brands for w in b.words}
    return sorted({w for kw in account.keywords() for w in kw.words} - blocked)


def _assert_admits_as_reference(account, kw) -> str:
    """Add ``kw`` and check where it went: to the smallest group whose
    campaign no negative of which ``matches`` it, else to a new campaign.
    An admitted keyword's exact goes to the High and Medium campaigns and
    to each other group campaign that admitted it, and to no campaign that
    blocked it already."""
    out = add_rule(account, Rule(kw, Money(90_000), frozenset({"item-new"})))
    camps = account.group_campaigns()
    admitting = [
        pos
        for pos, camp in enumerate(camps)
        if not any(matches(kw, neg) for neg in camp.negatives)
    ]
    k = len(account.partition)
    if admitting:
        pos = min(admitting, key=lambda p: (len(account.partition[p]), p))
        assert out.account.group_of(kw) == pos
        assert len(out.account.partition) == k
        exacts = {
            c.campaign for c in out.changes if isinstance(c, AddNegative) and c.adgroup is None
        }
        tiers = {c.name for c in account.campaigns if not isinstance(c.tag, GroupCampaignTag)}
        assert exacts == tiers | {camps[p].name for p in admitting if p != pos}
        return "admitted"
    assert out.account.group_of(kw) == k
    assert len(out.account.group_campaigns()) == k + 1
    return "opened"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", ["golden", "synth-300", "synth-300 unshared"])
def test_add_rule_admits_as_the_reference(name, data):
    account = _admission_accounts()[name]
    vocabulary = _admission_vocabulary(account)
    catalogue = sorted(account.keywords())
    seed, other = data.draw(st.sampled_from(catalogue)), data.draw(st.sampled_from(catalogue))
    cut = data.draw(st.integers(0, len(seed.words)))
    extra = data.draw(st.lists(st.sampled_from(vocabulary), max_size=2))
    words = data.draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=4))
    # Random words mostly find an admitting group; the words of two catalogue
    # keywords often hold erasers of two groups and are blocked everywhere.
    for kw in (
        Keyword(tuple(words)),
        Keyword(seed.words[:cut] + tuple(extra) + seed.words[cut:]),
        Keyword(seed.words + tuple(w for w in other.words if w not in seed.words)),
    ):
        if kw not in account.keywords():
            _assert_admits_as_reference(account, kw)


def test_add_rule_admission_meets_both_outcomes():
    accounts = _admission_accounts()
    unshared = accounts["synth-300 unshared"].group_campaigns()
    assert unshared[0].negatives == accounts["synth-300"].group_campaigns()[0].negatives
    shared = set.intersection(*({id(n) for n in c.negatives} for c in unshared[:2]))
    assert not shared
    rng = random.Random(0)
    seen = Counter()
    for account in accounts.values():
        catalogue = sorted(account.keywords())
        for _ in range(20):
            a, b = rng.sample(catalogue, 2)
            kw = Keyword(a.words + tuple(w for w in b.words if w not in a.words))
            if kw not in account.keywords():
                seen[_assert_admits_as_reference(account, kw)] += 1
    assert seen["admitted"] and seen["opened"]


def _admitted_somewhere(account, rng):
    """A new keyword of one or two plain words that some group campaign admits."""
    vocabulary = _admission_vocabulary(account)
    everywhere = (1 << len(account.group_campaigns())) - 1
    for _ in range(1000):
        kw = Keyword(tuple(rng.sample(vocabulary, rng.randint(1, 2))))
        if kw not in account.keywords():
            if account.admission_index.blocked(kw) != everywhere:
                return kw
    raise AssertionError("no admitted keyword found")


@pytest.mark.parametrize("name", ["golden", "synth-300", "synth-300 updated"])
def test_a_twin_of_fresh_equal_negatives_renders_verifies_and_updates_alike(name):
    """Nothing compares negatives by identity: an account whose lists share
    no negative object renders, verifies and takes an admitted and an
    opening add exactly as the account it copies."""
    account = _seeded_updates()[0] if name == "synth-300 updated" else _admission_accounts()[name]
    twin = _twin(account)
    assert render_account(twin) == render_account(account)
    assert verify_account(twin) == verify_account(account)
    rng = random.Random(0)
    kinds = []
    for kw in (_admitted_somewhere(account, rng), _blocked_everywhere(account, rng)):
        rule = Rule(kw, Money(90_000), frozenset({"item-new"}))
        out, twin_out = add_rule(account, rule), add_rule(twin, rule)
        assert twin_out.changes == out.changes
        assert twin_out.account == out.account
        assert twin_out.balance == out.balance
        assert render_account(twin_out.account) == render_account(out.account)
        kinds.append(_step_kind(out.changes))
    assert kinds == ["admitted", "opened"]


@functools.cache
def _blocked_path_accounts():
    cat = generate(SyntheticSpec(n=300, seed=1))
    accounts = dict(_admission_accounts())
    del accounts["synth-300 unshared"]
    accounts["synth-300 seed 1"] = build_account(cat.rules, cat.brands, cat.non_brands)
    return accounts


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16))
@pytest.mark.parametrize("name", ["golden", "synth-300", "synth-300 seed 1"])
def test_blocked_add_opens_one_campaign_that_admits_only_its_keyword(name, seed):
    account = _blocked_path_accounts()[name]
    kw = _blocked_everywhere(account, random.Random(seed))
    assert kw is not None
    out = add_rule(account, Rule(kw, Money(90_000), frozenset({"item-new"})))
    _assert_replay(account, out)
    opened = [c.campaign for c in out.changes if isinstance(c, AddCampaign)]
    assert len(opened) == 1
    _assert_opens_the_reduced_cover(account, out.changes)
    fresh = opened[0]
    for old in account.keywords():
        assert any(matches(old, neg) for neg in fresh.negatives), old
    assert not any(matches(kw, neg) for neg in fresh.negatives)
    landed = Simulator(out.account).run(kw).disposition
    assert (landed.kind, landed.campaign, landed.adgroup) == ("landed", fresh.name, kw.text)


# sha256 of the final snapshot and of the joined change-log lines of
# ``_seeded_updates``; both are fixed by the update algorithms, so a change to
# either shows here.
UPDATE_SEQUENCE_DIGESTS = {
    "account": pin("update-sequence-account"),
    "log": pin("update-sequence-log"),
}


@functools.cache
def _seeded_updates():
    """40 seeded adds on synth n=300 seed 0, half of them blocked everywhere;
    a remove_rule after every fifth add, and of the keyword of every fourth
    blocked add right after it; two remove_items per eight adds.  Each update
    replays and carries its admission index (``_assert_carries_its_index``)
    and its subset images (``_assert_carries_its_images``).
    Returns the final account, every change-log line and each update as the
    account it started from and its change log."""
    cat = generate(SyntheticSpec(n=300, seed=0))
    rules = list(cat.rules)
    account = build_account(rules, cat.brands, cat.non_brands)
    account.admission_index
    special = {w for b in cat.brands + cat.non_brands for w in b.words}
    plain = sorted({w for r in rules for w in r.keyword.words} - special)
    items = sorted({i for r in rules for i in r.items})
    rng = random.Random(0)
    lines = []
    steps = []

    def step(outcome):
        nonlocal account
        _assert_replay(account, outcome)
        _assert_carries_its_index(outcome)
        _assert_carries_its_images(account, outcome)
        lines.extend(c.describe() for c in outcome.changes)
        steps.append((account, outcome.changes))
        account = outcome.account
        account.admission_index

    previous = None
    for i in range(40):
        kw = _blocked_everywhere(account, rng) if i % 4 >= 2 else None
        while kw is None or kw in account.keywords():
            kw = normalize(" ".join(rng.sample(plain, rng.randint(1, 3))))
        own = {f"item-new-{i}"} if i % 2 else {f"item-new-{i}", rng.choice(items)}
        new = Rule(kw, Money(50_000 + 1_000 * i), frozenset(own))
        step(add_rule(account, new))
        rules.append(new)
        if i % 8 == 3:
            gone = previous
        elif i % 5 == 4:
            gone = rng.choice(sorted(r.keyword for r in rules))
        else:
            gone = None
        if gone is not None and gone in account.keywords():
            step(remove_rule(account, gone))
            rules = [r for r in rules if r.keyword != gone]
        if i % 8 in (5, 7):
            item = f"item-new-{i - 2}" if i % 8 == 7 else rng.choice(items)
            outcome = remove_item(account, rules, item)
            step(outcome)
            rules = list(outcome.rules)
        previous = kw
    return account, lines, steps


def test_each_open_along_the_seeded_updates_covers_as_reduce_keywords():
    opens = [s for s in _seeded_updates()[2] if _step_kind(s[1]) == "opened"]
    assert len(opens) == 20
    for before, changes in opens:
        _assert_opens_the_reduced_cover(before, changes)


def test_simulator_routes_the_low_tier_through_the_admission_index():
    """A ``Simulator``'s Low-tier index is its account's admission index
    itself, on a built, a parsed and an updated account; the updated one
    carries the index derived from its parent's."""
    built = replace(_admission_accounts()["synth-300"])
    parsed = parse_account(render_account(built))
    kw = _admitted_somewhere(built, random.Random(2))
    updated = add_rule(built, Rule(kw, Money(90_000), frozenset({"item-new"}))).account
    assert "admission_index" in vars(updated)
    for account in (built, parsed, updated):
        tier, index = Simulator(account)._tiers[-1][:2]
        assert tier == list(account.group_campaigns())
        assert index is account.admission_index


def test_only_a_read_files_an_accounts_subset_images():
    """Updates that open no campaign file and rank nothing: each new account
    only holds the base its first read refiles from, here the images and
    ranking of an account two updates before it.  An open reads its own
    account's."""
    account = replace(_admission_accounts()["synth-300"])
    images, ranking = account.subset_images, account.cover_ranking
    assert ranking == rank_subset_images(images)
    rng = random.Random(1)
    kw = _admitted_somewhere(account, rng)
    admitted = add_rule(account, Rule(kw, Money(90_000), frozenset({"item-new"}))).account
    removed = remove_rule(admitted, min(admitted.keywords())).account
    for derived in (admitted, removed):
        assert "_subset_filing" not in vars(derived)
        keywords, base, base_ranking = vars(derived)["_images_base"]
        assert keywords == account.keywords() and base is images and base_ranking is ranking
    assert removed.cover_ranking == rank_subset_images(all_subset_images(removed.keywords()))
    assert removed.subset_images == all_subset_images(removed.keywords())
    assert "_images_base" not in vars(removed)
    blocked = _blocked_everywhere(removed, rng)
    opened = add_rule(removed, Rule(blocked, Money(90_000), frozenset({"item-new"}))).account
    assert "_subset_filing" not in vars(opened)
    _, base, base_ranking = vars(opened)["_images_base"]
    assert base is removed.subset_images and base_ranking is removed.cover_ranking
    assert opened.subset_images == all_subset_images(opened.keywords())
    assert opened.cover_ranking == rank_subset_images(opened.subset_images)


def test_seeded_update_sequence_is_pinned():
    account, lines, _ = _seeded_updates()
    assert verify_account(account).passed
    assert any(line.startswith("remove campaign") for line in lines)
    digests = {
        "account": sha256(render_account(account)),
        "log": sha256("\n".join(lines)),
    }
    assert digests == UPDATE_SEQUENCE_DIGESTS


def _limit_verdict(call) -> str | None:
    """None when ``call`` passes the limit check, else the error's text."""
    try:
        call()
    except LimitExceededError as err:
        return str(err)
    return None


def _step_kind(changes) -> str:
    kinds = {type(c) for c in changes}
    return "opened" if AddCampaign in kinds else "admitted" if AddAdGroup in kinds else "removal"


@settings(max_examples=12, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["admitted", "opened", "removal"])
def test_update_limit_verdict_equals_the_full_check(kind, data):
    """An update checks only the lists its draft names as grown; its verdict,
    success or the exact error text, names the first list of the whole
    result that is over the limit and longer than before, at limits at, just
    below and just above the size of each lengthened list and on accounts
    already over their limit.  Logs are the steps of ``_seeded_updates`` and
    parts of them, since any subsequence of an update's log applies: without
    the campaign lists' adds an add lengthens ad-group lists first, and its
    ad-group or campaign adds alone lengthen only the lists they add."""
    steps = [s for s in _seeded_updates()[2] if _step_kind(s[1]) == kind]
    base, changes = data.draw(st.sampled_from(steps))
    keep = data.draw(st.lists(st.booleans(), min_size=len(changes), max_size=len(changes)))
    logs = [
        list(changes),
        [c for c in changes if not (isinstance(c, AddNegative) and c.adgroup is None)],
        [c for c in changes if isinstance(c, (AddAdGroup, AddCampaign))],
        [c for c, k in zip(changes, keep) if k],
    ]
    before = oracles.list_sizes(base)
    for log in logs:
        after = oracles.list_sizes(apply_changes(base, log))
        lengthened = [n for w, n in after.items() if n > before.get(w, 0)]
        limits = {n + d for n in lengthened for d in (-1, 0, 1)} | {max(before.values()) - 1}
        for limit in sorted(limits - {0}):
            account = replace(base, limit=limit)
            verdict = _limit_verdict(lambda: _outcome(account, log))
            over = [(w, n) for w, n in after.items() if n > max(limit, before.get(w, 0))]
            assert verdict == (account.limit_message(*over[0]) if over else None)


class UpdateSequence(RuleBasedStateMachine):
    """Random add_rule / remove_rule / remove_item sequences on a small
    account: every step must leave a verified account that the step's change
    log reproduces from the one before, and that renders to the json.dumps
    bytes.  Updates leave negative lists no build makes (stale erasers after
    a removal, a fresh cover on each opened campaign), so the renderer's
    cuts see other shapes here than on built accounts."""

    catalogue = generate(SyntheticSpec(n=60, seed=4))

    @initialize()
    def build(self):
        cat = self.catalogue
        special = {w for b in cat.brands + cat.non_brands for w in b.words}
        self.plain_words = sorted({w for r in cat.rules for w in r.keyword.words} - special)
        self.items = sorted({i for r in cat.rules for i in r.items})
        self.words = sorted({w for r in cat.rules for w in r.keyword.words} | special)
        self.rules = list(cat.rules)
        self.account = build_account(self.rules, cat.brands, cat.non_brands)
        self.account.admission_index

    def _step(self, outcome):
        account = outcome.account
        assert apply_changes(self.account, outcome.changes) == account
        _assert_carries_its_index(outcome)
        _assert_carries_its_images(self.account, outcome)
        assert verify_account(account, probes=200).passed
        text = render_account(account)
        assert_same_text(text, json.dumps(account_document(account), indent=2) + "\n")
        parsed = parse_account(text)
        assert parsed == account
        assert_every_list_is_cut(account, text)
        assert_parses_as_a_whole(text)
        # The carried index routes as one built from scratch, down to each
        # Blocked.by its hits name.
        rng = random.Random(len(self.rules))
        queries = rng.sample(sorted(account.keywords()), min(10, len(account.keywords())))
        queries += [Keyword(tuple(rng.sample(self.words, rng.randint(1, 3)))) for _ in range(20)]
        carried, fresh = Simulator(account), Simulator(parsed)
        for query in queries:
            assert carried.run(query) == fresh.run(query)
        # Built after a closed campaign, so every next update derives one.
        account.admission_index
        self.account = account

    def _add(self, kw, data):
        items = data.draw(st.lists(st.sampled_from(self.items), min_size=1, max_size=2))
        new_rule = Rule(kw, Money(90_000), frozenset(items))
        self._step(add_rule(self.account, new_rule))
        self.rules.append(new_rule)

    @rule(data=st.data())
    def add_plain(self, data):
        words = data.draw(
            st.lists(st.sampled_from(self.plain_words), min_size=1, max_size=3, unique=True)
        )
        kw = normalize(" ".join(words))
        if kw not in self.account.keywords():
            self._add(kw, data)

    @rule(seed=st.integers(0, 2**16), data=st.data())
    def add_blocked(self, seed, data):
        kw = _blocked_everywhere(self.account, random.Random(seed))
        if kw is not None:
            self._add(kw, data)

    @precondition(lambda self: len(self.rules) > 1)
    @rule(data=st.data())
    def drop_rule(self, data):
        kw = data.draw(st.sampled_from(sorted(r.keyword for r in self.rules)))
        self._step(remove_rule(self.account, kw))
        self.rules = [r for r in self.rules if r.keyword != kw]

    @precondition(lambda self: len(self.rules) > 1)
    @rule(data=st.data())
    def retire_item(self, data):
        item = data.draw(st.sampled_from(sorted({i for r in self.rules for i in r.items})))
        outcome = remove_item(self.account, self.rules, item)
        if outcome.rules:
            self._step(outcome)
            self.rules = list(outcome.rules)


class ShuffledUpdateSequence(UpdateSequence):
    """The same sequences with the catalogue's words spelled in a seeded
    random order, so large negatives bucket under other words."""

    catalogue = generate(SyntheticSpec(n=60, seed=4, shuffle_spellings=True))


for _machine in (UpdateSequence, ShuffledUpdateSequence):
    _machine.TestCase.settings = settings(max_examples=15, stateful_step_count=8, deadline=None)
test_update_sequences = UpdateSequence.TestCase
test_update_sequences_with_shuffled_spellings = ShuffledUpdateSequence.TestCase



def test_updates_carry_their_index_along_the_maintain_600_sequence(monkeypatch):
    """The benchmark's 200 seeded maintain-600 updates, seed 0: every account
    carries an admission index derived from its parent's and equal to a fresh
    build, through 20 campaign opens, and each open reads subset images
    refiled from the last open's and equal to a fresh filing.  No campaign
    closes here; ``_seeded_updates`` closes some."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    catalogue = generate(SyntheticSpec(n=600, seed=0))
    rules = list(catalogue.rules)
    account = build_account(rules, catalogue.brands, catalogue.non_brands)
    maker = workloads.UpdateMaker(0, catalogue)
    seen = Counter()
    for kind in maker.schedule(workloads.UPDATE_OPS):
        account.admission_index
        if kind in ("add_admitted", "add_open"):
            new = getattr(maker, kind)(account)
            outcome = add_rule(account, new)
            rules.append(new)
        elif kind == "remove_rule":
            kw = maker.remove_rule(account)
            outcome = remove_rule(account, kw)
            rules = [r for r in rules if r.keyword != kw]
        else:
            outcome = remove_item(account, rules, maker.remove_item(rules))
            rules = list(outcome.rules)
        _assert_carries_its_index(outcome)
        _assert_carries_its_images(account, outcome)
        seen.update(type(c).__name__ for c in outcome.changes)
        account = outcome.account
    assert seen["AddCampaign"] == 20 and seen["RemoveNegative"]
