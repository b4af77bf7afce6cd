from __future__ import annotations

from dataclasses import fields, replace

import pytest

from shopstruct import (
    Account,
    AdGroup,
    BrandCampaignTag,
    Campaign,
    CatchAllTag,
    ExactEraser,
    GeneralCampaignTag,
    GroupCampaignTag,
    InputError,
    Leaf,
    LimitExceededError,
    Money,
    NegativeKeyword,
    Priority,
    Rule,
    RuleTag,
    Split,
    UnknownKeywordError,
    exact,
    negative_count,
    normalize,
    tree_leaves,
)
from shopstruct.updates import AddNegative, RemoveNegative, _replay
import oracles


def _leaf() -> Leaf:
    return Leaf(Money(1000))


def _catch_all(name: str = "catch-all") -> AdGroup:
    return AdGroup(name=name, tag=CatchAllTag(), negatives=frozenset(), tree=_leaf())


def _general(name: str = "c1") -> Campaign:
    return Campaign(
        name=name,
        tag=GeneralCampaignTag(),
        negatives=frozenset(),
        adgroups=(_catch_all(),),
    )


def test_money_rejects_negative_amounts():
    with pytest.raises(InputError):
        Money(-1)
    assert Money(0).micros == 0


def test_rule_requires_items():
    with pytest.raises(InputError):
        Rule(normalize("a"), Money(1), frozenset())
    with pytest.raises(InputError):
        Rule(normalize("a"), Money(1), frozenset({""}))


def test_split_rejects_duplicate_branch_values():
    with pytest.raises(InputError):
        Split("brand", (("x", _leaf()), ("x", _leaf())), _leaf())


def test_tree_leaves_walks_every_branch():
    tree = Split(
        "brand",
        (("x", Leaf(Money(1))), ("y", Split("size", (("s", Leaf(Money(2))),), Leaf(Money(3))))),
        Leaf(Money(4)),
    )
    assert sorted(leaf.bid.micros for leaf in tree_leaves(tree)) == [1, 2, 3, 4]


def test_campaign_needs_adgroups_with_unique_names():
    with pytest.raises(InputError):
        Campaign("c", GeneralCampaignTag(), frozenset(), ())
    with pytest.raises(InputError):
        Campaign(
            "c",
            GeneralCampaignTag(),
            frozenset(),
            (_catch_all("a"), _catch_all("a")),
        )


def test_only_a_group_campaign_holds_keywords_or_erasers():
    kw = normalize("a b")
    with pytest.raises(InputError, match="^campaign 'c1' holds erasers but is not a group"):
        replace(_general(), erasers=(ExactEraser(kw),))
    # A group campaign's keywords are those of its rule ad groups.
    group = replace(_general("c3_1"), tag=GroupCampaignTag(1))
    assert group.group == frozenset()
    adgroup = AdGroup(name=kw.text, tag=RuleTag(kw), negatives=frozenset(), tree=_leaf())
    owned = replace(group, adgroups=(adgroup,), erasers=(ExactEraser(kw),))
    assert owned.group == {kw}
    assert "group" not in {f.name for f in fields(Campaign)}


def test_account_validation():
    with pytest.raises(InputError):
        Account(10, (), (), (_general("x"), _general("x")))
    with pytest.raises(InputError):
        Account(10, (), (), ())
    for limit in (0, -5):
        with pytest.raises(InputError, match="limit must be positive"):
            Account(limit, (), (), (_general(),))


def test_partition_and_erasers_are_views_of_the_group_campaigns(golden_account):
    camps = golden_account.group_campaigns()
    assert golden_account.partition == tuple(c.group for c in camps)
    assert all(
        c.group == {g.tag.keyword for g in c.adgroups if isinstance(g.tag, RuleTag)}
        for c in camps
    )
    assert golden_account.erasers == tuple(c.erasers for c in camps)
    # Taken once per account, so repeated reads share one tuple.
    assert golden_account.partition is golden_account.partition
    assert golden_account.erasers is golden_account.erasers
    assert not {"partition", "erasers"} & {f.name for f in fields(Account)}


def test_accessors_on_golden_account(golden_account):
    acc = golden_account
    assert acc.general_campaign().name == "c1"
    assert acc.brand_campaign().name == "c2"
    assert [c.name for c in acc.group_campaigns()] == ["c3_1", "c3_2", "c3_3"]
    assert [c.tag for c in acc.group_campaigns()] == [GroupCampaignTag(i) for i in (1, 2, 3)]
    assert acc.group_of(normalize("adidas superstar")) == 1
    with pytest.raises(UnknownKeywordError):
        acc.group_of(normalize("no such keyword"))
    assert len(acc.keywords()) == 11


def test_negative_count_is_the_literal_total(golden_account):
    manual = 0
    for c in golden_account.campaigns:
        manual += len(c.negatives)
        for g in c.adgroups:
            manual += len(g.negatives)
    assert negative_count(golden_account) == manual


def _limit_message(where: str, count: int, limit: int) -> str:
    return f"{where} holds {count} negatives, over the limit of {limit}"


@pytest.mark.parametrize("name", ["golden", "golden-no-brands", "synth-300-0"])
def test_over_limit_names_every_list_over_it_in_account_order(unlimited_accounts, name):
    sizes = oracles.list_sizes(unlimited_accounts[name])
    for limit in sorted(set(sizes.values()) - {0}):
        account = replace(unlimited_accounts[name], limit=limit)
        over = {where: count for where, count in sizes.items() if count > limit}
        assert list(account.over_limit().items()) == list(over.items())
        if not over:
            account.check_limit()
            continue
        where, count = next(iter(over.items()))
        with pytest.raises(LimitExceededError) as err:
            account.check_limit()
        assert str(err.value) == _limit_message(where, count, limit)


def test_a_campaigns_tier_is_its_tags():
    general = _general()
    brands = replace(general, tag=BrandCampaignTag())
    group = replace(general, tag=GroupCampaignTag(1))
    assert [c.priority for c in (general, brands, group)] == [
        Priority.HIGH,
        Priority.MEDIUM,
        Priority.LOW,
    ]
    assert [p.value for p in Priority] == ["high", "medium", "low"]
    assert "priority" not in {f.name for f in fields(Campaign)}
    with pytest.raises(TypeError):
        replace(group, priority=Priority.HIGH)


def test_check_limit_names_only_the_lists_an_update_lengthens(golden_account):
    camp = golden_account.group_campaigns()[0]
    adgroup = camp.adgroups[0]
    extra, more = exact(normalize("zz yy")), exact(normalize("zz xx"))
    # The ad group takes one more negative; the campaign's own list is over
    # the limit already.
    account = replace(golden_account, limit=len(adgroup.negatives) + 1)
    assert len(camp.negatives) > account.limit
    draft = _replay(account, [AddNegative(camp.name, extra, adgroup.name)])
    assert draft.grown == {camp.name: {adgroup.name}}
    grown = draft.freeze()
    assert f"campaign {camp.name}" in grown.over_limit()
    grown.check_limit(draft.grown)
    # Naming the campaign's own list asks about it too.
    with pytest.raises(LimitExceededError) as err:
        grown.check_limit({camp.name: {None, adgroup.name}})
    where = f"campaign {camp.name}"
    assert str(err.value) == _limit_message(where, len(camp.negatives), account.limit)
    # A second negative takes the ad group past the limit.
    draft = _replay(account, [AddNegative(camp.name, extra, adgroup.name)] * 2)
    assert draft.grown == {camp.name: {adgroup.name}}
    draft.freeze().check_limit(draft.grown)
    log = [AddNegative(camp.name, neg, adgroup.name) for neg in (extra, more)]
    draft = _replay(account, log)
    with pytest.raises(LimitExceededError) as err:
        draft.freeze().check_limit(draft.grown)
    where = f"ad group {adgroup.name!r} of campaign {camp.name}"
    assert str(err.value) == _limit_message(where, len(adgroup.negatives) + 2, account.limit)
    # A campaign named only for its own list is not asked about its ad groups.
    assert list(grown.over_limit({camp.name: {None}})) == [f"campaign {camp.name}"]


def test_check_limit_passes_lists_an_update_does_not_lengthen(golden_account):
    # c1, the High campaign, holds the longest list and is over the limit.
    general = golden_account.general_campaign()
    account = replace(golden_account, limit=len(general.negatives) - 1)
    held = min(general.negatives, key=NegativeKeyword.sort_key)
    extra = exact(normalize("zz yy"))
    # An AddNegative of a negative the list already holds, equal or the same
    # object, names nothing, and neither does a removal.
    for log in (
        [AddNegative(general.name, held)],
        [AddNegative(general.name, NegativeKeyword(held.keyword, held.match))],
        [RemoveNegative(general.name, held)],
    ):
        draft = _replay(account, log)
        assert draft.grown == {}
        draft.freeze().check_limit(draft.grown)
    # An update that leaves c1 alone passes; one that lengthens it does not.
    draft = _replay(account, [AddNegative(account.group_campaigns()[0].name, extra)])
    new = draft.freeze()
    assert new.general_campaign() is general
    assert list(new.over_limit()) == [f"campaign {general.name}"]
    new.check_limit(draft.grown)
    draft = _replay(account, [AddNegative(general.name, extra)])
    assert draft.grown == {general.name: {None}}
    with pytest.raises(LimitExceededError) as err:
        draft.freeze().check_limit(draft.grown)
    where = f"campaign {general.name}"
    assert str(err.value) == _limit_message(where, len(general.negatives) + 1, account.limit)
