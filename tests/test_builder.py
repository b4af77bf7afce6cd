from __future__ import annotations

import pytest

from conftest import FOUR_KEYWORDS, make_golden_rules

from shopstruct import (
    BuildConfig,
    ExactEraser,
    InputError,
    LargeEraser,
    LimitExceededError,
    Money,
    Priority,
    Rule,
    SyntheticSpec,
    build_account,
    exact,
    generate,
    large,
    naive_partition,
    negative_count,
    nk_exact,
    phrase,
    plan_groups,
    reduction_stats,
    verify_account,
    build_graph,
    enumerate_candidates,
    normalize,
)


def _texts(group):
    return sorted(kw.text for kw in group)


def test_naive_partition_chunks_sorted_keywords():
    kws = [normalize(t) for t in FOUR_KEYWORDS]
    groups, erasers = naive_partition(kws)
    assert [_texts(g) for g in groups] == [
        ["adidas shoes", "garmin chronometer"],
        ["large tee-shirt", "nike shoes"],
    ]
    assert all(
        all(isinstance(e, ExactEraser) for e in group) for group in erasers
    )
    assert {e.keyword for e in erasers[0]} == set(groups[0])


def test_naive_partition_explicit_target_and_empty():
    kws = [normalize(t) for t in FOUR_KEYWORDS]
    groups, _ = naive_partition(kws, target_size=3)
    assert [len(g) for g in groups] == [3, 1]
    assert naive_partition([]) == ((), ())


def test_plan_groups_naive_mode_uses_exact_erasers():
    kws = [normalize(t) for t in FOUR_KEYWORDS]
    groups, erasers = plan_groups(kws, BuildConfig(mode="naive"))
    assert groups == naive_partition(kws)[0]
    assert all(isinstance(e, ExactEraser) for g in erasers for e in g)


def test_small_naive_build_negative_layout(four_rules):
    brands = tuple(normalize(b) for b in ("nike", "adidas", "garmin"))
    non_brands = (normalize("reebok"),)
    account = build_account(
        four_rules, brands, non_brands, config=BuildConfig(mode="naive")
    )

    c1 = account.general_campaign()
    assert c1.priority is Priority.HIGH
    assert len(c1.negatives) == 8
    assert exact(normalize("nike shoes")) in c1.negatives
    assert phrase(normalize("nike")) in c1.negatives
    assert phrase(normalize("reebok")) in c1.negatives
    assert [g.name for g in c1.adgroups] == ["catch-all"]

    c2 = account.brand_campaign()
    assert c2 is not None and c2.priority is Priority.MEDIUM
    assert len(c2.negatives) == 5
    assert [g.name for g in c2.adgroups] == ["nike", "adidas", "garmin"]
    assert c2.adgroups[0].negatives == frozenset(
        {phrase(normalize("adidas")), phrase(normalize("garmin"))}
    )

    lows = account.group_campaigns()
    assert [c.name for c in lows] == ["c3_1", "c3_2"]
    for c in lows:
        assert c.priority is Priority.LOW
        assert len(c.negatives) == 3
        assert phrase(normalize("reebok")) in c.negatives
        for adgroup in c.adgroups:
            assert len(adgroup.negatives) == 1

    assert negative_count(account) == 29
    assert negative_count(account) == nk_exact(4, 3, 1, [2, 2])


def test_adgroup_bids_come_from_rules(four_rules):
    account = build_account(four_rules, config=BuildConfig(mode="naive"))
    by_rule = {r.keyword.text: r.cpc for r in four_rules}
    for campaign in account.group_campaigns():
        for adgroup in campaign.adgroups:
            leaf = adgroup.tree
            assert leaf.bid == by_rule[adgroup.name]


def test_golden_reduced_partition_and_erasers(golden_account):
    account = golden_account
    assert [_texts(g) for g in account.partition] == [
        ["nike air max", "nike shoes", "nike soccer white", "soccer colored mens"],
        ["adidas running shoes", "adidas superstar", "adidas superstar sneaker"],
        ["air max", "garmin chronometer", "large superstar shoes", "large tee-shirt"],
    ]
    assert account.erasers == (
        (LargeEraser(frozenset({"nike"})), ExactEraser(normalize("soccer colored mens"))),
        (LargeEraser(frozenset({"adidas"})),),
        (
            LargeEraser(frozenset({"large"})),
            ExactEraser(normalize("air max")),
            ExactEraser(normalize("garmin chronometer")),
        ),
    )


def test_golden_group_campaign_negatives(golden_account):
    c3_1 = golden_account.campaign_for_group(1)
    assert c3_1.negatives == frozenset(
        {
            large(normalize("adidas")),
            large(normalize("large")),
            exact(normalize("air max")),
            exact(normalize("garmin chronometer")),
            phrase(normalize("reebok")),
        }
    )


def test_golden_adgroups_follow_catalogue_order(golden_account):
    c3_1 = golden_account.campaign_for_group(1)
    assert [g.name for g in c3_1.adgroups] == [
        "nike shoes",
        "nike soccer white",
        "nike air max",
        "soccer colored mens",
    ]
    first = c3_1.adgroups[0]
    assert first.negatives == frozenset(
        exact(normalize(t))
        for t in ("nike soccer white", "nike air max", "soccer colored mens")
    )


def test_golden_negative_totals(golden_account, golden_naive_account):
    assert negative_count(golden_account) == 78
    assert negative_count(golden_naive_account) == 88
    sizes = [len(g) for g in golden_naive_account.partition]
    assert negative_count(golden_naive_account) == nk_exact(11, 3, 1, sizes)


def test_no_brand_campaign_without_brands(four_rules):
    account = build_account(four_rules, (), (normalize("reebok"),))
    assert account.brand_campaign() is None
    assert [c.name for c in account.campaigns][0] == "c1"
    assert all(c.name != "c2" for c in account.campaigns)


def test_empty_catalogue_builds_catch_all_only():
    account = build_account([], (normalize("nike"),), ())
    assert [c.name for c in account.campaigns] == ["c1", "c2"]
    assert account.partition == ()
    assert account.keywords() == frozenset()


def test_duplicate_keywords_rejected():
    rules = [
        Rule(normalize("nike shoes"), Money(1), frozenset({"a"})),
        Rule(normalize("nike  SHOES"), Money(2), frozenset({"b"})),
    ]
    with pytest.raises(InputError):
        build_account(rules)


def test_brand_overlap_rejected(four_rules):
    with pytest.raises(InputError, match="reebok"):
        build_account(
            four_rules,
            (normalize("nike"), normalize("reebok")),
            (normalize("reebok"),),
        )


def _rules(*texts):
    return tuple(
        Rule(normalize(t), Money(100_000), frozenset({f"item-{i}"}))
        for i, t in enumerate(texts)
    )


def test_rule_holding_a_blocked_brand_rejected():
    rules = _rules("reebok shoes", "nike shoes")
    with pytest.raises(InputError, match="'reebok shoes'.*'reebok'"):
        build_account(rules, (normalize("nike"),), (normalize("reebok"),))


def test_blocked_brand_words_out_of_order_still_build():
    rules = _rules("armour under shoes", "nike shoes")
    account = build_account(rules, (normalize("nike"),), (normalize("under armour"),))
    assert verify_account(account, probes=50).passed


def test_limit_enforced_during_build(golden_rules, golden_brands, golden_non_brands):
    with pytest.raises(LimitExceededError):
        build_account(
            golden_rules,
            golden_brands,
            golden_non_brands,
            config=BuildConfig(limit=5),
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "balanced"},
        {"limit": 0},
        {"max_words": 0},
    ],
)
def test_build_config_validation(kwargs):
    with pytest.raises(InputError):
        BuildConfig(**kwargs)


def test_brand_trees_attach_to_brand_adgroups(four_rules):
    from shopstruct import Leaf, Split

    nike = normalize("nike")
    tree = Split("category", (("shoes", Leaf(Money(2))),), Leaf(Money(3)))
    account = build_account(
        four_rules, (nike, normalize("adidas")), (), brand_trees={nike: tree}
    )
    groups = account.brand_campaign().adgroups
    assert groups[0].tree == tree
    assert groups[1].tree == Leaf(Money(10_000))


def test_reduction_stats_golden(golden_rules, golden_brands, golden_non_brands):
    stats = reduction_stats(golden_rules, golden_brands, golden_non_brands)
    assert stats.n == 11
    assert stats.candidate_count == 9
    assert stats.conflict_edges == 12
    assert stats.covered == 8
    assert stats.group_count == 3
    assert sorted(stats.group_sizes) == [3, 4, 4]
    assert stats.naive_negatives == 88
    assert stats.reduced_negatives == 78
    assert stats.ratio == pytest.approx(78 / 88)


def test_reduced_never_worse_than_naive_on_golden(golden_rules):
    # sanity independent of brands: campaign negatives shrink or match
    reduced = build_account(golden_rules, config=BuildConfig(mode="reduced"))
    naive = build_account(golden_rules, config=BuildConfig(mode="naive"))
    assert negative_count(reduced) < negative_count(naive)


def test_candidate_pipeline_agrees_with_build(golden_rules):
    keywords = [r.keyword for r in golden_rules]
    candidates = enumerate_candidates(keywords)
    graph = build_graph(candidates)
    assert graph.node_count == 9
    assert graph.edge_count == 12


def test_built_account_holds_one_object_per_negative():
    cat = generate(SyntheticSpec(n=300, seed=0))
    account = build_account(cat.rules, cat.brands, cat.non_brands)
    held = [
        neg
        for c in account.campaigns
        for negatives in (c.negatives, *(g.negatives for g in c.adgroups))
        for neg in negatives
    ]
    assert len({id(neg) for neg in held}) == len(set(held))
