from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    FOUR_KEYWORDS,
    GOLDEN_BRANDS,
    GOLDEN_NON_BRANDS,
    LIMIT_CATALOGUES,
    make_golden_rules,
)
import oracles

from shopstruct import (
    BuildConfig,
    ExactEraser,
    GroupPlan,
    InputError,
    LargeEraser,
    LimitExceededError,
    Money,
    Priority,
    ReductionStats,
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
    select_color_class,
    verify_account,
    welsh_powell,
    build_graph,
    enumerate_candidates,
    normalize,
    add_rule,
    matches,
)
from shopstruct.builder import _check_routable
from shopstruct.erasers import group_target


def _texts(group):
    return sorted(kw.text for kw in group)


def test_naive_partition_chunks_sorted_keywords():
    kws = [normalize(t) for t in FOUR_KEYWORDS]
    plan = naive_partition(kws)
    groups, erasers = plan.groups, plan.erasers
    assert plan.target_size == 2
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
    groups = naive_partition(kws, target_size=3).groups
    assert [len(g) for g in groups] == [3, 1]
    assert naive_partition([]) == GroupPlan((), (), 1)


def test_plan_groups_naive_mode_uses_exact_erasers():
    kws = [normalize(t) for t in FOUR_KEYWORDS]
    plan = plan_groups(kws, BuildConfig(mode="naive"))
    assert plan == naive_partition(kws)
    assert all(isinstance(e, ExactEraser) for g in plan.erasers for e in g)


@pytest.mark.parametrize("mode", ["naive", "reduced"])
@pytest.mark.parametrize("target", [0, -3])
def test_target_size_below_one_is_an_input_error_in_either_mode(four_rules, mode, target):
    config = BuildConfig(mode=mode, target_size=target)
    with pytest.raises(InputError, match=f"^target size must be positive: {target}$"):
        build_account(four_rules, config=config)


def test_group_target_defaults_to_ceil_sqrt_n():
    assert [group_target(n) for n in (0, 1, 2, 4, 5, 300, 10000)] == [1, 1, 2, 2, 3, 18, 100]
    assert group_target(300, 7) == 7
    with pytest.raises(InputError, match="target size must be positive: 0"):
        group_target(300, 0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("target", [1, 2, 6, 9, 16, 17])
def test_reduced_targets_below_the_default_build_and_verify(seed, target):
    # ceil(sqrt(300)) is 18: the candidate cap follows the smaller target, so
    # every selected image fits in a group and no group passes the target.
    cat = generate(SyntheticSpec(n=300, seed=seed))
    config = BuildConfig(target_size=target)
    account = build_account(cat.rules, cat.brands, cat.non_brands, config=config)
    assert max(len(g) for g in account.partition) <= target
    assert verify_account(account).passed
    stats = reduction_stats(cat.rules, cat.brands, cat.non_brands, config=config)
    keywords = [r.keyword for r in cat.rules]
    assert stats.candidate_count == len(enumerate_candidates(keywords, max_image=target))
    assert stats.reduced_negatives == negative_count(account)


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
    c3_1 = golden_account.group_campaigns()[0]
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
    c3_1 = golden_account.group_campaigns()[0]
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


@pytest.mark.parametrize("name", LIMIT_CATALOGUES)
def test_build_limit_is_the_largest_list(limit_catalogues, unlimited_accounts, name):
    # M is the largest list of an unlimited build: a limit of M builds the
    # same account, and M - 1 names the first list that holds M.
    unlimited = unlimited_accounts[name]
    sizes = oracles.list_sizes(unlimited)
    largest = max(sizes.values())
    where = next(where for where, count in sizes.items() if count == largest)
    with pytest.raises(LimitExceededError) as err:
        build_account(*limit_catalogues[name], config=BuildConfig(limit=largest - 1))
    assert str(err.value) == (
        f"{where} holds {largest} negatives, over the limit of {largest - 1}"
    )
    at_limit = build_account(*limit_catalogues[name], config=BuildConfig(limit=largest))
    assert at_limit == replace(unlimited, limit=largest)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "balanced"},
        {"limit": 0},
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


def _stats_catalogue(name: str):
    golden = (
        make_golden_rules(),
        tuple(normalize(b) for b in GOLDEN_BRANDS),
        tuple(normalize(b) for b in GOLDEN_NON_BRANDS),
    )
    if name == "golden":
        return golden
    if name == "empty":
        return (), (), ()
    if name == "empty with brands":
        return ((),) + golden[1:]
    n, seed, brands = (int(part) for part in name.split("-")[1:])
    cat = generate(SyntheticSpec(n=n, seed=seed, brand_count=brands))
    return cat.rules, cat.brands, cat.non_brands


_STATS_CATALOGUES = ["golden", "empty", "empty with brands"] + [
    f"synth-{n}-{seed}-{brands}" for n in (300, 1000) for seed in range(4) for brands in (3, 0)
]


@pytest.mark.parametrize("name", _STATS_CATALOGUES)
def test_reduction_stats_equals_the_stages_and_the_naive_build(name):
    rules, brands, non_brands = _stats_catalogue(name)
    keywords = [r.keyword for r in rules]
    candidates = enumerate_candidates(keywords)
    graph = build_graph(candidates)
    selected = select_color_class(graph, welsh_powell(graph))
    reduced = build_account(rules, brands, non_brands)
    naive = build_account(rules, brands, non_brands, config=BuildConfig(mode="naive"))
    expected = ReductionStats(
        n=len(rules),
        candidate_count=len(candidates),
        conflict_edges=graph.edge_count,
        covered=sum(c.weight for c in selected),
        group_count=len(reduced.partition),
        group_sizes=tuple(len(g) for g in reduced.partition),
        naive_negatives=negative_count(naive),
        reduced_negatives=negative_count(reduced),
    )
    # The configured mode plays no part: both builds are always compared.
    for mode in ("reduced", "naive"):
        stats = reduction_stats(rules, brands, non_brands, config=BuildConfig(mode=mode))
        assert stats == expected


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


# --- routable keywords ------------------------------------------------------

_ROUTE_WORDS = ["ree", "bok", "nike", "shoes", "red"]
_route_phrase = st.lists(st.sampled_from(_ROUTE_WORDS), min_size=1, max_size=4).map(
    lambda ws: normalize(" ".join(ws))
)


def _refusal(keyword, non_brands):
    """The message for a keyword that some blocked brand blocks as a phrase,
    naming the first such brand in sort order; None for a routable one."""
    blocking = [b for b in non_brands if matches(keyword, phrase(b))]
    if not blocking:
        return None
    first = min(blocking, key=lambda b: phrase(b).sort_key())
    return (
        f"keyword {keyword.text!r} contains the blocked brand"
        f" {first.text!r}, so no campaign can route it"
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_route_phrase, min_size=1, max_size=8, unique=True),
    st.lists(_route_phrase, max_size=3, unique=True),
    _route_phrase,
)
def test_routable_check_refuses_exactly_the_blocked_keywords(keywords, non_brands, added):
    rules = [Rule(kw, Money(1000), frozenset({f"item-{i}"})) for i, kw in enumerate(keywords)]
    for kw in keywords:
        expected = _refusal(kw, non_brands)
        if expected is None:
            _check_routable([kw], non_brands)
        else:
            with pytest.raises(InputError) as refused:
                _check_routable([kw], non_brands)
            assert str(refused.value) == expected
    # A build names the first refused keyword in catalogue order.
    first = next(filter(None, (_refusal(kw, non_brands) for kw in keywords)), None)
    if first is not None:
        with pytest.raises(InputError) as refused:
            build_account(rules, (), non_brands)
        assert str(refused.value) == first
        return
    account = build_account(rules, (), non_brands)
    assume(added not in keywords)
    rule = Rule(added, Money(1000), frozenset({"item-new"}))
    expected = _refusal(added, non_brands)
    if expected is None:
        assert added in add_rule(account, rule).account.keywords()
    else:
        with pytest.raises(InputError) as refused:
            add_rule(account, rule)
        assert str(refused.value) == expected


def test_routable_check_names_the_first_of_two_blocked_brands():
    non_brands = [normalize("shoes"), normalize("red nike"), normalize("nike")]
    first = "^keyword 'red nike shoes' contains the blocked brand 'nike',"
    with pytest.raises(InputError, match=first):
        _check_routable([normalize("red nike shoes")], non_brands)


def test_build_names_the_smaller_of_two_blocked_brands_a_keyword_holds():
    # The blocked brands are given largest first; the message names the
    # smaller one, whatever their order or place in the keyword.
    rules = [
        Rule(normalize("red shoes nike"), Money(1000), frozenset({"item-0"})),
        Rule(normalize("red"), Money(1000), frozenset({"item-1"})),
    ]
    non_brands = [normalize("shoes"), normalize("nike")]
    refused = "^keyword 'red shoes nike' contains the blocked brand 'nike', so no campaign"
    for given in (non_brands, non_brands[::-1]):
        with pytest.raises(InputError, match=refused):
            build_account(rules, (), given)
