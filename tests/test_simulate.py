from __future__ import annotations

import types
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from shopstruct import (
    Account,
    AdGroup,
    Blocked,
    Campaign,
    CatchAllTag,
    Entered,
    GeneralCampaignTag,
    GroupCampaignTag,
    Keyword,
    Landed,
    Leaf,
    Money,
    NegativeIndex,
    Priority,
    RuleTag,
    Simulator,
    exact,
    large,
    normalize,
    phrase,
)


def test_own_keyword_lands_in_its_own_adgroup(golden_account):
    t = Simulator(golden_account).run(normalize("nike shoes"))
    assert t.disposition == Landed(campaign="c3_1", adgroup="nike shoes")
    by_campaign = {s.campaign: s.outcome for s in t.steps}
    assert isinstance(by_campaign["c1"], Blocked)
    assert by_campaign["c1"].by == exact(normalize("nike shoes"))
    assert isinstance(by_campaign["c2"], Blocked)
    assert isinstance(by_campaign["c3_2"], Blocked)
    assert isinstance(by_campaign["c3_3"], Blocked)
    assert isinstance(by_campaign["c3_1"], Entered)
    assert by_campaign["c3_1"].open_adgroups == ("nike shoes",)


def test_tiers_run_high_to_low(golden_account):
    t = Simulator(golden_account).run(normalize("nike shoes"))
    names = [s.campaign for s in t.steps]
    assert names[0] == "c1"
    assert names[1] == "c2"
    assert set(names[2:]) == {"c3_1", "c3_2", "c3_3"}


def test_brand_query_lands_in_brand_adgroup(golden_account):
    t = Simulator(golden_account).run(normalize("nike"))
    assert t.disposition == Landed(campaign="c2", adgroup="nike")
    t = Simulator(golden_account).run(normalize("cheap adidas gear"))
    assert t.disposition == Landed(campaign="c2", adgroup="adidas")


def test_generic_query_lands_in_catch_all(golden_account):
    t = Simulator(golden_account).run(normalize("running tights"))
    assert t.disposition == Landed(campaign="c1", adgroup="catch-all")


def test_blocked_brand_falls_through(golden_account):
    t = Simulator(golden_account).run(normalize("reebok sale"))
    assert t.disposition.kind == "fell_through"
    assert all(isinstance(s.outcome, Blocked) for s in t.steps)


def test_two_brand_query_dead_ends_in_brand_campaign(golden_account):
    t = Simulator(golden_account).run(normalize("nike adidas"))
    assert t.disposition.kind == "dead_end"
    assert t.disposition.campaign == "c2"


def _low(name: str, index: int, kw: str, negatives=frozenset()) -> Campaign:
    return Campaign(
        name=name,
        priority=Priority.LOW,
        tag=GroupCampaignTag(index),
        negatives=negatives,
        adgroups=(
            AdGroup(
                name=kw,
                tag=RuleTag(normalize(kw)),
                negatives=frozenset(),
                tree=Leaf(Money(1)),
            ),
        ),
    )


def _tiny_account(campaigns) -> Account:
    general = Campaign(
        name="c1",
        priority=Priority.HIGH,
        tag=GeneralCampaignTag(),
        negatives=frozenset({large(normalize("zz"))}),
        adgroups=(
            AdGroup("catch-all", CatchAllTag(), frozenset(), Leaf(Money(1))),
        ),
    )
    return Account(
        limit=100,
        brands=(),
        non_brands=(),
        campaigns=(general,) + tuple(campaigns),
        partition=(),
        erasers=(),
    )


def test_two_admitting_campaigns_is_ambiguous():
    acc = _tiny_account([_low("c3_1", 1, "zz a"), _low("c3_2", 2, "zz b")])
    t = Simulator(acc).run(normalize("zz q"))
    assert t.disposition.kind == "ambiguous"
    assert t.disposition.campaigns == ("c3_1", "c3_2")
    assert t.disposition.adgroups == ()


def test_two_open_adgroups_is_ambiguous():
    camp = Campaign(
        name="c3_1",
        priority=Priority.LOW,
        tag=GroupCampaignTag(1),
        negatives=frozenset(),
        adgroups=(
            AdGroup("a", RuleTag(normalize("a")), frozenset(), Leaf(Money(1))),
            AdGroup("b", RuleTag(normalize("b")), frozenset(), Leaf(Money(1))),
        ),
    )
    t = Simulator(_tiny_account([camp])).run(normalize("zz q"))
    assert t.disposition.kind == "ambiguous"
    assert t.disposition.campaigns == ("c3_1",)
    assert t.disposition.adgroups == ("a", "b")


def test_exact_beats_phrase_beats_large_as_reported_blocker():
    negatives = frozenset(
        {exact(normalize("a b")), phrase(normalize("a")), large(normalize("b"))}
    )
    idx = NegativeIndex(negatives)
    assert idx.first_match(normalize("a b")) == exact(normalize("a b"))
    assert idx.first_match(normalize("a c")) == phrase(normalize("a"))
    assert idx.first_match(normalize("c b")) == large(normalize("b"))
    assert idx.first_match(normalize("c d")) is None


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(
        st.sampled_from(["nike", "adidas", "shoes", "air", "reebok", "zz"]),
        min_size=1,
        max_size=4,
    )
)
def test_every_query_gets_exactly_one_disposition(golden_account, words):
    t = Simulator(golden_account).run(Keyword(tuple(words)))
    assert t.disposition.kind in {"landed", "dead_end", "ambiguous", "fell_through"}
    names = {c.name for c in golden_account.campaigns}
    assert all(s.campaign in names for s in t.steps)


def test_disposition_counts_over_catalogue(golden_account, golden_rules):
    sim = Simulator(golden_account)
    queries = [r.keyword for r in golden_rules] + [normalize("reebok x")]
    counts = Counter(sim.run(q).disposition.kind for q in queries)
    assert counts == {"landed": 11, "fell_through": 1}


def test_simulator_reuse_matches_one_off(golden_account, golden_rules):
    sim = Simulator(golden_account)
    for r in golden_rules[:4]:
        assert sim.run(r.keyword) == Simulator(golden_account).run(r.keyword)


def test_simulate_submodule_is_not_shadowed():
    import shopstruct.simulate as m

    assert isinstance(m, types.ModuleType)
    assert m.Simulator is Simulator
