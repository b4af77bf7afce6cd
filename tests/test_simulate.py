from __future__ import annotations

import functools
import types
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import GOLDEN_BRANDS, GOLDEN_NON_BRANDS, make_golden_rules
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
    MatchType,
    Money,
    NegativeIndex,
    NegativeKeyword,
    Priority,
    Rule,
    RuleTag,
    Simulator,
    SyntheticSpec,
    add_rule,
    build_account,
    exact,
    generate,
    large,
    normalize,
    phrase,
    remove_rule,
)
from shopstruct.keywords import QueryWords, matches
from test_verifier import _mutants


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


# --- the shared indexes against the per-list reference router ---------------

_TIE_WORDS = ("a", "b", "c")
_tie_keywords = st.lists(st.sampled_from(_TIE_WORDS), min_size=1, max_size=3).map(
    lambda words: Keyword(tuple(words))
)
_tie_negatives = st.builds(
    NegativeKeyword, _tie_keywords, st.sampled_from(list(MatchType))
)


@settings(max_examples=200, deadline=None)
@given(
    lists=st.lists(st.frozensets(_tie_negatives, max_size=6), min_size=1, max_size=5),
    query=st.lists(st.sampled_from(_TIE_WORDS), min_size=1, max_size=4),
)
def test_shared_index_gives_each_lists_first_match(lists, query):
    q = Keyword(tuple(query))
    expected = [
        min((n for n in negs if matches(q, n)), key=NegativeKeyword.sort_key, default=None)
        for negs in lists
    ]
    index = NegativeIndex(*lists)
    assert index.first_matches(QueryWords(q)) == expected
    assert [NegativeIndex(negs).first_match(q) for negs in lists] == expected
    hit = sorted({n for negs in lists for n in negs if matches(q, n)}, key=NegativeKeyword.sort_key)
    holders = [sum(1 << i for i, negs in enumerate(lists) if n in negs) for n in hit]
    assert index.hits(QueryWords(q)) == list(zip(hit, holders))
    assert index.blocked(QueryWords(q)) == functools.reduce(int.__or__, holders, 0)


def test_blocker_ties_across_match_types_follow_the_reference():
    a_b, a, b = normalize("a b"), normalize("a"), normalize("b")
    tiers = [
        frozenset({exact(a_b), phrase(a), large(b)}),
        frozenset({phrase(a), large(b)}),
        frozenset({large(b), large(a_b)}),
        frozenset({exact(a_b)}),
    ]
    camps = [_low(f"c3_{i + 1}", i + 1, f"zz w{i}", negs) for i, negs in enumerate(tiers)]
    camps.append(
        Campaign(
            name="c3_9",
            priority=Priority.LOW,
            tag=GroupCampaignTag(9),
            negatives=frozenset(),
            adgroups=tuple(
                AdGroup(f"g{i}", RuleTag(normalize(f"g{i}")), negs, Leaf(Money(1)))
                for i, negs in enumerate(tiers)
            ),
        )
    )
    acc = _tiny_account(camps)
    sim, ref = Simulator(acc), oracles.Simulator(acc)
    for text in ("a b", "b a", "a c", "c b", "a", "b", "c", "a b c", "zz a b"):
        q = normalize(text)
        assert sim.run(q) == ref.run(q)
        for c in acc.campaigns:
            assert sim.campaign_blocker(c.name, q) == ref.campaign_blocker(c.name, q)
            assert sim.open_adgroups(c, q) == ref.open_adgroups(c, q)
    blockers = [sim.campaign_blocker(f"c3_{i}", normalize("a b")) for i in range(1, 5)]
    assert blockers == [exact(a_b), phrase(a), large(a_b), exact(a_b)]


def _tamper(account: Account, kind: str) -> Account:
    """``account`` changed so that some catalogue keyword routes as ``kind``."""
    first = account.group_campaigns()[0]

    def swap(old: Campaign, new: Campaign | None) -> Account:
        camps = tuple(new if c is old else c for c in account.campaigns)
        return replace(account, campaigns=tuple(c for c in camps if c is not None))

    if kind == "ambiguous campaigns":
        return swap(first, replace(first, negatives=frozenset()))
    if kind == "ambiguous ad groups":
        cleared = (replace(first.adgroups[0], negatives=frozenset()),) + first.adgroups[1:]
        return swap(first, replace(first, adgroups=cleared))
    if kind == "dead ends":
        shut = tuple(
            replace(g, negatives=g.negatives | {exact(g.tag.keyword)}) for g in first.adgroups
        )
        return swap(first, replace(first, adgroups=shut))
    assert kind == "fall-through"
    return swap(first, None)


_KIND_OF = {
    "ambiguous campaigns": "ambiguous",
    "ambiguous ad groups": "ambiguous",
    "dead ends": "dead_end",
    "fall-through": "fell_through",
}


@functools.cache
def _routers(name: str) -> tuple[Simulator, oracles.Simulator]:
    account = _routed_accounts()[name]
    return Simulator(account), oracles.Simulator(account)


@functools.cache
def _routed_accounts() -> dict[str, Account]:
    cat = generate(SyntheticSpec(n=300, seed=0))
    synth = build_account(cat.rules, cat.brands, cat.non_brands)
    golden = build_account(
        make_golden_rules(),
        tuple(normalize(b) for b in GOLDEN_BRANDS),
        tuple(normalize(b) for b in GOLDEN_NON_BRANDS),
    )
    out = {"golden": golden, "synth-300": synth}
    for base_name, base in (("golden", golden), ("synth-300", synth)):
        for kind in _KIND_OF:
            out[f"{base_name} {kind}"] = _tamper(base, kind)
    return out


def _assert_same_routing(sim: Simulator, ref, query: Keyword) -> None:
    assert sim.run(query) == ref.run(query)
    for c in sim.account.campaigns:
        assert sim.campaign_blocker(c.name, query) == ref.campaign_blocker(c.name, query)
        assert sim.open_adgroups(c, query) == ref.open_adgroups(c, query)
    assert sim.blocking_campaigns(query) == {
        c.name for c in sim.account.campaigns if ref.campaign_blocker(c.name, query)
    }


@pytest.mark.parametrize("name", sorted(_routed_accounts()))
def test_catalogue_routes_equal_the_reference(name):
    sim, ref = _routers(name)
    account = sim.account
    kinds = Counter()
    for kw in sorted(account.keywords()):
        t = sim.run(kw)
        assert t == ref.run(kw)
        kinds[t.disposition.kind] += 1
    kind = next((k for tamper, k in _KIND_OF.items() if name.endswith(tamper)), "landed")
    assert kinds[kind] > 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(_routed_accounts()))
def test_random_queries_route_as_the_reference(name, data):
    sim, ref = _routers(name)
    account = sim.account
    catalogue = sorted(account.keywords())
    vocabulary = sorted(
        {w for kw in catalogue + list(account.brands + account.non_brands) for w in kw.words}
        | {"zz"}
    )
    words = data.draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=5))
    seed = data.draw(st.sampled_from(catalogue))
    cut = data.draw(st.integers(0, len(seed.words)))
    extra = data.draw(st.lists(st.sampled_from(vocabulary), max_size=2))
    for query in (
        Keyword(tuple(words)),
        seed,
        Keyword(seed.words[:cut] + tuple(extra) + seed.words[cut:]),
    ):
        _assert_same_routing(sim, ref, query)


# --- the verdict-only path against the full route ---------------------------


@functools.cache
def _verdict_accounts() -> dict[str, Account]:
    """The routed accounts, an updated synth-300 account and every verifier
    mutant of the golden and synth-300 accounts."""
    routed = _routed_accounts()
    synth = routed["synth-300"]
    # "bo ka bobe" holds large erasers of two groups, so min-negatives
    # re-covers the groups; removing a rule then leaves stale erasers.
    grown = add_rule(
        synth,
        Rule(normalize("bo ka bobe"), Money(120_000), frozenset({"item-new"})),
        strategy="min-negatives",
    ).account
    out = dict(routed)
    out["synth-300 updated"] = remove_rule(grown, min(synth.keywords())).account
    for base in ("golden", "synth-300"):
        for mutant, account in _mutants(routed[base]).items():
            if mutant != "as built":
                out[f"{base} {mutant}"] = account
    return out


@functools.cache
def _verdict_simulator(name: str) -> Simulator:
    return Simulator(_verdict_accounts()[name])


def _vocabulary(account: Account) -> list[str]:
    special = account.brands + account.non_brands
    return sorted({w for kw in [*account.keywords(), *special] for w in kw.words} | {"zz"})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(_verdict_accounts()))
def test_disposition_equals_the_full_route(name, data):
    sim = _verdict_simulator(name)
    account = sim.account
    vocabulary = _vocabulary(account)
    words = data.draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=5))
    seed = data.draw(
        st.sampled_from(sorted(account.keywords()) + list(account.brands + account.non_brands))
    )
    cut = data.draw(st.integers(0, len(seed.words)))
    extra = data.draw(st.lists(st.sampled_from(vocabulary), max_size=2))
    for query in (
        Keyword(tuple(words)),
        seed,
        Keyword(seed.words[:cut] + tuple(extra) + seed.words[cut:]),
    ):
        assert sim.disposition(query) == sim.run(query).disposition


def test_disposition_meets_every_kind_of_verdict():
    kinds = Counter()
    for name in _verdict_accounts():
        sim = _verdict_simulator(name)
        account = sim.account
        brands = account.brands
        queries = [
            *sorted(account.keywords()),
            *brands,
            *account.non_brands,
            *(Keyword(a.words + b.words) for a, b in zip(brands, brands[1:])),
        ]
        for query in queries:
            verdict = sim.disposition(query)
            assert verdict == sim.run(query).disposition
            kinds[verdict.kind] += 1
    assert set(kinds) == {"landed", "dead_end", "ambiguous", "fell_through"}
