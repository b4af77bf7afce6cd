"""Every query of a small world routes where the tier rules say it must.

The spec, for a query q on an account:

* q holds a blocked-brand phrase: no campaign shows it (fell through);
* q is a catalogue keyword: its own rule ad group, in its group campaign;
* q holds exactly one brand phrase: that brand's ad group;
* q holds no brand phrase: the High campaign's catch-all;
* q holds two or more brand phrases: a dead end in the brand campaign.  Each
  brand ad group blocks every other brand, so such a query enters the
  Medium tier and finds no open ad group.  That is intended: no single
  brand's bid fits a query that names two, and a dead end is absorbed, not
  passed on to the Low tier.

Every query of 1 to 4 words over a world's words plus one filler word is
routed, on reduced builds, naive builds and accounts after seeded updates,
with the worlds' words spelled in rank order and in a shuffled order.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
import pytest

from shopstruct import (
    Account,
    BuildConfig,
    Keyword,
    Money,
    NegativeKeyword,
    Rule,
    Simulator,
    SyntheticSpec,
    add_rule,
    build_account,
    generate,
    phrase,
    remove_rule,
)
from shopstruct.builder import CATCH_ALL_ADGROUP
from shopstruct.keywords import matches
from shopstruct.simulate import DeadEnd, Disposition, FellThrough, Landed
from test_verifier import _drop_adgroup_negative, _drop_campaign_negative

FILLER = "zzfill"
WORLD_SEEDS = range(11)


def routing_spec(account: Account):
    """Where each query must land on ``account``, by the tier rules alone: a
    function from query to disposition."""
    blocked = [phrase(b) for b in account.non_brands]
    brands = [(b.text, phrase(b)) for b in account.brands]
    owner = {kw: c.name for c in account.group_campaigns() for kw in c.group}
    general = Landed(account.general_campaign().name, CATCH_ALL_ADGROUP)
    brand_campaign = account.brand_campaign()

    def route(query: Keyword) -> Disposition:
        if any(matches(query, neg) for neg in blocked):
            return FellThrough()
        if query in owner:
            return Landed(owner[query], query.text)
        named = [text for text, neg in brands if matches(query, neg)]
        if not named:
            return general
        if len(named) == 1:
            return Landed(brand_campaign.name, named[0])
        return DeadEnd(brand_campaign.name)

    return route


def _spec_class(account: Account, query: Keyword) -> str:
    d = routing_spec(account)(query)
    if d.kind != "landed":
        return "blocked brand" if d.kind == "fell_through" else "several brands"
    if d.campaign == account.general_campaign().name:
        return "generic"
    return "catalogue" if query in account.keywords() else "one brand"


def _world(seed: int, shuffled: bool = False):
    return generate(
        SyntheticSpec(
            n=4 + seed,
            vocab_size=6,
            brand_count=2,
            non_brand_count=1,
            seed=seed,
            shuffle_spellings=shuffled,
        )
    )


def _queries(account: Account) -> list[Keyword]:
    """Every query of 1 to 4 words over the account's words and a filler."""
    special = account.brands + account.non_brands
    words = sorted({w for kw in [*account.keywords(), *special] for w in kw.words})
    words.append(FILLER)
    return [
        Keyword(q) for size in range(1, 5) for q in itertools.product(words, repeat=size)
    ]


def _updated(account: Account, seed: int) -> Account:
    """``account`` after seeded adds over its plain words and one removal."""
    rng = random.Random(seed)
    blocked = {w for b in account.non_brands for w in b.words}
    plain = sorted({w for kw in account.keywords() for w in kw.words} - blocked)
    for i in range(6):
        kw = Keyword(tuple(rng.sample(plain, rng.randint(1, min(3, len(plain))))))
        if kw not in account.keywords():
            rule = Rule(kw, Money(50_000), frozenset({f"item-new-{i}"}))
            account = add_rule(account, rule).account
    return remove_rule(account, min(account.keywords())).account


@functools.cache
def _accounts(seed: int, shuffled: bool = False) -> dict[str, Account]:
    cat = _world(seed, shuffled)
    reduced = build_account(cat.rules, cat.brands, cat.non_brands)
    naive = build_account(
        cat.rules, cat.brands, cat.non_brands, config=BuildConfig(mode="naive")
    )
    return {"reduced": reduced, "naive": naive, "updated": _updated(reduced, seed)}


def _violations(account: Account) -> list[tuple[Keyword, Disposition, Disposition]]:
    sim, spec = Simulator(account), routing_spec(account)
    out = []
    for query in _queries(account):
        want = spec(query)
        got = sim.disposition(query)
        if got != want:
            out.append((query, want, got))
    return out


@pytest.mark.parametrize("seed", WORLD_SEEDS)
def test_every_small_query_routes_by_the_spec(seed):
    for kind, account in _accounts(seed).items():
        violations = _violations(account)
        assert violations == [], (kind, violations[:5])


@pytest.mark.parametrize("seed", WORLD_SEEDS)
def test_every_small_query_routes_by_the_spec_with_shuffled_spellings(seed):
    # The same worlds with their words spelled in a seeded random order, so
    # a keyword's smallest word is no longer its most frequent one.
    for kind, account in _accounts(seed, shuffled=True).items():
        violations = _violations(account)
        assert violations == [], (kind, violations[:5])


def test_the_worlds_meet_every_class_of_the_spec():
    account = _accounts(0)["reduced"]
    classes = Counter(_spec_class(account, q) for q in _queries(account))
    assert set(classes) == {
        "blocked brand", "catalogue", "one brand", "generic", "several brands"
    }
    assert classes["catalogue"] == len(account.keywords())


@pytest.mark.parametrize("kind", ["reduced", "naive", "updated"])
def test_one_dropped_negative_breaks_the_spec(kind):
    account = _accounts(0)[kind]
    camp = next(c for c in account.group_campaigns() if len(c.adgroups) > 1)
    adgroup = camp.adgroups[0]
    first = NegativeKeyword.sort_key
    leaky = _drop_campaign_negative(account, camp.name, min(camp.negatives, key=first))
    assert _violations(leaky)
    negative = min(adgroup.negatives, key=first)
    assert _violations(_drop_adgroup_negative(account, camp.name, adgroup.name, negative))
