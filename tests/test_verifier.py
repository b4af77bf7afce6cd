from __future__ import annotations

import functools
import json
from dataclasses import replace

import pytest

import oracles
from conftest import LIMIT_CATALOGUES
from shopstruct import (
    InputError,
    MatchType,
    RuleTag,
    Simulator,
    SyntheticCatalogue,
    SyntheticSpec,
    build_account,
    exact,
    generate,
    large,
    normalize,
    parse_account_document,
    render_account,
    verify_account,
)
from shopstruct.verify import (
    Finding,
    describe_disposition,
    verify_catalogue,
    verify_property1,
    verify_property2,
    verify_property3,
    verify_structure,
)
from shopstruct.verify import _filler_pool


def _drop_campaign_negative(account, campaign_name, negative):
    campaigns = []
    for c in account.campaigns:
        if c.name == campaign_name:
            assert negative in c.negatives
            c = replace(c, negatives=c.negatives - {negative})
        campaigns.append(c)
    return replace(account, campaigns=tuple(campaigns))


def _drop_adgroup_negative(account, campaign_name, adgroup_name, negative):
    campaigns = []
    for c in account.campaigns:
        if c.name == campaign_name:
            adgroups = []
            for g in c.adgroups:
                if g.name == adgroup_name:
                    assert negative in g.negatives
                    g = replace(g, negatives=g.negatives - {negative})
                adgroups.append(g)
            c = replace(c, adgroups=tuple(adgroups))
        campaigns.append(c)
    return replace(account, campaigns=tuple(campaigns))


def test_golden_account_verifies(golden_account):
    report = verify_account(golden_account, probes=200, seed=7)
    assert report.passed
    assert report.findings == ()
    p1, p2, p3 = report.properties
    assert p1.name == "own-keyword routing"
    assert p1.checked == 11
    assert p1.failures == ()
    assert p2.checked > 0
    assert p3.checked > 0


def test_verification_is_deterministic(golden_account):
    a = verify_account(golden_account, probes=100, seed=3)
    b = verify_account(golden_account, probes=100, seed=3)
    assert a == b


def test_verify_leaves_account_snapshot_untouched(golden_account):
    before = render_account(golden_account)
    verify_account(golden_account, probes=100, seed=1)
    assert render_account(golden_account) == before


def test_missing_cross_group_blocker_is_caught(golden_account):
    # without the shared brand-word eraser, group 1's keywords leak into
    # group 2's campaign
    broken = _drop_campaign_negative(
        golden_account, "c3_2", large(normalize("nike"))
    )
    report = verify_account(broken, probes=50, seed=0)
    assert not report.passed
    p1 = report.properties[0]
    assert any("ambiguous" in f.actual for f in p1.failures)
    assert any(
        f.kind == "negatives" and "fails to block" in f.detail
        for f in report.findings
    )


def test_missing_sibling_negative_is_caught(golden_account):
    broken = _drop_adgroup_negative(
        golden_account,
        "c3_1",
        "nike shoes",
        exact(normalize("nike soccer white")),
    )
    report = verify_account(broken, probes=50, seed=0)
    p1 = report.properties[0]
    assert any(
        "nike soccer white" in " ".join(f.query.words) for f in p1.failures
    )
    assert not report.passed


def test_self_blocking_campaign_is_caught(golden_account):
    # an eraser for the group's own keyword would block its own traffic
    broken = _drop_campaign_negative(
        golden_account, "c3_1", large(normalize("adidas"))
    )
    campaigns = []
    for c in broken.campaigns:
        if c.name == "c3_1":
            c = replace(
                c, negatives=c.negatives | {large(normalize("nike"))}
            )
        campaigns.append(c)
    broken = replace(broken, campaigns=tuple(campaigns))
    report = verify_account(broken, probes=50, seed=0)
    assert any(
        f.kind == "negatives" and "its own keyword" in f.detail
        for f in report.findings
    )
    assert not report.passed


def test_partition_tampering_is_caught(golden_account):
    moved = normalize("nike shoes")
    first, second = golden_account.group_campaigns()[:2]
    assert moved in first.group
    adgroup = _rule_adgroup(first, moved)
    broken = _with_campaign(
        golden_account, first.name, adgroups=tuple(g for g in first.adgroups if g is not adgroup)
    )
    broken = _with_campaign(broken, second.name, adgroups=second.adgroups + (adgroup,))
    assert moved in broken.group_campaigns()[1].group
    sim = Simulator(broken)
    findings = verify_structure(sim, verify_property1(sim)[1])
    assert {f.kind for f in findings} == {"negatives", "erasers"}
    assert all("nike shoes" in f.detail for f in findings)


def test_limit_findings(golden_account):
    report = verify_account(
        replace(golden_account, limit=3), probes=10, seed=0
    )
    assert any(f.kind == "limit" for f in report.findings)
    assert not report.passed


def test_no_brand_catalogue_notes_vacuous_brand_property(four_rules):
    account = build_account(four_rules, (), (normalize("reebok"),))
    p2 = verify_property2(Simulator(account), probes=50, seed=0)
    assert p2.passed
    assert p2.checked == 0
    assert p2.note is not None


def test_negative_probe_counts_are_input_errors(golden_account, four_rules):
    no_brands = build_account(four_rules, (), (normalize("reebok"),))
    for account in (golden_account, no_brands):
        for check in (verify_property2, verify_property3):
            with pytest.raises(InputError, match="^probes must not be negative: -5$"):
                check(Simulator(account), probes=-5)
    with pytest.raises(InputError, match="^probes must not be negative: -1$"):
        verify_account(golden_account, probes=-1)
    assert verify_account(golden_account, probes=0).passed


def test_property3_probes_avoid_catalogue_collisions(golden_account):
    p3 = verify_property3(Simulator(golden_account), probes=300, seed=11)
    assert p3.passed
    assert p3.checked > 100


@pytest.mark.parametrize("blocked", [False, True], ids=["brand", "blocked brand"])
def test_a_special_phrase_named_like_a_spare_filler_leaves_the_pool(
    golden_rules, golden_brands, golden_non_brands, blocked
):
    # Every filler word is tested against the brand and blocked-brand words,
    # the spare zzfill words too, so no generic probe is ever inadmissible
    # and the pool still holds 16 spares.
    spare = (normalize("zzfill3"),)
    if blocked:
        account = build_account(golden_rules, golden_brands, golden_non_brands + spare)
    else:
        account = build_account(golden_rules, golden_brands + spare, golden_non_brands)
    pool = _filler_pool(account)
    assert "zzfill3" not in pool
    assert {f"zzfill{i}" for i in range(17)} - {"zzfill3"} <= set(pool)
    p3 = verify_property3(Simulator(account), probes=1000)
    assert (p3.checked, p3.failures, p3.note) == (1000, (), None)
    assert verify_account(account, probes=1000).passed


@pytest.mark.parametrize("seed", [0, 1])
def test_crowded_brands_are_skipped_as_the_reference_skips_them(golden_rules, seed):
    # "nike air" holds the brand "air", and "nike outlet" the blocked brand
    # "outlet": no probe of theirs holds one brand phrase and nothing else
    # special, so their 200 of the 300 probes are skipped and "air" gets 100.
    brands = tuple(normalize(b) for b in ("air", "nike air", "nike outlet"))
    account = build_account(golden_rules, brands, (normalize("outlet"),))
    report = verify_account(account, probes=300, seed=seed)
    assert report == oracles.verify_account(account, probes=300, seed=seed)
    p2 = report.properties[1]
    assert (p2.checked, p2.failures) == (100, ())
    assert p2.note == "200 probes skipped (no admissible query found)"


def test_describe_disposition_strings(golden_account):
    sim = Simulator(golden_account)
    landed = sim.run(normalize("nike shoes")).disposition
    assert "landed" in describe_disposition(landed)
    fell = sim.run(normalize("reebok")).disposition
    assert "fell through" in describe_disposition(fell)


def _with_campaign(account, name, **fields):
    campaigns = tuple(
        replace(c, **fields) if c.name == name else c for c in account.campaigns
    )
    return replace(account, campaigns=campaigns)


def _rule_adgroup(campaign, keyword):
    return next(g for g in campaign.adgroups if g.tag == RuleTag(keyword))


def _with_rule_adgroup_copied(account, source, target, keyword):
    """``account`` with ``keyword``'s ad group in ``source`` also in ``target``."""
    adgroups = target.adgroups + (_rule_adgroup(source, keyword),)
    return _with_campaign(account, target.name, adgroups=adgroups)


def _first_negative(campaign, match):
    return min(
        (n for n in campaign.negatives if n.match is match),
        key=lambda n: n.sort_key(),
    )


def _mutants(account):
    """The account plus one tampered copy per kind of structural fault, and
    one that is no fault: a group is read off its rule ad groups, so a
    removed rule ad group takes its keyword out of the account, and the
    account left is sound.  (A snapshot that drops the ad group but still
    lists the keyword is bad input instead.)"""
    camps = account.group_campaigns()
    first, second = camps[0], camps[1]
    with_large = next(
        c for c in camps if any(n.match is MatchType.LARGE for n in c.negatives)
    )
    with_exact = next(
        c for c in camps if any(n.match is MatchType.EXACT for n in c.negatives)
    )
    with_rules = next(c for c in camps if len(c.adgroups) > 1)
    rule_group = next(g for g in with_rules.adgroups if isinstance(g.tag, RuleTag))
    a, b = with_rules.adgroups[:2]
    swapped = (
        replace(a, negatives=b.negatives),
        replace(b, negatives=a.negatives),
    ) + with_rules.adgroups[2:]
    general = account.general_campaign()
    kept = sorted(general.negatives, key=lambda n: n.sort_key())
    kept = frozenset(kept[: len(kept) // 2])
    # Two groups may hold one keyword; each copy is its own property 1 case,
    # and its audit findings must name that copy's group.
    last = camps[-1]
    return {
        "as built": account,
        "large negative dropped": _with_campaign(
            account,
            with_large.name,
            negatives=with_large.negatives
            - {_first_negative(with_large, MatchType.LARGE)},
        ),
        "exact negative dropped": _with_campaign(
            account,
            with_exact.name,
            negatives=with_exact.negatives
            - {_first_negative(with_exact, MatchType.EXACT)},
        ),
        "another group's negatives added": _with_campaign(
            account, first.name, negatives=first.negatives | second.negatives
        ),
        "rule ad group removed": _with_campaign(
            account,
            with_rules.name,
            adgroups=tuple(g for g in with_rules.adgroups if g is not rule_group),
        ),
        "sibling ad groups swap negatives": _with_campaign(
            account, with_rules.name, adgroups=swapped
        ),
        "High campaign half its negatives": _with_campaign(
            account, general.name, negatives=kept
        ),
        "keyword also in a later group": _with_rule_adgroup_copied(
            account, first, second, min(first.group)
        ),
        "keyword also in an earlier group": _with_rule_adgroup_copied(
            account, last, first, min(last.group)
        ),
    }


@functools.cache
def _synth_bases() -> dict[str, SyntheticCatalogue]:
    """Synth n=300 seeds 0 and 1, and seed 0 with shuffled spellings."""
    specs = {f"synth-300-{seed}": SyntheticSpec(n=300, seed=seed) for seed in (0, 1)}
    specs["synth-300-0-shuffled"] = SyntheticSpec(n=300, seed=0, shuffle_spellings=True)
    return {name: generate(spec) for name, spec in specs.items()}


@pytest.fixture(scope="module")
def base_rules(golden_rules):
    """The rule catalogue of each base account."""
    return {"golden": golden_rules} | {name: cat.rules for name, cat in _synth_bases().items()}


@pytest.fixture(scope="module")
def base_accounts(golden_account):
    bases = {"golden": golden_account}
    for name, cat in _synth_bases().items():
        bases[name] = build_account(cat.rules, cat.brands, cat.non_brands)
    return bases


@pytest.fixture(scope="module")
def equivalence_accounts(base_accounts):
    return {
        (base, mutant): tampered
        for base, account in base_accounts.items()
        for mutant, tampered in _mutants(account).items()
    }


@pytest.mark.parametrize("base", ["golden", "synth-300-0", "synth-300-1"])
def test_dropped_group_campaign_is_bad_input(base_accounts, base):
    # A group campaign carries its erasers and the ad groups its keywords are
    # read off, so an account cannot lose one without the other; a snapshot
    # that does is rejected on parse.
    doc = json.loads(render_account(base_accounts[base]))
    k = len(doc["erasers"])
    last = max(i for i, c in enumerate(doc["campaigns"]) if c["tag"]["kind"] == "group")
    del doc["campaigns"][last]
    with pytest.raises(InputError, match=f"^erasers lists {k} groups for {k - 1} group"):
        parse_account_document(doc)


@pytest.mark.parametrize(
    "base", ["golden", "synth-300-0", "synth-300-1", "synth-300-0-shuffled"]
)
@pytest.mark.parametrize(
    "mutant",
    [
        "as built",
        "large negative dropped",
        "exact negative dropped",
        "another group's negatives added",
        "rule ad group removed",
        "sibling ad groups swap negatives",
        "High campaign half its negatives",
        "keyword also in a later group",
        "keyword also in an earlier group",
    ],
)
def test_report_equals_reference_verifier(equivalence_accounts, base, mutant):
    # The reference routes each property on its own simulator and audits
    # negatives with its own n x k lookups; reports must match it whole.
    account = equivalence_accounts[(base, mutant)]
    for seed in (0, 1):
        expected = oracles.verify_account(account, probes=200, seed=seed)
        assert verify_account(account, probes=200, seed=seed) == expected
    assert expected.passed == (mutant in ("as built", "rule ad group removed"))


def test_partition_findings_come_in_partition_then_keyword_order(base_accounts):
    # Three keywords of group 1 and three of group 3 also sit in group 2:
    # group 2 repeats group 1's, and group 3 repeats the ones group 2 took.
    account = base_accounts["synth-300-0"]
    first, second, third = account.group_campaigns()[:3]
    earlier, later = sorted(first.group)[-3:], sorted(third.group)[:3]
    for source, keywords in ((first, earlier), (third, later)):
        for kw in keywords:
            account = _with_rule_adgroup_copied(account, source, second, kw)
            second = account.group_campaigns()[1]
    findings = verify_structure(Simulator(account), ())
    expected = [f"keyword {kw.text!r} sits in groups 1 and 2" for kw in earlier]
    expected += [f"keyword {kw.text!r} sits in groups 2 and 3" for kw in later]
    assert [f.detail for f in findings if f.kind == "partition"] == expected
    reference = oracles.verify_structure(account)
    assert [f.detail for f in reference if f.kind == "partition"] == expected


@pytest.mark.parametrize("name", LIMIT_CATALOGUES)
def test_limit_findings_equal_the_reference(unlimited_accounts, name):
    unlimited = unlimited_accounts[name]
    sizes = sorted(set(oracles.list_sizes(unlimited).values()) - {0})
    # Every list over 1, about half of them, only the largest, none.
    for limit in {1, sizes[len(sizes) // 2], sizes[-1] - 1, sizes[-1]} - {0}:
        account = replace(unlimited, limit=limit)
        report = verify_account(account, probes=20)
        assert report == oracles.verify_account(account, probes=20)
        limits = [f.detail for f in report.findings if f.kind == "limit"]
        over = {w: n for w, n in oracles.list_sizes(account).items() if n > limit}
        assert limits == [
            f"{w} holds {n} negatives, over the limit of {limit}" for w, n in over.items()
        ]


@pytest.mark.parametrize("base", ["golden", "synth-300-0", "synth-300-1"])
def test_rules_catch_a_removed_rule_adgroup(base_accounts, base_rules, base):
    # Without its catalogue the mutant verifies clean; with it, the keyword
    # whose rule ad group went is the one catalogue finding.
    account, rules = base_accounts[base], base_rules[base]
    mutant = _mutants(account)["rule ad group removed"]
    [gone] = account.keywords() - mutant.keywords()
    assert verify_account(mutant, probes=200).passed
    report = verify_account(mutant, probes=200, rules=rules)
    assert not report.passed
    assert report.findings == (
        Finding(kind="catalogue", detail=f"rule keyword {gone.text!r} has no rule ad group"),
    )
    assert verify_account(account, probes=200, rules=rules) == verify_account(account, probes=200)


def test_rules_catch_an_account_keyword_with_no_rule(golden_account, golden_rules):
    # Rule keywords with no ad group come in catalogue order, then account
    # keywords with no rule in sorted order.
    dropped = [golden_rules[3], golden_rules[0]]
    rules = [r for r in golden_rules if r not in dropped] + [
        replace(golden_rules[0], keyword=normalize("zz top")),
        replace(golden_rules[0], keyword=normalize("aa first")),
    ]
    details = [f.detail for f in verify_catalogue(golden_account, rules)]
    assert details == [
        "rule keyword 'zz top' has no rule ad group",
        "rule keyword 'aa first' has no rule ad group",
        "account keyword 'adidas running shoes' has no rule",
        "account keyword 'nike shoes' has no rule",
    ]
