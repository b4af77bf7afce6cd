from __future__ import annotations

from dataclasses import replace

import pytest

import oracles
from shopstruct import (
    MatchType,
    Priority,
    RuleTag,
    Simulator,
    SyntheticSpec,
    build_account,
    exact,
    generate,
    large,
    normalize,
    render_account,
    verify_account,
)
from shopstruct.verify import (
    describe_disposition,
    verify_property1,
    verify_property2,
    verify_property3,
    verify_structure,
)


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
    partition = list(golden_account.partition)
    partition[0] = partition[0] - {moved}
    partition[1] = partition[1] | {moved}
    broken = replace(golden_account, partition=tuple(partition))
    sim = Simulator(broken)
    findings = verify_structure(sim, verify_property1(sim)[1])
    assert findings
    assert any("nike shoes" in f.detail for f in findings)


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


def test_property3_probes_avoid_catalogue_collisions(golden_account):
    p3 = verify_property3(Simulator(golden_account), probes=300, seed=11)
    assert p3.passed
    assert p3.checked > 100


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


def _first_negative(campaign, match):
    return min(
        (n for n in campaign.negatives if n.match is match),
        key=lambda n: n.sort_key(),
    )


def _mutants(account):
    """The account plus one tampered copy per kind of structural fault."""
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
    # The partition may repeat a keyword; each copy is its own property 1 case,
    # and its audit findings must name that copy's group.
    parts = account.partition
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
        "group campaign removed": replace(
            account,
            campaigns=tuple(c for c in account.campaigns if c is not camps[-1]),
        ),
        "group campaign in Medium": _with_campaign(
            account, first.name, priority=Priority.MEDIUM
        ),
        "group campaign in High": _with_campaign(
            account, second.name, priority=Priority.HIGH
        ),
        # Group 1's keywords land in Medium and never meet the Low tier, where
        # the second campaign no longer blocks them: only the audit sees it.
        "group campaign in Medium over a leaky one": _with_campaign(
            _with_campaign(account, first.name, priority=Priority.MEDIUM),
            second.name,
            negatives=second.negatives
            - {e.to_negative() for e in account.erasers[0]},
        ),
        "High campaign half its negatives": _with_campaign(
            account, general.name, negatives=kept
        ),
        "keyword also in a later group": replace(
            account, partition=(parts[0], parts[1] | {min(parts[0])}) + parts[2:]
        ),
        "keyword also in an earlier group": replace(
            account, partition=(parts[0] | {min(parts[-1])},) + parts[1:]
        ),
    }


@pytest.fixture(scope="module")
def equivalence_accounts(golden_account):
    bases = {"golden": golden_account}
    for seed in (0, 1):
        cat = generate(SyntheticSpec(n=300, seed=seed))
        bases[f"synth-300-{seed}"] = build_account(
            cat.rules, cat.brands, cat.non_brands
        )
    return {
        (base, mutant): tampered
        for base, account in bases.items()
        for mutant, tampered in _mutants(account).items()
    }


@pytest.mark.parametrize("base", ["golden", "synth-300-0", "synth-300-1"])
@pytest.mark.parametrize(
    "mutant",
    [
        "as built",
        "large negative dropped",
        "exact negative dropped",
        "another group's negatives added",
        "rule ad group removed",
        "sibling ad groups swap negatives",
        "group campaign removed",
        "group campaign in Medium",
        "group campaign in High",
        "group campaign in Medium over a leaky one",
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
    if mutant != "as built":
        assert not expected.passed
