"""Routing verification: prove the built account sends traffic where it claims.

Three routing properties are checked by simulation:

1. own-keyword routing: every catalogue keyword, issued as a query, lands in
   its own ad group in its own group campaign (checked exhaustively);
2. brand routing: a query matching exactly one brand as a phrase, and nothing
   else special, lands in that brand's ad group (checked with seeded probes);
3. generic routing: a query matching no catalogue keyword, no brand and no
   blocked brand lands in the catch-all ad group (seeded probes).

Probes are admissible by construction: no filler is a brand or blocked-brand
word, so a probe holds just the special phrases its brand's own words hold
(none for a generic probe), and a brand whose words hold another brand or a
blocked brand, decided once per brand, has its probes skipped without a draw.

Each query's verdict comes from ``Simulator.disposition``, which reads every
verdict, failing ones included, off the index bitmasks and builds no
trajectory, so a case costs a few mask lookups.

Static structure checks (limits, partition discipline, eraser coverage) run
alongside, and, given the rule catalogue the account was built from, a
catalogue check: every rule keyword has a rule ad group and every account
keyword a rule.  A group campaign's keyword group is read off its rule ad
groups, so partition discipline means that no keyword has rule ad groups in
two group campaigns.  The negatives audit (each group campaign admits its own group's
keywords and blocks every other group's) audits property 1's failures only:
every group campaign is in the Low tier, so a keyword that landed in its own
campaign already proves the audit's claim for it.  The audit reads the campaigns
that refuse a keyword, and the negative each refuses it by, from
``Simulator.blockers``, and one ``Simulator`` serves every check.
Verification never mutates the account and is deterministic for a given seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ._gcpause import gc_paused
from .account import Account, AdGroupTag, BrandTag, CatchAllTag, Rule, RuleTag
from .erasers import erases
from .errors import InputError
from .keywords import Keyword, matches, phrase
from .simulate import Disposition, Landed, Simulator


@dataclass(frozen=True)
class Failure:
    query: Keyword
    expected: str
    actual: str


@dataclass(frozen=True)
class PropertyResult:
    name: str
    checked: int
    failures: tuple[Failure, ...]
    note: str | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Finding:
    """A static structural problem, independent of any query."""

    kind: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    properties: tuple[PropertyResult, ...]
    findings: tuple[Finding, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties) and not self.findings


def describe_disposition(d: Disposition) -> str:
    if d.kind == "landed":
        return f"landed in campaign {d.campaign}, ad group {d.adgroup!r}"
    if d.kind == "dead_end":
        return f"dead end in campaign {d.campaign}"
    if d.kind == "ambiguous":
        if d.adgroups:
            return (
                f"ambiguous between ad groups {', '.join(repr(a) for a in d.adgroups)}"
                f" of campaign {d.campaigns[0]}"
            )
        return f"ambiguous between campaigns {', '.join(d.campaigns)}"
    return "fell through every campaign"


def _landed_tag_matches(sim: Simulator, d: Disposition, campaign: str, tag) -> bool:
    if not isinstance(d, Landed) or d.campaign != campaign:
        return False
    return sim.adgroup_tags[(d.campaign, d.adgroup)] == tag


def _check_routes(
    sim: Simulator,
    name: str,
    cases: Sequence[tuple[Keyword, str, AdGroupTag | None, str]],
    note: str | None,
) -> tuple[PropertyResult, tuple[int, ...]]:
    """Route each (query, campaign, ad-group tag, ad-group description) case.

    A case passes when its query lands in the ad group with that tag in that
    campaign; a None tag matches no ad group.  Also returns the indexes in
    ``cases`` of the failing cases.
    """
    failures = []
    failed = []
    for i, (query, campaign, tag, what) in enumerate(cases):
        d = sim.disposition(query)
        if not _landed_tag_matches(sim, d, campaign, tag):
            failed.append(i)
            failures.append(
                Failure(
                    query=query,
                    expected=f"landed in campaign {campaign}, {what}",
                    actual=describe_disposition(d),
                )
            )
    result = PropertyResult(
        name=name, checked=len(cases), failures=tuple(failures), note=note
    )
    return result, tuple(failed)


def verify_property1(
    sim: Simulator,
) -> tuple[PropertyResult, tuple[tuple[int, Keyword], ...]]:
    """Every catalogue keyword lands in its own ad group, exhaustively.

    Also returns each failing case as its keyword's (partition position,
    keyword), in partition order (keywords sorted within their group), for
    ``verify_structure`` to audit.  A keyword the partition repeats is a
    case at each of its positions.
    """
    group_camps = sim.account.group_campaigns()
    placed = [
        (pos, kw) for pos, camp in enumerate(group_camps) for kw in sorted(camp.group)
    ]
    cases = [
        (kw, group_camps[pos].name, RuleTag(kw), f"ad group for {kw.text!r}")
        for pos, kw in placed
    ]
    note = None if cases else "no catalogue keywords; own-keyword routing is vacuous"
    result, failed = _check_routes(sim, "own-keyword routing", cases, note)
    return result, tuple(placed[i] for i in failed)


def _filler_pool(account: Account) -> list[str]:
    """Filler words that hold no brand or blocked-brand word: the catalogue's
    other words and 16 spare ``zzfill`` ones, so the pool is never empty."""
    excluded = {w for b in account.brands + account.non_brands for w in b.words}
    spares = (w for w in (f"zzfill{i}" for i in itertools.count()) if w not in excluded)
    pool = {w for kw in account.keywords() for w in kw.words}
    pool.update(itertools.islice(spares, 16))
    return sorted(pool - excluded)


def _probe_routing(
    sim: Simulator,
    name: str,
    campaign: str,
    targets: Sequence[tuple[AdGroupTag, str] | None],
    draw: Callable[[AdGroupTag], Keyword],
) -> PropertyResult:
    """Route one seeded probe per (ad-group tag, description) target; a None
    target is a probe skipped without a draw.

    ``draw(tag)`` makes one attempt at an admissible probe query.  A probe
    gets 50 attempts, never uses a catalogue keyword, else is skipped.
    """
    catalogue = sim.account.keywords()
    cases = []
    for tag, what in filter(None, targets):
        attempts = (draw(tag) for _ in range(50))
        query = next((q for q in attempts if q not in catalogue), None)
        if query is not None:
            cases.append((query, campaign, tag, what))
    skipped = len(targets) - len(cases)
    note = f"{skipped} probes skipped (no admissible query found)" if skipped else None
    return _check_routes(sim, name, cases, note)[0]


def _check_probes(probes: int) -> None:
    if probes < 0:
        raise InputError(f"probes must not be negative: {probes}")


def verify_property2(
    sim: Simulator, *, probes: int = 1000, seed: int = 0
) -> PropertyResult:
    """Seeded brand probes: one brand phrase, nothing else special."""
    _check_probes(probes)
    account = sim.account
    if not account.brands:
        return PropertyResult(
            name="brand routing",
            checked=0,
            failures=(),
            note="no brands configured; brand routing is vacuous",
        )
    rng = random.Random(seed)
    pool = _filler_pool(account)
    brand_campaign = account.brand_campaign()
    special = account.brands + account.non_brands

    # One (tag, description) target per brand, shared by its probes; a brand
    # whose words hold another special phrase has no admissible probe.
    target: dict[Keyword, tuple[BrandTag, str] | None] = {}
    for brand in account.brands:
        crowded = [b for b in special if matches(brand, phrase(b))] != [brand]
        target[brand] = None if crowded else (BrandTag(brand), f"ad group for brand {brand.text!r}")

    def draw(tag: BrandTag) -> Keyword:
        fillers = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        cut = rng.randint(0, len(fillers))
        return Keyword(tuple(fillers[:cut]) + tag.brand.words + tuple(fillers[cut:]))

    targets = [target[account.brands[i % len(account.brands)]] for i in range(probes)]
    campaign = brand_campaign.name if brand_campaign else "?"
    return _probe_routing(sim, "brand routing", campaign, targets, draw)


def verify_property3(
    sim: Simulator, *, probes: int = 1000, seed: int = 0
) -> PropertyResult:
    """Seeded generic probes: no catalogue keyword, no brand, no blocked brand."""
    _check_probes(probes)
    account = sim.account
    rng = random.Random(seed)
    pool = _filler_pool(account)

    def draw(tag: CatchAllTag) -> Keyword:
        return Keyword(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))

    targets = [(CatchAllTag(), "the catch-all ad group")] * probes
    general = account.general_campaign().name
    return _probe_routing(sim, "generic routing", general, targets, draw)


def verify_structure(
    sim: Simulator, failures: Sequence[tuple[int, Keyword]]
) -> tuple[Finding, ...]:
    """Static checks: limits, partition discipline, negatives, eraser coverage.

    ``failures`` are property 1's failing cases, as (partition position,
    keyword) in partition order; the negatives audit reads only them.
    """
    account = sim.account
    findings = [
        Finding(kind="limit", detail=account.limit_message(where, count))
        for where, count in account.over_limit().items()
    ]

    seen: dict[Keyword, int] = {}
    for pos, group in enumerate(account.partition):
        for kw in sorted(group):
            if kw in seen:
                findings.append(
                    Finding(
                        kind="partition",
                        detail=(
                            f"keyword {kw.text!r} sits in groups"
                            f" {seen[kw] + 1} and {pos + 1}"
                        ),
                    )
                )
            else:
                seen[kw] = pos

    group_camps = account.group_campaigns()
    # The load-bearing negative invariant: each group campaign admits every
    # keyword of its own group and blocks every keyword of every other
    # group.  Every group campaign sits in the Low tier, the last one, so a
    # keyword that passed property 1 landed in its own campaign after every
    # other campaign refused it: that is the whole invariant for the
    # keyword, and only failing cases are audited.
    for pos, kw in failures:
        camp = group_camps[pos]
        blockers = sim.blockers(kw)
        if camp.name in blockers:
            findings.append(
                Finding(
                    kind="negatives",
                    detail=(
                        f"campaign {camp.name} blocks its own keyword"
                        f" {kw.text!r} via {blockers[camp.name].describe()}"
                    ),
                )
            )
        for other in group_camps:
            if other is camp or other.name in blockers:
                continue
            findings.append(
                Finding(
                    kind="negatives",
                    detail=(
                        f"campaign {other.name} fails"
                        f" to block {kw.text!r} from group {pos + 1}"
                    ),
                )
            )

    for pos, camp in enumerate(group_camps, 1):
        for kw in sorted(camp.group):
            if any(erases(e, kw) for e in camp.erasers):
                continue
            findings.append(
                Finding(
                    kind="erasers",
                    detail=f"no eraser of group {pos} covers its own keyword {kw.text!r}",
                )
            )

    general = account.general_campaign()
    if not any(isinstance(g.tag, CatchAllTag) for g in general.adgroups):
        findings.append(
            Finding(
                kind="adgroups",
                detail=f"campaign {general.name} has no catch-all ad group",
            )
        )
    if account.brands:
        brand_campaign = account.brand_campaign()
        if brand_campaign is None:
            findings.append(
                Finding(
                    kind="campaigns",
                    detail="brands are configured but no brand campaign exists",
                )
            )
        else:
            tagged_brands = {
                g.tag.brand
                for g in brand_campaign.adgroups
                if isinstance(g.tag, BrandTag)
            }
            for b in account.brands:
                if b not in tagged_brands:
                    findings.append(
                        Finding(
                            kind="adgroups",
                            detail=f"no ad group for brand {b.text!r}",
                        )
                    )
    return tuple(findings)


def verify_catalogue(account: Account, rules: Sequence[Rule]) -> tuple[Finding, ...]:
    """The account against the catalogue it was built from: each rule keyword
    with no rule ad group, in catalogue order, then each account keyword with
    no rule, in sorted order."""
    held = account.keywords()
    ruled = {r.keyword for r in rules}
    findings = [
        Finding(kind="catalogue", detail=f"rule keyword {kw.text!r} has no rule ad group")
        for kw in dict.fromkeys(r.keyword for r in rules)
        if kw not in held
    ]
    findings += [
        Finding(kind="catalogue", detail=f"account keyword {kw.text!r} has no rule")
        for kw in sorted(held - ruled)
    ]
    return tuple(findings)


@gc_paused
def verify_account(
    account: Account,
    *,
    probes: int = 1000,
    seed: int = 0,
    rules: Sequence[Rule] | None = None,
) -> VerificationReport:
    """Run all routing properties plus the structural checks on one
    simulator, and, given the ``rules`` the account was built from, the
    catalogue check."""
    _check_probes(probes)
    sim = Simulator(account)
    own_keyword, failures = verify_property1(sim)
    findings = verify_structure(sim, failures)
    if rules is not None:
        findings += verify_catalogue(account, rules)
    return VerificationReport(
        properties=(
            own_keyword,
            verify_property2(sim, probes=probes, seed=seed),
            verify_property3(sim, probes=probes, seed=seed),
        ),
        findings=findings,
    )
