"""Routing verification: prove the built account sends traffic where it claims.

Three routing properties are checked by simulation:

1. own-keyword routing: every catalogue keyword, issued as a query, lands in
   its own ad group in its own group campaign (checked exhaustively);
2. brand routing: a query matching exactly one brand as a phrase, and nothing
   else special, lands in that brand's ad group (checked with seeded probes);
3. generic routing: a query matching no catalogue keyword, no brand and no
   blocked brand lands in the catch-all ad group (seeded probes).

Each query's verdict comes from ``Simulator.disposition``, which reads a
landing off the index bitmasks and builds a full trajectory only for a query
that does not land, so a passing case costs a few mask lookups.

Static structure checks (limits, partition discipline, eraser strictness and
coverage) run alongside.  The negatives audit (each group campaign admits its
own group's keywords and blocks every other group's) starts from property 1's
failures: a keyword that landed in its own campaign, with no group campaign in
a lower tier, already proves the audit's claim for it.  The audit reads its
verdicts from the same bitmasks, and one ``Simulator`` serves every check.
Verification never mutates the account and is deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .account import Account, AdGroupTag, BrandTag, CatchAllTag, RuleTag
from .erasers import erases
from .keywords import Keyword, subword_set, word_set
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
    account = sim.account
    group_camps = account.group_campaigns()
    aligned = len(group_camps) == len(account.partition)
    camps = [c.name for c in group_camps] if aligned else ["?"] * len(account.partition)
    placed = [
        (pos, kw) for pos, group in enumerate(account.partition) for kw in sorted(group)
    ]
    cases = [
        (kw, camps[pos], RuleTag(kw) if aligned else None, f"ad group for {kw.text!r}")
        for pos, kw in placed
    ]
    note = None if cases else "no catalogue keywords; own-keyword routing is vacuous"
    result, failed = _check_routes(sim, "own-keyword routing", cases, note)
    return result, tuple(placed[i] for i in failed)


def _filler_pool(account: Account) -> list[str]:
    """Filler words that can never form a brand or blocked-brand phrase."""
    excluded: set[str] = set()
    for b in account.brands:
        excluded.update(word_set(b))
    for b in account.non_brands:
        excluded.update(word_set(b))
    pool: set[str] = set()
    for kw in account.keywords():
        pool.update(word_set(kw) - excluded)
    pool.update(f"zzfill{i}" for i in range(16))
    return sorted(pool)


def _probe_routing(
    sim: Simulator,
    name: str,
    campaign: str,
    targets: Sequence[tuple[AdGroupTag, str]],
    draw: Callable[[AdGroupTag], Keyword | None],
) -> PropertyResult:
    """Route one seeded probe per (ad-group tag, description) target.

    ``draw(tag)`` makes one attempt at a probe query, None if inadmissible.  A
    probe gets 50 attempts, never uses a catalogue keyword, else is skipped.
    """
    catalogue = sim.account.keywords()
    cases = []
    for tag, what in targets:
        attempts = (draw(tag) for _ in range(50))
        query = next((q for q in attempts if q is not None and q not in catalogue), None)
        if query is not None:
            cases.append((query, campaign, tag, what))
    skipped = len(targets) - len(cases)
    note = f"{skipped} probes skipped (no admissible query found)" if skipped else None
    return _check_routes(sim, name, cases, note)[0]


def verify_property2(
    sim: Simulator, *, probes: int = 1000, seed: int = 0
) -> PropertyResult:
    """Seeded brand probes: one brand phrase, nothing else special."""
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

    def draw(tag: BrandTag) -> Keyword | None:
        fillers = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        cut = rng.randint(0, len(fillers))
        q = Keyword(tuple(fillers[:cut]) + tag.brand.words + tuple(fillers[cut:]))
        runs = subword_set(q)
        if sum(1 for b in account.brands if b.words in runs) != 1:
            return None
        if any(b.words in runs for b in account.non_brands):
            return None
        return q

    brands = [account.brands[i % len(account.brands)] for i in range(probes)]
    targets = [(BrandTag(b), f"ad group for brand {b.text!r}") for b in brands]
    campaign = brand_campaign.name if brand_campaign else "?"
    return _probe_routing(sim, "brand routing", campaign, targets, draw)


def verify_property3(
    sim: Simulator, *, probes: int = 1000, seed: int = 0
) -> PropertyResult:
    """Seeded generic probes: no catalogue keyword, no brand, no blocked brand."""
    account = sim.account
    rng = random.Random(seed)
    pool = _filler_pool(account)
    special = account.brands + account.non_brands

    def draw(tag: CatchAllTag) -> Keyword | None:
        q = Keyword(tuple(rng.choice(pool) for _ in range(rng.randint(1, 4))))
        runs = subword_set(q)
        return None if any(b.words in runs for b in special) else q

    targets = [(CatchAllTag(), "the catch-all ad group")] * probes
    general = account.general_campaign().name
    return _probe_routing(sim, "generic routing", general, targets, draw)


def verify_structure(
    sim: Simulator, failures: Sequence[tuple[int, Keyword]]
) -> tuple[Finding, ...]:
    """Static checks: limits, partition discipline, negatives, eraser coverage.

    ``failures`` are property 1's failing cases, as (partition position,
    keyword) in partition order; the negatives audit starts from them.
    """
    account = sim.account
    findings: list[Finding] = []

    for c in account.campaigns:
        if len(c.negatives) > account.limit:
            findings.append(
                Finding(
                    kind="limit",
                    detail=(
                        f"campaign {c.name} holds {len(c.negatives)} negatives,"
                        f" over the limit of {account.limit}"
                    ),
                )
            )
        for g in c.adgroups:
            if len(g.negatives) > account.limit:
                findings.append(
                    Finding(
                        kind="limit",
                        detail=(
                            f"ad group {g.name!r} of campaign {c.name} holds"
                            f" {len(g.negatives)} negatives, over the limit"
                            f" of {account.limit}"
                        ),
                    )
                )

    seen: dict[Keyword, int] = {}
    for pos, group in enumerate(account.partition):
        for kw in group:
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
    if len(group_camps) != len(account.partition):
        findings.append(
            Finding(
                kind="alignment",
                detail=(
                    f"{len(group_camps)} group campaigns for"
                    f" {len(account.partition)} keyword groups"
                ),
            )
        )
    else:
        for pos, (camp, group) in enumerate(zip(group_camps, account.partition)):
            tagged = {
                g.tag.keyword
                for g in camp.adgroups
                if isinstance(g.tag, RuleTag)
            }
            for kw in sorted(group - tagged):
                findings.append(
                    Finding(
                        kind="adgroups",
                        detail=(
                            f"campaign {camp.name} lacks an ad group for"
                            f" keyword {kw.text!r}"
                        ),
                    )
                )
            for kw in sorted(tagged - group):
                findings.append(
                    Finding(
                        kind="adgroups",
                        detail=(
                            f"campaign {camp.name} has an ad group for"
                            f" {kw.text!r}, which is not in its group"
                        ),
                    )
                )

        # The load-bearing negative invariant: each group campaign admits every
        # keyword of its own group and blocks every keyword of every other
        # group.  A keyword that passed property 1 landed in its own campaign:
        # every campaign of a higher tier and every other campaign of that
        # tier refused it.  When no group campaign sits in a lower tier, that
        # is the whole invariant for the keyword, so only failing cases are
        # audited; a group campaign above that lowest tier has every keyword
        # audited.
        lowest = min((c.priority for c in group_camps), default=None)
        failing: dict[int, list[Keyword]] = {}
        for pos, kw in failures:
            failing.setdefault(pos, []).append(kw)
        for pos, (camp, group) in enumerate(zip(group_camps, account.partition)):
            audited = failing.get(pos, []) if camp.priority == lowest else sorted(group)
            for kw in audited:
                blocking = sim.blocking_campaigns(kw)
                if camp.name in blocking:
                    hit = sim.campaign_blocker(camp.name, kw)
                    findings.append(
                        Finding(
                            kind="negatives",
                            detail=(
                                f"campaign {camp.name} blocks its own"
                                f" keyword {kw.text!r} via {hit.describe()}"
                            ),
                        )
                    )
                for other_pos, other in enumerate(group_camps):
                    if other_pos == pos or other.name in blocking:
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

    for pos, erasers in enumerate(account.erasers):
        own = account.partition[pos]
        uncovered = [kw for kw in sorted(own) if not any(erases(e, kw) for e in erasers)]
        for kw in uncovered:
            findings.append(
                Finding(
                    kind="erasers",
                    detail=(
                        f"no eraser of group {pos + 1} covers its own"
                        f" keyword {kw.text!r}"
                    ),
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


def verify_account(
    account: Account, *, probes: int = 1000, seed: int = 0
) -> VerificationReport:
    """Run all routing properties plus the structural checks on one simulator."""
    sim = Simulator(account)
    own_keyword, failures = verify_property1(sim)
    return VerificationReport(
        properties=(
            own_keyword,
            verify_property2(sim, probes=probes, seed=seed),
            verify_property3(sim, probes=probes, seed=seed),
        ),
        findings=verify_structure(sim, failures),
    )
