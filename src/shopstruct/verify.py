"""Routing verification: prove the built account sends traffic where it claims.

Three routing properties are checked by simulation:

1. own-keyword routing: every catalogue keyword, issued as a query, lands in
   its own ad group in its own group campaign (checked exhaustively);
2. brand routing: a query matching exactly one brand as a phrase, and nothing
   else special, lands in that brand's ad group (checked with seeded probes);
3. generic routing: a query matching no catalogue keyword, no brand and no
   blocked brand lands in the catch-all ad group (seeded probes).

Static structure checks (limits, partition discipline, eraser strictness and
coverage) run alongside.  Verification never mutates the account and is
deterministic for a given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .account import Account, BrandTag, CatchAllTag, RuleTag
from .erasers import erases
from .keywords import Keyword, NegativeIndex, QueryWords, subword_set, word_set
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


def _landed_tag_matches(account: Account, d: Disposition, campaign: str, tag) -> bool:
    if not isinstance(d, Landed) or d.campaign != campaign:
        return False
    for c in account.campaigns:
        if c.name != campaign:
            continue
        for g in c.adgroups:
            if g.name == d.adgroup:
                return g.tag == tag
    return False


def verify_property1(account: Account) -> PropertyResult:
    """Every catalogue keyword lands in its own ad group, exhaustively."""
    sim = Simulator(account)
    group_camps = account.group_campaigns()
    failures = []
    checked = 0
    aligned = len(group_camps) == len(account.partition)
    for pos, group in enumerate(account.partition):
        for kw in sorted(group):
            checked += 1
            expected_campaign = group_camps[pos].name if aligned else "?"
            expected = (
                f"landed in campaign {expected_campaign},"
                f" ad group for {kw.text!r}"
            )
            t = sim.run(kw)
            if aligned and _landed_tag_matches(
                account, t.disposition, expected_campaign, RuleTag(kw)
            ):
                continue
            failures.append(
                Failure(
                    query=kw,
                    expected=expected,
                    actual=describe_disposition(t.disposition),
                )
            )
    note = None
    if checked == 0:
        note = "no catalogue keywords; own-keyword routing is vacuous"
    return PropertyResult(
        name="own-keyword routing",
        checked=checked,
        failures=tuple(failures),
        note=note,
    )


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


def verify_property2(
    account: Account, *, probes: int = 1000, seed: int = 0
) -> PropertyResult:
    """Seeded brand probes: one brand phrase, nothing else special."""
    if not account.brands:
        return PropertyResult(
            name="brand routing",
            checked=0,
            failures=(),
            note="no brands configured; brand routing is vacuous",
        )
    sim = Simulator(account)
    rng = random.Random(seed)
    pool = _filler_pool(account)
    catalogue = account.keywords()
    brand_campaign = account.brand_campaign()
    brand_name = brand_campaign.name if brand_campaign else "?"
    failures = []
    checked = 0
    skipped = 0
    for i in range(probes):
        brand = account.brands[i % len(account.brands)]
        query = None
        for _ in range(50):
            fillers = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            cut = rng.randint(0, len(fillers))
            words = tuple(fillers[:cut]) + brand.words + tuple(fillers[cut:])
            q = Keyword(words)
            if q in catalogue:
                continue
            runs = subword_set(q)
            if sum(1 for b in account.brands if b.words in runs) != 1:
                continue
            if any(b.words in runs for b in account.non_brands):
                continue
            query = q
            break
        if query is None:
            skipped += 1
            continue
        checked += 1
        t = sim.run(query)
        if _landed_tag_matches(account, t.disposition, brand_name, BrandTag(brand)):
            continue
        failures.append(
            Failure(
                query=query,
                expected=(
                    f"landed in campaign {brand_name},"
                    f" ad group for brand {brand.text!r}"
                ),
                actual=describe_disposition(t.disposition),
            )
        )
    note = f"{skipped} probes skipped (no admissible query found)" if skipped else None
    return PropertyResult(
        name="brand routing", checked=checked, failures=tuple(failures), note=note
    )


def verify_property3(
    account: Account, *, probes: int = 1000, seed: int = 0
) -> PropertyResult:
    """Seeded generic probes: no catalogue keyword, no brand, no blocked brand."""
    sim = Simulator(account)
    rng = random.Random(seed)
    pool = _filler_pool(account)
    catalogue = account.keywords()
    general = account.general_campaign().name
    failures = []
    checked = 0
    skipped = 0
    for _ in range(probes):
        query = None
        for _ in range(50):
            words = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            q = Keyword(words)
            if q in catalogue:
                continue
            runs = subword_set(q)
            if any(b.words in runs for b in account.brands + account.non_brands):
                continue
            query = q
            break
        if query is None:
            skipped += 1
            continue
        checked += 1
        t = sim.run(query)
        if _landed_tag_matches(account, t.disposition, general, CatchAllTag()):
            continue
        failures.append(
            Failure(
                query=query,
                expected=f"landed in campaign {general}, the catch-all ad group",
                actual=describe_disposition(t.disposition),
            )
        )
    note = f"{skipped} probes skipped (no admissible query found)" if skipped else None
    return PropertyResult(
        name="generic routing", checked=checked, failures=tuple(failures), note=note
    )


def verify_structure(account: Account) -> tuple[Finding, ...]:
    """Static checks: limits, partition discipline, eraser strictness/coverage."""
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

    # The load-bearing negative invariant, checked statically: each group
    # campaign admits every keyword of its own group and blocks every keyword
    # of every other group.
    if len(group_camps) == len(account.partition):
        indexes = [NegativeIndex(c.negatives) for c in group_camps]
        for pos, group in enumerate(account.partition):
            for kw in sorted(group):
                words = QueryWords(kw)
                hit = indexes[pos].lookup(words)
                if hit is not None:
                    findings.append(
                        Finding(
                            kind="negatives",
                            detail=(
                                f"campaign {group_camps[pos].name} blocks its own"
                                f" keyword {kw.text!r} via {hit.describe()}"
                            ),
                        )
                    )
                for other_pos in range(len(account.partition)):
                    if other_pos == pos:
                        continue
                    if indexes[other_pos].lookup(words) is None:
                        findings.append(
                            Finding(
                                kind="negatives",
                                detail=(
                                    f"campaign {group_camps[other_pos].name} fails"
                                    f" to block {kw.text!r} from group {pos + 1}"
                                ),
                            )
                        )

    for pos, erasers in enumerate(account.erasers):
        if pos >= len(account.partition):
            break
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
    """Run all routing properties plus the structural checks."""
    return VerificationReport(
        properties=(
            verify_property1(account),
            verify_property2(account, probes=probes, seed=seed),
            verify_property3(account, probes=probes, seed=seed),
        ),
        findings=verify_structure(account),
    )
