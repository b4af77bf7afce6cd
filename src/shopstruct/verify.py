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

Each case is checked against ``Simulator.landing``, which reads the verdict
off the index bitmasks as the account's own campaign and ad group: a case
passes when that campaign's name and that ad group's tag are the expected
ones, so a passing case costs a few mask lookups and two comparisons.  Only
a failing case is routed again for its ``Disposition``, and gets its
expected text and its ``Failure``.

Static structure checks (limits, partition discipline, eraser coverage) run
alongside, and, given the rule catalogue the account was built from, a
catalogue check: every rule keyword has a rule ad group and every account
keyword a rule.  A group campaign's keyword group is read off its rule ad
groups, so partition discipline means that no keyword has rule ad groups in
two group campaigns; the groups are sorted for that check only when their
sizes sum past the catalogue's, which shows a repeat.  Eraser coverage reads
each group's eraser images off per-group word postings.  The negatives audit
(each group campaign admits its own group's keywords and blocks every other
group's) audits property 1's failures only: every group campaign is in the
Low tier, so a keyword that landed in its own campaign already proves the
audit's claim for it.  The audit reads the campaigns that refuse a keyword,
and the negative each refuses it by, from ``Simulator.blockers``, and one
``Simulator`` serves every check.
Verification never mutates the account and is deterministic for a given seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ._gcpause import gc_paused
from .account import Account, AdGroupTag, BrandTag, Campaign, CatchAllTag, Rule, RuleTag
from .erasers import ExactEraser
from .errors import InputError
from .keywords import Keyword, matches, phrase
from .simulate import Disposition, Simulator


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


def _describe_tag(tag: AdGroupTag) -> str:
    if isinstance(tag, RuleTag):
        return f"ad group for {tag.keyword.text!r}"
    if isinstance(tag, BrandTag):
        return f"ad group for brand {tag.brand.text!r}"
    return "the catch-all ad group"


def _check_routes(
    sim: Simulator,
    name: str,
    cases: Sequence[tuple[Keyword, str, AdGroupTag]],
    note: str | None,
) -> tuple[PropertyResult, tuple[int, ...]]:
    """Route each (query, campaign, ad-group tag) case.

    A case passes when its query lands in that campaign, in an ad group with
    that tag.  A passing case costs its routing and two comparisons; only a
    failing one is routed again for its disposition and gets its text.
    Also returns the indexes in ``cases`` of the failing cases.
    """
    landing = sim.landing
    failures = []
    failed = []
    for i, (query, campaign, tag) in enumerate(cases):
        landed = landing(query)
        if landed and landed[0].name == campaign and (landed[1].tag is tag or landed[1].tag == tag):
            continue
        failed.append(i)
        failures.append(
            Failure(
                query=query,
                expected=f"landed in campaign {campaign}, {_describe_tag(tag)}",
                actual=describe_disposition(sim.disposition(query)),
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
    case at each of its positions.  Each case expects its campaign's own
    ``RuleTag`` object for the keyword, so no tag is made per case.
    """
    placed = []
    cases = []
    for pos, camp in enumerate(sim.account.group_campaigns()):
        tags = {g.tag.keyword: g.tag for g in camp.adgroups if type(g.tag) is RuleTag}
        for kw in sorted(tags):
            placed.append((pos, kw))
            cases.append((kw, camp.name, tags[kw]))
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
    targets: Sequence[AdGroupTag | None],
    draw: Callable[[AdGroupTag], Keyword],
) -> PropertyResult:
    """Route one seeded probe per ad-group tag target; a None target is a
    probe skipped without a draw.

    ``draw(tag)`` makes one attempt at an admissible probe query.  A probe
    gets 50 attempts, never uses a catalogue keyword, else is skipped.
    """
    catalogue = sim.account.keywords()
    cases = []
    for tag in targets:
        if tag is None:
            continue
        for _ in range(50):
            query = draw(tag)
            if query not in catalogue:
                cases.append((query, campaign, tag))
                break
    skipped = len(targets) - len(cases)
    note = f"{skipped} probes skipped (no admissible query found)" if skipped else None
    return _check_routes(sim, name, cases, note)[0]


def _check_probes(probes: int) -> None:
    if probes < 0:
        raise InputError(f"probes must not be negative: {probes}")


def verify_property2(
    sim: Simulator, *, probes: int = 1000, seed: int = 0, _pool: list[str] | None = None
) -> PropertyResult:
    """Seeded brand probes: one brand phrase, nothing else special.
    ``_pool`` is ``_filler_pool(sim.account)`` when the caller made it."""
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
    pool = _filler_pool(account) if _pool is None else _pool
    brand_campaign = account.brand_campaign()
    special = account.brands + account.non_brands

    # One tag per brand, shared by its probes; a brand whose words hold
    # another special phrase has no admissible probe.
    target: dict[Keyword, BrandTag | None] = {}
    for brand in account.brands:
        crowded = [b for b in special if matches(brand, phrase(b))] != [brand]
        target[brand] = None if crowded else BrandTag(brand)

    def draw(tag: BrandTag) -> Keyword:
        fillers = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        cut = rng.randint(0, len(fillers))
        return Keyword((*fillers[:cut], *tag.brand.words, *fillers[cut:]))

    targets = [target[account.brands[i % len(account.brands)]] for i in range(probes)]
    campaign = brand_campaign.name if brand_campaign else "?"
    return _probe_routing(sim, "brand routing", campaign, targets, draw)


def verify_property3(
    sim: Simulator, *, probes: int = 1000, seed: int = 0, _pool: list[str] | None = None
) -> PropertyResult:
    """Seeded generic probes: no catalogue keyword, no brand, no blocked brand.
    ``_pool`` is ``_filler_pool(sim.account)`` when the caller made it."""
    _check_probes(probes)
    account = sim.account
    rng = random.Random(seed)
    pool = _filler_pool(account) if _pool is None else _pool

    def draw(tag: CatchAllTag) -> Keyword:
        return Keyword(tuple([rng.choice(pool) for _ in range(rng.randint(1, 4))]))

    targets = [CatchAllTag()] * probes
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

    # Groups that sum to the catalogue's size repeat no keyword, so they are
    # sorted only when the sizes show a repeat.
    partition = account.partition
    seen: dict[Keyword, int] = {}
    repeats = sum(map(len, partition)) != len(account.keywords())
    for pos, group in enumerate(partition if repeats else ()):
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
        for kw in sorted(camp.group - _erased(camp)):
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


def _erased(camp: Campaign) -> set[Keyword]:
    """The keywords ``camp``'s erasers erase, all of its group's among them:
    a large eraser's image in the group is the intersection of its words'
    postings over the group, so no (keyword, eraser) pair is tested alone."""
    postings: dict[str, set[Keyword]] = {}
    for kw in camp.group:
        for word in kw.words:
            postings.setdefault(word, set()).add(kw)
    erased: set[Keyword] = set()
    for e in camp.erasers:
        if isinstance(e, ExactEraser):
            erased.add(e.keyword)
        elif None not in (images := [postings.get(word) for word in e.words]):
            erased.update(images[0].intersection(*images[1:]))
    return erased


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
    pool = _filler_pool(account)
    return VerificationReport(
        properties=(
            own_keyword,
            verify_property2(sim, probes=probes, seed=seed, _pool=pool),
            verify_property3(sim, probes=probes, seed=seed, _pool=pool),
        ),
        findings=findings,
    )
