"""Reference implementations the tests compare the package against.

They are kept out of ``src/`` because they are slow on purpose:
``make_group_plan`` is the original packing that recomputes every group's
vocabulary for each uncovered keyword, ``expand`` takes eraser images by
scanning the universe, ``exact_packing_oracle`` searches every disjoint
sub-collection of candidates, ``enumerate_candidates`` copies every word's
keyword set before intersecting, ``reduce_keywords`` scans the whole universe
once per candidate word set, ``verify_account`` is the verifier that builds a simulator per property and
audits group-campaign negatives with a second n×k lookup pass instead of
reading property 1's routes, ``Simulator`` is the router that keeps one
``NegativeIndex`` per campaign and per ad group and looks each up separately,
and ``_parse_negatives`` parses every snapshot negative entry afresh, with no
interning.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

from typing import Any

from shopstruct.account import (
    Account,
    AdGroup,
    BrandTag,
    Campaign,
    CatchAllTag,
    Priority,
    RuleTag,
)
from shopstruct.erasers import (
    Candidate,
    Eraser,
    ExactEraser,
    GroupPlan,
    LargeEraser,
)
from shopstruct.errors import (
    InfeasibleTargetError,
    InputError,
    ShopstructError,
)
from shopstruct.keywords import (
    Keyword,
    MatchType,
    NegativeIndex,
    NegativeKeyword,
    matches,
    normalize,
    subword_set,
)
from shopstruct.simulate import (
    Ambiguous,
    Blocked,
    DeadEnd,
    Disposition,
    Entered,
    FellThrough,
    Landed,
    Step,
    Trajectory,
)
from shopstruct.verify import (
    Failure,
    Finding,
    PropertyResult,
    VerificationReport,
)


def make_group_plan(
    keywords: Sequence[Keyword],
    selected: Sequence[Candidate],
    *,
    target_size: int | None = None,
) -> GroupPlan:
    """Pack selected erasers plus exact fillers into balanced keyword groups.

    The selected images must be pairwise disjoint.  Groups number
    k = ceil(n / target_size); each selected eraser carries its whole image
    into one group, placed into the currently lightest group that can take it
    without passing the target (unavoidable overflow is tolerated).  Keywords
    no eraser covers become exact erasers, placed (in catalogue order) with
    the group sharing the most vocabulary, falling back to the lightest group,
    tie to the group least covered by large erasers.
    """
    n = len(keywords)
    if target_size is None:
        target_size = max(1, math.ceil(math.sqrt(n)))
    if target_size < 1:
        raise InputError(f"target size must be positive: {target_size}")
    oversize = [c for c in selected if c.weight > target_size]
    if oversize:
        worst = max(c.weight for c in oversize)
        raise InfeasibleTargetError(
            f"target size {target_size} is below the largest selected image ({worst})"
        )
    seen: set[Keyword] = set()
    for cand in selected:
        if cand.image & seen:
            raise InputError("selected eraser images overlap")
        seen.update(cand.image)

    k = max(1, math.ceil(n / target_size)) if n else 0
    if k == 0:
        return GroupPlan((), ())

    position = {kw: i for i, kw in enumerate(keywords)}
    group_kws: list[list[Keyword]] = [[] for _ in range(k)]
    group_erasers: list[list[Eraser]] = [[] for _ in range(k)]

    def size(g: int) -> int:
        return len(group_kws[g])

    ordered = sorted(
        selected,
        key=lambda c: (
            -c.weight,
            min(position[kw] for kw in c.image),
            tuple(sorted(c.eraser.words)),
        ),
    )
    for cand in ordered:
        fitting = [g for g in range(k) if size(g) + cand.weight <= target_size]
        pool = fitting or list(range(k))
        g = min(pool, key=lambda g: (size(g), g))
        group_kws[g].extend(sorted(cand.image, key=lambda kw: position[kw]))
        group_erasers[g].append(cand.eraser)

    def vocabulary(g: int) -> set[str]:
        vocab: set[str] = set()
        for kw in group_kws[g]:
            vocab.update(kw.words)
        return vocab

    def large_covered(g: int) -> int:
        covered: set[Keyword] = set()
        for er in group_erasers[g]:
            if isinstance(er, LargeEraser):
                covered.update(image(er, group_kws[g]))
        return len(covered)

    uncovered = [kw for kw in keywords if kw not in seen]
    for kw in uncovered:
        words = frozenset(kw.words)
        open_groups = [g for g in range(k) if size(g) < target_size]
        affine = [
            (len(words & vocabulary(g)), g) for g in open_groups
        ]
        affine = [(shared, g) for shared, g in affine if shared > 0]
        if affine:
            g = min(affine, key=lambda t: (-t[0], size(t[1]), t[1]))[1]
        else:
            pool = open_groups or list(range(k))
            g = min(pool, key=lambda g: (size(g), large_covered(g), g))
        group_kws[g].append(kw)
        group_erasers[g].append(ExactEraser(kw))

    return GroupPlan(
        tuple(frozenset(g) for g in group_kws),
        tuple(tuple(e) for e in group_erasers),
    )


def image(eraser: Eraser, universe: Iterable[Keyword]) -> frozenset[Keyword]:
    """The keywords of ``universe`` that ``eraser``'s negative blocks, by
    ``keywords.matches``."""
    negative = eraser.to_negative()
    return frozenset(kw for kw in universe if matches(kw, negative))


def expand(erasers: Iterable[Eraser], universe: Iterable[Keyword]) -> frozenset[Keyword]:
    """Union of the erasers' images over ``universe``; inverse of reduce."""
    universe_list = list(universe)
    out: set[Keyword] = set()
    for er in erasers:
        out.update(image(er, universe_list))
    return frozenset(out)


class CandidateLimitError(ShopstructError):
    """The exhaustive packing oracle was given more candidates than it accepts."""


def exact_packing_oracle(
    candidates: Sequence[Candidate], *, limit: int = 25
) -> tuple[int, tuple[Candidate, ...]]:
    """Exhaustive max-coverage disjoint sub-collection (branch and bound).

    Only meant for small instances; refuses more than ``limit`` candidates.
    Returns (coverage, chosen candidates).
    """
    if len(candidates) > limit:
        raise CandidateLimitError(
            f"{len(candidates)} candidates exceed the oracle limit of {limit}"
        )
    order = sorted(range(len(candidates)), key=lambda i: -candidates[i].weight)
    weights = [candidates[i].weight for i in order]
    images = [candidates[i].image for i in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    best_cov = 0
    best_pick: tuple[int, ...] = ()

    def walk(idx: int, used: frozenset[Keyword], cov: int, pick: tuple[int, ...]) -> None:
        nonlocal best_cov, best_pick
        if cov > best_cov:
            best_cov = cov
            best_pick = pick
        if idx == len(order) or cov + suffix[idx] <= best_cov:
            return
        if not (images[idx] & used):
            walk(idx + 1, used | images[idx], cov + weights[idx], pick + (idx,))
        walk(idx + 1, used, cov, pick)

    walk(0, frozenset(), 0, ())
    return best_cov, tuple(candidates[order[i]] for i in best_pick)


def enumerate_candidates(
    keywords: Sequence[Keyword],
    *,
    max_words: int = 3,
    max_image: int | None = None,
) -> tuple[Candidate, ...]:
    """All useful candidate large erasers over ``keywords``.

    Candidates are word subsets (size <= max_words) of individual keywords with
    image size in [2, max_image]; a candidate is dropped when a strict subset of
    its words has the identical image (the smaller word set blocks everything
    the bigger one does and more besides, so the bigger one is redundant).
    Default max_image is ceil(sqrt(n)).  Deterministic order: image size
    descending, then lexicographic word set.
    """
    n = len(keywords)
    if max_image is None:
        max_image = max(1, math.ceil(math.sqrt(n)))
    by_word: dict[str, set[Keyword]] = {}
    for kw in keywords:
        for w in kw.words:
            by_word.setdefault(w, set()).add(kw)

    images: dict[frozenset[str], frozenset[Keyword]] = {}
    for kw in keywords:
        toks = sorted(frozenset(kw.words))
        for r in range(1, min(max_words, len(toks)) + 1):
            for combo in itertools.combinations(toks, r):
                ws = frozenset(combo)
                if ws in images:
                    continue
                img: set[Keyword] | None = None
                for w in combo:
                    hits = by_word.get(w, set())
                    img = set(hits) if img is None else (img & hits)
                    if not img:
                        break
                images[ws] = frozenset(img or ())

    kept = {
        ws: img for ws, img in images.items() if 2 <= len(img) <= max_image
    }
    # Redundancy: same image reachable from a strict word subset.
    minimal: list[Candidate] = []
    for ws, img in kept.items():
        redundant = False
        if len(ws) > 1:
            for r in range(1, len(ws)):
                for sub in itertools.combinations(sorted(ws), r):
                    if kept.get(frozenset(sub)) == img:
                        redundant = True
                        break
                if redundant:
                    break
        if not redundant:
            minimal.append(Candidate(LargeEraser(ws), img))
    minimal.sort(key=lambda c: (-c.weight, tuple(sorted(c.eraser.words))))
    return tuple(minimal)


def reduce_keywords(
    members: Iterable[Keyword],
    universe: Iterable[Keyword],
    *,
    max_words: int = 3,
) -> tuple[Eraser, ...]:
    """A small eraser set erasing exactly ``members`` and nothing else in ``universe``.

    Greedy cover: strict large candidates (image inside ``members``) taken
    largest-image-first while they erase at least two uncovered keywords, then
    exact erasers for the rest.  Never longer than ``members`` itself.
    """
    member_set = frozenset(members)
    universe_list = list(universe)
    if not member_set <= set(universe_list):
        raise InputError("reduce: members must lie inside the universe")

    seen_sets: set[frozenset[str]] = set()
    strict: list[tuple[frozenset[str], frozenset[Keyword]]] = []
    for kw in sorted(member_set):
        toks = sorted(frozenset(kw.words))
        for r in range(1, min(max_words, len(toks)) + 1):
            for combo in itertools.combinations(toks, r):
                ws = frozenset(combo)
                if ws in seen_sets:
                    continue
                seen_sets.add(ws)
                img = frozenset(k for k in universe_list if ws <= frozenset(k.words))
                if len(img) >= 2 and img <= member_set:
                    strict.append((ws, img))
    strict.sort(key=lambda t: (-len(t[1]), tuple(sorted(t[0]))))

    chosen: list[Eraser] = []
    covered: set[Keyword] = set()
    for ws, img in strict:
        fresh = img - covered
        if len(fresh) >= 2:
            chosen.append(LargeEraser(ws))
            covered.update(img)
    for kw in sorted(member_set - covered):
        chosen.append(ExactEraser(kw))
    return tuple(chosen)


def list_sizes(account: Account) -> dict[str, int]:
    """The size of every negative list, keyed and ordered as
    ``Account.over_limit`` keys and orders the lists over the limit."""
    sizes = {}
    for c in account.campaigns:
        sizes[f"campaign {c.name}"] = len(c.negatives)
        for g in c.adgroups:
            sizes[f"ad group {g.name!r} of campaign {c.name}"] = len(g.negatives)
    return sizes


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
    for pos, group in enumerate(account.partition):
        for kw in sorted(group):
            checked += 1
            expected_campaign = group_camps[pos].name
            expected = (
                f"landed in campaign {expected_campaign},"
                f" ad group for {kw.text!r}"
            )
            t = sim.run(kw)
            if _landed_tag_matches(
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
        excluded.update(b.words)
    for b in account.non_brands:
        excluded.update(b.words)
    pool: set[str] = set()
    for kw in account.keywords():
        pool.update(frozenset(kw.words) - excluded)
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
        # Fillers hold no special word, so a probe holds another special
        # phrase exactly when its brand's own words do: no draw can succeed.
        own = subword_set(brand)
        crowded = sum(1 for b in account.brands if b.words in own) != 1 or any(
            b.words in own for b in account.non_brands
        )
        query = None
        for _ in range(0 if crowded else 50):
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


def _first(index: NegativeIndex, query: Keyword) -> NegativeKeyword | None:
    """The index's first match for the query: its first hit, or None."""
    hits = index.hits(query)
    return hits[0][0] if hits else None


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
    indexes = [NegativeIndex(c.negatives) for c in group_camps]
    for pos, group in enumerate(account.partition):
        for kw in sorted(group):
            hit = _first(indexes[pos], kw)
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
                if _first(indexes[other_pos], kw) is None:
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
        own = account.partition[pos]
        uncovered = [
            kw for kw in sorted(own) if not any(matches(kw, e.to_negative()) for e in erasers)
        ]
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


class Simulator:
    """Reusable query router for one account; build once, run many queries."""

    def __init__(self, account: Account) -> None:
        self.account = account
        self._campaign_index: dict[str, NegativeIndex] = {}
        self._adgroup_index: dict[tuple[str, str], NegativeIndex] = {}
        self._tiers: list[list[Campaign]] = []
        for priority in (Priority.HIGH, Priority.MEDIUM, Priority.LOW):
            tier = [c for c in account.campaigns if c.priority is priority]
            if tier:
                self._tiers.append(tier)
        for c in account.campaigns:
            self._campaign_index[c.name] = NegativeIndex(c.negatives)
            for g in c.adgroups:
                self._adgroup_index[(c.name, g.name)] = NegativeIndex(g.negatives)

    def campaign_blocker(self, campaign: str, query: Keyword) -> NegativeKeyword | None:
        """The negative of ``campaign`` that refuses ``query``, or None."""
        return _first(self._campaign_index[campaign], query)

    def open_adgroups(self, campaign: Campaign, query: Keyword) -> list[AdGroup]:
        return [
            g
            for g in campaign.adgroups
            if _first(self._adgroup_index[(campaign.name, g.name)], query) is None
        ]

    def run(self, query: Keyword) -> Trajectory:
        steps: list[Step] = []
        for tier in self._tiers:
            admitted: list[Campaign] = []
            blocked: list[Step] = []
            for c in tier:
                hit = _first(self._campaign_index[c.name], query)
                if hit is None:
                    admitted.append(c)
                else:
                    blocked.append(Step(c.name, Blocked(hit)))
            if not admitted:
                steps.extend(blocked)
                continue
            if len(admitted) > 1:
                for c in admitted:
                    names = tuple(g.name for g in self.open_adgroups(c, query))
                    steps.append(Step(c.name, Entered(names)))
                steps.extend(blocked)
                return Trajectory(
                    query,
                    tuple(steps),
                    Ambiguous(tuple(c.name for c in admitted), ()),
                )
            campaign = admitted[0]
            open_groups = self.open_adgroups(campaign, query)
            steps.extend(blocked)
            steps.append(
                Step(campaign.name, Entered(tuple(g.name for g in open_groups)))
            )
            if len(open_groups) == 1:
                return Trajectory(
                    query, tuple(steps), Landed(campaign.name, open_groups[0].name)
                )
            if not open_groups:
                return Trajectory(query, tuple(steps), DeadEnd(campaign.name))
            return Trajectory(
                query,
                tuple(steps),
                Ambiguous((campaign.name,), tuple(g.name for g in open_groups)),
            )
        return Trajectory(query, tuple(steps), FellThrough())


def _parse_negatives(doc: Any) -> frozenset[NegativeKeyword]:
    if not isinstance(doc, list):
        raise InputError("negatives must be a list")
    out = []
    for item in doc:
        try:
            kw = normalize(item["keyword"])
            match = MatchType(item["match"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad negative entry: {item!r}") from exc
        out.append(NegativeKeyword(kw, match))
    return frozenset(out)
