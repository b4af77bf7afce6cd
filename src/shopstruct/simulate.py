"""Deterministic single-query simulation of an account's filter structure.

Tiers are tried High, then Medium, then Low.  A campaign admits a query when
none of its campaign negatives match.  Within a tier, exactly one admitting
campaign means the query enters it and lower tiers are never consulted; more
than one is reported as ambiguous (the platform would pick arbitrarily, which
the structure is supposed to rule out).  Inside a campaign, the open ad groups
are those whose negatives all miss; exactly one open ad group is a clean
landing, none is a dead end (the query is absorbed, not passed on), several is
again ambiguous.

A ``Simulator`` indexes each tier's campaign negatives together, and each
campaign's ad-group negatives together, in one shared ``NegativeIndex``: the
structure repeats a negative across many lists (a group's erasers sit in
every other group campaign, a keyword's exact in every sibling ad group), and
the shared index matches each distinct negative once per query.

``Simulator.run`` returns the full ``Trajectory``: one ``Step`` per campaign
the query met.  ``Simulator.disposition`` returns only the verdict.  It reads a
clean landing straight off the indexes' bitmasks, without building any step,
and hands every other outcome (ambiguous, dead end, fell through) to ``run``,
so ``run`` stays the one path that explains a route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .account import Account, AdGroup, AdGroupTag, Campaign, Priority
from .keywords import Keyword, NegativeIndex, NegativeKeyword, QueryWords


@dataclass(frozen=True)
class Blocked:
    """The campaign refused the query; ``by`` is the first matching negative."""

    by: NegativeKeyword


@dataclass(frozen=True)
class Entered:
    """The campaign admitted the query; ``open_adgroups`` passed their negatives."""

    open_adgroups: tuple[str, ...]


StepOutcome = Union[Blocked, Entered]


@dataclass(frozen=True)
class Step:
    campaign: str
    outcome: StepOutcome


@dataclass(frozen=True)
class Landed:
    campaign: str
    adgroup: str

    kind = "landed"


@dataclass(frozen=True)
class DeadEnd:
    campaign: str

    kind = "dead_end"


@dataclass(frozen=True)
class Ambiguous:
    campaigns: tuple[str, ...]
    adgroups: tuple[str, ...]

    kind = "ambiguous"


@dataclass(frozen=True)
class FellThrough:
    kind = "fell_through"


Disposition = Union[Landed, DeadEnd, Ambiguous, FellThrough]


@dataclass(frozen=True)
class Trajectory:
    query: Keyword
    steps: tuple[Step, ...]
    disposition: Disposition


class Simulator:
    """Reusable query router for one account; build once, run many queries.

    Each tier's campaign negatives share one ``NegativeIndex``, as do the ad
    group negatives of each campaign, so routing a query costs one lookup per
    tier and one per campaign it enters, and a negative held by many lists is
    matched once.
    """

    def __init__(self, account: Account) -> None:
        self.account = account
        self._tiers: list[tuple[list[Campaign], NegativeIndex]] = []
        self._campaign_slot: dict[str, tuple[NegativeIndex, int]] = {}
        self._adgroup_index: dict[str, NegativeIndex] = {}
        # Each (campaign, ad group) name pair's tag, to read a Landed disposition.
        self.adgroup_tags: dict[tuple[str, str], AdGroupTag] = {}
        for priority in (Priority.HIGH, Priority.MEDIUM, Priority.LOW):
            tier = [c for c in account.campaigns if c.priority is priority]
            if tier:
                index = NegativeIndex(*(c.negatives for c in tier))
                self._tiers.append((tier, index))
                for pos, c in enumerate(tier):
                    self._campaign_slot[c.name] = (index, 1 << pos)
        for c in account.campaigns:
            self._adgroup_index[c.name] = NegativeIndex(*(g.negatives for g in c.adgroups))
            for g in c.adgroups:
                self.adgroup_tags[(c.name, g.name)] = g.tag

    def campaign_blocker(self, campaign: str, query: Keyword) -> NegativeKeyword | None:
        """The negative of ``campaign`` that refuses ``query``, or None."""
        index, bit = self._campaign_slot[campaign]
        hits = index.hits(QueryWords(query))
        return next((neg for neg, mask in hits if mask & bit), None)

    def blocking_campaigns(self, query: Keyword) -> set[str]:
        """The names of every campaign, in every tier, that refuses ``query``."""
        words = QueryWords(query)
        names: set[str] = set()
        for tier, index in self._tiers:
            blocked = index.blocked(words)
            names.update(c.name for pos, c in enumerate(tier) if blocked >> pos & 1)
        return names

    def open_adgroups(self, campaign: Campaign, query: Keyword) -> list[AdGroup]:
        return self._open_adgroups(campaign, QueryWords(query))

    def _open_adgroups(self, campaign: Campaign, words: QueryWords) -> list[AdGroup]:
        blocked = self._adgroup_index[campaign.name].blocked(words)
        return [g for i, g in enumerate(campaign.adgroups) if not blocked >> i & 1]

    def disposition(self, query: Keyword) -> Disposition:
        """``run(query).disposition``, read off the index bitmasks when the
        query lands; any other outcome is left to ``run``.

        The first tier that admits the query must admit it in exactly one
        campaign, which must leave exactly one ad group open.  No ``Step`` is
        built on that path.
        """
        words = QueryWords(query)
        for tier, index in self._tiers:
            admitted = ~index.blocked(words) & ((1 << len(tier)) - 1)
            if not admitted:
                continue
            if admitted & (admitted - 1) == 0:
                campaign = tier[admitted.bit_length() - 1]
                groups = campaign.adgroups
                blocked = self._adgroup_index[campaign.name].blocked(words)
                open_groups = ~blocked & ((1 << len(groups)) - 1)
                if open_groups and open_groups & (open_groups - 1) == 0:
                    return Landed(campaign.name, groups[open_groups.bit_length() - 1].name)
            break
        return self.run(query).disposition

    def run(self, query: Keyword) -> Trajectory:
        words = QueryWords(query)
        steps: list[Step] = []
        for tier, index in self._tiers:
            admitted: list[Campaign] = []
            blocked: list[Step] = []
            for c, hit in zip(tier, index.first_matches(words)):
                if hit is None:
                    admitted.append(c)
                else:
                    blocked.append(Step(c.name, Blocked(hit)))
            if not admitted:
                steps.extend(blocked)
                continue
            if len(admitted) > 1:
                for c in admitted:
                    names = tuple(g.name for g in self._open_adgroups(c, words))
                    steps.append(Step(c.name, Entered(names)))
                steps.extend(blocked)
                return Trajectory(
                    query,
                    tuple(steps),
                    Ambiguous(tuple(c.name for c in admitted), ()),
                )
            campaign = admitted[0]
            open_groups = self._open_adgroups(campaign, words)
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

