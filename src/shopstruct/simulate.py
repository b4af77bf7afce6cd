"""Deterministic single-query simulation of an account's filter structure.

Tiers are tried High, then Medium, then Low.  A campaign admits a query when
none of its campaign negatives match.  Within a tier, exactly one admitting
campaign means the query enters it and lower tiers are never consulted; more
than one is reported as ambiguous (the platform would pick arbitrarily, which
the structure is supposed to rule out).  Inside a campaign, the open ad groups
are those whose negatives all miss; exactly one open ad group is a clean
landing, none is a dead end (the query is absorbed, not passed on), several is
again ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .account import Account, AdGroup, Campaign, Priority
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

    def open_adgroups(self, campaign: Campaign, query: Keyword) -> list[AdGroup]:
        return self._open_adgroups(campaign, QueryWords(query))

    def _open_adgroups(self, campaign: Campaign, words: QueryWords) -> list[AdGroup]:
        return [
            g
            for g in campaign.adgroups
            if self._adgroup_index[(campaign.name, g.name)].lookup(words) is None
        ]

    def run(self, query: Keyword) -> Trajectory:
        words = QueryWords(query)
        steps: list[Step] = []
        for tier in self._tiers:
            admitted: list[Campaign] = []
            blocked: list[Step] = []
            for c in tier:
                hit = self._campaign_index[c.name].lookup(words)
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

