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

Every verdict is decided in one place, from the indexes' bitmasks: OR the
masks of the lists that block the query, tier by tier, then the masks of the
admitting campaign's ad groups, asking each index with the query ``Keyword``
itself.  That verdict is plain positions: the tiers
met and bitmasks over the deciding tier's campaigns and the entered
campaign's ad groups.  ``Simulator.landing`` reads the landing off it, as
the account's own campaign and ad group, with no object made.
``Simulator.disposition`` builds the ``Landed``, ``DeadEnd``, ``Ambiguous``
or ``FellThrough`` it stands for, and ``Simulator.run`` explains it: one
``Step`` per campaign of each tier the query met, naming each blocked
campaign's first matching negative.  ``Simulator.blockers`` names those same
negatives for every campaign of every tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from ._gcpause import gc_paused
from .account import Account, AdGroup, Campaign, Priority
from .keywords import Keyword, NegativeIndex, NegativeKeyword


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


def _every(items: Sequence[Campaign | AdGroup]) -> int:
    """The mask with a bit set for each of ``items``."""
    return (1 << len(items)) - 1


def _names(items: Sequence[Campaign | AdGroup], mask: int) -> tuple[str, ...]:
    """The names of the items whose bits are set in ``mask``, in order."""
    return tuple(x.name for i, x in enumerate(items) if mask >> i & 1)


class Simulator:
    """Reusable query router for one account; build once, run many queries.

    Each tier's campaign negatives share one ``NegativeIndex``, as do the ad
    group negatives of each campaign, so routing a query costs one lookup per
    tier and one per campaign it enters, and a negative held by many lists is
    matched once.  Set-up also makes the mask of all of a tier's campaigns
    and of all of each campaign's ad groups, and keeps each campaign's
    ad-group index by its place in the tier, so a verdict makes no mask and
    looks nothing up by name.
    """

    @gc_paused
    def __init__(self, account: Account) -> None:
        self.account = account
        # Per tier: its campaigns, their index, the mask of all of them, and
        # per campaign its ad groups' index and the mask of all of them.
        self._tiers: list[
            tuple[list[Campaign], NegativeIndex, int, list[tuple[NegativeIndex, int]]]
        ] = []
        for priority in (Priority.HIGH, Priority.MEDIUM, Priority.LOW):
            tier = [c for c in account.campaigns if c.priority is priority]
            if tier:
                adgroups = [
                    (NegativeIndex(*(g.negatives for g in c.adgroups)), _every(c.adgroups))
                    for c in tier
                ]
                index = NegativeIndex(*(c.negatives for c in tier))
                self._tiers.append((tier, index, _every(tier), adgroups))

    def blockers(self, query: Keyword) -> dict[str, NegativeKeyword]:
        """Each campaign, in every tier, that refuses ``query``, with the
        negative ``run`` names for it."""
        return self._blockers(query, len(self._tiers))

    def _blockers(self, query: Keyword, met: int) -> dict[str, NegativeKeyword]:
        """Each campaign of the first ``met`` tiers that refuses the query, with
        its first matching negative: the first of its tier's hits it holds."""
        found: dict[str, NegativeKeyword] = {}
        for tier, index, _, _ in self._tiers[:met]:
            hits = index.hits(query)
            for pos, c in enumerate(tier):
                by = next((neg for neg, mask in hits if mask >> pos & 1), None)
                if by is not None:
                    found[c.name] = by
        return found

    def landing(self, query: Keyword) -> tuple[Campaign, AdGroup] | None:
        """The campaign and ad group ``query`` lands in, or None for any other
        verdict, read off the verdict's positions with no disposition made."""
        met, admitted, open_groups = self._verdict(query)
        if not open_groups or open_groups & (open_groups - 1):
            return None
        campaign = self._tiers[met - 1][0][admitted.bit_length() - 1]
        return campaign, campaign.adgroups[open_groups.bit_length() - 1]

    def disposition(self, query: Keyword) -> Disposition:
        """``run(query).disposition``, without building any ``Step``."""
        return self._disposition(*self._verdict(query))

    def _verdict(self, query: Keyword) -> tuple[int, int, int]:
        """The query's verdict as plain positions: the number of tiers it
        met, the bitmask of the deciding tier's admitting campaigns, and,
        when exactly one admits, the bitmask of its open ad groups.

        The first tier with an admitting campaign decides.  No admitting
        campaign in any tier gives ``(len(tiers), 0, 0)``, and several give
        no ad-group mask.
        """
        for met, (_, index, all_campaigns, adgroups) in enumerate(self._tiers, 1):
            admitted = all_campaigns & ~index.blocked(query)
            if not admitted:
                continue
            if admitted & (admitted - 1):
                return met, admitted, 0
            group_index, all_groups = adgroups[admitted.bit_length() - 1]
            return met, admitted, all_groups & ~group_index.blocked(query)
        return len(self._tiers), 0, 0

    def _disposition(self, met: int, admitted: int, open_groups: int) -> Disposition:
        """The disposition a verdict's positions stand for: several admitting
        campaigns are ambiguous; one is entered, and its open ad groups give a
        landing, a dead end or an ambiguity; none fell through."""
        if not admitted:
            return FellThrough()
        tier = self._tiers[met - 1][0]
        if admitted & (admitted - 1):
            return Ambiguous(_names(tier, admitted), ())
        campaign = tier[admitted.bit_length() - 1]
        groups = campaign.adgroups
        if not open_groups:
            return DeadEnd(campaign.name)
        if open_groups & (open_groups - 1):
            return Ambiguous((campaign.name,), _names(groups, open_groups))
        return Landed(campaign.name, groups[open_groups.bit_length() - 1].name)

    def run(self, query: Keyword) -> Trajectory:
        """The verdict with one ``Step`` per campaign of each tier met: in the
        deciding tier, one entered campaign comes after the blocked ones and
        several come before them."""
        verdict = self._verdict(query)
        met = verdict[0]
        blockers = self._blockers(query, met)
        steps: list[Step] = []
        for tier, _, _, adgroups in self._tiers[:met]:
            entered: list[Step] = []
            blocked: list[Step] = []
            for c, (group_index, _) in zip(tier, adgroups):
                if c.name in blockers:
                    blocked.append(Step(c.name, Blocked(blockers[c.name])))
                else:
                    shut = group_index.blocked(query)
                    entered.append(Step(c.name, Entered(_names(c.adgroups, ~shut))))
            steps += entered + blocked if len(entered) > 1 else blocked + entered
        return Trajectory(query, tuple(steps), self._disposition(*verdict))
