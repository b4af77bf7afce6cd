"""Closed-form negative keyword counts for planned account shapes.

These formulas predict how many negative keywords a built account will carry
before building it, so capacity against the per-campaign limit can be checked
up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError


def _check_counts(n: int, m: int, mprime: int) -> None:
    if n < 0 or m < 0 or mprime < 0:
        raise InputError("counts must be non-negative")


def _absent_medium(n: int, m: int, mprime: int) -> int:
    """The formulas below count a medium campaign whose own list holds the n
    keyword exacts and the m' blocked-brand phrases.  The builder emits that
    campaign only when there are brands, so for m = 0 these are subtracted."""
    return 0 if m else n + mprime


def nk_exact(n: int, m: int, mprime: int, group_sizes: Sequence[int]) -> int:
    """Exact negative total for a build over a concrete keyword partition.

    n is the keyword count, m the brand count, mprime the generic non-brand
    count, and group_sizes the sizes of the low priority groups. The result
    equals the literal number of negative keywords in the built account when
    every group blocks the others keyword by keyword.
    """
    _check_counts(n, m, mprime)
    sizes = list(group_sizes)
    if any(s < 1 for s in sizes):
        raise InputError("group sizes must be positive")
    if sum(sizes) != n:
        raise InputError(f"group sizes sum to {sum(sizes)}, expected {n}")
    k = len(sizes)
    total = m * m + (k + 2) * mprime + k * n + sum(s * s for s in sizes)
    return total - _absent_medium(n, m, mprime)


def high_medium_count(n: int, m: int, mprime: int) -> int:
    """Negative total of the high and medium priority campaigns alone."""
    _check_counts(n, m, mprime)
    return 2 * n + 2 * mprime + m * m - _absent_medium(n, m, mprime)


def nk_worst_case_optimal(n: int, m: int, mprime: int) -> float:
    """Negative total when the partition uses sqrt(n) groups of sqrt(n) keywords.

    That shape minimizes nk_exact over all equal-size partitions, so this is
    the planning figure for a catalogue where no keyword reuse is available.
    """
    _check_counts(n, m, mprime)
    root = math.sqrt(n)
    return m * m + (root + 2) * mprime + 2 * n * root - _absent_medium(n, m, mprime)


def nk_worst_case_optimal_rounded(n: int, m: int, mprime: int) -> int:
    return round(nk_worst_case_optimal(n, m, mprime))


@dataclass(frozen=True)
class ReferenceSite:
    """A published sizing example: inputs plus the figure quoted for them."""

    n: int
    m: int
    mprime: int
    printed: int


REFERENCE_SITES: tuple[ReferenceSite, ...] = (
    ReferenceSite(n=3000, m=100, mprime=30, printed=340337),
    ReferenceSite(n=10000, m=30, mprime=20, printed=2002940),
    ReferenceSite(n=7000, m=1, mprime=0, printed=1171324),
    ReferenceSite(n=10000, m=1000, mprime=40, printed=3002040),
)


@dataclass(frozen=True)
class ReferenceRow:
    site: ReferenceSite
    computed: int
    note: str | None


def reference_table() -> tuple[ReferenceRow, ...]:
    """Recompute every reference site and flag disagreements.

    Rows whose computed value differs from the quoted figure carry a note;
    the computed value is authoritative for planning.
    """
    rows = []
    for site in REFERENCE_SITES:
        computed = nk_worst_case_optimal_rounded(site.n, site.m, site.mprime)
        note = None
        if computed != site.printed:
            note = (
                f"computed {computed} differs from the quoted figure "
                f"{site.printed}; the formula value is used"
            )
        rows.append(ReferenceRow(site=site, computed=computed, note=note))
    return tuple(rows)
