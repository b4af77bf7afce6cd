from __future__ import annotations

import math

import pytest

from shopstruct import (
    InputError,
    REFERENCE_SITES,
    build_account,
    BuildConfig,
    high_medium_count,
    negative_count,
    nk_exact,
    nk_worst_case_optimal,
    nk_worst_case_optimal_rounded,
    reference_table,
)


def test_exact_count_small_example():
    assert nk_exact(4, 3, 1, [2, 2]) == 29


def test_high_medium_count_small_example():
    assert high_medium_count(4, 3, 1) == 19
    # No brands: the high campaign alone, n exacts and m' phrases.
    assert high_medium_count(4, 0, 1) == 5


def test_counts_without_brands_drop_the_medium_campaign():
    assert nk_exact(4, 0, 1, [2, 2]) == nk_exact(4, 1, 1, [2, 2]) - 1 - (4 + 1)
    assert nk_exact(300, 0, 0, [300]) == 300 + 300 * 299
    root = math.sqrt(10000)
    assert nk_worst_case_optimal(10000, 0, 2) == pytest.approx(
        (root + 2) * 2 + 2 * 10000 * root - (10000 + 2)
    )


def test_exact_count_formula_terms():
    # one group holding everything: m^2 + 3*mprime + n + n^2
    assert nk_exact(5, 2, 3, [5]) == 4 + 9 + 5 + 25


@pytest.mark.parametrize(
    ("n", "m", "mprime", "expected"),
    [
        (3000, 100, 30, 340337),
        (10000, 30, 20, 2002940),
        (7000, 1, 0, 1171325),
        (10000, 1000, 40, 3004080),
    ],
)
def test_worst_case_optimal_reference_sites(n, m, mprime, expected):
    assert nk_worst_case_optimal_rounded(n, m, mprime) == expected
    root = math.sqrt(n)
    assert nk_worst_case_optimal(n, m, mprime) == pytest.approx(
        m * m + (root + 2) * mprime + 2 * n * root, abs=0.01
    )


def test_reference_table_notes_flag_only_disagreeing_rows():
    rows = reference_table()
    assert [r.site for r in rows] == list(REFERENCE_SITES)
    assert rows[0].note is None
    assert rows[1].note is None
    assert rows[2].computed == 1171325
    assert "1171324" in rows[2].note
    assert rows[3].computed == 3004080
    assert "3002040" in rows[3].note


@pytest.mark.parametrize(
    "call",
    [
        lambda: nk_exact(-1, 0, 0, []),
        lambda: nk_exact(4, 3, 1, [2, 3]),
        lambda: nk_exact(4, 3, 1, [4, 0]),
        lambda: high_medium_count(1, -2, 0),
        lambda: nk_worst_case_optimal(1, 1, -1),
    ],
)
def test_invalid_counts_raise(call):
    with pytest.raises(InputError):
        call()


def test_exact_count_matches_built_account(four_rules):
    from shopstruct import Priority, SyntheticSpec, generate, normalize

    brands = tuple(normalize(b) for b in ("nike", "adidas", "garmin"))
    non_brands = (normalize("reebok"),)
    cases = [
        (four_rules, brands, non_brands),
        # Without brands the builder emits no medium campaign.
        (four_rules, (), non_brands),
        (four_rules, (), ()),
    ]
    for spec in (
        SyntheticSpec(n=300, seed=0, brand_count=0),
        SyntheticSpec(n=300, seed=0, brand_count=0, non_brand_count=0),
    ):
        cat = generate(spec)
        cases.append((cat.rules, cat.brands, cat.non_brands))
    for rules, brands, non_brands in cases:
        account = build_account(rules, brands, non_brands, config=BuildConfig(mode="naive"))
        n, m, mprime = len(rules), len(brands), len(non_brands)
        sizes = [len(g) for g in account.partition]
        assert negative_count(account) == nk_exact(n, m, mprime, sizes)
        upper = [c for c in account.campaigns if c.priority is not Priority.LOW]
        assert sum(
            len(c.negatives) + sum(len(g.negatives) for g in c.adgroups) for c in upper
        ) == high_medium_count(n, m, mprime)


def test_exact_count_matches_golden_naive(golden_naive_account):
    account = golden_naive_account
    sizes = [len(g) for g in account.partition]
    assert negative_count(account) == nk_exact(11, 3, 1, sizes)
