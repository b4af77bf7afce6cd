"""Acceptance gate: the eight binding criteria, one test and one printed
pass/fail line each.  The lines bypass capture so the final pytest log always
shows them."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from oracles import exact_packing_oracle
from test_erasers import EXPECTED_CANDIDATES

from shopstruct import (
    Money,
    NegativeIndex,
    Rule,
    Simulator,
    SyntheticSpec,
    add_rule,
    build_account,
    build_graph,
    enumerate_candidates,
    exact,
    generate,
    large,
    negative_count,
    nk_exact,
    nk_worst_case_optimal_rounded,
    normalize,
    parse_account,
    phrase,
    reduction_stats,
    reference_table,
    render_account,
    select_color_class,
    verify_account,
    welsh_powell,
)
from shopstruct.cli import main as cli_main


@contextmanager
def _criterion(capsys, number: int, label: str):
    info: dict[str, str] = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    detail = info.get("detail")
    tail = f" ({detail}; {elapsed:.2f}s)" if detail else f" ({elapsed:.2f}s)"
    with capsys.disabled():
        print(f"\n[PASS] criterion {number}: {label}{tail}")


def test_criterion_1_sizing_table(capsys):
    with _criterion(capsys, 1, "closed-form sizing table") as info:
        assert nk_worst_case_optimal_rounded(3000, 100, 30) == 340337
        assert nk_worst_case_optimal_rounded(10000, 30, 20) == 2002940
        assert abs(nk_worst_case_optimal_rounded(7000, 1, 0) - 1171324) <= 2
        assert nk_worst_case_optimal_rounded(10000, 1000, 40) == 3004080
        rows = reference_table()
        last = rows[3]
        assert last.computed == 3004080 and last.site.printed == 3002040
        assert last.note is not None and "3002040" in last.note

        assert cli_main(["bounds", "--sites"]) == 0
        out = capsys.readouterr().out
        assert "computed 340337 (quoted 340337)" in out
        assert "computed 2002940 (quoted 2002940)" in out
        assert "computed 1171325 (quoted 1171324)" in out
        assert "computed 3004080 (quoted 3002040)" in out
        assert "note:" in out
        info["detail"] = (
            "340337 and 2002940 exact, 1171325 within +/-2 of the quoted"
            " figure, 3004080 printed with the transcription note"
        )


def test_criterion_2_golden_pipeline(golden_rules, golden_brands, golden_non_brands, capsys):
    with _criterion(capsys, 2, "eleven-keyword golden pipeline") as info:
        start = time.perf_counter()
        keywords = [r.keyword for r in golden_rules]
        candidates = enumerate_candidates(keywords)
        table = [
            (set(c.eraser.words), {kw.text for kw in c.image}) for c in candidates
        ]
        assert table == [
            (set(words), set(image)) for words, image in EXPECTED_CANDIDATES
        ]

        graph = build_graph(candidates)
        selected = select_color_class(graph, welsh_powell(graph))
        assert {frozenset(c.eraser.words) for c in selected} == {
            frozenset({"nike"}),
            frozenset({"adidas"}),
            frozenset({"large"}),
        }
        assert sum(c.weight for c in selected) == 8

        account = build_account(golden_rules, golden_brands, golden_non_brands)
        groups = tuple(frozenset(kw.text for kw in g) for g in account.partition)
        assert groups == (
            frozenset(
                {"nike shoes", "nike soccer white", "nike air max", "soccer colored mens"}
            ),
            frozenset(
                {"adidas running shoes", "adidas superstar", "adidas superstar sneaker"}
            ),
            frozenset(
                {"air max", "garmin chronometer", "large superstar shoes", "large tee-shirt"}
            ),
        )
        blockers = account.group_campaigns()[0].negatives - {
            phrase(normalize("reebok"))
        }
        assert blockers == frozenset(
            {
                large(normalize("adidas")),
                large(normalize("large")),
                exact(normalize("air max")),
                exact(normalize("garmin chronometer")),
            }
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = (
            "9 candidate erasers with pinned images, class covers 8/11,"
            " 3 groups, first campaign blockers as pinned"
        )


def test_criterion_3_property_suite(matrix_accounts, capsys):
    with _criterion(capsys, 3, "routing property suite over the matrix") as info:
        start = time.perf_counter()
        runs = 0
        for (n, seed, mode), account in sorted(matrix_accounts.items()):
            report = verify_account(account, probes=1000, seed=seed)
            summary = [
                (p.name, len(p.failures), p.note)
                for p in report.properties
                if p.failures
            ]
            assert report.passed, (n, seed, mode, summary, report.findings[:3])
            p1, p2, p3 = report.properties
            assert p1.checked == n
            assert p2.checked > 0 and p3.checked > 0
            runs += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        info["detail"] = (
            f"{runs} accounts: exhaustive own-keyword routing plus"
            " 1000-probe brand and generic routing each"
        )


def test_criterion_4_mode_equivalence(matrix_catalogues, matrix_accounts, capsys):
    with _criterion(capsys, 4, "naive and reduced modes land keywords identically") as info:
        compared = 0
        for (n, seed), cat in sorted(matrix_catalogues.items()):
            naive = matrix_accounts[(n, seed, "naive")]
            reduced = matrix_accounts[(n, seed, "reduced")]
            tags = {}
            for label, account in (("naive", naive), ("reduced", reduced)):
                tags[label] = {
                    (c.name, g.name): g.tag
                    for c in account.campaigns
                    for g in c.adgroups
                }
            sim_naive, sim_reduced = Simulator(naive), Simulator(reduced)
            for rule in cat.rules:
                dn = sim_naive.run(rule.keyword).disposition
                dr = sim_reduced.run(rule.keyword).disposition
                assert dn.kind == "landed" and dr.kind == "landed"
                tag_n = tags["naive"][(dn.campaign, dn.adgroup)]
                tag_r = tags["reduced"][(dr.campaign, dr.adgroup)]
                assert tag_n == tag_r, (n, seed, rule.keyword.text)
                compared += 1
        info["detail"] = f"{compared} keyword landings compared across modes"


def test_criterion_5_reduction_effectiveness(matrix_catalogues, capsys):
    with _criterion(capsys, 5, "eraser reduction beats the per-keyword count") as info:
        lines = []
        ratios = []
        for (n, seed), cat in sorted(matrix_catalogues.items()):
            stats = reduction_stats(cat.rules, cat.brands, cat.non_brands)
            assert stats.reduced_negatives < stats.naive_negatives, (n, seed)
            ratios.append(stats.ratio)
            lines.append(
                f"n={n:5d} seed={seed}: reduced {stats.reduced_negatives}"
                f" vs naive {stats.naive_negatives} (ratio {stats.ratio:.3f})"
            )
        mean = sum(ratios) / len(ratios)
        with capsys.disabled():
            print()
            for line in lines:
                print(f"    {line}")
            print(
                f"    mean ratio {mean:.3f}; a 0.24-0.35 band has been"
                " reported for heavier-reuse production catalogues and is"
                " shown for comparison only, not asserted"
            )
        info["detail"] = f"9/9 corpora improved, mean ratio {mean:.3f}"


def test_criterion_6_packing_oracle(capsys):
    with _criterion(capsys, 6, "greedy color class vs exhaustive packing") as info:
        start = time.perf_counter()
        rng = random.Random(0)
        ratios = []
        attempt = 0
        while len(ratios) < 50 and attempt < 400:
            spec = SyntheticSpec(
                n=rng.randint(6, 14), vocab_size=8, seed=100 + attempt
            )
            attempt += 1
            cat = generate(spec)
            candidates = enumerate_candidates([r.keyword for r in cat.rules])
            if not candidates or len(candidates) > 25:
                continue
            graph = build_graph(candidates)
            selected = select_color_class(graph, welsh_powell(graph))
            for i in range(len(selected)):
                for j in range(i + 1, len(selected)):
                    assert not (selected[i].image & selected[j].image)
            coverage = sum(c.weight for c in selected)
            optimum, chosen = exact_packing_oracle(candidates)
            used = set()
            for c in chosen:
                assert not (c.image & used)
                used.update(c.image)
            assert coverage <= optimum
            ratios.append(coverage / optimum if optimum else 1.0)
        assert len(ratios) >= 50
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        mean = sum(ratios) / len(ratios)
        info["detail"] = (
            f"{len(ratios)} instances, greedy/optimal coverage mean"
            f" {mean:.3f}, min {min(ratios):.3f}"
        )


def test_criterion_7_update_walkthroughs(golden_account, capsys, tmp_path):
    with _criterion(capsys, 7, "incremental update walkthroughs") as info:
        jog = Rule(normalize("nike jogging"), Money(130_000), frozenset({"item-12"}))
        joined = add_rule(golden_account, jog).account
        assert joined.group_of(jog.keyword) == 0
        own = joined.group_campaigns()[0]
        assert [g.name for g in own.adgroups][-1] == "nike jogging"
        for sibling in own.adgroups[:-1]:
            assert exact(jog.keyword) in sibling.negatives
        assert verify_account(joined, probes=1000, seed=0).passed

        big = Rule(normalize("nike large shoes"), Money(140_000), frozenset({"item-13"}))
        grown = add_rule(golden_account, big).account
        fresh = grown.group_campaigns()[3]
        index = NegativeIndex(fresh.negatives)
        for kw in sorted(golden_account.keywords()):
            assert index.blocked(kw)
        assert not index.blocked(big.keyword)
        sim = Simulator(grown)
        for kw in sorted(grown.keywords()):
            d = sim.run(kw).disposition
            assert d.kind == "landed" and d.adgroup == kw.text
        assert verify_account(grown, probes=1000, seed=0).passed

        snapshot = tmp_path / "account.json"
        snapshot.write_text(render_account(golden_account))
        assert (
            cli_main(
                [
                    "update",
                    "add-rule",
                    "--account",
                    str(snapshot),
                    "--keyword",
                    "nike jogging",
                    "--cpc-micros",
                    "130000",
                    "--items",
                    "item-12",
                ]
            )
            == 0
        )
        log = capsys.readouterr().out
        assert "add ad group 'nike jogging' to campaign c3_1" in log
        assert parse_account(snapshot.read_text()) == joined
        info["detail"] = (
            "join case lands in the first group with a new ad group;"
            " blocked case opens a campaign admitting only the new keyword;"
            " all 12 keywords land; both updates verify at 1000 probes"
        )


def test_criterion_8_counting_cross_check(matrix_catalogues, matrix_accounts, capsys):
    with _criterion(capsys, 8, "literal counts equal the closed form") as info:
        for (n, seed), cat in sorted(matrix_catalogues.items()):
            account = matrix_accounts[(n, seed, "naive")]
            sizes = [len(g) for g in account.partition]
            expected = nk_exact(n, len(cat.brands), len(cat.non_brands), sizes)
            assert negative_count(account) == expected, (n, seed)
        info["detail"] = (
            "all 9 naive matrix builds count exactly nk_exact of their partitions"
        )
