"""End-to-end smokes: the CLI on synth catalogues and on hand-made rules, and
two seeded update runs at n=3000 through the API.

Each CLI command runs in process through ``shopstruct.cli.main``, and each
pinned output is checked against its entry in ``pins.json``.  Most smokes
start from the ``synth300`` fixture: synth n=300 seed 0 and its reduced
build, written once by the CLI and only read after that.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import shutil
from pathlib import Path

import pytest

from shopstruct import (
    Money,
    Rule,
    SyntheticSpec,
    account_document,
    add_rule,
    build_account,
    generate,
    matches,
    normalize,
    parse_account,
    phrase,
    remove_rule,
    render_account,
    snapshot,
    verify_account,
)
from shopstruct.cli import build_parser, main
from shopstruct.erasers import LargeEraser, all_subset_images, rank_subset_images, reduce_keywords
from shopstruct.updates import AddCampaign

import cli_smoke
from pins import pin, sha256


def run(capsys, *argv) -> tuple[int, str, str]:
    """``main(argv)`` as its exit code, stdout and stderr."""
    capsys.readouterr()
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_exits(capsys, code: int, message: str, *argv) -> None:
    """``main(argv)`` exits ``code`` and prints ``error: message`` alone on stderr."""
    assert run(capsys, *argv)[::2] == (code, f"error: {message}\n")


def catalogue(out: Path) -> list[str]:
    """The options that name the catalogue files ``synth`` wrote into ``out``."""
    rules, brands, non_brands = out / "rules.jsonl", out / "brands.txt", out / "non_brands.txt"
    return ["--rules", str(rules), "--brands", str(brands), "--non-brands", str(non_brands)]


def synth(out: Path, n: int, seed: int) -> list[str]:
    """Write synth ``n`` ``seed`` into ``out``; return its ``catalogue`` options."""
    argv = ["synth", "--n", str(n), "--seed", str(seed), "--rules-out", str(out / "rules.jsonl")]
    argv += ["--brands-out", str(out / "brands.txt")]
    assert main(argv + ["--non-brands-out", str(out / "non_brands.txt")]) == 0
    return catalogue(out)


def edited(source: Path, target: Path, edit) -> Path:
    """Write ``source``'s document into ``target`` after ``edit`` changed it."""
    doc = json.loads(source.read_text())
    edit(doc)
    target.write_text(json.dumps(doc))
    return target


def campaign(doc: dict, name: str) -> dict:
    return next(c for c in doc["campaigns"] if c["name"] == name)


@pytest.fixture(scope="session")
def synth300(tmp_path_factory) -> Path:
    """A directory holding synth n=300 seed 0 (``rules.jsonl``, ``brands.txt``,
    ``non_brands.txt``) and its reduced build ``account.json``, all written by
    the CLI.  Tests only read these files; one that rewrites the catalogue
    copies it first."""
    out = tmp_path_factory.mktemp("synth300")
    assert main(["build", *synth(out, 300, 0), "--out", str(out / "account.json")]) == 0
    return out


@pytest.fixture(scope="session")
def tampered(synth300, tmp_path_factory) -> Path:
    """synth300's account without c3_2's first large negative: c3_2 then
    admits 13 keywords of group 3."""

    def drop(doc):
        negatives = campaign(doc, "c3_2")["negatives"]
        negatives.remove(next(n for n in negatives if n["match"] == "large"))

    target = tmp_path_factory.mktemp("tamper") / "tampered.json"
    return edited(synth300 / "account.json", target, drop)


@pytest.fixture(scope="session")
def swapped(synth300, tmp_path_factory) -> Path:
    """synth300's account with c3_2's first two ad groups swapping negatives:
    each of their keywords then lands in the other's ad group."""

    def swap(doc):
        a, b = campaign(doc, "c3_2")["adgroups"][:2]
        a["negatives"], b["negatives"] = b["negatives"], a["negatives"]

    target = tmp_path_factory.mktemp("swap") / "swapped.json"
    return edited(synth300 / "account.json", target, swap)


def test_cli_smoke_names_every_subcommand():
    # CI runs cli_smoke under -I -S and -X dev -W error, so a command the
    # parser gains must join its list.
    def leaves(parser, path=()):
        [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)] or [None]
        if subs is None:
            return {path}
        return {leaf for name, p in subs.choices.items() for leaf in leaves(p, (*path, name))}

    def command(argv):
        return tuple(itertools.takewhile(lambda arg: not arg.startswith("-"), argv))

    assert {command(argv) for argv in cli_smoke.commands("out")} == leaves(build_parser())


def test_cli_smoke_runs_in_process(tmp_path, capsys):
    for argv in cli_smoke.commands(str(tmp_path)):
        assert run(capsys, *argv)[0] == 0, argv


def test_passing_report_at_1000_is_pinned(tmp_path, capsys):
    # Every property checks 1000 cases and passes, with no skip note: the
    # digest guards checked counts, notes and probe yield against changes to
    # parsing and routing.
    account = tmp_path / "account.json"
    assert main(["build", *synth(tmp_path, 1000, 0), "--out", str(account)]) == 0
    assert sha256(account.read_bytes()) == pin("synth-1000-seed-0")
    code, out, _ = run(capsys, "verify", "--account", account, "--json")
    assert (code, sha256(out)) == (0, pin("synth-1000-seed-0-report"))


def test_maintenance_snapshots_are_pinned(synth300, tmp_path, capsys):
    # The digest json.dumps(account_document(account), indent=2) gives.
    assert sha256((synth300 / "account.json").read_bytes()) == pin("synth-300-seed-0")
    rules = shutil.copy(synth300 / "rules.jsonl", tmp_path / "rules.jsonl")
    grown, trimmed, retired = (tmp_path / f"{n}.json" for n in ("grown", "trimmed", "retired"))
    # "bo ka bobe" holds large erasers of two groups, so every group campaign
    # blocks it and the add opens campaign c3_18.
    argv = ["update", "add-rule", "--account", synth300 / "account.json", "--keyword", "bo ka bobe"]
    assert run(capsys, *argv, "--cpc-micros", 120000, "--items", "item-new", "--out", grown)[0] == 0
    assert sha256(grown.read_bytes()) == pin("maintenance-grown")
    assert run(capsys, "verify", "--account", grown)[0] == 0
    # "bu be ci" is the catalogue's first keyword; retiring item-0167 removes
    # the two rules that sell only it and shrinks two more.
    argv = ["update", "rm-rule", "--account", grown, "--keyword", "bu be ci", "--rules", rules]
    assert run(capsys, *argv, "--out", trimmed)[0] == 0
    assert sha256(trimmed.read_bytes()) == pin("maintenance-trimmed")
    argv = ["update", "rm-item", "--account", trimmed, "--item", "item-0167", "--rules", rules]
    assert run(capsys, *argv, "--out", retired)[0] == 0
    assert sha256(retired.read_bytes()) == pin("maintenance-retired")
    assert run(capsys, "verify", "--account", retired)[0] == 0


def test_admitted_add_is_pinned(synth300, tmp_path, capsys):
    # Of the 17 group campaigns only c3_17 admits "ba babe": it gains an ad
    # group there, and its exact negative goes to c1, c2 and c3_17's 16 other
    # ad groups.  The other 16 group campaigns block it already and gain nothing.
    admitted = tmp_path / "admitted.json"
    argv = ["update", "add-rule", "--account", synth300 / "account.json", "--keyword", "ba babe"]
    argv += ["--cpc-micros", 90000, "--items", "item-new", "--json", "--out", admitted]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert sha256(admitted.read_bytes()) == pin("admitted-snapshot")
    assert sha256(out) == pin("admitted-update-json")


def test_punctuation_round_trips_and_is_pinned(tmp_path, capsys):
    keywords = [
        "nike shoes}",
        "nike [soccer] white",
        'adidas "superstar"',
        "adidas back\\slash",
        "café crème",
        "air max",
        "nike air max",
        "large tee-shirt",
        "garmin chronometer",
        "adidas superstar sneaker",
        "large superstar shoes",
    ]
    rules = tmp_path / "rules.jsonl"
    with open(rules, "w") as fh:
        for i, kw in enumerate(keywords):
            rule = {"keyword": kw, "cpc_micros": 100000 + 10000 * i, "items": [f"item-{i + 1}"]}
            fh.write(json.dumps(rule) + "\n")
    (tmp_path / "brands.txt").write_text("nike\nadidas\n")
    account, grown, trimmed = (tmp_path / f"{n}.json" for n in ("account", "grown", "trimmed"))
    argv = ["build", "--rules", rules, "--brands", tmp_path / "brands.txt", "--out", account]
    assert run(capsys, *argv)[0] == 0
    assert sha256(account.read_bytes()) == pin("punctuation-built")
    assert run(capsys, "verify", "--account", account)[0] == 0
    argv = ["update", "add-rule", "--account", account, "--keyword", 'nike "air" [\\] é']
    assert run(capsys, *argv, "--cpc-micros", 120000, "--items", "item-new", "--out", grown)[0] == 0
    assert sha256(grown.read_bytes()) == pin("punctuation-grown")
    assert run(capsys, "verify", "--account", grown)[0] == 0
    argv = ["update", "rm-rule", "--account", grown, "--keyword", "nike shoes}", "--rules", rules]
    assert run(capsys, *argv, "--out", trimmed)[0] == 0
    assert sha256(trimmed.read_bytes()) == pin("punctuation-trimmed")
    assert run(capsys, "verify", "--account", trimmed)[0] == 0
    # A "}" in a list entry's keyword sends the text to the whole parse; once
    # "nike shoes}" is gone, every list is cut from the layout.
    for path, cut in ((account, False), (grown, False), (trimmed, True)):
        text = path.read_text()
        assert (snapshot._cut_lists(text) is not None) is cut, path.name
        assert render_account(parse_account(text)) == text, path.name


def test_tampered_account_fails_with_a_pinned_report(synth300, tampered, tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--account", synth300 / "account.json", "--json")
    assert (code, sha256(out)) == (0, pin("tamper-clean-report"))
    code, out, _ = run(capsys, "verify", "--account", tampered)
    assert code == 1 and "FAIL" in out
    code, out, _ = run(capsys, "verify", "--account", tampered, "--json")
    assert (code, sha256(out)) == (1, pin("tamper-report"))
    # The partition key must equal the groups the rule ad groups make: moving
    # one keyword to the next group's entry is rejected on parse.
    moved = edited(
        synth300 / "account.json",
        tmp_path / "moved.json",
        lambda doc: doc["partition"][1].append(doc["partition"][0].pop()),
    )
    message = "partition does not match the rule ad groups of the group campaigns"
    assert_exits(capsys, 2, message, "verify", "--account", moved)


def test_sibling_swap_fails_with_a_pinned_report(swapped, capsys):
    assert run(capsys, "verify", "--account", swapped)[0] == 1
    code, out, _ = run(capsys, "verify", "--account", swapped, "--json")
    assert (code, sha256(out)) == (1, pin("swap-report"))


def test_simulate_trajectories_are_pinned(tampered, swapped, capsys):
    # "ba ca" is ambiguous between c3_2 and c3_3, two brands dead-end in the
    # brand campaign, a blocked brand falls through, and "cu bo bi fa" lands
    # in the ad group it swapped into.
    runs = [(tampered, q) for q in ("ba ca", "kabe kebe", "kobe sale")] + [(swapped, "cu bo bi fa")]
    trajectories = ""
    for account, query in runs:
        code, out, _ = run(capsys, "simulate", "--account", account, "--query", query, "--json")
        assert code == 0
        trajectories += out
    assert sha256(trajectories) == pin("simulate-trajectories")


def test_reduce_stats_json_is_pinned(synth300, capsys):
    # The naive count comes from bounds.nk_exact; no naive account is built.
    code, out, _ = run(capsys, "reduce-stats", *catalogue(synth300), "--json")
    assert (code, sha256(out)) == (0, pin("reduce-stats-300"))


def test_limit_refuses_a_build_and_adds_over_it(synth300, tmp_path, capsys):
    options = catalogue(synth300)
    a, b, low, c = (tmp_path / f"{name}.json" for name in ("a", "b", "low", "c"))
    # c1, the High campaign, is the largest list: 305 negatives.
    message = "campaign c1 holds 305 negatives, over the limit of 304"
    assert_exits(capsys, 2, message, "build", *options, "--limit", 304, "--out", a)
    assert run(capsys, "build", *options, "--limit", 305, "--out", a)[0] == 0
    # Any added rule lengthens c1 past the snapshot's limit of 305.
    add = ["update", "add-rule", "--keyword", "zz yy xx", "--cpc-micros", 1000, "--items", "i1"]
    message = "campaign c1 holds 306 negatives, over the limit of 305"
    assert_exits(capsys, 2, message, *add, "--account", a, "--out", b)
    assert not b.exists()
    # With the limit lowered to 300, c1 is over it already.  A removal
    # lengthens no list and passes; an add lengthens c1 and exits 2.
    edited(a, low, lambda doc: doc.update(limit=300))
    rules = shutil.copy(synth300 / "rules.jsonl", tmp_path / "rules.jsonl")
    argv = ["update", "rm-rule", "--account", low, "--keyword", "bu be ci", "--rules", rules]
    assert run(capsys, *argv, "--out", tmp_path / "trimmed.json")[0] == 0
    message = "campaign c1 holds 306 negatives, over the limit of 300"
    assert_exits(capsys, 2, message, *add, "--account", low, "--out", c)
    assert not c.exists()


def test_priority_off_its_tier_is_bad_input(synth300, tmp_path, capsys):
    # A campaign's tier is its tag's: group campaign c3_2 sits in Low.
    high = edited(
        synth300 / "account.json",
        tmp_path / "high.json",
        lambda doc: campaign(doc, "c3_2").update(priority="high"),
    )
    message = "campaign 'c3_2' is a group campaign, so its priority must be 'low', not 'high'"
    assert_exits(capsys, 2, message, "verify", "--account", high)
    assert_exits(capsys, 2, message, "simulate", "--account", high, "--query", "ba ca")


def test_naive_build_is_pinned(synth300, tmp_path, capsys):
    naive = tmp_path / "naive.json"
    assert run(capsys, "build", *catalogue(synth300), "--mode", "naive", "--out", naive)[0] == 0
    assert sha256(naive.read_bytes()) == pin("synth-300-seed-0-naive")


def test_target_below_the_square_root_builds_and_verifies(synth300, tmp_path, capsys):
    # ceil(sqrt(300)) is 18; the candidate cap follows the smaller target.
    t9, t27 = tmp_path / "t9.json", tmp_path / "t27.json"
    assert run(capsys, "build", *catalogue(synth300), "--target-size", 9, "--out", t9)[0] == 0
    assert run(capsys, "verify", "--account", t9)[0] == 0
    assert run(capsys, "build", *catalogue(synth300), "--target-size", 27, "--out", t27)[0] == 0
    assert sha256(t27.read_bytes()) == pin("synth-300-seed-0-target-27")


def test_group_lists_off_the_group_campaigns_are_bad_input(synth300, tmp_path, capsys):
    # 17 group campaigns keep their ad groups; the lists lose group 17, and
    # the eraser lists, checked first, name the mismatch.
    def shorten(doc):
        del doc["partition"][-1], doc["erasers"][-1]

    short = edited(synth300 / "account.json", tmp_path / "short.json", shorten)
    message = "erasers lists 16 groups for 17 group campaigns"
    assert_exits(capsys, 2, message, "verify", "--account", short)


def _large_words(account) -> list[tuple[int, list[str]]]:
    """Each large eraser of ``account`` as its group and its sorted words."""
    return [
        (pos, sorted(e.words))
        for pos, group in enumerate(account.erasers)
        for e in group
        if isinstance(e, LargeEraser)
    ]


def test_campaign_opens_at_3000_cover_as_reduce_keywords():
    """Seeded campaign-opening adds at synth n=3000 seed 0, and removals of
    the opened keywords: each opened list is the reduced cover, and the final
    snapshot is pinned."""
    cat = generate(SyntheticSpec(n=3000, seed=0))
    account = build_account(cat.rules, cat.brands, cat.non_brands)
    rng = random.Random(0)
    opened = []
    for i in range(12):
        # The words of large erasers of two groups: every group campaign blocks them.
        larges = _large_words(account)
        everywhere = (1 << len(account.group_campaigns())) - 1
        existing = account.keywords()
        while True:
            (g1, w1), (g2, w2) = rng.sample(larges, 2)
            kw = normalize(" ".join(w1 + [w for w in w2 if w not in w1]))
            if (
                g1 != g2
                and kw not in existing
                and account.admission_index.blocked(kw) == everywhere
            ):
                break
        # The ranking the open walks, refiled since the build, equals a fresh one.
        assert account.cover_ranking == rank_subset_images(all_subset_images(existing)), i
        out = add_rule(account, Rule(kw, Money(100_000 + i), frozenset({f"item-open-{i}"})))
        [camp] = [c.campaign for c in out.changes if isinstance(c, AddCampaign)]
        cover = reduce_keywords(existing, existing | {kw})
        blocked = {phrase(b) for b in account.non_brands}
        assert camp.negatives == {e.to_negative() for e in cover} | blocked, kw.text
        account = out.account
        opened.append(kw)
        if i % 3 == 2:
            account = remove_rule(account, opened.pop(rng.randrange(len(opened)))).account
    assert verify_account(account).passed
    # 55 built group campaigns, 12 opened and 4 closed again.
    assert len(account.group_campaigns()) == 63
    assert sha256(render_account(account)) == pin("open-3000")


def test_schema_writer_at_3000_after_seeded_updates():
    """After the synth n=3000 seed 1 build and 10 seeded updates, 4 of them
    campaign opens, each render equals json.dumps of account_document and
    survives a parse round trip."""

    def check(account):
        text = render_account(account)
        assert text == json.dumps(account_document(account), indent=2) + "\n"
        assert render_account(parse_account(text)) == text

    cat = generate(SyntheticSpec(n=3000, seed=1))
    account = build_account(cat.rules, cat.brands, cat.non_brands)
    check(account)
    rng = random.Random(1)
    opens = 0
    for i in range(10):
        existing = account.keywords()
        everywhere = (1 << len(account.group_campaigns())) - 1
        if i % 3 == 2:
            out = remove_rule(account, rng.choice(sorted(existing)))
        else:
            if i % 3 == 0:
                # The words of large erasers of two groups: every group campaign blocks them.
                larges = _large_words(account)
            words = sorted({w for kw in existing for w in kw.words})
            while True:
                if i % 3 == 0:
                    (g1, w1), (g2, w2) = rng.sample(larges, 2)
                    kw = normalize(" ".join(w1 + [w for w in w2 if w not in w1]))
                    wanted = g1 != g2
                else:
                    kw = normalize(" ".join(rng.sample(words, 2)))
                    wanted = True
                blocked = account.admission_index.blocked(kw)
                if (
                    wanted
                    and kw not in existing
                    and (blocked == everywhere) == (i % 3 == 0)
                    and not any(matches(kw, phrase(b)) for b in account.non_brands)
                ):
                    break
            out = add_rule(account, Rule(kw, Money(100_000 + i), frozenset({f"item-schema-{i}"})))
        opens += sum(isinstance(c, AddCampaign) for c in out.changes)
        account = out.account
        check(account)
    assert opens == 4, opens
