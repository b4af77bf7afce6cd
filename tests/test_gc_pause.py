"""The bulk calls pause the cyclic garbage collector; these tests guard why
that is safe and that the caller's collector state survives every call.

A call that builds a reference cycle would leave garbage that only the
collector frees; with the collector paused that garbage would pile up, so
the first test fails if a compile, parse or verify path ever makes one.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from shopstruct import (
    BuildConfig,
    InputError,
    LimitExceededError,
    Rule,
    ShopstructError,
    Simulator,
    SyntheticSpec,
    build_account,
    dumps_rules,
    generate,
    loads_rules,
    normalize,
    parse_account,
    reduction_stats,
    render_account,
    verify_account,
)
from shopstruct import account as account_mod
from shopstruct import builder, simulate, snapshot
from shopstruct.cli import main


@pytest.fixture(scope="module")
def synth300():
    """Synth n=300 seed 0: its catalogue, rules text, account and snapshot,
    and the snapshot re-indented, which parses whole."""
    cat = generate(SyntheticSpec(n=300, seed=0))
    catalogue = (cat.rules, cat.brands, cat.non_brands)
    account = build_account(*catalogue)
    text = render_account(account)
    return SimpleNamespace(
        catalogue=catalogue,
        rules=dumps_rules(cat.rules),
        account=account,
        text=text,
        reindented=json.dumps(json.loads(text), indent=4),
        braced=_braced(catalogue),
    )


def _braced(catalogue) -> str:
    """The snapshot of the catalogue with a "}" after its first keyword:
    laid out as the writer lays it out, but the cut splits each entry of
    that keyword at its brace, so the text is parsed whole."""
    rules, brands, non_brands = catalogue
    first = rules[0]
    braced = Rule(normalize(first.keyword.text + "}"), first.cpc, first.items)
    text = render_account(build_account((braced, *rules[1:]), brands, non_brands))
    assert snapshot._cut_lists(text) is None
    return text


def _unknown_match(text: str) -> str:
    """The snapshot, still laid out as the writer lays it out, with an
    unknown match in its first entry: the cut reads the entry and falls
    back to the whole parse, which names it."""
    return text.replace('"match": "exact"', '"match": "broad"', 1)


def _bad_negative(text: str) -> str:
    doc = json.loads(text)
    doc["campaigns"][0]["negatives"][0] = {"keyword": "x", "match": "fuzzy"}
    return json.dumps(doc)


# name -> (call on the synth300 fixture, the error it raises or None)
CALLS = {
    "loads_rules": (lambda s: loads_rules(s.rules), None),
    "build_account": (lambda s: build_account(*s.catalogue), None),
    "render_account": (lambda s: render_account(s.account), None),
    "parse_account": (lambda s: parse_account(s.text), None),
    "parse_reindented": (lambda s: parse_account(s.reindented), None),
    "parse_braced": (lambda s: parse_account(s.braced), None),
    "verify_account": (lambda s: verify_account(s.account), None),
    "Simulator": (lambda s: Simulator(s.account), None),
    "admission_index": (lambda s: parse_account(s.text).admission_index, None),
    "subset_images": (lambda s: parse_account(s.text).subset_images, None),
    "reduction_stats": (lambda s: reduction_stats(*s.catalogue), None),
    "build_over_limit": (
        lambda s: build_account(*s.catalogue, config=BuildConfig(limit=1)),
        LimitExceededError,
    ),
    "loads_rules_not_json": (lambda s: loads_rules("{" + s.rules), InputError),
    "parse_not_json": (lambda s: parse_account("{" + s.text), InputError),
    "parse_bad_negative": (lambda s: parse_account(_bad_negative(s.text)), InputError),
    "parse_unknown_match": (lambda s: parse_account(_unknown_match(s.text)), InputError),
}


@contextmanager
def _collector(enabled: bool):
    """Set the collector on or off for the block, then put back the state
    the test runner had."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()


def _call(name, synth300):
    """Run one call; the type of the error it raised, or None."""
    try:
        CALLS[name][0](synth300)
    except ShopstructError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("name", CALLS)
def test_paused_call_leaves_no_cyclic_garbage(synth300, name):
    with _collector(False):
        gc.collect()
        raised = _call(name, synth300)
        assert gc.collect() == 0
    assert raised is CALLS[name][1]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name", CALLS)
def test_paused_call_restores_the_collector_state(synth300, name, enabled):
    with _collector(enabled):
        assert _call(name, synth300) is CALLS[name][1]
        assert gc.isenabled() is enabled


def test_collector_is_off_inside_the_call_and_a_nested_call_keeps_it_off(
    synth300, monkeypatch
):
    seen = []
    emit, parse_document = builder._emit_account, snapshot.parse_account_document

    def spy_emit(*args, **kwargs):
        seen.append(("emit", gc.isenabled()))
        return emit(*args, **kwargs)

    def spy_parse_document(*args, **kwargs):
        account = parse_document(*args, **kwargs)
        seen.append(("after parse_account_document", gc.isenabled()))
        return account

    monkeypatch.setattr(builder, "_emit_account", spy_emit)
    monkeypatch.setattr(snapshot, "parse_account_document", spy_parse_document)
    with _collector(True):
        builder.reduction_stats(*synth300.catalogue)
        assert gc.isenabled()
        snapshot.parse_account(synth300.text)
        assert gc.isenabled()
    # Both calls pause; parse_account's nested call must not switch it back on.
    assert seen == [("emit", False), ("after parse_account_document", False)]


def test_simulator_setup_runs_with_the_collector_off(synth300, monkeypatch):
    seen = []
    index = simulate.NegativeIndex

    def spy_index(*lists):
        seen.append(gc.isenabled())
        return index(*lists)

    monkeypatch.setattr(simulate, "NegativeIndex", spy_index)
    with _collector(True):
        Simulator(synth300.account)
        assert gc.isenabled()
    assert seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_build_and_verify_restore_the_collector_state(tmp_path, enabled):
    rules, account = tmp_path / "rules.jsonl", tmp_path / "account.json"
    assert main(["synth", "--n", "60", "--seed", "0", "--rules-out", str(rules)]) == 0
    with _collector(enabled):
        assert main(["build", "--rules", str(rules), "--out", str(account)]) == 0
        assert gc.isenabled() is enabled
        assert main(["verify", "--account", str(account)]) == 0
        assert gc.isenabled() is enabled
        over = ["build", "--rules", str(rules), "--limit", "1", "--out", str(account)]
        assert main(over) == 2
        assert gc.isenabled() is enabled


def test_derived_builds_from_scratch_run_with_the_collector_off(synth300, monkeypatch):
    # A parsed account has no base: its admission index and subset images are
    # built from the whole account, and both pause the collector.
    seen = []
    index, filed = account_mod.NegativeIndex, account_mod.all_subset_images

    def spy_index(*lists):
        seen.append(("admission_index", gc.isenabled()))
        return index(*lists)

    def spy_filed(keywords):
        seen.append(("subset_images", gc.isenabled()))
        return filed(keywords)

    monkeypatch.setattr(account_mod, "NegativeIndex", spy_index)
    monkeypatch.setattr(account_mod, "all_subset_images", spy_filed)
    parsed = parse_account(synth300.text)
    with _collector(True):
        parsed.admission_index
        parsed.subset_images
        assert gc.isenabled()
    assert seen == [("admission_index", False), ("subset_images", False)]
