from __future__ import annotations

import json

import pytest

from shopstruct import load_rules, parse_account
from shopstruct.cli import main


@pytest.fixture()
def workspace(tmp_path):
    """Synthesize a small catalogue and build an account snapshot from it."""
    rules = tmp_path / "rules.jsonl"
    brands = tmp_path / "brands.txt"
    non_brands = tmp_path / "non-brands.txt"
    account = tmp_path / "account.json"
    assert (
        main(
            [
                "synth",
                "--n",
                "30",
                "--seed",
                "5",
                "--rules-out",
                str(rules),
                "--brands-out",
                str(brands),
                "--non-brands-out",
                str(non_brands),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "build",
                "--rules",
                str(rules),
                "--brands",
                str(brands),
                "--non-brands",
                str(non_brands),
                "--out",
                str(account),
            ]
        )
        == 0
    )
    return tmp_path


def test_synth_is_deterministic_on_disk(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["synth", "--n", "25", "--seed", "9", "--rules-out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_build_writes_parseable_snapshot(workspace, capsys):
    target = workspace / "second.json"
    assert (
        main(
            [
                "build",
                "--rules",
                str(workspace / "rules.jsonl"),
                "--out",
                str(target),
            ]
        )
        == 0
    )
    assert "built reduced account" in capsys.readouterr().out
    account = parse_account((workspace / "account.json").read_text())
    assert account.general_campaign().name == "c1"
    assert len(account.partition) > 1
    assert parse_account(target.read_text()).brand_campaign() is None


def test_build_to_stdout(workspace, capsys):
    assert (
        main(
            [
                "build",
                "--rules",
                str(workspace / "rules.jsonl"),
                "--out",
                "-",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    account = parse_account(out)
    assert account.brand_campaign() is None


def test_simulate_text_and_json(workspace, capsys):
    rules = load_rules(workspace / "rules.jsonl")
    query = rules[0].keyword.text
    account = str(workspace / "account.json")

    assert main(["simulate", "--account", account, "--query", query]) == 0
    text = capsys.readouterr().out
    assert f"query: {query}" in text
    assert "landed" in text

    assert main(["simulate", "--account", account, "--query", query, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["query"] == query
    assert doc["disposition"]["kind"] == "landed"
    assert doc["disposition"]["adgroup"] == query
    assert any("blocked_by" in step for step in doc["steps"])


def test_verify_passes_and_reports_json(workspace, capsys):
    account = str(workspace / "account.json")
    assert main(["verify", "--account", account, "--probes", "100"]) == 0
    text = capsys.readouterr().out
    assert "verification passed" in text

    assert main(["verify", "--account", account, "--probes", "100", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert [p["name"] for p in doc["properties"]] == [
        "own-keyword routing",
        "brand routing",
        "generic routing",
    ]


def test_verify_rules_report_a_removed_rule_adgroup(workspace, capsys):
    # Dropping a rule ad group and its partition entry leaves a sound
    # account that verifies clean; only the catalogue shows the keyword gone.
    path = workspace / "account.json"
    doc = json.loads(path.read_text())
    index, camp = next(
        (i, c) for i, c in enumerate(c for c in doc["campaigns"] if c["priority"] == "low")
        if len(c["adgroups"]) > 1
    )
    gone = camp["adgroups"].pop()["tag"]["keyword"]
    doc["partition"][index].remove(gone)
    path.write_text(json.dumps(doc))
    args = ["verify", "--account", str(path), "--probes", "50"]
    assert main(args) == 0
    capsys.readouterr()
    rules = ["--rules", str(workspace / "rules.jsonl")]
    assert main(args + rules) == 1
    out = capsys.readouterr().out
    assert f"finding [catalogue]: rule keyword {gone!r} has no rule ad group" in out
    assert out.endswith("verification FAILED\n")
    assert main(args + rules + ["--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"] == [
        {"kind": "catalogue", "detail": f"rule keyword {gone!r} has no rule ad group"}
    ]


def test_verify_non_string_keyword_exits_2(workspace, capsys):
    account_path = workspace / "account.json"
    doc = json.loads(account_path.read_text())
    doc["brands"] = [5]
    account_path.write_text(json.dumps(doc))
    assert main(["verify", "--account", str(account_path)]) == 2
    assert capsys.readouterr().err == "error: brand must be a string: 5\n"


def test_verify_string_in_place_of_a_list_exits_2(workspace, capsys):
    account_path = workspace / "account.json"
    doc = json.loads(account_path.read_text())
    doc["brands"] = "nike"
    account_path.write_text(json.dumps(doc))
    assert main(["verify", "--account", str(account_path)]) == 2
    assert capsys.readouterr().err == "error: brands must be a list, not str\n"


def test_verify_coerced_values_exit_2(workspace, capsys):
    account_path = workspace / "account.json"
    good = account_path.read_text()
    for edit, message in [
        (lambda doc: doc["campaigns"][0].update(name=None), "campaign name must be a string: None"),
        (lambda doc: doc.update(limit=1.9), "limit must be an integer: 1.9"),
        (lambda doc: doc.update(limit=True), "limit must be an integer: True"),
    ]:
        doc = json.loads(good)
        edit(doc)
        account_path.write_text(json.dumps(doc))
        assert main(["verify", "--account", str(account_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_non_positive_limit_exits_2(workspace, capsys):
    account_path = workspace / "account.json"
    doc = json.loads(account_path.read_text())
    doc["limit"] = -5
    account_path.write_text(json.dumps(doc))
    assert main(["verify", "--account", str(account_path)]) == 2
    assert capsys.readouterr().err == "error: limit must be positive\n"


@pytest.mark.parametrize("where", ["brands", "catch-all tree"])
def test_snapshot_nested_too_deeply_exits_2(workspace, capsys, where):
    account = workspace / "account.json"
    doc = json.loads(account.read_text())
    if where == "brands":
        deep = "[" * 100_000 + "]" * 100_000
        doc["brands"] = "DEEP"
    else:
        catch_all = doc["campaigns"][0]["adgroups"][0]
        split = '{"kind": "split", "attribute": "a", "branches": [], "others": '
        deep = split * 985 + json.dumps(catch_all["tree"]) + "}" * 985
        catch_all["tree"] = "DEEP"
    account.write_text(json.dumps(doc).replace('"DEEP"', deep))
    before = account.read_bytes()
    out = workspace / "out.json"
    for args in (
        ["verify", "--account", str(account)],
        ["update", "rm-rule", "--account", str(account), "--keyword", "a", "--out", str(out)],
    ):
        assert main(args) == 2
        assert capsys.readouterr().err == "error: account snapshot is nested too deeply\n"
    assert not out.exists()
    assert account.read_bytes() == before


def test_verify_negative_probes_exit_2(workspace, capsys):
    account = str(workspace / "account.json")
    assert main(["verify", "--account", account, "--probes", "-5"]) == 2
    assert capsys.readouterr().err == "error: probes must not be negative: -5\n"
    assert main(["verify", "--account", account, "--probes", "0"]) == 0
    assert "verification passed" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["naive", "reduced"])
@pytest.mark.parametrize("target", ["0", "-3"])
def test_build_target_size_below_one_exits_2(workspace, capsys, mode, target):
    out = workspace / "bad.json"
    args = ["build", "--rules", str(workspace / "rules.jsonl"), "--mode", mode]
    assert main(args + ["--target-size", target, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: target size must be positive: {target}\n"
    assert not out.exists()


@pytest.mark.parametrize("max_image", ["1", "0", "-3"])
def test_build_max_image_below_two_exits_2(workspace, capsys, max_image):
    # The candidate cap follows the group target; --max-image is no option.
    out = workspace / "bad.json"
    args = ["build", "--rules", str(workspace / "rules.jsonl"), "--max-image", max_image]
    with pytest.raises(SystemExit) as exit_info:
        main(args + ["--out", str(out)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --max-image {max_image}" in capsys.readouterr().err
    assert not out.exists()


def test_rm_rule_finds_a_renamed_rule_adgroup_by_its_tag(workspace, capsys):
    path = workspace / "account.json"
    doc = json.loads(path.read_text())
    camp = next(c for c in doc["campaigns"] if c["priority"] == "low" and len(c["adgroups"]) > 1)
    adgroup = camp["adgroups"][0]
    keyword = adgroup["name"]
    adgroup["name"] = "renamed"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--account", str(path), "--probes", "50"]) == 0
    capsys.readouterr()

    out = workspace / "trimmed.json"
    args = ["update", "rm-rule", "--account", str(path), "--keyword", keyword]
    assert main(args + ["--out", str(out), "--json"]) == 0
    changes = json.loads(capsys.readouterr().out)["changes"]
    assert f"remove ad group 'renamed' from campaign {camp['name']}" in changes
    assert main(["verify", "--account", str(out), "--probes", "50"]) == 0


def test_bounds_values_and_sites(capsys):
    assert main(["bounds", "4", "3", "1", "--groups", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "negatives for the given partition: 29" in out
    assert "high and medium tiers alone: 19" in out

    assert main(["bounds", "10000", "30", "20"]) == 0
    out = capsys.readouterr().out
    assert "worst case optimal negatives: 2002940" in out

    assert main(["bounds", "--sites"]) == 0
    out = capsys.readouterr().out
    assert "computed 340337 (quoted 340337)" in out
    assert "computed 1171325 (quoted 1171324)" in out
    assert "note:" in out


def test_bounds_without_arguments_is_an_input_error(capsys):
    assert main(["bounds"]) == 2
    assert "error:" in capsys.readouterr().err


def test_reduce_stats_json(workspace, capsys):
    assert (
        main(
            [
                "reduce-stats",
                "--rules",
                str(workspace / "rules.jsonl"),
                "--json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["keywords"] == 30
    assert doc["reduced_negatives"] < doc["naive_negatives"]
    assert 0 < doc["ratio"] < 1


def test_reduce_stats_takes_no_build_only_options(workspace, capsys):
    rules = str(workspace / "rules.jsonl")
    for option in (["--mode", "naive"], ["--default-bid-micros", "5"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["reduce-stats", "--rules", rules] + option)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_search_options_are_unrecognized(workspace, capsys):
    rules = str(workspace / "rules.jsonl")
    for command in ("build", "reduce-stats"):
        for option in (["--max-image", "5"], ["--max-words", "2"], ["--coloring-order", "degree"]):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--rules", rules] + option)
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["new-campaign", "min-negatives"])
def test_add_rule_strategy_is_unrecognized_and_writes_nothing(workspace, capsys, strategy):
    account, rules, out = (workspace / name for name in ("account.json", "rules.jsonl", "out.json"))
    before = account.read_bytes(), rules.read_bytes()
    args = ["update", "add-rule", "--account", str(account), "--rules", str(rules)]
    args += ["--keyword", "entirely new keyword", "--cpc-micros", "100", "--items", "i1"]
    with pytest.raises(SystemExit) as exit_info:
        main(args + ["--out", str(out), "--strategy", strategy])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --strategy" in capsys.readouterr().err
    assert (account.read_bytes(), rules.read_bytes()) == before
    assert not out.exists()


def test_malformed_rules_exit_2_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"keyword": "a b", "cpc_micros": 5}\n')
    assert main(["build", "--rules", str(bad), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:1" in err
    assert "missing fields" in err


def test_rules_nested_too_deeply_exit_2(tmp_path, capsys):
    rules = tmp_path / "rules.jsonl"
    deep = "[" * 100_000 + "]" * 100_000
    rules.write_text('{"keyword": "a b", "cpc_micros": 5, "items": ' + deep + "}\n")
    out = tmp_path / "account.json"
    assert main(["build", "--rules", str(rules), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {rules}:1: nested too deeply\n"
    assert not out.exists()


def test_rule_holding_a_blocked_brand_exits_2(tmp_path, capsys):
    rules = tmp_path / "rules.jsonl"
    rules.write_text(
        '{"keyword": "reebok shoes", "cpc_micros": 5, "items": ["item-1"]}\n'
        '{"keyword": "nike shoes", "cpc_micros": 5, "items": ["item-2"]}\n'
    )
    brands = tmp_path / "brands.txt"
    brands.write_text("nike\n")
    non_brands = tmp_path / "non-brands.txt"
    non_brands.write_text("reebok\n")
    args = ["build", "--rules", str(rules), "--brands", str(brands)]
    assert main(args + ["--non-brands", str(non_brands), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert "'reebok shoes'" in err and "'reebok'" in err


def test_missing_account_file_exits_2(capsys):
    assert main(["simulate", "--account", "/nonexistent.json", "--query", "x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_update_round_trip_restores_snapshot(workspace, capsys):
    account = workspace / "account.json"
    before = account.read_text()
    rules = workspace / "rules.jsonl"
    rules_before = rules.read_text()

    assert (
        main(
            [
                "update",
                "add-rule",
                "--account",
                str(account),
                "--keyword",
                "entirely new keyword",
                "--cpc-micros",
                "123456",
                "--items",
                "item-0001,item-0002",
                "--rules",
                str(rules),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert account.read_text() != before
    added = load_rules(rules)
    assert any(r.keyword.text == "entirely new keyword" for r in added)
    assert main(["verify", "--account", str(account), "--probes", "50"]) == 0
    capsys.readouterr()

    assert (
        main(
            [
                "update",
                "rm-rule",
                "--account",
                str(account),
                "--keyword",
                "entirely new keyword",
                "--rules",
                str(rules),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert account.read_text() == before
    assert rules.read_text() == rules_before


def test_update_add_rule_json_reports_changes(workspace, capsys):
    account = workspace / "account.json"
    out = workspace / "grown.json"
    assert (
        main(
            [
                "update",
                "add-rule",
                "--account",
                str(account),
                "--keyword",
                "entirely new keyword",
                "--cpc-micros",
                "100",
                "--items",
                "item-0001",
                "--out",
                str(out),
                "--json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["changes"]
    assert doc["balance"]["keywords"] == 31
    assert out.exists()


def test_update_rm_item_rewrites_rules(workspace, capsys):
    rules_path = workspace / "rules.jsonl"
    rules = load_rules(rules_path)
    solo = next((r for r in rules if len(r.items) == 1), None)
    assert solo is not None
    item = next(iter(solo.items))
    out_rules = workspace / "rules-after.jsonl"
    assert (
        main(
            [
                "update",
                "rm-item",
                "--account",
                str(workspace / "account.json"),
                "--item",
                item,
                "--rules",
                str(rules_path),
                "--rules-out",
                str(out_rules),
            ]
        )
        == 0
    )
    capsys.readouterr()
    survivors = load_rules(out_rules)
    assert all(item not in r.items for r in survivors)
    assert all(solo.keyword != r.keyword for r in survivors)
    assert main(["verify", "--account", str(workspace / "account.json"), "--probes", "50"]) == 0
    capsys.readouterr()


def test_add_rule_holding_a_blocked_brand_exits_2(workspace, capsys):
    blocked = (workspace / "non-brands.txt").read_text().split()[0]
    args = ["update", "add-rule", "--account", str(workspace / "account.json")]
    args += ["--keyword", f"cheap {blocked} gear", "--cpc-micros", "100"]
    assert main(args + ["--items", "item-0001"]) == 2
    assert f"{blocked!r}" in capsys.readouterr().err


def test_duplicate_keyword_update_exits_2(workspace, capsys):
    rules = load_rules(workspace / "rules.jsonl")
    existing = rules[0].keyword.text
    assert (
        main(
            [
                "update",
                "add-rule",
                "--account",
                str(workspace / "account.json"),
                "--keyword",
                existing,
                "--cpc-micros",
                "100",
                "--items",
                "item-0001",
            ]
        )
        == 2
    )
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["add-rule", "rm-rule", "rm-item"])
@pytest.mark.parametrize("rules_file", ["missing", "malformed"])
def test_update_that_cannot_read_its_rules_writes_nothing(workspace, capsys, command, rules_file):
    account = workspace / "account.json"
    before = account.read_bytes()
    keyword = load_rules(workspace / "rules.jsonl")[0].keyword.text
    rules = workspace / f"{rules_file}.jsonl"
    if rules_file == "malformed":
        rules.write_text("not json\n")
    args = ["update", command, "--account", str(account), "--rules", str(rules)]
    if command == "add-rule":
        args += ["--keyword", "entirely new keyword", "--cpc-micros", "100", "--items", "i1"]
    elif command == "rm-rule":
        args += ["--keyword", keyword]
    else:
        args += ["--item", "item-0001"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert account.read_bytes() == before
    assert rules.exists() == (rules_file == "malformed")


@pytest.mark.parametrize("command", ["add-rule", "rm-rule", "rm-item"])
@pytest.mark.parametrize("as_json", [False, True])
def test_update_to_stdout_writes_the_snapshot_alone(workspace, capsys, command, as_json):
    account = workspace / "account.json"
    keyword = load_rules(workspace / "rules.jsonl")[0].keyword.text
    args = ["update", command, "--account", str(account)]
    if command == "add-rule":
        args += ["--keyword", "entirely new keyword", "--cpc-micros", "100", "--items", "i1"]
    elif command == "rm-rule":
        args += ["--keyword", keyword]
    else:
        args += ["--item", "item-0001", "--rules", str(workspace / "rules.jsonl")]
        args += ["--rules-out", str(workspace / "rules-after.jsonl")]
    if as_json:
        args.append("--json")
    target = workspace / "updated.json"
    assert main(args + ["--out", str(target)]) == 0
    changes = capsys.readouterr().out
    assert main(args + ["--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == target.read_text()
    parse_account(captured.out)
    assert captured.err == changes
    assert json.loads(changes)["changes"] if as_json else "no changes" not in changes
