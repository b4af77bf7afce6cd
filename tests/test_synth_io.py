from __future__ import annotations

import json
from collections import Counter

import pytest

from shopstruct import (
    InputError,
    Money,
    Rule,
    SyntheticSpec,
    dumps_rules,
    generate,
    load_keywords,
    load_rules,
    loads_keywords,
    loads_rules,
    normalize,
    save_keywords,
    save_rules,
)


def test_generation_is_deterministic():
    spec = SyntheticSpec(n=60, seed=42)
    a = generate(spec)
    b = generate(spec)
    assert a == b
    assert dumps_rules(a.rules) == dumps_rules(b.rules)


def test_different_seeds_differ():
    a = generate(SyntheticSpec(n=60, seed=1))
    b = generate(SyntheticSpec(n=60, seed=2))
    assert dumps_rules(a.rules) != dumps_rules(b.rules)


def test_shuffled_spellings_rename_the_vocabulary_and_keep_every_draw():
    plain = generate(SyntheticSpec(n=300, seed=3))
    shuffled = generate(SyntheticSpec(n=300, seed=3, shuffle_spellings=True))
    assert shuffled == generate(SyntheticSpec(n=300, seed=3, shuffle_spellings=True))
    assert (shuffled.brands, shuffled.non_brands) == (plain.brands, plain.non_brands)
    # One renaming of the words maps each rule onto its plain twin.
    renamed: dict[str, str] = {}
    for a, b in zip(plain.rules, shuffled.rules):
        assert (a.cpc, a.items, len(a.keyword.words)) == (b.cpc, b.items, len(b.keyword.words))
        for x, y in zip(a.keyword.words, b.keyword.words):
            assert renamed.setdefault(x, y) == y
    assert len(set(renamed.values())) == len(renamed)
    assert any(x != y for x, y in renamed.items())
    # Spelling no longer follows frequency: the smallest spelling is no
    # longer the most frequent word.
    counts = Counter(w for r in shuffled.rules for w in r.keyword.words)
    special = {b.words[0] for b in shuffled.brands}
    plain_words = sorted(set(counts) - special)
    assert counts[plain_words[0]] < max(counts[w] for w in plain_words)


def test_generated_keywords_are_distinct():
    cat = generate(SyntheticSpec(n=500, seed=3))
    kws = [r.keyword for r in cat.rules]
    assert len(set(kws)) == len(kws) == 500


def test_generated_word_counts_respect_bounds():
    spec = SyntheticSpec(n=200, min_words=2, max_words=4, seed=5)
    cat = generate(spec)
    for r in cat.rules:
        assert 2 <= len(r.keyword.words) <= 5  # +1 for a rare forced suffix


def test_blocked_brand_tokens_stay_out_of_keywords():
    cat = generate(SyntheticSpec(n=300, seed=7))
    banned = {b.words[0] for b in cat.non_brands}
    for r in cat.rules:
        assert not banned & set(r.keyword.words)
    assert not banned & {b.words[0] for b in cat.brands}


def test_brand_fraction_seeds_brand_keywords():
    cat = generate(SyntheticSpec(n=200, brand_fraction=0.5, seed=9))
    brand_tokens = {b.words[0] for b in cat.brands}
    with_brand = sum(
        1 for r in cat.rules if brand_tokens & set(r.keyword.words)
    )
    assert with_brand > 50

    none = generate(SyntheticSpec(n=200, brand_fraction=0.0, seed=9))
    brand_tokens = {b.words[0] for b in none.brands}
    assert all(
        not brand_tokens & set(r.keyword.words) for r in none.rules
    )


def test_cpc_and_items_ranges():
    cat = generate(SyntheticSpec(n=100, seed=11))
    for r in cat.rules:
        assert 50_000 <= r.cpc.micros <= 5_000_000
        assert 1 <= len(r.items) <= 3
        assert all(i.startswith("item-") for i in r.items)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": -1},
        {"min_words": 0},
        {"min_words": 3, "max_words": 2},
        {"brand_fraction": 1.5},
        {"brand_count": -1},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(InputError):
        SyntheticSpec(**kwargs)


def test_vocab_and_item_pool_validation():
    with pytest.raises(InputError):
        generate(SyntheticSpec(vocab_size=2, max_words=4))
    with pytest.raises(InputError):
        generate(SyntheticSpec(item_pool=0))


def test_rules_round_trip(tmp_path):
    rules = (
        Rule(normalize("nike shoes"), Money(250_000), frozenset({"b", "a"})),
        Rule(normalize("air max"), Money(75_000), frozenset({"c"})),
    )
    path = tmp_path / "rules.jsonl"
    save_rules(path, rules)
    assert load_rules(path) == rules
    # items serialize sorted, so the file is canonical
    assert '"items": ["a", "b"]' in path.read_text()


def test_parse_rule_line_field_validation():
    good = '{"keyword": "a b", "cpc_micros": 5, "items": ["x"]}'
    [rule] = loads_rules(good)
    assert rule.keyword == normalize("a b")

    cases = [
        ("not json", "not valid JSON"),
        ('["a"]', "JSON object"),
        ('{"keyword": "a"}', "missing fields"),
        (
            '{"keyword": "a", "cpc_micros": 5, "items": [], "color": 1}',
            "unknown fields",
        ),
        ('{"keyword": 3, "cpc_micros": 5, "items": []}', "keyword must be"),
        (
            '{"keyword": "a", "cpc_micros": true, "items": []}',
            "cpc_micros must be",
        ),
        (
            '{"keyword": "a", "cpc_micros": "5", "items": []}',
            "cpc_micros must be",
        ),
        ('{"keyword": "a", "cpc_micros": 5, "items": [3]}', "items must be"),
    ]
    for line, fragment in cases:
        with pytest.raises(InputError, match=fragment):
            loads_rules(line)


def test_loads_rules_reports_line_numbers():
    text = (
        '{"keyword": "a b", "cpc_micros": 5, "items": ["x"]}\n'
        "\n"
        '{"keyword": "c d", "cpc_micros": "oops", "items": []}\n'
    )
    with pytest.raises(InputError, match=r"cat\.jsonl:3"):
        loads_rules(text, source="cat.jsonl")


def test_loads_rules_names_the_last_line_of_a_long_text():
    # The location is formatted only for a bad line; a late one keeps it.
    good = [
        json.dumps({"keyword": f"kw{i}", "cpc_micros": 5, "items": ["x"]}) for i in range(4999)
    ]
    text = "\n".join([*good, '{"keyword": "late", "cpc_micros": 5}'])
    with pytest.raises(InputError) as caught:
        loads_rules(text)
    assert str(caught.value) == "<rules>:5000: missing fields: items"


def test_loads_rules_rejects_duplicate_keywords():
    text = (
        '{"keyword": "a b", "cpc_micros": 5, "items": ["x"]}\n'
        '{"keyword": "A  b", "cpc_micros": 6, "items": ["y"]}\n'
    )
    with pytest.raises(InputError, match="duplicate"):
        loads_rules(text)


def test_keyword_lists_skip_comments_and_blanks(tmp_path):
    path = tmp_path / "brands.txt"
    path.write_text("# top brands\nnike\n\nadidas  # catalogue\n")
    assert load_keywords(path) == (normalize("nike"), normalize("adidas"))


def test_keyword_list_duplicates_name_the_source():
    with pytest.raises(InputError, match="brands.txt.*duplicate"):
        loads_keywords("nike\nNIKE\n", source="brands.txt")


def test_keyword_list_round_trip(tmp_path):
    kws = (normalize("nike"), normalize("air max"))
    path = tmp_path / "kws.txt"
    save_keywords(path, kws)
    assert load_keywords(path) == kws
