from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shopstruct import (
    BuildConfig,
    InputError,
    Leaf,
    MatchType,
    Money,
    NegativeKeyword,
    Rule,
    Split,
    SyntheticSpec,
    account_document,
    add_rule,
    build_account,
    generate,
    normalize,
    parse_account,
    parse_account_document,
    render_account,
    verify_account,
)
from shopstruct.cli import main
from pins import pin, sha256


def test_round_trip_preserves_value(golden_account):
    assert parse_account(render_account(golden_account)) == golden_account


def test_round_trip_naive(golden_naive_account):
    acc = golden_naive_account
    assert parse_account(render_account(acc)) == acc


def test_round_trip_after_update(golden_account):
    out = add_rule(
        golden_account,
        Rule(normalize("nike large shoes"), Money(42_000), frozenset({"item-13"})),
    )
    assert parse_account(render_account(out.account)) == out.account


def test_round_trip_without_brands(four_rules):
    acc = build_account(four_rules, (), (normalize("reebok"),))
    assert parse_account(render_account(acc)) == acc


def test_rendering_is_byte_stable(golden_account):
    text = render_account(golden_account)
    assert render_account(parse_account(text)) == text


def test_rendered_negatives_are_sorted(golden_account):
    doc = json.loads(render_account(golden_account))
    for campaign in doc["campaigns"]:
        negs = campaign["negatives"]
        keys = [({"exact": 0, "phrase": 1, "large": 2}[n["match"]], n["keyword"]) for n in negs]
        assert keys == sorted(keys)


def test_rendered_document_shape(golden_account):
    doc = json.loads(render_account(golden_account))
    assert doc["limit"] == 20000
    assert doc["brands"] == ["nike", "adidas", "garmin"]
    assert doc["non_brands"] == ["reebok"]
    assert [c["priority"] for c in doc["campaigns"]] == [
        "high",
        "medium",
        "low",
        "low",
        "low",
    ]
    assert doc["campaigns"][0]["tag"] == {"kind": "general"}
    assert doc["campaigns"][2]["tag"] == {"kind": "group", "index": 1}
    assert doc["campaigns"][0]["adgroups"][0]["tag"] == {"kind": "catch_all"}
    assert doc["campaigns"][1]["adgroups"][0]["tag"] == {
        "kind": "brand",
        "brand": "nike",
    }
    assert {"kind": "large", "words": ["nike"]} in doc["erasers"][0]
    assert sorted(len(g) for g in doc["partition"]) == [3, 4, 4]


def test_split_trees_round_trip(four_rules):
    from shopstruct import Leaf, Split

    tree = Split(
        "brand",
        (("x", Leaf(Money(5))),),
        Split("size", (("s", Leaf(Money(6))),), Leaf(Money(7))),
    )
    brands = (normalize("nike"),)
    acc = build_account(
        four_rules,
        brands,
        (),
        config=BuildConfig(),
        brand_trees={brands[0]: tree},
    )
    back = parse_account(render_account(acc))
    assert back == acc
    assert back.brand_campaign().adgroups[0].tree == tree


def _minimal_doc() -> dict:
    """A valid snapshot with a keyword text at every place one can sit."""
    tree = {"kind": "leaf", "bid_micros": 1}
    return {
        "limit": 10,
        "brands": ["nike"],
        "non_brands": ["reebok"],
        "campaigns": [
            {
                "name": "c1",
                "priority": "high",
                "tag": {"kind": "general"},
                "negatives": [{"keyword": "a b", "match": "exact"}],
                "adgroups": [
                    {"name": "catch-all", "tag": {"kind": "catch_all"}, "negatives": [], "tree": tree}
                ],
            },
            {
                "name": "c2",
                "priority": "medium",
                "tag": {"kind": "brands"},
                "negatives": [],
                "adgroups": [
                    {"name": "nike", "tag": {"kind": "brand", "brand": "nike"}, "negatives": [], "tree": tree}
                ],
            },
            {
                "name": "c3_1",
                "priority": "low",
                "tag": {"kind": "group", "index": 1},
                "negatives": [],
                "adgroups": [
                    {"name": "a b", "tag": {"kind": "rule", "keyword": "a b"}, "negatives": [], "tree": tree}
                ],
            },
        ],
        "partition": [["a b"]],
        "erasers": [[{"kind": "exact", "keyword": "a b"}]],
    }


_TREE = ["campaigns", 0, "adgroups", 0, "tree"]


def _split(attribute="brand", value="nike") -> dict:
    leaf = {"kind": "leaf", "bid_micros": 1}
    return {
        "kind": "split",
        "attribute": attribute,
        "branches": [{"value": value, "tree": leaf}],
        "others": leaf,
    }


def _with(edit) -> str:
    doc = _minimal_doc()
    edit(doc)
    return json.dumps(doc)


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return edit


# The ad-group list of the group campaign, parsed after c1's exact "a b".
_RULE_NEGATIVES = ["campaigns", 2, "adgroups", 0, "negatives"]


def _after_exact(bad):
    return _set(_RULE_NEGATIVES, [{"keyword": "a b", "match": "exact"}, bad])


_BAD_ENTRIES = [
    ("int keyword", {"keyword": 5, "match": "exact"}),
    ("list keyword", {"keyword": ["a", "b"], "match": "exact"}),
    ("list match", {"keyword": "a b", "match": ["exact"]}),
    ("unknown match", {"keyword": "a b", "match": "broad"}),
    ("missing match", {"keyword": "a b"}),
    ("missing keyword", {"match": "exact"}),
    ("string entry", "a b"),
]


def test_minimal_snapshot_parses():
    assert parse_account(json.dumps(_minimal_doc())).partition == (frozenset({normalize("a b")}),)
    account = parse_account(_with(_set(_TREE, _split())))
    assert account.campaigns[0].adgroups[0].tree == Split(
        "brand", (("nike", Leaf(Money(1))),), Leaf(Money(1))
    )


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"limit": 1}',
        '{"limit": 1, "brands": [], "non_brands": [], "campaigns": [{"name": "c", "priority": "urgent", "tag": {"kind": "general"}, "negatives": [], "adgroups": []}], "partition": [], "erasers": []}',
        # A keyword text that is not a string, wherever one sits.
        pytest.param(_with(_set(["brands", 0], 5)), id="int brand"),
        pytest.param(_with(_set(["non_brands", 0], 5)), id="int blocked brand"),
        pytest.param(_with(_set(["partition", 0, 0], 5)), id="int partition keyword"),
        pytest.param(
            _with(_set(["campaigns", 0, "negatives", 0, "keyword"], 5)), id="int negative"
        ),
        pytest.param(
            _with(_set(["campaigns", 0, "negatives", 0, "keyword"], ["a", "b"])),
            id="list negative",
        ),
        pytest.param(
            _with(_set(["campaigns", 0, "negatives", 0, "match"], ["exact"])),
            id="list match type",
        ),
        # The same faults after a well-formed exact entry in the same list,
        # once the parse has tables for the match and the keyword.
        *(
            pytest.param(_with(_after_exact(bad)), id=f"{name} after an exact")
            for name, bad in _BAD_ENTRIES
        ),
        pytest.param(
            _with(_set(["campaigns", 2, "adgroups", 0, "tag", "keyword"], 5)),
            id="int rule tag",
        ),
        pytest.param(
            _with(_set(["campaigns", 1, "adgroups", 0, "tag", "brand"], 5)), id="int brand tag"
        ),
        pytest.param(_with(_set(["erasers", 0, 0, "keyword"], 5)), id="int exact eraser"),
        pytest.param(
            _with(_set(["erasers", 0, 0], {"kind": "large", "words": ["a", 5]})),
            id="int large eraser word",
        ),
        # Names, tree attributes and branch values are strings, not coerced.
        pytest.param(_with(_set(["campaigns", 0, "name"], None)), id="null campaign name"),
        pytest.param(_with(_set(["campaigns", 0, "name"], 5)), id="int campaign name"),
        pytest.param(
            _with(_set(["campaigns", 1, "adgroups", 0, "name"], None)), id="null ad group name"
        ),
        pytest.param(
            _with(_set(["campaigns", 1, "adgroups", 0, "name"], 5)), id="int ad group name"
        ),
        pytest.param(_with(_set(_TREE, _split(attribute=5))), id="int tree attribute"),
        pytest.param(_with(_set(_TREE, _split(value=None))), id="null branch value"),
        pytest.param(_with(_set(_TREE, _split(value=5))), id="int branch value"),
        # Integer fields take integers only: no float, bool or string.
        *(
            pytest.param(_with(_set(path, bad)), id=f"{name} {bad!r}")
            for name, path in [
                ("limit", ["limit"]),
                ("bid_micros", _TREE + ["bid_micros"]),
                ("group index", ["campaigns", 2, "tag", "index"]),
            ]
            for bad in (1.9, 1.0, True, "1", None)
        ),
    ],
)
def test_malformed_snapshots_raise_input_error(text):
    with pytest.raises(InputError):
        parse_account(text)


@pytest.mark.parametrize("bad", [bad for _, bad in _BAD_ENTRIES], ids=[n for n, _ in _BAD_ENTRIES])
def test_bad_negative_entries_are_named_once_the_tables_are_warm(bad):
    with pytest.raises(InputError, match="^bad negative entry: "):
        parse_account(_with(_after_exact(bad)))


def test_raw_spellings_of_one_negative_parse_to_equal_negatives():
    doc = _minimal_doc()
    doc["campaigns"][0]["negatives"].append({"keyword": "Nike  Shoes", "match": "phrase"})
    doc["campaigns"][2]["adgroups"][0]["negatives"] = [
        {"keyword": "nike shoes", "match": "phrase"},
        {"keyword": " NIKE shoes", "match": "phrase"},
    ]
    account = parse_account(json.dumps(doc))
    negative = NegativeKeyword(normalize("nike shoes"), MatchType.PHRASE)
    a_b = NegativeKeyword(normalize("a b"), MatchType.EXACT)
    assert account.campaigns[0].negatives == {a_b, negative}
    # Two spellings in one list are one negative.
    assert account.campaigns[2].adgroups[0].negatives == {negative}


def _drop_last(key):
    return lambda doc: doc[key].pop()


_PARTITION_MISMATCH = "partition does not match the rule ad groups of the group campaigns"


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_last("partition"), _PARTITION_MISMATCH),
        (_drop_last("erasers"), "erasers lists 0 groups for 1 group campaigns"),
        (_drop_last("campaigns"), "erasers lists 1 groups for 0 group campaigns"),
        (
            lambda doc: doc["partition"].append(["c d"]) or doc["erasers"].append([]),
            "erasers lists 2 groups for 1 group campaigns",
        ),
    ],
    ids=["partition short", "erasers short", "campaign dropped", "both long"],
)
def test_group_lists_must_match_the_group_campaigns(edit, message):
    # The i-th eraser entry belongs to the i-th group campaign, whose rule ad
    # groups make the i-th partition entry; erasers are checked first.
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_account(_with(edit))


@pytest.mark.parametrize(
    "position, given, message",
    [
        (0, "low", "campaign 'c1' is a general campaign, so its priority must be 'high', not 'low'"),
        (1, "high", "campaign 'c2' is a brands campaign, so its priority must be 'medium', not 'high'"),
        (2, "high", "campaign 'c3_1' is a group campaign, so its priority must be 'low', not 'high'"),
        (2, "medium", "campaign 'c3_1' is a group campaign, so its priority must be 'low', not 'medium'"),
        (2, "urgent", "campaign 'c3_1' is a group campaign, so its priority must be 'low', not 'urgent'"),
        (2, 0, "campaign 'c3_1' is a group campaign, so its priority must be 'low', not 0"),
    ],
)
def test_priority_must_be_the_tags_tier(position, given, message):
    # A campaign's tier is its tag's; the snapshot still writes it, and a
    # snapshot that disagrees is bad input, not an account to audit.
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_account(_with(_set(["campaigns", position, "priority"], given)))
    doc = _minimal_doc()
    del doc["campaigns"][position]["priority"]
    with pytest.raises(InputError, match="^malformed account snapshot: 'priority'$"):
        parse_account(json.dumps(doc))


def _move_first_keyword(doc):
    doc["partition"][1].append(doc["partition"][0].pop(0))


def _drop_rule_adgroup(doc):
    camp = next(c for c in doc["campaigns"] if c["tag"]["kind"] == "group")
    camp["adgroups"].pop()


@pytest.mark.parametrize(
    "edit",
    [
        _move_first_keyword,
        _drop_last("partition"),
        lambda doc: doc["partition"].append(["brand new"]),
        _drop_rule_adgroup,
    ],
    ids=["keyword moved", "group dropped", "group added", "rule ad group dropped"],
)
def test_partition_must_match_the_rule_ad_groups(golden_account, edit):
    # The partition key is written from the groups the rule ad groups make;
    # a snapshot whose partition says otherwise is bad input.
    doc = json.loads(render_account(golden_account))
    edit(doc)
    with pytest.raises(InputError, match=f"^{_PARTITION_MISMATCH}$"):
        parse_account(json.dumps(doc))


def test_a_document_nested_too_deeply_is_bad_input():
    doc = _minimal_doc()
    catch_all = doc["campaigns"][0]["adgroups"][0]
    for _ in range(5000):
        split = {"kind": "split", "attribute": "a", "branches": []}
        catch_all["tree"] = {**split, "others": catch_all["tree"]}
    with pytest.raises(InputError, match="^account snapshot is nested too deeply$"):
        parse_account_document(doc)


_LIST_PATHS = {
    "brands": ["brands"],
    "blocked brands": ["non_brands"],
    "partition": ["partition"],
    "partition group": ["partition", 0],
    "erasers": ["erasers"],
    "eraser group": ["erasers", 0],
    "campaigns": ["campaigns"],
    "campaign negatives": ["campaigns", 0, "negatives"],
    "ad groups": ["campaigns", 0, "adgroups"],
    "ad group negatives": ["campaigns", 1, "adgroups", 0, "negatives"],
}


def _large_words(value):
    return _set(["erasers", 0, 0], {"kind": "large", "words": value})


def _branches(value):
    return _set(_TREE, {**_split(), "branches": value})


@pytest.mark.parametrize("value", ["ab", {"ab": "cd"}], ids=["string", "object"])
@pytest.mark.parametrize(
    "edit",
    [pytest.param(lambda v, p=path: _set(p, v), id=name) for name, path in _LIST_PATHS.items()]
    + [
        pytest.param(_large_words, id="large eraser words"),
        pytest.param(_branches, id="tree branches"),
    ],
)
def test_a_string_or_object_where_a_list_belongs_is_bad_input(edit, value):
    # Read item by item, "ab" would be the keywords or words "a" and "b".
    with pytest.raises(InputError, match="must be a list"):
        parse_account(_with(edit(value)))


def test_unknown_tree_and_tag_kinds_raise(golden_account):
    doc = json.loads(render_account(golden_account))
    doc["campaigns"][0]["adgroups"][0]["tree"] = {"kind": "bush"}
    with pytest.raises(InputError):
        parse_account(json.dumps(doc))
    doc = json.loads(render_account(golden_account))
    doc["campaigns"][0]["tag"] = {"kind": "mystery"}
    with pytest.raises(InputError):
        parse_account(json.dumps(doc))
    doc = json.loads(render_account(golden_account))
    doc["campaigns"][0]["negatives"] = [{"keyword": "x", "match": "broad"}]
    with pytest.raises(InputError):
        parse_account(json.dumps(doc))


# --- the direct writer against json.dumps ----------------------------------

# Characters json escapes, or writes as \uXXXX escapes (one as a surrogate pair).
_text = st.text(
    alphabet=st.sampled_from(["a", "b", "é", "ß", "Ω", "€", "😀", '"', "\\", "/", "'", "\x01"]),
    min_size=1,
    max_size=3,
)
_phrase = st.lists(_text, min_size=1, max_size=3).map(" ".join)
_money = st.integers(0, 10**12).map(Money)
_trees = st.recursive(
    _money.map(Leaf),
    lambda sub: st.builds(
        Split,
        _text,
        st.lists(st.tuples(_text, sub), max_size=2, unique_by=lambda b: b[0]).map(tuple),
        sub,
    ),
    max_leaves=4,
)


@st.composite
def _accounts(draw):
    texts = draw(st.lists(_phrase, min_size=1, max_size=10, unique_by=normalize))
    rules = [
        Rule(normalize(t), draw(_money), frozenset({f"item-{i}"}))
        for i, t in enumerate(texts)
    ]
    terms = draw(st.lists(_phrase, max_size=4, unique_by=normalize))
    cut = draw(st.integers(0, len(terms)))
    brands = tuple(normalize(t) for t in terms[:cut])
    non_brands = tuple(normalize(t) for t in terms[cut:])
    blocked = {b.words for b in non_brands}
    assume(
        not any(
            r.keyword.words[i:j] in blocked
            for r in rules
            for i in range(len(r.keyword.words))
            for j in range(i + 1, len(r.keyword.words) + 1)
        )
    )
    trees = {b: draw(_trees) for b in brands if draw(st.booleans())}
    config = BuildConfig(mode=draw(st.sampled_from(["naive", "reduced"])))
    return build_account(rules, brands, non_brands, config=config, brand_trees=trees)


@settings(max_examples=150, deadline=None)
@given(_accounts())
def test_render_writes_the_json_dumps_bytes(account):
    text = render_account(account)
    assert text == json.dumps(account_document(account), indent=2) + "\n"
    assert render_account(parse_account(text)) == text
    # The same account with a separate object per occurrence of a negative.
    fresh = lambda negs: frozenset(NegativeKeyword(n.keyword, n.match) for n in negs)
    unshared = replace(
        account,
        campaigns=tuple(
            replace(
                c,
                negatives=fresh(c.negatives),
                adgroups=tuple(replace(g, negatives=fresh(g.negatives)) for g in c.adgroups),
            )
            for c in account.campaigns
        ),
    )
    assert render_account(unshared) == text


_negatives = st.builds(
    NegativeKeyword, _phrase.map(normalize), st.sampled_from(list(MatchType))
)


@st.composite
def _cut(draw, pool: list[NegativeKeyword]) -> list[NegativeKeyword]:
    """One list of a family: ``pool`` (in canonical order) less some entries."""
    kind = draw(st.sampled_from(["empty", "all", "first", "last", "adjacent", "sparse", "any"]))
    if kind == "empty":
        return []
    if kind == "all":
        return pool
    if kind == "first":
        return pool[1:]
    if kind == "last":
        return pool[:-1]
    if kind == "adjacent":
        i = draw(st.integers(0, max(0, len(pool) - 2)))
        return pool[:i] + pool[i + 2 :]
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    held = [n for n, k in zip(pool, keep) if k]
    if kind == "sparse":
        # Lacks more than it holds.
        held = held[: (len(pool) - 1) // 2]
    return held


@st.composite
def _cut_accounts(draw):
    """A built account whose negative lists are replaced, family by family,
    with cuts of a random pool: lists no build produces.  Unshared lists
    hold a separate but equal object per occurrence."""
    account = draw(_accounts())
    shared = draw(st.booleans())

    def family(count: int) -> list[frozenset[NegativeKeyword]]:
        pool = draw(st.lists(_negatives, min_size=1, max_size=8, unique=True))
        pool.sort(key=NegativeKeyword.sort_key)
        lists = [draw(_cut(pool)) for _ in range(count)]
        if not shared:
            lists = [[NegativeKeyword(n.keyword, n.match) for n in negs] for negs in lists]
        return [frozenset(negs) for negs in lists]

    tiers: dict = {}
    for c in account.campaigns:
        tiers.setdefault(c.priority, []).append(c.name)
    campaign_negatives = {}
    for names in tiers.values():
        campaign_negatives.update(zip(names, family(len(names))))
    return replace(
        account,
        campaigns=tuple(
            replace(
                c,
                negatives=campaign_negatives[c.name],
                adgroups=tuple(
                    replace(g, negatives=negs)
                    for g, negs in zip(c.adgroups, family(len(c.adgroups)))
                ),
            )
            for c in account.campaigns
        ),
    )


@settings(max_examples=150, deadline=None)
@given(_cut_accounts())
def test_render_cuts_any_subset_of_a_family(account):
    assert render_account(account) == json.dumps(account_document(account), indent=2) + "\n"


def test_a_list_shared_by_a_campaign_and_its_ad_group_renders_at_both_depths(golden_account):
    # One frozenset as a group campaign's list and its first ad group's sits
    # in the Low tier's family (depth 3) and in the ad-group family (depth
    # 5); the family it is filed under writes its text at both depths.
    camp = golden_account.group_campaigns()[0]
    first = replace(camp.adgroups[0], negatives=camp.negatives)
    shared = replace(camp, adgroups=(first, *camp.adgroups[1:]))
    account = replace(
        golden_account,
        campaigns=tuple(shared if c is camp else c for c in golden_account.campaigns),
    )
    assert account.group_campaigns()[0].adgroups[0].negatives is shared.negatives
    assert render_account(account) == json.dumps(account_document(account), indent=2) + "\n"


@pytest.mark.parametrize("sharing", ["first ad groups", "high and group campaign"])
def test_a_list_shared_by_two_families_at_one_depth_renders_in_each(golden_account, sharing):
    # One frozenset in two families at the same depth is filed under one of
    # them; it is a subset of both unions, so either family cuts it right.
    one, two = golden_account.group_campaigns()[:2]
    if sharing == "first ad groups":
        held = one.adgroups[0].negatives
        first = replace(two.adgroups[0], negatives=held)
        shared = replace(two, adgroups=(first, *two.adgroups[1:]))
    else:
        held = golden_account.general_campaign().negatives
        shared = replace(two, negatives=held)
    assert held
    account = replace(
        golden_account,
        campaigns=tuple(shared if c is two else c for c in golden_account.campaigns),
    )
    text = render_account(account)
    assert text == json.dumps(account_document(account), indent=2) + "\n"
    assert parse_account(text) == account
    assert render_account(parse_account(text)) == text


def test_render_ranks_by_value_when_identity_is_mixed_across_families(golden_account):
    # The High tier's exact of a keyword is the very object one ad group of a
    # group campaign holds, another ad group of that campaign holds a separate
    # equal copy, and a Low-tier list holds negatives no other family holds.
    # The account-wide ranking must place each of them by value.
    high = golden_account.general_campaign()
    camp = next(c for c in golden_account.group_campaigns() if len(c.adgroups) >= 3)
    exact = NegativeKeyword(camp.adgroups[0].tag.keyword, MatchType.EXACT)
    [held] = [n for n in high.negatives if n == exact]
    copy = NegativeKeyword(exact.keyword, exact.match)

    def holding(negatives, negative):
        return (negatives - {negative}) | {negative}

    _, first, second, *rest = camp.adgroups
    mixed = replace(
        camp,
        adgroups=(
            camp.adgroups[0],
            replace(first, negatives=holding(first.negatives, held)),
            replace(second, negatives=holding(second.negatives, copy)),
            *rest,
        ),
    )
    low = next(c for c in golden_account.group_campaigns() if c is not camp)
    alone = frozenset(
        NegativeKeyword(normalize(text), match)
        for text, match in [
            ("aaa alone", MatchType.EXACT),
            ("mmm alone", MatchType.PHRASE),
            ("zzz alone", MatchType.LARGE),
        ]
    )
    lonely = replace(low, negatives=low.negatives | alone)
    swap = {camp.name: mixed, low.name: lonely}
    account = replace(
        golden_account,
        campaigns=tuple(swap.get(c.name, c) for c in golden_account.campaigns),
    )
    in_first, in_second = (
        next(n for n in g.negatives if n == exact) for g in mixed.adgroups[1:3]
    )
    assert in_first is held and in_second is copy and copy is not held
    lists = [c.negatives for c in account.campaigns]
    lists += [g.negatives for c in account.campaigns for g in c.adgroups]
    assert [negs for negs in lists if alone & negs] == [lonely.negatives]
    assert render_account(account) == json.dumps(account_document(account), indent=2) + "\n"


# sha256 of the rendered synth catalogues at n=300, as the quadratic packing,
# per-sibling emission and json.dumps renderer produced them.
PINNED_DIGESTS = {
    0: pin("synth-300-seed-0"),
    1: pin("synth-300-seed-1"),
    2: pin("synth-300-seed-2"),
}


# sha256 of the rendered synth catalogues at n=1000, as the renderer that
# ranked every negative globally and joined one entry per stored negative
# produced them.
PINNED_DIGESTS_1000 = {
    0: pin("synth-1000-seed-0"),
    1: pin("synth-1000-seed-1"),
    2: pin("synth-1000-seed-2"),
}


# sha256 of the reduced synth n=300 seed 0 builds at group targets of at
# least ceil(sqrt(300)) = 18, where the candidate cap stays ceil(sqrt(n)), as
# the builder with a separate max_image setting produced them.
PINNED_TARGET_DIGESTS = {
    27: pin("synth-300-seed-0-target-27"),
    36: pin("synth-300-seed-0-target-36"),
}


def _pinned_snapshot(n: int, seed: int, digest: str, config: BuildConfig | None = None) -> None:
    cat = generate(SyntheticSpec(n=n, seed=seed))
    account = build_account(cat.rules, cat.brands, cat.non_brands, config=config)
    text = render_account(account)
    assert sha256(text) == digest
    assert render_account(parse_account(text)) == text


@pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
def test_synth_snapshot_digest_is_pinned(seed):
    _pinned_snapshot(300, seed, PINNED_DIGESTS[seed])


@pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS_1000))
def test_synth_1000_snapshot_digest_is_pinned(seed):
    _pinned_snapshot(1000, seed, PINNED_DIGESTS_1000[seed])


@pytest.mark.parametrize("target", sorted(PINNED_TARGET_DIGESTS))
def test_reduced_target_snapshot_digest_is_pinned(target):
    _pinned_snapshot(300, 0, PINNED_TARGET_DIGESTS[target], BuildConfig(target_size=target))


def test_parsing_shares_one_object_per_negative():
    import oracles

    cat = generate(SyntheticSpec(n=300, seed=0))
    account = build_account(cat.rules, cat.brands, cat.non_brands)
    text = render_account(account)
    parsed = parse_account(text)
    assert parsed == account
    doc = json.loads(text)
    lists = []
    for camp, cdoc in zip(parsed.campaigns, doc["campaigns"]):
        assert camp.negatives == oracles._parse_negatives(cdoc["negatives"])
        lists.append(camp.negatives)
        for group, gdoc in zip(camp.adgroups, cdoc["adgroups"]):
            assert group.negatives == oracles._parse_negatives(gdoc["negatives"])
            lists.append(group.negatives)
    distinct = frozenset().union(*lists)
    assert len({id(neg) for negs in lists for neg in negs}) == len(distinct)
    assert sum(map(len, lists)) > 4 * len(distinct)


def _synth_30_doc() -> dict:
    cat = generate(SyntheticSpec(n=30, seed=0))
    return account_document(build_account(cat.rules, cat.brands, cat.non_brands))


def _first_large_eraser(doc: dict) -> dict:
    return next(e for group in doc["erasers"] for e in group if e["kind"] == "large")


def test_large_eraser_words_are_normalized():
    doc = _synth_30_doc()
    account = parse_account(json.dumps(doc))
    eraser = _first_large_eraser(doc)
    eraser["words"] = [eraser["words"][0].upper(), *eraser["words"][1:]]
    assert eraser["words"][0] != eraser["words"][0].lower()
    parsed = parse_account(json.dumps(doc))
    assert parsed == account
    assert verify_account(parsed, probes=50).passed


@pytest.mark.parametrize("word", ["be zz", "", "  "], ids=["two words", "empty", "blank"])
def test_a_large_eraser_word_that_is_not_one_word_exits_2(tmp_path, capsys, word):
    doc = _synth_30_doc()
    _first_large_eraser(doc)["words"][0] = word
    path = tmp_path / "account.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        parse_account(path.read_text())
    assert main(["verify", "--account", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("limit", [0, -5])
def test_a_non_positive_limit_is_bad_input(golden_account, limit):
    with pytest.raises(InputError, match="limit must be positive"):
        parse_account(_with(_set(["limit"], limit)))
    with pytest.raises(InputError, match="limit must be positive"):
        replace(golden_account, limit=limit)
