"""``parse_account`` reads each non-empty negative list straight from the
layout the writer gives it, and parses anything else whole; both reads give
the same account, sharing objects alike, or the same error."""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_BRANDS,
    GOLDEN_KEYWORDS,
    GOLDEN_NON_BRANDS,
    assert_every_list_is_cut,
    assert_parses_as_a_whole,
    make_golden_rules,
    parse_outcome,
)
from shopstruct import (
    Account,
    InputError,
    Money,
    Rule,
    SyntheticSpec,
    build_account,
    generate,
    normalize,
    render_account,
    verify,
    verify_account,
)
from shopstruct import snapshot
from test_simulate import _KIND_OF, _tamper
from test_verifier import _mutants


@functools.cache
def _golden() -> Account:
    return build_account(
        make_golden_rules(),
        tuple(normalize(b) for b in GOLDEN_BRANDS),
        tuple(normalize(b) for b in GOLDEN_NON_BRANDS),
    )


@functools.cache
def _golden_text() -> str:
    return render_account(_golden())


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 120),
    seed=st.integers(0, 2**16),
    shuffled=st.booleans(),
)
def test_a_built_account_is_read_by_the_cut_as_a_whole_parse_reads_it(n, seed, shuffled):
    cat = generate(SyntheticSpec(n=n, seed=seed, shuffle_spellings=shuffled))
    account = build_account(cat.rules, cat.brands, cat.non_brands)
    text = render_account(account)
    assert_every_list_is_cut(account, text)
    assert_parses_as_a_whole(text)
    assert parse_outcome(text)[0] == account


@functools.cache
def _tampered() -> dict[str, Account]:
    cat = generate(SyntheticSpec(n=300, seed=0))
    bases = {
        "golden": _golden(),
        "synth-300": build_account(cat.rules, cat.brands, cat.non_brands),
    }
    out = {}
    for name, base in bases.items():
        out |= {f"{name} {mutant}": account for mutant, account in _mutants(base).items()}
        out |= {f"{name} {kind}": _tamper(base, kind) for kind in _KIND_OF}
    return out


@pytest.mark.parametrize("name", sorted(_tampered()))
def test_a_tampered_account_is_read_by_the_cut_as_a_whole_parse_reads_it(name):
    account = _tampered()[name]
    text = render_account(account)
    assert_every_list_is_cut(account, text)
    assert_parses_as_a_whole(text)


def _edit_doc(edit):
    """The golden snapshot with ``edit`` made to its document, written with
    the writer's indent, so every list it holds is laid out as the writer
    lays it out."""

    def text() -> str:
        doc = json.loads(_golden_text())
        edit(doc)
        return json.dumps(doc, indent=2) + "\n"

    return text


def _edit_text(old: str, new: str, count: int = 1):
    """The golden snapshot with its first ``count`` copies of ``old``, or
    all with ``count`` -1, replaced by ``new``."""

    def text() -> str:
        golden = _golden_text()
        assert old in golden
        return golden.replace(old, new, count)

    return text


_FIRST = '"keyword": "adidas running shoes",\n          "match": "exact"'
_ONE_ENTRY = [{"keyword": "air max", "match": "exact"}]
# The first campaign's list from its last entry's keyword through its "]".
_FIRST_CLOSE = '"reebok",\n          "match": "phrase"\n        }\n      ]'


def _first_campaign(**fields):
    return lambda doc: doc["campaigns"][0].update(fields)


def _marked_account(mark: str) -> Account:
    """The golden account with ``mark`` inside the word "superstar", which
    its negative lists and its skeleton both hold."""
    return build_account(
        tuple(
            Rule(normalize(text.replace("superstar", f"super{mark}star")), rule.cpc, rule.items)
            for text, rule in zip(GOLDEN_KEYWORDS, make_golden_rules())
        ),
        tuple(normalize(b) for b in GOLDEN_BRANDS),
        tuple(normalize(b) for b in GOLDEN_NON_BRANDS),
    )


def _list_keywords(account: Account) -> set[str]:
    return {
        n.keyword.text
        for c in account.campaigns
        for negatives in (c.negatives, *(g.negatives for g in c.adgroups))
        for n in negatives
    }


# name -> (the text, whether its lists are cut, the error it raises or None)
_HAND_MADE = {
    "re-indented by 4": (lambda: json.dumps(json.loads(_golden_text()), indent=4), False, None),
    "one entry with an extra space": (
        _edit_text(_FIRST, _FIRST.replace('": "', '":  "', 1)),
        False,
        None,
    ),
    "an entry whose separator lost a space": (
        _edit_text(_FIRST + "\n        },\n        {", _FIRST + "\n        },\n       {"),
        False,
        None,
    ),
    "a space after a list's last entry": (
        _edit_text(_FIRST_CLOSE, _FIRST_CLOSE.replace("}", "} ")),
        False,
        None,
    ),
    "text after a list's last entry": (
        _edit_text(_FIRST_CLOSE, _FIRST_CLOSE.replace("}", "} x")),
        False,
        InputError,
    ),
    # Every copy of the keyword, in lists and elsewhere, is escaped alike.
    "a keyword escaped as json.dumps does not": (
        _edit_text('"air max"', '"\\u0061ir max"', -1),
        False,
        None,
    ),
    "a slash escaped as json.dumps does not": (
        lambda: render_account(_marked_account("/")).replace("super/star", "super\\/star"),
        False,
        None,
    ),
    "an entry with its keys swapped": (
        _edit_text(
            _FIRST, '"match": "exact",\n          "keyword": "adidas running shoes"'
        ),
        False,
        None,
    ),
    "a repeated negatives key": (
        _edit_text(
            '      ],\n      "adgroups"',
            '      ],\n      "negatives": [\n        {\n          "keyword": "air max",\n'
            '          "match": "exact"\n        }\n      ],\n      "adgroups"',
        ),
        True,
        None,
    ),
    "a campaign name holding NUL": (_edit_doc(_first_campaign(name="c1\0")), False, None),
    "a list inside a tag object": (
        _edit_doc(lambda doc: doc["campaigns"][0]["tag"].update(x={"negatives": _ONE_ENTRY})),
        True,
        None,
    ),
    "a list inside an object of the account": (
        _edit_doc(lambda doc: doc.update(x={"y": {"negatives": _ONE_ENTRY}})),
        True,
        None,
    ),
    "an unknown match in a canonical entry": (
        _edit_text(_FIRST, _FIRST.replace("exact", "broad")),
        False,
        InputError,
    ),
    "an empty keyword in a canonical entry": (
        _edit_text(_FIRST, _FIRST.replace("adidas running shoes", " ")),
        False,
        InputError,
    ),
    "a marker as a negatives value": (
        _edit_doc(_first_campaign(negatives="\0" + "0")),
        False,
        InputError,
    ),
    "a marker as a negatives value where a list was": (
        _edit_doc(_first_campaign(negatives="\0" + "1")),
        False,
        InputError,
    ),
    # The list in the tag is cut first, so its marker is "\0" "0".
    "a marker naming a list the walk does not read": (
        _edit_doc(
            lambda doc: doc["campaigns"][0].update(
                tag={"kind": "general", "x": {"negatives": _ONE_ENTRY}}, negatives="\0" + "0"
            )
        ),
        False,
        InputError,
    ),
    "a text cut off inside a list": (
        lambda: _golden_text()[: _golden_text().index('"keyword": "air max"')],
        False,
        InputError,
    ),
    "a bad tree after a cut list": (
        _edit_doc(lambda doc: doc["campaigns"][0]["adgroups"][0].update(tree={"kind": "bush"})),
        True,
        InputError,
    ),
}


@pytest.mark.parametrize("name", _HAND_MADE)
def test_a_hand_made_text_parses_as_a_whole_parse_reads_it(name):
    make, cut, error = _HAND_MADE[name]
    text = make()
    assert (snapshot._cut_lists(text) is not None) is cut
    assert_parses_as_a_whole(text)
    result = parse_outcome(text)[0]
    assert issubclass(result, error) if error else isinstance(result, Account)


# name -> (the mark, whether the snapshot's lists are cut): a "}" splits the
# entry that holds it, so that text is parsed whole; the writer escapes '"',
# "\\", "é" and control characters, and no escape holds a brace.
_MARKS = {
    "a closing brace": ("}", False),
    "a closing bracket": ("]", True),
    "a quote": ('"', True),
    "a backslash": ("\\", True),
    "a slash": ("/", True),
    "e acute": ("é", True),
    "a control character": ("\x01", True),
}


@pytest.mark.parametrize("name", _MARKS)
def test_a_canonical_text_with_punctuated_keywords_parses_as_a_whole_parse_reads_it(name):
    mark, cut = _MARKS[name]
    account = _marked_account(mark)
    assert any(f"super{mark}star" in keyword for keyword in _list_keywords(account))
    text = render_account(account)
    if cut:
        assert_every_list_is_cut(account, text)
    else:
        assert snapshot._cut_lists(text) is None
    assert_parses_as_a_whole(text)
    assert parse_outcome(text)[0] == account


def _punctuated_texts(alphabet: str) -> st.SearchStrategy[list[str]]:
    words = st.text(alphabet=alphabet, min_size=1, max_size=3)
    return st.lists(
        st.lists(words, min_size=1, max_size=3).map(" ".join),
        min_size=1,
        max_size=8,
        unique_by=lambda text: normalize(text),
    )


# Half the examples draw no "}", so that their lists are cut.
@settings(max_examples=50, deadline=None)
@given(texts=st.sampled_from(['ab]"\\é\x01/', 'ab}]"\\é\x01/']).flatmap(_punctuated_texts))
def test_a_built_account_with_punctuated_keywords_parses_as_a_whole_parse_reads_it(texts):
    rules = tuple(
        Rule(normalize(text), Money(100_000 + i), frozenset({f"item-{i}"}))
        for i, text in enumerate(texts)
    )
    account = build_account(rules)
    text = render_account(account)
    listed = _list_keywords(account)
    # Only a list entry's "}" keeps the cut from reading its list.
    if listed and not any("}" in keyword for keyword in listed):
        assert_every_list_is_cut(account, text)
    else:
        assert snapshot._cut_lists(text) is None
    assert_parses_as_a_whole(text)
    assert parse_outcome(text)[0] == account


def test_the_two_probe_properties_of_one_verify_share_one_filler_pool(monkeypatch):
    made = []
    pool = verify._filler_pool

    def spy(account):
        made.append(account)
        return pool(account)

    monkeypatch.setattr(verify, "_filler_pool", spy)
    cat = generate(SyntheticSpec(n=60, seed=0))
    account = build_account(cat.rules, cat.brands, cat.non_brands)
    assert verify_account(account, probes=50).passed
    assert made == [account]


def test_a_marker_the_walk_leaves_unread_fails_the_skeleton():
    # The account it gives would be the whole parse's, but every cut list
    # must be one the account holds.
    skeleton = snapshot._cut_lists(_HAND_MADE["a list inside a tag object"][0]())
    with pytest.raises(InputError):
        snapshot.parse_account_document(skeleton)
    assert list(skeleton.cut) == ["\0" + "0"]
