"""Lossless JSON snapshots of accounts.

The renderer is deterministic: negatives are sorted by (match type, keyword),
keywords inside partition groups are sorted, and everything else keeps the
account's own canonical order, so rendering the parse of a rendering is
byte-identical.  The ``partition`` key is written from each group campaign's
``group``, which is read off its rule ad groups, and parse checks it against
the groups the parsed ad groups make.

``account_document`` is the reference definition of the format: a snapshot is
``json.dumps(account_document(account), indent=2) + "\\n"``.  ``render_account``
writes those same bytes by the schema: each part of the fixed layout is
written straight from the account at the depth it always sits at, from text
templates that ``_object`` lays out as json.dumps would, so no document is
built and json's pure-Python indenting encoder is never run.  The parts are
appended to one list of str pieces and put together by one ``"".join``, the
only copy of the snapshot that is made.

The structure repeats a few negatives across many lists: each ad group of a
group campaign holds its siblings' exact negatives, and each group campaign
the other groups' erasers.  So the renderer ranks the account's distinct
negatives once and renders each one's entry text, with its leading
separator, once per nesting depth.  Lists are cut by *family*, the ad-group
lists of one campaign or the campaign lists of one tier: each list is its
family's union, in rank order, less a few entries.  A family keeps one list
of those shared texts at its depth, and each of its lists is written as the
slices of it between the entries the list lacks, with the list's first
piece made anew from the opening bracket and that piece less its separator.

Parsing interns keywords and negatives.  Each distinct keyword text is
normalized once per parse, wherever it sits: a list entry, a rule or brand
tag, an eraser, the brands or the partition.  Negatives sit in a table by
raw match, then by raw keyword: the first entry with a given raw (keyword,
match) pair is validated and made, and every later entry with that pair
reuses its object; the table holds one sub-table per match type, so an
unknown match finds none.  A snapshot repeats each negative across many
lists, so the unions of a list family meet identical objects.  Nothing else
depends on it: built and updated accounts may hold equal copies, and
nothing compares negatives by identity.

The read path follows the writer's layout where the text has it, and
searches and splits it at single characters (``str.find`` looks for one
with ``memchr``), never at the writer's runs of spaces.  Each non-empty negative list is *cut* from the text: its
opening is a whole line holding the ``"negatives": [`` key at a campaign's
or an ad group's depth, which only that key can be, since no JSON string
holds a line break; its closing is the first "]" after that which ends the
writer's closing line.  The entries between are split at each "}", and each
piece must be an entry as the writer's template writes it, after its
leading separator: the template's text, the keyword's JSON string, which
``json.decoder.scanstring`` reads and the writer's encoder must write back
to the same text, and a match's JSON string.  Each distinct piece is read
once and interned, so every later copy costs one dict lookup.  A keyword
that holds "}" splits its entry, and that text is parsed whole.  What is
left, the *skeleton*, holds the marker string "\\u0000<k>" in place of the
k-th cut list, and is parsed by json and walked as any document, the walk
taking each marker's list once.  The whole text is parsed as one document
instead when it holds no list so laid out, when a list found is not the
writer's or an entry does not validate, when the skeleton holds another
``\\u0000``, is not a JSON object or is not a sound account, or when a
marker is left unread.  So parse accepts the texts it accepted before,
gives the same accounts and raises the same errors.
"""

from __future__ import annotations

import json
from json.decoder import scanstring as _scanstring
from json.encoder import encode_basestring_ascii as _encode
from typing import Any, Callable, Iterable, Sequence

from ._gcpause import gc_paused
from .account import (
    Account,
    AdGroup,
    AdGroupTag,
    BrandCampaignTag,
    BrandTag,
    Campaign,
    CampaignTag,
    CatchAllTag,
    GeneralCampaignTag,
    GroupCampaignTag,
    Leaf,
    Money,
    Priority,
    ProductTree,
    RuleTag,
    Split,
)
from .erasers import Eraser, ExactEraser, LargeEraser
from .errors import InputError
from .keywords import Keyword, MatchType, NegativeKeyword, normalize

_TOO_DEEP = "account snapshot is nested too deeply"


def _negatives_doc(negatives: frozenset[NegativeKeyword]) -> list[dict[str, str]]:
    ordered = sorted(negatives, key=NegativeKeyword.sort_key)
    return [{"keyword": n.keyword.text, "match": n.match.value} for n in ordered]


def _tree_doc(tree: ProductTree) -> dict[str, Any]:
    if isinstance(tree, Leaf):
        return {"kind": "leaf", "bid_micros": tree.bid.micros}
    return {
        "kind": "split",
        "attribute": tree.attribute,
        "branches": [
            {"value": value, "tree": _tree_doc(sub)} for value, sub in tree.branches
        ],
        "others": _tree_doc(tree.others),
    }


def _campaign_tag_doc(tag: CampaignTag) -> dict[str, Any]:
    if isinstance(tag, GeneralCampaignTag):
        return {"kind": "general"}
    if isinstance(tag, BrandCampaignTag):
        return {"kind": "brands"}
    return {"kind": "group", "index": tag.index}


def _adgroup_tag_doc(tag: AdGroupTag) -> dict[str, Any]:
    if isinstance(tag, CatchAllTag):
        return {"kind": "catch_all"}
    if isinstance(tag, BrandTag):
        return {"kind": "brand", "brand": tag.brand.text}
    return {"kind": "rule", "keyword": tag.keyword.text}


def _eraser_doc(eraser: Eraser) -> dict[str, Any]:
    if isinstance(eraser, LargeEraser):
        return {"kind": "large", "words": sorted(eraser.words)}
    return {"kind": "exact", "keyword": eraser.keyword.text}


def account_document(account: Account) -> dict[str, Any]:
    """The snapshot's reference definition: the JSON value of ``account``."""
    return {
        "limit": account.limit,
        "brands": [b.text for b in account.brands],
        "non_brands": [b.text for b in account.non_brands],
        "campaigns": [
            {
                "name": c.name,
                "priority": c.priority.value,
                "tag": _campaign_tag_doc(c.tag),
                "negatives": _negatives_doc(c.negatives),
                "adgroups": [
                    {
                        "name": g.name,
                        "tag": _adgroup_tag_doc(g.tag),
                        "negatives": _negatives_doc(g.negatives),
                        "tree": _tree_doc(g.tree),
                    }
                    for g in c.adgroups
                ],
            }
            for c in account.campaigns
        ],
        "partition": [sorted(kw.text for kw in group) for group in account.partition],
        "erasers": [
            [_eraser_doc(e) for e in group] for group in account.erasers
        ],
    }


@gc_paused
def render_account(account: Account) -> str:
    """``json.dumps(account_document(account), indent=2) + "\\n"``, written directly."""
    return _Writer(account).render()


def _pad(level: int) -> str:
    """The line break and indent before a value at nesting depth ``level``."""
    return "\n" + "  " * level


def _object(level: int, *fields: tuple[str, str]) -> str:
    """A JSON object at depth ``level`` as ``json.dumps(..., indent=2)``
    writes it, from its keys and their values' texts."""
    inner = _pad(level + 1)
    body = ("," + inner).join(f'"{key}": {text}' for key, text in fields)
    return "{" + inner + body + _pad(level) + "}"


def _array(level: int, texts: list[str]) -> str:
    """A JSON array at depth ``level``, from its items' texts."""
    if not texts:
        return "[]"
    inner = _pad(level + 1)
    return "[" + inner + ("," + inner).join(texts) + _pad(level) + "]"


def _strings(level: int, values: Iterable[str]) -> str:
    return _array(level, [_encode(v) for v in values])


def _json(value: Any, level: int) -> str:
    """``json.dumps(value, indent=2)`` at depth ``level``, for the parts of
    the schema that few entries hold: campaign tags, the tags of catch-all
    and brand ad groups, and split trees, whose objects all hold a field.
    (json.dumps itself, with an indent, leaves reference cycles behind on
    every call.)"""
    if isinstance(value, dict):
        return _object(level, *((key, _json(item, level + 1)) for key, item in value.items()))
    if isinstance(value, list):
        return _array(level, [_json(item, level + 1) for item in value])
    if isinstance(value, str):
        return _encode(value)
    return int.__repr__(value)


# The schema's objects at their fixed depths, "%s" or "%d" where a value
# goes and NUL where a list written on its own goes: the snapshot at depth 0,
# campaigns at 2, ad groups at 4 with their tags and trees at 5, erasers at 3.
_HOLE = "\0"
_ACCOUNT = _object(
    0, ("limit", "%d"), ("brands", "%s"), ("non_brands", "%s"),
    ("campaigns", _HOLE), ("partition", "%s"), ("erasers", "%s"),
).split(_HOLE)
_CAMPAIGN = _object(
    2, ("name", "%s"), ("priority", "%s"), ("tag", "%s"),
    ("negatives", _HOLE), ("adgroups", _HOLE),
).split(_HOLE)
_ADGROUP = _object(
    4, ("name", "%s"), ("tag", "%s"), ("negatives", _HOLE), ("tree", "%s")
).split(_HOLE)
_RULE_TAG = _object(5, ("kind", '"rule"'), ("keyword", "%s"))
_LEAF = _object(5, ("kind", '"leaf"'), ("bid_micros", "%d"))
_LARGE = _object(3, ("kind", '"large"'), ("words", "%s"))
_EXACT = _object(3, ("kind", '"exact"'), ("keyword", "%s"))


def _adgroup_tag_text(tag: AdGroupTag) -> str:
    if type(tag) is RuleTag:
        return _RULE_TAG % _encode(tag.keyword.text)
    return _json(_adgroup_tag_doc(tag), 5)


def _tree_text(tree: ProductTree) -> str:
    if type(tree) is Leaf:
        return _LEAF % tree.bid.micros
    return _json(_tree_doc(tree), 5)


def _eraser_text(eraser: Eraser) -> str:
    if type(eraser) is LargeEraser:
        return _LARGE % _strings(4, sorted(eraser.words))
    return _EXACT % _encode(eraser.keyword.text)


# The opening, separator and closing texts of a list at each depth a list of
# campaigns (1), ad groups (3) or negatives (3 and 5) sits at.
_LIST = {
    level: ("[" + _pad(level + 1), "," + _pad(level + 1), _pad(level) + "]")
    for level in (1, 3, 5)
}
# A negative list's entry at each depth a list sits at.
_ENTRY = {level: _object(level + 1, ("keyword", "%s"), ("match", "%s")) for level in (3, 5)}


class _Writer:
    """The snapshot schema written as ``json.dumps(account_document(...),
    indent=2)`` writes it, as str pieces that one ``"".join`` puts together.

    Each part of the fixed schema (the head fields, campaigns, ad groups,
    tags, leaf trees, ``partition`` and ``erasers``) is written straight from
    the account at its known depth, with no document built.  Strings go
    through the C string encoder, which escapes every non-ASCII character as
    json.dumps does; the parts that few entries hold, such as campaign tags
    and split trees, go through the generic ``_json``.

    Negative lists are written by family (see the module docstring), each
    family's union ordered by one account-wide rank.  The rank is keyed by
    the negative, a value, so separate but equal objects rank alike.  In a
    built account a list lacks few of its family's entries, found by a set
    difference with the union, so it costs a sort of those few and one slice
    per run.  The only text made per list is its first piece, so the join's
    output is the only copy of the snapshot beyond one entry per list; the
    piece list holds one reference per entry, 1.58M of them (12.6 MB) at
    n=10000 for a 147 MB snapshot.
    """

    def __init__(self, account: Account) -> None:
        self.account = account
        self.parts: list[str] = []
        tiers: dict[Priority, list[frozenset[NegativeKeyword]]] = {}
        for c in account.campaigns:
            tiers.setdefault(c.priority, []).append(c.negatives)
        # Campaign lists sit at depth 3, ad-group lists at 5.
        families = [(lists, 3) for lists in tiers.values()]
        families += [([g.negatives for g in c.adgroups], 5) for c in account.campaigns]
        unions = [frozenset().union(*lists) for lists, _ in families]
        ranked = sorted(frozenset().union(*unions), key=NegativeKeyword.sort_key)
        rank = dict(zip(ranked, range(len(ranked))))
        # The keyword's text and the match type's value of each, read without
        # the Keyword.text and Enum.value properties.
        fields = [
            (_encode(" ".join(n.keyword.words)), _encode(n.match._value_)) for n in ranked
        ]
        # Every distinct negative's entry text, after its leading separator,
        # at each depth a list sits at, by rank.
        entries = {}
        for level in (3, 5):
            entries[level] = list(map((_LIST[level][1] + _ENTRY[level]).__mod__, fields))
        # Each list is filed under its depth too: one list object may sit in
        # a campaign and in one of its ad groups.  One held by two families
        # at a depth is a cut of either family's union.
        # A family's place of each union entry is keyed by the entry's rank,
        # an int, so each union entry is hashed once, into ``order``.
        self.rank = rank
        self.family: dict[tuple[int, int], tuple[list[str], frozenset, dict]] = {}
        for (lists, level), union in zip(families, unions):
            order = sorted(map(rank.__getitem__, union))
            texts = list(map(entries[level].__getitem__, order))
            position = dict(zip(order, range(len(order))))
            self.family.update(((id(negs), level), (texts, union, position)) for negs in lists)

    def render(self) -> str:
        account, parts = self.account, self.parts
        head, tail = _ACCOUNT
        brands = _strings(1, (b.text for b in account.brands))
        non_brands = _strings(1, (b.text for b in account.non_brands))
        parts.append(head % (account.limit, brands, non_brands))
        self.items(account.campaigns, self.campaign, 1)
        partition = [_strings(2, sorted(kw.text for kw in group)) for group in account.partition]
        erasers = [_array(2, [_eraser_text(e) for e in group]) for group in account.erasers]
        parts.append(tail % (_array(1, partition), _array(1, erasers)) + "\n")
        return "".join(parts)

    def items(self, values: Sequence[Any], write: Callable[[Any], None], level: int) -> None:
        """A list of campaigns or ad groups, never empty, at depth ``level``."""
        sep, between, close = _LIST[level]
        for value in values:
            self.parts.append(sep)
            write(value)
            sep = between
        self.parts.append(close)

    def campaign(self, c: Campaign) -> None:
        head, middle, tail = _CAMPAIGN
        fields = (_encode(c.name), _encode(c.priority.value), _json(_campaign_tag_doc(c.tag), 3))
        self.parts.append(head % fields)
        self.negatives(c.negatives, 3)
        self.parts.append(middle)
        self.items(c.adgroups, self.adgroup, 3)
        self.parts.append(tail)

    def adgroup(self, g: AdGroup) -> None:
        head, tail = _ADGROUP
        self.parts.append(head % (_encode(g.name), _adgroup_tag_text(g.tag)))
        self.negatives(g.negatives, 5)
        self.parts.append(tail % _tree_text(g.tree))

    def negatives(self, negatives: frozenset[NegativeKeyword], level: int) -> None:
        parts = self.parts
        if not negatives:
            parts.append("[]")
            return
        texts, union, position = self.family[id(negatives), level]
        lacked = sorted(map(position.__getitem__, map(self.rank.__getitem__, union - negatives)))
        lacked.append(len(texts))
        first = len(parts)
        b = 0
        for e in lacked:
            parts += texts[b:e]
            b = e + 1
        # The first entry opens the list: "[" in place of the separator's ",".
        parts[first] = "[" + parts[first][1:]
        parts.append(_LIST[level][2])


def _string(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise InputError(f"{what} must be a string: {value!r}")
    return value


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _integer(value: Any, what: str) -> int:
    # bool is an int subclass; floats and numeric strings are not integers.
    if type(value) is not int:
        raise InputError(f"{what} must be an integer: {value!r}")
    return value


class _Interned:
    """What one parse makes once per distinct raw text: each keyword text's
    ``Keyword``, and each raw (keyword, match) pair's negative, in a table
    per match type's value, so an unknown match finds none."""

    __slots__ = ("keywords", "negatives")

    def __init__(self) -> None:
        self.keywords: dict[str, Keyword] = {}
        self.negatives: dict[str, tuple[MatchType, dict[str, NegativeKeyword]]] = {
            m.value: (m, {}) for m in MatchType
        }

    def keyword(self, text: Any, what: str) -> Keyword:
        kw = self.keywords.get(text) if isinstance(text, str) else None
        if kw is None:
            kw = self.keywords[text] = normalize(_string(text, what))
        return kw

    def keyword_tuple(self, value: Any, what: str, each: str) -> tuple[Keyword, ...]:
        return tuple(self.keyword(text, each) for text in _list(value, what))

    def negative(self, keyword: Any, match: Any) -> NegativeKeyword:
        match_type, table = self.negatives[match]
        neg = table.get(keyword)
        if neg is None:
            if not isinstance(keyword, str):
                raise TypeError("keyword is not a string")
            neg = table[keyword] = NegativeKeyword(self.keyword(keyword, "keyword"), match_type)
        return neg


def _parse_negatives(
    doc: Any, interned: _Interned, cut: dict[str, frozenset[NegativeKeyword]] | None
) -> frozenset[NegativeKeyword]:
    """Parse one negative list, or take the list ``cut`` holds for its
    marker, once: a second read of a marker finds none."""
    if cut is not None and type(doc) is str:
        return cut.pop(doc)
    out = []
    for item in _list(doc, "negatives"):
        try:
            out.append(interned.negative(item["keyword"], item["match"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad negative entry: {item!r}") from exc
    return frozenset(out)


def _parse_tree(doc: Any) -> ProductTree:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"bad product tree: {doc!r}")
    if doc["kind"] == "leaf":
        return Leaf(Money(_integer(doc["bid_micros"], "bid_micros")))
    if doc["kind"] == "split":
        return Split(
            attribute=_string(doc["attribute"], "tree attribute"),
            branches=tuple(
                (_string(b["value"], "branch value"), _parse_tree(b["tree"]))
                for b in _list(doc["branches"], "tree branches")
            ),
            others=_parse_tree(doc["others"]),
        )
    raise InputError(f"unknown tree kind: {doc['kind']!r}")


def _parse_campaign_tag(doc: Any) -> CampaignTag:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "general":
        return GeneralCampaignTag()
    if kind == "brands":
        return BrandCampaignTag()
    if kind == "group":
        return GroupCampaignTag(_integer(doc["index"], "group index"))
    raise InputError(f"unknown campaign tag: {doc!r}")


def _parse_adgroup_tag(doc: Any, interned: _Interned) -> AdGroupTag:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "catch_all":
        return CatchAllTag()
    if kind == "brand":
        return BrandTag(interned.keyword(doc["brand"], "brand tag"))
    if kind == "rule":
        return RuleTag(interned.keyword(doc["keyword"], "rule tag keyword"))
    raise InputError(f"unknown ad group tag: {doc!r}")


def _eraser_word(value: Any, interned: _Interned) -> str:
    """One normalized word, as every keyword is normalized on parse."""
    words = interned.keyword(value, "large eraser word").words
    if len(words) != 1:
        raise InputError(f"large eraser word must be a single word: {value!r}")
    return words[0]


def _parse_eraser(doc: Any, interned: _Interned) -> Eraser:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "large":
        words = _list(doc["words"], "large eraser words")
        return LargeEraser(frozenset(_eraser_word(w, interned) for w in words))
    if kind == "exact":
        return ExactEraser(interned.keyword(doc["keyword"], "exact eraser keyword"))
    raise InputError(f"unknown eraser kind: {doc!r}")


@gc_paused
def parse_account_document(doc: Any) -> Account:
    if not isinstance(doc, dict):
        raise InputError("account snapshot must be a JSON object")
    if type(doc) is _Skeleton:
        cut, interned = doc.cut, doc.interned
    else:
        cut, interned = None, _Interned()
    try:
        erasers = [
            tuple(_parse_eraser(e, interned) for e in _list(group, "eraser group"))
            for group in _list(doc["erasers"], "erasers")
        ]
        # The i-th eraser entry belongs to the i-th group campaign.
        owned = iter(erasers)
        campaigns = []
        for cdoc in _list(doc["campaigns"], "campaigns"):
            adgroups = tuple(
                AdGroup(
                    name=_string(g["name"], "ad group name"),
                    tag=_parse_adgroup_tag(g["tag"], interned),
                    negatives=_parse_negatives(g["negatives"], interned, cut),
                    tree=_parse_tree(g["tree"]),
                )
                for g in _list(cdoc["adgroups"], "ad groups")
            )
            tag = _parse_campaign_tag(cdoc["tag"])
            camp = Campaign(
                name=_string(cdoc["name"], "campaign name"),
                tag=tag,
                negatives=_parse_negatives(cdoc["negatives"], interned, cut),
                adgroups=adgroups,
                erasers=next(owned, ()) if isinstance(tag, GroupCampaignTag) else (),
            )
            if cdoc["priority"] != camp.priority.value:
                raise InputError(
                    f"campaign {camp.name!r} is a {cdoc['tag']['kind']} campaign, so its"
                    f" priority must be {camp.priority.value!r}, not {cdoc['priority']!r}"
                )
            campaigns.append(camp)
        limit = _integer(doc["limit"], "limit")
        brands = interned.keyword_tuple(doc["brands"], "brands", "brand")
        non_brands = interned.keyword_tuple(doc["non_brands"], "blocked brands", "blocked brand")
        partition = [
            frozenset(interned.keyword_tuple(group, "partition group", "partition keyword"))
            for group in _list(doc["partition"], "partition")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed account snapshot: {exc}") from exc
    except RecursionError as exc:
        raise InputError(_TOO_DEEP) from exc
    # Every cut list must be one the account holds; on this error
    # ``parse_account`` parses the text whole.
    if cut:
        raise InputError("a negative list was cut from where no list is read")
    owners = sum(isinstance(c.tag, GroupCampaignTag) for c in campaigns)
    if len(erasers) != owners:
        raise InputError(f"erasers lists {len(erasers)} groups for {owners} group campaigns")
    account = Account(limit, brands, non_brands, tuple(campaigns))
    # The partition is written from the groups the rule ad groups make.
    if partition != list(account.partition):
        raise InputError("partition does not match the rule ad groups of the group campaigns")
    return account


# The reader's view of the non-empty negative lists the writer lays out.
# ``_KEY`` is the key as the writer's templates write it before a list's
# hole.  By depth, ``_NEGATIVES`` holds a list's opening, the text from the
# line break before the key through the "[" and the first entry's "{"; its
# closing, the text from the last entry's "}" through the "]"; and how an
# entry reads once the list is split at "}": its lead, the "," and the line
# break before its "{", then the entry template up to its keyword's JSON
# string, the template between that string and the match's, and each
# match's JSON string with the line break after it, mapped to the match's
# value.
_KEY = _CAMPAIGN[0].rsplit(_pad(3), 1)[1]


def _negatives_layout(level: int) -> tuple[str, str, str, str, dict[str, str]]:
    head, middle, tail = _ENTRY[level].split("%s")
    return (
        _pad(level) + _KEY + _LIST[level][0] + "{",
        "}" + _LIST[level][2],
        _LIST[level][1] + head,
        middle,
        {_encode(m.value) + tail[:-1]: m.value for m in MatchType},
    )


_NEGATIVES = {level: _negatives_layout(level) for level in (3, 5)}
# A cut list's marker in the skeleton, and the escape it starts with.
_NUL = "\\u0000"
_MARKER = '"' + _NUL + '%d"'


class _Skeleton(dict):
    """A snapshot's document with its non-empty negative lists cut out: the
    value of the k-th cut list is the marker string "\\0<k>", and ``cut``
    maps each marker to its parsed list.  ``interned`` holds the keywords
    and negatives that the cut made."""

    __slots__ = ("cut", "interned")

    cut: dict[str, frozenset[NegativeKeyword]]
    interned: _Interned


def _read_entry(piece: str, level: int, interned: _Interned) -> NegativeKeyword | None:
    """The negative that a piece of a list at depth ``level`` holds, the
    entry less its "}" after its lead, or None unless the writer writes that
    piece so and its keyword normalizes."""
    _, _, head, middle, ends = _NEGATIVES[level]
    if not piece.startswith(head):
        return None
    at = len(head)
    try:
        keyword, end = _scanstring(piece, at + 1)
    except ValueError:
        return None
    # The keyword's string must be the one the writer encodes, which also
    # makes ``piece[at]`` its opening quote.
    if _encode(keyword) != piece[at:end] or not piece.startswith(middle, end):
        return None
    match = ends.get(piece[end + len(middle) :])
    if match is None:
        return None
    try:
        return interned.negative(keyword, match)
    except InputError:
        return None


def _cut_lists(text: str) -> _Skeleton | None:
    """The document of ``text`` with each non-empty negative list that sits
    where the writer puts one read straight from its text, or None when a
    list found there is not written as the writer writes it, an entry's
    keyword holds "}" or does not normalize, or the rest holds another
    ``\\u0000`` or is not a JSON object.

    A list's opening is a whole line, and no JSON string holds a line break,
    so the opening is a key at the list's depth; its closing is the first
    "]" after it that ends the closing text.  The entries between are split
    at each "}" and each piece is given the lead the first one lacks, so
    every piece must be the writer's entry.  Each distinct piece is read
    once; each list is then one lookup per entry.
    """
    # Each list as (the start of its opening, its closing "]", depth).
    spans = []
    at = text.find(_KEY)
    while at >= 0:
        for level, layout in _NEGATIVES.items():
            opening, closing = layout[:2]
            start = at - len(_pad(level))
            if text.startswith(opening, start):
                at = text.find("]", start + len(opening))
                while at >= 0 and not text.startswith(closing, at + 1 - len(closing)):
                    at = text.find("]", at + 1)
                if at < 0:
                    return None
                spans.append((start, at, level))
                break
        at = text.find(_KEY, at + 1)
    if not spans:
        return None
    interned = _Interned()
    # The negative of each piece read; its indent tells its depth, so the
    # pieces of the two depths never meet.
    known: dict[str, NegativeKeyword] = {}
    cut: dict[str, frozenset[NegativeKeyword]] = {}
    parts = []
    done = 0
    for start, end, level in spans:
        closing = _NEGATIVES[level][1]
        # The list's value starts at the "[" after the key; the entries run
        # from after it to before the closing's "}", so no piece follows the
        # last "}" split at.
        value = start + len(_pad(level) + _KEY)
        entries = text[value + 1 : end + 1 - len(closing)].split("}")
        entries[0] = "," + entries[0]
        try:
            negs = frozenset(map(known.__getitem__, entries))
        except KeyError:
            for piece in entries:
                if piece not in known:
                    neg = _read_entry(piece, level, interned)
                    if neg is None:
                        return None
                    known[piece] = neg
            negs = frozenset(map(known.__getitem__, entries))
        parts += (text[done:value], _MARKER % len(cut))
        cut["\0%d" % len(cut)] = negs
        done = end + 1
    parts.append(text[done:])
    skeleton = "".join(parts)
    if skeleton.count(_NUL) != len(cut):
        return None
    try:
        doc = json.loads(skeleton)
    except (ValueError, RecursionError):
        return None
    if type(doc) is not dict:
        return None
    out = _Skeleton(doc)
    out.cut, out.interned = cut, interned
    return out


@gc_paused
def parse_account(text: str) -> Account:
    """The account a snapshot holds.  A snapshot laid out as the writer lays
    it out is read through ``_cut_lists``; any other text, and any text whose
    cut skeleton is not a sound account, is parsed whole, so the account or
    the error is the one ``parse_account_document(json.loads(text))`` gives."""
    skeleton = _cut_lists(text) if isinstance(text, str) else None
    if skeleton is not None:
        try:
            return parse_account_document(skeleton)
        except InputError:
            pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"account snapshot is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(_TOO_DEEP) from exc
    return parse_account_document(doc)
