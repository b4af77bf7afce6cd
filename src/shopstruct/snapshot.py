"""Lossless JSON snapshots of accounts.

The renderer is deterministic: negatives are sorted by (match type, keyword),
keywords inside partition groups are sorted, and everything else keeps the
account's own canonical order, so rendering the parse of a rendering is
byte-identical.

``account_document`` is the reference definition of the format: a snapshot is
``json.dumps(account_document(account), indent=2) + "\\n"``.  ``render_account``
writes those same bytes directly, without building the per-negative documents
or going through json's pure-Python indenting encoder.

Parsing interns negatives: the first entry with a given raw (keyword, match)
pair is normalized and validated, and every later entry with that pair reuses
its object.  A snapshot repeats each negative across many lists, so a parsed
account, like a built one, holds one object per negative, which the renderer
and ``simulate.Simulator`` rely on to handle each negative once.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode
from typing import Any, Callable

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

_PRIORITY_NAMES = {Priority.HIGH: "high", Priority.MEDIUM: "medium", Priority.LOW: "low"}
_PRIORITY_VALUES = {v: k for k, v in _PRIORITY_NAMES.items()}


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


def _document(
    account: Account, negatives: Callable[[frozenset[NegativeKeyword]], Any]
) -> dict[str, Any]:
    return {
        "limit": account.limit,
        "brands": [b.text for b in account.brands],
        "non_brands": [b.text for b in account.non_brands],
        "campaigns": [
            {
                "name": c.name,
                "priority": _PRIORITY_NAMES[c.priority],
                "tag": _campaign_tag_doc(c.tag),
                "negatives": negatives(c.negatives),
                "adgroups": [
                    {
                        "name": g.name,
                        "tag": _adgroup_tag_doc(g.tag),
                        "negatives": negatives(g.negatives),
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


def account_document(account: Account) -> dict[str, Any]:
    """The snapshot's reference definition: the JSON value of ``account``."""
    return _document(account, _negatives_doc)


def render_account(account: Account) -> str:
    """``json.dumps(account_document(account), indent=2) + "\\n"``, written directly."""
    out: list[str] = []
    _Writer(account).write(_document(account, lambda negatives: negatives), 0, out)
    out.append("\n")
    return "".join(out)


class _Writer:
    """``json.dumps(..., indent=2)`` for the snapshot's documents, in which
    negative lists are left as the account's frozensets.

    Strings go through the C string encoder.  Every distinct negative is
    ranked once in canonical order and its entry rendered once per nesting
    depth.  Negatives are looked up by identity (a built or parsed account
    shares one object per negative), so a list costs an integer sort and a
    join and no negative is hashed again.
    """

    def __init__(self, account: Account) -> None:
        lists = [c.negatives for c in account.campaigns]
        lists += [g.negatives for c in account.campaigns for g in c.adgroups]
        objects: dict[int, NegativeKeyword] = {}
        for negs in lists:
            objects.update(zip(map(id, negs), negs))
        self.ranked = sorted(frozenset().union(*lists), key=NegativeKeyword.sort_key)
        value_rank = {neg: i for i, neg in enumerate(self.ranked)}
        self.rank = {key: value_rank[neg] for key, neg in objects.items()}
        self.entries: dict[int, list[str]] = {}

    def write(self, value: Any, level: int, out: list[str]) -> None:
        if isinstance(value, str):
            out.append(_encode(value))
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, frozenset):
            self.negatives(value, level, out)
        elif isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            inner = "\n" + "  " * (level + 1)
            sep = "{" + inner
            for key, item in value.items():
                out.append(sep + _encode(key) + ": ")
                self.write(item, level + 1, out)
                sep = "," + inner
            out.append("\n" + "  " * level + "}")
        else:
            if not value:
                out.append("[]")
                return
            inner = "\n" + "  " * (level + 1)
            sep = "[" + inner
            for item in value:
                out.append(sep)
                self.write(item, level + 1, out)
                sep = "," + inner
            out.append("\n" + "  " * level + "]")

    def negatives(
        self, negatives: frozenset[NegativeKeyword], level: int, out: list[str]
    ) -> None:
        if not negatives:
            out.append("[]")
            return
        pad = "\n" + "  " * (level + 1)
        entries = self.entries.get(level)
        if entries is None:
            inner = "\n" + "  " * (level + 2)
            entries = self.entries[level] = [
                "{" + inner + '"keyword": ' + _encode(n.keyword.text) + ","
                + inner + '"match": ' + _encode(n.match.value) + pad + "}"
                for n in self.ranked
            ]
        order = sorted(map(self.rank.__getitem__, map(id, negatives)))
        out.append("[" + pad)
        out.append(("," + pad).join(map(entries.__getitem__, order)))
        out.append("\n" + "  " * level + "]")


def _keyword(text: Any, what: str) -> Keyword:
    if not isinstance(text, str):
        raise InputError(f"{what} must be a string: {text!r}")
    return normalize(text)


def _parse_negatives(
    doc: Any, interned: dict[tuple[str, str], NegativeKeyword]
) -> frozenset[NegativeKeyword]:
    """Parse one negative list, reusing the object ``interned`` holds for an
    entry's raw (keyword, match) pair; the first occurrence is validated and
    stored there."""
    if not isinstance(doc, list):
        raise InputError("negatives must be a list")
    out = []
    for item in doc:
        try:
            key = (item["keyword"], item["match"])
            neg = interned.get(key)
            if neg is None:
                if not isinstance(key[0], str):
                    raise TypeError("keyword is not a string")
                neg = interned[key] = NegativeKeyword(normalize(key[0]), MatchType(key[1]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad negative entry: {item!r}") from exc
        out.append(neg)
    return frozenset(out)


def _parse_tree(doc: Any) -> ProductTree:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"bad product tree: {doc!r}")
    if doc["kind"] == "leaf":
        return Leaf(Money(int(doc["bid_micros"])))
    if doc["kind"] == "split":
        return Split(
            attribute=str(doc["attribute"]),
            branches=tuple(
                (str(b["value"]), _parse_tree(b["tree"])) for b in doc["branches"]
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
        return GroupCampaignTag(int(doc["index"]))
    raise InputError(f"unknown campaign tag: {doc!r}")


def _parse_adgroup_tag(doc: Any) -> AdGroupTag:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "catch_all":
        return CatchAllTag()
    if kind == "brand":
        return BrandTag(_keyword(doc["brand"], "brand tag"))
    if kind == "rule":
        return RuleTag(_keyword(doc["keyword"], "rule tag keyword"))
    raise InputError(f"unknown ad group tag: {doc!r}")


def _parse_eraser(doc: Any) -> Eraser:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "large":
        return LargeEraser(frozenset(str(w) for w in doc["words"]))
    if kind == "exact":
        return ExactEraser(_keyword(doc["keyword"], "exact eraser keyword"))
    raise InputError(f"unknown eraser kind: {doc!r}")


def parse_account_document(doc: Any) -> Account:
    if not isinstance(doc, dict):
        raise InputError("account snapshot must be a JSON object")
    interned: dict[tuple[str, str], NegativeKeyword] = {}
    try:
        campaigns = []
        for cdoc in doc["campaigns"]:
            adgroups = tuple(
                AdGroup(
                    name=str(g["name"]),
                    tag=_parse_adgroup_tag(g["tag"]),
                    negatives=_parse_negatives(g["negatives"], interned),
                    tree=_parse_tree(g["tree"]),
                )
                for g in cdoc["adgroups"]
            )
            campaigns.append(
                Campaign(
                    name=str(cdoc["name"]),
                    priority=_PRIORITY_VALUES[cdoc["priority"]],
                    tag=_parse_campaign_tag(cdoc["tag"]),
                    negatives=_parse_negatives(cdoc["negatives"], interned),
                    adgroups=adgroups,
                )
            )
        return Account(
            limit=int(doc["limit"]),
            brands=tuple(_keyword(b, "brand") for b in doc["brands"]),
            non_brands=tuple(_keyword(b, "blocked brand") for b in doc["non_brands"]),
            campaigns=tuple(campaigns),
            partition=tuple(
                frozenset(_keyword(kw, "partition keyword") for kw in group)
                for group in doc["partition"]
            ),
            erasers=tuple(
                tuple(_parse_eraser(e) for e in group) for group in doc["erasers"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed account snapshot: {exc}") from exc


def parse_account(text: str) -> Account:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"account snapshot is not valid JSON: {exc}") from exc
    return parse_account_document(doc)
