"""File formats for rule catalogues and keyword lists.

Rules travel as JSON Lines, one object per rule:

    {"keyword": "nike shoes", "cpc_micros": 250000, "items": ["item-1"]}

Brand and blocked-brand lists are plain text, one keyword per line; blank
lines and ``#`` comments are skipped.  Loaders raise InputError with the file
name and line number on malformed input.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

from ._gcpause import gc_paused
from .account import Money, Rule
from .errors import InputError
from .keywords import Keyword, distinct_keywords, normalize


_FIELDS = {"keyword", "cpc_micros", "items"}


def _parse_rule(line: str) -> Rule:
    """One rule line; its errors leave the caller to name where it was."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputError("expected a JSON object")
    if doc.keys() != _FIELDS:
        missing = _FIELDS - doc.keys()
        if missing:
            raise InputError(f"missing fields: {', '.join(sorted(missing))}")
        raise InputError(f"unknown fields: {', '.join(sorted(doc.keys() - _FIELDS))}")
    keyword, cpc, items = doc["keyword"], doc["cpc_micros"], doc["items"]
    if not isinstance(keyword, str):
        raise InputError("keyword must be a string")
    if not isinstance(cpc, int) or isinstance(cpc, bool):
        raise InputError("cpc_micros must be an integer")
    if not isinstance(items, list) or not all(isinstance(i, str) for i in items):
        raise InputError("items must be a list of strings")
    return Rule(keyword=normalize(keyword), cpc=Money(cpc), items=frozenset(items))


@gc_paused
def loads_rules(text: str, *, source: str = "<rules>") -> tuple[Rule, ...]:
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rules.append(_parse_rule(line))
        except InputError as exc:
            # The location is formatted only for the line that fails.
            raise InputError(f"{source}:{lineno}: {exc}") from exc
    try:
        distinct_keywords(r.keyword for r in rules)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc
    return tuple(rules)


def load_rules(path: str | os.PathLike[str]) -> tuple[Rule, ...]:
    with open(path, encoding="utf-8") as fh:
        return loads_rules(fh.read(), source=str(path))


def dumps_rules(rules: Sequence[Rule]) -> str:
    lines = [
        json.dumps(
            {
                "keyword": r.keyword.text,
                "cpc_micros": r.cpc.micros,
                "items": sorted(r.items),
            }
        )
        for r in rules
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def save_rules(path: str | os.PathLike[str], rules: Sequence[Rule]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_rules(rules))


def loads_keywords(text: str, *, source: str = "<keywords>") -> tuple[Keyword, ...]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(normalize(line))
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from exc
    try:
        distinct_keywords(out)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc
    return tuple(out)


def load_keywords(path: str | os.PathLike[str]) -> tuple[Keyword, ...]:
    with open(path, encoding="utf-8") as fh:
        return loads_keywords(fh.read(), source=str(path))


def save_keywords(path: str | os.PathLike[str], keywords: Sequence[Keyword]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for kw in keywords:
            fh.write(kw.text + "\n")
