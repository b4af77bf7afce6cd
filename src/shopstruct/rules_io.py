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


def parse_rule_line(line: str, *, where: str = "rule") -> Rule:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{where}: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object")
    missing = {"keyword", "cpc_micros", "items"} - doc.keys()
    if missing:
        raise InputError(f"{where}: missing fields: {', '.join(sorted(missing))}")
    extra = doc.keys() - {"keyword", "cpc_micros", "items"}
    if extra:
        raise InputError(f"{where}: unknown fields: {', '.join(sorted(extra))}")
    if not isinstance(doc["keyword"], str):
        raise InputError(f"{where}: keyword must be a string")
    if not isinstance(doc["cpc_micros"], int) or isinstance(doc["cpc_micros"], bool):
        raise InputError(f"{where}: cpc_micros must be an integer")
    if not isinstance(doc["items"], list) or not all(
        isinstance(i, str) for i in doc["items"]
    ):
        raise InputError(f"{where}: items must be a list of strings")
    try:
        return Rule(
            keyword=normalize(doc["keyword"]),
            cpc=Money(doc["cpc_micros"]),
            items=frozenset(doc["items"]),
        )
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


@gc_paused
def loads_rules(text: str, *, source: str = "<rules>") -> tuple[Rule, ...]:
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        rules.append(parse_rule_line(line, where=f"{source}:{lineno}"))
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
