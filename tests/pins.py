"""Every sha256 the tests and CI check, read from ``pins.json`` beside this
module.  Each entry is keyed by name and says in one line what it pins; a
check names its key as a string literal, so ``test_pins.py`` can match the
keys read against the table."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS = json.loads(Path(__file__).with_name("pins.json").read_text(encoding="utf-8"))


def pin(key: str) -> str:
    """The pinned digest named ``key``; a key the table lacks raises KeyError."""
    return PINS[key]["sha256"]


def sha256(data: str | bytes) -> str:
    """The hex digest of ``data``, a str taken as its UTF-8 bytes."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()
