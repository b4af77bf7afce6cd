"""``pins.json`` is the one home of every digest the tests and CI check.

A check reads a digest as ``pin`` called on the key written out as a string
literal, so the keys read can be matched against the table here, in both
directions.  ``bench/pins.json`` is the benchmark's own and is not read
here.
"""

from __future__ import annotations

import re
from pathlib import Path

from pins import PINS

ROOT = Path(__file__).resolve().parent.parent

HEX64 = re.compile(r"(?<![0-9a-fA-F])[0-9a-fA-F]{64}(?![0-9a-fA-F])")
KEY_READ = re.compile(r'\bpin\("([^"]*)"\)')
ANY_READ = re.compile(r"(?<!def )\bpin\(")


def _check_files() -> dict[str, str]:
    """The text of each file that may hold a check: tests/*.py and the workflows."""
    paths = sorted((ROOT / "tests").glob("*.py"))
    paths += sorted((ROOT / ".github" / "workflows").glob("*.yml"))
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def _keys_read() -> set[str]:
    return {key for text in _check_files().values() for key in KEY_READ.findall(text)}


def test_no_digest_is_written_outside_the_table():
    found = {name: HEX64.findall(text) for name, text in _check_files().items()}
    assert {name: digests for name, digests in found.items() if digests} == {}


def test_every_read_names_its_key_as_a_literal():
    for name, text in _check_files().items():
        assert len(ANY_READ.findall(text)) == len(KEY_READ.findall(text)), name


def test_every_key_read_is_in_the_table():
    assert _keys_read() - set(PINS) == set()


def test_every_key_in_the_table_is_read():
    assert set(PINS) - _keys_read() == set()


def test_each_entry_is_one_digest_and_one_line():
    for key, entry in PINS.items():
        assert set(entry) == {"sha256", "pins"}, key
        assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"]), key
        assert entry["pins"] and "\n" not in entry["pins"], key
    digests = [entry["sha256"] for entry in PINS.values()]
    assert len(set(digests)) == len(digests)
