"""The package's public names: what ``shopstruct.__all__`` lists must exist."""

from __future__ import annotations

import shopstruct


def test_all_names_resolve_once():
    names = shopstruct.__all__
    assert [n for n in names if not hasattr(shopstruct, n)] == []
    assert len(set(names)) == len(names)
