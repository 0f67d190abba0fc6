"""The package's public surface: every exported name resolves, once."""

from __future__ import annotations

import nilschouten


def test_all_names_resolve_without_duplicates():
    names = nilschouten.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(nilschouten, name)] == []
