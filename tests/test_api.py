"""The public API: every exported name resolves, and each is listed once."""

import lgg


def test_every_exported_name_resolves():
    assert [name for name in lgg.__all__ if not hasattr(lgg, name)] == []


def test_exports_are_sorted_without_duplicates():
    assert lgg.__all__ == sorted(set(lgg.__all__))
