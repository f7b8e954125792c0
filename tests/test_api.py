"""The public API: every exported name resolves, each is listed once, and the
package metadata in ``pyproject.toml`` points at it."""

import importlib
import tomllib
from pathlib import Path

import lgg
import lgg.cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_exported_name_resolves():
    assert [name for name in lgg.__all__ if not hasattr(lgg, name)] == []


def test_exports_are_sorted_without_duplicates():
    assert lgg.__all__ == sorted(set(lgg.__all__))


def test_pyproject_matches_the_package():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    module, _, attr = project["scripts"]["lgg"].partition(":")
    assert (module, attr) == ("lgg.cli", "main")
    assert getattr(importlib.import_module(module), attr) is lgg.cli.main
    assert project["version"] == lgg.__version__
