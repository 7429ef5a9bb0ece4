"""Every exported name exists, so ``from isohull import *`` and ``from
isohull.<module> import *`` work after a name is deleted or renamed, and
every top-level export is read somewhere in the package."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import isohull

MODULES = ["isohull"] + [
    info.name for info in pkgutil.iter_modules(isohull.__path__, "isohull.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_top_level_export_has_a_caller_in_src():
    # a name the package exports but never reads belongs in tests/oracles.py
    used: set[str] = set()
    for path in Path(isohull.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [n for n in isohull.__all__ if n not in used] == []
