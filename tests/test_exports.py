"""Every exported name exists, so ``from isohull import *`` and ``from
isohull.<module> import *`` work after a name is deleted or renamed."""

from __future__ import annotations

import importlib
import pkgutil

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
