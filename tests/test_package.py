"""Package surface: every name a module exports resolves."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import foldcheck

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(foldcheck.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"foldcheck.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
