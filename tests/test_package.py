"""Package surface: every name a module exports resolves."""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import foldcheck

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(foldcheck.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"foldcheck.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_every_bench_span_is_exported():
    # bench/spans.py wraps only the names in each module's __all__, so a
    # metric it reports by name reads zero once that name leaves __all__
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # read the lists only; install() is not called
    names = spans.CALLS_AND_SELF + spans.SELF_ONLY + spans.CALLS_ONLY
    assert names
    for name in names:
        short, function = name.split(".")
        module = importlib.import_module(f"foldcheck.{short}")
        assert function in module.__all__, name
