"""Package surface: every name a module exports resolves, and numpy stays confined."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import foldcheck
from foldcheck import algebra, catalog, characteristic, decide
from foldcheck.algebra import _packed_algebra

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


# the functions that may import numpy: the unpacking behind the array views
# and the array-facing gf2 wrappers; the axiom battery runs on the packed
# tables alone and imports no numpy
NUMPY_IMPORTERS = [
    "algebra._unpack",
    "gf2._bit_rows",
    "gf2.gf2_solve",
    "gf2.to_gf2",
]


def _numpy_importers(path: Path) -> list[str]:
    """``module.function`` for each import of numpy in a source file, by enclosing function."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m == "numpy" or m.startswith("numpy.") for m in modules):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_numpy_is_imported_only_where_arrays_are_read():
    source = Path(foldcheck.__file__).parent
    found = sorted(name for path in sorted(source.glob("*.py")) for name in _numpy_importers(path))
    assert found == sorted(NUMPY_IMPORTERS)


def _records() -> dict:
    """One instance of every public record type, from RP4 and its decisions."""
    m = catalog.atom("RP4")
    bounds = decide.stable_span_bounds(m)
    thom = decide.thom_polynomials(m)
    return {
        "Manifold": m,
        "GradedAlgebra": m.algebra,
        "ClassZ2": m.w.component(1),
        "TotalClass": m.w,
        "BundleDescriptor": characteristic.tangent_descriptor(m),
        "Verdict": decide.decide_fold(m, decide.TargetSpec.euclidean(3)),
        "SpanBounds": bounds,
        "TraceEntry": bounds.trace[0],
        "TargetSpec": decide.TargetSpec.sphere(2),
        "ThomTable": thom,
        "ThomEntry": thom.entries[0],
        "StructureFlags": characteristic.structure_flags(m),
        "ValidationReport": algebra.validate_algebra(m.algebra),
        "TriState": m.w3_twisted,
        "P1Data": m.p1,
    }


@pytest.mark.parametrize("kind", list(_records()))
def test_records_are_read_only(kind):
    record = _records()[kind]
    assert type(record).__name__ == kind
    field = next(iter(vars(record))) if hasattr(record, "__dict__") else record._fields[0]
    before = getattr(record, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, field) is before


def test_cached_views_of_read_only_records_fill_on_first_read():
    # building RP4 reads its algebra's degrees, so the algebra here is a fresh S4
    m, A = catalog.atom("RP4"), _packed_algebra(4, [["1"], [], [], [], ["s"]])
    assert "wbar" not in vars(m) and "degrees" not in vars(A)
    wbar, degrees = m.wbar, A.degrees
    assert vars(m)["wbar"] is wbar and m.wbar is wbar
    assert vars(A)["degrees"] is degrees == (0, 4)
