"""Spans around foldcheck's public functions, installed from outside the package.

``install`` wraps the public functions of each traced module in a span
recorder.  Several modules import their callees by name (``from .gf2 import
gf2_solve``), so every module-level name bound to a wrapped function is
rebound, not only the defining one.  Spans are kept in memory as
``[name, start, end, parent]`` rows and written out by ``write``; per-layer
numbers come from ``summarize``.  A layer's self time is its span's duration
minus the time covered by its child spans (children of one span never
overlap: the program is single-threaded).
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref
from pathlib import Path

MODULES = ("cli", "expressions", "catalog", "algebra", "characteristic", "gf2", "decide")

# gf2 has no __all__; these are the kernels library code calls
GF2_FUNCTIONS = ("gf2_rank", "gf2_solve", "gf2_invertible")

# a validation below one of these re-checks an algebra built from valid input
REDUNDANT_VALIDATION_PARENTS = frozenset({
    "algebra.kunneth",
    "algebra.connected_sum_algebra",
    "catalog.atom",
    "catalog.sphere",
    "catalog.real_projective",
    "catalog.complex_projective",
    "catalog.cp2_reversed",
    "catalog.k3",
    "catalog.orientable_surface",
    "catalog.nonorientable_surface",
    "catalog.point",
})
TRUST_BOUNDARY = "catalog.load_manifold"

# per-layer (calls, self time) pairs reported by name
CALLS_AND_SELF = (
    "expressions.parse_expression",
    "catalog.atom",
    "catalog.connected_sum",
    "catalog.product",
    "catalog.load_manifold",
    "catalog.validate_manifold",
    "algebra.build_algebra",
    "algebra.validate_algebra",
    "algebra.kunneth",
    "algebra.connected_sum_algebra",
    "characteristic.wu_total",
    "decide.decide_fold",
    "decide.stable_span_bounds",
    "decide.thom_polynomials",
)
SELF_ONLY = (
    "cli.main",
    "algebra.total_sq",
    "algebra.invert_total",
    "algebra.multiply",
    "characteristic.dual_classes",
)
CALLS_ONLY = ("algebra.multiply", "characteristic.w3_twisted_status")


class Tracer:
    """Span recorder plus the counters that need the wrapped call's arguments."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self.manifolds_built = 0
        self.table_bytes_max = 0
        self.span_calls_repeated = 0
        self._span_seen: weakref.WeakSet = weakref.WeakSet()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.manifolds_built = 0
        self.table_bytes_max = 0
        self.span_calls_repeated = 0
        self._span_seen = weakref.WeakSet()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = {"decide.stable_span_bounds": self._note_span_call}.get(name)
        after = {"algebra.build_algebra": self._note_tables}.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _note_span_call(self, manifold, *_) -> None:
        if manifold in self._span_seen:
            self.span_calls_repeated += 1
        else:
            self._span_seen.add(manifold)

    def _note_tables(self, algebra) -> None:
        size = algebra.fundamental.nbytes + algebra.unit.nbytes
        size += sum(a.nbytes for a in algebra.mult.values())
        size += sum(a.nbytes for a in algebra.sq_table.values())
        self.table_bytes_max = max(self.table_bytes_max, size)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {short: importlib.import_module(f"foldcheck.{short}") for short in MODULES}
        package = [m for n, m in sys.modules.items() if n == "foldcheck" or n.startswith("foldcheck.")]
        for short, module in modules.items():
            names = GF2_FUNCTIONS if short == "gf2" else module.__all__
            for fname in names:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{short}.{fname}", fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
        manifold = modules["catalog"].Manifold
        init = manifold.__init__

        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if self.enabled:
                self.manifolds_built += 1

        manifold.__init__ = counting_init

    # -- output -----------------------------------------------------------------

    def raw(self) -> dict:
        return {
            "spans": self.spans,
            "manifolds_built": self.manifolds_built,
            "table_bytes_max": self.table_bytes_max,
            "span_calls_repeated": self.span_calls_repeated,
        }


def write(path: Path, raws: list[dict]) -> None:
    """Write the spans of several recorders (one per process) as JSON lines."""
    with path.open("w", encoding="utf-8") as handle:
        for number, raw in enumerate(raws):
            for name, start, end, parent in raw["spans"]:
                handle.write(json.dumps([number, name, start, end, parent]) + "\n")


def summarize(raws: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the spans of one or more recorders."""
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    useful = redundant = 0
    built = repeated = 0
    table_bytes = 0
    for raw in raws:
        spans = raw["spans"]
        built += raw["manifolds_built"]
        repeated += raw["span_calls_repeated"]
        table_bytes = max(table_bytes, raw["table_bytes_max"])
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start) - covered[index]
            if name == "algebra.validate_algebra":
                ancestors = set()
                while parent >= 0:
                    ancestors.add(spans[parent][0])
                    parent = spans[parent][3]
                if TRUST_BOUNDARY in ancestors or not ancestors & REDUNDANT_VALIDATION_PARENTS:
                    useful += 1
                else:
                    redundant += 1

    out: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_time.get(name, 0.0)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = self_time.get(name, 0.0)
    for name in CALLS_ONLY:
        out[f"{name}.calls"] = calls.get(name, 0)
    gf2 = [f"gf2.{f}" for f in GF2_FUNCTIONS]
    out["gf2.calls"] = sum(calls.get(n, 0) for n in gf2)
    out["gf2.self_s"] = sum(self_time.get(n, 0.0) for n in gf2)
    out["catalog.manifolds_built"] = built
    validations = useful + redundant
    out["algebra.validate_algebra.redundant_calls"] = redundant
    # with no validation at all nothing is wasted
    out["algebra.validate_algebra.useful_ratio"] = useful / validations if validations else 1.0
    out["algebra.table_bytes_max"] = table_bytes
    out["characteristic.wu_per_manifold"] = (
        calls.get("characteristic.wu_total", 0) / built if built else 0.0
    )
    span_calls = calls.get("decide.stable_span_bounds", 0)
    out["decide.stable_span_bounds.repeat_ratio"] = repeated / span_calls if span_calls else 0.0
    return out
