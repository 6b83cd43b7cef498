"""Classes and tables the tests build by hand.

The package makes every class from its bits, out of records and the
operations on them; it reads no outside coordinates but a document's
rows.  The constructors here, and ``coords``, the coordinates of a class
as an array, exist for the tests alone, so they live here and make their
classes from bits through ``_class`` and ``_total`` as the package does.
So does the point record, which the expression grammar cannot name: it
is loaded as a document.  ``entries`` writes the dense numpy tables the
tests write as references as the entry lists of a document, which
``build_algebra`` reads; ``packed`` writes them as the packed tables of
the store, one per unordered degree pair, for tables no document can
express (a square block that is not commutative, an invalid algebra),
which tests hand to ``_packed_algebra`` and check with
``validate_algebra``.  ``replace`` rebuilds a record with some fields
changed, as tests forge records that no constructor would make.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from foldcheck.algebra import ClassZ2, GradedAlgebra, TotalClass, _class, _table, _total
from foldcheck.catalog import Manifold, load_manifold


def one(A: GradedAlgebra) -> ClassZ2:
    return _class(A, 0, A.unit_bits)


def element(A: GradedAlgebra, d: int, coords: Iterable[int]) -> ClassZ2:
    """The degree-d class with these 0/1 coordinates."""
    coords = list(coords)
    assert len(coords) == A.rank(d) and {0, 1}.issuperset(coords), coords
    return _class(A, d, bits(coords))


def basis_element(A: GradedAlgebra, d: int, i: int) -> ClassZ2:
    assert 0 <= i < A.rank(d), (d, i)
    return _class(A, d, 1 << i)


def total(A: GradedAlgebra, components: Sequence[Iterable[int]]) -> TotalClass:
    """The total class with these 0/1 coordinates, one vector per degree."""
    assert len(components) == A.top_degree + 1, components
    return _total(A, [element(A, d, c).bits for d, c in enumerate(components)])


def unit_total(A: GradedAlgebra) -> TotalClass:
    return _total(A, [A.unit_bits] + [0] * A.top_degree)


def coords(x: ClassZ2) -> np.ndarray:
    """The coordinates of a class as a uint8 array."""
    return np.array([x.bits >> i & 1 for i in range(x.algebra.rank(x.degree))], dtype=np.uint8)


def _nonzero_rows(table) -> list[tuple[tuple[int, ...], list[int]]]:
    """``(index, row)`` of each row of a dense table (its last axis) with a nonzero entry."""
    a = np.asarray(table)
    return [(index, a[index].tolist()) for index in np.ndindex(a.shape[:-1]) if a[index].any()]


def entries(mult: dict, sq: dict | None = None) -> tuple[list, list]:
    """Dense tables, keyed ``(d1, d2)`` and ``(k, d)``, as document entry lists.

    A product row is listed as ``[d1, i, d2, j, row]`` and a square row as
    ``[k, d, i, row]``, nonzero rows only.
    """
    return (
        [[d1, i, d2, j, row] for (d1, d2), t in mult.items() for (i, j), row in _nonzero_rows(t)],
        [[k, d, i, row] for (k, d), t in (sq or {}).items() for (i,), row in _nonzero_rows(t)],
    )


def bits(coords: Iterable[int]) -> int:
    """A 0/1 vector as the int that packs it: coordinate i is bit i."""
    return sum(int(v) << i for i, v in enumerate(coords))


def rows(table) -> list[int]:
    """A dense table's rows (its last axis) as the packed ints a stored table holds."""
    a = np.asarray(table)
    return [bits(row) for row in a.reshape(math.prod(a.shape[:-1]), a.shape[-1])]


def packed(tables: dict) -> dict:
    """Dense tables as the packed tables of the store, which ``_packed_algebra`` takes.

    The store holds one product table per unordered degree pair, keyed
    ``(d1, d2)`` with ``d1 <= d2``: a table keyed ``d1 > d2`` is dropped,
    and must be the transpose of its twin.  A Steenrod key ``(k, d)`` has
    ``k <= d`` and is always kept.
    """
    out = {}
    for (d1, d2), table in tables.items():
        if d1 > d2:
            twin = np.asarray(tables[d2, d1]).transpose(1, 0, 2)
            assert np.array_equal(np.asarray(table), twin), ("not the transpose of its twin", d1, d2)
        else:
            out[d1, d2] = _table(rows(table))
    return out


# what a record derives on first use: a rebuilt record starts without them
_CACHED = ("_verdicts", "wbar")


def replace(record: Manifold, **changes) -> Manifold:
    """A new record through ``Manifold(...)``, with its fields but ``changes``, and empty caches."""
    fields = {name: value for name, value in vars(record).items() if name not in _CACHED}
    return Manifold(**{**fields, **changes})


def point() -> Manifold:
    """A single point, the unit for products; the expression grammar has no point atom."""
    return load_manifold(
        {
            "name": "point",
            "dim": 0,
            "orientable": True,
            "euler": 1,
            "signature": 1,
            "basis": [["1"]],
            "p1": "zero",
            "stably_parallelizable": True,
            "torsion_free": True,
        }
    )
