"""Classes and tables the tests build by hand.

The package builds its classes from tables; these constructors exist for
the tests alone, so they live here and go through the public, checking
constructors of ``ClassZ2`` and ``TotalClass``.  So does the point record,
which the expression grammar cannot name: it is loaded as a document.
``sparse`` turns the dense numpy tables the tests write as references into
the sparse rows ``build_algebra`` reads.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from foldcheck.algebra import ClassZ2, GradedAlgebra, TotalClass
from foldcheck.catalog import Manifold, load_manifold


def one(A: GradedAlgebra) -> ClassZ2:
    return ClassZ2(A, 0, A.unit)


def element(A: GradedAlgebra, d: int, coords: Iterable[int]) -> ClassZ2:
    return ClassZ2(A, d, np.asarray(list(coords), dtype=np.uint8))


def basis_element(A: GradedAlgebra, d: int, i: int) -> ClassZ2:
    coords = np.zeros(A.rank(d), dtype=np.uint8)
    coords[i] = 1
    return ClassZ2(A, d, coords)


def unit_total(A: GradedAlgebra) -> TotalClass:
    comps = [np.zeros(A.rank(d), dtype=np.uint8) for d in range(A.top_degree + 1)]
    comps[0] = A.unit
    return TotalClass(A, tuple(comps))


def sparse(tables: dict) -> dict:
    """Each dense table as sparse rows: its rows with a nonzero entry, by index tuple."""
    out = {}
    for key, table in tables.items():
        a = np.asarray(table)
        out[key] = {
            index: a[index].tolist() for index in np.ndindex(a.shape[:-1]) if a[index].any()
        }
    return out


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
