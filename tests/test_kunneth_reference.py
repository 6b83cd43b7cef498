"""Kunneth products against the kron/einsum formulation they replaced.

``kunneth`` writes each product and Cartan piece as a cross product of
packed ints, and ``cross_total`` places cross products degree by degree.
``reference_kunneth`` and ``reference_cross_total`` below are the earlier
``np.einsum`` / ``np.kron`` code, which accumulated every piece with
``^=`` after a ``% 2``, on the earlier degree walk ``_kunneth_layout``
(every split ``i + j = d``), so they share no iteration helper with the
package.  Both must give the same labels, every table, unit,
fundamental class and cross product, entry for entry; where primed
labels would meet, both set B's labels apart with ``_set_apart``.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from classes import bits, packed, total
from conftest import ATOM_TOKENS
from test_trust_boundary import rebased_document
from foldcheck import catalog
from foldcheck.algebra import (
    GradedAlgebra,
    TotalClass,
    _check_table_size,
    _disambiguate,
    _packed_algebra,
    _pair_label,
    _prime_counts,
    _set_apart,
    _table_bytes,
    cross_total,
    kunneth,
)
from foldcheck.expressions import parse_expression

# ---------------------------------------------------------------------------
# the kron/einsum Kunneth product, kept as the reference


def _kunneth_layout(A: GradedAlgebra, B: GradedAlgebra, d: int) -> list[tuple[int, int, int]]:
    """Blocks ``(i, j, start)`` of degree-d basis pairs, A-degree ascending."""
    out = []
    start = 0
    for i in range(d + 1):
        j = d - i
        size = A.rank(i) * B.rank(j)
        if size:
            out.append((i, j, start))
        start += size
    return out


def reference_kunneth(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    n = A.top_degree + B.top_degree
    _check_table_size(_table_bytes(
        [sum(A.rank(i) * B.rank(d - i) for i in range(d + 1)) for d in range(n + 1)]
    ))
    layouts = [_kunneth_layout(A, B, d) for d in range(n + 1)]
    outs = [{(i, j): s for i, j, s in layout} for layout in layouts]

    def pair_labels(labels_b: list[list[str]]) -> list[list[str]]:
        basis: list[list[str]] = []
        for d in range(n + 1):
            row: list[str] = []
            for i, j, _ in layouts[d]:
                for la in A.basis[i]:
                    for lb in labels_b[j]:
                        row.append(_pair_label(la, lb))
            basis.append(row)
        return basis

    basis = pair_labels(_disambiguate(B.basis, _prime_counts(l for deg in A.basis[1:] for l in deg)))
    if any(len(set(row)) < len(row) for row in basis):
        basis = pair_labels(_set_apart(A, B))  # primes alone let two pair labels meet
    ranks = [len(b) for b in basis]

    mult: dict[tuple[int, int], np.ndarray] = {}
    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            blk = np.zeros((ranks[d1], ranks[d2], ranks[d1 + d2]), dtype=np.uint8)
            out = outs[d1 + d2]
            for i1, j1, s1 in layouts[d1]:
                for i2, j2, s2 in layouts[d2]:
                    key = (i1 + i2, j1 + j2)
                    if key not in out:
                        continue
                    ma = A.mult_block(i1, i2)
                    mb = B.mult_block(j1, j2)
                    piece = np.einsum("ACO,BDP->ABCDOP", ma, mb).reshape(
                        ma.shape[0] * mb.shape[0],
                        ma.shape[1] * mb.shape[1],
                        ma.shape[2] * mb.shape[2],
                    )
                    so = out[key]
                    blk[
                        s1 : s1 + piece.shape[0],
                        s2 : s2 + piece.shape[1],
                        so : so + piece.shape[2],
                    ] ^= (piece % 2).astype(np.uint8)
            mult[(d1, d2)] = blk

    sq: dict[tuple[int, int], np.ndarray] = {}
    for d in range(n + 1):
        for k in range(1, min(d, n - d) + 1):
            blk = np.zeros((ranks[d], ranks[d + k]), dtype=np.uint8)
            out = outs[d + k]
            for i, j, s in layouts[d]:
                for u in range(0, k + 1):
                    v = k - u
                    if u > i or v > j or (i + u, j + v) not in out:
                        continue
                    piece = np.kron(A.sq_block(u, i), B.sq_block(v, j))
                    so = out[(i + u, j + v)]
                    blk[s : s + piece.shape[0], so : so + piece.shape[1]] ^= (
                        piece % 2
                    ).astype(np.uint8)
            sq[(k, d)] = blk

    return _packed_algebra(
        n,
        basis,
        packed(mult),
        packed(sq),
        unit=bits(np.kron(A.unit, B.unit)),
        fundamental=bits(np.kron(A.fundamental, B.fundamental)),
    )


def reference_cross_total(P: GradedAlgebra, u: TotalClass, v: TotalClass) -> TotalClass:
    A, B = u.algebra, v.algebra
    n = P.top_degree
    out = [np.zeros(P.rank(t), dtype=np.uint8) for t in range(n + 1)]
    for t in range(n + 1):
        for i, j, s in _kunneth_layout(A, B, t):
            piece = np.kron(u.components[i], v.components[j])
            out[t][s : s + piece.size] ^= piece
    return total(P, out)


# ---------------------------------------------------------------------------
# exact equality


def assert_same_algebra(got: GradedAlgebra, want: GradedAlgebra, where: str) -> None:
    assert got.top_degree == want.top_degree, where
    assert got.basis == want.basis, where
    assert sorted(got.mult) == sorted(want.mult), where
    for key, blk in want.mult.items():
        assert got.mult[key].dtype == blk.dtype, (where, "mult", key)
        assert np.array_equal(got.mult[key], blk), (where, "mult", key)
    assert sorted(got.sq_table) == sorted(want.sq_table), where
    for key, blk in want.sq_table.items():
        assert got.sq_table[key].dtype == blk.dtype, (where, "sq", key)
        assert np.array_equal(got.sq_table[key], blk), (where, "sq", key)
    for name in ("unit", "fundamental"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (where, name)
    # every in-range block, stored or zero, read through the array views
    n = want.top_degree
    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            a, b = got.mult_block(d1, d2), want.mult_block(d1, d2)
            assert not a.flags.writeable and np.array_equal(a, b), (where, "mult", d1, d2)
    for d in range(n + 1):
        for k in range(min(d, n - d) + 1):
            a, b = got.sq_block(k, d), want.sq_block(k, d)
            assert not a.flags.writeable and np.array_equal(a, b), (where, "sq", k, d)


def assert_same_cross(P: GradedAlgebra, m, n, where: str) -> None:
    for u, v in ((m.w, n.w), (m.wu, n.wu), (m.w, n.wu)):
        got = cross_total(P, u, v)
        want = reference_cross_total(P, u, v)
        assert got.algebra is want.algebra is P, where
        for d, (a, b) in enumerate(zip(got.components, want.components)):
            assert a.dtype == b.dtype and np.array_equal(a, b), (where, d)


def depth2_product_pairs() -> list[tuple[str, str]]:
    dims = {t: catalog.atom(t).dim for t in ATOM_TOKENS}
    return [
        (a, b)
        for a, b in itertools.combinations_with_replacement(ATOM_TOKENS, 2)
        if dims[a] + dims[b] <= 8
    ]


def test_every_depth2_closure_product_matches_the_reference(atoms):
    pairs = depth2_product_pairs()
    assert len(pairs) == 238
    for a, b in pairs:
        m, n = atoms[a], atoms[b]
        P = kunneth(m.algebra, n.algebra)
        assert_same_algebra(P, reference_kunneth(m.algebra, n.algebra), f"{a} x {b}")
        assert_same_cross(P, m, n, f"{a} x {b}")


@pytest.mark.parametrize(
    "tokens",
    [
        ("RP4", "RP4", "RP4"),
        ("Sigma2", "Sigma2", "Sigma2"),
        ("S1", "S3"),  # degree 2 has rank 0 between nonzero degrees
        ("S0", "RP2"),  # a disconnected factor: rank 2 in degree 0
        ("RP2", "S0"),
    ],
    ids=lambda tokens: " x ".join(tokens),
)
def test_products_match_the_reference(tokens):
    where = " x ".join(tokens)
    factors = [catalog.atom(t) for t in tokens]
    record = factors[0]
    want = record.algebra
    for f in factors[1:]:
        P = kunneth(record.algebra, f.algebra)
        assert_same_algebra(P, reference_kunneth(record.algebra, f.algebra), where)
        assert_same_cross(P, record, f, where)
        want = reference_kunneth(want, f.algebra)
        record = catalog.product(record, f)
    # the chain built by the reference alone gives the same algebra
    assert_same_algebra(record.algebra, want, where)


def test_products_with_a_document_factor_match_the_reference():
    # catalog algebras hold single-bit product entries only; a rebased
    # document's entries are sums of classes, which kunneth crosses bit by bit
    doc, _ = rebased_document(parse_expression("RP2 x RP3"), np.random.default_rng(0))
    m = catalog.load_manifold(doc)
    multi = [x for table in m.algebra.products.values() for x in table if x & (x - 1)]
    assert len(multi) == 11  # stored once per unordered pair of classes, twice on a square block
    for other in (catalog.atom("CP2"), catalog.atom("S1"), m):
        where = f"rebased RP2 x RP3 x {other.name}"
        P = kunneth(m.algebra, other.algebra)
        assert_same_algebra(P, reference_kunneth(m.algebra, other.algebra), where)
        assert_same_cross(P, m, other, where)
