"""The axiom battery at the trust boundary, against references.

``validate_algebra`` checks every axiom on the packed tables it stores,
associativity and Cartan as packed sums.  Here it is held to the einsum
formulation it replaced (``reference_violations``, written out below on
the uint8 array views with the bitmask pairing rank of test_invariants),
violation for violation, on closure members and rebased tori with one
table entry flipped.  A tests-side document writer then sends closure
members and K3 x K3 through ``load_manifold`` and checks that the record
comes back unchanged; a truncated-ring writer sends dense documents, whole
or with one row flipped, through the loader and the battery.  A seeded
sweep of mutated documents holds the loader to refusing with
``FoldcheckError`` only.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import pathlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classes import bits, packed, rows
from test_invariants import _rank_mod2
from foldcheck import algebra
from foldcheck.algebra import GradedAlgebra, _packed_algebra, _stored, validate_algebra
from foldcheck.catalog import k3, load_manifold, product
from foldcheck.errors import FoldcheckError, InvariantViolation, SchemaError
from foldcheck.expressions import parse_expression

# ---------------------------------------------------------------------------
# the einsum battery, kept as the reference


def reference_violations(A: GradedAlgebra) -> tuple[str, ...]:
    """Every axiom violation, in the order and wording of the package."""
    n = A.top_degree
    bad: list[str] = []

    for d in range(n + 1):
        if A.rank(d) == 0:
            continue
        left = np.einsum("u,ujo->jo", A.unit, A.mult_block(0, d)) % 2
        if not np.array_equal(left, np.eye(A.rank(d), dtype=np.uint8)):
            bad.append(f"unit: 1*x != x in degree {d}")

    for d1 in range(n + 1):
        for d2 in range(d1, n + 1 - d1):
            blk = A.mult_block(d1, d2) % 2
            flipped = A.mult_block(d2, d1).transpose(1, 0, 2) % 2
            if not np.array_equal(blk, flipped):
                bad.append(f"commutativity: degrees ({d1}, {d2})")

    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            for d3 in range(n + 1 - d1 - d2):
                if 0 in (A.rank(d1), A.rank(d2), A.rank(d3)):
                    continue
                lhs = (
                    np.einsum("ijp,pko->ijko", A.mult_block(d1, d2), A.mult_block(d1 + d2, d3)) % 2
                )
                rhs = (
                    np.einsum("jkq,iqo->ijko", A.mult_block(d2, d3), A.mult_block(d1, d2 + d3)) % 2
                )
                if not np.array_equal(lhs, rhs):
                    bad.append(f"associativity: degrees ({d1}, {d2}, {d3})")

    for d in range(n + 1):
        if A.rank(d) == 0:
            continue
        if not np.array_equal(A.sq_block(0, d), np.eye(A.rank(d), dtype=np.uint8)):
            bad.append(f"sq0-identity: Sq^0 != id in degree {d}")
        if 2 * d <= n:
            squares = np.einsum("iio->io", A.mult_block(d, d))
            if not np.array_equal(A.sq_block(d, d) % 2, squares % 2):
                for i, label in enumerate(A.labels(d)):
                    if not np.array_equal(A.sq_block(d, d)[i] % 2, squares[i] % 2):
                        bad.append(
                            f"sq-top-squaring: Sq^k x = x*x at k = deg x fails for {label}"
                        )

    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            if 0 in (A.rank(d1), A.rank(d2)):
                continue
            prod = A.mult_block(d1, d2)
            for k in range(1, n - d1 - d2 + 1):
                if k > d1 + d2:
                    break
                lhs = np.einsum("ijp,po->ijo", prod, A.sq_block(k, d1 + d2)) % 2
                rhs = np.zeros_like(lhs)
                for u in range(0, k + 1):
                    v = k - u
                    if u > d1 or v > d2:
                        continue
                    rhs ^= (
                        np.einsum(
                            "ia,jb,abo->ijo",
                            A.sq_block(u, d1),
                            A.sq_block(v, d2),
                            A.mult_block(d1 + u, d2 + v),
                        )
                        % 2
                    ).astype(np.uint8)
                if not np.array_equal(lhs, rhs % 2):
                    bad.append(f"cartan: Sq^{k} on degrees ({d1}, {d2})")

    for d in range(n + 1):
        r1, r2 = A.rank(d), A.rank(n - d)
        if r1 != r2:
            bad.append(f"pairing: ranks differ in degrees {d} and {n - d} ({r1} vs {r2})")
            continue
        if r1 == 0:
            continue
        pairing = np.einsum("ijo,o->ij", A.mult_block(d, n - d), A.fundamental) % 2
        rows = [int("".join(str(int(b)) for b in row), 2) for row in pairing]
        if _rank_mod2(rows) != r1:
            bad.append(f"pairing: degenerate in degree {d}")

    return tuple(bad)


def _assert_matches_reference(A: GradedAlgebra) -> tuple[str, ...]:
    """The violations of ``A``, which must be the reference's."""
    want = reference_violations(A)
    assert validate_algebra(A).violations == want
    return want


# ---------------------------------------------------------------------------
# one flipped entry

# S1 x S3 and S3 x S3 have degrees of rank 0 between nonzero ones (products
# landing there are empty tables); K3 x RP2 is the largest table set here;
# RP4 # RP4 # RP4 has three generator classes in degree 1; CP3 x RP3 has
# classes of degree 3 that no generator class reaches.
ORACLE_MEMBERS = [
    "S1 x S3", "S3 x S3", "K3", "RP4", "CP3", "RP2 x RP3", "N3 x S2",
    "RP4 # CP2", "Sigma2 x Sigma1", "K3 x RP2", "CP2 x CP2", "RP4 # RP4 # RP4",
    "CP3 x RP3",
]


@pytest.fixture(scope="module")
def oracle_algebras() -> dict[str, GradedAlgebra]:
    return {name: parse_expression(name).algebra for name in ORACLE_MEMBERS}


def test_unflipped_members_are_valid(oracle_algebras):
    for name, A in oracle_algebras.items():
        assert validate_algebra(A).violations == reference_violations(A) == (), name


def _flipped(A: GradedAlgebra, table: str, pick: int, entry: int) -> GradedAlgebra:
    # every in-range block of nonzero size that the store can hold can be hit,
    # stored or all-zero: one product block per unordered degree pair, so only
    # a square block can be flipped out of commutativity
    n = A.top_degree
    mult, sq = dict(A.mult), dict(A.sq_table)
    if table == "mult":
        tables, read = mult, A.mult_block
        keys = [(d1, d2) for d1 in range(n + 1) for d2 in range(d1, n + 1 - d1)]
    else:
        tables, read = sq, A.sq_block
        keys = [(k, d) for d in range(n + 1) for k in range(min(d, n - d) + 1)]
    keys = sorted(key for key in keys if read(*key).size)
    key = keys[pick % len(keys)]
    blk = tables[key] = read(*key).copy()
    blk.flat[entry % blk.size] ^= 1
    return _packed_algebra(
        A.top_degree, A.basis, packed(mult), packed(sq), unit=A.unit_bits, fundamental=A.fundamental_bits
    )


def _assert_store_matches_views(A: GradedAlgebra) -> None:
    # every in-range table of the packed store, zero when absent, is its array
    # view; off the diagonal, the view of the other order is its transpose
    n = A.top_degree
    for d1 in range(n + 1):
        for d2 in range(d1, n + 1 - d1):
            want = rows(A.mult_block(d1, d2))
            assert list(A.products.get((d1, d2), [0] * len(want))) == want, ("mult", d1, d2)
            if d1 < d2:
                assert np.array_equal(A.mult_block(d2, d1), A.mult_block(d1, d2).transpose(1, 0, 2))
    for d in range(n + 1):
        for k in range(min(d, n - d) + 1):
            want = rows(A.sq_block(k, d))
            assert list(A.squares.get((k, d), [0] * len(want))) == want, ("sq", k, d)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ORACLE_MEMBERS),
    st.sampled_from(["mult", "sq"]),
    st.integers(0, 10**6),
    st.integers(0, 10**9),
)
# commutative: a Sq^1 flip whose Cartan failures on (1, 2), (2, 3) repeat on (2, 1), (3, 2)
@example(name="K3 x RP2", table="sq", pick=8, entry=0)
# not commutative: a flip off the diagonal of the square block (2, 2), failing
# associativity on (1, 1, 2) but not (2, 1, 1), and on (2, 1, 1) but not
# (1, 1, 2); the kernel reads the block's columns as columns
@example(name="RP4 # CP2", table="mult", pick=8, entry=1)
@example(name="N3 x S2", table="mult", pick=8, entry=1)
# a zeroed unit table (0, 4): it stays zero in the store, so the degree-0 pairing degenerates
@example(name="S1 x S3", table="mult", pick=3, entry=0)
# Sq^0 of the unit flipped to zero: the unit checks pass, yet Cartan fails on (0, 1), (1, 0), ...
@example(name="RP4", table="sq", pick=0, entry=0)
# flips in degree 3 of CP3 x RP3, which no generator class reaches: the
# reduced scans find (1, 2) and (1, 2, 3), and only the rescans of every pair
# and triple name the Cartan failures on (3, 3), (3, 4), ... (Sq^1 on degree 3)
# and the associativity failures on (1, 3, 3), (3, 3, 3), ... (a^3 * a^3)
@example(name="CP3 x RP3", table="sq", pick=12, entry=0)
@example(name="CP3 x RP3", table="mult", pick=24, entry=0)
def test_flipped_entry_violations_match_reference(oracle_algebras, name, table, pick, entry):
    A = _flipped(oracle_algebras[name], table, pick, entry)
    _assert_store_matches_views(A)
    _assert_matches_reference(A)


def _triples(A: GradedAlgebra) -> list[tuple[int, int, int]]:
    degrees, n = A.degrees, A.top_degree
    return [
        (d1, d2, d3)
        for d1 in degrees
        for d2 in degrees
        for d3 in degrees
        if d1 + d2 + d3 <= n
    ]


def _kernel_calls(monkeypatch, name: str, A: GradedAlgebra) -> list[tuple[int, ...]]:
    """The degrees and the class bits after them of each call of a battery kernel, in battery order.

    ``_associative_packed`` gives ``(d1, d2, d3, middles)`` and
    ``_cartan_packed`` gives ``(d1, d2, firsts)``.
    """
    calls: list[tuple[int, ...]] = []
    real = getattr(algebra, name)
    width = 4 if name == "_associative_packed" else 3

    def counting(*args):
        calls.append(args[-width:])
        return real(*args)

    monkeypatch.setattr(algebra, name, counting)
    validate_algebra(A)
    return calls


def _associative_calls(monkeypatch, A: GradedAlgebra) -> list[tuple[int, int, int, int]]:
    return _kernel_calls(monkeypatch, "_associative_packed", A)


def _cartan_calls(monkeypatch, A: GradedAlgebra) -> list[tuple[int, int, int]]:
    return _kernel_calls(monkeypatch, "_cartan_packed", A)


def _positive(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    return [t for t in triples if 0 not in t]


def _every(A: GradedAlgebra, d: int) -> int:
    return (1 << A.rank(d)) - 1


def _classes(A: GradedAlgebra, d: int, bits: int) -> set[str]:
    return {label for i, label in enumerate(A.labels(d)) if bits >> i & 1}


@pytest.mark.parametrize(
    "name,generators,count",
    [("RP8", {1: {"a"}}, 12), ("CP3 x RP3", {1: {"a"}, 2: {"h"}}, 28)],
)
def test_commutative_battery_checks_one_triple_of_each_mirror_pair(monkeypatch, name, generators, count):
    # of 165 and 220 triples, the unit checks settle those with a degree-0
    # factor, and of the rest those with d1 <= d3 whose middle degree holds a
    # generator class are computed, on the generator classes alone (a^2 in
    # degree 2 of CP3 x RP3 is a product)
    A = parse_expression(name).algebra
    classes = algebra._generator_classes(A)
    assert {d: _classes(A, d, bits) for d, bits in classes.items()} == generators
    calls = _associative_calls(monkeypatch, A)
    focus = [t for t in _positive(_triples(A)) if t[1] in classes and t[0] <= t[2]]
    assert calls == [(*t, classes[t[1]]) for t in focus]
    assert len(calls) == count


@pytest.mark.parametrize(
    "name,generators",
    [
        ("RP8", [1]),
        ("CP3 x RP3", [1, 2]),
        ("K3", [2]),
        ("S3 x S3", [3]),
        ("S1 x S1 x S1 x S1 x S1 x S1 x S1", [1]),
        ("K3 x K3", [2]),
        ("RP4 # CP2", [1, 2]),
        ("S0 x CP2", [2]),
    ],
)
def test_generator_classes_sit_in_the_generator_degrees(name, generators):
    # the positive degrees that products of classes of positive degree do not span
    A = parse_expression(name).algebra
    assert list(algebra._generator_classes(A)) == generators


def test_noncommutative_battery_checks_every_triple(monkeypatch, oracle_algebras):
    # the only blocks the store can hold out of commutativity are square
    A = _flipped(oracle_algebras["RP4 # CP2"], "mult", 8, 1)
    assert "commutativity: degrees (2, 2)" in validate_algebra(A).violations
    calls = _associative_calls(monkeypatch, A)
    assert calls == [(*t, _every(A, t[1])) for t in _positive(_triples(A))]


@pytest.mark.parametrize(
    "table,pick,violation",
    [
        # the zeroed unit table (0, 4) of the flipped-entry examples
        ("mult", 3, "unit: 1*x != x in degree 4"),
        # Sq^0 of the unit flipped to zero
        ("sq", 0, "sq0-identity: Sq^0 != id in degree 0"),
    ],
)
def test_battery_checks_degree_0_triples_unless_the_unit_checks_pass(
    monkeypatch, oracle_algebras, table, pick, violation
):
    A = _flipped(oracle_algebras["S1 x S3"], table, pick, 0)
    violations = validate_algebra(A).violations
    assert violation in violations
    commutative = not any(v.startswith("commutativity") for v in violations)
    calls = [call[:3] for call in _associative_calls(monkeypatch, A)]
    assert calls == [t for t in _triples(A) if t[0] <= t[2] or not commutative]
    assert any(0 in t for t in calls)


def _two_spheres() -> GradedAlgebra:
    """S2 + S2, two components: degree 0 has rank 2 and the unit is (1, 1).

    The unit is no basis class, which a document cannot say, so the tables
    are given packed: ``1a * 1a = 1a`` (bit 0) and ``1b * 1b = 1b`` (bit 1),
    and so on the spheres.
    """
    eye = bytes((1, 0, 0, 2))
    A = _packed_algebra(2, [["1a", "1b"], [], ["sa", "sb"]], {(0, 0): eye, (0, 2): eye}, unit=3, fundamental=3)
    assert validate_algebra(A).ok
    return A


@pytest.mark.parametrize(
    "table,pick,entry",
    # every entry of the (0, 0) and (0, 2) products and of Sq^0 on degree 0
    [("mult", pick, entry) for pick in range(2) for entry in range(8)]
    + [("sq", 0, entry) for entry in range(4)],
)
def test_rank_two_degree_0_flips_match_reference(table, pick, entry):
    A = _flipped(_two_spheres(), table, pick, entry)
    assert _assert_matches_reference(A)


def test_unit_in_a_rebased_degree_0_basis_matches_reference():
    # S2 + S2 in the degree-0 basis 1 = 1a + 1b, 1b: the unit is (1, 0), so
    # 1*x reads row 0 of table (0, 2), and x*1 its column 0
    one, b = 1, 2  # the packed rows (1, 0) and (0, 1)
    A = _packed_algebra(
        2,
        [["1", "1b"], [], ["sa", "sb"]],
        {(0, 0): bytes((one, b, b, b)), (0, 2): bytes((one, b, 0, b))},
        unit=one,
        fundamental=3,
    )
    assert validate_algebra(A).ok
    flips = [("mult", pick, entry) for pick in range(2) for entry in range(8)]
    for table, pick, entry in flips + [("sq", 0, entry) for entry in range(4)]:
        _assert_matches_reference(_flipped(A, table, pick, entry))


@functools.cache
def _rebased_torus(factors: int) -> GradedAlgebra:
    """The algebra of the rebased document of ``S1 x ... x S1``, loaded."""
    m = parse_expression(" x ".join(["S1"] * factors))
    doc, _ = rebased_document(m, np.random.default_rng(0))
    return load_manifold(json.loads(json.dumps(doc))).algebra


@pytest.mark.parametrize("pick", range(0, 40, 3))
def test_flipped_product_on_a_rebased_document_matches_reference(pick):
    # a non-monomial basis makes the tables dense
    _assert_matches_reference(_flipped(_rebased_torus(5), "mult", pick, 7 * pick))


@pytest.mark.parametrize(
    "table,pick",
    # failing unit, commutativity, Sq^0, squaring and Cartan, Cartan
    [("mult", 5), ("mult", 14), ("sq", 4), ("sq", 8), ("sq", 11)],
)
def test_flipped_entry_on_a_rebased_seven_torus_matches_reference(table, pick):
    # T^7 has ranks up to 35, the largest dense blocks the reference affords
    assert _assert_matches_reference(_flipped(_rebased_torus(7), table, pick, 7 * pick))


# ---------------------------------------------------------------------------
# documents written from records, loaded back


def _p1_field(m):
    return m.p1.value.value if m.p1.number is None else {"int": m.p1.number}


def manifold_document(m) -> dict:
    """A JSON-ready document of a connected record, with sparse tables.

    Products are listed once per unordered pair of positive-degree basis
    classes and squares once per class, nonzero entries only; the loader
    fills in the other order of a square block, the unit blocks and Sq^0.  ``w`` is left out, so the
    loader derives it from the Wu classes.
    """
    A = m.algebra
    n = A.top_degree
    mult = []
    for d1 in range(1, n + 1):
        for d2 in range(d1, n + 1 - d1):
            blk = A.mult_block(d1, d2)
            for i, j in zip(*np.nonzero(blk.any(axis=2))):
                if d1 < d2 or i <= j:
                    mult.append([d1, int(i), d2, int(j), blk[i, j].tolist()])
    sq = []
    for (k, d), blk in sorted(A.sq_table.items()):
        if k == 0:
            continue
        for i in np.nonzero(blk.any(axis=1))[0]:
            sq.append([k, d, int(i), blk[i].tolist()])
    return {
        "name": m.name,
        "dim": m.dim,
        "orientable": m.orientable,
        "euler": m.euler,
        "signature": m.signature,
        "basis": [list(labels) for labels in A.basis],
        "mult": mult,
        "sq": sq,
        "p1": _p1_field(m),
        "stably_parallelizable": m.stably_parallelizable,
        "torsion_free": m.torsion_free,
    }


def _assert_round_trip(m) -> None:
    loaded = load_manifold(json.loads(json.dumps(manifold_document(m))))
    assert loaded.algebra.ranks == m.algebra.ranks, m.name
    A, B = loaded.algebra, m.algebra
    assert sorted(A.mult) == sorted(B.mult) and sorted(A.sq_table) == sorted(B.sq_table), m.name
    for key in B.mult:
        assert np.array_equal(A.mult_block(*key), B.mult_block(*key)), (m.name, key)
    for key in B.sq_table:
        assert np.array_equal(A.sq_block(*key), B.sq_block(*key)), (m.name, key)
    assert loaded.euler == m.euler, m.name
    for mine, theirs in ((loaded.w, m.w), (loaded.wu, m.wu)):
        assert [c.tolist() for c in mine.components] == [
            c.tolist() for c in theirs.components
        ], m.name


def test_documents_round_trip_over_connected_closure(connected_closure):
    for m in connected_closure:
        _assert_round_trip(m)


def test_sphere_document_battery_reads_the_blocks_of_its_degrees(monkeypatch):
    # S200 x S200 written by hand: classes in degrees 0, 200 and 400, a b = t
    n = 400
    basis = [[] for _ in range(n + 1)]
    basis[0], basis[200], basis[n] = ["1"], ["a", "b"], ["t"]
    doc = {
        "name": "S200 x S200",
        "dim": n,
        "orientable": True,
        "euler": 4,
        "signature": 0,
        "basis": basis,
        "mult": [[200, 0, 200, 1, [1]]],
        "sq": [],
        "p1": "zero",
    }
    calls = []
    split = algebra._split

    def counting(memo, d1, d2, *args):
        calls.append((d1, d2))
        return split(memo, d1, d2, *args)

    monkeypatch.setattr(algebra, "_split", counting)
    m = load_manifold(doc)
    # the unit checks settle every triple and pair with a degree-0 factor, no
    # positive triple fits below n, and no k fits the pair (200, 200): the
    # kernels read no table, where one per pair below n would be 80,000
    assert calls == []
    assert m.algebra.degrees == (0, 200, n)


def test_k3_x_k3_document_round_trips():
    # 2011 basis classes, middle rank 486: the largest algebra in the suite
    m = product(k3(), k3())
    _assert_round_trip(m)


def test_torsion_flag_is_refused_where_sq1_is_nonzero():
    # S2 x RP3 is orientable, which the old non-orientable clause let through;
    # Sq^1 a = a^2 certifies 2-torsion in H^2(M; Z), Sq^1(s a) = s a^2 in H^4
    doc = {**manifold_document(parse_expression("S2 x RP3")), "torsion_free": True}
    with pytest.raises(InvariantViolation, match="2-torsion") as info:
        load_manifold(doc)
    assert info.value.name == "torsion-flag"


def test_torsion_flag_is_refused_exactly_where_sq1_is_stored(connected_closure):
    # each connected depth-2 record's document with the flag set: a stored
    # Sq^1 table holds a nonzero entry, which certifies 2-torsion
    refused = 0
    for m in connected_closure:
        doc = {**manifold_document(m), "torsion_free": True}
        if any(k == 1 for k, _ in m.algebra.squares):
            with pytest.raises(InvariantViolation) as info:
                load_manifold(doc)
            assert info.value.name == "torsion-flag", m.name
            refused += 1
        else:
            assert load_manifold(doc).torsion_free, m.name
    assert 0 < refused < len(connected_closure)


# ---------------------------------------------------------------------------
# documents in a non-monomial basis
#
# Catalog documents list their tables in a monomial basis, where the
# product of two basis classes is one basis class or zero.  Rewriting a
# record through a random invertible change of basis in each middle degree
# makes products and squares land on sums of basis classes.


def _gf2_inverse(P: np.ndarray) -> np.ndarray | None:
    """The inverse of a square 0/1 matrix over GF(2), or None if it is singular."""
    r = len(P)
    aug = np.concatenate([P, np.eye(r, dtype=np.uint8)], axis=1)
    for c in range(r):
        pivots = np.nonzero(aug[c:, c])[0]
        if not len(pivots):
            return None
        aug[[c, c + pivots[0]]] = aug[[c + pivots[0], c]]
        for row in np.nonzero(aug[:, c])[0]:
            if row != c:
                aug[row] ^= aug[c]
    return aug[:, r:]


def rebased_document(m, rng) -> tuple[dict, list[np.ndarray]]:
    """``manifold_document(m)`` in the basis ``e'_i = sum_j P[i, j] e_j``.

    P is random and invertible in every middle degree and the identity in
    degrees 0 and dim.  A class with coordinates x in the old basis has
    coordinates ``x P^-1`` in the new one; the inverses are returned by degree.
    """
    A = m.algebra
    n = A.top_degree
    change, inverse = [], []
    for d in range(n + 1):
        r = A.rank(d)
        P = P_inv = np.eye(r, dtype=np.uint8)
        if 0 < d < n:
            P_inv = None
            while P_inv is None:
                P = rng.integers(0, 2, size=(r, r), dtype=np.uint8)
                P_inv = _gf2_inverse(P)
        change.append(P.astype(np.int64))
        inverse.append(P_inv.astype(np.int64))
    mult = []
    for d1 in range(1, n + 1):
        for d2 in range(d1, n + 1 - d1):
            old = A.mult_block(d1, d2).astype(np.int64)
            blk = np.einsum(
                "ij,kl,jlo,op->ikp", change[d1], change[d2], old, inverse[d1 + d2], optimize=True
            ) % 2
            for i, j in zip(*np.nonzero(blk.any(axis=2))):
                if d1 < d2 or i <= j:
                    mult.append([d1, int(i), d2, int(j), blk[i, j].tolist()])
    sq = []
    for k, d in sorted(A.sq_table):
        if k == 0:
            continue
        blk = change[d] @ A.sq_block(k, d).astype(np.int64) @ inverse[d + k] % 2
        for i in np.nonzero(blk.any(axis=1))[0]:
            sq.append([k, d, int(i), blk[i].tolist()])
    doc = manifold_document(m)
    doc.update(mult=mult, sq=sq)
    return doc, inverse


def _rebased(total, inverse) -> list[list[int]]:
    return [(c.astype(np.int64) @ inverse[d] % 2).tolist() for d, c in enumerate(total.components)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("expr", ["RP2 x RP3", "S1 x S1 x S1 x S1 x S1"])
def test_document_in_a_non_monomial_basis(expr, seed):
    m = parse_expression(expr)
    doc, inverse = rebased_document(m, np.random.default_rng(seed))
    assert any(sum(row) > 1 for *_, row in doc["mult"])  # the basis is not monomial
    loaded = load_manifold(json.loads(json.dumps(doc)))
    assert loaded.algebra.ranks == m.algebra.ranks
    assert loaded.euler == m.euler
    for mine, theirs in ((loaded.w, m.w), (loaded.wu, m.wu)):
        assert [c.tolist() for c in mine.components] == _rebased(theirs, inverse), expr
    # the rewritten w is accepted as a stored w
    load_manifold({**doc, "w": _rebased(m.w, inverse)})


@pytest.mark.parametrize("expr", ["RP2 x RP3", "S1 x S1 x S1 x S1 x S1"])
def test_non_monomial_document_with_a_flipped_square_is_refused(expr):
    # flip the first coordinate of x_0 * x_0 in degree 1
    m = parse_expression(expr)
    doc, _ = rebased_document(m, np.random.default_rng(0))
    entry = next((e for e in doc["mult"] if e[:4] == [1, 0, 1, 0]), None)
    if entry is None:
        entry = [1, 0, 1, 0, [0] * m.algebra.rank(2)]
        doc["mult"].append(entry)
    entry[4][0] ^= 1
    with pytest.raises(InvariantViolation, match="sq-top-squaring") as info:
        load_manifold(doc)
    assert info.value.name == "algebra-axioms"


# ---------------------------------------------------------------------------
# truncated-ring documents
#
# In a truncated polynomial ring every product of two monomials is a
# monomial or zero and nearly every block holds a nonzero entry, so the
# document lists whole dense tables; rebased, every row is a sum.


def ring_document(gens: list[tuple[str, int, int]]) -> dict:
    """``F2[x_1, ...]/(x_i^(h_i + 1))`` as a document, each generator ``(symbol, 1 or 2, h_i)``.

    The basis of a degree is its monomials, exponents ascending.  Every
    generator has ``Sq(x) = x + x^2``, so ``Sq^k`` of a monomial sums the
    monomials ``x^(e + s)`` over ``deg s = k`` with ``prod C(e_i, s_i)`` odd
    (Cartan), and ``w = prod (1 + x_i)^(h_i + 1)`` is listed for the loader
    to check against its Wu classes.
    """

    def degree(e) -> int:
        return sum(deg * x for (_, deg, _), x in zip(gens, e))

    monomials = sorted(
        itertools.product(*[range(h + 1) for *_, h in gens]), key=lambda e: (degree(e), e)
    )
    dim = degree(monomials[-1])
    basis: list[list[str]] = [[] for _ in range(dim + 1)]
    index = {}
    for e in monomials:
        index[e] = len(basis[degree(e)])
        label = "".join(s if x == 1 else f"{s}^{x}" for (s, _, _), x in zip(gens, e) if x)
        basis[degree(e)].append(label or "1")

    def row(d: int, terms) -> list[int]:
        out = [0] * len(basis[d])
        for e in terms:
            if all(x <= h for x, (*_, h) in zip(e, gens)):
                out[index[e]] ^= 1
        return out

    mult = []
    for e1, e2 in itertools.combinations_with_replacement(monomials, 2):
        d1, d2 = degree(e1), degree(e2)
        if d1 and d2 and d1 + d2 <= dim:
            product_row = row(d1 + d2, [tuple(map(operator.add, e1, e2))])
            if any(product_row):
                mult.append([d1, index[e1], d2, index[e2], product_row])
    sq = []
    for e in monomials:
        d = degree(e)
        terms: dict[int, list] = {}
        for s in itertools.product(*[range(x + 1) for x in e]):
            if math.prod(math.comb(x, y) for x, y in zip(e, s)) % 2:
                terms.setdefault(degree(s), []).append(tuple(map(operator.add, e, s)))
        for k, summands in sorted(terms.items()):
            if 0 < k and d + k <= dim and any(square := row(d + k, summands)):
                sq.append([k, d, index[e], square])
    w = [[0] * len(labels) for labels in basis]
    for e in monomials:
        if all(math.comb(h + 1, x) % 2 for x, (*_, h) in zip(e, gens)):
            w[degree(e)][index[e]] = 1
    return {
        "name": "F2[" + ",".join(s for s, _, _ in gens) + "]",
        "dim": dim,
        "orientable": all(h % 2 for _, deg, h in gens if deg == 1),
        "euler": sum((-1) ** d * len(labels) for d, labels in enumerate(basis)),
        "basis": basis,
        "mult": mult,
        "sq": sq,
        "w": w,
        "p1": "unknown",
    }


# the doc-ingest rings F2[a,b,c]/(a^6,b^4,c^6) and F2[a,b,c]/(a^7,b^3,c^6), dimension 16
RING_A6B4C6 = [("a", 1, 5), ("b", 2, 3), ("c", 1, 5)]
RING_A7B3C6 = [("a", 1, 6), ("b", 2, 2), ("c", 1, 5)]

# dimensions 7 and 9: neither needs a signature
RINGS = {
    "F2[a,b]/(a^4,b^3)": [("a", 1, 3), ("b", 2, 2)],
    "F2[a,b,c]/(a^4,b^3,c^3)": [("a", 1, 3), ("b", 2, 2), ("c", 1, 2)],
}


@functools.cache
def _ring(name: str, rebased: bool) -> str:
    """The ring document as JSON text, in the monomial basis or a random one."""
    doc = ring_document(RINGS[name])
    if rebased:
        doc, _ = rebased_document(load_manifold(doc), np.random.default_rng(3))
    return json.dumps(doc)


def _document_algebra(doc: dict) -> GradedAlgebra:
    """A document's tables packed apart from the loader, unvalidated.

    Each mult entry is written in the order with the lower degree first, and
    on a square block in both orders.
    """
    ranks = [len(labels) for labels in doc["basis"]]
    mult: dict = {}
    sq: dict = {}
    for d1, i, d2, j, row in doc["mult"]:
        for (a, x), (b, y) in (((d1, i), (d2, j)), ((d2, j), (d1, i))):
            if a <= b:
                mult.setdefault((a, b), [0] * (ranks[a] * ranks[b]))[x * ranks[b] + y] = bits(row)
    for k, d, i, row in doc["sq"]:
        sq.setdefault((k, d), [0] * ranks[d])[i] = bits(row)
    return _packed_algebra(doc["dim"], doc["basis"], _stored(mult), _stored(sq))


@pytest.mark.parametrize("rebased", [False, True], ids=["monomial", "rebased"])
@pytest.mark.parametrize("name", RINGS)
def test_ring_document_stores_the_tables_of_its_entries(name, rebased):
    doc = json.loads(_ring(name, rebased))
    if rebased:
        assert any(sum(row) > 1 for *_, row in doc["mult"])  # the basis is not monomial
    A = load_manifold(doc).algebra
    B = _document_algebra(doc)
    # equal values of equal types: bytes tables stay bytes, wide tables tuples
    assert dict(A.products) == dict(B.products) and dict(A.squares) == dict(B.squares)
    assert (A.unit_bits, A.fundamental_bits) == (B.unit_bits, B.fundamental_bits)


def test_battery_builds_no_array_view_of_a_loaded_document():
    # the battery reads the packed tables; the views are for outside readers
    A = load_manifold(json.loads(_ring("F2[a,b,c]/(a^4,b^3,c^3)", True))).algebra
    assert "_views" not in vars(A)
    assert A.mult_block(1, 1).any() and "_views" in vars(A)


def _set(doc: dict, field: str, pos: int, row) -> None:
    doc[field][pos][-1] = row


# The intake caches each row it has packed, keyed by its bytes, after the
# row's checks; each case below is one fault placed so that the cache would
# hide it if a check ran only on a miss.  In F2[a,b]/(a^4,b^3), with degree
# 2 listed [b, a^2]: mult entries 1 (a * b) and 4 (a * b^2) both hold
# [1, 0], entries 0 and 2 (a * a, a * a^2) both hold [0, 1], and sq entries
# 1 and 3 (Sq^2 b, Sq^2 ab) both hold [1, 0].  mult has 20 entries, sq 8.
INTAKE_REFUSALS = {
    "true-after-an-equal-row": (
        lambda doc: _set(doc, "mult", 4, [True, 0]),
        "mult entry 4: coordinates must be 0 or 1",
    ),
    "float-after-an-equal-row": (
        lambda doc: _set(doc, "mult", 4, [1.0, 0]),
        "mult entry 4: coordinates must be 0 or 1",
    ),
    "coordinate-2": (lambda doc: _set(doc, "mult", 4, [2, 0]), "mult entry 4: coordinates must be 0 or 1"),
    "coordinate-minus-1": (
        lambda doc: _set(doc, "mult", 4, [-1, 0]),
        "mult entry 4: coordinates must be 0 or 1",
    ),
    "coordinate-256": (
        lambda doc: _set(doc, "mult", 4, [256, 0]),
        "mult entry 4: coordinates must be 0 or 1",
    ),
    "long-row-after-a-cached-row": (
        lambda doc: _set(doc, "mult", 3, [0, 1, 0]),
        "mult entry 3: expected a 0/1 vector of length 2",
    ),
    "short-row-after-a-cached-row": (
        lambda doc: _set(doc, "mult", 3, [0]),
        "mult entry 3: expected a 0/1 vector of length 2",
    ),
    "mirror-given-first": (
        # b * a as a^3, ahead of a * b = ab
        lambda doc: doc["mult"].insert(0, [2, 0, 1, 0, [0, 1]]),
        "mult entry 2: conflicts with an earlier entry",
    ),
    "mirror-conflict": (
        lambda doc: doc["mult"].append([2, 0, 1, 0, [0, 1]]),
        "mult entry 20: conflicts with an earlier entry",
    ),
    "sq-true-after-an-equal-row": (
        lambda doc: _set(doc, "sq", 3, [True, 0]),
        "sq entry 3: coordinates must be 0 or 1",
    ),
    "sq-beyond-the-top-holding-false": (
        # Sq^3 on degree 5 lands in degree 8 > 7: the row must be zero integers
        lambda doc: doc["sq"].append([3, 5, 0, [0, False]]),
        "sq entry 8: coordinates must be 0 or 1",
    ),
    "w-true-after-an-equal-row": (
        lambda doc: doc["w"].__setitem__(4, [True, 0]),  # w_2 = b is [1, 0]
        "w[4]: coordinates must be 0 or 1",
    ),
}


@pytest.mark.parametrize("case", INTAKE_REFUSALS)
def test_intake_refuses_each_fault_under_its_position(case):
    doc = ring_document(RINGS["F2[a,b]/(a^4,b^3)"])
    assert (len(doc["mult"]), len(doc["sq"])) == (20, 8)
    assert doc["mult"][1][4] == doc["mult"][4][4] == [1, 0] == doc["sq"][1][3] == doc["sq"][3][3]
    assert doc["mult"][0][4] == doc["mult"][2][4] == [0, 1] and doc["w"][2] == [1, 0]
    edit, message = INTAKE_REFUSALS[case]
    edit(doc)
    with pytest.raises(SchemaError) as info:
        load_manifold(json.loads(json.dumps(doc)))
    assert str(info.value) == message


# wrong types and out-of-range values for any field, entry or coordinate
_WRONG_VALUES = (None, True, False, 1.0, -1, 2, 10**9, "x", [], [[]], [0, 1, 1, 0, 1], {}, {"int": 1})


def _paths(node, path=()):
    """The path of every field, entry and coordinate below a JSON node."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutants(doc: dict, rng, count: int):
    """The document with each degree's first label repeated, then ``count`` seeded edits.

    An edit replaces one node with a wrong value, or drops an item of a list
    or repeats one of its items, leaving the list one too short or too long.
    """
    for d, labels in enumerate(doc["basis"]):
        if labels:
            mutant = json.loads(json.dumps(doc))
            mutant["basis"][d].append(labels[0])
            yield mutant
    paths = list(_paths(doc))
    for _ in range(count):
        mutant = json.loads(json.dumps(doc))
        *path, key = rng.choice(paths)
        parent = functools.reduce(operator.getitem, path, mutant)
        node, action = parent[key], rng.choice(("replace", "shorten", "lengthen"))
        if action == "replace" or not isinstance(node, list) or not node:
            parent[key] = rng.choice(_WRONG_VALUES)
        elif action == "shorten":
            del node[rng.randrange(len(node))]
        else:
            node.insert(rng.randrange(len(node) + 1), rng.choice(node))
        yield mutant


@pytest.mark.parametrize("name", ["rp2", "F2[a,b]/(a^4,b^3)"])
def test_document_api_raises_only_foldcheck_errors(name):
    # every mutant loads or is refused with a FoldcheckError, never with
    # another exception escaping the loader
    if name == "rp2":
        doc = json.loads((pathlib.Path(__file__).parent / "data" / "rp2.json").read_text())
    else:
        doc = ring_document(RINGS[name])
    refused = 0
    for mutant in _mutants(doc, random.Random(name), 400):
        try:
            load_manifold(mutant)
        except FoldcheckError:
            refused += 1
        except Exception as exc:
            pytest.fail(f"{exc!r} escaped the loader on {json.dumps(mutant)}")
    assert refused > 300


@pytest.mark.parametrize(
    "table,pick", [("mult", p) for p in range(0, 90, 11)] + [("sq", p) for p in range(0, 40, 5)]
)
@pytest.mark.parametrize("rebased", [False, True], ids=["monomial", "rebased"])
@pytest.mark.parametrize("name", RINGS)
def test_flipped_ring_document_matches_reference(name, rebased, table, pick):
    # a flipped document row: a product row stands for both orders, so the
    # flip keeps commutativity and reaches the Cartan blocks of both orders
    doc = json.loads(_ring(name, rebased))
    row = doc[table][pick % len(doc[table])][-1]
    row[pick % len(row)] ^= 1
    got = _assert_matches_reference(_document_algebra(doc))
    assert got
    with pytest.raises(InvariantViolation) as info:
        load_manifold(doc)
    assert str(info.value) == "algebra-axioms: " + "; ".join(got)


@pytest.mark.parametrize("table,pick", [("mult", p) for p in range(0, 40, 9)] + [("sq", 3), ("sq", 9)])
def test_flipped_ring_block_matches_reference(table, pick):
    # one block entry flipped: on a square block off its diagonal, not
    # commutative, so every Cartan block runs
    A = load_manifold(json.loads(_ring("F2[a,b,c]/(a^4,b^3,c^3)", True))).algebra
    _assert_matches_reference(_flipped(A, table, pick, 5 * pick + 1))


def _ring_pairs(A: GradedAlgebra) -> list[tuple[int, int]]:
    """The degree pairs with 0 < d1 <= d2 whose product lands in the algebra."""
    return [(d1, d2) for d1 in A.degrees for d2 in A.degrees if 0 < d1 <= d2 and d1 + d2 <= A.top_degree]


def test_valid_ring_battery_checks_pairs_with_a_generator_factor(monkeypatch):
    # the doc-ingest ring is generated by a, c in degree 1 and b in degree 2:
    # Cartan runs on the pairs (1, d2), every class of degree 1 by every
    # class of degree d2, and on the pairs (2, d2), b by every class of
    # degree d2; associativity on the 105 triples with d1 <= d3 and a middle
    # degree 1 or 2, with the middle class among a, c or b
    A = _document_algebra(ring_document(RING_A6B4C6))
    classes = algebra._generator_classes(A)
    assert {d: _classes(A, d, bits) for d, bits in classes.items()} == {1: {"a", "c"}, 2: {"b"}}
    assert len(_ring_pairs(A)) == 64
    n = A.top_degree
    # a pair of degree d1 + d2 = n has no k in range and holds without a call
    want = [(1, d2, _every(A, 1)) for d2 in range(1, n - 1)]
    want += [(2, d2, classes[2]) for d2 in range(1, n - 2)]
    assert _cartan_calls(monkeypatch, A) == want
    assert len(want) == 27
    focus = [t for t in _positive(_triples(A)) if t[1] in classes and t[0] <= t[2]]
    assert _associative_calls(monkeypatch, A) == [(*t, classes[t[1]]) for t in focus]
    assert len(focus) == 105


def _ring_with_a_flipped_sq1_in_degree_3() -> GradedAlgebra:
    """The CI ring document with one Sq^1 coordinate flipped on a class of degree 3."""
    doc = ring_document(RING_A6B4C6)
    entry = next(e for e in doc["sq"] if e[:3] == [1, 3, 0])
    entry[3][0] ^= 1
    return _document_algebra(doc)


def test_ring_with_a_flipped_sq1_in_degree_3_matches_reference():
    # no generator class reaches the flipped class: only the rescan of every
    # pair names the Cartan failures
    got = _assert_matches_reference(_ring_with_a_flipped_sq1_in_degree_3())
    assert "cartan: Sq^1 on degrees (3, 3)" in got


def test_rescanning_battery_computes_each_pair_and_triple_once(monkeypatch):
    # a pair of the focus fails, so every pair is scanned again with every
    # class: each of the pairs with 0 < d1 <= d2 and a k in range (d1 + d2
    # below n) runs once over every class of d1, each focused pair of the
    # generator class b runs once more, and no call repeats; associativity,
    # which holds, runs its 105 focused triples once
    A = _ring_with_a_flipped_sq1_in_degree_3()
    n, classes = A.top_degree, algebra._generator_classes(A)
    calls = _cartan_calls(monkeypatch, A)
    assert len(set(calls)) == len(calls)
    assert sorted(call for call in calls if call[2] == _every(A, call[0])) == [
        (d1, d2, _every(A, d1)) for d1, d2 in _ring_pairs(A) if d1 + d2 < n
    ]
    focused = sorted(call[:2] for call in calls if call[2] != _every(A, call[0]))
    assert focused == [(2, d2) for d2 in range(1, n - 2)]
    assert all(call[2] == classes[2] for call in calls if call[2] != _every(A, call[0]))
    triples = _associative_calls(monkeypatch, A)
    assert len(triples) == len(set(triples)) == 105


def test_flipped_square_on_a_rebased_eight_torus_matches_reference():
    # Sq^1 on degree 4 of a rebased T^8 (ranks up to 70), one entry flipped
    got = _assert_matches_reference(_flipped(_rebased_torus(8), "sq", 12, 84))
    assert "cartan: Sq^1 on degrees (1, 3)" in got


def _ring_with(edit) -> dict:
    """The CI ring document after ``edit(doc, index)``; index maps (degree, label) to a basis index."""
    doc = ring_document(RING_A6B4C6)
    index = {(d, label): i for d, labels in enumerate(doc["basis"]) for i, label in enumerate(labels)}
    edit(doc, index)
    return doc


def _flip_product(doc: dict, index: dict, x: tuple, y: tuple, coordinate: int) -> None:
    (d1, i), (d2, j) = (x[0], index[x]), (y[0], index[y])
    entry = next(e for e in doc["mult"] if e[:4] in ([d1, i, d2, j], [d2, j, d1, i]))
    entry[4][coordinate] ^= 1


def _flip_square(doc: dict, index: dict, k: int, x: tuple[int, str], coordinate: int) -> None:
    d, i = x[0], index[x]
    entry = next((e for e in doc["sq"] if e[:3] == [k, d, i]), None)
    if entry is None:
        entry = [k, d, i, [0] * len(doc["basis"][d + k])]
        doc["sq"].append(entry)
    entry[3][coordinate] ^= 1


@pytest.mark.parametrize(
    "edit",
    [
        # the product a^2 * c, a class of degree 2 that is no generator times one of degree 1
        lambda doc, index: _flip_product(doc, index, (2, "a^2"), (1, "c"), 1),
        # Sq^1(a^2), zero in the ring, given a coordinate
        lambda doc, index: _flip_square(doc, index, 1, (2, "a^2"), 2),
        # Sq^1(ac) = a^2 c + a c^2, one coordinate flipped
        lambda doc, index: _flip_square(doc, index, 1, (2, "ac"), 0),
    ],
    ids=["a2*c", "Sq1(a2)", "Sq1(ac)"],
)
def test_flip_on_a_non_generator_class_of_a_generator_degree_matches_reference(edit):
    # degree 2 holds the generator b and the products a^2, ac, c^2: a flip on
    # a product class is found through the generator classes or the rescan
    got = _assert_matches_reference(_document_algebra(_ring_with(edit)))
    assert got


def _with_ghost(doc: dict, d: int) -> dict:
    """The document with one more class in degree d, whose products and squares are zero."""
    doc = json.loads(json.dumps(doc))
    doc["basis"][d].append("ghost")
    return doc


def test_generator_classes_of_documents():
    ring = ring_document(RING_A6B4C6)
    A = _document_algebra(ring)
    classes = algebra._generator_classes(A)
    assert {d: _classes(A, d, bits) for d, bits in classes.items()} == {1: {"a", "c"}, 2: {"b"}}
    # a class with no products is a generator wherever it sits, and adds
    # itself alone, not its whole degree
    for d, want in ((5, {5: {"ghost"}}), (2, {2: {"b", "ghost"}})):
        B = _document_algebra(_with_ghost(ring, d))
        got = {d: _classes(B, d, bits) for d, bits in algebra._generator_classes(B).items()}
        assert got == {1: {"a", "c"}, 2: {"b"}} | want
    # every class of degree 1 of T^7 generates, in any basis
    assert algebra._generator_classes(_rebased_torus(7)) == {1: _every(_rebased_torus(7), 1)}


@functools.cache
def _family_document(name: str) -> dict:
    """A doc-ingest family as a document: a sum of RP4 or RP2, or a ring."""
    rings = {"a6b4c6": RING_A6B4C6, "a7b3c6": RING_A7B3C6}
    return ring_document(rings[name]) if name in rings else manifold_document(parse_expression(name))


@pytest.mark.parametrize(
    "name,variant",
    # the smallest sums of RP4 and of RP2 in every variant; the rings, whose
    # reference battery takes half a second, with a flipped entry
    [(name, kind) for name in ("24#RP4", "N200") for kind in ("whole", "ghost", "sq flip", "mult flip")]
    + [("a7b3c6", "sq flip"), ("a7b3c6", "mult flip"), ("a6b4c6", "mult flip")],
)
def test_doc_ingest_families_match_reference(name, variant):
    # a family whole, with a ghost class in degree 3 (1 in N200), or with one
    # square or one product entry flipped
    doc = _family_document(name)
    A = _document_algebra(doc)
    if variant == "ghost":
        A = _document_algebra(_with_ghost(doc, min(3, A.top_degree - 1)))
    elif variant != "whole":
        A = _flipped(A, variant.split()[0], A.top_degree + 2, 1)
    got = _assert_matches_reference(A)
    assert bool(got) == (variant != "whole")


def test_ghost_class_only_degenerates_the_pairing():
    # the ghost adds its own class in degree 5 to the scans and fails nothing but the pairing
    B = _document_algebra(_with_ghost(ring_document(RING_A6B4C6), 5))
    got = validate_algebra(B).violations
    assert got == reference_violations(B) == (
        "pairing: ranks differ in degrees 5 and 11 (13 vs 12)",
        "pairing: ranks differ in degrees 11 and 5 (12 vs 13)",
    )


# ---------------------------------------------------------------------------
# one product table per unordered degree pair
#
# The store keys each product table (d1, d2) with d1 <= d2, and every
# reader of the other order transposes it: the array view, ``_entries``
# and, through it, the battery's lines, Kunneth and the connected sum.

DOC_INGEST_FAMILIES = ("24#RP4", "32#RP4", "40#RP4", "N200", "N300", "a6b4c6", "a7b3c6")
TRIPLE_PRODUCTS = ("RP4 x RP4 x RP4", "Sigma2 x Sigma2 x Sigma2", "S2 x S2 x S2", "CP3 x RP3 x S1")


def _document_tables(doc: dict) -> GradedAlgebra:
    """The algebra ``build_algebra`` reads from a document's tables, battery included."""
    return algebra.build_algebra(doc["dim"], doc["basis"], doc["mult"], doc["sq"])


def _dense_entries(block: np.ndarray) -> list[tuple[int, int, int]]:
    """``(i, j, packed row)`` of each nonzero row of a dense product block, row-major."""
    packed_rows = np.packbits(block, axis=2, bitorder="little")
    return [
        (int(i), int(j), int.from_bytes(packed_rows[i, j].tobytes(), "little"))
        for i, j in zip(*np.nonzero(block.any(axis=2)))
    ]


def _assert_one_table_per_pair(A: GradedAlgebra, where: str) -> None:
    assert all(d1 <= d2 for d1, d2 in A.products), where
    for d1 in A.degrees:
        for d2 in A.degrees:
            if d1 + d2 > A.top_degree:
                break
            dense = A.mult_block(d1, d2)
            assert not dense.flags.writeable, (where, d1, d2)
            if d1 > d2:
                assert np.array_equal(dense, A.mult_block(d2, d1).transpose(1, 0, 2)), (where, d1, d2)
            assert sorted(algebra._entries(A, d1, d2)) == _dense_entries(dense), (where, d1, d2)


def test_constructions_store_one_table_per_unordered_pair(connected_closure):
    for m in connected_closure:
        _assert_one_table_per_pair(m.algebra, m.name)
    for name in TRIPLE_PRODUCTS:
        _assert_one_table_per_pair(parse_expression(name).algebra, name)


def test_documents_store_one_table_per_unordered_pair():
    for name in DOC_INGEST_FAMILIES:
        _assert_one_table_per_pair(_document_tables(_family_document(name)), name)
    for factors in (5, 7):
        _assert_one_table_per_pair(_rebased_torus(factors), f"rebased T^{factors}")
    doc, _ = rebased_document(parse_expression("RP2 x RP3"), np.random.default_rng(0))
    _assert_one_table_per_pair(_document_tables(doc), "rebased RP2 x RP3")


def _reversed(doc: dict) -> dict:
    """The document with every mult entry ``[d1, i, d2, j, row]`` written ``[d2, j, d1, i, row]``."""
    return {**doc, "mult": [[d2, j, d1, i, row] for d1, i, d2, j, row in doc["mult"]]}


# the families with a product of two different classes: a sum of RP2s
# multiplies each class only with itself
@pytest.mark.parametrize("name", ["24#RP4", "40#RP4", "a6b4c6", "a7b3c6", "RP2 x RP3", "S1 x S1 x S1 x S1 x S1"])
def test_a_document_with_every_product_reversed_stores_the_same_tables(name):
    if "x" in name:
        doc, _ = rebased_document(parse_expression(name), np.random.default_rng(0))
    else:
        doc = _family_document(name)
    assert any(e[:2] != e[2:4] for e in doc["mult"])
    A, B = _document_tables(doc), _document_tables(_reversed(doc))
    # equal values of equal types: bytes tables stay bytes, wide tables tuples
    assert dict(A.products) == dict(B.products) and dict(A.squares) == dict(B.squares)


# in F2[a,b]/(a^4,b^3) with deg b = 2, degree 2 listed [b, a^2] and degree 3
# [ab, a^3]: a * b = ab, a * a^2 = a^3 and a * ab = a^2 b off the diagonal,
# b * a^2 = a^2 b on the square block (2, 2), whose twin is its other slot
@pytest.mark.parametrize("key", [[1, 0, 2, 0], [1, 0, 2, 1], [1, 0, 3, 0], [2, 0, 2, 1]])
@pytest.mark.parametrize("first", [False, True], ids=["canonical-first", "reversed-first"])
def test_a_reversed_entry_meets_its_twin(key, first):
    doc = ring_document(RINGS["F2[a,b]/(a^4,b^3)"])
    d1, i, d2, j = key
    pos = next(p for p, e in enumerate(doc["mult"]) if e[:4] == key)
    row = doc["mult"][pos][4]
    other = [1 - bit for bit in row]
    assert any(row) and any(other)
    # the twin with the same row is accepted wherever it stands
    same = json.loads(json.dumps(doc))
    same["mult"].insert(0 if first else len(same["mult"]), [d2, j, d1, i, row])
    assert dict(_document_tables(same).products) == dict(_document_tables(doc).products)
    # with another nonzero row it is refused at the later of the two entries
    twin = [d2, j, d1, i, other]
    if first:
        doc["mult"].insert(0, twin)
        later = pos + 1
    else:
        doc["mult"].append(twin)
        later = len(doc["mult"]) - 1
    with pytest.raises(SchemaError) as info:
        load_manifold(json.loads(json.dumps(doc)))
    assert str(info.value) == f"mult entry {later}: conflicts with an earlier entry"
