"""Graded-algebra construction, arithmetic, Kunneth, and connected sums."""
from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from classes import basis_element, coords, element, entries, one, packed, total, unit_total
from foldcheck import algebra, catalog
from foldcheck.algebra import (
    ClassZ2,
    TotalClass,
    build_algebra,
    connected_sum_algebra,
    cross_total,
    evaluate_top,
    invert_total,
    kunneth,
    multiply,
    steenrod_square,
    total_sq,
    validate_algebra,
)
from foldcheck.algebra import _monogenic_table_bytes, _packed_algebra, _table_bytes, _total
from foldcheck.errors import DimensionMismatch, InvariantViolation, SchemaError
from foldcheck.expressions import parse_expression


def rp_algebra(n: int):
    """Truncated polynomial algebra on a degree-1 generator, built by hand."""
    from math import comb

    basis = [["1"]] + [[f"a^{d}" if d > 1 else "a"] for d in range(1, n + 1)]
    mult = {
        (d1, d2): np.ones((1, 1, 1), dtype=np.uint8)
        for d1 in range(1, n)
        for d2 in range(1, n + 1 - d1)
    }
    sq = {
        (k, d): np.array([[comb(d, k) % 2]], dtype=np.uint8)
        for d in range(1, n)
        for k in range(1, min(d, n - d) + 1)
    }
    return build_algebra(n, basis, *entries(mult, sq))


def sphere_algebra(n: int):
    return build_algebra(n, [["1"]] + [[] for _ in range(n - 1)] + [["s"]])


def cross_class(P, x: ClassZ2, y: ClassZ2) -> ClassZ2:
    """Cross product ``x x y`` in the Kunneth algebra P of x's and y's algebras."""

    def alone(c: ClassZ2) -> TotalClass:
        return _total(c.algebra, [c.bits if d == c.degree else 0 for d in range(c.algebra.top_degree + 1)])

    return cross_total(P, alone(x), alone(y)).component(x.degree + y.degree)


def sum_embed(S, x: ClassZ2, side: int) -> ClassZ2:
    """Image in the connected-sum algebra S of a class from summand 0 or 1.

    Middle degrees are laid out summand 0 first; top classes land on the
    shared top via fundamental evaluation.
    """
    d, n = x.degree, S.top_degree
    out, own = np.zeros(S.rank(d), dtype=np.uint8), coords(x)
    if d == 0:
        out[0] = own[0]
    elif d == n:
        out[0] = evaluate_top(x)
    else:
        offset = 0 if side == 0 else S.rank(d) - own.size
        out[offset : offset + own.size] = own
    return element(S, d, out)


# ---------------------------------------------------------------------------
# construction and validation


def test_build_fills_unit_blocks_and_sq0():
    A = rp_algebra(4)
    assert A.ranks == (1, 1, 1, 1, 1)
    unit = one(A)
    a = basis_element(A, 1, 0)
    assert unit * a == a
    assert steenrod_square(0, a) == a


def test_build_rejects_wrong_basis_count():
    # the one reader of outside tables refuses a bad basis as a schema error
    with pytest.raises(SchemaError, match="^basis: need 3 basis lists, got 2$"):
        build_algebra(2, [["1"], ["a"]])
    with pytest.raises(SchemaError, match="^basis: top_degree must be >= 0$"):
        build_algebra(-1, [])


def test_build_rejects_duplicate_labels():
    # outside labels are refused with the basis, before any entry is read
    with pytest.raises(SchemaError, match="^basis: duplicate labels in degree 1$"):
        build_algebra(1, [["1"], ["a", "a"]], [7])
    # labels are stored as strings, so 1 and "1" are one label
    with pytest.raises(SchemaError, match="^basis: duplicate labels in degree 1$"):
        build_algebra(1, [["1"], [1, "1"]])


def test_packed_algebra_rejects_duplicate_labels():
    # a construction that made two labels alike is a fault of the package
    with pytest.raises(ValueError, match="^duplicate labels in degree 1$"):
        _packed_algebra(1, [["1"], ["a", "a"]])


def test_build_rejects_out_of_grading_tables():
    with pytest.raises(SchemaError, match="^mult entry 0: product degree 2 exceeds dim$"):
        build_algebra(1, [["1"], ["a"]], *entries({(1, 1): np.ones((1, 1, 1), dtype=np.uint8)}))


def test_build_rejects_out_of_range_sq():
    with pytest.raises(SchemaError, match="^sq entry 0: Sq\\^2 vanishes on degree 1 here$"):
        build_algebra(
            2,
            [["1"], ["a"], ["b"]],
            *entries(
                {(1, 1): np.ones((1, 1, 1), dtype=np.uint8)},
                {(2, 1): np.ones((1, 1), dtype=np.uint8)},
            ),
        )


def test_validation_catches_broken_commutativity():
    # x*y = t but y*x = 0: not commutative, which no document can say (the
    # intake fills in the mirror), so the tables are given packed
    mult = {(1, 1): np.array([[[0], [1]], [[0], [0]]], dtype=np.uint8)}
    A = _packed_algebra(2, [["1"], ["x", "y"], ["t"]], packed(mult))
    assert "commutativity: degrees (1, 1)" in validate_algebra(A).violations


def test_validation_catches_degenerate_pairing():
    # a*a = 0 in a would-be 2-manifold: the degree-1 pairing is degenerate
    mult = {(1, 1): np.zeros((1, 1, 1), dtype=np.uint8)}
    with pytest.raises(InvariantViolation, match="pairing"):
        build_algebra(2, [["1"], ["a"], ["t"]], *entries(mult))


def test_validation_catches_bad_top_squaring():
    # Sq^1 a = 0 although a*a = a^2
    mult = {
        (d1, d2): np.ones((1, 1, 1), dtype=np.uint8)
        for d1 in range(1, 2)
        for d2 in range(1, 3 - d1)
    }
    with pytest.raises(InvariantViolation, match="squaring|cartan"):
        build_algebra(
            2, [["1"], ["a"], ["a^2"]], *entries(mult, {(1, 1): np.zeros((1, 1), dtype=np.uint8)})
        )


def test_validate_report_on_good_algebra():
    report = validate_algebra(rp_algebra(5))
    assert report.ok
    assert str(report) == "valid"


def test_rank_mismatch_is_a_pairing_violation():
    with pytest.raises(InvariantViolation, match="pairing: ranks differ"):
        build_algebra(3, [["1"], ["a", "b"], ["c"], ["t"]])


def test_build_reads_rows_of_0_and_1():
    # build_algebra reads a row as a document gives it: JSON integers 0 or 1
    basis, square = [["1"], ["a"], ["a^2"]], [[1, 1, 0, [1]]]
    for row in ([3], [259], [2**70 + 1], [-1], [True], [1.0]):
        with pytest.raises(SchemaError, match="^mult entry 0: coordinates must be 0 or 1$"):
            build_algebra(2, basis, [[1, 0, 1, 0, row]], square)
    A = build_algebra(2, basis, [[1, 0, 1, 0, [1]]], square)
    assert multiply(basis_element(A, 1, 0), basis_element(A, 1, 0)) == basis_element(A, 2, 0)


def test_build_reads_entry_lists_like_the_catalog():
    # RP2 as a document lists it, against the closed-form atom
    A = build_algebra(2, [["1"], ["a"], ["a^2"]], [[1, 0, 1, 0, [1]]], [[1, 1, 0, [1]]])
    B = catalog.real_projective(2).algebra
    assert (dict(A.products), dict(A.squares), A.unit_bits, A.fundamental_bits) == (
        dict(B.products), dict(B.squares), B.unit_bits, B.fundamental_bits
    )


def test_packed_tables_read_their_arrays_row_by_row(monkeypatch):
    # one int per row, at every width up to 69 columns; a table is bytes
    # exactly when every entry fits in a byte.  The random tables are no
    # algebra, so the battery is switched off: only the intake runs.
    monkeypatch.setattr(algebra, "validate_algebra", lambda A: algebra.ValidationReport(()))
    rng = np.random.default_rng(5)
    for width in range(70):
        a = (rng.random((7, 3, width)) < 0.3).astype(np.uint8)
        rows = [sum(int(v) << j for j, v in enumerate(row)) for row in a.reshape(21, width)]
        basis = [["1"], [f"x{i}" for i in range(7)], ["y0", "y1", "y2"], [f"z{o}" for o in range(width)]]
        table = build_algebra(3, basis, *entries({(1, 2): a})).products.get((1, 2))
        assert list(table or [0] * 21) == rows, width
        assert table is None or isinstance(table, bytes) == (max(rows) < 256), width


# ---------------------------------------------------------------------------
# element arithmetic


def test_class_addition_is_xor():
    A = build_algebra(2, [["1"], ["x", "y"], ["t"]],
                      *entries({(1, 1): np.array([[[0], [1]], [[1], [0]]], dtype=np.uint8)}))
    x = basis_element(A, 1, 0)
    y = basis_element(A, 1, 1)
    assert str(x + y) == "x + y"
    assert (x + x).is_zero()
    assert str(A.zero(1)) == "0"


def test_classes_are_made_from_their_bits():
    # no class reads outside coordinates: the class types take no arguments
    A = rp_algebra(2)
    with pytest.raises(TypeError):
        ClassZ2(A, 1, [1])
    with pytest.raises(TypeError):
        TotalClass(A, [[1], [0], [1]])
    assert not hasattr(ClassZ2, "coords")
    # components: the read-only array view of a total class
    u = _total(A, [1, 0, 1])
    assert [c.tolist() for c in u.components] == [[1], [0], [1]]
    assert not any(c.flags.writeable for c in u.components)
    assert u == total(A, [[1], [0], [1]]) != total(A, [[1], [1], [1]])


def test_class_addition_rejects_mixed_degrees():
    A = rp_algebra(3)
    with pytest.raises(ValueError, match="degrees"):
        basis_element(A, 1, 0) + basis_element(A, 2, 0)


def test_classes_from_different_algebras_do_not_mix():
    A, B = rp_algebra(2), rp_algebra(2)
    with pytest.raises(ValueError, match="different algebras"):
        multiply(basis_element(A, 1, 0), basis_element(B, 1, 0))
    assert basis_element(A, 1, 0) != basis_element(B, 1, 0)


def test_multiplication_truncates_above_top():
    A = rp_algebra(3)
    a = basis_element(A, 1, 0)
    cube = a * a * a
    assert cube.degree == 3 and not cube.is_zero()
    assert (cube * a).is_zero()
    assert (cube * a).degree == 4


def test_steenrod_square_binomial_pattern():
    A = rp_algebra(6)
    for d in range(1, 6):
        x = basis_element(A, d, 0)
        for k in range(0, 6 - d + 1):
            got = steenrod_square(k, x)
            from math import comb

            expected = comb(d, k) % 2 if k <= d else 0
            assert int(coords(got).sum()) % 2 == expected, (d, k)


def test_steenrod_square_rejects_negative_index():
    with pytest.raises(ValueError):
        steenrod_square(-1, one(rp_algebra(2)))


def test_evaluate_top_requires_top_degree():
    A = rp_algebra(2)
    assert evaluate_top(basis_element(A, 2, 0)) == 1
    with pytest.raises(ValueError, match="degree"):
        evaluate_top(basis_element(A, 1, 0))


def test_total_class_componentwise():
    A = rp_algebra(4)
    u = total(A, [[1], [1], [0], [0], [1]])
    assert str(u) == "1 + a + a^4"
    assert u.component(1) == basis_element(A, 1, 0)
    assert u.component(9).is_zero()  # out-of-range degrees read as zero
    assert unit_total(A).component(0) == one(A)


def test_total_multiplication_is_graded_convolution():
    A = rp_algebra(4)
    u = total(A, [[1], [1], [0], [0], [0]])  # 1 + a
    sq = u * u  # (1+a)^2 = 1 + a^2 over GF(2)
    assert str(sq) == "1 + a^2"
    quad = sq * sq
    assert str(quad) == "1 + a^4"


def test_invert_total_oracle_rp4():
    # (1 + a + a^4)^{-1} = 1 + a + a^2 + a^3 in the RP4 ring: frozen oracle
    A = rp_algebra(4)
    w = total(A, [[1], [1], [0], [0], [1]])
    wbar = invert_total(w)
    assert str(wbar) == "1 + a + a^2 + a^3"
    assert str(w * wbar) == "1"


def test_invert_total_requires_unital_input():
    A = rp_algebra(2)
    broken = total(A, [[0], [1], [0]])
    with pytest.raises(ValueError, match="unital"):
        invert_total(broken)


def test_total_sq_on_wu_style_class():
    # Sq(1 + a) in RP4: 1 + a + Sq^1 a = 1 + a + a^2
    A = rp_algebra(4)
    v = total(A, [[1], [1], [0], [0], [0]])
    assert str(total_sq(v)) == "1 + a + a^2"


# ---------------------------------------------------------------------------
# Kunneth


def test_kunneth_ranks_torus_times_sphere():
    T = kunneth(rp_algebra(1), rp_algebra(1))  # S1 x S1-like ring
    assert T.ranks == (1, 2, 1)
    P = kunneth(T, sphere_algebra(2))
    assert P.ranks == (1, 2, 2, 2, 1)


def test_kunneth_ranks_rp2_squared():
    P = kunneth(rp_algebra(2), rp_algebra(2))
    assert P.ranks == (1, 2, 3, 2, 1)


def test_kunneth_labels_collapse_units():
    # pair labels drop unit factors; block order is A-degree ascending
    P = kunneth(rp_algebra(2), sphere_algebra(2))
    assert P.labels(1) == ("a",)
    assert P.labels(2) == ("s", "a^2")
    assert P.labels(4) == ("a^2*s",)


def test_kunneth_primes_colliding_labels():
    P = kunneth(rp_algebra(2), rp_algebra(2))
    assert P.labels(1) == ("a'", "a")
    assert P.labels(2) == ("a^2'", "a*a'", "a^2")


def test_cross_class_multiplies_coordinatewise():
    A, B = rp_algebra(2), rp_algebra(2)
    P = kunneth(A, B)
    x = cross_class(P, basis_element(A, 1, 0), one(B))
    y = cross_class(P, one(A), basis_element(B, 1, 0))
    assert str(x) == "a" and str(y) == "a'"
    assert str(x * y) == "a*a'"
    assert evaluate_top((x * x) * (y * y)) == 1


def test_cross_total_respects_multiplication():
    A, B = rp_algebra(2), rp_algebra(2)
    P = kunneth(A, B)
    u = total(A, [[1], [1], [1]])
    v = total(B, [[1], [0], [1]])
    lhs = cross_total(P, u, v)
    rhs = cross_total(P, u, unit_total(B)) * cross_total(P, unit_total(A), v)
    assert lhs == rhs


def test_kunneth_cartan_squares_survive():
    # Sq^1(a x a') = a^2 x a' + a x a'^2 via the product tables
    A, B = rp_algebra(2), rp_algebra(2)
    P = kunneth(A, B)
    xy = cross_class(P, basis_element(A, 1, 0), basis_element(B, 1, 0))
    got = steenrod_square(1, xy)
    x = cross_class(P, basis_element(A, 1, 0), one(B))
    y = cross_class(P, one(A), basis_element(B, 1, 0))
    assert got == x * x * y + x * (y * y)


# ---------------------------------------------------------------------------
# connected sum


def test_connected_sum_algebra_glues_tops():
    S = connected_sum_algebra(rp_algebra(2), rp_algebra(2))
    assert S.ranks == (1, 2, 1)
    assert S.labels(2) == ("t",)
    a0 = basis_element(S, 1, 0)
    a1 = basis_element(S, 1, 1)
    assert str(a0 * a0) == "t"
    assert str(a1 * a1) == "t"
    assert (a0 * a1).is_zero()  # cross terms vanish in a connected sum


def test_connected_sum_algebra_top_label_avoids_collision():
    # a summand already using "t" forces a primed top label
    mult = {(1, 1): np.ones((1, 1, 1), dtype=np.uint8)}
    sq = {(1, 1): np.ones((1, 1), dtype=np.uint8)}
    A = build_algebra(2, [["1"], ["t"], ["t^2"]], *entries(mult, sq))
    S = connected_sum_algebra(A, rp_algebra(2))
    assert S.labels(1) == ("t", "a")
    assert S.labels(2) == ("t'",)


def test_connected_sum_algebra_of_three_pieces():
    S = connected_sum_algebra(rp_algebra(2), rp_algebra(2), rp_algebra(2))
    assert S.labels(1) == ("a", "a'", "a''")
    assert S.labels(2) == ("t",)
    classes = [basis_element(S, 1, i) for i in range(3)]
    assert [str(x * x) for x in classes] == ["t"] * 3
    assert (classes[0] * classes[2]).is_zero()
    assert validate_algebra(S).ok


def test_table_bytes_counts_every_dense_table(closure):
    # the budget counts every in-range block, stored or zero; the store holds fewer
    for m in closure:
        A, n = m.algebra, m.dim
        dense = [A.mult_block(d1, d2) for d1 in range(n + 1) for d2 in range(n + 1 - d1)]
        dense += [A.sq_block(k, d) for d in range(n + 1) for k in range(min(d, n - d) + 1)]
        assert _table_bytes(A.ranks) == sum(t.nbytes for t in dense), m.name
        stored = [*A.mult.values(), *A.sq_table.values()]
        assert sum(t.nbytes for t in stored) <= _table_bytes(A.ranks), m.name


def test_projective_table_bytes_closed_form():
    # RP(n): every rank 1; CP(n): rank 1 in the even degrees up to 2n
    for n in range(1, 201):
        size = _monogenic_table_bytes(n)
        assert size == _table_bytes([1] * (n + 1)), n
        assert size == _table_bytes([1 - d % 2 for d in range(2 * n + 1)]), n


def test_closure_stores_only_nonzero_blocks(closure):
    for m in closure:
        for key, blk in [*m.algebra.mult.items(), *m.algebra.sq_table.items()]:
            assert blk.any(), (m.name, key)


@pytest.mark.parametrize(
    "build",
    [lambda: catalog.sphere(4000).algebra, lambda: parse_expression("1000 # S100").algebra],
    ids=["S4000", "1000 # S100"],
)
def test_sparse_algebras_store_linearly_many_blocks(build):
    A = build()
    assert len(A.mult) + len(A.sq_table) <= 4 * (A.top_degree + 1)


def test_packed_algebra_refuses_a_product_table_keyed_in_the_other_order():
    # one product table per unordered degree pair: (1, 2) holds a * b, and
    # (2, 1) is its transpose, which the store does not hold
    basis = [["1"], ["a"], ["b"], ["t"]]
    with pytest.raises(ValueError, match=r"^product table \(2, 1\) is not keyed with d1 <= d2$"):
        _packed_algebra(3, basis, {(1, 2): b"\x01", (2, 1): b"\x01"})
    A = _packed_algebra(3, basis, {(1, 2): b"\x01"})
    assert set(A.products) == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 2)}
    assert multiply(basis_element(A, 2, 0), basis_element(A, 1, 0)) == basis_element(A, 3, 0)


def test_kunneth_of_two_spheres_walks_only_the_degrees_with_classes(monkeypatch):
    # four (i, j) degree pairs carry classes; every split of degree up to 2000 once did
    S = catalog.sphere(1000).algebra
    visits = {"rank": 0, "table": 0}
    rank, nonzero = algebra.GradedAlgebra.rank, algebra._nonzero

    def counting_rank(self, d):
        visits["rank"] += 1
        return rank(self, d)

    def counting_nonzero(table):
        visits["table"] += 1
        return nonzero(table)

    monkeypatch.setattr(algebra.GradedAlgebra, "rank", counting_rank)
    monkeypatch.setattr(algebra, "_nonzero", counting_nonzero)
    P = kunneth(S, S)
    # a rank lookup per degree pair with classes and per product table read,
    # and each stored table of a factor read once in each order it is read in:
    # (0, 1000) as itself and as (1000, 0)
    offdiagonal = sum(d1 < d2 for d1, d2 in S.products)
    assert visits["rank"] <= 16
    assert visits["table"] == 2 * (len(S.products) + offdiagonal + len(S.squares))
    assert P.degrees == (0, 1000, 2000)
    assert parse_expression("S1000 x S1000").algebra.degrees == (0, 1000, 2000)


def test_every_construction_stores_its_tables_as_table_makes_them(closure, atoms):
    # bytes when every entry fits in a byte, else a tuple: never the
    # bytearray or list a construction writes into
    sigma2 = atoms["Sigma2"].algebra
    wide = kunneth(sigma2, sigma2)  # rank 18 in degree 2: the (1, 1) table is wide
    built = [m.algebra for m in closure] + [
        wide,
        kunneth(catalog.sphere(0).algebra, atoms["RP2"].algebra),
        connected_sum_algebra(*[atoms["K3"].algebra] * 3),
        build_algebra(wide.top_degree, wide.basis, *entries(wide.mult, wide.sq_table)),
        build_algebra(4, atoms["K3"].algebra.basis, *entries(atoms["K3"].algebra.mult)),
        rp_algebra(6),
    ]
    kinds = set()
    for A in built:
        for key, table in [*A.products.items(), *A.squares.items()]:
            kinds.add(type(table))
            assert not isinstance(table, (bytearray, list)), (A, key)
            made = algebra._table(table)
            assert type(made) is type(table) and made == table, (A, key)
    assert kinds == {bytes, tuple}


def test_a_long_repeated_sum_builds_in_little_memory():
    # every table into a degree of rank <= 8 is a bytearray from the start,
    # not a list of ints: the sum's tables are nearly all into the top degree
    catalog.atom("K3")
    tracemalloc.start()
    try:
        parse_expression("100#K3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@functools.cache
def _rp_tables(n: int):
    """RP(n)'s stored tables, assembled once, under the budget, and kept."""
    A = catalog.real_projective(n).algebra
    return _packed_algebra(n, A.basis, A.products, A.squares)


def _battery(A):
    assert validate_algebra(A).ok
    return A


@pytest.mark.parametrize(
    "build,refusal",
    [
        (lambda: connected_sum_algebra(rp_algebra(4), rp_algebra(4), rp_algebra(4)), ValueError),
        (lambda: kunneth(rp_algebra(3), rp_algebra(4)), ValueError),
        (lambda: catalog.real_projective(5).algebra, ValueError),
        (lambda: catalog.complex_projective(3).algebra, ValueError),
        (lambda: catalog.orientable_surface(2).algebra, ValueError),
        (lambda: catalog.nonorientable_surface(3).algebra, ValueError),
        # the intake of outside tables refuses them as a document field
        (lambda: rp_algebra(4), SchemaError),
        # the battery refuses an algebra built past the budget, as no constructor builds one
        (lambda: _battery(_rp_tables(4)), ValueError),
    ],
    ids=["connected-sum", "kunneth", "RP5", "CP3", "Sigma2", "N3", "build_algebra", "validate_algebra"],
)
def test_table_budget_bounds_the_built_tables(monkeypatch, build, refusal):
    size = _table_bytes(build().ranks)
    monkeypatch.setattr(algebra, "TABLE_BYTES_BUDGET", size)
    assert build().ranks
    monkeypatch.setattr(algebra, "TABLE_BYTES_BUDGET", size - 1)
    with pytest.raises(refusal, match=f"would take {size} bytes, over the budget"):
        build()


def test_connected_sum_algebra_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        connected_sum_algebra(rp_algebra(2), rp_algebra(3))


def test_connected_sum_algebra_rejects_disconnected_pieces():
    s0 = catalog.sphere(0).algebra
    with pytest.raises(ValueError, match="dimension >= 1"):
        connected_sum_algebra(s0, s0)
    with pytest.raises(ValueError, match="connected"):
        connected_sum_algebra(kunneth(s0, rp_algebra(2)), kunneth(s0, rp_algebra(2)))


def test_sum_embed_sides_and_top():
    A, B = rp_algebra(2), rp_algebra(2)
    S = connected_sum_algebra(A, B)
    left = sum_embed(S, basis_element(A, 1, 0), 0)
    right = sum_embed(S, basis_element(B, 1, 0), 1)
    assert str(left) == "a" and str(right) == "a'"
    top_a = sum_embed(S, basis_element(A, 2, 0), 0)
    top_b = sum_embed(S, basis_element(B, 2, 0), 1)
    assert top_a == top_b  # both summand tops map to the shared class
    assert str(top_a) == "t"
    unit = sum_embed(S, one(A), 0)
    assert unit == one(S)
