"""Catalog atoms, combination rules, and document ingestion."""
from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest
import sympy

from classes import coords, point, replace
from test_trust_boundary import RINGS, _p1_field, manifold_document, ring_document
from foldcheck import catalog
from foldcheck.algebra import build_algebra
from foldcheck.catalog import _odd_binomial
from foldcheck.catalog import (
    atom,
    complex_projective,
    connected_sum,
    cp2_reversed,
    k3,
    load_descriptor,
    load_manifold,
    nonorientable_surface,
    orientable_surface,
    product,
    real_projective,
    sphere,
    validate_manifold,
)
from foldcheck.characteristic import BundleDescriptor
from foldcheck.errors import DimensionMismatch, InvariantViolation, SchemaError
from foldcheck.expressions import parse_expression
from foldcheck.tristate import P1Data, Tri


# ---------------------------------------------------------------------------
# atoms


@pytest.mark.parametrize(
    "token,dim,orientable,euler,signature",
    [
        ("S1", 1, True, 0, None),
        ("S2", 2, True, 2, None),
        ("S4", 4, True, 2, 0),
        ("RP2", 2, False, 1, None),
        ("RP3", 3, True, 0, None),
        ("RP4", 4, False, 1, None),
        ("CP1", 2, True, 2, None),
        ("CP2", 4, True, 3, 1),
        ("CP2~", 4, True, 3, -1),
        ("CP3", 6, True, 4, None),
        ("K3", 4, True, 24, -16),
        ("Sigma0", 2, True, 2, None),
        ("Sigma2", 2, True, -2, None),
        ("N1", 2, False, 1, None),
        ("N3", 2, False, -1, None),
    ],
)
def test_atom_classical_invariants(token, dim, orientable, euler, signature):
    m = atom(token)
    assert (m.dim, m.orientable, m.euler, m.signature) == (dim, orientable, euler, signature)
    assert m.name == token


def test_sphere_zero_is_disconnected():
    s0 = sphere(0)
    # two points, each pairing to 1 with itself: the identity form
    assert s0.euler == 2 and s0.signature == 2
    assert s0.algebra.rank(0) == 2
    assert not s0.connected


def _product_reference(m, n) -> tuple:
    """(chi, orientable, sigma) of M x N by the closed forms, not the algebra.

    chi is multiplicative, a product is orientable exactly when both
    factors are, and sigma is multiplicative on the 4k lattice (0 when the
    factors are not 4k-dimensional themselves) and undefined off it.
    """
    orientable = m.orientable and n.orientable
    if not (orientable and (m.dim + n.dim) % 4 == 0):
        signature = None
    elif m.dim % 4 == 0 and n.dim % 4 == 0:
        signature = m.signature * n.signature
    else:
        signature = 0
    return m.euler * n.euler, orientable, signature


def test_every_ordered_product_of_two_atoms_builds(atoms):
    # S0 carries the identity form, so S0 x N is N + N and its signature
    # and p_1 are twice N's; read as N + (-N), S0 x CP2 breaks w_2^2 = p_1 mod 2
    tokens = {"S0": sphere(0), **atoms}
    built = 0
    for a, b in itertools.product(tokens, repeat=2):
        m, n = tokens[a], tokens[b]
        if m.dim + n.dim > 8:
            continue
        mn = parse_expression(f"{a} x {b}")
        assert mn.dim == m.dim + n.dim, (a, b)
        assert (mn.euler, mn.orientable, mn.signature) == _product_reference(m, n), (a, b)
        if "S0" in (a, b):
            other = n if a == "S0" else m
            if other.dim == 4 and other.orientable:
                assert mn.p1.number == 2 * other.p1.number, (a, b)
        built += 1
    assert built == 456 + 45  # the closure products in both orders, and the 45 with S0


def test_every_same_dimension_sum_of_two_atoms_follows_the_closed_forms(atoms):
    # chi(A # B) = chi(A) + chi(B) - chi(S^n); orientable exactly when both
    # summands are; sigma additive on the 4k lattice and undefined off it
    built = 0
    for a, b in itertools.product(atoms, repeat=2):
        m, n = atoms[a], atoms[b]
        if m.dim != n.dim:
            continue
        s = parse_expression(f"{a} # {b}")
        dim, orientable = m.dim, m.orientable and n.orientable
        signature = m.signature + n.signature if orientable and dim % 4 == 0 else None
        assert s.dim == dim, (a, b)
        assert s.euler == m.euler + n.euler - (1 + (-1) ** dim), (a, b)
        assert (s.orientable, s.signature) == (orientable, signature), (a, b)
        built += 1
    assert built == 156


def test_every_product_of_s0_and_two_atoms_builds(atoms):
    # S0 x A x B is two copies of A x B; before the pair labels were set
    # apart, (p, h) and (p*h, 1) both read p*h and S0 x CP2 x CP2 did not build
    built = 0
    for a, b in itertools.product(atoms, repeat=2):
        m, n = atoms[a], atoms[b]
        if m.dim + n.dim > 8:
            continue
        one, two = parse_expression(f"{a} x {b}"), parse_expression(f"S0 x {a} x {b}")
        assert two.algebra.ranks == tuple(2 * r for r in one.algebra.ranks), (a, b)
        assert (two.euler, two.orientable) == (2 * one.euler, one.orientable), (a, b)
        assert two.signature == (None if one.signature is None else 2 * one.signature), (a, b)
        assert (two.p1.value, two.w3_twisted.value) == (one.p1.value, one.w3_twisted.value), (a, b)
        built += 1
    assert built == 456


@pytest.mark.parametrize(
    "text,degree,labels",
    [
        ("S0 x CP2 x CP2", 2, ("p*h'", "q*h'", "p*h", "q*h")),
        ("S0 x RP2 x RP2", 1, ("p*a'", "q*a'", "p*a", "q*a")),
        ("RP2 x (RP2 x CP2)", 3, ("(a*h)'", "a*h'", "a*a^2'", "a^2*a'")),
        ("S2 x (S2 x S3)", 5, ("(s*s')'", "s*s''")),
        (
            "(RP2 x CP2) x (CP2 x S3)",
            6,
            ("a*(h*s)'", "h*h^2'", "a^2*h^2'", "a*h*s'", "h^2*h'", "a^2*h*h'", "a^2*h^2"),
        ),
    ],
)
def test_products_whose_pair_labels_would_meet_build(text, degree, labels):
    # each failed with duplicate basis labels: (p, h) and (p*h, 1) both read
    # p*h, and (1, a*h') and (a, h') both a*h'; only such products change labels
    m = parse_expression(text)
    flat = parse_expression(text.replace("(", "").replace(")", ""))
    assert (m.algebra.ranks, m.euler, m.orientable) == (flat.algebra.ranks, flat.euler, flat.orientable)
    assert m.algebra.labels(degree) == labels


def test_a_disconnected_nonorientable_4_manifold_reads_p1_off_its_class():
    # four copies of RP2 x RP2: w_2^2 is the sum of the four top classes, a
    # nonzero class that pairs to 4 = 0 with [M], and p_1 reduces to it
    m = parse_expression("(S0 x RP2) x (S0 x RP2)")
    assert m.algebra.rank(4) == 4 and m.p1.is_nonzero


def test_point_is_the_product_unit():
    pt = point()
    m = product(pt, real_projective(4))
    rp4 = real_projective(4)
    assert m.dim == 4 and m.euler == rp4.euler
    assert m.algebra.ranks == rp4.algebra.ranks
    assert [str(m.w.component(d)) for d in range(5)] == [
        str(rp4.w.component(d)) for d in range(5)
    ]


def test_spheres_are_stably_parallelizable():
    for n in (1, 2, 3, 4, 7):
        m = sphere(n)
        assert m.stably_parallelizable
        assert all(m.w.component(d).is_zero() for d in range(1, n + 1))


def _rp_whitney_oracle(n: int) -> list[int]:
    """Coefficients of (1+a)^(n+1) mod 2, degrees 0..n, via sympy."""
    a = sympy.Symbol("a")
    poly = sympy.Poly((1 + a) ** (n + 1), a)
    return [int(poly.coeff_monomial(a**d)) % 2 for d in range(n + 1)]


@pytest.mark.parametrize("n", range(1, 11))
def test_rp_whitney_class_oracle(n):
    m = real_projective(n)
    got = [int(coords(m.w.component(d)).sum()) % 2 for d in range(n + 1)]
    assert got == _rp_whitney_oracle(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cp_whitney_class_oracle(n):
    # w(CPn) = (1+h)^(n+1) mod 2 with h in degree 2
    m = atom(f"CP{n}")
    h = sympy.Symbol("h")
    poly = sympy.Poly((1 + h) ** (n + 1), h)
    for d in range(2 * n + 1):
        expected = int(poly.coeff_monomial(h ** (d // 2))) % 2 if d % 2 == 0 else 0
        assert int(coords(m.w.component(d)).sum()) % 2 == expected, d


def _monogenic_reference(n: int, step: int):
    """Dense tables and w of the truncated polynomial algebra on a class of degree ``step``.

    Degree ``step * i`` holds the power ``x^i`` (i <= n); ``x^i x^j = x^(i+j)``,
    ``Sq^(step j) x^i = C(i, j) x^(i+j)`` and ``w = (1 + x)^(n+1)``.
    """
    top = step * n
    ranks = [1 if d % step == 0 else 0 for d in range(top + 1)]
    mult = {
        (d1, d2): np.ones((ranks[d1], ranks[d2], ranks[d1 + d2]), dtype=np.uint8)
        for d1 in range(top + 1)
        for d2 in range(top + 1 - d1)
    }
    sq = {}
    for d in range(top + 1):
        for k in range(min(d, top - d) + 1):
            blk = np.zeros((ranks[d], ranks[d + k]), dtype=np.uint8)
            if blk.size:
                blk[0, 0] = comb(d // step, k // step) % 2
            sq[k, d] = blk
    w = [[comb(n + 1, d // step) % 2] if ranks[d] else [] for d in range(top + 1)]
    return mult, sq, w


@pytest.mark.parametrize("family,step", [("RP", 1), ("CP", 2)], ids=["RP", "CP"])
def test_projective_atoms_match_dense_references(family, step):
    for n in range(1, 25):
        m = atom(f"{family}{n}")
        mult, sq, w = _monogenic_reference(n, step)
        A = m.algebra
        for (d1, d2), blk in mult.items():
            got = A.mult_block(d1, d2)
            assert got.dtype == blk.dtype and np.array_equal(got, blk), (m.name, d1, d2)
        for (k, d), blk in sq.items():
            got = A.sq_block(k, d)
            assert got.dtype == blk.dtype and np.array_equal(got, blk), (m.name, k, d)
        assert [c.tolist() for c in m.w.components] == w, m.name
        # one stored table per unordered degree pair
        assert {(d1, d2) for (d1, d2), blk in mult.items() if blk.any() and d1 <= d2} == set(A.mult), m.name
        assert {key for key, blk in sq.items() if blk.any()} == set(A.sq_table), m.name


def test_lucas_parity_matches_the_binomial_coefficient():
    for n in range(256):
        for k in range(256):
            assert _odd_binomial(n, k) == (comb(n, k) % 2 == 1), (n, k)


def test_k3_record():
    m = k3()
    assert m.w.component(1).is_zero() and m.w.component(2).is_zero()
    assert m.p1.number == -48 == 3 * m.signature
    assert m.algebra.ranks == (1, 0, 22, 0, 1)
    assert m.torsion_free and not m.stably_parallelizable


def test_rp_p1_parity():
    # p_1(RPn) reduces to C(n+1,2) a^4
    assert real_projective(4).p1.is_zero  # C(5,2) = 10 even
    assert real_projective(5).p1.is_nonzero  # C(6,2) = 15 odd
    assert real_projective(7).p1.is_zero  # C(8,2) = 28 even
    assert real_projective(3).p1.is_zero  # H^4 = 0


def test_surface_families():
    torus = orientable_surface(1)
    assert torus.euler == 0 and torus.algebra.ranks == (1, 2, 1)
    klein = nonorientable_surface(2)
    assert klein.euler == 0 and not klein.orientable
    assert klein.w.component(2).is_zero()
    assert not nonorientable_surface(1).w.component(2).is_zero()  # chi(N1) odd


def test_atom_token_errors():
    with pytest.raises(ValueError, match="unknown atom"):
        atom("T2")
    with pytest.raises(ValueError, match="out of range"):
        atom("RP0")
    with pytest.raises(ValueError, match="out of range"):
        atom("N0")
    with pytest.raises(ValueError, match="out of range"):
        atom("CP0")
    for token in ("RP٣", "S４", "Sigma²"):  # digits of other scripts are not ASCII
        with pytest.raises(ValueError, match="unknown atom"):
            atom(token)
    assert atom("Sigma0").name == "Sigma0"


def test_every_row_of_the_atom_table_parses_and_families_refuse_below_their_least_index():
    # atom() and the expression tokenizer read one table: a single atom, and
    # a family at its least index, parse to the record of the row's factory
    for form, _, factory, lowest in catalog._ATOMS:
        stem = form.partition("<")[0]
        if lowest is None:
            token, expected = form, factory()
        else:
            token, expected = f"{stem}{lowest}", factory(lowest)
            if lowest:
                below = rf"^{stem}\({lowest - 1}\) is out of range \(needs >= {lowest}\)$"
                with pytest.raises(ValueError, match=below):
                    atom(f"{stem}{lowest - 1}")
        m = parse_expression(token)
        assert m.name == expected.name == token
        assert (m.dim, m.euler, m.signature, m.w.parts) == (
            expected.dim, expected.euler, expected.signature, expected.w.parts
        )


def test_cp2_reversed_has_the_mod2_data_of_cp2():
    cp2, reversed_ = complex_projective(2), cp2_reversed()
    a, b = cp2.algebra, reversed_.algebra
    assert (a.basis, a.products, a.squares) == (b.basis, b.products, b.squares)
    assert (cp2.w.parts, cp2.wu.parts) == (reversed_.w.parts, reversed_.wu.parts)
    assert (reversed_.signature, reversed_.p1.number, reversed_.torsion_free) == (-1, -3, True)
    assert (reversed_.w3_twisted.is_zero, reversed_.w3_twisted.note) == (True, "H^3 = 0")


# ---------------------------------------------------------------------------
# combinations


def test_connected_sum_invariants():
    m = connected_sum(real_projective(4), real_projective(4))
    assert m.name == "RP4 # RP4"
    assert m.euler == 0 and not m.orientable and m.signature is None
    assert m.algebra.ranks == (1, 2, 2, 2, 1)


def test_connected_sum_signature_additivity():
    m = connected_sum(atom("CP2"), cp2_reversed())
    assert m.signature == 0 and m.euler == 4
    assert m.p1.number == 0
    n = connected_sum(atom("CP2"), atom("CP2"))
    assert n.signature == 2 and n.p1.number == 6


def test_connected_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="cannot sum dimensions"):
        connected_sum(real_projective(4), sphere(3))


def test_connected_sum_rejects_disconnected():
    with pytest.raises(ValueError):
        connected_sum(sphere(0), sphere(0))


def test_connected_sum_odd_dimension_euler():
    m = connected_sum(sphere(3), real_projective(3))
    assert m.euler == 0  # chi additivity has no -2 correction in odd dims


def test_connected_sum_reads_a_nonzero_w3_off_its_shadow():
    # W_3(RP2 x RP2) != 0, and the mod-2 shadow Sq^1 w_2 + w_1 w_2 of the
    # sum is the sum of the summands' shadows, so it certifies W_3 != 0
    m = parse_expression("(RP2 x RP2) # (RP2 x RP2)")
    assert parse_expression("RP2 x RP2").w3_twisted.is_nonzero
    assert m.w3_twisted == (Tri.NONZERO, "Sq^1 w_2 + w_1 w_2 != 0")


def test_product_invariants():
    m = product(real_projective(2), sphere(2))
    assert m.name == "RP2 x S2"
    assert m.dim == 4 and m.euler == 2 and not m.orientable
    assert m.signature is None


def test_product_signature_rules():
    zero = product(sphere(2), sphere(2))
    assert zero.signature == 0  # neither factor is 4k-dimensional
    cp = product(atom("CP2"), atom("CP2"))
    assert cp.signature == 1  # multiplicativity on the 4k lattice
    assert product(sphere(4), sphere(4)).signature == 0


def test_product_name_parenthesizes_sums():
    m = product(connected_sum(atom("CP2"), atom("CP2")), sphere(2))
    assert m.name == "(CP2 # CP2) x S2"


def test_product_p1_from_parallelizable_factor():
    m = product(real_projective(5), sphere(3))
    assert m.p1.is_nonzero  # pulled back from RP5
    n = product(sphere(3), real_projective(7))
    assert n.p1.is_zero  # pulled back from RP7


def test_product_p1_w2_square_rule():
    m = product(real_projective(4), real_projective(4))
    assert m.p1.is_nonzero  # w_2^2 != 0 upstairs


def test_stable_parallelizability_propagates():
    assert product(sphere(1), sphere(3)).stably_parallelizable
    assert connected_sum(sphere(4), sphere(4)).stably_parallelizable
    assert not product(sphere(1), real_projective(3)).stably_parallelizable


def test_torsion_free_flag_on_combinations():
    assert product(sphere(2), sphere(2)).torsion_free
    # non-orientable 4-manifolds always have 2-torsion at the top
    assert not product(real_projective(2), sphere(2)).torsion_free
    assert not connected_sum(real_projective(4), real_projective(4)).torsion_free


# ---------------------------------------------------------------------------
# validation


def test_validate_manifold_passes_on_catalog():
    for token in ("S3", "RP4", "CP2", "K3", "N2"):
        validate_manifold(atom(token))  # no exception


def test_validate_rejects_orientability_lie():
    forged = replace(real_projective(4), orientable=True)
    with pytest.raises(InvariantViolation, match="orientability"):
        validate_manifold(forged)


def test_w3_is_resolved_once_per_record(monkeypatch):
    # RP2, RP2 again and the product: one W_3 resolution each
    calls = []
    resolve = catalog.w3_twisted_status
    monkeypatch.setattr(catalog, "w3_twisted_status", lambda *args: calls.append(args) or resolve(*args))
    parse_expression("RP2 x RP2")
    assert len(calls) == 3


# each settling step of _assemble refuses a document whose declaration
# contradicts it, under the name of the field at fault; p1 "unknown" is how
# a generated document declares it, so a wrong sigma is not blamed on p_1
@pytest.mark.parametrize(
    "expr,changes,name,match",
    [
        (
            "K3",
            {"signature": -15, "p1": "unknown"},
            "signature parity",
            "^signature parity: sigma = -15 and chi = 24 differ mod 2$",
        ),
        (
            "CP2",
            {"signature": 0, "p1": "unknown"},
            "signature parity",
            "^signature parity: sigma = 0 and chi = 3 differ mod 2$",
        ),
        (
            "K3",
            {"signature": None, "p1": "unknown"},
            "signature",
            "^signature: oriented 4k-manifold needs a signature$",
        ),
        ("S4", {"signature": 2}, "signature", r"^signature: \|sigma\| = 2 exceeds the middle rank$"),
        ("K3", {"p1": {"int": 0}}, "p1-signature", "^p1-signature: p_1 = 0 but 3 sigma = -48$"),
        ("K3", {"p1": {"int": -47}}, "p1-signature", "^p1-signature: p_1 = -47 but 3 sigma = -48$"),
        ("CP2", {"p1": "zero"}, "p1-signature", "^p1-signature: document p1 contradicts 3 sigma = 3$"),
        (
            "RP2 x RP2",
            {"p1": "zero"},
            "p1-reduction",
            r"^p1-reduction: p_1 of a non-orientable 4-manifold is determined by w_2\^2$",
        ),
    ],
    ids=[
        "k3-parity", "cp2-parity", "signature-missing", "signature-range", "p1-integer",
        "p1-integer-odd", "p1-status", "p1-nonorientable",
    ],
)
def test_documents_are_refused_at_the_settling_step(expr, changes, name, match):
    doc = manifold_document(parse_expression(expr))
    doc.update(changes)
    with pytest.raises(InvariantViolation, match=match) as info:
        load_manifold(doc)
    assert info.value.name == name


# v_2k = 0 makes the middle intersection form even, so 8 | sigma; a smooth
# spin 4-manifold has 16 | sigma (Rokhlin).  Each sigma below passes the
# parity and middle-rank checks, so only the congruence refuses it.
@pytest.mark.parametrize(
    "expr,sigma,match",
    [
        ("K3", -14, r"^signature: sigma = -14 but v_2 = 0 makes the form even, so 8 \| sigma$"),
        ("K3", 8, r"^signature: sigma = 8 but w_2 = 0 makes M spin, so 16 \| sigma \(Rokhlin\)$"),
        ("K3 x K3", 4, r"^signature: sigma = 4 but v_4 = 0 makes the form even, so 8 \| sigma$"),
    ],
    ids=["k3-mod-8", "k3-rokhlin", "k3xk3-mod-8"],
)
def test_documents_are_refused_off_the_signature_congruences(expr, sigma, match):
    doc = manifold_document(parse_expression(expr))
    doc.update(signature=sigma, p1="unknown")
    with pytest.raises(InvariantViolation, match=match) as info:
        load_manifold(doc)
    assert info.value.name == "signature"


def test_validate_rejects_sp_with_nonzero_w():
    # RP5 is orientable, but w_2 != 0 rules out stable parallelizability
    forged = replace(real_projective(5), name="RP5-forged", stably_parallelizable=True)
    with pytest.raises(InvariantViolation, match="stable-parallelizability"):
        validate_manifold(forged)


# every refusal of validate_manifold that the catalog and document tests
# above do not reach, each on a catalog record with one field forged
@pytest.mark.parametrize(
    "forge,name,match",
    [
        (
            lambda: replace(real_projective(4), p1=P1Data.integer(0)),
            "p1-kind",
            "integer p_1 needs an oriented 4-dimensional base",
        ),
        (lambda: replace(k3(), p1=P1Data(Tri.ZERO, -48)), "p1-kind", "p_1 = -48 is recorded as zero"),
        (lambda: replace(k3(), p1=P1Data.integer(-47)), "p1-reduction", "p_1 = -47 but"),
        (
            lambda: replace(complex_projective(4), p1=P1Data.zero_class()),
            "p1-reduction",
            r"w_2\^2 != 0 forces",
        ),
        (
            lambda: replace(real_projective(4), stably_parallelizable=True),
            "stable-parallelizability",
            "non-orientable",
        ),
        (
            lambda: replace(sphere(5), p1=P1Data.nonzero_class()),
            "stable-parallelizability",
            "p_1 != 0",
        ),
        (lambda: replace(real_projective(4), torsion_free=True), "torsion-flag", "torsion"),
    ],
    ids=[
        "p1-kind-integer", "p1-kind-status",
        "p1-reduction-dim4", "p1-reduction-dim8", "sp-nonorientable", "sp-p1", "torsion-flag",
    ],
)
def test_validate_manifold_refusals(forge, name, match):
    with pytest.raises(InvariantViolation, match=match) as info:
        validate_manifold(forge())
    assert info.value.name == name


@pytest.mark.parametrize(
    "m,changes,name",
    [
        (real_projective(4), {"orientable": True}, "orientability"),
        (real_projective(4), {"p1": P1Data.integer(0)}, "p1-kind"),
        (k3(), {"p1": P1Data(Tri.ZERO, -48)}, "p1-kind"),
        (k3(), {"p1": P1Data.integer(-47)}, "p1-reduction"),
        (sphere(3), {"p1": P1Data.nonzero_class()}, "p1-range"),
        (complex_projective(4), {"p1": P1Data.zero_class()}, "p1-reduction"),
        (real_projective(6), {"p1": P1Data.zero_class()}, "p1-reduction"),
        (parse_expression("RP2 x RP2"), {"p1": P1Data.zero_class()}, "p1-reduction"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_records_and_descriptors_refuse_through_one_check(m, changes, name):
    # a record's tangent data breaking a rule every bundle obeys is refused
    # under the record's name, with the words a descriptor gets
    forged = replace(m, **changes)
    with pytest.raises(InvariantViolation) as record:
        validate_manifold(forged)
    with pytest.raises(InvariantViolation) as descriptor:
        BundleDescriptor(forged.dim, forged.w, forged.p1, forged.orientable)
    assert (record.value.name, descriptor.value.name) == (name, "bundle-descriptor")
    assert str(record.value)[len(name):] == str(descriptor.value)[len("bundle-descriptor"):]


# ---------------------------------------------------------------------------
# documents


def rp2_document() -> dict:
    return {
        "name": "RP2",
        "dim": 2,
        "orientable": False,
        "euler": 1,
        "basis": [["1"], ["a"], ["a^2"]],
        "mult": [[1, 0, 1, 0, [1]]],
        "sq": [[1, 1, 0, [1]]],
        "w": [[1], [1], [1]],
        "p1": "zero",
    }


def test_load_manifold_round_trip():
    doc = rp2_document()
    m = load_manifold(doc)
    ref = real_projective(2)
    assert m.name == ref.name and m.dim == ref.dim
    assert m.euler == ref.euler and m.orientable == ref.orientable
    assert m.algebra.ranks == ref.algebra.ranks
    for d in range(3):
        assert np.array_equal(coords(m.w.component(d)), coords(ref.w.component(d)))
    assert m.p1.is_zero and m.w3_twisted.is_zero


def test_load_manifold_infers_w_when_absent():
    doc = rp2_document()
    del doc["w"]
    m = load_manifold(doc)
    assert str(m.w) == "1 + a + a^2"


def test_load_manifold_mirror_fills_mult():
    doc = rp2_document()
    m = load_manifold(doc)
    blk = m.algebra.mult_block(1, 1)
    assert blk[0, 0, 0] == 1


def test_load_manifold_normalizes_redundant_zero_signature():
    doc = rp2_document()
    doc["signature"] = 0
    m = load_manifold(doc)
    assert m.signature is None


def test_load_manifold_completes_p1_from_signature():
    doc = {
        "name": "S4",
        "dim": 4,
        "orientable": True,
        "euler": 2,
        "signature": 0,
        "basis": [["1"], [], [], [], ["s"]],
        "p1": "unknown",
    }
    m = load_manifold(doc)
    assert m.p1.number == 0


def test_load_manifold_completes_p1_from_w2_square():
    doc = rp4_document()
    doc["p1"] = "unknown"
    m = load_manifold(doc)
    assert m.p1.is_zero  # w_2(RP4) = 0, so w_2^2 = 0


def test_load_manifold_rejects_p1_reduction_conflict():
    doc = rp4_document()
    doc["p1"] = "nonzero"
    with pytest.raises(
        InvariantViolation, match=r"p_1 of a non-orientable 4-manifold is determined by w_2\^2$"
    ) as info:
        load_manifold(doc)
    assert info.value.name == "p1-reduction"


def test_load_manifold_rejects_a_class_p1_against_the_signature():
    # a class-kind p_1 must vanish exactly when 3 sigma does
    doc = {
        "name": "S4",
        "dim": 4,
        "orientable": True,
        "euler": 2,
        "signature": 0,
        "basis": [["1"], [], [], [], ["s"]],
        "p1": "nonzero",
    }
    with pytest.raises(InvariantViolation, match="document p1 contradicts 3 sigma = 0") as info:
        load_manifold(doc)
    assert info.value.name == "p1-signature"


def _descriptor_document() -> dict:
    return {"rank": 4, "orientable": True, "w": [[1], [], [], [], [0]], "p1": "zero"}


@pytest.mark.parametrize(
    "doc,match",
    [
        ([_descriptor_document()], "must be a JSON object"),
        ({**_descriptor_document(), "name": "xi"}, r"unexpected fields \['name'\]"),
        ({**_descriptor_document(), "rank": -1}, "rank must be a nonnegative integer"),
        ({**_descriptor_document(), "rank": 4.0}, "rank must be a nonnegative integer"),
        ({**_descriptor_document(), "rank": True}, "rank must be a nonnegative integer"),
    ],
    ids=["not-an-object", "unexpected-field", "negative-rank", "float-rank", "bool-rank"],
)
def test_load_descriptor_refusals(doc, match):
    with pytest.raises(SchemaError, match=match):
        load_descriptor(doc, sphere(4).algebra)


def test_load_descriptor_accepts_the_trivial_document():
    xi = load_descriptor(_descriptor_document(), sphere(4).algebra)
    assert (xi.rank, xi.orientable, str(xi.w_total)) == (4, True, "1")
    assert xi.p1.is_zero


# (expression, descriptor w: "one" or the tangent w, p1 field, refusal)
CONTRADICTING_P1 = [
    # <p_1, [M]> is an integer only over an oriented 4-manifold
    ("RP4", "one", {"int": 0}, "integer p_1 needs an oriented 4-dimensional base"),
    ("CP3", "one", {"int": 4}, "integer p_1 needs an oriented 4-dimensional base"),
    ("S3", "one", {"int": 0}, "integer p_1 needs an oriented 4-dimensional base"),
    # p_1 reduces to w_2^2 mod 2
    ("S2 x S2", "one", {"int": 5}, r"p_1 = 5 but <w_2\^2, \[M\]> = 0"),
    ("CP2", "tangent", {"int": 2}, r"p_1 = 2 but <w_2\^2, \[M\]> = 1"),
    ("CP2", "tangent", "zero", r"w_2\^2 != 0 forces p_1 != 0"),
    ("CP2 x S2", "tangent", "zero", r"w_2\^2 != 0 forces p_1 != 0"),
    # H^4 = 0 below dimension 4
    ("S3", "one", "nonzero", r"H\^4 = 0 forces p_1 = 0"),
    ("RP3", "one", "nonzero", r"H\^4 = 0 forces p_1 = 0"),
]


def _bundle_document(m, w: str, p1) -> dict:
    total = [[1]] + [[0] * m.algebra.rank(d) for d in range(1, m.dim + 1)]
    if w == "tangent":
        total = [c.tolist() for c in m.w.components]
    return {"rank": m.dim, "orientable": w == "one" or m.orientable, "w": total, "p1": p1}


@pytest.mark.parametrize("expr,w,p1,match", CONTRADICTING_P1)
def test_load_descriptor_refuses_a_contradicting_p1(expr, w, p1, match):
    m = parse_expression(expr)
    with pytest.raises(InvariantViolation, match=match) as info:
        load_descriptor(_bundle_document(m, w, p1), m.algebra)
    assert info.value.name == "bundle-descriptor"


@pytest.mark.parametrize(
    "expr,w,p1",
    # every base and w above, with p_1 unknown and with a p_1 that fits
    [(expr, w, "unknown") for expr, w, *_ in CONTRADICTING_P1]
    + [
        ("S2 x S2", "one", {"int": 4}),
        ("CP2", "tangent", {"int": 3}),
        ("CP2 x S2", "tangent", "nonzero"),
        ("RP4", "one", "zero"),
        ("S3", "one", "zero"),
    ],
)
def test_load_descriptor_accepts_a_consistent_p1(expr, w, p1):
    m = parse_expression(expr)
    xi = load_descriptor(_bundle_document(m, w, p1), m.algebra)
    assert xi.rank == m.dim


def test_load_descriptor_refuses_a_w_off_wu_formula():
    # no bundle over RP4 has w = 1 + a + a^3: Sq^1 w_2 = 0, but Wu's formula
    # gives w_1 w_2 + w_3 = a^3
    doc = {"rank": 4, "w": [[1], [1], [0], [1], [0]], "p1": "zero", "orientable": False}
    with pytest.raises(InvariantViolation) as info:
        load_descriptor(doc, real_projective(4).algebra)
    assert info.value.name == "wu-formula"
    assert str(info.value) == "wu-formula: Sq^1 w_2 = 0, but Wu's formula gives a^3"


@pytest.mark.parametrize("n", range(2, 9))
def test_wu_formula_on_projective_descriptors(n):
    # on RP(n), Sq^k a^m = C(m, k) a^(m+k), so the formula reads on the
    # coefficients c_d of w = sum c_d a^d: every w with c_0 = 1 is refused
    # exactly where it breaks the formula, and j copies of the line bundle,
    # w = (1 + a)^j, are accepted
    A = real_projective(n).algebra

    def obeys(c) -> bool:
        return all(
            c[m] * comb(m, k) % 2
            == sum(comb(m - k + t - 1, t) * c[k - t] * c[m + t] for t in range(k + 1)) % 2
            for m in range(2, n)
            for k in range(1, min(m, n - m + 1))
        )

    accepted = set()
    for c in itertools.product((1,), *[(0, 1)] * n):
        doc = {"rank": n, "w": [[x] for x in c], "p1": "unknown", "orientable": not c[1]}
        try:
            load_descriptor(doc, A)
        except InvariantViolation as exc:
            assert exc.name == "wu-formula" and not obeys(c), c
        else:
            assert obeys(c), c
            accepted.add(c)
    assert {tuple(comb(j, d) % 2 for d in range(n + 1)) for j in range(2 * n + 2)} <= accepted
    assert (len(accepted) < 2**n) == (n > 2)


def test_tangent_descriptors_of_the_connected_closure_load(connected_closure):
    # every record's tangent data is a bundle, so it obeys Wu's formula
    for m in connected_closure:
        doc = {"rank": m.dim, "w": [c.tolist() for c in m.w.components], "p1": _p1_field(m), "orientable": m.orientable}
        assert load_descriptor(doc, m.algebra).w_total == m.w, m.name
    assert len(connected_closure) == 349


def test_records_skip_the_wu_check(monkeypatch):
    # construction and manifold documents never run it: a record's w is Sq(v)
    def refuse(w):
        raise AssertionError("the Wu check ran")

    monkeypatch.setattr(catalog, "_check_wu_formula", refuse)
    for expr in ("RP40", "CP3 x RP3", "3#RP4 x S1", "K3 # CP2~"):
        parse_expression(expr)
    load_manifold(manifold_document(parse_expression("RP4 x RP2")))


def rp4_document() -> dict:
    mult = []
    for d1 in range(1, 4):
        for d2 in range(1, 5 - d1):
            mult.append([d1, 0, d2, 0, [1]])
    # Sq^k(a^d) = C(d,k) a^(d+k)
    sq = [[1, 1, 0, [1]], [1, 2, 0, [0]], [2, 2, 0, [1]], [1, 3, 0, [1]]]
    return {
        "name": "RP4",
        "dim": 4,
        "orientable": False,
        "euler": 1,
        "basis": [["1"], ["a"], ["a^2"], ["a^3"], ["a^4"]],
        "mult": mult,
        "sq": sq,
        "w": [[1], [1], [0], [0], [1]],
        "p1": "zero",
    }


def test_load_manifold_rp4_document():
    m = load_manifold(rp4_document())
    ref = real_projective(4)
    assert str(m.w) == str(ref.w) == "1 + a + a^4"
    assert m.w3_twisted.is_zero


@pytest.mark.parametrize(
    "mutate,error,match",
    [
        (lambda d: d.update(euler=2), InvariantViolation, "Euler parity"),
        (lambda d: d.update(euler=3), InvariantViolation, "^euler-rank: chi = 3 but the ranks alternate to 1$"),
        (lambda d: d.update(orientable=True), InvariantViolation, "orientability"),
        (
            lambda d: d.update(signature=1),
            InvariantViolation,
            "^signature: signature recorded where none is defined$",
        ),
        (
            # S4 with its flag flipped: the declared flag is checked before its
            # zero signature is kept or dropped
            lambda d: d.update(
                dim=4, orientable=False, euler=2, signature=0,
                basis=[["1"], [], [], [], ["s"]], mult=[], sq=[], w=None, p1={"int": 0},
            ),
            InvariantViolation,
            "^orientability: orientability flag contradicts w_1$",
        ),
        (lambda d: d.update(dim="2"), SchemaError, "integer"),
        (lambda d: d.update(dim=-1), SchemaError, "^dim must be >= 0$"),
        (lambda d: d.update(signature=True), SchemaError, "^field 'signature' must be an integer$"),
        # a name is printed as given, so only a string is one
        (lambda d: d.update(name=5), SchemaError, "^field 'name' must be a string$"),
        (lambda d: d.update(name=None), SchemaError, "^field 'name' must be a string$"),
        (lambda d: d.update(name=["RP2"]), SchemaError, "^field 'name' must be a string$"),
        (lambda d: d.update(extra=1), SchemaError, "unknown document fields"),
        (lambda d: d.pop("p1"), SchemaError, "missing required field"),
        (lambda d: d.update(basis=[["1"], ["a"]]), SchemaError, "basis"),
        (lambda d: d.update(basis=[["1", "u"], ["a"], ["a^2"]]), SchemaError, "exactly one"),
        (
            # refused before its entries, which name a class 1 of degree 1
            lambda d: d.update(basis=[["1"], ["a", "a"], ["t"]], mult=[[1, 1, 1, 1, [7]]]),
            SchemaError,
            "^basis: duplicate labels in degree 1$",
        ),
        (lambda d: d.update(mult=[[1, 0, 1, 0, [1, 1]]]), SchemaError, "length 1"),
        (lambda d: d.update(mult=[[1, 0, 9, 0, [1]]]), SchemaError, "degree out of range"),
        (lambda d: d.update(mult=[[1, 5, 1, 0, [1]]]), SchemaError, "index out of range"),
        (lambda d: d.update(mult=[[1, 0, 2, 0, [1]]]), SchemaError, "exceeds dim"),
        (lambda d: d.update(sq=[[1, 1, 0, [2]]]), SchemaError, "0 or 1"),
        (lambda d: d.update(sq=[[2, 1, 0, [1]]]), SchemaError, "vanishes"),
        # a vanishing entry's row is read before it is judged
        (lambda d: d.update(sq=[[2, 1, 0, [True]]]), SchemaError, "^sq entry 0: coordinates must be 0 or 1$"),
        (lambda d: d.update(sq=[[2, 1, 0, ["x"]]]), SchemaError, "^sq entry 0: coordinates must be 0 or 1$"),
        (lambda d: d.update(sq=[[2, 1, 0, [2]]]), SchemaError, "^sq entry 0: coordinates must be 0 or 1$"),
        (lambda d: d.update(sq=[[1, 5, 0, [1]]]), SchemaError, "degree data out of range"),
        (lambda d: d.update(sq=[[-1, 1, 0, [1]]]), SchemaError, "degree data out of range"),
        (lambda d: d.update(sq=[[1, 1, 3, [1]]]), SchemaError, "index out of range"),
        (lambda d: d.update(sq=[[2, 1, 0, 0]]), SchemaError, r"expected \[k, deg, idx, coords\]"),
        # an entry that is not a list of 4 items, after a good one
        (lambda d: d["sq"].append(7), SchemaError, r"^sq entry 1: expected \[k, deg, idx, coords\]$"),
        (lambda d: d["sq"].append([1, 1, 0]), SchemaError, r"^sq entry 1: expected \[k, deg, idx, coords\]$"),
        (
            lambda d: d["sq"].append([1, 1, 0, [1], [1]]),
            SchemaError,
            r"^sq entry 1: expected \[k, deg, idx, coords\]$",
        ),
        (lambda d: d.update(mult=None), SchemaError, "^field 'mult' must be a list of entries$"),
        (lambda d: d.update(sq={}), SchemaError, "^field 'sq' must be a list of entries$"),
        (lambda d: d.update(w=[[1], [1]]), SchemaError, "per degree"),
        (lambda d: d.update(p1="maybe"), SchemaError, "p1 must be"),
        (lambda d: d.update(p1={"int": 3, "note": ""}), SchemaError, "p1 must be"),
        (
            lambda d: d.update(p1={"int": 0}),
            InvariantViolation,
            "^p1-kind: integer p_1 needs an oriented 4-dimensional base$",
        ),
        (lambda d: d.update(w3_twisted="sometimes"), SchemaError, "w3_twisted"),
        (lambda d: d.update(w=[[1], [0], [1]]), InvariantViolation, "wu-consistency"),
        (
            lambda d: d.update(dim=4, basis=[["1"]] + [[f"c{i}" for i in range(300)]] * 3 + [["t"]]),
            SchemaError,
            "basis: the dense tables would take 82260605 bytes, over the budget",
        ),
    ],
)
def test_load_manifold_rejections(mutate, error, match):
    doc = rp2_document()
    mutate(doc)
    with pytest.raises(error, match=match) as info:
        load_manifold(doc)
    if str(info.value).startswith(("mult", "sq", "field 'mult'", "field 'sq'", "basis: ")):
        _built_alike(doc, info.value)


def test_load_manifold_names_an_unnamed_document():
    doc = rp2_document()
    del doc["name"]
    assert load_manifold(doc).name == "document"


def test_load_manifold_drops_a_zero_sq_entry_out_of_range():
    # Sq^2 on degree 1 vanishes, so an all-zero row for it is accepted and dropped
    doc = rp2_document()
    doc["sq"].append([2, 1, 0, [0]])
    m, plain = load_manifold(doc), load_manifold(rp2_document())
    assert (m.algebra.products, m.algebra.squares) == (plain.algebra.products, plain.algebra.squares)
    assert str(m.w) == str(plain.w) == "1 + a + a^2"


def _built_alike(doc: dict, refusal: Exception) -> None:
    """``build_algebra`` on the document's tables refuses them word for word as the loader did."""
    with pytest.raises(type(refusal)) as info:
        build_algebra(doc["dim"], doc["basis"], doc.get("mult", []), doc.get("sq", []))
    assert str(info.value) == str(refusal)


def test_load_manifold_reads_its_tables_through_build_algebra_once(monkeypatch):
    # the one intake of outside tables, called through the module-level name
    # that bench/spans.py rebinds to time it
    calls = []

    def spy(*args):
        calls.append(args)
        return build_algebra(*args)

    monkeypatch.setattr(catalog, "build_algebra", spy)
    s2 = {"dim": 2, "orientable": True, "euler": 2, "basis": [["1"], [], ["s"]], "p1": "zero"}
    docs = [s2, rp2_document(), rp4_document(), ring_document(RINGS["F2[a,b]/(a^4,b^3)"])]
    for count, doc in enumerate(docs, 1):
        load_manifold(doc)
        assert len(calls) == count
        assert calls[-1] == (doc["dim"], doc["basis"], doc.get("mult", []), doc.get("sq", []))


def test_load_manifold_rejects_conflicting_mult_entries():
    doc = rp2_document()
    doc["mult"] = [[1, 0, 1, 0, [1]], [1, 0, 1, 0, [0]]]
    with pytest.raises(SchemaError, match="conflicts") as info:
        load_manifold(doc)
    _built_alike(doc, info.value)


def test_load_manifold_accepts_an_explicit_mirror_with_the_same_row():
    doc = rp4_document()
    assert doc["mult"][1] == [1, 0, 2, 0, [1]] and doc["mult"][3] == [2, 0, 1, 0, [1]]
    m = load_manifold(doc)
    assert m.algebra.mult_block(1, 2)[0, 0, 0] == m.algebra.mult_block(2, 1)[0, 0, 0] == 1


def test_load_manifold_rejects_a_mirror_contradicting_an_earlier_row():
    doc = rp4_document()
    doc["mult"][3] = [2, 0, 1, 0, [0]]  # the mirror of entry 1, which holds [1]
    with pytest.raises(SchemaError, match=r"^mult entry 3: conflicts with an earlier entry$") as info:
        load_manifold(doc)
    _built_alike(doc, info.value)


@pytest.mark.parametrize("table", ["mult", "sq"])
def test_load_manifold_lets_a_nonzero_row_follow_a_zero_one(table):
    doc = rp2_document()
    if table == "mult":
        doc["mult"] = [[1, 0, 1, 0, [0]], [1, 0, 1, 0, [1]]]  # the diagonal is its own mirror
    else:
        doc["sq"] = [[1, 1, 0, [0]], [1, 1, 0, [1]]]
    m = load_manifold(doc)
    assert m.algebra.mult_block(1, 1)[0, 0, 0] == m.algebra.sq_block(1, 1)[0, 0] == 1


def test_load_manifold_accepts_a_diagonal_entry_and_its_repeat():
    doc = rp2_document()
    doc["mult"] = [[1, 0, 1, 0, [1]], [1, 0, 1, 0, [1]]]
    m = load_manifold(doc)
    assert m.algebra.mult_block(1, 1).tolist() == [[[1]]]


def _ring_entry(doc: dict, key: list[int]) -> int:
    return next(pos for pos, entry in enumerate(doc["mult"]) if entry[:4] == key)


def _ring_products(doc: dict) -> dict:
    return dict(load_manifold(doc).algebra.products)


# in F2[a,b]/(a^4,b^3) with deg b = 2, degrees 2 and 3 have rank 2, so two
# different rows can both be nonzero: a * b = ab and a * a = a^2
@pytest.mark.parametrize("mirror_first", [False, True])
def test_load_manifold_refuses_a_mirror_with_another_nonzero_row_at_the_later_entry(mirror_first):
    doc = ring_document(RINGS["F2[a,b]/(a^4,b^3)"])
    pos = _ring_entry(doc, [1, 0, 2, 0])
    row = doc["mult"][pos][4]
    mirror = [2, 0, 1, 0, [1, 1]]
    assert row != mirror[4] and any(row)
    if mirror_first:
        doc["mult"].insert(0, mirror)
        later = pos + 1
    else:
        doc["mult"].append(mirror)
        later = len(doc["mult"]) - 1
    with pytest.raises(SchemaError) as info:
        load_manifold(doc)
    assert str(info.value) == f"mult entry {later}: conflicts with an earlier entry"
    _built_alike(doc, info.value)


def test_load_manifold_lets_a_zero_row_give_way_to_its_mirror():
    doc = ring_document(RINGS["F2[a,b]/(a^4,b^3)"])
    want = _ring_products(doc)
    pos = _ring_entry(doc, [1, 0, 2, 0])
    row = doc["mult"][pos][4]
    doc["mult"][pos] = [1, 0, 2, 0, [0, 0]]
    doc["mult"].append([2, 0, 1, 0, row])
    assert _ring_products(doc) == want


@pytest.mark.parametrize(
    "first,second,conflict",
    [("row", "row", False), ("zero", "row", False), ("row", "other", True), ("row", "zero", True)],
)
def test_load_manifold_reads_a_diagonal_entry_given_twice(first, second, conflict):
    doc = ring_document(RINGS["F2[a,b]/(a^4,b^3)"])
    want = _ring_products(doc)
    pos = _ring_entry(doc, [1, 0, 1, 0])
    rows = {"row": doc["mult"][pos][4], "zero": [0, 0], "other": [1, 1]}
    assert rows["row"] not in (rows["zero"], rows["other"])
    doc["mult"][pos] = [1, 0, 1, 0, rows[first]]
    doc["mult"].append([1, 0, 1, 0, rows[second]])
    if conflict:
        with pytest.raises(SchemaError) as info:
            load_manifold(doc)
        assert str(info.value) == f"mult entry {len(doc['mult']) - 1}: conflicts with an earlier entry"
        _built_alike(doc, info.value)
    else:
        assert _ring_products(doc) == want


@pytest.mark.parametrize(
    "field,entries,message",
    [
        (
            "mult",
            [[1, 0, 1, 0, [1]], [1, 0, 1, 0, [0]], [1, 0, 1, 0, [1, 1]]],
            "mult entry 1: conflicts with an earlier entry",
        ),
        (
            "mult",
            [[1, 0, 1, 0, [1]], [1, 0, 1, 0, [1, 1]], [1, 0, 1, 0, [0]]],
            "mult entry 1: expected a 0/1 vector of length 1",
        ),
        (
            "sq",
            [[1, 1, 0, [1]], [1, 1, 0, [0]], [1, 1, 0, [2]]],
            "sq entry 1: conflicts with an earlier entry",
        ),
        (
            "sq",
            [[1, 1, 0, [1]], [2, 1, 0, [1]], [1, 1, 0, [0]]],
            "sq entry 1: Sq^2 vanishes on degree 1 here",
        ),
    ],
)
def test_load_manifold_reports_the_first_bad_entry(field, entries, message):
    doc = rp2_document()
    doc[field] = entries
    with pytest.raises(SchemaError) as info:
        load_manifold(doc)
    assert str(info.value) == message
    _built_alike(doc, info.value)


def test_load_manifold_rejects_degenerate_pairing():
    doc = rp2_document()
    doc["mult"] = []
    doc["sq"] = []
    doc["w"] = None
    doc.pop("w")
    doc["euler"] = 1
    with pytest.raises(InvariantViolation, match="pairing") as info:
        load_manifold(doc)
    _built_alike(doc, info.value)


def test_load_manifold_rejects_non_mapping():
    with pytest.raises(SchemaError, match="mapping"):
        load_manifold([1, 2, 3])
