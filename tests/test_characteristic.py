"""Wu classes, Stiefel-Whitney derivation, W_3, bundle data, z-status."""
from __future__ import annotations

import numpy as np
import pytest

from classes import total, unit_total
from foldcheck.algebra import invert_total, total_sq
from foldcheck.catalog import atom, k3, product, real_projective, sphere
from foldcheck.characteristic import (
    BundleDescriptor,
    StructureFlags,
    dual_classes,
    structure_flags,
    tangent_descriptor,
    virtual_difference,
    w3_shadow,
    w3_twisted_status,
    wu_total,
    z_status,
)
from foldcheck.errors import InvariantViolation
from foldcheck.expressions import parse_expression
from foldcheck.tristate import P1Data, Tri, TriState, p1_add, p1_difference, p1_negate


def test_wu_rp4_frozen_oracle():
    # v(RP4) = 1 + a + a^2 and w = Sq(v) = 1 + a + a^4
    m = real_projective(4)
    v = wu_total(m.algebra)
    assert str(v) == "1 + a + a^2"
    assert str(total_sq(v)) == "1 + a + a^4"


def test_wu_vanishes_above_middle_degree():
    m = real_projective(6)
    v = wu_total(m.algebra)
    for d in range(4, 7):
        assert v.component(d).is_zero()


def test_wu_k3_is_trivial():
    m = k3()
    v = wu_total(m.algebra)
    assert str(v) == "1"  # even intersection form: v_2 = 0
    assert m.w.component(2).is_zero()


def test_stored_w_matches_wu_derivation_on_record():
    m = real_projective(5)
    assert total_sq(wu_total(m.algebra)) == m.w
    assert m.wu == wu_total(m.algebra)


def test_wu_accepts_bare_algebra():
    m = sphere(3)
    assert str(wu_total(m.algebra)) == "1"
    assert str(m.wu) == "1"


def test_dual_classes_inverts():
    m = real_projective(4)
    wbar = dual_classes(m)
    assert str(wbar) == "1 + a + a^2 + a^3"
    assert str(m.w * wbar) == "1"
    # a raw total class goes through the inversion itself
    assert invert_total(m.w) == wbar


def test_structure_flags_table():
    # pin reads w_2 alone; spin also needs the record's orientability (w_1 = 0)
    cases = [
        (sphere(4), True, StructureFlags(spin=True, pin=True)),
        (real_projective(3), True, StructureFlags(spin=True, pin=True)),
        (real_projective(4), False, StructureFlags(spin=False, pin=True)),
        (real_projective(2), False, StructureFlags(spin=False, pin=False)),
        (atom("CP2"), True, StructureFlags(spin=False, pin=False)),
    ]
    for m, orientable, flags in cases:
        assert (m.orientable, structure_flags(m)) == (orientable, flags), m.name


# ---------------------------------------------------------------------------
# W_3


def test_w3_shadow_zero_when_spin():
    assert w3_shadow(sphere(4).w).is_zero()


def test_w3_shadow_nonzero_on_rp2_squared():
    m = product(real_projective(2), real_projective(2))
    assert not w3_shadow(m.w).is_zero()
    assert m.w3_twisted.is_nonzero


def test_w3_status_low_dimensions():
    status = w3_twisted_status(real_projective(2).w)
    assert status.is_zero and status.note == "H^3 = 0"


def test_w3_status_rejects_contradictions():
    m = product(real_projective(2), real_projective(2))
    with pytest.raises(InvariantViolation, match="w3-twisted"):
        w3_twisted_status(m.w, TriState.zero("bogus"))
    spin = sphere(4)
    with pytest.raises(InvariantViolation, match="w3-twisted"):
        w3_twisted_status(spin.w, TriState.nonzero("bogus"))
    low = real_projective(2)
    with pytest.raises(InvariantViolation, match="H\\^3"):
        w3_twisted_status(low.w, TriState.nonzero("bogus"))


def test_w3_status_passthrough_when_undecided():
    # RP4: w_2 = 0 forces W_3 = 0 regardless of any recorded value
    rp4 = real_projective(4)
    assert w3_twisted_status(rp4.w).is_zero
    # CP2: w_2 = h != 0 with vanishing shadow; a recorded status is trusted
    cp2 = atom("CP2")
    assert w3_twisted_status(cp2.w).is_unknown
    recorded = TriState.zero("H^3 = 0")
    assert w3_twisted_status(cp2.w, recorded) == recorded


# ---------------------------------------------------------------------------
# bundle descriptors and virtual differences


def trivial_descriptor(algebra, rank: int) -> BundleDescriptor:
    """The trivial rank-``rank`` bundle: w = 1 and p_1 = 0.

    p_1 is the integer 0 over an oriented 4-manifold, the zero class elsewhere.
    """
    oriented4 = algebra.top_degree == 4 and wu_total(algebra).component(1).is_zero()
    p1 = P1Data.integer(0, "trivial bundle") if oriented4 else P1Data.zero_class("trivial bundle")
    return BundleDescriptor(
        rank=rank,
        w_total=unit_total(algebra),
        p1=p1,
        orientable=True,
    )


def test_trivial_descriptor_shape():
    m = sphere(4)
    xi = trivial_descriptor(m.algebra, 4)
    assert xi.rank == 4 and xi.orientable
    assert str(xi.w_total) == "1"
    assert xi.p1.is_zero


def test_descriptor_rejects_inconsistent_orientability():
    m = real_projective(4)
    with pytest.raises(InvariantViolation, match="w_1"):
        BundleDescriptor(rank=4, w_total=m.w, p1=P1Data.unknown(), orientable=True)


def test_descriptor_rejects_negative_rank_and_bad_unit():
    m = sphere(2)
    with pytest.raises(InvariantViolation, match="rank"):
        BundleDescriptor(rank=-1, w_total=m.w, p1=P1Data.unknown(), orientable=True)
    broken = total(m.algebra, [[0], [], [0]])
    with pytest.raises(InvariantViolation, match="unit"):
        BundleDescriptor(rank=2, w_total=broken, p1=P1Data.unknown(), orientable=True)


def test_descriptor_rejects_an_integer_p1_with_the_wrong_status():
    m = atom("CP2")
    with pytest.raises(InvariantViolation, match="p_1 = 3 is recorded as zero"):
        BundleDescriptor(rank=4, w_total=m.w, p1=P1Data(Tri.ZERO, 3), orientable=True)


def test_virtual_difference_of_tangent_with_itself():
    m = atom("CP2")
    w_diff, p1_diff = virtual_difference(m, tangent_descriptor(m))
    assert str(w_diff) == "1"
    assert p1_diff.number == 0


def test_virtual_difference_against_trivial():
    m = real_projective(4)
    w_diff, p1_diff = virtual_difference(m, trivial_descriptor(m.algebra, 4))
    assert w_diff == m.w
    assert p1_diff.is_zero == m.p1.is_zero


def _line_bundle_data(m, w) -> BundleDescriptor:
    """A rank-n descriptor over m with p_1 = 0 and total class w.

    w is one 0/1 row per degree, or the label of a degree-1 basis class x
    for ``w = 1 + x``, the class of a line bundle plus a trivial one.
    """
    if isinstance(w, str):
        w = [[1]] + [[int(d == 1 and x == w) for x in m.algebra.labels(d)] for d in range(1, m.dim + 1)]
    p1 = P1Data.integer(0) if m.dim == 4 and m.orientable else P1Data.zero_class()
    return BundleDescriptor(m.dim, total(m.algebra, w), p1, orientable=not any(w[1]))


@pytest.mark.parametrize(
    "expr,w,text,note",
    [
        # xi = 5L, w = (1 + a)^5: the cross term beta(a)^2 may cancel
        # p_1(RP5) != 0, since TRP5 - 5L = L - 1 stably has p_1 = 0
        ("RP5", [[1], [1], [0], [0], [1], [1]], "unknown", "torsion cross term W_1(TM - xi) W_1(xi)"),
        # xi = L: w(TRP7 - L) = (1 + a)^7, whose w_2^2 = a^4 reduces p_1
        ("RP7", [[1], [1], [0], [0], [0], [0], [0], [0]], "nonzero class", "w_2^2 != 0"),
        # L from RP3: the cross term is beta(w_1(TM - xi) w_1(xi)^2) = beta(a^3),
        # which is 0 as a^3 lifts to H^3(RP3; Z) = Z, but the record cannot see that
        ("RP3 x Sigma1", "a", "unknown", "torsion cross term W_1(TM - xi) W_1(xi)"),
    ],
)
def test_virtual_difference_reads_the_cross_term(expr, w, text, note):
    # p_1(TM) = p_1(TM - xi) + p_1(xi) - W_1(TM - xi) W_1(xi), W_1 = beta w_1;
    # the additive rule read p_1(RP5) - 0 != 0 and 0 - 0 = 0 here
    m = parse_expression(expr)
    p1_diff = virtual_difference(m, _line_bundle_data(m, w))[1]
    assert (str(p1_diff), p1_diff.note) == (text, note)


@pytest.mark.parametrize(
    "expr,w",
    [
        ("RP6", [[1], [1], [0], [0], [0], [0], [0]]),  # L: w_1(TM - xi) = 0
        ("RP5", [[1], [0], [0], [0], [1], [0]]),  # 4L: w_1(xi) = 0
        # L pulled back from RP3: H^4 = Z of an oriented 4-manifold has no torsion
        ("RP3 x S1", [[1], [0, 1], [0, 0], [0, 0], [0]]),
        # L from N2: w_1(TM - xi) = c2' and the cross term beta(c2' c1'^2) = 0
        ("K3 x N2", "c1'"),
    ],
)
def test_virtual_difference_keeps_the_additive_rule_without_a_cross_term(expr, w):
    m = parse_expression(expr)
    xi = _line_bundle_data(m, w)
    assert virtual_difference(m, xi)[1] == p1_difference(m.p1, xi.p1)


def test_virtual_difference_rejects_foreign_algebra():
    m = real_projective(4)
    other = sphere(4)
    with pytest.raises(ValueError, match="cohomology"):
        virtual_difference(m, trivial_descriptor(other.algebra, 4))


# ---------------------------------------------------------------------------
# z-status


def test_z_status_requires_pin():
    m = atom("CP2")  # w_2 = h != 0
    with pytest.raises(InvariantViolation, match="pin structure required"):
        z_status(m.w, m.p1)


def test_z_status_dim4_oriented_reads_p1():
    m = k3()
    w_diff, p1_diff = virtual_difference(m, trivial_descriptor(m.algebra, 4))
    status = z_status(w_diff, p1_diff)
    assert status.is_nonzero and "p_1" in status.note
    s = sphere(4)
    assert z_status(s.w, s.p1).is_zero


def test_z_status_dim4_nonorientable_reads_w4():
    m = real_projective(4)
    status = z_status(m.w, m.p1)
    assert status.is_nonzero and status.note == "w_4 = a^4 != 0"
    flat = product(atom("N2"), atom("Sigma1"))
    status = z_status(flat.w, flat.p1)
    assert status.is_zero and status.note == "w_4 = 0"


def test_z_status_mid_dimensions():
    m5 = product(real_projective(4), sphere(1))
    status = z_status(m5.w, m5.p1)
    assert status.is_nonzero and status.note == "z = w_4 mod 2 and w_4 != 0"

    cp3 = atom("CP3")
    w_diff, p1_diff = virtual_difference(cp3, trivial_descriptor(cp3.algebra, 6))
    status = z_status(w_diff, p1_diff, torsion_free=cp3.torsion_free)
    assert status.is_nonzero and status.note == "2z = p_1 != 0"

    s6 = product(sphere(3), sphere(3))
    status = z_status(s6.w, s6.p1, torsion_free=s6.torsion_free)
    assert status.is_zero

    # w_4 = 0 and p_1 = 0 but possible torsion: undetermined
    status = z_status(s6.w, s6.p1, torsion_free=False)
    assert status.is_unknown


# p_1 arithmetic: every pair of the statuses below, each carrying its own note
P1_STATUSES = {
    "0": P1Data.integer(0, "int 0"),
    "3": P1Data.integer(3, "int 3"),
    "-3": P1Data.integer(-3, "int -3"),
    "Z": P1Data.zero_class("zero"),
    "N": P1Data.nonzero_class("nonzero"),
    "U": P1Data.unknown("unknown"),
}

# one row per first argument, one column per second, both in P1_STATUSES
# order; an integer entry is that integer with an empty note
P1_ADD_TABLE = {
    "0": "z n n z n u",
    "3": "n n n n n n",
    "-3": "n n n n n n",
    "Z": "z n n z n u",
    "N": "n n n n n n",
    "U": "u n n u n u",
}
P1_ADD_CODES = {
    "z": ("zero class", None, "both summands vanish"),
    "n": ("nonzero class", None, "nonzero in one summand"),
    "u": ("unknown", None, "insufficient integral data"),
}
P1_DIFFERENCE_TABLE = {
    "0": "0 -3 3 0 n2 u",
    "3": "3 0 6 3 u u",
    "-3": "-3 -6 0 -3 u u",
    "Z": "0 -3 3 z n2 u",
    "N": "n1 u u n1 u u",
    "U": "u u u u u u",
}
P1_DIFFERENCE_CODES = {
    "z": ("zero class", None, "both terms vanish"),
    "n1": ("nonzero class", None, "first term nonzero, second zero"),
    "n2": ("nonzero class", None, "second term nonzero, first zero"),
    "u": ("unknown", None, "possible cancellation or missing data"),
}


def _p1_facts(p: P1Data) -> tuple:
    return str(p), p.number, p.note


def _p1_table(table: dict, codes: dict) -> dict:
    expected = {}
    for a, row in table.items():
        for b, code in zip(P1_STATUSES, row.split()):
            expected[a, b] = codes[code] if code in codes else (code, int(code), "")
    return expected


@pytest.mark.parametrize(
    "op,table,codes",
    [(p1_add, P1_ADD_TABLE, P1_ADD_CODES), (p1_difference, P1_DIFFERENCE_TABLE, P1_DIFFERENCE_CODES)],
    ids=["add", "difference"],
)
def test_p1_binary_arithmetic_table(op, table, codes):
    got = {
        (a, b): _p1_facts(op(p, q))
        for a, p in P1_STATUSES.items()
        for b, q in P1_STATUSES.items()
    }
    assert got == _p1_table(table, codes)


def test_p1_negate_table():
    got = {a: _p1_facts(p1_negate(p)) for a, p in P1_STATUSES.items()}
    assert got == {
        "0": ("0", 0, "int 0"),
        "3": ("-3", -3, "int 3"),
        "-3": ("3", 3, "int -3"),
        "Z": ("zero class", None, "zero"),
        "N": ("nonzero class", None, "nonzero"),
        "U": ("unknown", None, "unknown"),
    }


@pytest.mark.parametrize(
    "p1,value,note",
    [
        (P1Data.zero_class(), "zero", "p_1 = 0"),
        (P1Data.integer(0), "zero", "p_1 = 0"),
        (P1Data.integer(-48), "nonzero", "p_1 = -48 != 0"),
        (P1Data.nonzero_class(), "nonzero", "p_1 != 0"),
        (P1Data.unknown(), "unknown", "p_1 undetermined"),
    ],
)
def test_z_status_dim4_oriented_notes(p1, value, note):
    # the note is the text of the dim4-oriented trace entry after "w_2 = 0; "
    status = z_status(sphere(4).w, p1)
    assert (str(status), status.note) == (value, note)


def test_z_status_low_and_high_dimensions():
    # the equidimensional criterion is decided in dimensions 4-7 only, so
    # z has no rule outside them
    s3 = sphere(3)
    with pytest.raises(ValueError, match="dimensions 4 through 7, got 3"):
        z_status(s3.w, s3.p1)
    s8 = product(sphere(4), sphere(4))
    with pytest.raises(ValueError, match="dimensions 4 through 7, got 8"):
        z_status(s8.w, s8.p1)
