"""Wu and Stiefel-Whitney classes, bundle data, and obstruction statuses.

The Wu class of a Poincare algebra is the unique total class v with
``<v x, [M]> = <Sq x, [M]>`` for all x; Wu's theorem then gives the total
Stiefel-Whitney class as ``w = Sq(v)``, so w is computable from the ring
structure and its Steenrod squares alone.  Twisted integral classes (the
class W_3 and the secondary obstruction z) are never represented by
cocycles; they are reported as a TriState decided from their mod-2 shadows
plus whatever integral facts are on record.
"""
from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    ClassZ2,
    GradedAlgebra,
    TotalClass,
    _ReadOnly,
    _pairing_rows,
    _total,
    evaluate_top,
    invert_total,
    steenrod_square,
)
from .errors import InvariantViolation
from .gf2 import _solve_bits
from .tristate import P1Data, TriState, p1_difference

__all__ = [
    "wu_total",
    "dual_classes",
    "StructureFlags",
    "structure_flags",
    "w3_twisted_status",
    "BundleDescriptor",
    "tangent_descriptor",
    "virtual_difference",
    "z_status",
]


# ---------------------------------------------------------------------------
# Wu classes and Stiefel-Whitney classes
# ---------------------------------------------------------------------------


def wu_total(algebra: GradedAlgebra) -> TotalClass:
    """Solve the Wu relations ``<v_k x, [M]> = <Sq^k x, [M]>`` for v.

    For each k the relation is a linear system over the nondegenerate
    Poincare pairing, so v_k is unique; v_k = 0 above the middle degree
    because Sq^k kills classes of degree below k.  Row j of the system
    holds the pairings of the degree-k basis with the j-th class y of
    degree n - k (``_pairing_rows``, as the axiom battery reads them), and
    ``<Sq^k y, [M]>`` at bit ``r_k``.
    """
    n = algebra.top_degree
    fundamental = algebra.fundamental_bits
    parts = [0] * (n + 1)
    parts[0] = algebra.unit_bits
    for k in (d for d in algebra.degrees if 0 < 2 * d <= n):
        r = algebra.rank(k)
        rows = _pairing_rows(algebra, k)
        for j, y in enumerate(algebra.squares.get((k, n - k), ())):
            if (y & fundamental).bit_count() & 1:
                rows[j] |= 1 << r
        v = _solve_bits(rows, r)
        if v is None:
            raise InvariantViolation("wu-solve", f"no class v_{k} satisfies the Wu relations")
        parts[k] = v
    return _total(algebra, parts)


def dual_classes(m) -> TotalClass:
    """Dual Stiefel-Whitney classes of a manifold record: the inverse of w, ``m.wbar``."""
    return m.wbar


# ---------------------------------------------------------------------------
# structure flags
# ---------------------------------------------------------------------------


class StructureFlags(NamedTuple):
    """Tangential structures readable from w_2 and the record's orientability."""

    spin: bool
    pin: bool


def structure_flags(m) -> StructureFlags:
    """Pin iff w_2 = 0; spin iff also orientable (w_1 = 0)."""
    w2_zero = m.w.component(2).is_zero()
    return StructureFlags(spin=m.orientable and w2_zero, pin=w2_zero)


# ---------------------------------------------------------------------------
# the twisted class W_3
# ---------------------------------------------------------------------------


def w3_shadow(w: TotalClass) -> ClassZ2:
    """Mod-2 reduction ``Sq^1 w_2 + w_1 w_2`` of the twisted class W_3."""
    w1 = w.component(1)
    w2 = w.component(2)
    return steenrod_square(1, w2) + w1 * w2


def w3_twisted_status(w: TotalClass, stored: TriState | None = None) -> TriState:
    """Vanishing status of W_3, the twisted integral Bockstein of w_2.

    A nonzero mod-2 shadow certifies W_3 != 0, and w_2 = 0 forces W_3 = 0.
    In between, a recorded status is passed through; a recorded status that
    contradicts either certificate is rejected.
    """
    if w.algebra.top_degree < 3:
        if stored is not None and stored.is_nonzero:
            raise InvariantViolation("w3-twisted", "nonzero W_3 recorded but H^3 = 0")
        return TriState.zero("H^3 = 0")
    if not w3_shadow(w).is_zero():
        if stored is not None and stored.is_zero:
            raise InvariantViolation(
                "w3-twisted", "recorded W_3 = 0 but Sq^1 w_2 + w_1 w_2 != 0"
            )
        return TriState.nonzero("Sq^1 w_2 + w_1 w_2 != 0")
    if w.component(2).is_zero():
        if stored is not None and stored.is_nonzero:
            raise InvariantViolation("w3-twisted", "recorded W_3 != 0 but w_2 = 0")
        return TriState.zero("w_2 = 0")
    if stored is not None and not stored.is_unknown:
        return stored
    return TriState.unknown("mod-2 shadow vanishes; integral Bockstein undetermined")


# ---------------------------------------------------------------------------
# bundle descriptors and the secondary obstruction
# ---------------------------------------------------------------------------


class BundleDescriptor(_ReadOnly):
    """Stable data of a vector bundle over a manifold's cohomology algebra.

    The constructor refuses a negative rank and, as ``bundle-descriptor``,
    whatever ``_bundle_refusal`` refuses: the rules every bundle obeys,
    which ``validate_manifold`` applies to a record's tangent data too.
    """

    def __init__(self, rank: int, w_total: TotalClass, p1: P1Data, orientable: bool) -> None:
        vars(self).update(rank=rank, w_total=w_total, p1=p1, orientable=orientable)
        if rank < 0:
            raise InvariantViolation("bundle-descriptor", "negative rank")
        refusal = _bundle_refusal(w_total, p1, orientable)
        if refusal is not None:
            raise InvariantViolation("bundle-descriptor", refusal[1])


def _bundle_refusal(w_total: TotalClass, p1: P1Data, orientable: bool) -> tuple[str, str] | None:
    """The first rule of every bundle that this data breaks, as (name, detail), or None.

    w_0 is the unit; orientable means w_1 = 0; an integer p_1 is
    ``<p_1, [M]>`` over an oriented 4-dimensional base (w_1 = v_1 = 0) and
    sets the status; p_1 reduces to w_2^2 mod 2; H^4 = 0 below dimension 4.
    """
    A = w_total.algebra
    if w_total.parts[0] != A.unit_bits:
        return "unit", "w_0 must be the unit"
    if orientable != w_total.component(1).is_zero():
        return "orientability", "orientability flag contradicts w_1"
    w2 = w_total.component(2)
    w2sq = w2 * w2
    if p1.number is not None:
        if not (A.top_degree == 4 and _oriented(A)):
            return "p1-kind", "integer p_1 needs an oriented 4-dimensional base"
        if p1.value is not P1Data.integer(p1.number).value:
            return "p1-kind", f"p_1 = {p1.number} is recorded as {p1.value.value}"
        if p1.number % 2 != evaluate_top(w2sq):
            return "p1-reduction", f"p_1 = {p1.number} but <w_2^2, [M]> = {evaluate_top(w2sq)}"
    if A.top_degree < 4 and p1.is_nonzero:
        return "p1-range", "H^4 = 0 forces p_1 = 0"
    if p1.is_zero and not w2sq.is_zero():
        return "p1-reduction", "w_2^2 != 0 forces p_1 != 0"
    return None


def _oriented(A: GradedAlgebra) -> bool:
    """Whether w_1 = v_1 vanishes: ``<v_1 x, [M]> = <Sq^1 x, [M]>`` is 0 on degree n - 1."""
    rows = A.squares.get((1, A.top_degree - 1), ())
    return not any((row & A.fundamental_bits).bit_count() & 1 for row in rows)


def tangent_descriptor(m) -> BundleDescriptor:
    """Descriptor of the tangent bundle of a manifold record."""
    return BundleDescriptor(rank=m.dim, w_total=m.w, p1=m.p1, orientable=m.orientable)


def virtual_difference(m, xi: BundleDescriptor) -> tuple[TotalClass, P1Data]:
    """w and p_1 data of the formal difference ``TM - xi``.

    The Whitney-class part is exact: ``w(TM - xi) = w(TM) * w(xi)^{-1}``;
    where ``w(xi)`` is the record's w, its inverse is the record's ``wbar``.
    The Pontrjagin part follows the tri-valued difference rules, which
    treat p_1 as additive.  Exactly, ``p_1(TM) = p_1(D) + p_1(xi) - W_1(D)
    W_1(xi)`` for D = TM - xi, W_1 = beta w_1 (``c_1(E (x) C) = W_1(E)``).
    The cross term is 2-torsion, so it vanishes when either w_1 does, on a
    torsion-free record and on an oriented 4-manifold (H^4 = Z).

    Otherwise a nonzero reduction w_2(D)^2 certifies p_1(D) != 0.  Failing
    that, the cross term still vanishes when ``w_1(D) w_1(xi)^2 = 0``.  For
    an integral class y, ``beta(x rho(y)) = beta(x) y``: the connecting map
    of ``0 -> Z -> Z -> Z/2 -> 0`` commutes with the product by an
    integral class.  And ``rho W_1(xi) = rho beta w_1(xi) = Sq^1 w_1(xi) =
    w_1(xi)^2``.  So ``W_1(D) W_1(xi) = beta(w_1(D)) W_1(xi) = beta(w_1(D)
    w_1(xi)^2)``, which is zero when its argument is.  The converse fails:
    on a factor RP3, ``a^3 != 0`` lifts to ``H^3(RP3; Z) = Z``, so
    ``beta(a^3) = 0``, which the mod-2 record cannot see; there p_1(D)
    stays unknown.
    """
    if xi.w_total.algebra is not m.algebra:
        raise ValueError("bundle descriptor does not live over this manifold's cohomology")
    w_diff = m.w * (m.wbar if xi.w_total == m.w else invert_total(xi.w_total))
    p1 = p1_difference(m.p1, xi.p1)
    w1_xi, w1_diff = xi.w_total.component(1), w_diff.component(1)
    if w1_xi.is_zero() or w1_diff.is_zero() or m.torsion_free or (m.dim == 4 and m.orientable):
        return w_diff, p1
    w2 = w_diff.component(2)
    if not (w2 * w2).is_zero():
        return w_diff, P1Data.nonzero_class("w_2^2 != 0")
    if (w1_diff * w1_xi * w1_xi).is_zero():
        return w_diff, p1
    return w_diff, P1Data.unknown("torsion cross term W_1(TM - xi) W_1(xi)")


def z_status(w_diff: TotalClass, p1: P1Data, torsion_free: bool = False) -> TriState:
    """Vanishing status of the secondary obstruction z (2z = p_1, z = w_4 mod 2).

    Defined in dimensions 4-7 (ValueError outside) for bundles admitting a
    pin structure, i.e. with w_2 = 0.  Both inputs that pick the rule are
    read off ``w_diff``: the dimension is the top degree of its algebra,
    and the bundle is orientable when its w_1 vanishes.  On a 4-manifold
    z reduces to p_1 (orientable) or w_4 (non-orientable), and the note
    names that class;
    in dimensions 5-7 a nonzero w_4 certifies z != 0, a known nonzero p_1
    certifies z != 0, and z = 0 needs w_4 = 0, p_1 = 0 and a torsion-free
    degree-4 integral group.
    """
    dim = w_diff.algebra.top_degree
    if not 4 <= dim <= 7:
        raise ValueError(f"z is decided in dimensions 4 through 7, got {dim}")
    if not w_diff.component(2).is_zero():
        raise InvariantViolation(
            "pin structure required", "w_2 of the virtual bundle does not vanish"
        )
    w4 = w_diff.component(4)
    if dim == 4:
        if not w_diff.component(1).is_zero():
            if w4.is_zero():
                return TriState.zero("w_4 = 0")
            return TriState.nonzero(f"w_4 = {w4} != 0")
        if p1.is_zero:
            return TriState.zero("p_1 = 0")
        if p1.number is not None:
            return TriState.nonzero(f"p_1 = {p1.number} != 0")
        if p1.is_nonzero:
            return TriState.nonzero("p_1 != 0")
        return TriState.unknown("p_1 undetermined")
    if not w4.is_zero():
        return TriState.nonzero("z = w_4 mod 2 and w_4 != 0")
    if p1.is_nonzero:
        return TriState.nonzero("2z = p_1 != 0")
    if p1.is_zero and torsion_free:
        return TriState.zero("w_4 = 0, p_1 = 0, degree-4 torsion-free")
    return TriState.unknown("w_4 = 0 but the torsion part of z is undetermined")
