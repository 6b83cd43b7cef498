"""Manifold records: catalog atoms, connected sums, products, documents.

Every construction path funnels through one assembler that derives the
dimension, Euler characteristic and orientability (w_1 = v_1) from the
algebra, then settles each tangent invariant once, in the order its
inputs become known, refusing a contradiction at that step: the
signature (on the 4k lattice only), the Stiefel-Whitney classes (via
Wu's theorem, cross-checking any stored total class), p_1 where the
dimension decides it, and W_3.  :func:`validate_manifold` checks the
rest: the rules every bundle obeys, as for a bundle descriptor, and the
structure flags.  Only a document declares the dimension, Euler
characteristic and orientability, and ``load_manifold`` checks them
against the derived ones.

The algebra axiom battery (``validate_algebra``) runs where data enters:
``load_manifold`` checks a document's fields and basis and reads its
``mult`` and ``sq`` entry lists through one ``build_algebra`` call, the
one reader of outside tables, which checks every entry, parses each
distinct product row once and runs the battery.  The catalog atoms are
closed forms, and connected sums and products of valid records are
valid by construction, so their algebras are assembled without it.  The
``RP`` and ``CP`` atoms check the closed-form size of their tables
against the table byte budget before they build any list; the surface
atoms, ``kunneth``, ``connected_sum_algebra`` and ``build_algebra``
check their ranks before they allocate a table.  Atoms write their structure
constants as packed ints (see ``algebra``), reading binomial parities by
Lucas's theorem: ``C(n, k)`` is odd iff ``k & n == k``.  Records are immutable
and compare by identity; value-level comparisons in tests go through the
stored invariants.
"""
from __future__ import annotations

import re
from functools import cached_property, reduce
from typing import Any, Mapping

from .algebra import (
    GradedAlgebra,
    TotalClass,
    _ReadOnly,
    _check_table_size,
    _monogenic_table_bytes,
    _packed_algebra,
    _row,
    _table_bytes,
    _total,
    build_algebra,
    connected_sum_algebra,
    cross_total,
    invert_total,
    kunneth,
    total_sq,
)
from .characteristic import BundleDescriptor, _bundle_refusal, _oriented, w3_twisted_status, wu_total
from .errors import InvariantViolation, SchemaError
from .tristate import P1Data, Tri, TriState, p1_add

__all__ = [
    "Manifold",
    "sphere",
    "real_projective",
    "complex_projective",
    "cp2_reversed",
    "k3",
    "orientable_surface",
    "nonorientable_surface",
    "atom",
    "connected_sum",
    "product",
    "load_manifold",
    "load_descriptor",
    "validate_manifold",
]


class Manifold(_ReadOnly):
    """A closed smooth manifold presented by its mod-2 cohomological data; read-only."""

    def __init__(
        self,
        name: str,
        dim: int,
        orientable: bool,
        euler: int,
        signature: int | None,
        algebra: GradedAlgebra,
        w: TotalClass,
        wu: TotalClass,
        p1: P1Data,
        w3_twisted: TriState,
        stably_parallelizable: bool = False,
        torsion_free: bool = False,
    ) -> None:
        vars(self).update(
            name=name,
            dim=dim,
            orientable=orientable,
            euler=euler,
            signature=signature,
            algebra=algebra,
            w=w,
            wu=wu,
            p1=p1,
            w3_twisted=w3_twisted,
            stably_parallelizable=stably_parallelizable,
            torsion_free=torsion_free,
        )

    @property
    def connected(self) -> bool:
        return self.algebra.rank(0) == 1

    @cached_property
    def _verdicts(self) -> dict:
        """What ``decide`` derived for this record, filled there on first use.

        ``decide`` chooses the keys.  The table lives in the instance dict,
        beside the fields, so a record rebuilt from its fields through
        ``Manifold(...)`` starts with an empty one.
        """
        return {}

    @cached_property
    def wbar(self) -> TotalClass:
        """The dual Stiefel-Whitney classes, the inverse of w, derived on first use."""
        return invert_total(self.w)

    def __repr__(self) -> str:
        return f"Manifold({self.name!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# assembly and validation
# ---------------------------------------------------------------------------


def _euler(A: GradedAlgebra) -> int:
    """The Euler characteristic of a Poincare algebra: its ranks, alternating."""
    return sum(-r if d % 2 else r for d, r in enumerate(A.ranks))


def _assemble(
    name: str,
    algebra: GradedAlgebra,
    *,
    w: TotalClass | None,
    signature: int | None = None,
    p1: P1Data = P1Data.unknown(),
    w3_stored: TriState | None = None,
    stably_parallelizable: bool = False,
    torsion_free: bool = False,
) -> Manifold:
    """Settle each tangent invariant once, in the order its inputs become known.

    The algebra fixes the dimension (top degree), the Euler characteristic
    (alternating rank sum) and the orientability (w_1 = v_1 = 0).  Then, in
    order: sigma, dropped off the 4k lattice of oriented manifolds and on it
    required, at most the middle rank and congruent to chi mod 2, and, once
    the Wu classes are known, divisible by 8 where v_2k = 0 and by 16 in
    dimension 4 where v_2 = 0; w, as Sq(v) of the Wu classes, which a
    stored ``w`` must match; p_1 where the dimension fixes it: the zero
    class below dimension 4, ``3 sigma`` on an oriented 4-manifold, and on
    a non-orientable one the status of w_2^2, as the mod-2 reduction is
    injective on the degree-4 integral group there (a nonzero status below
    dimension 4 and an integer off an oriented 4-manifold are left for the
    bundle rules of ``validate_manifold``); W_3.  A declaration
    contradicting a settled value is refused at its step, so the refusal
    names the field at fault, not a value derived from one.

    The congruences: for x in H^2k(M; Z) reducing to x' mod 2,
    x.x = <x'^2, [M]> = <Sq^2k x', [M]> = <v_2k x', [M]> mod 2, so v_2k = 0
    makes the intersection form on H^2k(M; Z)/torsion even.  That form is
    unimodular by Poincare duality and sigma is its signature, and an even
    unimodular form has signature divisible by 8 (Serre, *A Course in
    Arithmetic*, Ch. V).  In dimension 4, v_2 = w_2 + w_1^2 = w_2 on an
    oriented manifold, so v_2 = 0 makes M spin, and a closed smooth spin
    4-manifold has sigma divisible by 16 (Rokhlin, 1952).
    """
    dim, orientable, euler = algebra.top_degree, _oriented(algebra), _euler(algebra)
    if not (orientable and dim % 4 == 0):
        signature = None
    elif signature is None:
        raise InvariantViolation("signature", "oriented 4k-manifold needs a signature")
    elif abs(signature) > algebra.rank(dim // 2):
        raise InvariantViolation("signature", f"|sigma| = {abs(signature)} exceeds the middle rank")
    elif (signature - euler) % 2:
        raise InvariantViolation(
            "signature parity", f"sigma = {signature} and chi = {euler} differ mod 2"
        )

    wu = wu_total(algebra)
    if signature is not None and not wu.parts[dim // 2]:
        if signature % 8:
            raise InvariantViolation(
                "signature", f"sigma = {signature} but v_{dim // 2} = 0 makes the form even, so 8 | sigma"
            )
        if dim == 4 and signature % 16:
            raise InvariantViolation(
                "signature", f"sigma = {signature} but w_2 = 0 makes M spin, so 16 | sigma (Rokhlin)"
            )
    derived = total_sq(wu)
    if w is not None:
        for d, (ours, theirs) in enumerate(zip(derived.parts, w.parts)):
            if ours != theirs:
                raise InvariantViolation(
                    "wu-consistency",
                    f"stored w_{d} disagrees with the Wu-derived Stiefel-Whitney class",
                )

    if dim <= 3 and p1.number is None and not p1.is_nonzero:
        p1 = P1Data.zero_class("H^4 = 0")
    elif dim == 4 and orientable:
        exact = 3 * signature
        if p1.number not in (None, exact):
            raise InvariantViolation("p1-signature", f"p_1 = {p1.number} but 3 sigma = {exact}")
        if p1.number is None:
            if not p1.is_unknown and p1.is_zero != (exact == 0):
                raise InvariantViolation(
                    "p1-signature", f"document p1 contradicts 3 sigma = {exact}"
                )
            p1 = P1Data.integer(exact, "signature theorem")
    elif dim == 4 and p1.number is None:
        w2 = derived.component(2)
        zero = (w2 * w2).is_zero()
        if not p1.is_unknown and p1.is_zero != zero:
            raise InvariantViolation(
                "p1-reduction", "p_1 of a non-orientable 4-manifold is determined by w_2^2"
            )
        if p1.is_unknown:
            p1 = P1Data.zero_class("w_2^2 = 0") if zero else P1Data.nonzero_class("w_2^2 != 0")

    m = Manifold(
        name=name,
        dim=dim,
        orientable=orientable,
        euler=euler,
        signature=signature,
        algebra=algebra,
        w=derived,
        wu=wu,
        p1=p1,
        w3_twisted=w3_twisted_status(derived, w3_stored),
        stably_parallelizable=stably_parallelizable,
        torsion_free=torsion_free,
    )
    validate_manifold(m)
    return m


def validate_manifold(m: Manifold) -> None:
    """Check what no settling step of ``_assemble`` covers; raise InvariantViolation if it fails.

    ``_assemble`` derives and settles sigma, w, p_1 and W_3; the algebra
    axioms hold where data enters.  This layer checks w and p_1 against the
    rules every bundle obeys (``characteristic._bundle_refusal``), and the
    ``stably_parallelizable`` and ``torsion_free`` flags.

    ``torsion_free`` is refused wherever a stored ``Sq^1`` table is nonzero.
    The Bockstein beta of ``0 -> Z -> Z -> Z/2 -> 0`` reduces mod 2 to
    ``Sq^1`` (rho beta = Sq^1), so ``Sq^1 x != 0`` for x in degree d makes
    ``beta x`` a nonzero class of ``H^(d+1)(M; Z)``, and ``2 beta = 0``: it
    is 2-torsion.  A non-orientable record is covered in every dimension:
    ``Sq^1: H^(n-1) -> H^n`` is the product with ``v_1 = w_1 != 0``, which
    Poincare duality makes nonzero.
    """
    n = m.dim
    refusal = _bundle_refusal(m.w, m.p1, m.orientable)
    if refusal is not None:
        raise InvariantViolation(*refusal)

    if m.stably_parallelizable:
        if not m.orientable:
            raise InvariantViolation(
                "stable-parallelizability", "non-orientable manifolds are never stably parallelizable"
            )
        if any(not m.w.component(d).is_zero() for d in range(1, n + 1)):
            raise InvariantViolation("stable-parallelizability", "w != 1")
        if not m.p1.is_zero:
            raise InvariantViolation("stable-parallelizability", "p_1 != 0")

    if m.torsion_free:
        d = min((d for k, d in m.algebra.squares if k == 1), default=None)
        if d is not None:
            raise InvariantViolation(
                "torsion-flag", f"Sq^1 is nonzero on degree {d}, so H^{d + 1}(M; Z) has 2-torsion"
            )


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def _pow_label(symbol: str, d: int) -> str:
    if d == 0:
        return "1"
    return symbol if d == 1 else f"{symbol}^{d}"


def sphere(n: int) -> Manifold:
    """S(n), n >= 0.  S(0) is the only disconnected catalog member."""
    if n < 0:
        raise ValueError("sphere dimension must be >= 0")
    if n == 0:
        # p * p = p and q * q = q: entries (0, 0) and (1, 1) of the pair table.
        # Two points: the pairing is the identity form, signature 2, so
        # S(0) x N is N + N, not N + (-N).
        algebra = _packed_algebra(0, [["p", "q"]], {(0, 0): bytes((1, 0, 0, 2))}, unit=3, fundamental=3)
        return _assemble(
            "S0", algebra, w=None, signature=2, stably_parallelizable=True, torsion_free=True
        )
    basis = [["1"]] + [[] for _ in range(n - 1)] + [["s"]]
    return _assemble(
        f"S{n}",
        _packed_algebra(n, basis),
        w=None,
        signature=0,
        p1=P1Data.zero_class(),
        stably_parallelizable=True,
        torsion_free=True,
    )


_ONE = b"\x01"  # a one-entry table: the product or square is its degree's one class


def _odd_binomial(n: int, k: int) -> bool:
    """Whether ``C(n, k)`` is odd, by Lucas's theorem."""
    return k & n == k


def _truncated_polynomial(symbol: str, g: int, n: int) -> tuple[GradedAlgebra, TotalClass]:
    """F2[x]/(x^(n+1)) on a class x of degree g, and w = (1 + x)^(n+1).

    ``x^i x^j = x^(i+j)`` and ``Sq^(gk) x^d = C(d, k) x^(d+k)``; degrees
    that are not multiples of g are empty.  RP(n) has g = 1, CP(n) g = 2.
    """
    _check_table_size(_monogenic_table_bytes(n))
    basis = [[_pow_label(symbol, d // g)] if d % g == 0 else [] for d in range(g * n + 1)]
    products = {(g * i, g * j): _ONE for i in range(1, n) for j in range(i, n + 1 - i)}
    squares = {
        (g * k, g * d): _ONE
        for d in range(1, n)
        for k in range(1, min(d, n - d) + 1)
        if _odd_binomial(d, k)
    }
    algebra = _packed_algebra(g * n, basis, products, squares)
    w = _total(algebra, [int(d % g == 0 and _odd_binomial(n + 1, d // g)) for d in range(g * n + 1)])
    return algebra, w


def real_projective(n: int) -> Manifold:
    """RP(n), n >= 1: truncated polynomial algebra on a degree-1 class a."""
    if n < 1:
        raise ValueError("real projective space needs n >= 1")
    algebra, w = _truncated_polynomial("a", 1, n)
    if n <= 3:
        p1 = P1Data.zero_class()
    elif _odd_binomial(n + 1, 2):
        p1 = P1Data.nonzero_class(f"p_1 = C({n + 1},2) a^4")
    else:
        p1 = P1Data.zero_class(f"p_1 = C({n + 1},2) a^4")
    return _assemble(
        f"RP{n}",
        algebra,
        w=w,
        p1=p1,
        w3_stored=TriState.zero("H^3 with the relevant coefficients vanishes")
        if n % 2 == 1
        else None,
        torsion_free=n == 1,
    )


def complex_projective(n: int) -> Manifold:
    """CP(n), n >= 1: truncated polynomial algebra on a degree-2 class h."""
    if n < 1:
        raise ValueError("complex projective space needs n >= 1")
    algebra, w = _truncated_polynomial("h", 2, n)
    return _assemble(
        f"CP{n}",
        algebra,
        w=w,
        signature=1,  # sigma(CP(2k)); CP(2k + 1) has none
        p1=P1Data.nonzero_class(f"p_1 = {n + 1} h^2") if n >= 3 else P1Data.unknown(),
        w3_stored=TriState.zero("H^3 = 0"),
        torsion_free=True,
    )


def cp2_reversed() -> Manifold:
    """CP(2) with the reversed orientation: same mod-2 data, sigma = -1."""
    cp2 = complex_projective(2)
    return _assemble("CP2~", cp2.algebra, w=cp2.w, signature=-1, w3_stored=cp2.w3_twisted, torsion_free=True)


# E8 intersection form mod 2: the edges of the Dynkin diagram, numbered from 1.
# The mod-2 form is alternating (E8 is even) and nondegenerate, as the
# adjacency form of a tree with a perfect matching is.  Other such trees on
# eight vertices, say with (4, 6) for (4, 5), give the same K3 up to basis:
# nondegenerate alternating forms of one rank are isomorphic over GF(2).
_E8_EDGES = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]


def _form_table(rank: int, edges) -> bytes:
    """The product table of a symmetric 0/1 form with these 0-based edges, into rank 1."""
    table = bytearray(rank * rank)
    for a, b in edges:
        table[a * rank + b] = table[b * rank + a] = 1
    return bytes(table)


def k3() -> Manifold:
    """The K3 surface: even intersection form E8 + E8 + 3H, sigma = -16."""
    edges = [(s + a - 1, s + b - 1) for s in (0, 8) for a, b in _E8_EDGES]
    edges += [(s, s + 1) for s in (16, 18, 20)]  # the hyperbolic planes
    basis = [["1"], [], [f"x{i}" for i in range(1, 23)], [], ["t"]]
    algebra = _packed_algebra(4, basis, {(2, 2): _form_table(22, edges)})
    return _assemble("K3", algebra, w=None, signature=-16, torsion_free=True)


def orientable_surface(g: int) -> Manifold:
    """Sigma(g), g >= 0: closed orientable surface of genus g."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    _check_table_size(_table_bytes([1, 2 * g, 1]))
    deg1 = [l for i in range(1, g + 1) for l in (f"a{i}", f"b{i}")]
    table = _form_table(2 * g, [(2 * i, 2 * i + 1) for i in range(g)])
    algebra = _packed_algebra(2, [["1"], deg1, ["t"]], {(1, 1): table} if g else {})
    return _assemble(f"Sigma{g}", algebra, w=None, torsion_free=True)


def nonorientable_surface(k: int) -> Manifold:
    """N(k), k >= 1: connected sum of k copies of RP(2); chi = 2 - k."""
    if k < 1:
        raise ValueError("a non-orientable surface needs k >= 1")
    _check_table_size(_table_bytes([1, k, 1]))
    algebra = _packed_algebra(
        2,
        [["1"], [f"c{i}" for i in range(1, k + 1)], ["t"]],
        {(1, 1): _form_table(k, [(i, i) for i in range(k)])},
        {(1, 1): _ONE * k},  # Sq^1 c_i = c_i^2 = t
    )
    return _assemble(f"N{k}", algebra, w=None)


_ATOM_FAMILIES = {
    "S": (sphere, 0),
    "RP": (real_projective, 1),
    "CP": (complex_projective, 1),
    "Sigma": (orientable_surface, 0),
    "N": (nonorientable_surface, 1),
}
_ATOM_TOKEN = re.compile(rf"({'|'.join(_ATOM_FAMILIES)})(\d+)", re.ASCII)


def atom(token: str) -> Manifold:
    """Build a catalog atom from its token, e.g. ``"RP4"`` or ``"CP2~"``; digits are ASCII."""
    if token == "K3":
        return k3()
    if token == "CP2~":
        return cp2_reversed()
    match = _ATOM_TOKEN.fullmatch(token)
    if match is None:
        raise ValueError(f"unknown atom {token!r}")
    prefix, digits = match.groups()
    factory, lowest = _ATOM_FAMILIES[prefix]
    value = int(digits)
    if value < lowest:
        raise ValueError(f"{prefix}({value}) is out of range (needs >= {lowest})")
    return factory(value)


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def connected_sum(*pieces: Manifold) -> Manifold:
    """Connected sum of closed, connected, equal-dimensional records.

    ``connected_sum_algebra`` refuses summands of unequal dimension.
    """
    algebra = connected_sum_algebra(*(m.algebra for m in pieces))
    dim = algebra.top_degree
    # in dimension 4 both classes share one group, so p1_add does not apply
    p1 = reduce(p1_add, (m.p1 for m in pieces)) if dim >= 5 else P1Data.unknown()

    # a summand's nonzero W_3 shows in its mod-2 shadow, and so in the sum's
    w3_zero = dim >= 4 and all(m.w3_twisted.is_zero for m in pieces)
    return _assemble(
        " # ".join(m.name for m in pieces),
        algebra,
        w=None,
        signature=sum(m.signature or 0 for m in pieces),
        p1=p1,
        w3_stored=TriState.zero("zero in both summands") if w3_zero else None,
        stably_parallelizable=all(m.stably_parallelizable for m in pieces),
        torsion_free=all(m.torsion_free for m in pieces),
    )


def _factor_name(m: Manifold) -> str:
    return f"({m.name})" if " # " in m.name else m.name


def product(m: Manifold, n: Manifold) -> Manifold:
    """Cartesian product via the Kunneth algebra."""
    algebra = kunneth(m.algebra, n.algebra)
    w = cross_total(algebra, m.w, n.w)

    if algebra.top_degree <= 4:
        p1 = P1Data.unknown()  # decided by _assemble
    elif n.stably_parallelizable:
        p1 = P1Data(m.p1.value, None, "stable tangent bundle pulled back from the first factor")
    elif m.stably_parallelizable:
        p1 = P1Data(n.p1.value, None, "stable tangent bundle pulled back from the second factor")
    else:
        w2 = w.component(2)
        if not (w2 * w2).is_zero():
            p1 = P1Data.nonzero_class("w_2^2 != 0")
        elif m.p1.is_nonzero or n.p1.is_nonzero:
            p1 = P1Data.nonzero_class("nonzero on a factor")
        elif m.p1.is_zero and n.p1.is_zero and m.torsion_free and n.torsion_free:
            p1 = P1Data.zero_class("both factors vanish, no torsion in range")
        else:
            p1 = P1Data.unknown("integral cross terms undetermined")

    return _assemble(
        f"{_factor_name(m)} x {_factor_name(n)}",
        algebra,
        w=w,
        signature=(m.signature or 0) * (n.signature or 0),
        p1=p1,
        stably_parallelizable=m.stably_parallelizable and n.stably_parallelizable,
        torsion_free=m.torsion_free and n.torsion_free,
    )


# ---------------------------------------------------------------------------
# document ingestion
# ---------------------------------------------------------------------------

_DOCUMENT_FIELDS = {
    "name",
    "dim",
    "orientable",
    "euler",
    "signature",
    "basis",
    "mult",
    "sq",
    "w",
    "p1",
    "w3_twisted",
    "stably_parallelizable",
    "torsion_free",
}

# the document words of a vanishing status, for p1 and w3_twisted
_STATUS_WORDS = {t.value: t for t in Tri}


def _require_int(doc: Mapping[str, Any], key: str) -> int:
    value = doc.get(key)
    if type(value) is not int:
        raise SchemaError(f"field {key!r} must be an integer")
    return value


def _require_bool(doc: Mapping[str, Any], key: str, default: bool | None = None) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"field {key!r} must be a boolean")
    return value


def _total_field(raw: Any, algebra: GradedAlgebra, where: str) -> TotalClass:
    """A total class listed as one 0/1 vector per degree 0..dim."""
    dim = algebra.top_degree
    if not isinstance(raw, (list, tuple)) or len(raw) != dim + 1:
        raise SchemaError(f"{where} must list one coordinate vector per degree 0..{dim}")
    return _total(algebra, [_row(row, algebra.rank(d), f"{where}[{d}]") for d, row in enumerate(raw)])


def _parse_p1(raw: Any) -> P1Data:
    if isinstance(raw, Mapping) and set(raw) == {"int"} and type(raw["int"]) is int:
        return P1Data.integer(raw["int"], "document")
    if isinstance(raw, str) and raw in _STATUS_WORDS:
        return P1Data(_STATUS_WORDS[raw], None, "document")
    raise SchemaError('p1 must be {"int": k} or one of "zero"/"nonzero"/"unknown"')


def load_manifold(doc: Mapping[str, Any]) -> Manifold:
    """Build a validated manifold record from a document.

    The document carries the algebra (basis labels per degree, product and
    Steenrod tables as entry lists), the classical invariants, a required
    p_1 status, and optional w / W_3 / flag data.  The loader checks the
    fields and the basis, then hands the entry lists to ``build_algebra``,
    the one reader of outside tables, which packs each checked row into the
    table of its unordered degree pair and runs the axiom battery.  An absent ``mult``
    or ``sq`` is an empty list.  Once every field is read, the declared
    ``euler`` (parity first), ``orientable`` and a nonzero ``signature``
    off the 4k lattice are checked against the algebra, in that order;
    ``_assemble`` settles ``signature``, ``w``, ``p1`` and ``w3_twisted``
    in that order, and ``validate_manifold`` checks the rest.  Every
    failure names the offending field, entry or invariant.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError("manifold document must be a mapping")
    unknown = set(doc) - _DOCUMENT_FIELDS
    if unknown:
        raise SchemaError(f"unknown document fields: {sorted(unknown)}")
    for key in ("dim", "orientable", "euler", "basis", "p1"):
        if key not in doc:
            raise SchemaError(f"missing required field {key!r}")

    dim = _require_int(doc, "dim")
    if dim < 0:
        raise SchemaError("dim must be >= 0")
    orientable = _require_bool(doc, "orientable")
    euler = _require_int(doc, "euler")
    signature = doc.get("signature")
    if signature is not None and type(signature) is not int:
        raise SchemaError("field 'signature' must be an integer")

    basis = doc["basis"]
    if (
        not isinstance(basis, (list, tuple))
        or len(basis) != dim + 1
        or any(
            not isinstance(row, (list, tuple)) or any(not isinstance(l, str) for l in row)
            for row in basis
        )
    ):
        raise SchemaError("basis must list the labels for every degree 0..dim")
    if len(basis[0]) != 1 or len(basis[dim]) != 1:
        raise SchemaError("degrees 0 and dim must have exactly one basis label")
    algebra = build_algebra(dim, basis, doc.get("mult", []), doc.get("sq", []))

    w = None if doc.get("w") is None else _total_field(doc["w"], algebra, "w")
    p1 = _parse_p1(doc["p1"])
    w3_raw = doc.get("w3_twisted")
    if w3_raw is None:
        w3_stored = None
    elif isinstance(w3_raw, str) and w3_raw in _STATUS_WORDS:
        w3_stored = TriState(_STATUS_WORDS[w3_raw], "document")
    else:
        raise SchemaError('w3_twisted must be one of "zero"/"nonzero"/"unknown"')
    stably_parallelizable = _require_bool(doc, "stably_parallelizable", False)
    torsion_free = _require_bool(doc, "torsion_free", False)

    # the declared invariants against the ones the algebra fixes; on an
    # algebra the battery accepts, <w_n, [M]> is the Euler characteristic mod 2
    chi, oriented = _euler(algebra), _oriented(algebra)
    if (euler - chi) % 2:
        raise InvariantViolation("Euler parity", f"<w_{dim}, [M]> = {chi % 2} but chi = {euler}")
    if euler != chi:
        raise InvariantViolation("euler-rank", f"chi = {euler} but the ranks alternate to {chi}")
    if orientable != oriented:
        raise InvariantViolation("orientability", "orientability flag contradicts w_1")
    if signature and not (oriented and dim % 4 == 0):
        raise InvariantViolation("signature", "signature recorded where none is defined")

    return _assemble(
        str(doc.get("name", "document")),
        algebra,
        w=w,
        signature=signature,
        p1=p1,
        w3_stored=w3_stored,
        stably_parallelizable=stably_parallelizable,
        torsion_free=torsion_free,
    )


_DESCRIPTOR_FIELDS = {"rank", "w", "p1", "orientable"}


def load_descriptor(doc: Any, algebra: GradedAlgebra) -> BundleDescriptor:
    """Build a bundle descriptor over ``algebra`` from a document.

    The document has exactly the fields ``rank``, ``w`` (one 0/1 vector per
    degree), ``p1`` (as in a manifold document) and ``orientable``; whether
    they fit together is checked by ``BundleDescriptor``.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError("descriptor document must be a JSON object")
    missing = sorted(_DESCRIPTOR_FIELDS - set(doc))
    extra = sorted(set(doc) - _DESCRIPTOR_FIELDS)
    parts = []
    if missing:
        parts.append(f"missing fields {missing}")
    if extra:
        parts.append(f"unexpected fields {extra}")
    if parts:
        raise SchemaError("descriptor document: " + "; ".join(parts))
    rank = doc["rank"]
    if type(rank) is not int or rank < 0:
        raise SchemaError("descriptor rank must be a nonnegative integer")
    orientable = _require_bool(doc, "orientable")
    w = _total_field(doc["w"], algebra, "descriptor w")
    return BundleDescriptor(rank, w, _parse_p1(doc["p1"]), orientable)
