"""Finite graded-commutative GF(2) algebras with Steenrod squares.

A degree-n Poincare algebra is stored as an ordered label basis per degree,
multiplication tables per degree pair as ``(r1, r2, r_out)`` uint8 arrays,
Steenrod tables per ``(k, degree)`` as ``(r_d, r_{d+k})`` matrices, a
fundamental-evaluation functional on the top degree, and the coordinates of
the unit.  Only the blocks holding a nonzero entry are stored.  All
arithmetic is mod 2; uint8 accumulation is safe because wrap-around happens
mod 256, which preserves parity.

Every routine walks the degrees that carry a basis class (``degrees``) or
the blocks the algebra stores, never all degree pairs or triples up to the
top degree: a sphere of dimension n costs a handful of blocks, not n^2.

Conventions:
  * blocks absent from the tables are zero maps (``mult_block`` and
    ``sq_block`` return them as zeros), so an algebra has one stored form,
  * ``Sq^0`` is the identity and ``Sq^k x = 0`` for ``k > deg x``,
  * products and squares landing above the top degree are zero,
  * algebras compare and hash by identity; classes compare by value but only
    within the same owning algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .gf2 import gf2_invertible, to_gf2

__all__ = [
    "GradedAlgebra",
    "ClassZ2",
    "TotalClass",
    "ValidationReport",
    "build_algebra",
    "validate_algebra",
    "multiply",
    "steenrod_square",
    "total_sq",
    "evaluate_top",
    "invert_total",
    "kunneth",
    "cross_total",
    "connected_sum_algebra",
]


def _frozen(a) -> np.ndarray:
    """Outside data reduced mod 2 into a fresh, read-only uint8 array."""
    a = to_gf2(a)
    a.setflags(write=False)
    return a


def _class(A: "GradedAlgebra", d: int, coords: np.ndarray) -> "ClassZ2":
    """A class on a 0/1 uint8 array the package just built or already froze.

    The array is frozen in place, not copied or reduced again; the public
    constructor does both, for coordinates from outside.
    """
    coords.setflags(write=False)
    x = object.__new__(ClassZ2)
    object.__setattr__(x, "algebra", A)
    object.__setattr__(x, "degree", d)
    object.__setattr__(x, "coords", coords)
    return x


def _total(A: "GradedAlgebra", comps: Sequence[np.ndarray]) -> "TotalClass":
    """A total class on 0/1 uint8 components the package built; see ``_class``."""
    for c in comps:
        c.setflags(write=False)
    x = object.__new__(TotalClass)
    object.__setattr__(x, "algebra", A)
    object.__setattr__(x, "components", tuple(comps))
    return x


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class GradedAlgebra:
    """Graded commutative GF(2) algebra with Steenrod squares.

    Instances are immutable after construction and identified by identity:
    classes belonging to different instances never interoperate.
    """

    top_degree: int
    basis: tuple[tuple[str, ...], ...]
    mult: Mapping[tuple[int, int], np.ndarray]
    sq_table: Mapping[tuple[int, int], np.ndarray]
    fundamental: np.ndarray
    unit: np.ndarray

    # -- structure ---------------------------------------------------------

    def rank(self, d: int) -> int:
        if 0 <= d <= self.top_degree:
            return len(self.basis[d])
        return 0

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.basis)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """The degrees that carry a basis class, ascending."""
        return tuple(d for d, labels in enumerate(self.basis) if labels)

    def labels(self, d: int) -> tuple[str, ...]:
        return self.basis[d] if 0 <= d <= self.top_degree else ()

    def mult_block(self, d1: int, d2: int) -> np.ndarray:
        blk = self.mult.get((d1, d2))
        if blk is None:
            return np.zeros((self.rank(d1), self.rank(d2), self.rank(d1 + d2)), dtype=np.uint8)
        return blk

    def sq_block(self, k: int, d: int) -> np.ndarray:
        blk = self.sq_table.get((k, d))
        if blk is None:
            return np.zeros((self.rank(d), self.rank(d + k)), dtype=np.uint8)
        return blk

    # -- element factories ---------------------------------------------------

    def zero(self, d: int) -> "ClassZ2":
        return ClassZ2(self, d, np.zeros(self.rank(d), dtype=np.uint8))

    def __repr__(self) -> str:
        return f"GradedAlgebra(top_degree={self.top_degree}, ranks={list(self.ranks)})"


@dataclass(frozen=True, eq=False, repr=False)
class ClassZ2:
    """Homogeneous cohomology class: a degree plus dense GF(2) coordinates."""

    algebra: GradedAlgebra
    degree: int
    coords: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"negative degree {self.degree}")
        coords = _frozen(self.coords)
        expected = self.algebra.rank(self.degree)
        if coords.shape != (expected,):
            raise ValueError(
                f"degree-{self.degree} class needs {expected} coordinates, got {coords.shape}"
            )
        object.__setattr__(self, "coords", coords)

    def is_zero(self) -> bool:
        return not self.coords.any()

    def __add__(self, other: "ClassZ2") -> "ClassZ2":
        _check_same_algebra(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add classes of different degrees")
        return _class(self.algebra, self.degree, self.coords ^ other.coords)

    def __mul__(self, other: "ClassZ2") -> "ClassZ2":
        return multiply(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassZ2):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.degree == other.degree
            and bool(np.array_equal(self.coords, other.coords))
        )

    def __str__(self) -> str:
        labels = self.algebra.labels(self.degree)
        terms = [labels[i] for i in range(len(labels)) if self.coords[i]]
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"ClassZ2(degree={self.degree}, {self!s})"


@dataclass(frozen=True, eq=False, repr=False)
class TotalClass:
    """Inhomogeneous class with one component in every degree 0..n."""

    algebra: GradedAlgebra
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = self.algebra.top_degree
        if len(self.components) != n + 1:
            raise ValueError(f"need {n + 1} components, got {len(self.components)}")
        comps = []
        for d, c in enumerate(self.components):
            c = _frozen(c)
            if c.shape != (self.algebra.rank(d),):
                raise ValueError(f"component {d} has wrong length")
            comps.append(c)
        object.__setattr__(self, "components", tuple(comps))

    @staticmethod
    def from_components(algebra: GradedAlgebra, comps: Sequence[Iterable[int]]) -> "TotalClass":
        return TotalClass(algebra, tuple(np.asarray(list(c), dtype=np.uint8) for c in comps))

    def component(self, d: int) -> ClassZ2:
        if 0 <= d <= self.algebra.top_degree:
            return _class(self.algebra, d, self.components[d])
        return self.algebra.zero(d)

    def __mul__(self, other: "TotalClass") -> "TotalClass":
        _check_same_algebra(self, other)
        A = self.algebra
        n = A.top_degree
        out = [np.zeros(A.rank(t), dtype=np.uint8) for t in range(n + 1)]
        # look up blocks between the two supports: RP(n) stores about n^2/2 blocks
        # while its w has few nonzero components
        right = [d for d, y in enumerate(other.components) if y.any()]
        for d1, x in enumerate(self.components):
            if not x.any():
                continue
            for d2 in right:
                blk = A.mult.get((d1, d2))
                if blk is not None:
                    out[d1 + d2] ^= (
                        np.einsum("i,j,ijo->o", x, other.components[d2], blk) % 2
                    ).astype(np.uint8)
        return _total(A, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TotalClass):
            return NotImplemented
        return self.algebra is other.algebra and all(
            np.array_equal(a, b) for a, b in zip(self.components, other.components)
        )

    def __str__(self) -> str:
        terms: list[str] = []
        for d in range(self.algebra.top_degree + 1):
            labels = self.algebra.labels(d)
            terms.extend(labels[i] for i in range(len(labels)) if self.components[d][i])
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"TotalClass({self!s})"


def _check_same_algebra(x, y) -> None:
    if x.algebra is not y.algebra:
        raise ValueError("classes belong to different algebras")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_algebra(
    top_degree: int,
    basis: Sequence[Sequence[str]],
    mult: Mapping[tuple[int, int], np.ndarray] | None = None,
    sq: Mapping[tuple[int, int], np.ndarray] | None = None,
    *,
    unit: Iterable[int] | None = None,
    fundamental: Iterable[int] | None = None,
) -> GradedAlgebra:
    """Assemble and validate a graded algebra from outside data.

    ``mult`` maps ``(d1, d2)`` to ``(r1, r2, r_out)`` tables and ``sq`` maps
    ``(k, d)`` to ``(r_d, r_{d+k})`` matrices.  Unit blocks and ``Sq^0`` are
    filled in automatically when the degree-0 rank is 1.  The assembled
    algebra must pass every axiom of :func:`validate_algebra`; a failure
    raises ``InvariantViolation("algebra-axioms", ...)``.  Every table and
    vector is read mod 2.
    """
    alg = _assemble_algebra(
        top_degree,
        basis,
        {key: to_gf2(blk) for key, blk in (mult or {}).items()},
        {key: to_gf2(blk) for key, blk in (sq or {}).items()},
        unit=None if unit is None else to_gf2(list(unit)),
        fundamental=None if fundamental is None else to_gf2(list(fundamental)),
    )
    report = validate_algebra(alg)
    if not report.ok:
        raise InvariantViolation("algebra-axioms", "; ".join(report.violations))
    return alg


def _assemble_algebra(
    top_degree: int,
    basis: Sequence[Sequence[str]],
    mult: Mapping[tuple[int, int], np.ndarray] | None = None,
    sq: Mapping[tuple[int, int], np.ndarray] | None = None,
    *,
    unit: Iterable[int] | None = None,
    fundamental: Iterable[int] | None = None,
) -> GradedAlgebra:
    """Shape- and range-checked assembly without the axiom battery.

    For constructions that are algebras by construction: the closed-form
    catalog atoms, Kunneth products and connected sums of valid algebras.
    Tables come as 0/1 uint8 arrays that the caller hands over: they are
    shape-checked, and those with a nonzero entry are kept, frozen in place,
    not copied or reduced.  Unit blocks and ``Sq^0`` are added where the
    caller gave none.
    """
    if top_degree < 0:
        raise ValueError("top_degree must be >= 0")
    if len(basis) != top_degree + 1:
        raise ValueError(f"need {top_degree + 1} basis lists, got {len(basis)}")
    basis_t = tuple(tuple(str(l) for l in deg) for deg in basis)
    for d, labels in enumerate(basis_t):
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate basis labels in degree {d}")
    ranks = [len(b) for b in basis_t]
    n = top_degree

    unit_v = (
        np.asarray(unit, dtype=np.uint8)
        if unit is not None
        else _indicator(ranks[0], 0 if ranks[0] else None)
    )
    fund_v = (
        np.asarray(fundamental, dtype=np.uint8)
        if fundamental is not None
        else _indicator(ranks[n], 0 if ranks[n] else None)
    )
    if unit_v.shape != (ranks[0],):
        raise ValueError("unit vector has wrong length")
    if fund_v.shape != (ranks[n],):
        raise ValueError("fundamental functional has wrong length")

    mult_in = dict(mult or {})
    sq_in = dict(sq or {})
    for (d1, d2), blk in mult_in.items():
        if d1 < 0 or d2 < 0 or d1 + d2 > n:
            if blk.any():
                raise ValueError(f"nonzero product table outside the grading: ({d1}, {d2})")
    for (k, d), blk in sq_in.items():
        if k < 0 or d < 0 or d > n:
            raise ValueError(f"Steenrod table key out of range: ({k}, {d})")
        if (k > d or d + k > n) and blk.any():
            raise ValueError(f"nonzero Sq^{k} table on degree {d} is out of range")

    degrees = [d for d in range(n + 1) if ranks[d]]
    if ranks[0] == 1 and unit_v[0] == 1:
        for d in degrees:
            eye = np.eye(ranks[d], dtype=np.uint8)
            mult_in.setdefault((0, d), eye.reshape(1, ranks[d], ranks[d]))
            mult_in.setdefault((d, 0), eye.reshape(ranks[d], 1, ranks[d]))
    for d in degrees:
        sq_in.setdefault((0, d), np.eye(ranks[d], dtype=np.uint8))

    mult_t: dict[tuple[int, int], np.ndarray] = {}
    for (d1, d2), blk in sorted(mult_in.items()):
        if d1 < 0 or d2 < 0 or d1 + d2 > n:
            continue
        if blk.shape != (ranks[d1], ranks[d2], ranks[d1 + d2]):
            raise ValueError(f"product table ({d1}, {d2}) has shape {blk.shape}")
        if np.count_nonzero(blk):
            blk.setflags(write=False)
            mult_t[(d1, d2)] = blk

    sq_t: dict[tuple[int, int], np.ndarray] = {}
    for (k, d), blk in sorted(sq_in.items(), key=lambda item: item[0][::-1]):
        if k > d or d + k > n:
            continue
        if blk.shape != (ranks[d], ranks[d + k]):
            raise ValueError(f"Steenrod table ({k}, {d}) has shape {blk.shape}")
        if np.count_nonzero(blk):
            blk.setflags(write=False)
            sq_t[(k, d)] = blk

    unit_v.setflags(write=False)
    fund_v.setflags(write=False)
    return GradedAlgebra(
        top_degree=n,
        basis=basis_t,
        mult=mult_t,
        sq_table=sq_t,
        fundamental=fund_v,
        unit=unit_v,
    )


# Largest dense size of the multiplication plus Steenrod tables of one
# algebra, every in-range block counted, stored or zero.
TABLE_BYTES_BUDGET = 1 << 25


def _table_bytes(ranks: Sequence[int]) -> int:
    """Bytes of the uint8 tables of an algebra with these ranks, all blocks dense.

    ``sum r_d1 r_d2 r_(d1+d2)`` over product blocks plus ``sum r_d r_(d+k)``
    over the Steenrod blocks ``0 <= k <= min(d, n - d)``.  Computed in
    float64, which is exact wherever the sum is near the budget.
    """
    r = np.asarray(ranks, dtype=np.float64)
    n = len(r) - 1
    prefix = np.concatenate(([0.0], np.cumsum(r)))
    d = np.arange(n + 1)
    products = r @ np.convolve(r, r)[: n + 1]
    squares = r @ (prefix[np.minimum(2 * d, n) + 1] - prefix[d])
    return int(products + squares)


def _check_table_budget(ranks: Sequence[int]) -> None:
    """Refuse, before anything is allocated, tables over the byte budget."""
    size = _table_bytes(ranks)
    if size > TABLE_BYTES_BUDGET:
        raise ValueError(
            f"the dense tables would take {size} bytes, "
            f"over the budget of {TABLE_BYTES_BUDGET} bytes"
        )


def _indicator(length: int, index: int | None) -> np.ndarray:
    v = np.zeros(length, dtype=np.uint8)
    if index is not None and length:
        v[index] = 1
    return v


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.violations)


# Entries of one chunk of an associativity product (float32, so 1 MB).
_CHUNK_ELEMENTS = 1 << 18


def _parity(a: np.ndarray) -> np.ndarray:
    """Entrywise parity of a float32 product of 0/1 tables."""
    bits = a.astype(np.int32)
    bits &= 1
    return bits


def validate_algebra(A: GradedAlgebra) -> ValidationReport:
    """Check every ring/Steenrod/duality axiom; returns the violation list.

    Checks: unit action, commutativity, associativity, Sq^0 = id,
    Sq^(deg x) = squaring, the Cartan formula on all basis pairs, and
    nondegeneracy of the Poincare pairing in every degree.

    The contractions run as 2-D float32 matrix products (BLAS).  They are
    exact: every product below sums at most one inner rank of 0/1 terms,
    far below 2^24, and the parity is read off afterwards.  The loops walk
    the degrees that carry a class; the other axioms hold trivially on zero
    ranks.  A block is copied to float32 when a check first reads it.

    Once the commutativity loop finds nothing, each mirror pair is computed
    once.  Over GF(2) with xy = yx, the associator (zy)x + z(yx) of (z, y, x)
    is x(yz) + (xy)z, that of (x, y, z); and both sides of the Cartan formula
    for (y, x) are those for (x, y) with the two factors swapped.  So only
    triples with d1 <= d3 and pairs with d1 <= d2 are computed, and each
    mirror repeats their verdict at its own place in the violation list.
    """
    n = A.top_degree
    degrees = A.degrees
    pairs = [(d1, d2) for d1 in degrees for d2 in degrees if d1 + d2 <= n]
    bad: list[str] = []
    mult = cache(lambda d1, d2: A.mult_block(d1, d2).astype(np.float32))
    sq = cache(lambda k, d: A.sq_block(k, d).astype(np.float32))

    for d in degrees:
        left = np.einsum("u,ujo->jo", A.unit, A.mult_block(0, d)) % 2
        right = np.einsum("iuo,u->io", A.mult_block(d, 0), A.unit) % 2
        eye = np.eye(A.rank(d), dtype=np.uint8)
        if not np.array_equal(left, eye):
            bad.append(f"unit: 1*x != x in degree {d}")
        if not np.array_equal(right, eye):
            bad.append(f"unit: x*1 != x in degree {d}")

    before = len(bad)
    for d1, d2 in pairs:
        if d1 <= d2 and not np.array_equal(
            A.mult_block(d1, d2), A.mult_block(d2, d1).transpose(1, 0, 2)
        ):
            bad.append(f"commutativity: degrees ({d1}, {d2})")
    commutative = len(bad) == before

    associative: dict[tuple[int, int, int], bool] = {}
    for d1, d2 in pairs:
        for d3 in degrees:
            if d1 + d2 + d3 > n:
                break
            if commutative and d3 < d1:
                ok = associative[d3, d2, d1]
            else:
                ok = associative[d1, d2, d3] = _associative(mult, A.rank, d1, d2, d3)
            if not ok:
                bad.append(f"associativity: degrees ({d1}, {d2}, {d3})")

    for d in degrees:
        if not np.array_equal(A.sq_block(0, d), np.eye(A.rank(d), dtype=np.uint8)):
            bad.append(f"sq0-identity: Sq^0 != id in degree {d}")
        if 2 * d <= n:
            squares = np.einsum("iio->io", A.mult_block(d, d))
            if not np.array_equal(A.sq_block(d, d), squares):
                for i, label in enumerate(A.labels(d)):
                    if not np.array_equal(A.sq_block(d, d)[i], squares[i]):
                        bad.append(
                            f"sq-top-squaring: Sq^k x = x*x at k = deg x fails for {label}"
                        )

    cartan_failures: dict[tuple[int, int], list[int]] = {}
    for d1, d2 in pairs:
        if commutative and d2 < d1:
            failed = cartan_failures[d2, d1]
            bad.extend(f"cartan: Sq^{k} on degrees ({d1}, {d2})" for k in failed)
            continue
        failed = cartan_failures[d1, d2] = []
        r1, r2 = A.rank(d1), A.rank(d2)
        prod = mult(d1, d2).reshape(r1 * r2, A.rank(d1 + d2))
        # Sq^k of a degree d1 + d2 product, for each degree t = d1 + d2 + k above it
        for t in degrees:
            k = t - d1 - d2
            if k < 1:
                continue
            if k > d1 + d2:
                break
            ro = A.rank(t)
            lhs = _parity(prod @ sq(k, d1 + d2)).reshape(r1, r2, ro)
            rhs = np.zeros((r1, r2, ro), dtype=np.int32)
            for u in range(max(0, k - d2), min(k, d1) + 1):
                v = k - u
                ra, rb = A.rank(d1 + u), A.rank(d2 + v)
                # Sq^u x_i * Sq^v y_j: first over the Sq^u x side, then Sq^v y
                x = _parity(sq(u, d1) @ mult(d1 + u, d2 + v).reshape(ra, rb * ro))
                rhs ^= _parity(sq(v, d2) @ x.astype(np.float32).reshape(r1, rb, ro))
            if not np.array_equal(lhs, rhs):
                failed.append(k)
        bad.extend(f"cartan: Sq^{k} on degrees ({d1}, {d2})" for k in failed)

    fundamental = A.fundamental.astype(np.float32)
    for d in sorted({*degrees, *(n - d for d in degrees)}):
        r1, r2 = A.rank(d), A.rank(n - d)
        if r1 != r2:
            bad.append(f"pairing: ranks differ in degrees {d} and {n - d} ({r1} vs {r2})")
            continue
        pairing = _parity(mult(d, n - d).reshape(r1 * r1, A.rank(n)) @ fundamental)
        if not gf2_invertible(pairing.reshape(r1, r1)):
            bad.append(f"pairing: degenerate in degree {d}")

    return ValidationReport(tuple(bad))


def _associative(mult, rank, d1: int, d2: int, d3: int) -> bool:
    """``(xy)z = x(yz)`` on all basis triples of degrees d1, d2, d3.

    Both sides are products ``(r1 r2 x r12) @ (r12 x r3 ro)`` and
    ``(r2 r3 x r23) @ (r23 x r1 ro)``, taken a chunk of x classes at a time.
    """
    r1, r2, r3 = rank(d1), rank(d2), rank(d3)
    r12, r23, ro = rank(d1 + d2), rank(d2 + d3), rank(d1 + d2 + d3)
    xy = mult(d1, d2).reshape(r1 * r2, r12)
    xy_z = mult(d1 + d2, d3).reshape(r12, r3 * ro)
    yz = mult(d2, d3).reshape(r2 * r3, r23)
    x_yz = mult(d1, d2 + d3)
    step = max(1, _CHUNK_ELEMENTS // max(1, r2 * r3 * ro))
    for lo in range(0, r1, step):
        hi = min(lo + step, r1)
        lhs = _parity(xy[lo * r2 : hi * r2] @ xy_z).reshape(hi - lo, r2 * r3, ro)
        x_chunk = x_yz[lo:hi].transpose(1, 0, 2).reshape(r23, (hi - lo) * ro)
        rhs = _parity(yz @ x_chunk).reshape(r2 * r3, hi - lo, ro)
        if not np.array_equal(lhs.transpose(1, 0, 2), rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def multiply(x: ClassZ2, y: ClassZ2) -> ClassZ2:
    """Cup product; zero when the result degree exceeds the top degree."""
    _check_same_algebra(x, y)
    A = x.algebra
    d = x.degree + y.degree
    if d > A.top_degree:
        return A.zero(d)
    blk = A.mult_block(x.degree, y.degree)
    return _class(A, d, np.einsum("i,j,ijo->o", x.coords, y.coords, blk) % 2)


def steenrod_square(k: int, x: ClassZ2) -> ClassZ2:
    """``Sq^k x``: identity for k = 0, squaring at k = deg x, zero beyond."""
    if k < 0:
        raise ValueError("negative Steenrod index")
    A = x.algebra
    d = x.degree
    if k > d or d + k > A.top_degree:
        return A.zero(d + k)
    return _class(A, d + k, (x.coords @ A.sq_block(k, d)) % 2)


def total_sq(v: TotalClass) -> TotalClass:
    """Total Steenrod square ``Sq(v) = sum_k Sq^k(v_j)`` by target degree."""
    A = v.algebra
    n = A.top_degree
    out = [np.zeros(A.rank(t), dtype=np.uint8) for t in range(n + 1)]
    for (k, j), blk in A.sq_table.items():
        out[j + k] ^= ((v.components[j] @ blk) % 2).astype(np.uint8)
    return _total(A, out)


def evaluate_top(x: ClassZ2) -> int:
    """Pairing of a top-degree class with the fundamental class (0 or 1)."""
    A = x.algebra
    if x.degree != A.top_degree:
        raise ValueError(f"evaluate_top needs degree {A.top_degree}, got {x.degree}")
    return int((x.coords @ A.fundamental) % 2)


def invert_total(u: TotalClass) -> TotalClass:
    """Formal inverse of a unital total class (so ``u * invert_total(u) = 1``)."""
    A = u.algebra
    n = A.top_degree
    if not np.array_equal(u.components[0], A.unit):
        raise ValueError("invert_total needs a unital degree-0 component")
    support = [i for i in range(1, n + 1) if u.components[i].any()]
    inv = [A.unit]
    for d in range(1, n + 1):
        acc = np.zeros(A.rank(d), dtype=np.uint8)
        for i in support:
            if i > d:
                break
            if not inv[d - i].any():
                continue
            blk = A.mult_block(i, d - i)
            acc ^= (np.einsum("i,j,ijo->o", u.components[i], inv[d - i], blk) % 2).astype(
                np.uint8
            )
        inv.append(acc)
    return _total(A, inv)


# ---------------------------------------------------------------------------
# Kunneth product
# ---------------------------------------------------------------------------


def _prime_counts(labels: Iterable[str], into: dict[str, set[int]] | None = None):
    """Map each label's stem (trailing primes stripped) to its prime counts."""
    counts = {} if into is None else into
    for label in labels:
        stem = label.rstrip("'")
        counts.setdefault(stem, set()).add(len(label) - len(stem))
    return counts


def _fewest_primes(blocked: set[int]) -> int:
    p = 0
    while p in blocked:
        p += 1
    return p


def _disambiguate(other: Sequence[Sequence[str]], *taken: dict[str, set[int]]):
    """Prime the positive-degree labels of ``other`` until none is ``taken``.

    Every label gets the same, fewest number of primes.  Stem ``s`` with
    ``q`` primes collides after ``p`` more exactly when ``q + p`` is among
    the prime counts of ``s`` in one of the ``taken`` maps (see
    ``_prime_counts``), so no primed label is built before the count is known.
    """
    blocked: set[int] = set()
    for stem, own in _prime_counts(l for deg in other[1:] for l in deg).items():
        for counts in taken:
            for q in own:
                blocked.update(c - q for c in counts.get(stem, ()) if c >= q)
    p = _fewest_primes(blocked)
    return [list(other[0])] + [[l + "'" * p for l in deg] for deg in other[1:]]


def _pair_label(la: str, lb: str) -> str:
    if la == "1":
        return lb
    if lb == "1":
        return la
    return f"{la}*{lb}"


def _degree_pairs(A: GradedAlgebra, B: GradedAlgebra) -> list[list[tuple[int, int]]]:
    """For each degree of ``A (x) B``, the ``(i, j)`` carrying classes in A and B, i ascending."""
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(A.top_degree + B.top_degree + 1)]
    for i in A.degrees:
        for j in B.degrees:
            pairs[i + j].append((i, j))
    return pairs


def _spread(a: np.ndarray, side: int) -> np.ndarray:
    """``a`` with a unit axis after (side 0) or before (side 1) each axis.

    ``_spread(a, 0) & _spread(b, 1)`` is the outer product of two 0/1 arrays
    of equal rank with their axes interleaved; merging each pair of axes
    gives the Kronecker product, entry ``(a_0 r_b0 + b_0, ...)`` being
    ``a[a_0, ...] & b[b_0, ...]``.
    """
    return a.reshape([x for r in a.shape for x in ((r, 1) if side == 0 else (1, r))])


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 0/1 arrays of equal rank."""
    return (_spread(a, 0) & _spread(b, 1)).reshape([x * y for x, y in zip(a.shape, b.shape)])


def _spread_all(tables: Mapping[tuple[int, int], np.ndarray], side: int) -> list:
    """``(key, shape, spread block)`` for each stored table."""
    return [(key, blk.shape, _spread(blk, side)) for key, blk in tables.items()]


def _block_at(tables: dict, key: tuple[int, int], shape: tuple[int, ...]) -> np.ndarray:
    """The block of ``tables`` at ``key``, allocated as zeros on first use."""
    blk = tables.get(key)
    if blk is None:
        blk = tables[key] = np.zeros(shape, dtype=np.uint8)
    return blk


def kunneth(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Tensor-product algebra on pair bases, Steenrod squares via Cartan.

    A's product block ``(i1, i2)`` times B's block ``(j1, j2)`` fills its own
    slice of block ``(i1 + j1, i2 + j2)``, and each entry there is a product
    of two bits: the piece is written once, as an outer product.  So is each
    Cartan piece ``Sq^u (x) Sq^v`` of ``Sq^(u+v)``.  Only stored (nonzero)
    blocks make pieces, and an output block is allocated when its first
    piece lands in it.
    """
    n = A.top_degree + B.top_degree
    pairs = _degree_pairs(A, B)
    # start[d][i]: first index of the (i, d - i) basis pairs in degree d
    start: list[dict[int, int]] = []
    ranks: list[int] = []
    for row in pairs:
        start.append({})
        size = 0
        for i, j in row:
            start[-1][i] = size
            size += A.rank(i) * B.rank(j)
        ranks.append(size)
    _check_table_budget(ranks)
    labels_b = _disambiguate(B.basis, _prime_counts(l for deg in A.basis[1:] for l in deg))
    basis = [
        [_pair_label(la, lb) for i, j in row for la in A.basis[i] for lb in labels_b[j]]
        for row in pairs
    ]

    mult: dict[tuple[int, int], np.ndarray] = {}
    mult_b = _spread_all(B.mult, 1)
    for (i1, i2), (ra1, ra2, rao), ma in _spread_all(A.mult, 0):
        for (j1, j2), (rb1, rb2, rbo), mb in mult_b:
            d1, d2 = i1 + j1, i2 + j2
            s1, s2, so = start[d1][i1], start[d2][i2], start[d1 + d2][i1 + i2]
            r1, r2, ro = ra1 * rb1, ra2 * rb2, rao * rbo
            blk = _block_at(mult, (d1, d2), (ranks[d1], ranks[d2], ranks[d1 + d2]))
            blk[s1 : s1 + r1, s2 : s2 + r2, so : so + ro] = (ma & mb).reshape(r1, r2, ro)

    sq: dict[tuple[int, int], np.ndarray] = {}
    sq_b = _spread_all(B.sq_table, 1)
    for (u, i), (ra, rao), sa in _spread_all(A.sq_table, 0):
        for (v, j), (rb, rbo), sb in sq_b:
            if u + v == 0:
                continue  # Sq^0 is the identity, which the assembler fills in
            k, d = u + v, i + j
            s, so = start[d][i], start[d + k][i + u]
            r, ro = ra * rb, rao * rbo
            blk = _block_at(sq, (k, d), (ranks[d], ranks[d + k]))
            blk[s : s + r, so : so + ro] = (sa & sb).reshape(r, ro)

    return _assemble_algebra(
        n,
        basis,
        mult,
        sq,
        unit=_outer(A.unit, B.unit),
        fundamental=_outer(A.fundamental, B.fundamental),
    )


def cross_total(P: GradedAlgebra, u: TotalClass, v: TotalClass) -> TotalClass:
    """Cross product of total classes (degreewise Kunneth placement)."""
    # the empty leading piece makes a degree without classes an empty uint8 vector
    out = [
        np.concatenate(
            [np.zeros(0, dtype=np.uint8)]
            + [_outer(u.components[i], v.components[j]) for i, j in row]
        )
        for row in _degree_pairs(u.algebra, v.algebra)
    ]
    if tuple(len(c) for c in out) != P.ranks:
        raise ValueError("cross_total needs the Kunneth product of the two algebras")
    return _total(P, out)


# ---------------------------------------------------------------------------
# connected sum
# ---------------------------------------------------------------------------


def connected_sum_algebra(*pieces: GradedAlgebra) -> GradedAlgebra:
    """Cohomology of a connected sum: middle degrees direct-sum, tops glued.

    Cross products of positive-degree classes from different summands vanish;
    each summand's top class is identified with the shared top class.  The
    labels are those of the left fold ``((A # B) # C) # ...``: each summand
    is primed against the sum before it, that sum's top label included, and
    the top label is chosen again after each summand.
    """
    n = pieces[0].top_degree
    for S in pieces[1:]:
        if S.top_degree != n:
            raise DimensionMismatch(f"cannot sum dimensions {n} and {S.top_degree}")
    if n < 1:
        raise ValueError("connected sum needs dimension >= 1")
    for S in pieces:
        if S.rank(0) != 1 or S.rank(n) != 1:
            raise ValueError("connected summands must be connected closed pieces")
    ranks = [1] + [sum(S.rank(d) for S in pieces) for d in range(1, n)] + [1]
    _check_table_budget(ranks)

    basis: list[list[str]] = [["1"]] + [list(pieces[0].basis[d]) for d in range(1, n)]
    middle = _prime_counts(l for row in basis[1:] for l in row)
    top = pieces[0].basis[n][0]
    # starts[i][d]: first index of summand i in degree d (0 at the glued top)
    starts = [[0] * (n + 1)]
    for S in pieces[1:]:
        labels = _disambiguate(S.basis, middle, _prime_counts([top]))
        starts.append([0] + [len(row) for row in basis[1:]] + [0])
        for d in range(1, n):
            basis[d].extend(labels[d])
            _prime_counts(labels[d], into=middle)
        top = "t" + "'" * _fewest_primes(middle.get("t", set()))
    basis.append([top])

    def place(tables: dict, key, S: GradedAlgebra, start: list[int], src: np.ndarray, degrees):
        """Write summand ``S``'s block ``src``; a top output goes through its fundamental."""
        if degrees[-1] == n:
            src = ((src @ S.fundamental) % 2)[..., None]
        blk = _block_at(tables, key, tuple(ranks[d] for d in degrees))
        blk[tuple(slice(start[d], start[d] + S.rank(d)) for d in degrees)] = src

    # each summand's stored blocks; the unit blocks and Sq^0 are the assembler's
    mult: dict[tuple[int, int], np.ndarray] = {}
    sq: dict[tuple[int, int], np.ndarray] = {}
    for S, start in zip(pieces, starts):
        for (d1, d2), src in S.mult.items():
            if d1 and d2:
                place(mult, (d1, d2), S, start, src, (d1, d2, d1 + d2))
        for (k, d), src in S.sq_table.items():
            if k:
                place(sq, (k, d), S, start, src, (d, d + k))

    return _assemble_algebra(n, basis, mult, sq)
