"""Finite graded-commutative GF(2) algebras with Steenrod squares.

A degree-n Poincare algebra is stored as an ordered label basis per degree
and structure constants packed into Python ints, like the rows of
``gf2``: a class of degree d is an int whose bit i is its coordinate on
basis class i.  The product table of a degree pair ``(d1, d2)``, one per
unordered pair (``d1 <= d2``; the other order reads it transposed, in
``_entries``, ``_product`` and ``mult_block``), holds one int per basis
pair, entry ``i * r_d2 + j`` being the product of classes i and j; the
table of ``Sq^k`` on degree d holds one int per basis class.  The unit
and the fundamental-evaluation functional on the top degree are ints
too.  Only the tables holding a nonzero entry are stored, and every
algebra holds its tables in this one form from the moment it is built.
Every operation a catalog expression needs runs on shifts, ORs, XORs and
``int.bit_count``; ints are immutable, so nothing needs freezing.

Outside tables enter through one reader, ``build_algebra``: it takes
them in JSON document form, as entry lists of strict 0/1 rows, checks
each entry, packs each row straight into its stored table, and runs the
axiom battery, ``validate_algebra``.  Rows are read by ``_row``, whose
checks the ``mult`` loop writes out inline, parsing each distinct product
row once.  No other code reads outside coordinates: a class is made from
its bits by ``_class`` or ``_total``, out of the stored tables and the
operations below.  numpy is imported only for the array views
(``mult_block``, ``sq_block``, ``mult``, ``sq_table``, ``unit``,
``fundamental``, ``TotalClass.components``), a read-only surface for
outside readers built from the ints on first read and cached; the
package reads none, and the axiom battery runs on the packed tables
alone, so no document loads numpy.  ``validate_algebra`` states the
battery's rules and their proofs.  The Poincare pairing is read in one
place, ``_pairing_rows``, by the battery and by the Wu class alike.

Every routine walks the degrees that carry a basis class (``degrees``) or
the tables the algebra stores, never all degree pairs or triples up to the
top degree: a sphere of dimension n costs a handful of tables, not n^2.

Conventions:
  * tables absent from the store are zero maps (``mult_block`` and
    ``sq_block`` return them as zeros), so an algebra has one stored form,
  * ``Sq^0`` is the identity and ``Sq^k x = 0`` for ``k > deg x``,
  * products and squares landing above the top degree are zero,
  * algebras compare and hash by identity; classes compare by value but only
    within the same owning algebra.
"""
from __future__ import annotations

import operator
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, compress
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import DimensionMismatch, InvariantViolation, SchemaError
from .gf2 import _echelon

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


# ---------------------------------------------------------------------------
# packed bits
# ---------------------------------------------------------------------------


def _indices(x: int) -> list[int]:
    """The set bits of ``x``, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


# byte value -> 1 if nonzero
_NONZERO_BYTES = bytes([0] + [1] * 255)


def _table(rows: Iterable[int]) -> Sequence[int]:
    """A packed table as stored: bytes when every entry fits in a byte, else a tuple.

    Every table into a degree of rank at most 8, such as the top degree,
    takes one byte per entry, so ``_nonzero`` finds its entries with
    ``bytes.find`` rather than one interpreter step per entry; a document's
    wide pairing table into the top degree is mostly zeros.
    """
    rows = rows if isinstance(rows, bytearray) else list(rows)  # a byte table needs no list
    try:
        return bytes(rows)
    except ValueError:
        return tuple(rows)


def _nonzero(table: Sequence[int]) -> list[int]:
    """Positions of the nonzero entries of a stored table (see ``_table``)."""
    if not isinstance(table, bytes):
        return list(compress(range(len(table)), table))
    data = table.translate(_NONZERO_BYTES)
    out = []
    i = data.find(1)
    while i >= 0:
        out.append(i)
        i = data.find(1, i + 1)
    return out


# byte 0 or 1 -> its ASCII digit
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _unpack(rows: Sequence[int], width: int):
    """Packed rows as a read-only ``(len(rows), width)`` uint8 array."""
    import numpy as np

    size = (width + 7) // 8
    data = rows  # a bytes table of rows up to 8 bits wide is its own row bytes
    if not (size == 1 and isinstance(rows, bytes)):
        data = b"".join(row.to_bytes(size, "little") for row in rows)
    raw = np.frombuffer(data, dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(rows), size), axis=1, count=width, bitorder="little")
    bits.setflags(write=False)
    return bits


def _entries(A: "GradedAlgebra", d1: int, d2: int) -> list[tuple[int, int, int]]:
    """``(i, j, x_i y_j)`` for each nonzero product of a class x_i of degree d1 and y_j of degree d2.

    For ``d1 > d2`` the stored table ``(d2, d1)`` is read transposed, column by column.
    """
    if d1 > d2:
        return [(j, i, e) for i, j, e in _entries(A, d2, d1)]
    table, r2 = A.products.get((d1, d2), b""), A.rank(d2)
    return [(index // r2, index % r2, table[index]) for index in _nonzero(table)]


def _class(A: "GradedAlgebra", d: int, bits: int) -> "ClassZ2":
    """The class of degree d with these bits: with ``_total``, the one way a class is made."""
    x = object.__new__(ClassZ2)
    vars(x).update(algebra=A, degree=d, bits=bits)
    return x


def _total(A: "GradedAlgebra", parts: Sequence[int]) -> "TotalClass":
    """The total class with one int per degree; see ``_class``."""
    x = object.__new__(TotalClass)
    vars(x).update(algebra=A, parts=tuple(parts))
    return x


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


class _ReadOnly:
    """A record whose attributes are set once, by ``vars(self).update``, and read-only after.

    Assigning or deleting an attribute raises ``AttributeError``.  A
    ``cached_property`` still fills its entry on first read: it writes
    ``vars(self)`` directly.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class GradedAlgebra(_ReadOnly):
    """Graded commutative GF(2) algebra with Steenrod squares.

    Instances are identified by identity: classes belonging to different
    instances never interoperate.  The fields are read-only (``_ReadOnly``)
    and hold ints, strings and read-only maps of bytes or tuples, so an
    algebra never changes after construction; only the cached views below
    are added on first read.  ``products`` and ``squares`` are read-only
    maps to the packed tables of the module docstring (``_table``) with a
    nonzero entry, one product table per unordered degree pair; the ints
    ``unit_bits`` and ``fundamental_bits`` are the unit in degree 0 and the
    evaluation functional on the top degree.
    """

    def __init__(
        self,
        top_degree: int,
        basis: tuple[tuple[str, ...], ...],
        products: Mapping[tuple[int, int], Sequence[int]],
        squares: Mapping[tuple[int, int], Sequence[int]],
        unit_bits: int,
        fundamental_bits: int,
    ) -> None:
        vars(self).update(
            top_degree=top_degree,
            basis=basis,
            products=products,
            squares=squares,
            unit_bits=unit_bits,
            fundamental_bits=fundamental_bits,
        )

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

    # -- array views, built on first read ------------------------------------

    @cached_property
    def _views(self) -> dict:
        return {}

    def mult_block(self, d1: int, d2: int):
        """The ``(r_d1, r_d2, r_(d1+d2))`` product table as a read-only uint8 array, zeros when absent.

        For ``d1 > d2`` it is the ``(d2, d1)`` table transposed.
        """
        key = ("mult", d1, d2)
        view = self._views.get(key)
        if view is None and d1 > d2:
            view = self._views[key] = self.mult_block(d2, d1).transpose(1, 0, 2)
        elif view is None:
            r1, r2, ro = self.rank(d1), self.rank(d2), self.rank(d1 + d2)
            table = self.products.get((d1, d2), bytes(r1 * r2))
            view = self._views[key] = _unpack(table, ro).reshape(r1, r2, ro)
        return view

    def sq_block(self, k: int, d: int):
        """The ``(r_d, r_(d+k))`` table of ``Sq^k`` as a read-only uint8 array, zeros when absent."""
        key = ("sq", k, d)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = _unpack(self.squares.get((k, d), bytes(self.rank(d))), self.rank(d + k))
        return view

    @cached_property
    def mult(self) -> dict:
        """The stored product tables as arrays, keyed ``(d1, d2)`` with ``d1 <= d2``."""
        return {key: self.mult_block(*key) for key in self.products}

    @cached_property
    def sq_table(self) -> dict:
        """The stored Steenrod tables as arrays, keyed ``(k, d)``."""
        return {key: self.sq_block(*key) for key in self.squares}

    @cached_property
    def unit(self):
        return _unpack([self.unit_bits], self.rank(0))[0]

    @cached_property
    def fundamental(self):
        return _unpack([self.fundamental_bits], self.rank(self.top_degree))[0]

    # -- element factories ---------------------------------------------------

    def zero(self, d: int) -> "ClassZ2":
        return _class(self, d, 0)

    def __repr__(self) -> str:
        return f"GradedAlgebra(top_degree={self.top_degree}, ranks={list(self.ranks)})"


class ClassZ2(_ReadOnly):
    """Homogeneous cohomology class: a degree plus GF(2) coordinates as bits.

    The type takes no arguments: ``_class`` makes every instance.
    """

    algebra: GradedAlgebra
    degree: int
    bits: int

    def is_zero(self) -> bool:
        return not self.bits

    def __add__(self, other: "ClassZ2") -> "ClassZ2":
        _check_same_algebra(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add classes of different degrees")
        return _class(self.algebra, self.degree, self.bits ^ other.bits)

    def __mul__(self, other: "ClassZ2") -> "ClassZ2":
        return multiply(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassZ2):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.degree == other.degree
            and self.bits == other.bits
        )

    def __str__(self) -> str:
        labels = self.algebra.labels(self.degree)
        terms = [labels[i] for i in _indices(self.bits)]
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"ClassZ2(degree={self.degree}, {self!s})"


class TotalClass(_ReadOnly):
    """Inhomogeneous class with one component in every degree 0..n, as bits.

    The type takes no arguments: ``_total`` makes every instance.
    """

    algebra: GradedAlgebra
    parts: tuple[int, ...]

    @cached_property
    def components(self) -> tuple:
        """The components as read-only uint8 arrays."""
        return tuple(
            _unpack([bits], self.algebra.rank(d))[0] for d, bits in enumerate(self.parts)
        )

    def component(self, d: int) -> ClassZ2:
        if 0 <= d <= self.algebra.top_degree:
            return _class(self.algebra, d, self.parts[d])
        return self.algebra.zero(d)

    def __mul__(self, other: "TotalClass") -> "TotalClass":
        _check_same_algebra(self, other)
        A = self.algebra
        n = A.top_degree
        out = [0] * (n + 1)
        # pair the two supports: RP(n) stores about n^2/2 tables while its w
        # has few nonzero components
        right = [(d, y) for d, y in enumerate(other.parts) if y]
        for d1, x in enumerate(self.parts):
            if not x:
                continue
            for d2, y in right:
                if d1 + d2 > n:
                    break
                out[d1 + d2] ^= _product(A, d1, x, d2, y)
        return _total(A, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TotalClass):
            return NotImplemented
        return self.algebra is other.algebra and self.parts == other.parts

    def __str__(self) -> str:
        terms: list[str] = []
        for d, bits in enumerate(self.parts):
            labels = self.algebra.basis[d]
            terms.extend(labels[i] for i in _indices(bits))
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"TotalClass({self!s})"


def _check_same_algebra(x, y) -> None:
    if x.algebra is not y.algebra:
        raise ValueError("classes belong to different algebras")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


# a table row lists JSON integers 0 or 1: ``true`` and ``1.0`` equal 1 but are not integers
_ALL_INTS = frozenset((int,)).issuperset
_ALL_BITS = frozenset((0, 1)).issuperset


def _row(raw: Any, length: int, where: str) -> int:
    """A 0/1 vector of ``length``, checked and packed into one int: coordinate i is bit i."""
    if not isinstance(raw, (list, tuple)) or len(raw) != length:
        raise SchemaError(f"{where}: expected a 0/1 vector of length {length}")
    if not _ALL_INTS(map(type, raw)) or not _ALL_BITS(raw):
        raise SchemaError(f"{where}: coordinates must be 0 or 1")
    # the digits of the coordinates, last first, read in base 2
    return int(bytes(raw[::-1]).translate(_DIGITS) or b"0", 2)


def _listed(entries: Any, field: str) -> Sequence:
    if not isinstance(entries, (list, tuple)):
        raise SchemaError(f"field {field!r} must be a list of entries")
    return entries


def _blank(size: int, width: int) -> bytearray | list[int]:
    """A zero table of ``size`` entries ``width`` bits wide, in the form ``_table`` stores.

    Entries of at most 8 bits go in a ``bytearray``, which ``_table`` turns
    into ``bytes`` in one copy; wider entries go in a list.
    """
    return bytearray(size) if width <= 8 else [0] * size


def build_algebra(
    top_degree: int,
    basis: Sequence[Sequence[str]],
    mult: Sequence = (),
    sq: Sequence = (),
) -> GradedAlgebra:
    """Read, assemble and validate an algebra from outside tables, listed as documents list them.

    ``mult`` lists entries ``[d1, i, d2, j, row]``: the product of class i
    of degree d1 and class j of degree d2 as a 0/1 row over the basis of
    degree d1 + d2, in either order, ``[d2, j, d1, i, row]`` saying the same.
    ``sq`` lists entries ``[k, d, i, row]``: ``Sq^k`` of class i of degree
    d; an entry with k > d or d + k above the top degree must be a row of
    0/1 integers, all zero, and is dropped.  Absent rows are zero; the unit
    tables and ``Sq^0`` are filled in, as ``_packed_algebra`` fills them,
    where no entry gives them.

    Every row is read strictly, JSON integers 0 or 1 of the length of its
    degree.  Each entry is checked in one pass, in a fixed order: its
    shape, the types of its degrees and indices, their ranges, the product
    degree, the row's length and then its coordinates.  The checks run on
    every row; only then is a product row looked up in a cache of the
    product rows read so far, keyed by their bytes, and parsed to an int on
    a miss, as ring products repeat a few distinct rows (most of them one
    bit) many times, and a product entry with d1 > d2 turned into its twin.
    The row goes straight into its stored table: to its slot, and to slot
    ``(j, i)`` too in a square table.  An entry whose row differs from an
    earlier nonzero row in its slot, a product entry's twin's included, is
    refused; an all-zero earlier row gives way.  A malformed entry raises
    ``SchemaError`` naming its position.  A basis of the wrong length for
    the top degree (a negative top degree among them), one that repeats a
    label within a degree, or one whose tables would pass the byte budget,
    raises ``SchemaError`` naming the basis before any entry is read.  The
    assembled algebra must pass every axiom of
    :func:`validate_algebra`; a failure raises
    ``InvariantViolation("algebra-axioms", ...)``.
    """
    n = top_degree
    try:
        ranks = _ranks(top_degree, basis)
        _check_labels(basis)
        _check_table_size(_table_bytes(ranks))
    except ValueError as exc:
        raise SchemaError(f"basis: {exc}") from exc

    # One loop with no call per entry: the row checks are _row's, written
    # out, and the entry's position is formatted only when it is refused.
    # Most product rows repeat an earlier one (in a monomial basis each is
    # one bit), so a row is parsed only the first time its bytes are met.
    packed: dict = {}  # bytes of each product row read -> its packed int
    products: dict = {}
    for pos, entry in enumerate(_listed(mult, "mult")):
        if not isinstance(entry, (list, tuple)) or len(entry) != 5:
            raise SchemaError(f"mult entry {pos}: expected [deg1, idx1, deg2, idx2, coords]")
        d1, i, d2, j, raw = entry
        if not type(d1) is type(i) is type(d2) is type(j) is int:
            raise SchemaError(f"mult entry {pos}: degrees and indices must be integers")
        if not 0 <= d1 <= n:
            raise SchemaError(f"mult entry {pos}: first degree out of range")
        r1 = ranks[d1]
        if not 0 <= i < r1:
            raise SchemaError(f"mult entry {pos}: first index out of range")
        if not 0 <= d2 <= n:
            raise SchemaError(f"mult entry {pos}: second degree out of range")
        r2 = ranks[d2]
        if not 0 <= j < r2:
            raise SchemaError(f"mult entry {pos}: second index out of range")
        if d1 + d2 > n:
            raise SchemaError(f"mult entry {pos}: product degree {d1 + d2} exceeds dim")
        ro = ranks[d1 + d2]
        if not isinstance(raw, (list, tuple)) or len(raw) != ro:
            raise SchemaError(f"mult entry {pos}: expected a 0/1 vector of length {ro}")
        if not _ALL_INTS(map(type, raw)) or not _ALL_BITS(raw):
            raise SchemaError(f"mult entry {pos}: coordinates must be 0 or 1")
        key = bytes(raw)
        row = packed.get(key)
        if row is None:
            row = packed[key] = int(key[::-1].translate(_DIGITS) or b"0", 2)
        if d1 > d2:  # y x is x y: the entry goes to its twin's slot
            d1, i, r1, d2, j, r2 = d2, j, r2, d1, i, r1
        table = products.get((d1, d2))
        if table is None:
            table = products[d1, d2] = _blank(r1 * r2, ro)
        old = table[i * r2 + j]
        if old and old != row:
            raise SchemaError(f"mult entry {pos}: conflicts with an earlier entry")
        table[i * r2 + j] = row
        if d1 == d2:
            table[j * r2 + i] = row

    squares: dict = {}
    for pos, entry in enumerate(_listed(sq, "sq")):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise SchemaError(f"sq entry {pos}: expected [k, deg, idx, coords]")
        k, d, i, raw = entry
        if not type(k) is type(d) is type(i) is int:
            raise SchemaError(f"sq entry {pos}: k, degree and index must be integers")
        if not 0 <= d <= n or k < 0:
            raise SchemaError(f"sq entry {pos}: degree data out of range")
        if not 0 <= i < ranks[d]:
            raise SchemaError(f"sq entry {pos}: index out of range")
        if not isinstance(raw, (list, tuple)):
            raise SchemaError(f"sq entry {pos}: expected [k, deg, idx, coords]")
        if k > d or d + k > n:
            if _row(raw, len(raw), f"sq entry {pos}"):
                raise SchemaError(f"sq entry {pos}: Sq^{k} vanishes on degree {d} here")
            continue
        row = _row(raw, ranks[d + k], f"sq entry {pos}")
        table = squares.get((k, d))
        if table is None:
            table = squares[k, d] = _blank(ranks[d], ranks[d + k])
        if table[i] and table[i] != row:
            raise SchemaError(f"sq entry {pos}: conflicts with an earlier entry")
        table[i] = row

    A = _packed_algebra(n, basis, _stored(products), _stored(squares))
    report = validate_algebra(A)
    if not report.ok:
        raise InvariantViolation("algebra-axioms", "; ".join(report.violations))
    return A


def _ranks(top_degree: int, basis: Sequence[Sequence[str]]) -> list[int]:
    if top_degree < 0:
        raise ValueError("top_degree must be >= 0")
    if len(basis) != top_degree + 1:
        raise ValueError(f"need {top_degree + 1} basis lists, got {len(basis)}")
    return [len(labels) for labels in basis]


def _check_labels(basis: Sequence[Sequence[str]]) -> None:
    """Refuse a degree whose labels, as the strings an algebra stores, repeat one."""
    for d, labels in enumerate(basis):
        if len(set(map(str, labels))) != len(labels):
            raise ValueError(f"duplicate labels in degree {d}")


def _packed_algebra(
    top_degree: int,
    basis: Sequence[Sequence[str]],
    products: Mapping[tuple[int, int], Sequence[int]] | None = None,
    squares: Mapping[tuple[int, int], Sequence[int]] | None = None,
    *,
    unit: int | None = None,
    fundamental: int | None = None,
) -> GradedAlgebra:
    """An algebra on the given tables of packed ints, without the axiom battery.

    For constructions that are algebras by construction (the closed-form
    catalog atoms, Kunneth products and connected sums of valid algebras)
    and for the tables ``build_algebra`` has read and packed.
    Each table is given as ``_table`` makes it; a table with no nonzero
    entry is a zero map and is not stored.  Product tables are keyed
    ``(d1, d2)`` with ``d1 <= d2``, one per unordered degree pair; another
    key raises ``ValueError`` naming it.  The unit tables ``(0, d)`` and
    ``Sq^0`` are added where the caller gave no table; a given table is
    kept, zero or not, so the store says what the caller said.  The unit
    and the fundamental functional default to the first class of degree 0
    and of the top degree.
    """
    ranks = _ranks(top_degree, basis)
    n = top_degree
    basis_t = tuple(tuple(str(l) for l in labels) for labels in basis)
    _check_labels(basis_t)
    unit = (1 if ranks[0] else 0) if unit is None else unit
    fundamental = (1 if ranks[n] else 0) if fundamental is None else fundamental

    products_t, squares_t = dict(products or {}), dict(squares or {})
    for d1, d2 in products_t:
        if d1 > d2:
            raise ValueError(f"product table ({d1}, {d2}) is not keyed with d1 <= d2")
    for d in (d for d in range(n + 1) if ranks[d]):
        identity = _table(1 << i for i in range(ranks[d]))
        if ranks[0] == 1 and unit == 1:
            products_t.setdefault((0, d), identity)
        squares_t.setdefault((0, d), identity)
    return GradedAlgebra(
        top_degree=n,
        basis=basis_t,
        products=_read_only(products_t),
        squares=_read_only(squares_t),
        unit_bits=unit,
        fundamental_bits=fundamental,
    )


def _stored(tables: Mapping[tuple[int, int], Sequence[int]]) -> dict:
    """The tables as stored (see ``_table``)."""
    return {key: _table(rows) for key, rows in tables.items()}


def _read_only(tables: dict) -> Mapping:
    """The tables with a nonzero entry, in a read-only map."""
    # map(any) scans at C speed; only a given zero table costs the rebuild
    if not all(map(any, tables.values())):
        tables = {key: rows for key, rows in tables.items() if any(rows)}
    return MappingProxyType(tables)


# Largest dense size of the multiplication plus Steenrod tables of one
# algebra, every in-range block counted, stored or zero.
TABLE_BYTES_BUDGET = 1 << 25


def _table_bytes(ranks: Sequence[int]) -> int:
    """Bytes of the uint8 tables of an algebra with these ranks, all blocks dense.

    ``sum r_d1 r_d2 r_(d1+d2)`` over product blocks plus ``sum r_d r_(d+k)``
    over the Steenrod blocks ``0 <= k <= min(d, n - d)``, summed over the
    degrees that carry classes.  Both orders of every product block count,
    as the array views unpack them, though the store holds one of them.
    """
    n = len(ranks) - 1
    degrees = [d for d, r in enumerate(ranks) if r]
    prefix = list(accumulate(ranks, initial=0))
    size = 0
    for d1 in degrees:
        r1 = ranks[d1]
        size += r1 * (prefix[min(2 * d1, n) + 1] - prefix[d1])
        for d2 in degrees:
            if d1 + d2 > n:
                break
            size += r1 * ranks[d2] * ranks[d1 + d2]
    return size


def _monogenic_table_bytes(n: int) -> int:
    """``_table_bytes`` of RP(n) (every rank 1) and of CP(n) (rank 1 in even degrees).

    Both have (n + 1)(n + 2)/2 product blocks and n + 1 + floor(n^2 / 4)
    Steenrod blocks of one byte; the empty odd degrees of CP(n) add none.
    """
    return (n + 1) * (n + 2) // 2 + n + 1 + n * n // 4


def _check_table_size(size: int) -> None:
    """Refuse, before anything is allocated, tables over the byte budget."""
    if size > TABLE_BYTES_BUDGET:
        raise ValueError(
            f"the dense tables would take {size} bytes, "
            f"over the budget of {TABLE_BYTES_BUDGET} bytes"
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class ValidationReport(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.violations)


def validate_algebra(A: GradedAlgebra) -> ValidationReport:
    """Check every ring/Steenrod/duality axiom; returns the violation list.

    Checks: unit action, commutativity, associativity, Sq^0 = id,
    Sq^(deg x) = squaring, the Cartan formula, and nondegeneracy of the
    Poincare pairing in every degree, whose rows ``_pairing_rows`` reads
    from the stored tables.  The list names every failing degree triple of
    associativity and every failing degree pair and k of Cartan, in the
    order of the einsum formulation the tests keep as a reference.  Every
    check reads the stored packed tables, and the battery imports no numpy.

    The unit checks settle every axiom with a degree-0 factor when degree
    0 has rank 1, no unit check fails and Sq^0 fixes the unit: then
    (1y)z = yz = 1(yz), and Sq^k(1y) = Sq^k y = Sq^0(1) Sq^k(y).  So those
    triples and pairs are not computed; otherwise they are, as all others.
    The store holds one product table per unordered degree pair, so xy = yx
    holds off the diagonal by construction and x1 reads the table of 1x:
    the unit check is one-sided, 1x = x, and commutativity is checked on
    the square tables (d, d) alone.  The kernels read a square table that
    fails it as stored, by row or by column (``_columns``).

    Associativity and Cartan run through one scan, ``_scan``, over their
    items: a degree triple (d1, d2, d3) with the classes of degree d2 it
    puts in the middle, and a degree pair (d1, d2) with the classes of
    degree d1 it puts first, against every class of the other degrees.  The
    scan computes the items of a focus first and, only if one of them
    fails, every item over every class, so that the list still names each
    failure.  Each item is computed once over both passes: a repeat or a
    mirror reads the verdict already computed.  A pair with no k in range
    (``Sq^k`` of degree d1 + d2 landing in a degree with classes,
    ``1 <= k <= d1 + d2``) holds and is not scanned.

    Once the commutativity check finds nothing, each mirror pair is
    computed once.  Over GF(2) with xy = yx, the associator (zy)x + z(yx)
    of (z, y, x) is x(yz) + (xy)z, that of (x, y, z); and both sides of the
    Cartan formula for (y, x) are those for (x, y) with the two factors
    swapped.  So only triples with d1 <= d3, and pairs over every class
    with d1 <= d2, are computed, and each mirror repeats their verdict at
    its own place in the violation list.

    When the unit and commutativity checks pass, the generator classes S
    (``_generator_classes``: in each positive degree, the basis classes off
    the pivots of an echelon basis of the products of classes of positive
    degree) decide the rest.  S spans a complement of those products in
    each degree, so by induction on the degree every class is a sum of
    products of the unit and classes of S, and a set of classes holding
    these and closed under sums and products holds every class.

    * Associativity (Light's test; Clifford and Preston, *The Algebraic
      Theory of Semigroups* I, 1961, section 1.2).  Let T be the set of g
      with (xg)y = x(gy) for all x, y.  T is a subspace, holds the unit,
      and is closed under products: for a, b in T,
      (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  So the focus
      is the triples whose middle class is in S, against every class x and
      y of the outer degrees.
    * Cartan (the total square of an associative algebra is a ring map once
      it is one on generators; Steenrod and Epstein, *Cohomology
      Operations*, 1962).  Once associativity holds as well, and Sq^0 is the
      identity, so that the checks for k >= 1 give the total square
      Sq = Sq^0 + Sq^1 + ..., the classes x with Sq(xy) = Sq(x) Sq(y) for
      all y form a subspace that holds the unit (Sq(1) = 1) and is closed
      under products: for a, b in it,
      Sq(aby) = Sq(a) Sq(by) = Sq(a) Sq(b) Sq(y) = Sq(ab) Sq(y).  So the
      focus is the pairs whose first class is in S, against every class y.

    Neither argument asks for a whole degree, so a class of S adds itself
    alone to the focus: a ghost class, with no products, adds its own
    column and no other class of its degree.  Where the unit,
    commutativity, associativity or Sq^0 checks fail, the focus is every
    class.  So a valid RP8 costs 12 associativity triples of 34; the
    doc-ingest ring F2[a,b,c]/(a^6,b^4,c^6), whose S is a, c in degree 1
    and b in degree 2, costs 105 triples of 308, each on the middle classes
    of S alone, and 27 Cartan pairs: (1, d2) over a and c, (2, d2) over b.

    The kernels, ``_associative_packed`` and ``_cartan_packed`` (every k of
    a pair at once), take one interpreter step per nonzero stored product
    that a class in focus reads, on lines of the tables packed into ints;
    ``_Memo`` keeps what they pack for the whole battery, so a table is
    split and packed once however many items read it.  Battery time in ms,
    in process, best of 15 on one CPU of a shared 2-CPU host (Python 3.11.7):

    ================================  =====
    algebra                           ms
    ================================  =====
    40#RP4                            0.95
    N300                              0.55
    F2[a,b,c]/(a^6,b^4,c^6)           6.39
    the same with a ghost class       6.53
    the same with one square flipped  11.0
    rebased T^7                       21.4
    rebased T^8                       118
    T^9                               46.1
    K3 x K3                           12.2
    Sigma3 x Sigma3 x Sigma3          29.3
    S2 x S2 x S2                      0.12
    ================================  =====

    A failure costs the rescan of every pair: the flipped square sends the
    ring's Cartan check over its 56 pairs with a k.  The rebased tori, whose
    non-monomial basis fills every block, are the slowest per class: each
    product there is a sum of many basis classes.  The loops walk the
    degrees that carry a class; the other axioms hold trivially on zero
    ranks.
    """
    n = A.top_degree
    bad: list[str] = []
    _check_table_size(_table_bytes(A.ranks))

    r0, units = A.rank(0), _indices(A.unit_bits)
    for d in A.degrees:
        r = A.rank(d)
        # 1*x XORs the rows u of table (0, d); x*1 reads the same table
        left = A.products.get((0, d), b"")
        if _xor_rows([left[u * r : u * r + r] for u in units], r) != [1 << i for i in range(r)]:
            bad.append(f"unit: 1*x != x in degree {d}")
    # the unit checks decide every degree-0 factor (see above)
    unital = not bad and r0 == 1 and list(A.squares.get((0, 0), ())) == [1]
    degrees = [d for d in A.degrees if d or not unital]
    pairs = [(d1, d2) for d1 in degrees for d2 in degrees if d1 + d2 <= n]

    before = len(bad)
    for d in degrees:
        if 2 * d <= n:
            r, table = A.rank(d), A.products.get((d, d), b"")
            # row i of a square table against its column i
            if any(table[i * r : i * r + r] != table[i::r] for i in range(r)):
                bad.append(f"commutativity: degrees ({d}, {d})")
    commutative = len(bad) == before

    every = {d: (1 << A.rank(d)) - 1 for d in degrees}
    generators = _generator_classes(A) if unital and commutative else every

    def triples(middles: Mapping[int, int]) -> Iterable[tuple]:
        # a mirror triple runs as its twin
        return (
            ((d1, d2, d3), (*((d3, d2, d1) if commutative and d3 < d1 else (d1, d2, d3)), middles[d2]))
            for d1, d2 in pairs if d2 in middles for d3 in degrees if d1 + d2 + d3 <= n
        )

    memo = _Memo(A)
    failed = _scan(triples(generators), triples(every), partial(_associative_packed, memo), True)
    bad.extend(f"associativity: degrees {t}" for t, _ in failed)

    sq0_is_id = True
    for d in A.degrees:
        r = A.rank(d)
        if list(A.squares.get((0, d), ())) != [1 << i for i in range(r)]:
            bad.append(f"sq0-identity: Sq^0 != id in degree {d}")
            sq0_is_id = False
        if 2 * d <= n:
            # x_i * x_i is the diagonal of table (d, d)
            squares = A.products.get((d, d), bytes(r * r))[:: r + 1]
            for label, x, x_x in zip(A.labels(d), A.squares.get((d, d), bytes(r)), squares):
                if x != x_x:
                    bad.append(f"sq-top-squaring: Sq^k x = x*x at k = deg x fails for {label}")

    # by deg xy, the k <= deg xy with Sq^k(xy) landing in a degree with classes
    ks = [tuple(t - s for t in A.degrees if s < t <= 2 * s) for s in range(n + 1)]

    def factor_pairs(firsts: Mapping[int, int]) -> Iterable[tuple]:
        # a pair with no k holds; one over every class of d1 may run as its mirror
        return (
            ((d1, d2), (ks[d1 + d2], *((d2, d1, every[d2]) if mirror else (d1, d2, firsts[d1]))))
            for d1, d2 in pairs if d1 in firsts and ks[d1 + d2]
            for mirror in [commutative and d2 < d1 and firsts[d1] == every[d1]]
        )

    # the generator classes settle Cartan once associativity and Sq^0 = id hold too
    firsts = generators if sq0_is_id and not failed else every
    cartan_kernel = partial(_cartan_packed, memo, min(degrees, default=0))
    cartan = _scan(factor_pairs(firsts), factor_pairs(every), cartan_kernel, [])
    bad.extend(f"cartan: Sq^{k} on degrees {p}" for p, failing in cartan for k in failing)

    for d in sorted({*A.degrees, *(n - d for d in A.degrees)}):
        r1, r2 = A.rank(d), A.rank(n - d)
        if r1 != r2:
            bad.append(f"pairing: ranks differ in degrees {d} and {n - d} ({r1} vs {r2})")
        elif len(_echelon(_pairing_rows(A, d), r1)[0]) != r1:
            bad.append(f"pairing: degenerate in degree {d}")

    return ValidationReport(tuple(bad))


def _scan(focused: Iterable[tuple], items: Iterable[tuple], kernel: Callable, holds: Any) -> list[tuple]:
    """Each failing item's ``(degrees, verdict)``, if a focused item fails; else nothing.

    ``focused`` and ``items`` yield ``(degrees, args)``: the degrees name
    the item, and ``kernel(*args)`` gives its verdict, a mirror item giving
    its twin's args.  An item fails where its verdict is not ``holds``.
    The focused items are scanned first; only if one of them fails is
    every item scanned, through the verdicts already computed, so each
    args is computed once (``validate_algebra`` states the policy and its
    proofs).
    """
    verdicts: dict[tuple, Any] = {}
    for scanned in (focused, items):
        failed = []
        for degrees, args in scanned:
            verdict = verdicts.get(args)
            if verdict is None:  # no kernel returns None
                verdict = verdicts[args] = kernel(*args)
            if verdict != holds:
                failed.append((degrees, verdict))
        if not failed:
            break
    return failed


def _xor_rows(rows: Iterable[Sequence[int]], width: int) -> list[int]:
    """The entrywise XOR of packed rows of ``width`` entries; an empty row cuts it short."""
    return list(reduce(partial(map, operator.xor), rows, [0] * width))


def _generator_classes(A: GradedAlgebra) -> dict[int, int]:
    """Basis classes that, with the unit, generate the algebra: bits by positive degree.

    In each positive degree d the classes kept are those off the pivots of
    an echelon basis of the products of classes of lower positive degree,
    so they span a complement of those products, and by induction on the
    degree they and the unit generate every class.  The products are the
    stored nonzero entries of the tables ``(d1, d - d1)`` with
    ``0 < d1 <= d - d1``, which suffice on a commutative table; elimination
    stops once they span degree d.  Degrees keeping no class are left out.
    """
    out = {}
    for d in filter(None, A.degrees):
        tables = [A.products.get((d1, d - d1), b"") for d1 in range(1, d // 2 + 1)]
        rows = chain.from_iterable(filter(None, table) for table in tables)
        kept = (1 << A.rank(d)) - 1 - sum(_echelon(rows, A.rank(d), until_full=True)[0])
        if kept:
            out[d] = kept
    return out


def _pairing_rows(A: GradedAlgebra, d: int) -> list[int]:
    """The Poincare pairing of degree d with degree n - d as packed rows.

    Row j holds ``<x_i y_j, [M]>`` at bit i, for the classes x_i of degree d
    and y_j of degree n - d, read from the stored product table and the
    fundamental functional.  The pairing is nondegenerate in degree d
    exactly when these rows have rank ``r_d = r_(n-d)``.
    """
    n = A.top_degree
    rows = [0] * A.rank(n - d)
    for i, j, e in _entries(A, d, n - d):
        if (e & A.fundamental_bits).bit_count() & 1:
            rows[j] |= 1 << i
    return rows


class _Memo(dict):
    """What the kernels pack from the tables of ``A``, kept for one battery.

    ``memo[f, *args]`` is ``f(memo, *args)``, worked out on first read.
    ``offsets`` holds the bit of each degree in a total vector: the ranks
    below it, summed.
    """

    def __init__(self, A: GradedAlgebra) -> None:
        self.A = A
        self.offsets = list(accumulate(A.ranks, initial=0))

    def __missing__(self, key: tuple) -> Any:
        value = self[key] = key[0](self, *key[1:])
        return value


class _Lines(dict):
    """Packed lines by the class they are read at, given or built by ``line(a)``.

    Basis class ``1 << a`` reads line a; a sum of classes reads the XOR of
    their lines, and 0 reads 0, each worked out on first read.
    """

    def __init__(self, lines: Sequence[int] = (), line: Callable[[int], int] | None = None) -> None:
        super().__init__(zip(map((1).__lshift__, range(len(lines))), lines))
        self.line = line

    def __missing__(self, x: int) -> int:
        if x & (x - 1) or not x:
            out = reduce(operator.xor, map(self.__getitem__, map((1).__lshift__, _indices(x))), 0)
        else:
            out = self.line(x.bit_length() - 1)
        self[x] = out
        return out


def _split(memo: _Memo, d1: int, d2: int) -> list[list[tuple[int, int]]]:
    """The nonzero products of degrees ``(d1, d2)`` by row: row i lists ``(j, x_i y_j)``."""
    if d1 > d2:
        return memo[_columns, d2, d1]
    out = [[] for _ in range(memo.A.rank(d1))]
    for i, j, e in _entries(memo.A, d1, d2):
        out[i].append((j, e))
    return out


def _columns(memo: _Memo, d1: int, d2: int) -> list[list[tuple[int, int]]]:
    """The nonzero products of degrees ``(d1, d2)`` by column: column j lists ``(i, x_i y_j)``.

    A stored table is split once, by row (``_split``); its columns and the other order transpose that.
    """
    if d1 > d2:
        return memo[_split, d2, d1]
    out = [[] for _ in range(memo.A.rank(d2))]
    for i, row in enumerate(memo[_split, d1, d2]):
        for j, e in row:
            out[j].append((i, e))
    return out


def _packed_lines(memo: _Memo, split: Callable, d1: int, d2: int, step: int) -> _Lines:
    """The lines of ``split(memo, d1, d2)`` (``_split`` or ``_columns``), line a ORing ``e << b * step``."""
    lines = memo[split, d1, d2]
    packed = [0] * len(lines)
    for a, line in enumerate(lines):
        for b, e in line:
            packed[a] |= e << b * step
    return _Lines(packed)


def _associative_packed(memo: _Memo, d1: int, d2: int, d3: int, middles: int) -> bool:
    """``(xy)z = x(yz)`` on the basis triples whose middle class is in ``middles``.

    For each such class y_j of degree d2 both sides are packed into one int
    with the o-th coordinate of the product of x_i, y_j and z_k at bit
    ``(i r3 + k) ro + o``.  On the left, ``x_i y_j`` reads the line of table
    ``(d1 + d2, d3)`` that packs its products with every z_k over (k, o),
    placed at ``i r3 ro``; on the right, ``y_j z_k`` reads the line of table
    ``(d1, d2 + d3)`` that packs the products of every x_i with it over
    (i, o), placed at ``k ro``.  Only column j of table ``(d1, d2)`` and row
    j of table ``(d2, d3)`` are read, and a table of lines is packed the
    first time a product reads it.
    """
    r3, ro = memo.A.rank(d3), memo.A.rank(d1 + d2 + d3)
    step = r3 * ro
    columns, rows = memo[_columns, d1, d2], memo[_split, d2, d3]
    by_class = by_pair = None
    for j in _indices(middles):
        lhs = rhs = 0
        if columns[j]:
            by_class = by_class or memo[_packed_lines, _split, d1 + d2, d3, ro]
            for i, e in columns[j]:
                lhs ^= by_class[e] << i * step
        if rows[j]:
            by_pair = by_pair or memo[_packed_lines, _columns, d1, d2 + d3, step]
            for k, e in rows[j]:
                rhs ^= by_pair[e] << k * ro
        if lhs != rhs:
            return False
    return True


def _cartan_packed(memo: _Memo, lowest: int, ks: Sequence[int], d1: int, d2: int, firsts: int) -> list:
    """The k of ``ks`` with ``Sq^k(xy) != sum_u Sq^u x Sq^(k-u) y`` for x in ``firsts``.

    The pairs are those of a class x_i of degree d1 in ``firsts`` and any
    class y_j of degree d2, and every k is checked at once.  For each x_i,
    each side of the formula, summed over k >= 1, is packed into one int:
    the value on x_i and y_j takes block j, and within it its part in
    degree t sits at the bit of t in a total vector (``_Memo.offsets``).
    The first factors of the battery have degree ``lowest`` or more, so a
    block holds the degrees above ``lowest + d2``.  The left side adds the
    total square of ``x_i y_j`` over row i of the product table; the right
    side adds, for each u, the rows of ``_cartan_rows`` at the coordinates
    of ``Sq^u x_i``.  The k failing are those whose degree d1 + d2 + k holds
    a nonzero bit of a difference.
    """
    A, offsets, s = memo.A, memo.offsets, d1 + d2
    width = offsets[-1] - offsets[lowest + d2 + 1]
    chosen = _indices(firsts)
    diff = [0] * len(chosen)
    total = memo[_total_squares, s, ks]
    if total is not None:
        rows = memo[_split, d1, d2]
        for t, i in enumerate(chosen):
            for j, e in rows[i]:
                diff[t] ^= total[e] << j * width
    for u in range(min(d1, ks[-1]) + 1):
        left = A.squares.get((u, d1))
        rows = None if left is None else memo[_cartan_rows, d1 + u, d2, not u, width]
        if rows is not None:
            for t, i in enumerate(chosen):
                diff[t] ^= rows[left[i]]
    found = reduce(operator.or_, diff)
    repeat = found and ((1 << A.rank(d2) * width) - 1) // ((1 << width) - 1)
    return [k for k in ks if found & repeat * ((1 << A.rank(s + k)) - 1 << offsets[s + k])]


def _total_squares(memo: _Memo, s: int, ks: Sequence[int]) -> _Lines | None:
    """For each class of degree s, ``sum_k Sq^k`` of it over ``ks``, each part at its degree's bit.

    None when no square of ``ks`` is stored on degree s.
    """
    tables = [(memo.A.squares[k, s], memo.offsets[s + k]) for k in ks if (k, s) in memo.A.squares]
    lines = [0] * memo.A.rank(s)
    for table, offset in tables:
        for c in _nonzero(table):
            lines[c] |= table[c] << offset
    return _Lines(lines) if tables else None


def _cartan_rows(memo: _Memo, c: int, d2: int, first: bool, width: int) -> _Lines | None:
    """For each class e_a of degree c, ``sum_v e_a Sq^v y_j`` for every y_j of degree d2, packed.

    The sum runs over v from 0 to d2, or from 1 if ``first`` (the term
    u = 0 of the Cartan formula, whose v = 0 part is the product, no
    square); None when no v has tables.  The value on y_j takes block j of
    ``width`` bits, as in ``_cartan_packed``.  For each v, row a of table
    ``(c, d2 + v)`` is multiplied entrywise by the spread (``_spread``) of
    its coordinates, shifted to the bit of degree c + d2 + v; each product
    fits in its block, so the copies do not overlap.  A row is built the
    first time it is read.
    """
    terms = [
        (memo[_split, c, d2 + v], memo[_spread, v, d2, width], memo.offsets[c + d2 + v])
        for v in range(first, d2 + 1)
        if (v, d2) in memo.A.squares and (min(c, d2 + v), max(c, d2 + v)) in memo.A.products
    ]

    def row(a: int) -> int:
        line = 0
        for split, spread, offset in terms:
            for b, e in split[a]:
                line ^= (e << offset) * spread[b]
        return line

    return _Lines(line=row) if terms else None


def _spread(memo: _Memo, v: int, d2: int, width: int) -> list[int]:
    """For each class e_b of degree d2 + v, bit ``j width`` for each y_j of degree d2.

    The y_j are those whose ``Sq^v`` holds e_b.
    """
    spread = [0] * memo.A.rank(d2 + v)
    for j, y in enumerate(memo.A.squares[v, d2]):
        while y:
            low = y & -y
            spread[low.bit_length() - 1] |= 1 << j * width
            y ^= low
    return spread


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def _product(A: GradedAlgebra, d1: int, x: int, d2: int, y: int) -> int:
    """Bits of the product of the degree-d1 class ``x`` and the degree-d2 class ``y``."""
    if d1 > d2:
        d1, x, d2, y = d2, y, d1, x
    table = A.products.get((d1, d2))
    if table is None:
        return 0
    r2 = len(A.basis[d2])
    ys = _indices(y)
    out = 0
    for i in _indices(x):
        row = i * r2
        for j in ys:
            out ^= table[row + j]
    return out


def _image(table: Sequence[int] | None, x: int) -> int:
    """XOR of the rows of a packed table at the set bits of ``x`` (None is zero).

    For a Steenrod table this is the image of x.
    """
    out = 0
    if table is not None:
        for i in _indices(x):
            out ^= table[i]
    return out


def multiply(x: ClassZ2, y: ClassZ2) -> ClassZ2:
    """Cup product; zero when the result degree exceeds the top degree."""
    _check_same_algebra(x, y)
    A = x.algebra
    d = x.degree + y.degree
    if d > A.top_degree:
        return A.zero(d)
    return _class(A, d, _product(A, x.degree, x.bits, y.degree, y.bits))


def steenrod_square(k: int, x: ClassZ2) -> ClassZ2:
    """``Sq^k x``: identity for k = 0, squaring at k = deg x, zero beyond."""
    if k < 0:
        raise ValueError("negative Steenrod index")
    A = x.algebra
    d = x.degree
    if k > d or d + k > A.top_degree:
        return A.zero(d + k)
    return _class(A, d + k, _image(A.squares.get((k, d)), x.bits))


def total_sq(v: TotalClass) -> TotalClass:
    """Total Steenrod square ``Sq(v) = sum_k Sq^k(v_j)`` by target degree."""
    A = v.algebra
    out = [0] * (A.top_degree + 1)
    for (k, j), table in A.squares.items():
        if v.parts[j]:
            out[j + k] ^= _image(table, v.parts[j])
    return _total(A, out)


def evaluate_top(x: ClassZ2) -> int:
    """Pairing of a top-degree class with the fundamental class (0 or 1)."""
    A = x.algebra
    if x.degree != A.top_degree:
        raise ValueError(f"evaluate_top needs degree {A.top_degree}, got {x.degree}")
    return (x.bits & A.fundamental_bits).bit_count() & 1


def invert_total(u: TotalClass) -> TotalClass:
    """Formal inverse of a unital total class (so ``u * invert_total(u) = 1``)."""
    A = u.algebra
    n = A.top_degree
    if u.parts[0] != A.unit_bits:
        raise ValueError("invert_total needs a unital degree-0 component")
    support = [(i, x) for i, x in enumerate(u.parts) if i and x]
    inv = [A.unit_bits]
    for d in range(1, n + 1):
        acc = 0
        for i, x in support:
            if i > d:
                break
            if inv[d - i]:
                acc ^= _product(A, i, x, d - i, inv[d - i])
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


def _set_apart(A: GradedAlgebra, B: GradedAlgebra) -> list[list[str]]:
    """B's labels set apart, for when two pair labels of ``A (x) B`` meet.

    ``_disambiguate`` primes B against the stems of A's labels, yet ``p*h``
    is both ``(p, h)`` and ``(p*h, 1)`` when A's degree 0 holds p, and
    ``a*h'`` both ``(a, h')`` and ``(1, (a*h)')``.  Parenthesizing B's
    compound labels makes B's part the last factor outside parentheses, and
    one prime more than any label of A ends in keeps A's labels apart.
    """
    primes = 1 + max(len(l) - len(l.rstrip("'")) for deg in A.basis for l in deg)
    wrapped = [[f"({l})" if "*" in l else l for l in deg] for deg in B.basis]
    return [wrapped[0]] + [[l + "'" * primes for l in deg] for deg in wrapped[1:]]


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


def _cross(u: int, v: int, width: int) -> int:
    """Bits of the cross product of u and v, where v has ``width`` coordinates.

    Pair ``(a, b)`` sits at ``a * width + b``, so the product is the OR of
    ``v << a * width`` over the set bits a of u.
    """
    out = 0
    while u:
        low = u & -u
        out |= v << (low.bit_length() - 1) * width
        u ^= low
    return out


def _both_orders(A: GradedAlgebra) -> list[tuple[int, int]]:
    """The keys of the stored product tables, and each off-diagonal key reversed."""
    return [*A.products, *((d2, d1) for d1, d2 in A.products if d1 < d2)]


def kunneth(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Tensor-product algebra on pair bases, Steenrod squares via Cartan.

    Degree d lists the basis pairs of each degree pair ``(i, d - i)`` with
    classes on both sides, A-degree ascending and A-index major.  The
    product of the pairs ``(a1, b1)`` and ``(a2, b2)`` is the cross product
    of ``a1 a2`` and ``b1 b2``, shifted to the offset of its degree pair in
    the output degree; so is each Cartan piece ``Sq^u a (x) Sq^v b`` of
    ``Sq^(u+v)``.  Only nonzero stored entries make pieces, and an output
    table is allocated when its first piece lands in it, in the form it is
    stored (``_blank``).

    A and B must be valid, hence commutative, algebras, as every record's
    algebra is.  Each product slot then has exactly one piece, which is
    assigned.  The output stores the tables with ``d1 <= d2``; a table of
    degrees ``(i1 + j1, i2 + j2)`` takes pieces of both orders of the
    factors' tables (``_both_orders``, read through ``_entries``), so each
    of its slots, both slots of a square one among them, is written once.
    When the product has one class in degree 0 and it is the unit, the
    unit tables (``d1 = 0``) are left to the assembler, which fills in the
    identity.  A single-bit row of A crosses as one shift.  Cartan pieces
    of one square slot land at disjoint offsets and are OR-ed.
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
    _check_table_size(_table_bytes(ranks))
    def pair_basis(labels_b: list[list[str]]) -> list[list[str]]:
        return [
            [_pair_label(la, lb) for i, j in row for la in A.basis[i] for lb in labels_b[j]]
            for row in pairs
        ]

    basis = pair_basis(_disambiguate(B.basis, _prime_counts(l for deg in A.basis[1:] for l in deg)))
    if any(len(set(row)) < len(row) for row in basis):
        basis = pair_basis(_set_apart(A, B))

    rb = B.ranks
    unit = _cross(A.unit_bits, B.unit_bits, rb[0])
    # the unit tables (d1 = 0) are the identity, which the assembler fills in
    first = 1 if ranks[0] == 1 and unit == 1 else 0
    products: dict[tuple[int, int], bytearray | list[int]] = {}
    side_b = [
        (j1, j2, rb[j1], rb[j2], rb[j1 + j2], _entries(B, j1, j2)) for j1, j2 in _both_orders(B)
    ]
    for i1, i2 in _both_orders(A):
        entries_a = _entries(A, i1, i2)
        for j1, j2, rb1, rb2, rbo, entries in side_b:
            d1, d2 = i1 + j1, i2 + j2
            if not first <= d1 <= d2:
                continue  # a unit table, or the order the output does not store
            r2, ro = ranks[d2], ranks[d1 + d2]
            s1, s2, so = start[d1][i1], start[d2][i2], start[d1 + d2][i1 + i2]
            out = products.get((d1, d2))
            if out is None:
                out = products[d1, d2] = _blank(ranks[d1] * r2, ro)
            cells = [(b1 * r2 + b2, y) for b1, b2, y in entries]
            for a1, a2, x in entries_a:
                corner = (s1 + a1 * rb1) * r2 + s2 + a2 * rb2
                if x & (x - 1):
                    for cell, y in cells:
                        out[corner + cell] = _cross(x, y, rbo) << so
                else:
                    shift = (x.bit_length() - 1) * rbo + so
                    for cell, y in cells:
                        out[corner + cell] = y << shift

    squares: dict[tuple[int, int], bytearray | list[int]] = {}
    side_b = [
        (v, j, rb[j], rb[j + v], [(b, table[b]) for b in _nonzero(table)])
        for (v, j), table in B.squares.items()
    ]
    for (u, i), table in A.squares.items():
        rows_a = [(a, table[a]) for a in _nonzero(table)]
        for v, j, rbj, rbo, rows_b in side_b:
            if u + v == 0:
                continue  # Sq^0 is the identity, which the assembler fills in
            k, d = u + v, i + j
            s, so = start[d][i], start[d + k][i + u]
            out = squares.get((k, d))
            if out is None:
                out = squares[k, d] = _blank(ranks[d], ranks[d + k])
            for a, x in rows_a:
                if x & (x - 1):
                    for b, y in rows_b:
                        out[s + a * rbj + b] |= _cross(x, y, rbo) << so
                else:
                    shift = (x.bit_length() - 1) * rbo + so
                    for b, y in rows_b:
                        out[s + a * rbj + b] |= y << shift

    return _packed_algebra(
        n,
        basis,
        _stored(products),
        _stored(squares),
        unit=unit,
        fundamental=_cross(A.fundamental_bits, B.fundamental_bits, B.rank(B.top_degree)),
    )


def cross_total(P: GradedAlgebra, u: TotalClass, v: TotalClass) -> TotalClass:
    """Cross product of total classes (degreewise Kunneth placement)."""
    A, B = u.algebra, v.algebra
    parts, ranks = [], []
    for row in _degree_pairs(A, B):
        bits = offset = 0
        for i, j in row:
            bits |= _cross(u.parts[i], v.parts[j], B.rank(j)) << offset
            offset += A.rank(i) * B.rank(j)
        parts.append(bits)
        ranks.append(offset)
    if tuple(ranks) != P.ranks:
        raise ValueError("cross_total needs the Kunneth product of the two algebras")
    return _total(P, parts)


# ---------------------------------------------------------------------------
# connected sum
# ---------------------------------------------------------------------------


def connected_sum_algebra(*pieces: GradedAlgebra) -> GradedAlgebra:
    """Cohomology of a connected sum: middle degrees direct-sum, tops glued.

    Cross products of positive-degree classes from different summands vanish;
    each summand's top class is identified with the shared top class.  The
    labels are those of the left fold ``((A # B) # C) # ...``: each summand
    is primed against the sum before it, that sum's top label included, and
    the top label is chosen again after each summand.  A summand's entries
    are shifted to its offset in each degree; an entry landing in the top
    degree is its evaluation on the summand's fundamental class.  Each
    entry is assigned once, into a table allocated in the form it is stored
    (``_blank``); the unit tables and ``Sq^0`` are left to the assembler.
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
    _check_table_size(_table_bytes(ranks))

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

    # each summand's stored tables; the unit tables and Sq^0 are the assembler's
    products: dict[tuple[int, int], bytearray | list[int]] = {}
    squares: dict[tuple[int, int], bytearray | list[int]] = {}
    for S, start in zip(pieces, starts):

        def moved(x: int, d: int, start=start, fundamental=S.fundamental_bits) -> int:
            """Summand class x of degree d in the sum: evaluated at the top, else shifted."""
            return (x & fundamental).bit_count() & 1 if d == n else x << start[d]

        for d1, d2 in S.products:
            if not (d1 and d2):
                continue
            out = products.get((d1, d2))
            if out is None:
                out = products[d1, d2] = _blank(ranks[d1] * ranks[d2], ranks[d1 + d2])
            r2 = ranks[d2]
            for i, j, x in _entries(S, d1, d2):
                out[(start[d1] + i) * r2 + start[d2] + j] = moved(x, d1 + d2)
        for (k, d), table in S.squares.items():
            if not k:
                continue
            out = squares.get((k, d))
            if out is None:
                out = squares[k, d] = _blank(ranks[d], ranks[d + k])
            for i in _nonzero(table):
                out[start[d] + i] = moved(table[i], d + k)

    return _packed_algebra(n, basis, _stored(products), _stored(squares))
