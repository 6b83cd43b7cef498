"""The trust boundary: outside tables read, checked and put through the axiom battery.

The code here runs only on a JSON document's tables.  ``read_tables`` is
the intake behind ``algebra.build_algebra``: it checks each ``mult`` and
``sq`` entry and packs its row straight into its stored table.
``axiom_battery`` is the battery behind ``algebra.validate_algebra``,
with its kernels on the packed tables.  Those two public names stay in
``algebra``, with the rules and proofs in their docstrings, and import
this module when they are called.  So a catalog expression, whose
algebras are valid by construction, never compiles or loads it.
"""
from __future__ import annotations

import operator
from functools import partial, reduce
from itertools import accumulate, chain
from typing import Any, Callable, Iterable, Mapping, Sequence

from .algebra import (
    _ALL_BITS,
    _ALL_INTS,
    _DIGITS,
    GradedAlgebra,
    ValidationReport,
    _blank,
    _check_labels,
    _check_table_size,
    _entries,
    _indices,
    _nonzero,
    _packed_algebra,
    _pairing_rows,
    _ranks,
    _row,
    _stored,
    _table_bytes,
)
from .errors import SchemaError
from .gf2 import _echelon

__all__ = ["read_tables", "axiom_battery"]


# ---------------------------------------------------------------------------
# intake
# ---------------------------------------------------------------------------


def read_tables(top_degree: int, basis: Sequence[Sequence[str]], mult: Sequence, sq: Sequence) -> GradedAlgebra:
    """The algebra on the tables of ``mult`` and ``sq``, each entry checked, before the battery.

    ``algebra.build_algebra`` states the entry forms and the order of the checks.
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

    return _packed_algebra(n, basis, _stored(products), _stored(squares))


def _listed(entries: Any, field: str) -> Sequence:
    if not isinstance(entries, (list, tuple)):
        raise SchemaError(f"field {field!r} must be a list of entries")
    return entries


# ---------------------------------------------------------------------------
# the axiom battery
# ---------------------------------------------------------------------------


def axiom_battery(A: GradedAlgebra) -> ValidationReport:
    """Every axiom violation of ``A``; ``algebra.validate_algebra`` states the rules and their proofs."""
    n = A.top_degree
    bad: list[str] = []

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
    # no document reaches this return (see above); the scans below read a commutative store
    if len(bad) > before:
        return ValidationReport(tuple(bad))

    every = {d: (1 << A.rank(d)) - 1 for d in degrees}
    generators = _generator_classes(A) if unital else every

    def triples(middles: Mapping[int, int]) -> Iterable[tuple]:
        # a mirror triple runs as its twin
        return (
            ((d1, d2, d3), (*((d3, d2, d1) if d3 < d1 else (d1, d2, d3)), middles[d2]))
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
            for mirror in [d2 < d1 and firsts[d1] == every[d1]]
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
    args is computed once (``algebra.validate_algebra`` states the policy
    and its proofs).
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
    """The nonzero products of degrees ``(d1, d2)`` by row: row i lists ``(j, x_i y_j)``.

    A stored table is split once; for ``d1 > d2`` row i is column i of the
    split of the stored table ``(d2, d1)``.
    """
    out = [[] for _ in range(memo.A.rank(d1))]
    if d1 > d2:
        for j, row in enumerate(memo[_split, d2, d1]):
            for i, e in row:
                out[i].append((j, e))
    else:
        for i, j, e in _entries(memo.A, d1, d2):
            out[i].append((j, e))
    return out


def _packed_lines(memo: _Memo, d1: int, d2: int, step: int) -> _Lines:
    """The rows of ``_split(memo, d1, d2)`` packed, row a ORing ``e << b * step``."""
    lines = memo[_split, d1, d2]
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
    ``(d2 + d3, d1)`` that packs its products with every x_i over (i, o),
    placed at ``k ro``.  The store is commutative (``axiom_battery``), so
    row j of the tables ``(d2, d1)`` and ``(d2, d3)`` is all that is read,
    and a table of lines is packed the first time a product reads it.
    """
    r3, ro = memo.A.rank(d3), memo.A.rank(d1 + d2 + d3)
    step = r3 * ro
    lefts, rows = memo[_split, d2, d1], memo[_split, d2, d3]
    by_class = by_pair = None
    for j in _indices(middles):
        lhs = rhs = 0
        if lefts[j]:
            by_class = by_class or memo[_packed_lines, d1 + d2, d3, ro]
            for i, e in lefts[j]:
                lhs ^= by_class[e] << i * step
        if rows[j]:
            by_pair = by_pair or memo[_packed_lines, d2 + d3, d1, step]
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
