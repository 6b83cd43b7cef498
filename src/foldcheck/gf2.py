"""Dense linear algebra over GF(2).

Elimination runs on rows packed into Python-int bitsets (bit j of a row is
column j), so one XOR adds a whole row, as in the word-packed elimination
of Albrecht, Bard and Hart, "Efficient multiplication of dense matrices
over GF(2)", ACM TOMS 37(1), 2010.  The package itself hands over packed
rows (the pairing rows to ``_echelon``, the Wu relations to ``_solve_bits``);
the public functions wrap the same kernels for numpy arrays, for callers
outside the package, and import numpy when they are called.
"""
from __future__ import annotations

from typing import Iterable, Optional


def to_gf2(a):
    import numpy as np

    return np.asarray(a, dtype=np.uint8) % 2


def _bit_rows(mat) -> list[int]:
    """Rows of a 0/1 matrix as bitsets."""
    import numpy as np

    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _echelon(rows: Iterable[int], cols: int, until_full: bool = False) -> tuple[dict[int, int], bool]:
    """Echelon basis of bitset rows, keyed by pivot bit.

    A row's pivot is its lowest bit below ``cols``.  XOR with the basis row
    of that pivot clears it and sets only higher bits, so each row either
    gains a new pivot or runs out of bits below ``cols``.  Bits from ``cols``
    up (an augmented column) are carried along; the flag reports whether a
    row ended holding only those bits.  With ``until_full`` the rows are
    read only until the basis has ``cols`` rows, which decides the rank;
    the flag then covers the rows read.
    """
    mask = (1 << cols) - 1
    basis: dict[int, int] = {}
    stray = False
    for row in rows:
        while row & mask:
            low = row & -row
            if low not in basis:
                basis[low] = row
                if until_full and len(basis) == cols:
                    return basis, stray
                break
            row ^= basis[low]
        else:
            stray = stray or row != 0
    return basis, stray


def _solve_bits(rows: list[int], cols: int) -> Optional[int]:
    """Solve on augmented bitset rows (bit ``cols`` is the right-hand side).

    Returns one solution as bits (free variables 0), or None if inconsistent.
    """
    basis, stray = _echelon(rows, cols)
    if stray:
        return None
    # back substitution from the highest pivot down, free variables 0
    x_bits = 0
    for low in sorted(basis, reverse=True):
        row = basis[low]
        if ((row >> cols) + ((row ^ low) & x_bits).bit_count()) & 1:
            x_bits |= low
    return x_bits


def gf2_rank(matrix) -> int:
    """Rank over GF(2) by Gaussian elimination."""
    mat = to_gf2(matrix)
    return len(_echelon(_bit_rows(mat), mat.shape[1])[0])


def gf2_invertible(matrix) -> bool:
    mat = to_gf2(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return gf2_rank(mat) == mat.shape[0]


def gf2_solve(matrix, rhs):
    """Solve ``matrix @ x = rhs`` over GF(2).

    Returns one solution as a uint8 array (free variables set to 0), or None
    if inconsistent.
    """
    import numpy as np

    mat = to_gf2(matrix)
    vec = to_gf2(rhs).reshape(-1)
    rows, cols = mat.shape
    if vec.shape[0] != rows:
        raise ValueError("rhs length does not match matrix rows")
    aug = [row | bit << cols for row, bit in zip(_bit_rows(mat), vec.tolist())]
    x_bits = _solve_bits(aug, cols)
    if x_bits is None:
        return None
    return np.array([(x_bits >> col) & 1 for col in range(cols)], dtype=np.uint8)
