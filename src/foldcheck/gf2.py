"""Dense linear algebra over GF(2) on numpy uint8 arrays.

Parity is preserved under uint8 wrap-around (256 is even), so matrix products
may be taken in uint8 and reduced mod 2 afterwards.
"""
from __future__ import annotations

from typing import Optional

import numpy as np


def to_gf2(a) -> np.ndarray:
    return np.asarray(a, dtype=np.uint8) % 2


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2) by Gaussian elimination."""
    mat = to_gf2(matrix).copy()
    if mat.size == 0:
        return 0
    rows, cols = mat.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(rows):
            if r != rank and mat[r, col]:
                mat[r, :] ^= mat[rank, :]
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_invertible(matrix: np.ndarray) -> bool:
    mat = to_gf2(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    if mat.shape[0] == 0:
        return True
    return gf2_rank(mat) == mat.shape[0]


def gf2_solve(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Solve ``matrix @ x = rhs`` over GF(2).

    Returns one solution (free variables set to 0), or None if inconsistent.
    """
    mat = to_gf2(matrix).copy()
    vec = to_gf2(rhs).reshape(-1)
    rows, cols = mat.shape
    if vec.shape[0] != rows:
        raise ValueError("rhs length does not match matrix rows")
    aug = np.concatenate([mat, vec.reshape(-1, 1)], axis=1)
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if aug[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            aug[[rank, pivot]] = aug[[pivot, rank]]
        for r in range(rows):
            if r != rank and aug[r, col]:
                aug[r, :] ^= aug[rank, :]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    for r in range(rank, rows):
        if aug[r, cols]:
            return None
    x = np.zeros(cols, dtype=np.uint8)
    for r, col in enumerate(pivots):
        x[col] = aug[r, cols]
    return x
