"""GF(2) linear algebra against brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcheck.gf2 import gf2_invertible, gf2_rank, gf2_solve, to_gf2


def _enumerate_solutions(matrix: np.ndarray, rhs: np.ndarray) -> list[np.ndarray]:
    """All solutions of matrix @ x = rhs over GF(2), by exhaustion."""
    rows, cols = matrix.shape
    out = []
    for bits in range(2**cols):
        x = np.array([(bits >> i) & 1 for i in range(cols)], dtype=np.uint8)
        if np.array_equal((matrix @ x) % 2, rhs % 2):
            out.append(x)
    return out


def _span_size(matrix: np.ndarray) -> int:
    """Number of distinct vectors in the row span, by exhaustion."""
    rows = matrix.shape[0]
    seen = set()
    for bits in range(2**rows):
        picked = [matrix[i] for i in range(rows) if (bits >> i) & 1]
        v = np.zeros(matrix.shape[1], dtype=np.uint8)
        for row in picked:
            v = v ^ row
        seen.add(v.tobytes())
    return len(seen)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_matches_span_enumeration(raw):
    mat = np.array(raw, dtype=np.uint8)
    assert 2 ** gf2_rank(mat) == _span_size(mat)


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_solve_agrees_with_enumeration(raw, rng):
    mat = np.array(raw, dtype=np.uint8)
    rhs = np.array([rng.randint(0, 1) for _ in range(mat.shape[0])], dtype=np.uint8)
    solutions = _enumerate_solutions(mat, rhs)
    got = gf2_solve(mat, rhs)
    if not solutions:
        assert got is None
    else:
        assert got is not None
        assert any(np.array_equal(got, s) for s in solutions)


def test_solve_consistent_system():
    mat = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    rhs = np.array([1, 0], dtype=np.uint8)
    x = gf2_solve(mat, rhs)
    assert x is not None
    assert np.array_equal((mat @ x) % 2, rhs)


def test_solve_inconsistent_system():
    mat = np.array([[1, 0], [1, 0]], dtype=np.uint8)
    assert gf2_solve(mat, np.array([1, 0], dtype=np.uint8)) is None


def test_solve_rejects_mismatched_rhs():
    with pytest.raises(ValueError):
        gf2_solve(np.eye(2, dtype=np.uint8), np.array([1, 0, 1], dtype=np.uint8))


def test_invertible_iff_full_rank():
    eye = np.eye(3, dtype=np.uint8)
    assert gf2_invertible(eye)
    singular = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    assert not gf2_invertible(singular)
    assert not gf2_invertible(np.zeros((2, 3), dtype=np.uint8))  # not square
    assert gf2_invertible(np.zeros((0, 0), dtype=np.uint8))


def test_matmul_reduces_mod_2():
    # uint8 products wrap at 256, which keeps parity: reducing afterwards is exact
    a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    b = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    assert np.array_equal((to_gf2(a) @ to_gf2(b)) % 2, np.array([[0, 0], [1, 1]], dtype=np.uint8))
    ones = np.ones((1, 257), dtype=np.uint8)
    assert int(((ones @ ones.T) % 2)[0, 0]) == 257 % 2


def test_to_gf2_wraps_integers():
    assert np.array_equal(to_gf2([2, 3, 7]), np.array([0, 1, 1], dtype=np.uint8))


def test_rank_empty_matrix():
    assert gf2_rank(np.zeros((0, 3), dtype=np.uint8)) == 0
