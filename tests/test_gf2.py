"""GF(2) linear algebra against brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_invariants import _rank_mod2, _solve_mod2
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


def _bit_rows(matrix: np.ndarray) -> list[int]:
    return [sum(int(v) % 2 << j for j, v in enumerate(row)) for row in matrix]


def _reference_rank(matrix: np.ndarray) -> int:
    return _rank_mod2(_bit_rows(matrix))


def _reference_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Column-order Gauss-Jordan with every free variable 0, or None."""
    x = _solve_mod2(_bit_rows(matrix), [int(b) % 2 for b in rhs], matrix.shape[1])
    return None if x is None else np.array(x, dtype=np.uint8)


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


def test_to_gf2_wraps_integers():
    assert np.array_equal(to_gf2([2, 3, 7]), np.array([0, 1, 1], dtype=np.uint8))


def test_rank_empty_matrix():
    assert gf2_rank(np.zeros((0, 3), dtype=np.uint8)) == 0


# ---------------------------------------------------------------------------
# shapes at the edges of the bitset packing


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes(shape):
    mat = np.zeros(shape, dtype=np.uint8)
    assert gf2_rank(mat) == 0
    x = gf2_solve(mat, np.zeros(shape[0], dtype=np.uint8))
    assert x is not None and x.shape == (shape[1],) and not x.any()


def test_zero_columns_with_nonzero_rhs_is_inconsistent():
    assert gf2_solve(np.zeros((2, 0), dtype=np.uint8), np.array([0, 1], dtype=np.uint8)) is None


@pytest.mark.parametrize("cols", [3, 7, 8, 63, 64, 65, 130])
def test_inconsistency_held_only_by_the_augmented_bit(cols):
    # rows 0..2 are independent; row 3 = row 0 + row 1 reduces to zero on
    # every column, so with rhs 1 + 0 != 0 only its augmented bit is left
    rng = np.random.default_rng(cols)
    top = rng.integers(0, 2, size=(3, cols), dtype=np.uint8)
    top[:, :3] = np.eye(3, dtype=np.uint8)
    mat = np.vstack([top, top[0] ^ top[1]])
    rhs = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert gf2_solve(mat, rhs) is None
    assert gf2_solve(np.zeros((1, cols), dtype=np.uint8), np.array([1], dtype=np.uint8)) is None
    rhs[3] = 1
    x = gf2_solve(mat, rhs)
    assert x is not None and np.array_equal((mat.astype(int) @ x) % 2, rhs)


@pytest.mark.parametrize("cols", [64, 65, 100, 200])
def test_rank_and_solve_past_one_machine_word(cols):
    rng = np.random.default_rng(cols)
    base = rng.integers(0, 2, size=(5, cols), dtype=np.uint8)
    mixes = rng.integers(0, 2, size=(4, 5), dtype=np.uint8)
    mat = np.vstack([base, (mixes.astype(int) @ base) % 2]).astype(np.uint8)
    assert gf2_rank(mat) == gf2_rank(base) == _reference_rank(base)
    rhs = (mat.astype(int) @ rng.integers(0, 2, size=cols)) % 2
    assert np.array_equal(gf2_solve(mat, rhs), _reference_solve(mat, rhs))
    # a pivot in the highest column only
    single = np.zeros((2, cols), dtype=np.uint8)
    single[1, cols - 1] = 1
    assert gf2_rank(single) == 1
    x = gf2_solve(single, np.array([0, 1], dtype=np.uint8))
    assert x is not None and x[cols - 1] == 1 and x.sum() == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_solve_matches_reference_elimination(rows, cols, quarters, seed):
    # entries are 1 with probability quarters / 4; free variables 0 on both sides
    rng = np.random.default_rng(seed)
    mat = (rng.random((rows, cols)) < quarters / 4).astype(np.uint8)
    if rng.integers(0, 2):
        rhs = rng.integers(0, 2, size=rows).astype(np.uint8)
    else:  # consistent by construction
        rhs = ((mat.astype(int) @ rng.integers(0, 2, size=cols)) % 2).astype(np.uint8)
    expected = _reference_solve(mat, rhs)
    got = gf2_solve(mat, rhs)
    if expected is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, expected)
    assert gf2_rank(mat) == _reference_rank(mat)
