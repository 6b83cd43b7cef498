"""Connected sums against a dense construction written apart from the package.

``connected_sum_algebra`` shifts each summand's nonzero packed entries to
its offset and evaluates those landing in the top degree, leaving the unit
tables and ``Sq^0`` to the assembler.  ``reference_sum`` below writes every
in-range block as a dense array instead: unit blocks and ``Sq^0`` as
identities, each summand's block on the diagonal, and a block landing in
the top degree contracted with the summand's fundamental class.  Its
labels follow the left fold ``((A # B) # C) # ...`` by brute force: each
summand's labels of degrees 1..n take the fewest primes that make none of
them a label of the sum so far, its top label included, and the top label
is then the first of ``t, t', t'', ...`` no middle label takes.  Both must
give the same labels, every table, unit and fundamental class, entry for
entry.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from classes import packed
from conftest import ATOM_TOKENS
from test_kunneth_reference import assert_same_algebra
from foldcheck import catalog
from foldcheck.algebra import GradedAlgebra, _packed_algebra, build_algebra, connected_sum_algebra
from foldcheck.expressions import parse_expression


def reference_labels(pieces: list[GradedAlgebra]) -> list[list[str]]:
    n = pieces[0].top_degree
    middle = [list(pieces[0].basis[d]) for d in range(1, n)]
    top = pieces[0].basis[n][0]
    for S in pieces[1:]:
        taken = {label for row in middle for label in row} | {top}
        own = [label for d in range(1, n + 1) for label in S.basis[d]]
        primes = next(p for p in itertools.count() if not {l + "'" * p for l in own} & taken)
        for d in range(1, n):
            middle[d - 1] += [label + "'" * primes for label in S.basis[d]]
        used = {label for row in middle for label in row}
        top = next("t" + "'" * k for k in itertools.count() if "t" + "'" * k not in used)
    return [["1"]] + middle + [[top]]


def reference_sum(pieces: list[GradedAlgebra]) -> GradedAlgebra:
    n = pieces[0].top_degree
    ranks = [1] + [sum(S.rank(d) for S in pieces) for d in range(1, n)] + [1]
    # offsets[s][d]: first index of summand s in degree d; every summand owns the glued ends
    offsets = [
        [0] + [sum(S.rank(d) for S in pieces[:s]) for d in range(1, n)] + [0]
        for s in range(len(pieces))
    ]

    def spread(block: np.ndarray, S: GradedAlgebra, out_degree: int) -> np.ndarray:
        """A summand's block with its last axis in the sum: the top is evaluated."""
        if out_degree == n:
            return (block.astype(int) @ S.fundamental.astype(int) % 2)[..., None].astype(np.uint8)
        return block

    mult: dict[tuple[int, int], np.ndarray] = {}
    for d1 in range(n + 1):
        for d2 in range(n + 1 - d1):
            r1, r2, ro = ranks[d1], ranks[d2], ranks[d1 + d2]
            blk = np.zeros((r1, r2, ro), dtype=np.uint8)
            if d1 == 0:
                blk[0] = np.eye(r2, dtype=np.uint8)
            elif d2 == 0:
                blk[:, 0] = np.eye(r1, dtype=np.uint8)
            else:
                for S, o in zip(pieces, offsets):
                    piece = spread(S.mult_block(d1, d2), S, d1 + d2)
                    s1, s2, so = piece.shape
                    a, b, c = o[d1], o[d2], o[d1 + d2]
                    blk[a : a + s1, b : b + s2, c : c + so] = piece
            mult[(d1, d2)] = blk

    sq: dict[tuple[int, int], np.ndarray] = {}
    for d in range(n + 1):
        sq[(0, d)] = np.eye(ranks[d], dtype=np.uint8)
        for k in range(1, min(d, n - d) + 1):
            blk = np.zeros((ranks[d], ranks[d + k]), dtype=np.uint8)
            for S, o in zip(pieces, offsets):
                piece = spread(S.sq_block(k, d), S, d + k)
                s, so = piece.shape
                blk[o[d] : o[d] + s, o[d + k] : o[d + k] + so] = piece
            sq[(k, d)] = blk

    return _packed_algebra(n, reference_labels(pieces), packed(mult), packed(sq), unit=1, fundamental=1)


def depth2_sum_pairs() -> list[tuple[str, str]]:
    """Both orders: a summand's offsets differ between degrees only behind a summand of other ranks."""
    dims = {t: catalog.atom(t).dim for t in ATOM_TOKENS}
    return [(a, b) for a, b in itertools.product(ATOM_TOKENS, repeat=2) if dims[a] == dims[b] >= 1]


def test_every_depth2_closure_sum_matches_the_reference(atoms):
    pairs = depth2_sum_pairs()
    assert len(pairs) == 2 * 89 - 22  # the 89 unordered sums, each in both orders
    for a, b in pairs:
        pieces = [atoms[a].algebra, atoms[b].algebra]
        want = reference_sum(pieces)
        assert_same_algebra(connected_sum_algebra(*pieces), want, f"{a} # {b}")
        # the record's algebra, built through the catalog, is the same sum
        assert_same_algebra(catalog.connected_sum(atoms[a], atoms[b]).algebra, want, f"{a} # {b}")


@pytest.mark.parametrize(
    "expression,tokens",
    [
        ("12#K3", ["K3"] * 12),
        ("30#RP4", ["RP4"] * 30),
        ("3#N2", ["N2"] * 3),
        ("K3 # CP2 # CP2~", ["K3", "CP2", "CP2~"]),
        ("CP2 # RP4 # CP2~", ["CP2", "RP4", "CP2~"]),
        ("RP2 # Sigma1 # N2", ["RP2", "Sigma1", "N2"]),
    ],
)
def test_repeated_and_mixed_sums_match_the_reference(expression, tokens):
    pieces = [catalog.atom(t).algebra for t in tokens]
    want = reference_sum(pieces)
    assert_same_algebra(connected_sum_algebra(*pieces), want, expression)
    assert_same_algebra(parse_expression(expression).algebra, want, expression)


def test_the_top_label_steps_past_a_middle_label_t():
    # a torus whose degree-1 classes are t and u, product t u = v
    torus = build_algebra(2, [["1"], ["t", "u"], ["v"]], [[1, 0, 1, 1, [1]]])
    pieces = [torus, torus, catalog.atom("RP2").algebra]
    got = connected_sum_algebra(*pieces)
    assert got.basis[2] == ("t''",)
    assert_same_algebra(got, reference_sum(pieces), "T # T # RP2")
