"""Shared fixtures: the catalog atoms and their depth-2 closure.

The closure is the test bed for the oracle-equivalence and property
suites: every atom below, every same-dimension connected sum of two
atoms, and every product of two atoms of total dimension <= 8.  K3 x K3
is the one exclusion; everything else is in.  Building it takes about
0.1 s and the axiom battery on it about 0.3 s, so neither keeps it out
(test_trust_boundary loads it as a document).  The brute-force oracles
do: test_pairing_nondegenerate_over_closure and the two Wu-oracle tests
(test_invariants, test_acceptance) pair every basis class with every
dual one through ``multiply``, and at its middle-degree rank of 486 that
took about 70 s per test for K3 x K3 alone, more than three times the
rest of the suite.
"""
from __future__ import annotations

import itertools

import pytest

from foldcheck import catalog

ATOM_TOKENS = [
    "S1", "S2", "S3", "S4",
    "RP1", "RP2", "RP3", "RP4", "RP5",
    "CP1", "CP2", "CP2~", "CP3",
    "K3",
    "Sigma0", "Sigma1", "Sigma2",
    "N1", "N2", "N3", "N4", "N5",
]

_PRODUCT_DIM_CAP = 8


@pytest.fixture(scope="session")
def atoms() -> dict[str, catalog.Manifold]:
    return {token: catalog.atom(token) for token in ATOM_TOKENS}


@pytest.fixture(scope="session")
def depth2_sums(atoms) -> list[catalog.Manifold]:
    out = []
    for a, b in itertools.combinations_with_replacement(ATOM_TOKENS, 2):
        ma, mb = atoms[a], atoms[b]
        if ma.dim == mb.dim and ma.dim >= 1:
            out.append(catalog.connected_sum(ma, mb))
    return out


@pytest.fixture(scope="session")
def depth2_products(atoms) -> list[catalog.Manifold]:
    out = []
    for a, b in itertools.combinations_with_replacement(ATOM_TOKENS, 2):
        ma, mb = atoms[a], atoms[b]
        if ma.dim + mb.dim > _PRODUCT_DIM_CAP:
            continue
        if a == "K3" and b == "K3":
            continue
        out.append(catalog.product(ma, mb))
    return out


@pytest.fixture(scope="session")
def closure(atoms, depth2_sums, depth2_products) -> list[catalog.Manifold]:
    """Atoms plus all depth-2 combinations, in a deterministic order."""
    return list(atoms.values()) + depth2_sums + depth2_products


@pytest.fixture(scope="session")
def connected_closure(closure) -> list[catalog.Manifold]:
    return [m for m in closure if m.connected]
