"""Shared fixtures: the catalog atoms and their depth-2 closure.

The closure is the test bed for the oracle-equivalence and property
suites: every atom below, every same-dimension connected sum of two
atoms, and every product of two atoms of total dimension <= 8, K3 x K3
(2,011 basis classes, middle rank 486) the largest.  The brute-force
pairing and Wu oracles of test_invariants and test_acceptance read the
pairing off the array views in one matrix product per degree, so K3 x K3
costs them well under a second.
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
        out.append(catalog.product(ma, mb))
    return out


@pytest.fixture(scope="session")
def closure(atoms, depth2_sums, depth2_products) -> list[catalog.Manifold]:
    """Atoms plus all depth-2 combinations, in a deterministic order."""
    return list(atoms.values()) + depth2_sums + depth2_products


@pytest.fixture(scope="session")
def connected_closure(closure) -> list[catalog.Manifold]:
    return [m for m in closure if m.connected]
