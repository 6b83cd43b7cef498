"""Property suites over the catalog closure.

Everything here runs over the shared depth-2 closure from conftest: the
Wu-engine oracle equivalence (against an independent bitmask solver
written below, not the package's linear algebra), the ring/Steenrod
axioms on randomly sampled elements, the classical Whitney-class
identities, span-bound consistency, and the trace audit that keeps
sufficiency-only theorems out of NotExists verdicts.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from classes import bits, element, total, unit_total
from foldcheck.algebra import (
    ClassZ2,
    TotalClass,
    evaluate_top,
    invert_total,
    multiply,
    steenrod_square,
    total_sq,
    validate_algebra,
)
from foldcheck.catalog import (
    atom,
    complex_projective,
    connected_sum,
    nonorientable_surface,
    orientable_surface,
    product,
    real_projective,
    sphere,
)
from foldcheck.characteristic import dual_classes, wu_total
from foldcheck.decide import Outcome, TargetSpec, decide_fold, stable_span_bounds


# ---------------------------------------------------------------------------
# an independent GF(2) solver (bitmask rows; no numpy, no foldcheck.gf2)


def _solve_mod2(rows: list[int], rhs: list[int], ncols: int) -> list[int] | None:
    aug = [row | (bit << ncols) for row, bit in zip(rows, rhs)]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(aug)) if (aug[i] >> col) & 1), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for i in range(len(aug)):
            if i != rank and (aug[i] >> col) & 1:
                aug[i] ^= aug[rank]
        pivots.append(col)
        rank += 1
    if any((aug[i] >> ncols) & 1 for i in range(rank, len(aug))):
        return None
    x = [0] * ncols
    for i, col in enumerate(pivots):
        x[col] = (aug[i] >> ncols) & 1
    return x


def _rank_mod2(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def _pairing(A, d: int) -> np.ndarray:
    """``<x_i y_j, [M]>`` at (i, j), for the classes x_i of degree d and y_j of degree n - d.

    Read off the array views in one product, not through ``multiply``.
    """
    n = A.top_degree
    return A.mult_block(d, n - d).astype(np.int64) @ A.fundamental.astype(np.int64) % 2


def _top_squares(A, k: int) -> np.ndarray:
    """``<Sq^k y_j, [M]>`` for the classes y_j of degree n - k, off the array views."""
    n = A.top_degree
    return A.sq_block(k, n - k).astype(np.int64) @ A.fundamental.astype(np.int64) % 2


def brute_force_wu(m) -> TotalClass:
    """Wu classes by assembling and solving the pairing systems directly."""
    A = m.algebra
    n = A.top_degree
    comps = [np.zeros(A.rank(d), dtype=np.uint8) for d in range(n + 1)]
    comps[0] = A.unit.copy()
    for k in range(1, n // 2 + 1):
        # equation j: sum_i v_i <x_i y_j, [M]> = <Sq^k y_j, [M]>
        rows = [bits(column) for column in _pairing(A, k).T]
        solution = _solve_mod2(rows, _top_squares(A, k).tolist(), A.rank(k))
        assert solution is not None, f"{m.name}: Wu system for k={k} is inconsistent"
        comps[k] = np.asarray(solution, dtype=np.uint8)
    return total(A, comps)


def _random_class(rng: random.Random, A, degree: int) -> ClassZ2:
    coords = [rng.randint(0, 1) for _ in range(A.rank(degree))]
    return element(A, degree, coords)


# ---------------------------------------------------------------------------
# criterion: Wu-engine oracle equivalence


def test_wu_oracle_equivalence_over_closure(closure):
    for m in closure:
        v = brute_force_wu(m)
        # the defining Wu property holds for the brute-force solution
        n = m.dim
        for k in range(1, n // 2 + 1):
            pairs = v.components[k].astype(np.int64) @ _pairing(m.algebra, k) % 2
            assert np.array_equal(pairs, _top_squares(m.algebra, k)), (m.name, k)
        # it agrees with the engine, and Sq(v) reproduces the stored w
        assert v == wu_total(m.algebra), m.name
        assert m.wu == wu_total(m.algebra), m.name
        assert total_sq(v) == m.w, m.name


# ---------------------------------------------------------------------------
# criterion: ring and Steenrod axioms on sampled elements


def test_algebra_axioms_over_closure(closure):
    # catalog constructions skip the axiom battery; it runs on each one here
    families = (
        [real_projective(n) for n in range(1, 13)]
        + [complex_projective(n) for n in range(1, 7)]
        + [nonorientable_surface(k) for k in range(1, 9)]
        + [orientable_surface(g) for g in range(0, 5)]
    )
    for m in closure + families:
        report = validate_algebra(m.algebra)
        assert report.ok, (m.name, str(report))


def test_cartan_formula_on_samples(closure):
    rng = random.Random(20240811)
    for m in closure:
        A = m.algebra
        n = A.top_degree
        for _ in range(3):
            d1 = rng.randint(0, n)
            d2 = rng.randint(0, n - d1)
            x = _random_class(rng, A, d1)
            y = _random_class(rng, A, d2)
            k = rng.randint(0, max(0, min(d1 + d2, n - d1 - d2)))
            lhs = steenrod_square(k, multiply(x, y))
            rhs = A.zero(d1 + d2 + k)
            for u in range(0, k + 1):
                rhs = rhs + multiply(steenrod_square(u, x), steenrod_square(k - u, y))
            assert lhs == rhs, (m.name, d1, d2, k)


def test_sq_axioms_on_samples(closure):
    rng = random.Random(20240812)
    for m in closure:
        A = m.algebra
        n = A.top_degree
        for d in range(n + 1):
            if A.rank(d) == 0:
                continue
            x = _random_class(rng, A, d)
            assert steenrod_square(0, x) == x, (m.name, d)
            if 2 * d <= n:
                assert steenrod_square(d, x) == multiply(x, x), (m.name, d)
            assert steenrod_square(d + 1, x).is_zero(), (m.name, d)


def test_torsion_free_records_store_no_sq1(closure):
    # Sq^1 is the integral Bockstein followed by reduction mod 2, and the
    # Bockstein kills reductions of integral classes.  With no torsion in
    # H*(M; Z) every mod-2 class is such a reduction, so Sq^1 = 0 (RP3,
    # orientable with Sq^1 a = a^2, must not be flagged torsion-free)
    flagged = [m for m in closure if m.torsion_free]
    assert len(flagged) > 100
    for m in flagged:
        assert not [key for key, table in m.algebra.squares.items() if key[0] == 1 and any(table)], m.name


def test_pairing_nondegenerate_over_closure(closure):
    for m in closure:
        A = m.algebra
        n = A.top_degree
        for d in range(n + 1):
            r = A.rank(d)
            assert r == A.rank(n - d), (m.name, d)
            if r == 0:
                continue
            assert _rank_mod2([bits(row) for row in _pairing(A, d)]) == r, (m.name, d)


# ---------------------------------------------------------------------------
# criterion: Whitney-class identities


def test_whitney_inverse_identity(closure):
    for m in closure:
        assert m.w * dual_classes(m) == unit_total(m.algebra), m.name


def test_top_whitney_class_is_euler_parity(closure):
    for m in closure:
        assert evaluate_top(m.w.component(m.dim)) == m.euler % 2, m.name


def test_wu_vanishes_above_middle(closure):
    for m in closure:
        for d in range(m.dim // 2 + 1, m.dim + 1):
            assert wu_total(m.algebra).component(d).is_zero(), (m.name, d)


def test_sq2_identity_in_dimension_4k_plus_2(closure):
    for m in closure:
        n = m.dim
        if n % 4 != 2:
            continue
        low = m.w.component(n - 2)
        lhs = steenrod_square(2, low)
        rhs = multiply(m.w.component(2), low) + m.w.component(n)
        assert lhs == rhs, m.name


def test_p1_is_three_sigma_on_oriented_dim4(closure):
    for m in closure:
        if m.dim == 4 and m.orientable:
            assert m.p1.number == 3 * m.signature, m.name


def test_z_parity_on_oriented_spin_dim4(closure):
    # 2z = p_1 with z = w_4 mod 2: <p_1> is even and <p_1>/2 = <w_4> mod 2
    for m in closure:
        if m.dim != 4 or not m.orientable:
            continue
        if not (m.w.component(1).is_zero() and m.w.component(2).is_zero()):
            continue
        k = m.p1.number
        assert k % 2 == 0, m.name
        assert (k // 2) % 2 == evaluate_top(m.w.component(4)), m.name


def test_dual_classes_inverse_of_inverse(closure):
    for m in closure:
        assert invert_total(dual_classes(m)) == m.w, m.name


# ---------------------------------------------------------------------------
# combination fingerprints: the operators commute/associate at value level


def _fingerprint(m):
    return (
        m.dim,
        m.euler,
        m.signature,
        m.orientable,
        m.stably_parallelizable,
        m.algebra.ranks,
        tuple(not m.w.component(d).is_zero() for d in range(m.dim + 1)),
        m.p1.value,
        m.w3_twisted.value,
    )


def test_connected_sum_commutes(atoms):
    pairs = [("RP4", "K3"), ("CP2", "CP2~"), ("N2", "Sigma1"), ("RP3", "S3")]
    for a, b in pairs:
        lhs = connected_sum(atoms[a], atoms[b])
        rhs = connected_sum(atoms[b], atoms[a])
        assert _fingerprint(lhs) == _fingerprint(rhs), (a, b)


def test_product_commutes(atoms):
    pairs = [("RP4", "S1"), ("RP2", "RP3"), ("K3", "Sigma2"), ("CP2", "N1")]
    for a, b in pairs:
        lhs = product(atoms[a], atoms[b])
        rhs = product(atoms[b], atoms[a])
        assert _fingerprint(lhs) == _fingerprint(rhs), (a, b)


def test_connected_sum_associates(atoms):
    a, b, c = atoms["RP4"], atoms["CP2"], atoms["K3"]
    lhs = connected_sum(connected_sum(a, b), c)
    rhs = connected_sum(a, connected_sum(b, c))
    assert _fingerprint(lhs) == _fingerprint(rhs)


def test_product_associates(atoms):
    a, b, c = atoms["RP2"], atoms["S2"], atoms["Sigma1"]
    lhs = product(product(a, b), c)
    rhs = product(a, product(b, c))
    assert _fingerprint(lhs) == _fingerprint(rhs)


def test_sphere_is_a_sum_unit(atoms):
    for token in ("RP4", "K3", "N3"):
        m = atoms[token]
        s = connected_sum(m, sphere(m.dim))
        assert _fingerprint(s) == _fingerprint(m), token


# ---------------------------------------------------------------------------
# span bounds: consistency over the closure


def test_span_bounds_well_formed(connected_closure):
    for m in connected_closure:
        bounds = stable_span_bounds(m)
        assert 0 <= bounds.lower <= bounds.upper <= m.dim, m.name


def test_tame_verdicts_monotone(connected_closure):
    # once a tame fold map fails to exist, it keeps failing for larger p
    for m in connected_closure:
        seen_not_exists = False
        for p in range(1, m.dim + 1):
            verdict = decide_fold(m, TargetSpec.euclidean(p), tame=True)
            if verdict.outcome is Outcome.NOT_EXISTS:
                seen_not_exists = True
            elif verdict.outcome is Outcome.EXISTS:
                assert not seen_not_exists, (m.name, p)


def test_tame_exists_implies_span_lower(connected_closure):
    for m in connected_closure:
        bounds = stable_span_bounds(m)
        for p in range(1, m.dim + 1):
            verdict = decide_fold(m, TargetSpec.euclidean(p), tame=True)
            if verdict.outcome is Outcome.EXISTS and p >= 2:
                assert bounds.lower >= p - 1, (m.name, p)
            if verdict.outcome is Outcome.NOT_EXISTS:
                assert bounds.upper <= p - 2, (m.name, p)


def test_remark_5_7_consistency(connected_closure):
    # a non-orientable 4-manifold with a fold map into R^4 admits a tame
    # fold map into R^3
    for m in connected_closure:
        if m.dim != 4 or m.orientable:
            continue
        to_r4 = decide_fold(m, TargetSpec.euclidean(4))
        if to_r4.outcome is Outcome.EXISTS:
            to_r3 = decide_fold(m, TargetSpec.euclidean(3), tame=True)
            assert to_r3.outcome is Outcome.EXISTS, m.name


def test_connected_sum_stability_for_highdim_r4():
    # summing S^5 x S^5 changes neither w_{n-2} nor the verdict for R^4
    m = product(sphere(4), sphere(6))
    stabilizer = product(sphere(5), sphere(5))
    summed = connected_sum(m, stabilizer)
    before = decide_fold(m, TargetSpec.euclidean(4))
    after = decide_fold(summed, TargetSpec.euclidean(4))
    assert before.outcome is after.outcome is Outcome.EXISTS
    assert before.trace[0].citation == after.trace[0].citation == "Thm 4.6"


# ---------------------------------------------------------------------------
# trace audit: sufficiency-only results never produce NotExists


NECESSITY_CITATIONS = {
    "Cor 3.5(i)",
    "Cor 3.5(ii)",
    "Thm 3.4",
    "Thm 3.7",
    "Thm 4.3",
    "Thm 4.6",
    "Thm 5.1",
    "Rem 5.10",
    "Thom-Levine",
    "Cor 2.4",
}

SUFFICIENCY_ONLY_CITATIONS = {
    "Morse",
    "Eliashberg",
    "Thm 5.8",
    "Thm 4.2",
    "Thm 4.5",
    "Rem 2.5",
    "Rem 4.4",
    "Rem 4.7",
    "Rem 5.6",
    "Sadykov-Saeki",
}


def _sweep_verdicts(m):
    targets = sorted({1, 2, 3, 4, m.dim} & set(range(1, m.dim + 1)))
    for p in targets:
        for tame in (False, True):
            yield p, tame, decide_fold(m, TargetSpec.euclidean(p), tame)


def test_not_exists_always_cites_a_necessity_theorem(connected_closure):
    for m in connected_closure:
        for p, tame, verdict in _sweep_verdicts(m):
            if verdict.outcome is not Outcome.NOT_EXISTS:
                continue
            blockers = [e for e in verdict.trace if e.obstruction != "none"]
            assert blockers, (m.name, p, tame)
            for entry in blockers:
                assert entry.citation in NECESSITY_CITATIONS, (m.name, p, tame, entry)
                assert entry.citation not in SUFFICIENCY_ONLY_CITATIONS
                if entry.citation == "Cor 2.4":
                    assert entry.rule == "span-upper", (m.name, p, tame, entry)


# A NOT EXISTS into S^p may cite only the equidimensional obstructions:
# they are read off the stable class of TM - f*TN, and TS^p is stably
# trivial.  Every other criterion is stated for R^p.
SPHERE_CITATIONS = {"Cor 3.5(i)", "Cor 3.5(ii)", "Thm 3.7"}


def _sphere_sweep(m):
    for p in range(1, m.dim + 1):
        for tame in (False, True):
            euclid = decide_fold(m, TargetSpec.euclidean(p), tame)
            yield p, tame, euclid, decide_fold(m, TargetSpec.sphere(p), tame)


def test_sphere_not_exists_cites_only_equidimensional_results(connected_closure):
    kept = 0
    for m in connected_closure:
        for p, tame, euclid, sph in _sphere_sweep(m):
            assert sph.trace[: len(euclid.trace)] == euclid.trace, (m.name, p, tame)
            if sph.outcome is Outcome.NOT_EXISTS:
                assert p == m.dim, (m.name, p, tame)
                for entry in sph.trace:
                    assert entry.citation in SPHERE_CITATIONS, (m.name, p, tame, entry)
                kept += 1
    assert kept > 0


def test_every_euclidean_exists_is_a_sphere_exists(connected_closure):
    for m in connected_closure:
        for p, tame, euclid, sph in _sphere_sweep(m):
            if euclid.outcome is Outcome.EXISTS:
                assert sph.outcome is Outcome.EXISTS, (m.name, p, tame)
                assert sph.trace[-1].rule == "sphere-inclusion", (m.name, p, tame)


def test_dim8_to_r4_gate(connected_closure):
    for m in connected_closure:
        if m.dim != 8:
            continue
        for tame in (False, True):
            verdict = decide_fold(m, TargetSpec.euclidean(4), tame)
            assert verdict.trace[0].citation == "Rem 4.4", m.name
            if verdict.outcome is Outcome.EXISTS:
                assert verdict.trace[-1].citation in {"Eliashberg", "Cor 2.4"}, m.name
            elif verdict.outcome is Outcome.NOT_EXISTS:
                rules = [e.rule for e in verdict.trace]
                assert "span-upper" in rules, m.name


def test_dim6_nonorientable_r3_exists_only_via_5_8(connected_closure):
    for m in connected_closure:
        if m.dim != 6 or m.orientable:
            continue
        verdict = decide_fold(m, TargetSpec.euclidean(3))
        if verdict.outcome is Outcome.EXISTS:
            text = " ".join(e.citation for e in verdict.trace) + " ".join(
                e.value for e in verdict.trace
            )
            assert "Thm 5.8" in text, m.name


def test_every_verdict_carries_a_trace(connected_closure):
    for m in connected_closure:
        for p, tame, verdict in _sweep_verdicts(m):
            assert verdict.trace, (m.name, p, tame)
            for entry in verdict.trace:
                assert entry.rule and entry.citation and entry.value
