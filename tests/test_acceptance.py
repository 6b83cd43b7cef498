"""Acceptance gate: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
PASS lines directly).  Each test exercises its criterion end to end and
prints ``ACCEPTANCE <n>: PASS`` only after every assertion has held.
"""
from __future__ import annotations

import json
from math import comb
from pathlib import Path

import pytest

import test_invariants as inv
from classes import bits, coords, unit_total
from foldcheck.algebra import evaluate_top, multiply, steenrod_square, total_sq
from foldcheck.catalog import atom, real_projective, sphere
from foldcheck.characteristic import dual_classes, wu_total
from foldcheck.cli import main
from foldcheck.decide import Outcome, TargetSpec, decide_fold, stable_span_bounds, thom_polynomials
from foldcheck.expressions import parse_expression

GOLDEN = Path(__file__).parent / "golden"


def _decide(expr: str, p: int, tame: bool = False):
    return decide_fold(parse_expression(expr), TargetSpec.euclidean(p), tame)


# ---------------------------------------------------------------------------
# criterion 1: golden verdict table


GOLDEN_VERDICTS = [
    ("RP4", 4, False, Outcome.NOT_EXISTS, "Cor 3.5(ii)"),
    ("K3", 4, False, Outcome.NOT_EXISTS, "Cor 3.5(i)"),
    ("CP2 # CP2~", 4, False, Outcome.NOT_EXISTS, "Cor 3.5(i)"),
    ("2#RP4", 4, False, Outcome.EXISTS, "Cor 3.5(ii)"),
    ("3#RP4", 3, True, Outcome.NOT_EXISTS, "Thm 5.1"),
    ("2#RP4 # (S2 x S2) # (S1 x S3)", 3, True, Outcome.EXISTS, "Thm 5.1"),
    ("RP4", 2, False, Outcome.NOT_EXISTS, "Thom-Levine"),
    ("S7", 5, False, Outcome.EXISTS, "Eliashberg"),
]


def test_criterion_1_golden_verdict_table():
    for expr, p, tame, outcome, citation in GOLDEN_VERDICTS:
        verdict = _decide(expr, p, tame)
        assert verdict.outcome is outcome, (expr, p, tame)
        assert verdict.trace[-1].citation == citation, (expr, p, tame)
    # the N(k) x Sigma(g) grid: even k admits a fold map to R^4, odd does not
    for g in (0, 1, 2):
        for k in (2, 4):
            verdict = _decide(f"N{k} x Sigma{g}", 4)
            assert verdict.outcome is Outcome.EXISTS, (k, g)
            assert verdict.trace[-1].citation == "Cor 3.5(ii)", (k, g)
        for k in (1, 3, 5):
            verdict = _decide(f"N{k} x Sigma{g}", 4)
            assert verdict.outcome is Outcome.NOT_EXISTS, (k, g)
            assert verdict.trace[-1].citation == "Cor 3.5(ii)", (k, g)
            assert verdict.trace[-1].obstruction == "w_2", (k, g)
    print("ACCEPTANCE 1: PASS — golden verdict table with citations")


# ---------------------------------------------------------------------------
# criterion 2: Thom-polynomial vanishing for RP4 x S(n-4)


def test_criterion_2_thom_polynomial_vanishing():
    from foldcheck.catalog import product

    for n in (5, 6, 7):
        m = product(atom("RP4"), sphere(n - 4))
        table = thom_polynomials(m)
        entries = {e.name: e for e in table.entries}
        for name in ("cusp", "A3", "A4", "Sigma^{2,0} mod 2"):
            assert entries[name].vanishes is True, (n, name)
        assert not m.w.component(4).is_zero(), n
        verdict = decide_fold(m, TargetSpec.euclidean(n))
        assert verdict.outcome is Outcome.NOT_EXISTS, n
    print("ACCEPTANCE 2: PASS — Thom polynomials vanish yet w_4 obstructs")


# ---------------------------------------------------------------------------
# criterion 3: Wu-engine oracle equivalence


def test_criterion_3_wu_oracle_equivalence(closure):
    for m in closure:
        v = inv.brute_force_wu(m)
        assert v == wu_total(m.algebra), m.name
        assert total_sq(wu_total(m.algebra)) == m.w, m.name
    # spot identities: w(RP(n)) = (1+a)^(n+1), and K3 is spin
    for n in range(1, 11):
        m = real_projective(n)
        for d in range(n + 1):
            expected = comb(n + 1, d) % 2
            assert int(coords(m.w.component(d))[0]) == expected, (n, d)
    assert atom("K3").w.component(2).is_zero()
    print("ACCEPTANCE 3: PASS — Wu engine matches the brute-force oracle")


# ---------------------------------------------------------------------------
# criterion 4: invariant suites over the closure


def test_criterion_4_invariant_suites(closure):
    import random

    rng = random.Random(7)
    for m in closure:
        A = m.algebra
        n = A.top_degree
        # Cartan formula and Sq axioms on a random sample
        d1 = rng.randint(0, n)
        d2 = rng.randint(0, n - d1)
        x = inv._random_class(rng, A, d1)
        y = inv._random_class(rng, A, d2)
        k = rng.randint(0, max(0, min(d1 + d2, n - d1 - d2)))
        rhs = A.zero(d1 + d2 + k)
        for u in range(k + 1):
            rhs = rhs + multiply(steenrod_square(u, x), steenrod_square(k - u, y))
        assert steenrod_square(k, multiply(x, y)) == rhs, m.name
        assert steenrod_square(0, x) == x
        assert steenrod_square(d1 + 1, x).is_zero()
        # pairing nondegeneracy
        for d in range(n + 1):
            r = A.rank(d)
            if r == 0:
                continue
            assert inv._rank_mod2([bits(row) for row in inv._pairing(A, d)]) == r, (m.name, d)
        # Whitney identities
        assert m.w * dual_classes(m) == unit_total(A), m.name
        assert evaluate_top(m.w.component(n)) == m.euler % 2, m.name
        if n % 4 == 2:
            low = m.w.component(n - 2)
            assert steenrod_square(2, low) == multiply(m.w.component(2), low) + m.w.component(n)
        if n == 4 and m.orientable:
            assert m.p1.number == 3 * m.signature, m.name
            if m.w.component(2).is_zero():
                assert m.p1.number % 2 == 0, m.name
                assert (m.p1.number // 2) % 2 == evaluate_top(m.w.component(4)), m.name
    print("ACCEPTANCE 4: PASS — invariant property suites over the closure")


# ---------------------------------------------------------------------------
# criterion 5: span bounds


def test_criterion_5_span_bounds(atoms, connected_closure):
    assert (stable_span_bounds(atoms["RP4"]).lower, stable_span_bounds(atoms["RP4"]).upper) == (0, 0)
    for n in (1, 2, 3, 4, 5, 7):
        bounds = stable_span_bounds(sphere(n))
        assert (bounds.lower, bounds.upper) == (n, n), n
    k3 = stable_span_bounds(atoms["K3"])
    assert (k3.lower, k3.upper) == (1, 2)
    for m in connected_closure:
        bounds = stable_span_bounds(m)
        assert 0 <= bounds.lower <= bounds.upper <= m.dim, m.name
        seen_not_exists = False
        for p in range(1, m.dim + 1):
            verdict = decide_fold(m, TargetSpec.euclidean(p), tame=True)
            if verdict.outcome is Outcome.NOT_EXISTS:
                seen_not_exists = True
            elif verdict.outcome is Outcome.EXISTS:
                assert not seen_not_exists, (m.name, p)
        if m.dim == 4 and not m.orientable:
            to_r4 = decide_fold(m, TargetSpec.euclidean(4))
            if to_r4.outcome is Outcome.EXISTS:
                assert decide_fold(m, TargetSpec.euclidean(3), tame=True).outcome is Outcome.EXISTS
    print("ACCEPTANCE 5: PASS — span bounds, monotonicity, and Rem 5.7")


# ---------------------------------------------------------------------------
# criterion 6: dimension gates and the sufficiency audit


def test_criterion_6_dimension_gates(connected_closure):
    for m in connected_closure:
        for p, tame, verdict in inv._sweep_verdicts(m):
            if verdict.outcome is Outcome.NOT_EXISTS:
                blockers = [e for e in verdict.trace if e.obstruction != "none"]
                assert blockers, (m.name, p, tame)
                assert all(e.citation in inv.NECESSITY_CITATIONS for e in blockers)
        # into S^p, EXISTS carries over and NOT EXISTS rests on the equidimensional rules only
        for p, tame, euclid, sph in inv._sphere_sweep(m):
            if euclid.outcome is Outcome.EXISTS:
                assert sph.outcome is Outcome.EXISTS, (m.name, p, tame)
            if sph.outcome is Outcome.NOT_EXISTS:
                assert all(e.citation in inv.SPHERE_CITATIONS for e in sph.trace), (m.name, p, tame)
        if m.dim == 8:
            verdict = decide_fold(m, TargetSpec.euclidean(4))
            assert verdict.trace[0].citation == "Rem 4.4", m.name
            if verdict.outcome is Outcome.EXISTS:
                assert verdict.trace[-1].citation in {"Eliashberg", "Cor 2.4"}, m.name
        if m.dim == 6 and not m.orientable:
            verdict = decide_fold(m, TargetSpec.euclidean(3))
            if verdict.outcome is Outcome.EXISTS:
                text = " ".join(e.citation + " " + e.value for e in verdict.trace)
                assert "Thm 5.8" in text, m.name
    print("ACCEPTANCE 6: PASS — gates honoured; no NotExists from sufficiency, nor into S^p from R^p rules")


# ---------------------------------------------------------------------------
# criterion 7: CLI contract against the golden files


def test_criterion_7_cli_contract(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, _ = run("decide", "RP4", "--target", "R4", "--format", "json")
    assert code == 0 and out == (GOLDEN / "decide_rp4_r4.json").read_text()
    assert json.loads(out)["trace"][0]["obstruction"] == "w_4"

    code, out, _ = run("decide", "3#RP4", "--target", "R3", "--tame")
    assert code == 0 and out == (GOLDEN / "decide_3rp4_r3_tame.txt").read_text()

    code, out, _ = run("thom", "RP4 x S1")
    assert code == 0 and out == (GOLDEN / "thom_rp4_x_s1.txt").read_text()

    code, out, err = run("decide", "RP4 # S3", "--target", "R3")
    assert code == 2 and out == ""
    assert err == (GOLDEN / "decide_sum_mismatch.stderr.txt").read_text()
    assert "at position 4" in err
    print("ACCEPTANCE 7: PASS — CLI golden outputs and exit codes")
