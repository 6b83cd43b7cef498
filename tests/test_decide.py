"""Fold-map existence verdicts, span bounds, and Thom tables."""
from __future__ import annotations

import pytest

from foldcheck.catalog import atom, connected_sum, load_descriptor, product, sphere
from foldcheck import decide
from foldcheck.algebra import invert_total
from foldcheck.characteristic import tangent_descriptor, virtual_difference
from foldcheck.decide import (
    Outcome,
    TargetSpec,
    Verdict,
    decide_fold,
    stable_span_bounds,
    thom_polynomials,
)
from foldcheck.errors import InvariantViolation
from foldcheck.expressions import parse_expression
from foldcheck.tristate import TriState
from classes import replace
from test_characteristic import trivial_descriptor


def verdict_of(expr: str, p: int, tame: bool = False) -> Verdict:
    return decide_fold(parse_expression(expr), TargetSpec.euclidean(p), tame)


# ---------------------------------------------------------------------------
# the golden verdict table


GOLDEN_TABLE = [
    # (expression, target dim, tame, outcome, citation of the deciding entry)
    ("RP4", 4, False, Outcome.NOT_EXISTS, "Cor 3.5(ii)"),
    ("K3", 4, False, Outcome.NOT_EXISTS, "Cor 3.5(i)"),
    ("CP2 # CP2~", 4, False, Outcome.NOT_EXISTS, "Cor 3.5(i)"),
    ("2#RP4", 4, False, Outcome.EXISTS, "Cor 3.5(ii)"),
    ("3#RP4", 3, True, Outcome.NOT_EXISTS, "Thm 5.1"),
    ("2#RP4 # (S2 x S2) # (S1 x S3)", 3, True, Outcome.EXISTS, "Thm 5.1"),
    ("RP4", 2, False, Outcome.NOT_EXISTS, "Thom-Levine"),
    ("S7", 5, False, Outcome.EXISTS, "Eliashberg"),
]


@pytest.mark.parametrize("expr,p,tame,outcome,citation", GOLDEN_TABLE)
def test_golden_verdicts(expr, p, tame, outcome, citation):
    verdict = verdict_of(expr, p, tame)
    assert verdict.outcome is outcome
    assert citation in [e.citation for e in verdict.trace]


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("g", [0, 1, 2])
def test_even_crosscap_products_admit_folds(k, g):
    verdict = verdict_of(f"N{k} x Sigma{g}", 4)
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].citation == "Cor 3.5(ii)"
    assert verdict.trace[0].value == "w_2 = 0; w_4 = 0"


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("g", [0, 1, 2])
def test_odd_crosscap_products_admit_no_folds(k, g):
    verdict = verdict_of(f"N{k} x Sigma{g}", 4)
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert verdict.trace[0].citation == "Cor 3.5(ii)"
    assert verdict.trace[0].obstruction == "w_2"  # pin obstruction, not w_4


def test_rp4_trace_details():
    verdict = verdict_of("RP4", 4)
    (entry,) = verdict.trace
    assert entry.rule == "dim4-nonorientable"
    assert entry.obstruction == "w_4"
    assert entry.value == "w_2 = 0; w_4 = a^4 != 0"


def test_k3_trace_details():
    verdict = verdict_of("K3", 4)
    (entry,) = verdict.trace
    assert entry.obstruction == "p_1"
    assert entry.value == "w_2 = 0; p_1 = -48 != 0"


def test_three_rp4_cites_w4_not_w3():
    verdict = verdict_of("3#RP4", 3, tame=True)
    (entry,) = verdict.trace
    assert entry.obstruction == "w_4"  # chi(3#RP4) = 1 is odd, W_3 = 0 here
    assert "w_4" in entry.value


# ---------------------------------------------------------------------------
# low codimension


def test_morse_functions_always_exist():
    verdict = verdict_of("RP4", 1)
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].citation == "Morse"


def test_thom_levine_parity():
    even = verdict_of("K3", 2)
    assert even.outcome is Outcome.EXISTS and "chi = 24 is even" in even.trace[0].value
    odd = verdict_of("RP4", 2)
    assert odd.outcome is Outcome.NOT_EXISTS and odd.trace[0].obstruction == "chi"


def test_low_codim_rejects_other_targets():
    # R^3 goes to the R^3 row, not to Morse or Thom-Levine
    verdict = decide._core(atom("RP4"), 3, True)
    assert verdict.trace[0].rule == "dim4-tame-R3"
    assert verdict.trace[0].citation == "Thm 5.1"


# ---------------------------------------------------------------------------
# equidimensional targets and pullbacks


def decide_dim4_to_R4(m) -> Verdict:
    return decide_fold(m, TargetSpec.euclidean(4))


def test_dim4_oriented_spin_flat_case():
    verdict = decide_dim4_to_R4(parse_expression("S2 x S2"))
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].value == "w_2 = 0; p_1 = 0"


def test_dim4_pin_obstruction():
    verdict = decide_dim4_to_R4(atom("CP2"))
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert verdict.trace[0].rule == "dim4-pin"
    assert verdict.trace[0].value == "w_2 = h != 0"


def test_dim4_requires_dimension_4():
    # R^4 from a 3-manifold: decide_fold refuses it, and no row of the table takes it
    with pytest.raises(ValueError, match="target dimension 4 exceeds dim M = 3"):
        decide_dim4_to_R4(atom("S3"))
    (entry,) = decide._core(atom("S3"), 4, False).trace
    assert entry.rule == "no-rule"


def test_pullback_of_own_tangent_bundle():
    m = atom("CP2")
    target = TargetSpec.pullback(4, tangent_descriptor(m))
    verdict = decide_fold(m, target)
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].citation == "Thm 3.4"
    assert verdict.trace[0].value == "w_2 = 0; p_1 = 0"


@pytest.mark.parametrize("expr", ["S4", "S2 x S2"])
def test_pullback_with_a_nonzero_p1_class(expr):
    # p_1(TM) vanishes and the descriptor's p_1 is a nonzero class, so
    # p_1(TM - xi) is the nonzero class "second term nonzero, first zero"
    m = parse_expression(expr)
    doc = {
        "rank": 4,
        "orientable": True,
        "w": [[1]] + [[0] * m.algebra.rank(d) for d in range(1, 5)],
        "p1": "nonzero",
    }
    verdict = decide_fold(m, TargetSpec.pullback(4, load_descriptor(doc, m.algebra)))
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert [(e.rule, e.citation, e.obstruction, e.value) for e in verdict.trace] == [
        ("dim4-oriented", "Thm 3.4", "p_1", "w_2 = 0; p_1 != 0")
    ]


def test_pullback_of_5L_over_rp5_leaves_z_undetermined():
    # xi carries the data of 5L: w = (1 + a)^5 and p_1 = 0.  TRP5 - 5L is
    # L - 1 stably, whose p_1 vanishes, so p_1(RP5) != 0 must not be read as
    # p_1(TM - xi): the cross term W_1(TM - xi) W_1(xi) = beta(a)^2 differs
    m = atom("RP5")
    doc = {"rank": 5, "w": [[1], [1], [0], [0], [1], [1]], "p1": "zero", "orientable": False}
    verdict = decide_fold(m, TargetSpec.pullback(5, load_descriptor(doc, m.algebra)))
    assert verdict.outcome is Outcome.UNKNOWN
    assert [(e.rule, e.citation, e.obstruction, e.value) for e in verdict.trace] == [
        (
            "equidim-z",
            "Thm 3.7",
            "z",
            "w_2 = 0; z undetermined (w_4 = 0 but the torsion part of z is undetermined)",
        )
    ]


def test_pullback_of_a_line_bundle_from_n2_over_k3_x_n2():
    # xi = L + trivial, L pulled back from N2 along its class c1'.  The cross
    # term of p_1 is beta(w_1(TM - xi) w_1(xi)^2) = beta(c2' c1'^2) = 0, so
    # p_1(TM - xi) = p_1(K3 x N2) - 0 != 0, and z != 0
    m = parse_expression("K3 x N2")
    w = [[1]] + [[int(d == 1 and x == "c1'") for x in m.algebra.labels(d)] for d in range(1, 7)]
    doc = {"rank": 6, "w": w, "p1": "zero", "orientable": False}
    verdict = decide_fold(m, TargetSpec.pullback(6, load_descriptor(doc, m.algebra)))
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert [(e.rule, e.citation, e.obstruction, e.value) for e in verdict.trace] == [
        ("equidim-z", "Thm 3.7", "z", "w_2 = 0; z != 0 (2z = p_1 != 0)")
    ]


def test_pullback_must_be_equidimensional():
    m = atom("CP2")
    with pytest.raises(ValueError, match="rank 3"):
        TargetSpec.pullback(4, trivial_descriptor(m.algebra, 3))
    bad = TargetSpec.pullback(4, trivial_descriptor(m.algebra, 4))
    s3 = atom("S3")
    with pytest.raises(ValueError, match="expected dim M"):
        decide_fold(s3, bad)


def test_euclidean_target_matches_the_trivial_pullback(connected_closure):
    # R^n reads w and p_1 off the record; the pullback of the trivial
    # bundle goes through the virtual difference.  Only the n = 4
    # citation tells them apart (Cor 3.5 against Thm 3.4).
    checked = 0
    for m in connected_closure:
        n = m.dim
        if not 4 <= n <= 7:
            continue
        trivial = TargetSpec.pullback(n, trivial_descriptor(m.algebra, n))
        for tame in (False, True):
            euclid = decide_fold(m, TargetSpec.euclidean(n), tame)
            pulled = decide_fold(m, trivial, tame)
            assert euclid.outcome is pulled.outcome, m.name
            assert [(e.rule, e.obstruction, e.value) for e in euclid.trace] == [
                (e.rule, e.obstruction, e.value) for e in pulled.trace
            ], m.name
            for e, t in zip(euclid.trace, pulled.trace):
                if e.citation != t.citation:
                    assert n == 4, m.name
                    assert e.citation in ("Cor 3.5(i)", "Cor 3.5(ii)")
                    assert t.citation == "Thm 3.4"
            checked += 1
    assert checked > 0


def test_record_targets_skip_the_virtual_difference(monkeypatch, connected_closure):
    def refuse(*args, **kwargs):
        raise AssertionError("R^p and S^p targets must read w and p_1 from the record")

    monkeypatch.setattr(decide, "virtual_difference", refuse)
    for m in connected_closure:
        n = m.dim
        if not 4 <= n <= 7:
            continue
        fresh = replace(m)  # an empty verdict table: every decision is derived here
        for tame in (False, True):
            decide_fold(fresh, TargetSpec.euclidean(n), tame)
            decide_fold(fresh, TargetSpec.sphere(n), tame)
        stable_span_bounds(fresh)


def test_equidim_mid_dimensions():
    cp3 = atom("CP3")
    verdict = decide_fold(cp3, TargetSpec.euclidean(6))
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert verdict.trace[0].citation == "Thm 3.7"
    assert "2z = p_1 != 0" in verdict.trace[0].value

    s33 = parse_expression("S3 x S3")
    verdict = decide_fold(s33, TargetSpec.euclidean(6))
    assert verdict.outcome is Outcome.EXISTS

    rp5s1 = parse_expression("RP4 x S1")
    verdict = decide_fold(rp5s1, TargetSpec.euclidean(5))
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert "w_4" in verdict.trace[0].value


def test_equidim_above_range_falls_to_sufficiency():
    m = parse_expression("S3 x S5")
    verdict = decide_fold(m, TargetSpec.euclidean(8))
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].rule == "equidim-range"
    assert verdict.trace[-1].citation == "Eliashberg"


# ---------------------------------------------------------------------------
# target R^3


def test_r3_oriented_dim4_is_referred_out():
    verdict = verdict_of("K3", 3)
    assert verdict.outcome is Outcome.UNKNOWN
    assert verdict.trace[0].citation == "Sadykov-Saeki"


def test_r3_nonorientable_dim4_w3_obstruction():
    verdict = verdict_of("RP2 x RP2", 3, tame=True)
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert verdict.trace[0].obstruction == "W_3"
    assert "W_3 != 0" in verdict.trace[0].value


def test_r3_nonorientable_dim4_nontame_softens():
    verdict = verdict_of("RP2 x RP2", 3, tame=False)
    assert verdict.outcome is Outcome.UNKNOWN
    assert verdict.trace[-1].citation == "Rem 5.6"


def test_r3_odd_dimensions():
    verdict = verdict_of("RP5", 3)
    assert verdict.outcome is Outcome.NOT_EXISTS
    assert verdict.trace[0].citation == "Rem 5.10"
    assert verdict.trace[0].value == "w_4 = a^4 != 0"

    verdict = verdict_of("RP7", 3, tame=True)  # parallelizable: w = 1
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[-1].citation == "Sec 2"  # codim even: fold = tame


def test_r3_dim6_sufficiency():
    assert verdict_of("CP3", 3).outcome is Outcome.EXISTS
    verdict = verdict_of("RP3 x RP3", 3)
    assert verdict.outcome is Outcome.EXISTS  # w_4 = 0 so W_5 = 0
    assert verdict.trace[0].citation == "Thm 5.8"
    hard = parse_expression("RP2 x RP2 x RP2")
    verdict = decide_fold(hard, TargetSpec.euclidean(3))
    assert verdict.outcome is Outcome.UNKNOWN  # w_4 != 0: sufficiency-only
    assert "sufficiency-only" in verdict.trace[0].value


def test_r3_even_dim_8_and_up():
    verdict = verdict_of("S4 x S6", 3)  # fold mode: orientable even-dimensional
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].citation == "Rem 5.10"


def test_r3_requires_dim_at_least_4():
    # a 3-manifold into R^3 is equidimensional, and that row comes first
    (entry,) = decide._core(atom("S3"), 3, True).trace
    assert entry.rule == "equidim-range"
    assert verdict_of("S3", 3).trace[0].rule == "equidim-range"


# ---------------------------------------------------------------------------
# target R^4 from even dimensions >= 6


def test_r4_dimension_gates():
    six = verdict_of("CP3", 4)
    assert six.outcome is Outcome.UNKNOWN and six.trace[0].citation == "Rem 4.7"
    eight = verdict_of("S3 x S5", 4)
    assert eight.trace[0].citation == "Rem 4.4"
    # stably parallelizable, so the sufficiency chain decides after the gate
    assert eight.outcome is Outcome.EXISTS and eight.trace[-1].citation == "Eliashberg"


def test_r4_4k_signature_criterion():
    m = parse_expression("K3 x S8")
    verdict = decide_fold(m, TargetSpec.euclidean(4))
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].value == "w_10 = 0; sigma = 0 divisible by 8"

    rp10 = atom("RP10")
    with_w = decide_fold(rp10, TargetSpec.euclidean(4))
    assert with_w.outcome is Outcome.NOT_EXISTS
    assert with_w.trace[0].value == "w_8 = a^8 != 0"


def test_r4_4k_plus_2_criterion():
    m = parse_expression("S4 x S6")
    verdict = decide_fold(m, TargetSpec.euclidean(4))
    assert verdict.outcome is Outcome.EXISTS
    assert verdict.trace[0].citation == "Thm 4.6"
    assert verdict.trace[0].value == "w_8 = 0"


def test_r4_rejects_bad_dimensions():
    # an odd dimension has no R^4 row; a 4-manifold goes to the equidimensional one
    (entry,) = decide._core(atom("RP5"), 4, False).trace
    assert entry.rule == "no-rule"
    (entry,) = decide._core(atom("S4"), 4, False).trace
    assert entry.rule == "dim4-oriented" and entry.citation == "Cor 3.5(i)"


# ---------------------------------------------------------------------------
# dispatcher-level contracts


def test_decide_fold_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        decide_fold(sphere(0), TargetSpec.euclidean(1))


def test_decide_fold_rejects_oversized_target():
    with pytest.raises(ValueError, match="exceeds"):
        decide_fold(atom("RP4"), TargetSpec.euclidean(7))


def test_sphere_targets_reuse_euclidean_rules():
    euclid = decide_fold(atom("RP4"), TargetSpec.euclidean(4))
    sph = decide_fold(atom("RP4"), TargetSpec.sphere(4))
    assert euclid.outcome is sph.outcome
    assert euclid.trace == sph.trace


def test_sphere_span_upper_becomes_unknown():
    # CP2 has no tame fold map into R^3 by the span bound of Cor 2.4
    euclid = verdict_of("CP2", 3, tame=True)
    assert euclid.outcome is Outcome.NOT_EXISTS and euclid.trace[-1].rule == "span-upper"
    sph = decide_fold(atom("CP2"), TargetSpec.sphere(3), tame=True)
    assert sph.outcome is Outcome.UNKNOWN
    assert sph.trace[:-1] == euclid.trace
    assert (sph.trace[-1].rule, sph.trace[-1].citation) == ("sphere-target", "Cor 2.4")


def test_target_labels():
    assert TargetSpec.euclidean(4).label == "R^4"
    assert TargetSpec.sphere(2).label == "S^2"
    m = atom("CP2")
    assert TargetSpec.pullback(4, tangent_descriptor(m)).label == "pullback(rank=4)"
    with pytest.raises(ValueError):
        TargetSpec.euclidean(0)


def test_verdict_invariants():
    with pytest.raises(InvariantViolation, match="verdict-trace"):
        Verdict(Outcome.EXISTS, ())
    from foldcheck.decide import TraceEntry

    with pytest.raises(InvariantViolation, match="obstruction"):
        Verdict(Outcome.NOT_EXISTS, (TraceEntry("r", "c", "none", "v"),))


def test_equal_verdicts_hash_alike():
    # verdicts compare and hash by their fields, so equal ones collapse in a set
    from foldcheck.decide import TraceEntry

    first, again = verdict_of("RP4", 4), verdict_of("RP4", 4)
    assert first is not again and first == again
    assert hash(first) == hash(again) and len({first, again}) == 1
    entry = TraceEntry(*first.trace[0])
    assert entry == first.trace[0] and hash(entry) == hash(first.trace[0])
    assert len({entry, first.trace[0]}) == 1
    other = verdict_of("K3", 4)
    assert other != first and len({first, again, other}) == 2


def test_outcome_rendering():
    assert Outcome.EXISTS.render() == "EXISTS"
    assert Outcome.NOT_EXISTS.render() == "NOT EXISTS"
    assert Outcome.UNKNOWN.render() == "UNKNOWN"


# ---------------------------------------------------------------------------
# the rule table


# dimension 10 and 12 records: Thm 4.3 and Thm 4.6 need dim M >= 10
EXTRA_LAYER = ("CP5", "CP6", "S2 x CP4", "K3 x CP3", "CP3 x CP3")

_THM_4_3 = ("4k-R4", "Thm 4.3")
_ORIENTABILITY = (*_THM_4_3, "none", "the 4k-dimensional criterion requires orientability")
_SPAN_UPPER = ("span-upper", "Cor 2.4", "span^0", "stable span <= 0 < p - 1 = 3")
_EVEN_CODIM = ("tame-fold-identification", "Sec 2", "none", "dim M - p = 8 is even: every fold map is tame")


# each branch of Thm 4.3 in dimension 12: (expression, target, outcome, trace)
@pytest.mark.parametrize(
    "expr,target,outcome,trace",
    [
        (
            "(CP2 # CP2) x (CP2 # CP2) x CP2", TargetSpec.euclidean(4), Outcome.NOT_EXISTS,
            [(*_THM_4_3, "sigma", "w_10 = 0; sigma = 4 not divisible by 8")],
        ),
        ("CP6 # RP12", TargetSpec.euclidean(4), Outcome.UNKNOWN, [_ORIENTABILITY]),
        ("RP12", TargetSpec.euclidean(4), Outcome.NOT_EXISTS, [_ORIENTABILITY, _SPAN_UPPER, _EVEN_CODIM]),
        (
            "RP12", TargetSpec.sphere(4), Outcome.UNKNOWN,
            [
                _ORIENTABILITY, _SPAN_UPPER, _EVEN_CODIM,
                ("sphere-target", "Cor 2.4", "none", "stated for R^4 only: it does not obstruct fold maps into S^4"),
            ],
        ),
        (
            "CP1 x CP1 x CP4", TargetSpec.euclidean(4), Outcome.EXISTS,
            [(*_THM_4_3, "none", "w_10 = 0; sigma = 0 divisible by 8")],
        ),
    ],
    ids=["sigma", "non-orientable-unknown", "non-orientable-span", "sphere", "exists"],
)
def test_thm_4_3_branches(expr, target, outcome, trace):
    verdict = decide_fold(parse_expression(expr), target)
    assert verdict.outcome is outcome
    assert [(e.rule, e.citation, e.obstruction, e.value) for e in verdict.trace] == trace


# every (rule, citation) pair the sweep below must produce, kept here and
# not read from the package; "scan-R^p" stands for each scan-R^<p> entry
RULE_CITATIONS = {
    ("morse-function", "Morse"),
    ("thom-levine", "Thom-Levine"),
    ("dim4-pin", "Cor 3.5(i)"),
    ("dim4-pin", "Cor 3.5(ii)"),
    ("dim4-oriented", "Cor 3.5(i)"),
    ("dim4-oriented", "Thm 3.4"),
    ("dim4-nonorientable", "Cor 3.5(ii)"),
    ("equidim-pin", "Thm 3.7"),
    ("equidim-z", "Thm 3.7"),
    ("equidim-range", "Thm 3.7"),
    ("dim4-oriented-R3", "Sadykov-Saeki"),
    ("dim4-tame-R3", "Thm 5.1"),
    ("dim4-nontame-R3", "Rem 5.6"),
    ("odd-dim-R3", "Rem 5.10"),
    ("dim6-R3", "Thm 5.8"),
    ("even-dim-R3", "Rem 5.10"),
    ("dim6-R4", "Rem 4.7"),
    ("dim8-R4", "Rem 4.4"),
    ("4k-R4", "Thm 4.3"),
    ("4k+2-R4", "Thm 4.6"),
    ("no-rule", "none"),
    ("tame-fold-identification", "Sec 2"),
    ("stably-parallelizable", "Eliashberg"),
    ("stably-parallelizable", "Cor 2.4"),
    ("span-lower", "Cor 2.4"),
    ("span-upper", "Cor 2.4"),
    ("stably-parallelizable", "Rem 2.5"),
    ("scan-R^p", "Cor 2.4"),
    ("3-frame", "Thm 4.2"),
    ("3-frame", "Thm 4.5"),
    ("span-stabilization", "Thm 4.1"),
    ("sphere-inclusion", "R^p in S^p"),
    ("sphere-target", "Thom-Levine"),
    ("sphere-target", "Thm 5.1"),
    ("sphere-target", "Rem 5.10"),
    ("sphere-target", "Thm 4.3"),
    ("sphere-target", "Thm 4.6"),
    ("sphere-target", "Cor 2.4"),
}


def test_every_rule_fires(connected_closure, monkeypatch):
    fired = [0] * len(decide._RULES)

    def counting(index, row):
        def run(m, p, tame):
            fired[index] += 1
            return row.decide(m, p, tame)

        return row._replace(decide=run)

    monkeypatch.setattr(decide, "_RULES", tuple(counting(i, row) for i, row in enumerate(decide._RULES)))
    records = [replace(m) for m in connected_closure]  # empty verdict tables
    records += [replace(parse_expression(text)) for text in EXTRA_LAYER]
    pairs = set()
    for m in records:
        traces = [
            decide_fold(m, target(p), tame).trace
            for p in range(1, m.dim + 1)
            for tame in (False, True)
            for target in (TargetSpec.euclidean, TargetSpec.sphere)
        ]
        traces.append(decide_fold(m, TargetSpec.pullback(m.dim, tangent_descriptor(m))).trace)
        traces.append(stable_span_bounds(m).trace)
        for trace in traces:
            for e in trace:
                pairs.add(("scan-R^p" if e.rule.startswith("scan-R^") else e.rule, e.citation))
    assert all(fired), fired
    assert pairs == RULE_CITATIONS


# ---------------------------------------------------------------------------
# span bounds


def test_span_rp4_is_zero():
    bounds = stable_span_bounds(atom("RP4"))
    assert (bounds.lower, bounds.upper) == (0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_span_spheres_full(n):
    bounds = stable_span_bounds(sphere(n))
    assert (bounds.lower, bounds.upper) == (n, n)
    assert bounds.trace[0].rule == "stably-parallelizable"
    assert bounds.trace[0].citation == "Rem 2.5"


def test_span_k3_pinched():
    bounds = stable_span_bounds(atom("K3"))
    assert (bounds.lower, bounds.upper) == (1, 2)
    rules = [e.rule for e in bounds.trace]
    assert "scan-R^2" in rules  # chi even: tame fold to the plane exists
    assert "scan-R^4" in rules  # sigma = -16 not divisible by 8... w_2 = 0, p_1 != 0


def test_span_trace_citations():
    bounds = stable_span_bounds(atom("K3"))
    for entry in bounds.trace:
        assert entry.citation in {"Cor 2.4", "Rem 2.5", "Thm 4.1", "Thm 4.2", "Thm 4.5"}


def test_span_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        stable_span_bounds(sphere(0))


def test_span_bounds_validate_interval():
    from foldcheck.decide import SpanBounds

    with pytest.raises(InvariantViolation, match="span-bounds"):
        SpanBounds(3, 2, ())


# ---------------------------------------------------------------------------
# one verdict table per record


def _full_sweep(m) -> list:
    """Every R^p / S^p verdict, tame or not, then the span bounds twice."""
    out = []
    for p in range(1, m.dim + 1):
        for tame in (False, True):
            out.append(decide_fold(m, TargetSpec.euclidean(p), tame))
            out.append(decide_fold(m, TargetSpec.sphere(p), tame))
    out.append(stable_span_bounds(m))
    out.append(stable_span_bounds(m))
    return out


def test_full_sweep_routes_each_record_at_most_2n_times(connected_closure, monkeypatch):
    calls = []

    def counting(row):
        def decide_row(m, p, tame):
            calls.append((p, tame))
            return row.decide(m, p, tame)

        return row._replace(decide=decide_row)

    monkeypatch.setattr(decide, "_RULES", tuple(map(counting, decide._RULES)))
    for m in connected_closure:
        fresh = replace(m)  # a record whose table is still empty
        calls.clear()
        _full_sweep(fresh)
        # one derivation per p, plus a second at p = 3, the only target that reads tame
        assert len(calls) <= fresh.dim + 1, (fresh.name, len(calls))
        assert len(set(calls)) == len(calls), fresh.name
        calls.clear()
        _full_sweep(fresh)
        assert calls == [], fresh.name


def test_core_looks_the_rule_up_once_per_miss(connected_closure, monkeypatch):
    rule = decide._rule
    calls = []

    def counting_rule(n, p):
        calls.append(p)
        return rule(n, p)

    monkeypatch.setattr(decide, "_rule", counting_rule)
    for m in connected_closure:
        fresh = replace(m)
        for p in range(1, fresh.dim + 1):
            row = rule(fresh.dim, p)
            misses = 2 if row is not None and row.reads_tame else 1
            calls.clear()
            decide._core(fresh, p, False)
            decide._core(fresh, p, True)
            assert calls == [p] * misses, (fresh.name, p)
            calls.clear()
            decide._core(fresh, p, True)
            decide._core(fresh, p, False)
            assert calls == [], (fresh.name, p)
        # every verdict is stored now, with its row's sphere flag: a sphere
        # target, and the span bounds of the sufficiency chain, look up nothing
        for p in range(1, fresh.dim + 1):
            for tame in (False, True):
                decide_fold(fresh, TargetSpec.sphere(p), tame)
        assert calls == [], fresh.name


def test_replaced_record_does_not_inherit_the_verdict_table():
    rp4 = atom("RP4")  # chi = 1: no fold map into the plane, so span^0 = 0
    before = _full_sweep(rp4)
    assert before[4].outcome is Outcome.NOT_EXISTS  # R^2, not tame
    even = replace(rp4, name="RP4-even-chi", euler=2)
    after = _full_sweep(even)
    assert after[4].outcome is Outcome.EXISTS
    assert (before[-1].lower, after[-1].lower) == (0, 1)
    assert _full_sweep(rp4) == before


# ---------------------------------------------------------------------------
# Thom polynomials


@pytest.mark.parametrize("n", [5, 6, 7])
def test_thom_table_rp4_cross_sphere(n):
    m = product(atom("RP4"), sphere(n - 4))
    table = thom_polynomials(m)
    by_name = {e.name: e for e in table.entries}
    assert by_name["fold"].vanishes is False  # w_1 = a != 0
    for name in ("cusp", "A3", "A4", "Sigma^{2,0} mod 2"):
        assert by_name[name].vanishes is True, name
    assert not m.w.component(4).is_zero()
    verdict = decide_fold(m, TargetSpec.euclidean(n))
    assert verdict.outcome is Outcome.NOT_EXISTS


def test_thom_table_dim4_integral_entry():
    table = thom_polynomials(atom("K3"))
    by_name = {e.name: e for e in table.entries}
    integral = by_name["Sigma^{2,0} integral"]
    assert integral.value == "48" and integral.vanishes is False
    flat = thom_polynomials(parse_expression("S2 x S2"))
    by_name = {e.name: e for e in flat.entries}
    assert by_name["Sigma^{2,0} integral"].value == "0"
    assert by_name["Sigma^{2,0} integral"].vanishes is True


def test_thom_table_cusp_on_cp2():
    table = thom_polynomials(atom("CP2"))
    by_name = {e.name: e for e in table.entries}
    assert by_name["cusp"].value == "h"
    assert by_name["cusp"].vanishes is False


def test_thom_table_against_difference():
    m = atom("CP2")
    table = thom_polynomials(m, tangent_descriptor(m))
    for entry in table.entries:
        assert entry.vanishes is True, entry


def _dual_class_forms(w):
    """The five mod-2 Thom polynomials as stated, in the dual classes w^{-1}."""
    b1, b2, b3 = (invert_total(w).component(d) for d in (1, 2, 3))
    return [
        b1,
        b1 * b1 + b2,
        b1 * b1 * b1 + b1 * b2,
        b1 * b1 * b1 * b1 + b1 * b3,
        b2 * b2 + b1 * b3,
    ]


def test_thom_table_w_forms_equal_the_dual_class_forms(closure):
    checked = 0
    for m in closure:
        if not 4 <= m.dim <= 7:
            continue
        for xi in (None, tangent_descriptor(m), trivial_descriptor(m.algebra, m.dim)):
            w = m.w if xi is None else virtual_difference(m, xi)[0]
            entries = thom_polynomials(m, xi).entries[:5]
            forms = _dual_class_forms(w)
            assert [e.value for e in entries] == [str(c) for c in forms], m.name
            assert [e.vanishes for e in entries] == [c.is_zero() for c in forms], m.name
            checked += 1
    assert checked > 300


def test_thom_table_dimension_range():
    with pytest.raises(ValueError, match="4 through 7"):
        thom_polynomials(atom("S3"))
    with pytest.raises(ValueError, match="4 through 7"):
        thom_polynomials(parse_expression("S4 x S4"))


def test_thom_integral_entry_mid_dimension_torsion():
    # RP5: w_3 = 0 (w(RP5) = (1+a)^6 = 1 + a^2 + a^4), so beta(w_3) = 0 and
    # the integral entry reduces to the p_1 status
    table = thom_polynomials(atom("RP5"))
    by_name = {e.name: e for e in table.entries}
    assert by_name["Sigma^{2,0} integral"].vanishes is False  # p_1(RP5) != 0
