"""Existence verdicts for (tame) fold maps, with theorem-level provenance.

Every decision is tri-valued (Exists / NotExists / Unknown) and carries a
trace of the rules that produced it.  NotExists verdicts always cite a
nonvanishing obstruction; Unknown verdicts cite the gap that blocks a
definite answer.  The deciders never overclaim: sufficiency-only results
(Eliashberg's h-principle, the 6-manifold theorem) can produce Exists but
never NotExists.

The rule inventory is the ordered table ``_RULES``.  When no row
decides, a sufficiency chain runs: stable parallelizability, then
stable-span bounds via the equivalence "a tame fold map into R^p
exists iff span0(M) >= p - 1" (Cor 2.4).

A sphere target reads the table's sphere column.  EXISTS carries over
through the open inclusion R^p in S^p.  NOT EXISTS stands only for a
row marked ``sphere``: the equidimensional obstructions are read off
the stable class of TM - f*TN, and TS^p is stably trivial.  Every
other criterion is stated for R^p only, so its NOT EXISTS becomes
UNKNOWN for S^p.
"""
from __future__ import annotations

import enum
from functools import cache
from typing import Callable, List, NamedTuple, Optional, Tuple

from .algebra import ClassZ2, TotalClass, _ReadOnly
from .catalog import Manifold
from .characteristic import BundleDescriptor, virtual_difference, z_status
from .errors import InvariantViolation
from .tristate import P1Data, TriState, p1_negate

__all__ = [
    "Outcome",
    "TraceEntry",
    "Verdict",
    "TargetSpec",
    "SpanBounds",
    "ThomEntry",
    "ThomTable",
    "decide_fold",
    "stable_span_bounds",
    "thom_polynomials",
]


class Outcome(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    UNKNOWN = "unknown"

    def render(self) -> str:
        return {"exists": "EXISTS", "not_exists": "NOT EXISTS", "unknown": "UNKNOWN"}[self.value]


class TraceEntry(NamedTuple):
    rule: str
    citation: str
    obstruction: str
    value: str


class _Fields(_ReadOnly):
    """A read-only record that compares and hashes by the values of its fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


class Verdict(_Fields):
    def __init__(self, outcome: Outcome, trace: Tuple[TraceEntry, ...]) -> None:
        if not trace:
            raise InvariantViolation("verdict-trace", "a verdict must carry at least one trace entry")
        if outcome is Outcome.NOT_EXISTS and all(e.obstruction == "none" for e in trace):
            raise InvariantViolation("verdict-trace", "a NotExists verdict must cite an obstruction")
        vars(self).update(outcome=outcome, trace=trace)


class TargetSpec(NamedTuple):
    """Target of the fold map: R^p, S^p, or pulled-back tangent data g*TN."""

    kind: str
    dim: int
    descriptor: Optional[BundleDescriptor] = None

    @staticmethod
    def euclidean(p: int) -> "TargetSpec":
        if p < 1:
            raise ValueError("target dimension must be >= 1")
        return TargetSpec("euclidean", p)

    @staticmethod
    def sphere(p: int) -> "TargetSpec":
        if p < 1:
            raise ValueError("target dimension must be >= 1")
        return TargetSpec("sphere", p)

    @staticmethod
    def pullback(dim: int, descriptor: BundleDescriptor) -> "TargetSpec":
        if descriptor.rank != dim:
            raise ValueError(
                f"pullback descriptor has rank {descriptor.rank}, expected the target dimension {dim}"
            )
        return TargetSpec("pullback", dim, descriptor)

    @property
    def label(self) -> str:
        if self.kind == "euclidean":
            return f"R^{self.dim}"
        if self.kind == "sphere":
            return f"S^{self.dim}"
        return f"pullback(rank={self.dim})"


class SpanBounds(_Fields):
    def __init__(self, lower: int, upper: int, trace: Tuple[TraceEntry, ...]) -> None:
        if lower < 0 or lower > upper:
            raise InvariantViolation("span-bounds", f"invalid interval [{lower}, {upper}]")
        vars(self).update(lower=lower, upper=upper, trace=trace)


# ---------------------------------------------------------------------------
# low codimension


def _decide_low_codim(m: Manifold, p: int) -> Verdict:
    """Fold maps to the line (Morse functions) and to the plane (Thom--Levine)."""
    if p == 1:
        entry = TraceEntry(
            "morse-function", "Morse", "none", "every closed manifold admits a Morse function"
        )
        return Verdict(Outcome.EXISTS, (entry,))
    if m.euler % 2 == 0:
        entry = TraceEntry("thom-levine", "Thom-Levine", "none", f"chi = {m.euler} is even")
        return Verdict(Outcome.EXISTS, (entry,))
    entry = TraceEntry("thom-levine", "Thom-Levine", "chi", f"chi = {m.euler} is odd")
    return Verdict(Outcome.NOT_EXISTS, (entry,))


# ---------------------------------------------------------------------------
# equidimensional targets: 4 <= n <= 7 decidable


def _difference_for(m: Manifold, target: TargetSpec) -> Tuple[TotalClass, P1Data]:
    """w and p_1 of TM - g*TN; for R^p and S^p, TN is stably trivial."""
    if target.kind == "pullback":
        return virtual_difference(m, target.descriptor)
    return m.w, m.p1


def _decide_equidim(m: Manifold, target: TargetSpec) -> Verdict:
    """Equidimensional targets (p = n): w_2 of TM - g*TN, then ``z_status``.

    One path for every 4 <= n <= 7 and every target; only the rule ids,
    the citation and the wording are chosen by dimension (Cor 3.5 /
    Thm 3.4 for n = 4, Thm 3.7 for 5 <= n <= 7).
    """
    n = m.dim
    if n < 4 or n > 7:
        entry = TraceEntry(
            "equidim-range",
            "Thm 3.7",
            "none",
            f"dimension {n} outside the decidable range 4 <= n <= 7",
        )
        return Verdict(Outcome.UNKNOWN, (entry,))

    w_diff, p1_diff = _difference_for(m, target)
    oriented_data = w_diff.component(1).is_zero()
    if n == 4:
        citation = "Thm 3.4" if target.kind == "pullback" else (
            "Cor 3.5(i)" if oriented_data else "Cor 3.5(ii)"
        )
        pin_rule = "dim4-pin"
        z_rule, z_name = ("dim4-oriented", "p_1") if oriented_data else ("dim4-nonorientable", "w_4")
    else:
        citation, pin_rule, z_rule, z_name = "Thm 3.7", "equidim-pin", "equidim-z", "z"

    w2 = w_diff.component(2)
    if not w2.is_zero():
        entry = TraceEntry(pin_rule, citation, "w_2", f"w_2 = {w2} != 0")
        return Verdict(Outcome.NOT_EXISTS, (entry,))
    z = z_status(w_diff, p1_diff, torsion_free=m.torsion_free)
    if z.is_zero:
        outcome, obstruction, reading = Outcome.EXISTS, "none", "z = 0"
    elif z.is_nonzero:
        outcome, obstruction, reading = Outcome.NOT_EXISTS, z_name, "z != 0"
    else:
        outcome, obstruction, reading = Outcome.UNKNOWN, z_name, "z undetermined"
    # in dimension 4 the note names z itself: p_1 or w_4
    value = z.note if n == 4 else f"{reading} ({z.note})"
    entry = TraceEntry(z_rule, citation, obstruction, f"w_2 = 0; {value}")
    return Verdict(outcome, (entry,))


# ---------------------------------------------------------------------------
# target R^3


def _decide_to_R3(m: Manifold, tame: bool) -> Verdict:
    """Fold maps into R^3: Thm 5.1, Thm 5.8 and Rem 5.10."""
    n = m.dim
    if n == 4:
        if m.orientable:
            entry = TraceEntry(
                "dim4-oriented-R3",
                "Sadykov-Saeki",
                "none",
                "criterion for closed orientable 4-manifolds is stated in external works",
            )
            return Verdict(Outcome.UNKNOWN, (entry,))
        w4 = m.w.component(4)
        w3_status = m.w3_twisted
        if w3_status.is_nonzero:
            outcome, obstruction, value = Outcome.NOT_EXISTS, "W_3", f"W_3 != 0 ({w3_status.note})"
        elif not w4.is_zero():
            outcome, obstruction, value = Outcome.NOT_EXISTS, "w_4", f"w_4 = {w4} != 0"
        elif w3_status.is_zero:
            outcome, obstruction, value = Outcome.EXISTS, "none", "W_3 = 0; w_4 = 0"
        else:
            outcome, obstruction, value = (
                Outcome.UNKNOWN,
                "W_3",
                f"w_4 = 0; W_3 undetermined ({w3_status.note})",
            )
        entry = TraceEntry("dim4-tame-R3", "Thm 5.1", obstruction, value)
        if tame or outcome is Outcome.EXISTS:
            return Verdict(outcome, (entry,))
        nontame = TraceEntry(
            "dim4-nontame-R3",
            "Rem 5.6",
            "none",
            "the tame criterion fails, but it does not obstruct non-tame fold maps",
        )
        return Verdict(Outcome.UNKNOWN, (entry, nontame))

    if n % 2 == 1:
        # codimension n - 3 is even, so tame and non-tame verdicts coincide
        wtop = m.w.component(n - 1)
        entries: List[TraceEntry] = []
        if wtop.is_zero():
            entries.append(TraceEntry("odd-dim-R3", "Rem 5.10", "none", f"w_{n - 1} = 0"))
            outcome = Outcome.EXISTS
        else:
            entries.append(
                TraceEntry("odd-dim-R3", "Rem 5.10", f"w_{n - 1}", f"w_{n - 1} = {wtop} != 0")
            )
            outcome = Outcome.NOT_EXISTS
        if tame:
            entries.append(
                TraceEntry(
                    "tame-fold-identification",
                    "Sec 2",
                    "none",
                    f"dim M - 3 = {n - 3} is even: every fold map is tame",
                )
            )
        return Verdict(outcome, tuple(entries))

    if n == 6:
        if m.orientable:
            entry = TraceEntry(
                "dim6-R3",
                "Thm 5.8",
                "none",
                "orientable 6-manifold: a tame fold map always exists",
            )
            return Verdict(Outcome.EXISTS, (entry,))
        w4 = m.w.component(4)
        if w4.is_zero():
            entry = TraceEntry(
                "dim6-R3",
                "Thm 5.8",
                "none",
                "W_5 = 0 (W_5 is the twisted Bockstein of w_4, and w_4 = 0)",
            )
            return Verdict(Outcome.EXISTS, (entry,))
        entry = TraceEntry(
            "dim6-R3",
            "Thm 5.8",
            "none",
            f"W_5 undetermined (w_4 = {w4} != 0 gives no information); the theorem is sufficiency-only",
        )
        return Verdict(Outcome.UNKNOWN, (entry,))

    # n even, n >= 8
    if m.orientable:
        if not tame:
            entry = TraceEntry(
                "even-dim-R3",
                "Rem 5.10",
                "none",
                f"orientable even-dimensional manifold, dim = {n} >= 8",
            )
            return Verdict(Outcome.EXISTS, (entry,))
        entry = TraceEntry(
            "even-dim-R3",
            "Rem 5.10",
            "none",
            "the even-dimensional statement concerns fold maps; tameness is not addressed",
        )
        return Verdict(Outcome.UNKNOWN, (entry,))
    entry = TraceEntry(
        "even-dim-R3",
        "Rem 5.10",
        "none",
        f"no criterion for non-orientable manifolds of even dimension {n} >= 8",
    )
    return Verdict(Outcome.UNKNOWN, (entry,))


# ---------------------------------------------------------------------------
# target R^4 from even dimensions


def _decide_highdim_to_R4(m: Manifold) -> Verdict:
    """Fold maps of an even-dimensional manifold into R^4: Thm 4.3 and Thm 4.6."""
    n = m.dim
    # codimension n - 4 is even throughout, so tame and fold verdicts coincide
    if n == 6:
        entry = TraceEntry("dim6-R4", "Rem 4.7", "none", "dimension 6 excluded")
        return Verdict(Outcome.UNKNOWN, (entry,))
    if n == 8:
        entry = TraceEntry("dim8-R4", "Rem 4.4", "none", "dimension 8 excluded")
        return Verdict(Outcome.UNKNOWN, (entry,))
    wlow = m.w.component(n - 2)
    if n % 4 == 0:
        if not m.orientable:
            entry = TraceEntry(
                "4k-R4", "Thm 4.3", "none", "the 4k-dimensional criterion requires orientability"
            )
            return Verdict(Outcome.UNKNOWN, (entry,))
        sigma = m.signature
        if not wlow.is_zero():
            entry = TraceEntry("4k-R4", "Thm 4.3", f"w_{n - 2}", f"w_{n - 2} = {wlow} != 0")
            return Verdict(Outcome.NOT_EXISTS, (entry,))
        if sigma % 8 != 0:
            entry = TraceEntry(
                "4k-R4", "Thm 4.3", "sigma", f"w_{n - 2} = 0; sigma = {sigma} not divisible by 8"
            )
            return Verdict(Outcome.NOT_EXISTS, (entry,))
        entry = TraceEntry(
            "4k-R4", "Thm 4.3", "none", f"w_{n - 2} = 0; sigma = {sigma} divisible by 8"
        )
        return Verdict(Outcome.EXISTS, (entry,))
    # n = 4k + 2, k > 1 here since n >= 10
    if wlow.is_zero():
        entry = TraceEntry("4k+2-R4", "Thm 4.6", "none", f"w_{n - 2} = 0")
        return Verdict(Outcome.EXISTS, (entry,))
    entry = TraceEntry("4k+2-R4", "Thm 4.6", f"w_{n - 2}", f"w_{n - 2} = {wlow} != 0")
    return Verdict(Outcome.NOT_EXISTS, (entry,))


# ---------------------------------------------------------------------------
# the rule table, the dispatcher and the sufficiency chain


class _Rule(NamedTuple):
    domain: Callable[[int, int], bool]  # (dim M, p)
    decide: Callable[[Manifold, int, bool], Verdict]  # (M, p, tame)
    reads_tame: bool = False
    sphere: bool = False  # its NOT EXISTS also holds for the target S^p


# Tried in order; the first row whose domain holds decides, so a row
# leaves out what the rows above it already take.
_RULES = (
    _Rule(lambda n, p: p <= 2, lambda m, p, tame: _decide_low_codim(m, p)),
    _Rule(
        lambda n, p: p == n, lambda m, p, tame: _decide_equidim(m, TargetSpec.euclidean(p)), sphere=True
    ),
    _Rule(lambda n, p: p == 3, lambda m, p, tame: _decide_to_R3(m, tame), reads_tame=True),
    _Rule(lambda n, p: p == 4 and n % 2 == 0, lambda m, p, tame: _decide_highdim_to_R4(m)),
)


def _rule(n: int, p: int) -> Optional[_Rule]:
    for row in _RULES:
        if row.domain(n, p):
            return row
    return None


def _routed(m: Manifold, p: int, tame: bool) -> Tuple[Verdict, bool]:
    """The verdict of the first row of ``_RULES`` taking (dim M, p), derived at most once per record.

    It is stored with the row's ``sphere`` flag, which ``decide_fold``
    reads for a sphere target.  Only a miss looks the row up, once; a
    verdict whose row does not read ``tame`` is stored for both modes.
    """
    table = m._verdicts
    found = table.get((p, tame))
    if found is None:
        row = _rule(m.dim, p)
        if row is None:
            entry = TraceEntry(
                "no-rule", "none", "none", f"no criterion covers maps of a {m.dim}-manifold into R^{p}"
            )
            found = (Verdict(Outcome.UNKNOWN, (entry,)), False)
        else:
            found = (row.decide(m, p, tame), row.sphere)
        if row is not None and row.reads_tame:
            table[p, tame] = found
        else:
            table[p, False] = table[p, True] = found
    return found


def _core(m: Manifold, p: int, tame: bool) -> Verdict:
    """The verdict of ``_routed``, without the row's ``sphere`` flag."""
    return _routed(m, p, tame)[0]


def _sufficiency_chain(m: Manifold, p: int, tame: bool, verdict: Verdict) -> Verdict:
    entries = list(verdict.trace)
    if m.stably_parallelizable:
        if tame:
            entries.append(
                TraceEntry(
                    "stably-parallelizable",
                    "Cor 2.4",
                    "none",
                    "M is stably parallelizable: stable span = dim M >= p - 1",
                )
            )
        else:
            entries.append(
                TraceEntry(
                    "stably-parallelizable",
                    "Eliashberg",
                    "none",
                    "M is stably parallelizable: every map to R^p is homotopic to a fold map",
                )
            )
        return Verdict(Outcome.EXISTS, tuple(entries))
    bounds = stable_span_bounds(m)
    if bounds.lower >= p - 1:
        entries.append(
            TraceEntry(
                "span-lower",
                "Cor 2.4",
                "none",
                f"stable span >= {bounds.lower} >= p - 1 = {p - 1}: a tame fold map exists",
            )
        )
        return Verdict(Outcome.EXISTS, tuple(entries))
    if bounds.upper < p - 1 and (tame or (m.dim - p) % 2 == 0):
        entries.append(
            TraceEntry(
                "span-upper",
                "Cor 2.4",
                "span^0",
                f"stable span <= {bounds.upper} < p - 1 = {p - 1}",
            )
        )
        if not tame:
            entries.append(
                TraceEntry(
                    "tame-fold-identification",
                    "Sec 2",
                    "none",
                    f"dim M - p = {m.dim - p} is even: every fold map is tame",
                )
            )
        return Verdict(Outcome.NOT_EXISTS, tuple(entries))
    return verdict


@cache
def _sphere_inclusion(p: int) -> TraceEntry:
    return TraceEntry(
        "sphere-inclusion",
        "R^p in S^p",
        "none",
        f"R^{p} is open in S^{p}: a fold map into R^{p} is one into S^{p}",
    )


def _on_sphere(p: int, core: Verdict, sphere: bool, verdict: Verdict) -> Verdict:
    """The verdict into R^p, read for S^p through the ``sphere`` flag of the core's row."""
    if verdict.outcome is Outcome.EXISTS:
        return Verdict(Outcome.EXISTS, verdict.trace + (_sphere_inclusion(p),))
    if verdict.outcome is Outcome.UNKNOWN or (core.outcome is Outcome.NOT_EXISTS and sphere):
        return verdict
    cited = [e.citation for e in verdict.trace if e.obstruction != "none"][-1]
    entry = TraceEntry(
        "sphere-target",
        cited,
        "none",
        f"stated for R^{p} only: it does not obstruct fold maps into S^{p}",
    )
    return Verdict(Outcome.UNKNOWN, verdict.trace + (entry,))


def decide_fold(m: Manifold, target: TargetSpec, tame: bool = False) -> Verdict:
    """Decide existence of a (tame) fold map of M into the given target.

    A sphere target takes the verdict into R^p and keeps a NOT EXISTS
    only where the deciding row of ``_RULES`` holds for S^p.  Raises
    ValueError for disconnected manifolds and for targets of dimension
    exceeding dim M.
    """
    if not m.connected:
        raise ValueError(f"fold-map decisions require a connected manifold; {m.name} is not connected")
    p = target.dim
    if target.kind == "pullback":
        if p != m.dim:
            raise ValueError(
                f"pullback target has dimension {p}, expected dim M = {m.dim}"
            )
        return _decide_equidim(m, target)
    if p > m.dim:
        raise ValueError(f"target dimension {p} exceeds dim M = {m.dim}")
    core, sphere = _routed(m, p, tame)
    verdict = core if core.outcome is not Outcome.UNKNOWN else _sufficiency_chain(m, p, tame, core)
    if target.kind == "sphere":
        return _on_sphere(p, core, sphere, verdict)
    return verdict


# ---------------------------------------------------------------------------
# stable-span bounds


def stable_span_bounds(m: Manifold) -> SpanBounds:
    """Bounds on span0(M) from the tame-fold scan and the 3-frame theorems.

    Scans p = 2..dim M: a tame-Exists verdict at p forces span0 >= p - 1
    and a tame-NotExists verdict forces span0 <= p - 2 (Cor 2.4).  Stable
    parallelizability pins the lower bound at dim M, and the Atiyah--Dupont
    / Koschorke 3-frame criteria (Thm 4.2, Thm 4.5; they require chi = 0)
    decide span0 >= 3 or <= 2 exactly, using span = span0 for
    even-dimensional manifolds with chi = 0 (Thm 4.1).  The bounds are
    derived once per record.
    """
    if not m.connected:
        raise ValueError(f"span bounds require a connected manifold; {m.name} is not connected")
    table = m._verdicts
    if "span" not in table:
        table["span"] = _span_scan(m)
    return table["span"]


def _span_scan(m: Manifold) -> SpanBounds:
    """The bounds of ``stable_span_bounds``: the tame-fold scan, then the 3-frame test.

    The 3-frame test runs in dimensions 6 (Thm 4.5, oriented) and 8
    (Thm 4.2, oriented) alone.  Rem 4.7 and Rem 4.4 exclude exactly these
    dimensions from the criteria for folds into R^4.  In every other even
    dimension where Thm 4.2 or Thm 4.5 applies (n = 4k >= 12 oriented,
    n = 4k + 2 >= 10), the scan's tame verdict at p = 4 is Thm 4.3 or
    Thm 4.6.  It reads the same w_(n-2), and sigma mod 8 for n = 4k, so by
    Cor 2.4 it already fixes the bound that the 3-frame test would give.
    """
    n = m.dim
    lower, upper = 0, n
    entries: List[TraceEntry] = []
    if m.stably_parallelizable:
        lower = n
        entries.append(
            TraceEntry(
                "stably-parallelizable",
                "Rem 2.5",
                "none",
                f"TM + eps is trivial: stable span = dim M = {n}",
            )
        )
    for p in range(2, n + 1):
        core = _core(m, p, True)
        if core.outcome is Outcome.EXISTS and p - 1 > lower:
            lower = p - 1
            entries.append(
                TraceEntry(
                    f"scan-R^{p}",
                    "Cor 2.4",
                    "none",
                    f"tame fold into R^{p} exists [{core.trace[0].citation}] => span^0 >= {p - 1}",
                )
            )
        elif core.outcome is Outcome.NOT_EXISTS and p - 2 < upper:
            upper = p - 2
            entries.append(
                TraceEntry(
                    f"scan-R^{p}",
                    "Cor 2.4",
                    "none",
                    f"no tame fold into R^{p} [{core.trace[0].citation}] => span^0 <= {p - 2}",
                )
            )
    if n in (6, 8) and m.euler == 0 and m.orientable:
        ok = m.w.component(n - 2).is_zero() and (n == 6 or m.signature % 8 == 0)
        citation = "Thm 4.5" if n == 6 else "Thm 4.2"
        if ok and lower < 3:
            lower = 3
            entries.append(
                TraceEntry("3-frame", citation, "none", "chi = 0 and the 3-frame criterion holds => span >= 3")
            )
        elif not ok and upper > 2:
            upper = 2
            entries.append(
                TraceEntry("3-frame", citation, "none", "chi = 0 and the 3-frame criterion fails => span <= 2")
            )
            entries.append(
                TraceEntry(
                    "span-stabilization",
                    "Thm 4.1",
                    "none",
                    "chi = 0 and dim even: span = span^0, so span^0 <= 2",
                )
            )
    return SpanBounds(lower, upper, tuple(entries))


# ---------------------------------------------------------------------------
# Thom polynomials


class ThomEntry(NamedTuple):
    name: str
    degree: int
    value: str
    vanishes: Optional[bool]


class ThomTable(NamedTuple):
    dim: int
    entries: Tuple[ThomEntry, ...]


def _class_entry(name: str, degree: int, cls: ClassZ2) -> ThomEntry:
    return ThomEntry(name, degree, str(cls), cls.is_zero())


def _beta_w3_status(w3: ClassZ2, w1w3: ClassZ2) -> TriState:
    if w3.is_zero():
        return TriState.zero("w_3 = 0")
    if not w1w3.is_zero():
        return TriState.nonzero("mod-2 reduction w_1 w_3 != 0")
    return TriState.unknown("w_3 != 0 but w_1 w_3 = 0")


def _integral_entry(p1: P1Data, beta: Optional[TriState]) -> ThomEntry:
    neg = p1_negate(p1)
    if beta is None or beta.is_zero:
        vanishes = None if neg.is_unknown else neg.is_zero
        return ThomEntry("Sigma^{2,0} integral", 4, str(neg), vanishes)
    if beta.is_nonzero and neg.is_zero:
        return ThomEntry("Sigma^{2,0} integral", 4, f"nonzero class ({beta.note})", False)
    return ThomEntry("Sigma^{2,0} integral", 4, "unknown", None)


def thom_polynomials(m: Manifold, difference: Optional[BundleDescriptor] = None) -> ThomTable:
    """Thom polynomials of the fold, cusp, A3, A4 and Sigma^{2,0} strata.

    Entries are evaluated for the virtual difference TM - xi (xi defaults
    to the trivial bundle, i.e. maps into Euclidean space).  The mod-2
    entries are stated in the dual classes wbar = w^{-1}.  Expanding
    w wbar = 1 degree by degree turns each into a short form in w, which
    holds in every commutative GF(2)-algebra and is what is evaluated:

        fold:            wbar_1            = w_1
        cusp (A2):       wbar_1^2 + wbar_2 = w_2
        A3:              wbar_1^3 + wbar_1 wbar_2 = w_1 w_2
        A4:              wbar_1^4 + wbar_1 wbar_3 = w_1 w_3
        Sigma^{2,0} (2): wbar_2^2 + wbar_1 wbar_3 = w_2^2 + w_1 w_3

    The integral Sigma^{2,0} entry is -p_1 in dimension 4; in dimensions
    5-7 the torsion beta(w_3) term enters and the entry is reported as a
    tri-state (its mod-2 reduction is w_1 w_3).
    """
    n = m.dim
    if n < 4 or n > 7:
        raise ValueError(f"the Thom polynomial table supports dimensions 4 through 7, got {n}")
    if difference is None:
        w_total, p1 = m.w, m.p1
    else:
        w_total, p1 = virtual_difference(m, difference)
    w1, w2, w3 = (w_total.component(d) for d in (1, 2, 3))
    w1w3 = w1 * w3
    entries = [
        _class_entry("fold", 1, w1),
        _class_entry("cusp", 2, w2),
        _class_entry("A3", 3, w1 * w2),
        _class_entry("A4", 4, w1w3),
        _class_entry("Sigma^{2,0} mod 2", 4, w2 * w2 + w1w3),
    ]
    beta = None if n == 4 else _beta_w3_status(w3, w1w3)
    entries.append(_integral_entry(p1, beta))
    return ThomTable(n, tuple(entries))
