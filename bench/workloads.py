"""The benchmark's four workloads: inputs, timed operations and their checks.

Each workload yields, for one pass, an untimed warm-up operation and the
list of timed operations.  An operation's ``run`` does the work the user
waits for; its ``check`` (untimed) compares the output with the reference
computations in ``reference.py`` and returns ``(failed, problems)``:
``failed`` marks an operation the program could not complete, ``problems``
lists wrong outputs of operations that did complete.

A pass runs in a fresh process and repeats no input, so a memo cache keyed
on a whole request cannot make later passes free.  Inputs come from
``(seed, pass index)``; sizes do not depend on the seed, only the choice
among inputs of similar cost, their order, basis permutations and the
placement of document corruptions.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

import docgen
import reference as ref

BENCH_DIR = Path(__file__).resolve().parent

# The 22 atoms of the depth-2 closure.  The benchmark keeps its own copy so
# that a change to the tests does not change the workload.
ATOM_TOKENS = [
    "S1", "S2", "S3", "S4",
    "RP1", "RP2", "RP3", "RP4", "RP5",
    "CP1", "CP2", "CP2~", "CP3",
    "K3",
    "Sigma0", "Sigma1", "Sigma2",
    "N1", "N2", "N3", "N4", "N5",
]
PRODUCT_DIM_CAP = 8
DEPTH3_SAMPLE = 30
# depth-3 candidates are limited to a total rank at which every one of them
# costs a few milliseconds, so the seed's choice barely moves the pass time
DEPTH3_RANK_CAP = 36


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, list[str]]]


# ---------------------------------------------------------------------------
# in-process checks shared by closure-sweep and large-build


class _Lazy:
    """Read-only mapping that fills bitmask table entries on first use."""

    def __init__(self, fetch):
        self._fetch = fetch
        self._cache: dict = {}

    def get(self, key, default=0):
        if key not in self._cache:
            self._cache[key] = self._fetch(key)
        return self._cache[key] or default


def _mask(row) -> int:
    return ref.row_mask(row.tolist())


def bit_view(algebra) -> ref.BitAlgebra:
    """The program's algebra as bitmask tables, read through its public blocks."""
    ranks = list(algebra.ranks)
    n = len(ranks) - 1

    def mult(key):
        d1, i, d2, j = key
        if d1 + d2 > n or not ranks[d1 + d2]:
            return 0
        return _mask(algebra.mult_block(d1, d2)[i, j])

    def sq(key):
        k, d, i = key
        if k > d or d + k > n or not ranks[d + k]:
            return 0
        return _mask(algebra.sq_block(k, d)[i])

    return ref.BitAlgebra(n, ranks, _Lazy(mult), _Lazy(sq),
                          _mask(algebra.fundamental), _mask(algebra.unit))


def _masks(total) -> list[int]:
    return [_mask(c) for c in total.components]


def manifold_problems(m, r: ref.RefManifold) -> list[str]:
    """A built record against closed forms and the bitmask Wu solver."""
    from foldcheck.characteristic import dual_classes, wu_total

    out = []
    where = r.text
    facts = (m.dim, tuple(m.algebra.ranks), m.euler, m.orientable, m.signature)
    expected = (r.dim, r.ranks, r.euler, r.orientable, r.signature)
    if facts != expected:
        return [f"{where}: (dim, ranks, chi, orientable, sigma) = {facts}, closed form {expected}"]
    w = _masks(m.w)
    if r.w_exact is not None and tuple(w) != r.w_exact:
        out.append(f"{where}: w = {w}, closed form {list(r.w_exact)}")
    weights = tuple(bin(x).count("1") for x in w)
    if weights != r.w_weights:
        out.append(f"{where}: w support sizes {weights}, closed form {r.w_weights}")
    bit = bit_view(m.algebra)
    v = bit.wu()
    if v is None:
        out.append(f"{where}: the Wu relations have no solution")
    else:
        if v != _masks(wu_total(m.algebra)):
            out.append(f"{where}: Wu classes differ from the bitmask solver")
        if bit.total_sq(v) != w:
            out.append(f"{where}: w != Sq(v) of the bitmask Wu classes")
    unit = [bit.unit] + [0] * m.dim
    if bit.total_product(w, _masks(dual_classes(m))) != unit:
        out.append(f"{where}: w * wbar != 1")
    if m.dim and bit.evaluate(w[m.dim]) != r.euler % 2:
        out.append(f"{where}: <w_n, [M]> != chi mod 2")
    return out


def _trace_rows(verdict) -> list[tuple[str, str, str]]:
    return [(e.rule, e.citation, e.obstruction) for e in verdict.trace]


def decisions_problems(r: ref.RefManifold, result: dict) -> list[str]:
    """Properties of the verdicts of one closure-sweep manifold."""
    out = []
    n = r.dim
    for (p, tame), (euclid, sphere) in result["verdicts"].items():
        out += ref.verdict_problems(r, p, tame, euclid.outcome.value, _trace_rows(euclid))
        if euclid.outcome.value == "exists" and sphere.outcome.value != "exists":
            out.append(f"{r.text} -> S^{p}: R^{p} admits one, S^{p} gives {sphere.outcome.value}")
        if sphere.outcome.value == "not_exists":
            for _, citation, obstruction in _trace_rows(sphere):
                if obstruction != "none" and citation in ref.SUFFICIENCY_ONLY:
                    out.append(f"{r.text} -> S^{p}: NOT EXISTS cites {citation}")
    span = result["span"]
    tame = [result["verdicts"][(p, True)][0].outcome.value for p in range(1, n + 1)]
    out += ref.sweep_problems(r, tame, (span.lower, span.upper))
    if "thom" in result:
        vanishes = {e.name: e.vanishes for e in result["thom"].entries}
        if vanishes.get("fold") != r.orientable:
            out.append(f"{r.text}: Thom fold entry (w_1) vanishes = {vanishes.get('fold')}")
        if vanishes.get("cusp") != (r.w_weights[2] == 0):
            out.append(f"{r.text}: Thom cusp entry (w_2) vanishes = {vanishes.get('cusp')}")
        if result["self"].outcome.value == "not_exists":
            out.append(f"{r.text}: the identity is a fold map, yet 'self' gives NOT EXISTS")
    return out


# ---------------------------------------------------------------------------
# closure-sweep


def closure_members() -> list[tuple[str, tuple, ref.RefManifold]]:
    """(kind, key, closed form) for the atoms, depth-2 sums and depth-2 products."""
    refs = {t: ref.ref_atom(t) for t in ATOM_TOKENS}
    out = [("atom", (t,), refs[t]) for t in ATOM_TOKENS]
    pairs = list(itertools.combinations_with_replacement(ATOM_TOKENS, 2))
    for a, b in pairs:
        if refs[a].dim == refs[b].dim >= 1:
            out.append(("sum", (a, b), ref.ref_sum(refs[a], refs[b])))
    for a, b in pairs:
        if refs[a].dim + refs[b].dim <= PRODUCT_DIM_CAP and not a == b == "K3":
            out.append(("product", (a, b), ref.ref_product(refs[a], refs[b])))
    return out


def depth3_pool() -> list[ref.RefManifold]:
    """Depth-3 expressions under the closure's caps, within the rank cap."""
    refs = {t: ref.ref_atom(t) for t in ATOM_TOKENS}
    positive = [t for t in ATOM_TOKENS if refs[t].dim >= 1]
    out = []
    for a, b, c in itertools.combinations_with_replacement(positive, 3):
        if refs[a].dim == refs[b].dim == refs[c].dim:
            out.append(ref.ref_sum(ref.ref_sum(refs[a], refs[b]), refs[c], f"{a} # {b} # {c}"))
    for a in positive:
        for b, c in itertools.combinations_with_replacement(positive, 2):
            if refs[b].dim + refs[c].dim == refs[a].dim and not b == c == "K3":
                out.append(ref.ref_sum(refs[a], ref.ref_product(refs[b], refs[c]), f"{a} # {b} x {c}"))
    for a, b in itertools.combinations_with_replacement(positive, 2):
        if refs[a].dim != refs[b].dim:
            continue
        for c in positive:
            if refs[a].dim + refs[c].dim > PRODUCT_DIM_CAP or c == "K3" and "K3" in (a, b):
                continue
            out.append(ref.ref_product(ref.ref_sum(refs[a], refs[b]), refs[c], f"({a} # {b}) x {c}"))
    for a, b, c in itertools.combinations_with_replacement(positive, 3):
        if refs[a].dim + refs[b].dim + refs[c].dim <= PRODUCT_DIM_CAP and (a, b, c).count("K3") < 2:
            out.append(ref.ref_product(ref.ref_product(refs[a], refs[b]), refs[c], f"{a} x {b} x {c}"))
    return [r for r in out if sum(r.ranks) <= DEPTH3_RANK_CAP]


def _sweep(m) -> dict | None:
    """Every decision the closure sweep asks of one manifold."""
    from foldcheck.characteristic import tangent_descriptor
    from foldcheck.decide import TargetSpec, decide_fold, stable_span_bounds, thom_polynomials

    if not m.connected:
        return None
    n = m.dim
    verdicts = {}
    for p in range(1, n + 1):
        for tame in (False, True):
            verdicts[(p, tame)] = (
                decide_fold(m, TargetSpec.euclidean(p), tame),
                decide_fold(m, TargetSpec.sphere(p), tame),
            )
    result = {"verdicts": verdicts, "span": stable_span_bounds(m)}
    if 4 <= n <= 7:
        result["thom"] = thom_polynomials(m)
        result["self"] = decide_fold(m, TargetSpec.pullback(n, tangent_descriptor(m)))
    return result


def _closure_check(r: ref.RefManifold):
    def check(output) -> tuple[bool, list[str]]:
        m, result = output
        problems = manifold_problems(m, r)
        if result is None:
            if r.connected:
                problems.append(f"{r.text}: connected but not swept")
        else:
            problems += decisions_problems(r, result)
        return False, problems

    return check


def closure_sweep_ops(seed: int, pass_index: int, workdir: Path) -> tuple[Op, list[Op]]:
    from foldcheck import catalog
    from foldcheck.expressions import parse_expression

    built: dict[str, Any] = {}

    def atom_op(token):
        def run():
            m = built[token] = catalog.atom(token)
            return m, _sweep(m)
        return run

    def combine_op(kind, a, b):
        combine = catalog.connected_sum if kind == "sum" else catalog.product

        def run():
            m = combine(built[a], built[b])
            return m, _sweep(m)
        return run

    def parse_op(text):
        def run():
            m = parse_expression(text)
            return m, _sweep(m)
        return run

    ops = []
    for kind, key, r in closure_members():
        run = atom_op(key[0]) if kind == "atom" else combine_op(kind, *key)
        ops.append(Op(r.text, run, _closure_check(r)))
    rng = random.Random(f"closure-sweep/{seed}/{pass_index}")
    # 3#RP4 is in the paper's verdict table; the sample adds the rest
    depth3 = [ref.ref_repeat(3, ref.ref_atom("RP4"), "3#RP4")] + rng.sample(depth3_pool(), DEPTH3_SAMPLE)
    for r in depth3:
        ops.append(Op(r.text, parse_op(r.text), _closure_check(r)))
    warmup = Op("RP6 # RP6", parse_op("RP6 # RP6"), lambda output: (False, []))
    return warmup, ops


# ---------------------------------------------------------------------------
# large-build

# An odd number of constructions keeps the median latency inside one
# construction's samples instead of between two.
LARGE_BUILDS = [
    # high-degree rank-1 atoms: per-call overhead in the degree-triple loops
    ("RP32", lambda: ref.ref_atom("RP32")),
    ("RP40", lambda: ref.ref_atom("RP40")),
    ("CP32", lambda: ref.ref_atom("CP32")),
    # long repeated sums: the k#A chain of k - 1 rebuilds
    ("30#RP4", lambda: ref.ref_repeat(30, ref.ref_atom("RP4"), "30#RP4")),
    ("12#K3", lambda: ref.ref_repeat(12, ref.ref_atom("K3"), "12#K3")),
    # wide products: Kunneth tables and large-rank contractions
    ("RP4 x RP4 x RP4", lambda: ref.ref_product(
        ref.ref_product(ref.ref_atom("RP4"), ref.ref_atom("RP4")), ref.ref_atom("RP4"), "RP4 x RP4 x RP4")),
    ("Sigma2 x Sigma2 x Sigma2", lambda: ref.ref_product(
        ref.ref_product(ref.ref_atom("Sigma2"), ref.ref_atom("Sigma2")), ref.ref_atom("Sigma2"),
        "Sigma2 x Sigma2 x Sigma2")),
]


def large_build_ops(seed: int, pass_index: int, workdir: Path) -> tuple[Op, list[Op]]:
    from foldcheck.decide import TargetSpec, decide_fold
    from foldcheck.expressions import parse_expression

    rng = random.Random(f"large-build/{seed}/{pass_index}")
    order = list(LARGE_BUILDS)
    rng.shuffle(order)
    ops = []
    for text, make in order:
        r = make()
        p = rng.randint(1, min(r.dim, 8))
        tame = rng.random() < 0.5

        def run(text=text, p=p, tame=tame):
            m = parse_expression(text)
            return m, decide_fold(m, TargetSpec.euclidean(p), tame)

        def check(output, r=r, p=p, tame=tame):
            m, verdict = output
            problems = manifold_problems(m, r)
            problems += ref.verdict_problems(r, p, tame, verdict.outcome.value, _trace_rows(verdict))
            return False, problems

        ops.append(Op(f"{text} -> R^{p}{' tame' if tame else ''}", run, check))

    def warm():
        m = parse_expression("RP6 x S2")
        return m, decide_fold(m, TargetSpec.euclidean(3))

    return Op("warm-up", warm, lambda output: (False, [])), ops


# ---------------------------------------------------------------------------
# doc-ingest


def doc_ingest_ops(seed: int, pass_index: int, workdir: Path) -> tuple[Op, list[Op]]:
    from foldcheck.catalog import load_manifold
    from foldcheck.characteristic import dual_classes, wu_total
    from foldcheck.errors import FoldcheckError, InvariantViolation

    docs = docgen.write_documents(workdir / f"docs-{pass_index}", seed, pass_index)

    def load(path: Path):
        with path.open(encoding="utf-8") as handle:
            doc = json.load(handle)
        try:
            return load_manifold(doc)
        except FoldcheckError as exc:
            return exc

    def check(output, doc: docgen.Document) -> tuple[bool, list[str]]:
        where = doc.path.name
        if doc.expected is not None:
            name, detail = doc.expected
            if not isinstance(output, InvariantViolation):
                return False, [f"{where}: accepted or rejected oddly ({output!r}); expected {name}"]
            if output.name != name or detail not in str(output):
                return False, [f"{where}: rejected by '{output}', expected {name} {detail}".rstrip()]
            return False, []
        if isinstance(output, Exception):
            return False, [f"{where}: a valid document was rejected: {output}"]
        pres = doc.presentation
        problems = []
        facts = (output.dim, list(output.algebra.ranks), output.euler, output.orientable)
        if facts != (pres.alg.dim, pres.alg.ranks, pres.euler, pres.orientable):
            problems.append(f"{where}: (dim, ranks, chi, orientable) = {facts}")
        w = _masks(output.w)
        if w != pres.w:
            problems.append(f"{where}: w differs from the closed form")
        v = pres.alg.wu()
        if v is None or pres.alg.total_sq(v) != pres.w:
            problems.append(f"{where}: closed-form w != Sq(v) of the bitmask Wu classes")
        if v != _masks(wu_total(output.algebra)):
            problems.append(f"{where}: Wu classes differ from the bitmask solver")
        unit = [1] + [0] * pres.alg.dim
        if pres.alg.total_product(w, _masks(dual_classes(output))) != unit:
            problems.append(f"{where}: w * wbar != 1")
        if pres.alg.evaluate(w[pres.alg.dim]) != pres.euler % 2:
            problems.append(f"{where}: <w_n, [M]> != chi mod 2")
        return False, problems

    ops = [
        Op(doc.path.name, lambda path=doc.path: load(path), lambda out, doc=doc: check(out, doc))
        for doc in docs
    ]
    warm_dir = workdir / f"warm-{pass_index}"
    warm_dir.mkdir(parents=True, exist_ok=True)
    warm_path = warm_dir / "rp6.json"
    warm_path.write_text(json.dumps(docgen.to_document(docgen.rp(6), random.Random(0))))
    return Op("warm-up", lambda: load(warm_path), lambda output: (False, [])), ops


# ---------------------------------------------------------------------------
# cli-cold

NESTED_DEPTH = 3000

def cli_env() -> dict[str, str]:
    """The environment for CLI children: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_pool() -> list[ref.RefManifold]:
    """Small requests; each costs a few ms beside the interpreter start."""
    atoms = (
        [f"RP{n}" for n in range(1, 9)] + [f"CP{n}" for n in range(1, 5)]
        + [f"S{n}" for n in range(1, 9)] + [f"Sigma{g}" for g in range(0, 5)]
        + [f"N{k}" for k in range(1, 9)] + ["K3", "CP2~"]
    )
    out = [ref.ref_atom(t) for t in atoms]
    for k in (2, 3):
        for t in ("RP2", "RP4", "RP5", "CP2", "N2", "Sigma1"):
            out.append(ref.ref_repeat(k, ref.ref_atom(t), f"{k}#{t}"))
    for a, b in (("RP4", "CP2"), ("K3", "CP2~"), ("N2", "Sigma1"), ("RP3", "S3"), ("CP2", "CP2~")):
        out.append(ref.ref_sum(ref.ref_atom(a), ref.ref_atom(b)))
    for a, b in (("RP4", "S1"), ("RP2", "RP2"), ("S2", "S2"), ("CP2", "S1"), ("Sigma1", "S2"),
                 ("RP2", "RP3"), ("N3", "S3"), ("K3", "S1"), ("RP4", "RP2")):
        out.append(ref.ref_product(ref.ref_atom(a), ref.ref_atom(b)))
    return out


# (expression, position the error must point at)
CLI_ERRORS = [
    ("RP4 # S3", 4),
    ("RP4 @", 4),
    ("2 RP4", 1),
    ("RP4 x (S2", 9),
    ("RP0", 0),
    ("0#RP4", 0),
    ("S2 # RP3 x S1", 3),
    ("K3 #", 4),
]

_POSITION = re.compile(r"\(at position (\d+)\)\s*$")


def _monogenic_wbar_wu(r: ref.RefManifold) -> tuple[list[int], list[int]] | None:
    """Closed-form wbar and wu of RP(n), CP(n) and S(n) in their one-class bases."""
    match = re.fullmatch(r"(RP|CP|S)(\d+)", r.text)
    if match is None:
        return None
    family, value = match.group(1), int(match.group(2))
    n = r.dim
    if family == "S":
        return [1] + [0] * n, [1] + [0] * n
    step = 1 if family == "RP" else 2
    wbar, wu = [0] * (n + 1), [0] * (n + 1)
    inverse = ref.power_series_inverse_coefficients(value + 1, value + 1)
    for d in range(value + 1):
        wbar[step * d] = inverse[d]
        wu[step * d] = comb(value - d, d) % 2 if 2 * d <= value else 0
    return wbar, wu


def _components_problems(r: ref.RefManifold, where: str, w: list[list[int]]) -> list[str]:
    masks = [ref.row_mask(c) for c in w]
    out = []
    if [len(c) for c in w] != list(r.ranks):
        return [f"{where}: component lengths {[len(c) for c in w]}, ranks {list(r.ranks)}"]
    if r.w_exact is not None and tuple(masks) != r.w_exact:
        out.append(f"{where}: w = {w}, closed form {list(r.w_exact)}")
    if tuple(bin(x).count("1") for x in masks) != r.w_weights:
        out.append(f"{where}: w support sizes differ from {r.w_weights}")
    return out


def _invariants_problems(r: ref.RefManifold, where: str, facts: dict) -> list[str]:
    out = []
    if (facts["euler"], facts["orientable"]) != (r.euler, r.orientable):
        out.append(f"{where}: chi/orientable = {facts['euler']}/{facts['orientable']}")
    w1_zero = r.dim < 1 or r.w_weights[1] == 0
    w2_zero = r.dim < 2 or r.w_weights[2] == 0
    if (facts["spin"], facts["pin"]) != (w1_zero and w2_zero, w2_zero):
        out.append(f"{where}: spin/pin = {facts['spin']}/{facts['pin']}")
    out += _components_problems(r, where, facts["w"])
    closed = _monogenic_wbar_wu(r)
    if closed is not None and "wbar" in facts:
        wbar, wu = closed
        if [ref.row_mask(c) for c in facts["wbar"]] != [x & 1 for x in wbar]:
            out.append(f"{where}: wbar differs from (1 + x)^-(n+1)")
        if [ref.row_mask(c) for c in facts["wu"]] != wu:
            out.append(f"{where}: wu differs from the closed form")
    return out


def _decide_json(r, p, tame, kind):
    def check(payload) -> list[str]:
        outcome = payload["verdict"]
        trace = [(e["rule"], e["citation"], e["obstruction"]) for e in payload["trace"]]
        where = f"{r.text} -> {payload['target']}"
        if kind == "euclidean":
            return ref.verdict_problems(r, p, tame, outcome, trace)
        if kind in ("self", "pullback"):
            return [f"{where}: tangent data admits the identity, got NOT EXISTS"] if outcome == "not_exists" else []
        return [f"{where}: NOT EXISTS cites {c}" for _, c, o in trace
                if outcome == "not_exists" and o != "none" and c in ref.SUFFICIENCY_ONLY]
    return check


def _decide_text(r, p, tame):
    def check(text: str) -> list[str]:
        lines = [l for l in text.splitlines() if l.startswith("[")]
        if not lines or " => " not in lines[-1]:
            return [f"{r.text} -> R^{p}: no verdict line"]
        verdict = lines[-1].rsplit(" => ", 1)[1].strip()
        outcome = {"EXISTS": "exists", "NOT EXISTS": "not_exists", "UNKNOWN": "unknown"}.get(verdict)
        trace = [("", l[1:l.index("]")], None) for l in lines]
        return ref.verdict_problems(r, p, tame, outcome, trace)
    return check


def _text_facts(text: str) -> dict:
    facts: dict = {"w": []}
    for line in text.splitlines():
        key, _, value = line.strip().partition(" = ")
        if key == "chi":
            facts["euler"] = int(value)
        elif key in ("orientable", "spin", "pin"):
            facts[key] = value == "true"
        elif re.fullmatch(r"w_\d+", key):
            facts["w"].append(json.loads(value))
    return facts


def _span_check(r):
    def check(lower: int, upper: int) -> list[str]:
        return ref.sweep_problems(r, [], (lower, upper))
    return check


def cli_cold_ops(seed: int, pass_index: int, workdir: Path, trace_dir: Path | None) -> tuple[Op, list[Op]]:
    rng = random.Random(f"cli-cold/{seed}/{pass_index}")
    env = cli_env()
    workdir.mkdir(parents=True, exist_ok=True)
    counter = itertools.count()

    def command(argv: list[str], traced: bool = True) -> Callable[[], subprocess.CompletedProcess]:
        if trace_dir is None or not traced:
            full = [sys.executable, "-m", "foldcheck.cli", *argv]
        else:
            spans = trace_dir / f"cli-{pass_index}-{next(counter)}.json"
            full = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *argv]
        return lambda: subprocess.run(full, capture_output=True, text=True, env=env, cwd=workdir, timeout=60)

    def completed(parse, argv):
        label = " ".join(argv) if len(" ".join(argv)) < 200 else argv[0]

        def check(proc) -> tuple[bool, list[str]]:
            if "Traceback" in proc.stderr or proc.returncode not in (0, 1, 2):
                return True, []
            if proc.returncode != 0:
                return False, [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            try:
                return False, parse(proc.stdout)
            except (ValueError, KeyError, IndexError) as exc:
                return False, [f"{label}: unreadable output ({exc!r})"]
        return check

    def expect_error(label, length: int, position: int | None):
        def check(proc) -> tuple[bool, list[str]]:
            if "Traceback" in proc.stderr or proc.returncode not in (0, 1, 2):
                return True, []
            match = _POSITION.search(proc.stderr)
            if proc.returncode != 2 or match is None:
                return False, [f"{label}: exit {proc.returncode}, stderr {proc.stderr.strip()[-120:]!r}"]
            if position is not None and int(match.group(1)) != position:
                return False, [f"{label}: error at position {match.group(1)}, expected {position}"]
            if position is None and not 0 <= int(match.group(1)) <= length:
                return False, [f"{label}: error position {match.group(1)} outside the input"]
            return False, []
        return check

    pool = _cli_pool()
    equidim = [r for r in pool if 4 <= r.dim <= 7 and r.connected]
    monogenic = [r for r in equidim if _monogenic_wbar_wu(r) is not None]
    ops: list[Op] = []

    def add(label, argv, check):
        ops.append(Op(label, command(argv), check))

    for fmt in ("text", "text", "json", "json"):
        r = rng.choice(pool)
        p, tame = rng.randint(1, r.dim), rng.random() < 0.5
        argv = ["decide", r.text, "--target", f"R{p}"] + (["--tame"] if tame else [])
        if fmt == "json":
            check = _decide_json(r, p, tame, "euclidean")
            add(" ".join(argv), argv + ["--format", "json"], completed(lambda out, c=check: c(json.loads(out)), argv))
        else:
            add(" ".join(argv), argv, completed(_decide_text(r, p, tame), argv))
    rp4 = ref.ref_atom("RP4")
    table_refs = {"RP4": rp4, "RP4 # RP4": ref.ref_sum(rp4, rp4),
                  "2#RP4": ref.ref_repeat(2, rp4, "2#RP4"), "3#RP4": ref.ref_repeat(3, rp4, "3#RP4")}
    text, p, tame = rng.choice(sorted(ref.VERDICT_TABLE))
    r = table_refs[text]
    argv = ["decide", text, "--target", f"R{p}"] + (["--tame"] if tame else [])
    add(" ".join(argv), argv, completed(_decide_text(r, p, tame), argv))

    r = rng.choice(pool)
    p = rng.randint(1, r.dim)
    argv = ["decide", r.text, "--target", f"sphere:{p}", "--format", "json"]
    add(" ".join(argv), argv, completed(lambda out, c=_decide_json(r, p, False, "sphere"): c(json.loads(out)), argv))

    r = rng.choice(equidim)
    argv = ["decide", r.text, "--target", "self", "--format", "json"]
    add(" ".join(argv), argv, completed(lambda out, c=_decide_json(r, r.dim, False, "self"): c(json.loads(out)), argv))

    r = rng.choice(monogenic)
    descriptor = workdir / f"tangent-{pass_index}.json"
    descriptor.write_text(json.dumps({
        "rank": r.dim,
        "w": [ref.mask_list(m, k) for m, k in zip(r.w_exact, r.ranks)],
        "p1": "unknown",
        "orientable": r.orientable,
    }))
    argv = ["decide", r.text, "--target", f"pullback:{descriptor}", "--format", "json"]
    add(f"decide {r.text} --target pullback:tangent", argv,
        completed(lambda out, c=_decide_json(r, r.dim, False, "pullback"): c(json.loads(out)), argv))

    for fmt in ("text", "text", "json", "json"):
        r = rng.choice(pool)
        argv = ["invariants", r.text] + (["--format", "json"] if fmt == "json" else [])
        if fmt == "json":
            def parse(out, r=r):
                payload = json.loads(out)
                facts = {k: payload[k] for k in ("euler", "orientable", "spin", "pin")}
                facts.update({k: payload[k]["components"] for k in ("w", "wu", "wbar")})
                return _invariants_problems(r, f"invariants {r.text}", facts)
        else:
            def parse(out, r=r):
                return _invariants_problems(r, f"invariants {r.text}", _text_facts(out))
        add(" ".join(argv), argv, completed(parse, argv))

    for fmt in ("text", "json"):
        r = rng.choice([ref.ref_atom("K3")] + [ref.ref_atom(f"S{n}") for n in range(1, 9)] + pool)
        argv = ["span", r.text] + (["--format", "json"] if fmt == "json" else [])
        if fmt == "json":
            def parse(out, c=_span_check(r)):
                payload = json.loads(out)
                return c(payload["lower"], payload["upper"])
        else:
            def parse(out, c=_span_check(r)):
                match = re.search(r"lower = (\d+), upper = (\d+)", out)
                return c(int(match.group(1)), int(match.group(2)))
        add(" ".join(argv), argv, completed(parse, argv))

    r = rng.choice(equidim)

    def thom(out, r=r):
        status = dict(re.findall(r"^(\S+) \(deg \d\) = .*\[(\w+)\]$", out, re.M))
        problems = []
        if (status.get("fold") == "zero") != r.orientable:
            problems.append(f"thom {r.text}: fold entry {status.get('fold')}")
        if (status.get("cusp") == "zero") != (r.w_weights[2] == 0):
            problems.append(f"thom {r.text}: cusp entry {status.get('cusp')}")
        return problems
    add(f"thom {r.text}", ["thom", r.text], completed(thom, ["thom", r.text]))

    fmt = rng.choice(("text", "json"))

    def catalog_listing(out):
        tokens = ["S<n>", "RP<n>", "CP<n>", "CP2~", "K3", "Sigma<g>", "N<k>", "A # B", "A x B", "k # A"]
        missing = [t for t in tokens if t not in out]
        return [f"catalog: missing {missing}"] if missing else []
    argv = ["catalog"] + (["--format", "json"] if fmt == "json" else [])
    add(" ".join(argv), argv, completed(catalog_listing, argv))

    k = rng.randint(3, 8)
    pres = docgen.permuted(docgen.connected_sum(f"N{k}", [docgen.rp(2)] * k), rng)
    path = workdir / f"surface-{pass_index}.json"
    path.write_text(json.dumps(docgen.to_document(pres, rng)))

    def document(out, pres=pres):
        payload = json.loads(out)
        w = [ref.row_mask(c) for c in payload["w"]["components"]]
        if (w, payload["euler"]) != (pres.w, pres.euler):
            return [f"invariants {pres.name} document: w/chi differ from the closed form"]
        return []
    argv = ["invariants", str(path), "--format", "json"]
    add(f"invariants N{k}.json", argv, completed(document, argv))

    for text, position in rng.sample(CLI_ERRORS, 2):
        argv = [rng.choice(("invariants", "span")), text]
        add(" ".join(argv), argv, expect_error(" ".join(argv), len(text), position))

    nested = "(" * NESTED_DEPTH + "RP4" + ")" * NESTED_DEPTH
    argv = ["decide", nested, "--target", "R4"]
    label = f"decide ({NESTED_DEPTH} parentheses around RP4) --target R4"
    add(label, argv, expect_error(label, len(nested), None))

    warm = command(["decide", "RP6", "--target", "R3"], traced=False)
    return Op("warm-up", warm, lambda output: (False, [])), ops


WORKLOADS = {
    "cli-cold": cli_cold_ops,
    "closure-sweep": closure_sweep_ops,
    "large-build": large_build_ops,
    "doc-ingest": doc_ingest_ops,
}
