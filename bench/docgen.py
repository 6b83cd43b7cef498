"""Seeded generator of manifold documents for the doc-ingest workload.

Documents are written from closed forms, without foldcheck:

* truncated polynomial rings F2[x_1, ...]/(x_i^(h_i + 1)) with generators of
  degree 1 (an RP(h) factor) or 2 (a CP(h) factor).  Every generator has
  total square Sq(x) = x + x^2, the Cartan formula gives the squares of
  every monomial, and w = prod (1 + x_i)^(h_i + 1);
* connected sums of such rings, k#RP4 and N(k) = k#RP2 among them: middle
  degrees side by side, tops glued, w_1..w_{n-1} side by side and
  w_n = chi mod 2.

The seed permutes the basis inside every degree and the order of the table
entries, and places the corruptions.  Every document comes with three
corrupted copies, each paired with the check that must reject it:

* ``sq-flip``: one coordinate of Sq^d x = x^2 (deg x = d) flipped, rejected
  by the algebra axioms ("sq-top-squaring");
* ``pairing``: a basis class with no products added in one degree, which
  makes the Poincare pairing degenerate ("pairing");
* ``euler``: chi moved by an odd amount (rejected as "Euler parity") or an
  even one (rejected as "euler-rank").
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import product as cartesian
from math import comb
from pathlib import Path

from reference import BitAlgebra, bits, mask_list


@dataclass
class Presentation:
    """A document's content in bitmask form, before it is written out."""

    name: str
    labels: list[list[str]]
    alg: BitAlgebra
    w: list[int]
    euler: int
    orientable: bool
    signature: int | None


@dataclass
class Document:
    path: Path
    expected: tuple[str, str] | None  # (check name, detail) for corrupted copies
    presentation: Presentation


def truncated_ring(name: str, gens: list[tuple[str, int, int]]) -> Presentation:
    """F2[x_1..x_m]/(x_i^(h_i+1)) for gens (symbol, degree 1 or 2, height h_i)."""
    dim = sum(deg * h for _, deg, h in gens)
    monomials = sorted(
        cartesian(*[range(h + 1) for _, _, h in gens]),
        key=lambda e: (sum(g[1] * x for g, x in zip(gens, e)), e),
    )
    degree_of = {e: sum(g[1] * x for g, x in zip(gens, e)) for e in monomials}
    ranks = [0] * (dim + 1)
    index: dict = {}
    labels: list[list[str]] = [[] for _ in range(dim + 1)]
    for e in monomials:
        d = degree_of[e]
        index[e] = ranks[d]
        ranks[d] += 1
        parts = [s if x == 1 else f"{s}^{x}" for (s, _, _), x in zip(gens, e) if x]
        labels[d].append("".join(parts) or "1")

    def mono(e) -> tuple[int, int] | None:
        if any(x > h for x, (_, _, h) in zip(e, gens)):
            return None
        return degree_of[e], 1 << index[e]

    mult = {}
    for e1 in monomials:
        for e2 in monomials:
            d1, d2 = degree_of[e1], degree_of[e2]
            if d1 == 0 or d2 == 0 or d1 + d2 > dim:
                continue
            out = mono(tuple(a + b for a, b in zip(e1, e2)))
            if out is not None:
                mult[(d1, index[e1], d2, index[e2])] = out[1]
    sq = {}
    for e in monomials:
        d = degree_of[e]
        for s in cartesian(*[range(x + 1) for x in e]):
            k = sum(g[1] * si for g, si in zip(gens, s))
            if k == 0 or k > d or d + k > dim:
                continue
            coeff = 1
            for x, si in zip(e, s):
                coeff *= comb(x, si)
            target = mono(tuple(x + si for x, si in zip(e, s)))
            if coeff % 2 and target is not None:
                key = (k, d, index[e])
                sq[key] = sq.get(key, 0) ^ target[1]
    # w = prod (1 + x)^(h + 1): a sum over monomials with binomial coefficients
    w = [0] * (dim + 1)
    for e in monomials:
        if all(comb(h + 1, x) % 2 for x, (_, _, h) in zip(e, gens)):
            w[degree_of[e]] ^= 1 << index[e]
    euler = 1
    for _, deg, h in gens:
        euler *= (h + 1) if deg == 2 else (1 if h % 2 == 0 else 0)
    orientable = all(h % 2 == 1 for _, deg, h in gens if deg == 1)
    signature = None
    if orientable and dim % 4 == 0:
        # sigma(RP(h)) never enters (odd dimension); sigma(CP(h)) = 1 for even h
        signature = int(all(deg == 2 and h % 2 == 0 for _, deg, h in gens))
    alg = BitAlgebra(dim, ranks, mult, sq, 1, 1)
    return Presentation(name, labels, alg, w, euler, orientable, signature)


def connected_sum(name: str, pieces: list[Presentation]) -> Presentation:
    """Glue equal-dimensional connected pieces along their top classes."""
    n = pieces[0].alg.dim
    ranks = [1] + [sum(p.alg.ranks[d] for p in pieces) for d in range(1, n)] + [1]
    labels: list[list[str]] = [["1"]] + [[] for _ in range(1, n)] + [["t"]]
    offsets = []
    for idx, p in enumerate(pieces):
        offsets.append([len(labels[d]) if 0 < d < n else 0 for d in range(n + 1)])
        for d in range(1, n):
            labels[d].extend(f"{l}_{idx + 1}" for l in p.labels[d])

    def place(p_index: int, d: int, mask: int) -> int:
        if d == n:
            return pieces[p_index].alg.evaluate(mask)
        return mask << offsets[p_index][d]

    mult, sq = {}, {}
    w = [1] + [0] * n
    for p_index, p in enumerate(pieces):
        off = offsets[p_index]
        for (d1, i, d2, j), mask in p.alg.mult.items():
            out = place(p_index, d1 + d2, mask)
            if out:
                mult[(d1, i + off[d1], d2, j + off[d2])] = out
        for (k, d, i), mask in p.alg.sq.items():
            out = place(p_index, d + k, mask)
            if out:
                sq[(k, d, i + off[d])] = out
        for d in range(1, n):
            w[d] |= p.w[d] << off[d]
    euler = sum(p.euler for p in pieces) - (len(pieces) - 1) * (2 if n % 2 == 0 else 0)
    w[n] = euler % 2
    orientable = all(p.orientable for p in pieces)
    signature = None
    if orientable and n % 4 == 0:
        signature = sum(p.signature or 0 for p in pieces)
    alg = BitAlgebra(n, ranks, mult, sq, 1, 1)
    return Presentation(name, labels, alg, w, euler, orientable, signature)


def permuted(pres: Presentation, rng: random.Random) -> Presentation:
    """The same presentation with the basis of every degree shuffled."""
    n = pres.alg.dim
    perms = []
    for d in range(n + 1):
        order = list(range(pres.alg.ranks[d]))
        if 0 < d < n:
            rng.shuffle(order)
        perms.append(order)  # perms[d][old] = new

    def move(d: int, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << perms[d][i]
        return out

    labels = []
    for d in range(n + 1):
        row = [""] * len(pres.labels[d])
        for old, new in enumerate(perms[d]):
            row[new] = pres.labels[d][old]
        labels.append(row)
    mult = {
        (d1, perms[d1][i], d2, perms[d2][j]): move(d1 + d2, m)
        for (d1, i, d2, j), m in pres.alg.mult.items()
    }
    sq = {(k, d, perms[d][i]): move(d + k, m) for (k, d, i), m in pres.alg.sq.items()}
    alg = replace(pres.alg, mult=mult, sq=sq)
    return replace(pres, labels=labels, alg=alg, w=[move(d, m) for d, m in enumerate(pres.w)])


def to_document(pres: Presentation, rng: random.Random) -> dict:
    ranks = pres.alg.ranks
    mult = [
        [d1, i, d2, j, mask_list(m, ranks[d1 + d2])]
        for (d1, i, d2, j), m in pres.alg.mult.items()
        if (d1, i) <= (d2, j) and m
    ]
    sq = [[k, d, i, mask_list(m, ranks[d + k])] for (k, d, i), m in pres.alg.sq.items() if m]
    rng.shuffle(mult)
    rng.shuffle(sq)
    doc = {
        "name": pres.name,
        "dim": pres.alg.dim,
        "orientable": pres.orientable,
        "euler": pres.euler,
        "basis": pres.labels,
        "mult": mult,
        "sq": sq,
        "w": [mask_list(m, ranks[d]) for d, m in enumerate(pres.w)],
        "p1": "unknown",
    }
    if pres.signature is not None:
        doc["signature"] = pres.signature
    return doc


# ---------------------------------------------------------------------------
# corruptions


def flip_square(pres: Presentation, rng: random.Random) -> Presentation:
    n = pres.alg.dim
    choices = [(d, i) for d in range(1, n // 2 + 1) for i in range(pres.alg.ranks[d])
               if pres.alg.ranks[2 * d]]
    d, i = rng.choice(choices)
    coord = rng.randrange(pres.alg.ranks[2 * d])
    sq = dict(pres.alg.sq)
    sq[(d, d, i)] = sq.get((d, d, i), 0) ^ (1 << coord)
    return replace(pres, alg=replace(pres.alg, sq=sq))


def add_ghost(pres: Presentation, rng: random.Random) -> Presentation:
    d = rng.randrange(1, pres.alg.dim)
    ranks = list(pres.alg.ranks)
    ranks[d] += 1
    labels = [list(row) for row in pres.labels]
    labels[d].append("ghost")
    return replace(pres, labels=labels, alg=replace(pres.alg, ranks=ranks))


def shift_euler(pres: Presentation, rng: random.Random) -> tuple[Presentation, str]:
    delta = rng.choice((-2, -1, 1, 2))
    return replace(pres, euler=pres.euler + delta), ("Euler parity" if delta % 2 else "euler-rank")


# ---------------------------------------------------------------------------
# the doc-ingest set


def rp(h: int) -> Presentation:
    return truncated_ring(f"RP{h}", [("a", 1, h)])


# Sizes are fixed so that every seed costs the same; the seed permutes bases,
# orders entries and places corruptions.  The fourth-cheapest document
# (32#RP4) costs about twice its neighbours below and 0.6 times those above,
# so the median load time falls inside its copies.
FAMILIES = [
    lambda: connected_sum("24#RP4", [rp(4)] * 24),
    lambda: connected_sum("32#RP4", [rp(4)] * 32),
    lambda: connected_sum("40#RP4", [rp(4)] * 40),
    lambda: connected_sum("N200", [rp(2)] * 200),
    lambda: connected_sum("N300", [rp(2)] * 300),
    lambda: truncated_ring("F2[a,b,c]/(a^6,b^4,c^6)", [("a", 1, 5), ("b", 2, 3), ("c", 1, 5)]),
    lambda: truncated_ring("F2[a,b,c]/(a^7,b^3,c^6)", [("a", 1, 6), ("b", 2, 2), ("c", 1, 5)]),
]


def write_documents(directory: Path, seed: int, pass_index: int) -> list[Document]:
    """Write every document and its corrupted copies; return them in load order."""
    rng = random.Random(f"doc-ingest/{seed}/{pass_index}")
    directory.mkdir(parents=True, exist_ok=True)
    docs: list[Document] = []
    for number, make in enumerate(FAMILIES):
        valid = permuted(make(), rng)
        euler_copy, euler_check = shift_euler(valid, rng)
        variants = [
            ("valid", valid, None),
            ("sq-flip", flip_square(valid, rng), ("algebra-axioms", "sq-top-squaring")),
            ("pairing", add_ghost(valid, rng), ("algebra-axioms", "pairing")),
            ("euler", euler_copy, (euler_check, "")),
        ]
        for kind, pres, expected in variants:
            path = directory / f"doc{number:02d}-{kind}.json"
            path.write_text(json.dumps(to_document(pres, rng)))
            docs.append(Document(path, expected, valid))
    rng.shuffle(docs)
    return docs
