"""Reference computations the benchmark checks foldcheck against.

Nothing here imports foldcheck or the test suite.  It holds

* a bitmask GF(2) solver (rows are Python ints, bit i = column i) and a Wu
  solver built on it, working on bitmask tables (read from the program's
  tables by ``workloads.bit_view``, or written by ``docgen``),
* closed forms for catalog manifolds: Poincare polynomials, Euler
  characteristics, signatures, orientability, w(RP(n)) = (1+a)^(n+1) and
  w(CP(n)) = (1+h)^(n+1), the Whitney product formula for products and the
  additivity of w_1..w_{n-1} under connected sum,
* the verdict table quoted from the paper and the properties every verdict
  must have (monotone tame verdicts, span consistency, no NOT EXISTS that
  cites a sufficiency-only result).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

# ---------------------------------------------------------------------------
# bitmask GF(2)


def bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def row_mask(values: Iterable[int]) -> int:
    """Pack a 0/1 sequence into an int, entry i at bit i."""
    mask = 0
    for i, v in enumerate(values):
        if int(v) & 1:
            mask |= 1 << i
    return mask


def mask_list(mask: int, length: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(length)]


def solve_mod2(rows: Sequence[int], rhs: Sequence[int], ncols: int) -> int | None:
    """One solution x (as a mask) of ``rows . x = rhs`` over GF(2), or None."""
    aug = [row | ((bit & 1) << ncols) for row, bit in zip(rows, rhs)]
    pivots: list[int] = []
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
    x = 0
    for i, col in enumerate(pivots):
        if (aug[i] >> ncols) & 1:
            x |= 1 << col
    return x


# ---------------------------------------------------------------------------
# Poincare algebras as bitmask tables


@dataclass
class BitAlgebra:
    """A mod-2 Poincare algebra held as bitmask tables.

    ``mult[(d1, i, d2, j)]`` is the product of basis element i of degree d1
    and basis element j of degree d2, ``sq[(k, d, i)]`` is Sq^k of basis
    element i of degree d; absent entries are zero.  ``fundamental`` is the
    evaluation functional on the top degree and ``unit`` the unit's
    coordinates in degree 0.  Only the entries with positive degrees and
    k >= 1 are needed here.
    """

    dim: int
    ranks: list[int]
    mult: dict
    sq: dict
    fundamental: int
    unit: int

    def product(self, d1: int, x: int, d2: int, y: int) -> int:
        out = 0
        for i in bits(x):
            for j in bits(y):
                out ^= self.mult.get((d1, i, d2, j), 0)
        return out

    def total_product(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        n = self.dim
        out = [0] * (n + 1)
        for d1 in range(n + 1):
            if not u[d1]:
                continue
            for d2 in range(n + 1 - d1):
                if not v[d2]:
                    continue
                if d1 == 0 or d2 == 0:
                    # the unit acts as the identity
                    if d1 == 0 and u[0] == self.unit:
                        out[d2] ^= v[d2]
                    elif d2 == 0 and v[0] == self.unit:
                        out[d1] ^= u[d1]
                    else:
                        raise ValueError("total classes must be unital")
                    continue
                out[d1 + d2] ^= self.product(d1, u[d1], d2, v[d2])
        if u[0] and v[0]:
            out[0] = self.unit
        return out

    def square(self, k: int, d: int, x: int) -> int:
        if k == 0:
            return x
        out = 0
        for i in bits(x):
            out ^= self.sq.get((k, d, i), 0)
        return out

    def total_sq(self, v: Sequence[int]) -> list[int]:
        n = self.dim
        out = [0] * (n + 1)
        for j in range(n + 1):
            if not v[j]:
                continue
            for k in range(0, min(j, n - j) + 1):
                out[j + k] ^= self.square(k, j, v[j])
        return out

    def evaluate(self, x: int) -> int:
        return bin(x & self.fundamental).count("1") & 1

    def wu(self) -> list[int] | None:
        """Wu classes v_k from <v_k x, [M]> = <Sq^k x, [M]>, or None if unsolvable."""
        n = self.dim
        v = [0] * (n + 1)
        v[0] = self.unit
        for k in range(1, n // 2 + 1):
            rows, rhs = [], []
            for j in range(self.ranks[n - k]):
                row = 0
                for i in range(self.ranks[k]):
                    if self.evaluate(self.mult.get((k, i, n - k, j), 0)):
                        row |= 1 << i
                rows.append(row)
                rhs.append(self.evaluate(self.sq.get((k, n - k, j), 0)))
            solution = solve_mod2(rows, rhs, self.ranks[k])
            if solution is None:
                return None
            v[k] = solution
        return v


# ---------------------------------------------------------------------------
# closed forms for catalog manifolds


@dataclass(frozen=True)
class RefManifold:
    """Closed-form data of a catalog manifold.

    ``w_weights[d]`` is the number of basis elements in the support of w_d,
    which is basis-independent within the catalog's product and sum bases;
    ``w_exact`` gives w_d as a coordinate mask where the basis is fixed by
    the closed form (rank-one degrees and surfaces).
    """

    text: str
    dim: int
    ranks: tuple[int, ...]
    euler: int
    orientable: bool
    signature: int | None
    w_weights: tuple[int, ...]
    w_exact: tuple[int, ...] | None
    stably_parallelizable: bool

    @property
    def connected(self) -> bool:
        return self.ranks[0] == 1


def _signature_slot(dim: int, orientable: bool, value: int) -> int | None:
    return value if orientable and dim % 4 == 0 else None


def ref_atom(token: str) -> RefManifold:
    """Closed-form data of a catalog atom token."""
    if token == "K3":
        return RefManifold("K3", 4, (1, 0, 22, 0, 1), 24, True, -16, (1, 0, 0, 0, 0), None, False)
    if token == "CP2~":
        base = ref_atom("CP2")
        return RefManifold("CP2~", 4, base.ranks, 3, True, -1, base.w_weights, base.w_exact, False)
    for prefix in ("Sigma", "RP", "CP", "S", "N"):
        if token.startswith(prefix) and token[len(prefix):].isdigit():
            value = int(token[len(prefix):])
            break
    else:
        raise ValueError(f"unknown atom {token!r}")
    if prefix == "S":
        n = value
        if n == 0:  # two points, the unit is (1, 1)
            return RefManifold(token, 0, (2,), 2, True, 0, (2,), (3,), True)
        w = (1,) + (0,) * n
        return RefManifold(token, n, (1,) + (0,) * (n - 1) + (1,), 2 if n % 2 == 0 else 0,
                           True, _signature_slot(n, True, 0), w, w, True)
    if prefix == "RP":
        n = value
        w = tuple(comb(n + 1, d) % 2 for d in range(n + 1))
        return RefManifold(token, n, (1,) * (n + 1), 1 if n % 2 == 0 else 0, n % 2 == 1,
                           None, w, w, False)
    if prefix == "CP":
        n = 2 * value
        w = tuple(comb(value + 1, d // 2) % 2 if d % 2 == 0 else 0 for d in range(n + 1))
        ranks = tuple(1 if d % 2 == 0 else 0 for d in range(n + 1))
        return RefManifold(token, n, ranks, value + 1, True,
                           _signature_slot(n, True, 1 if value % 2 == 0 else 0), w, w, False)
    if prefix == "Sigma":
        g = value
        return RefManifold(token, 2, (1, 2 * g, 1), 2 - 2 * g, True, None, (1, 0, 0),
                           (1, 0, 0), False)
    k = value  # N(k): w_1 = c_1 + ... + c_k, w_2 = chi mod 2
    return RefManifold(token, 2, (1, k, 1), 2 - k, False, None, (1, k, k % 2),
                       (1, (1 << k) - 1, k % 2), False)


def ref_sum(a: RefManifold, b: RefManifold, text: str | None = None) -> RefManifold:
    """Connected sum: middle degrees add, w_1..w_{n-1} add, w_n = chi mod 2."""
    if a.dim != b.dim or a.dim < 1:
        raise ValueError("connected sum needs equal dimensions >= 1")
    n = a.dim
    ranks = (1,) + tuple(a.ranks[d] + b.ranks[d] for d in range(1, n)) + (1,)
    euler = a.euler + b.euler - (2 if n % 2 == 0 else 0)
    orientable = a.orientable and b.orientable
    signature = (a.signature or 0) + (b.signature or 0)
    weights = (1,) + tuple(a.w_weights[d] + b.w_weights[d] for d in range(1, n)) + (euler % 2,)
    return RefManifold(
        text or f"{a.text} # {b.text}", n, ranks, euler, orientable,
        _signature_slot(n, orientable, signature), weights, None,
        a.stably_parallelizable and b.stably_parallelizable,
    )


def ref_product(a: RefManifold, b: RefManifold, text: str | None = None) -> RefManifold:
    """Product: Poincare polynomials multiply, w(A x B) = w(A) x w(B)."""
    n = a.dim + b.dim
    ranks = tuple(
        sum(a.ranks[i] * b.ranks[t - i] for i in range(t + 1) if i <= a.dim and t - i <= b.dim)
        for t in range(n + 1)
    )
    weights = tuple(
        sum(a.w_weights[i] * b.w_weights[t - i] for i in range(t + 1) if i <= a.dim and t - i <= b.dim)
        for t in range(n + 1)
    )
    orientable = a.orientable and b.orientable
    if a.dim % 4 == 0 and b.dim % 4 == 0:
        signature = (a.signature or 0) * (b.signature or 0)
    else:
        signature = 0
    return RefManifold(
        text or f"{a.text} x {b.text}", n, ranks, a.euler * b.euler, orientable,
        _signature_slot(n, orientable, signature), weights, None,
        a.stably_parallelizable and b.stably_parallelizable,
    )


def ref_repeat(k: int, a: RefManifold, text: str | None = None) -> RefManifold:
    """k # A, checked against chi = k chi(A) - 2(k - 1) in even dimension."""
    out = a
    for _ in range(k - 1):
        out = ref_sum(out, a)
    if a.dim % 2 == 0 and out.euler != k * a.euler - 2 * (k - 1):
        raise AssertionError("repeated-sum Euler characteristic")
    return RefManifold(text or f"{k}#{a.text}", out.dim, out.ranks, out.euler, out.orientable,
                       out.signature, out.w_weights, None, out.stably_parallelizable)


def power_series_inverse_coefficients(m: int, length: int) -> list[int]:
    """Coefficients mod 2 of (1 + t)^(-m) up to t^(length-1)."""
    return [comb(m + d - 1, d) % 2 for d in range(length)]


# ---------------------------------------------------------------------------
# verdicts


SUFFICIENCY_ONLY = frozenset({
    "Morse", "Eliashberg", "Thm 5.8", "Thm 4.2", "Thm 4.5", "Rem 2.5",
    "Rem 4.4", "Rem 4.7", "Rem 5.6", "Sadykov-Saeki",
})

# (expression, p, tame) -> (outcome, citation of the deciding entry)
VERDICT_TABLE = {
    ("RP4", 4, False): ("not_exists", "Cor 3.5(ii)"),
    ("RP4 # RP4", 4, False): ("exists", "Cor 3.5(ii)"),
    ("2#RP4", 4, False): ("exists", "Cor 3.5(ii)"),
    ("3#RP4", 3, True): ("not_exists", "Thm 5.1"),
}


def span_table(ref: RefManifold) -> tuple[int, int] | None:
    if ref.text == "K3":
        return (1, 2)
    if ref.text.startswith("S") and ref.text[1:].isdigit() and ref.dim >= 1:
        return (ref.dim, ref.dim)
    return None


def verdict_problems(ref: RefManifold, p: int, tame: bool, outcome: str,
                     trace: Sequence[tuple[str, str, str | None]]) -> list[str]:
    """Properties of one R^p verdict.

    ``trace`` holds (rule, citation, obstruction) rows; the obstruction is
    None where the output does not show it.
    """
    where = f"{ref.text} -> R^{p}{' tame' if tame else ''}"
    out = []
    if not trace:
        out.append(f"{where}: empty trace")
    if p == 1 and outcome != "exists":
        out.append(f"{where}: Morse functions always exist, got {outcome}")
    if p == 2 and outcome != ("exists" if ref.euler % 2 == 0 else "not_exists"):
        out.append(f"{where}: Thom-Levine with chi = {ref.euler}, got {outcome}")
    if outcome == "not_exists" and all(e[2] is not None for e in trace):
        blockers = [e for e in trace if e[2] != "none"]
        if not blockers:
            out.append(f"{where}: NOT EXISTS without an obstruction")
        for _, citation, _ in blockers:
            if citation in SUFFICIENCY_ONLY:
                out.append(f"{where}: NOT EXISTS cites sufficiency-only {citation}")
    elif outcome == "not_exists" and all(e[1] in SUFFICIENCY_ONLY for e in trace):
        # text output shows citations but not which entry obstructs
        out.append(f"{where}: NOT EXISTS rests on sufficiency-only results alone")
    expected = VERDICT_TABLE.get((ref.text, p, tame))
    if expected is not None and (outcome, trace[-1][1] if trace else None) != expected:
        out.append(f"{where}: expected {expected}, got {outcome} citing {trace[-1][1] if trace else None}")
    return out


def sweep_problems(ref: RefManifold, tame_outcomes: Sequence[str],
                   span: tuple[int, int]) -> list[str]:
    """Tame verdicts over p = 1..n against each other and the span bounds."""
    out = []
    lower, upper = span
    if not 0 <= lower <= upper <= ref.dim:
        out.append(f"{ref.text}: span bounds ({lower}, {upper}) out of order")
    seen_not_exists = False
    for p, outcome in enumerate(tame_outcomes, start=1):
        if outcome == "not_exists":
            seen_not_exists = True
            if upper > p - 2:
                out.append(f"{ref.text}: tame NOT EXISTS at p = {p} but span upper = {upper}")
        elif outcome == "exists":
            if seen_not_exists:
                out.append(f"{ref.text}: tame verdicts not monotone at p = {p}")
            if p >= 2 and lower < p - 1:
                out.append(f"{ref.text}: tame EXISTS at p = {p} but span lower = {lower}")
    if ref.stably_parallelizable and lower != ref.dim:
        out.append(f"{ref.text}: stably parallelizable but span lower = {lower}")
    table = span_table(ref)
    if table is not None and span != table:
        out.append(f"{ref.text}: span {span}, paper gives {table}")
    return out
