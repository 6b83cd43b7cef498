"""Walk through the headline computation: why RP4 admits no fold map to R^4.

Prints the characteristic classes of RP4, the verdicts for targets R^4,
R^3 (tame) and R^2, and shows how the connected-sum trick flips the
R^4 verdict for RP4 # RP4.
"""
from __future__ import annotations

from foldcheck.catalog import atom, connected_sum
from foldcheck.characteristic import dual_classes, structure_flags
from foldcheck.decide import TargetSpec, decide_fold, stable_span_bounds


def describe(m) -> None:
    flags = structure_flags(m)
    print(f"M = {m.name}  (dim {m.dim}, chi = {m.euler})")
    print(f"  w    = {m.w}")
    print(f"  wu   = {m.wu}")
    print(f"  wbar = {dual_classes(m)}")
    print(f"  orientable={m.orientable}  spin={flags.spin}  pin={flags.pin}")


def verdict_line(m, p: int, tame: bool = False) -> None:
    verdict = decide_fold(m, TargetSpec.euclidean(p), tame)
    mode = "tame fold" if tame else "fold"
    print(f"  {mode} into R^{p}: {verdict.outcome.render()}")
    for entry in verdict.trace:
        print(f"    [{entry.citation}] {entry.value}")


def main() -> None:
    rp4 = atom("RP4")
    describe(rp4)
    for p, tame in [(4, False), (3, True), (2, False)]:
        verdict_line(rp4, p, tame)
    bounds = stable_span_bounds(rp4)
    print(f"  stable span bounds: [{bounds.lower}, {bounds.upper}]")

    print()
    double = connected_sum(rp4, rp4)
    describe(double)
    # chi drops from 1 to 0, so w_4 vanishes and the obstruction dissolves
    verdict_line(double, 4)
    verdict_line(double, 3, tame=True)


if __name__ == "__main__":
    main()
