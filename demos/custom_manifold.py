"""Load a manifold from a JSON document and let the Wu engine fill in w.

The document below describes the Klein-bottle cohomology ring without
stating its Stiefel-Whitney classes; ``load_manifold`` derives them from
the Steenrod squares via the Wu formula and validates every axiom.  The
result is compared against the catalog's own N2.
"""
from __future__ import annotations

import json

from foldcheck.catalog import load_manifold, nonorientable_surface

KLEIN_BOTTLE = {
    "name": "Klein bottle",
    "dim": 2,
    "orientable": False,
    "euler": 0,
    "basis": [["1"], ["x", "y"], ["xy"]],
    "mult": [
        [1, 0, 1, 0, [1]],   # x*x = xy  (x restricts to RP2's generator)
        [1, 0, 1, 1, [1]],   # x*y = xy
        [1, 1, 1, 1, [0]],   # y*y = 0
    ],
    "sq": [
        [1, 1, 0, [1]],      # Sq^1 x = xy
        [1, 1, 1, [0]],      # Sq^1 y = 0
    ],
    "p1": "zero",
}


def main() -> None:
    m = load_manifold(json.loads(json.dumps(KLEIN_BOTTLE)))
    print(f"loaded {m.name}: dim {m.dim}, chi = {m.euler}")
    print(f"  inferred w  = {m.w}")
    print(f"  wu classes  = {m.wu}")

    reference = nonorientable_surface(2)
    print(f"catalog {reference.name}:")
    print(f"  stored w    = {reference.w}")

    # the bases differ (y versus c1 + c2), so compare basis-free facts
    same = all(
        m.w.component(d).is_zero() == reference.w.component(d).is_zero()
        for d in range(3)
    ) and (m.euler, m.orientable) == (reference.euler, reference.orientable)
    print(f"agreement with catalog (chi, orientability, vanishing of w_d): {same}")


if __name__ == "__main__":
    main()
