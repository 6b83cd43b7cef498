"""foldcheck: characteristic-class obstructions to the existence of fold maps.

The package assembles closed manifolds from a small catalog (spheres,
projective spaces, surfaces, the K3 surface, connected sums, products),
computes their mod-2 cohomology with Steenrod squares, derives
Stiefel-Whitney and Wu classes from Poincare duality, and decides -- with
theorem-level citations -- whether (tame) fold maps into Euclidean spaces,
spheres, or pulled-back tangent targets exist.
"""

__version__ = "0.1.0"
