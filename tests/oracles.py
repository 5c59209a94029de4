"""Brute-force reference implementations the test suite checks against.

Nothing in ``src/`` calls these; they are deliberately simple (and slow) so
that a disagreement points at the production code.

* :func:`enumerate_vertices` finds every vertex of ``{x : A x ≤ b}`` by
  intersecting each choice of ``n`` constraint hyperplanes and keeping the
  feasible intersection points — ``O(C(m, n) · n³)``, fine for the small
  polytopes of the tests.
* :func:`hull_volume` is the volume of a vertex set's convex hull from a
  non-joggled Qhull hull (``Qt``), independent of the production pulling
  triangulation.
* :func:`volume_by_enumeration` chains the two.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from repro.polytope import Polytope

__all__ = ["enumerate_vertices", "hull_volume", "volume_by_enumeration"]


def enumerate_vertices(polytope: Polytope, tolerance: float = 1e-9) -> np.ndarray:
    """All vertices of the polytope (may be empty)."""
    dimension = polytope.dimension
    if dimension == 0:
        return np.zeros((0, 0))
    vertices: list[np.ndarray] = []
    rows = polytope.a
    rhs = polytope.b
    for subset in itertools.combinations(range(polytope.constraint_count), dimension):
        sub_a = rows[list(subset)]
        sub_b = rhs[list(subset)]
        if abs(np.linalg.det(sub_a)) < tolerance:
            continue
        point = np.linalg.solve(sub_a, sub_b)
        if polytope.contains(point, tolerance=1e-7):
            if not any(np.allclose(point, existing, atol=1e-7) for existing in vertices):
                vertices.append(point)
    if not vertices:
        return np.zeros((0, dimension))
    return np.vstack(vertices)


def hull_volume(vertices: np.ndarray) -> Optional[float]:
    """Volume of ``conv(vertices)`` from a ``Qt`` Qhull hull (``None`` on failure)."""
    try:
        return float(ConvexHull(vertices, qhull_options="Qt").volume)
    except (QhullError, ValueError):
        return None


def volume_by_enumeration(polytope: Polytope) -> Optional[float]:
    """Volume via brute-force vertex enumeration (``None`` on failure)."""
    dimension = polytope.dimension
    vertices = enumerate_vertices(polytope)
    if len(vertices) == 0:
        return 0.0
    if dimension == 1:
        return float(vertices.max() - vertices.min())
    if len(vertices) <= dimension:
        return 0.0
    return hull_volume(vertices)
