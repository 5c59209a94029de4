"""Convex polytopes in halfspace representation.

The linear interval trace semantics (paper Section 6.4) reduces path
denotations to integrals over convex polytopes ``{α : A α ≤ b}``.  GuBPI uses
the external tools Vinci/LattE for exact volume computation and an LP solver
for bounding linear forms; this module provides both from scratch on top of
``scipy``:

* feasibility and Chebyshev centre via linear programming,
* exact bounds on a linear function over the polytope (:meth:`Polytope.bound_linear`),
* exact volume (:meth:`Polytope.volume_bounds`) in four steps: a Chebyshev
  LP (an interior point, and a zero volume for flat or empty polytopes),
  Qhull halfspace intersection for the vertices, a *pulling triangulation*
  built from the vertex/constraint incidence, and a sum of simplex
  determinants.  The triangulation follows Büeler, Enge and Fukuda, "Exact
  volume computation for polytopes: a practical study" (2000): each face is
  coned from its lowest-index vertex over the facets that miss that vertex,
  so the volume is exact up to float rounding on the Qhull vertices.

Every volume is guarded: the result must lie between the inscribed-ball
volume and the vertex bounding-box volume, or the polytope falls back to the
sound ``[0, box volume]`` bounds.  A triangulation that outgrows its simplex
budget takes a (non-joggled) Qhull convex hull instead.

All LPs run on the low-overhead HiGHS kernel (:mod:`repro.polytope.highs`)
when its binding is available: each polytope lazily prepares its constraint
system once and solves every objective (atom bounds, feasibility, Chebyshev)
against it.  The kernel is bit-identical to ``scipy.optimize.linprog`` by
construction, and ``linprog`` remains the automatic fallback.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError, cKDTree

from ..intervals import Interval
from . import highs as _highs

__all__ = ["Polytope", "PolytopeError"]

_FEASIBILITY_TOL = 1e-9

#: Relative slack of the vertex/constraint incidence test (per unit-norm row).
_INCIDENCE_TOL = 1e-9

#: Simplices a pulling triangulation may produce before the volume takes the
#: Qhull hull instead.  A 7-cube needs 5040, and the largest triangulation
#: the test suite and benchmarks build has about 15k simplices.
_SIMPLEX_BUDGET = 100_000

#: Simplices per batched determinant block (bounds the temporary arrays).
_DET_BLOCK = 4096

#: Rounding slack of the bounding-box sanity check (a box's triangulated
#: volume may exceed its side-length product by a few ulps).
_VOLUME_SLACK = 1e-9


class PolytopeError(Exception):
    """Raised on malformed polytope operations."""


@dataclass(frozen=True)
class Polytope:
    """A polytope ``{x ∈ R^n : A x ≤ b}`` (always used with bounded boxes)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.shape[0] != b.shape[0]:
            raise PolytopeError("constraint matrix and right-hand side sizes differ")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_box(bounds: Sequence[Interval]) -> "Polytope":
        """The axis-aligned box ``∏ [lo_i, hi_i]`` as a polytope."""
        dimension = len(bounds)
        rows: list[np.ndarray] = []
        rhs: list[float] = []
        for index, interval in enumerate(bounds):
            if interval.is_empty:
                # An empty box: encode an infeasible constraint 0 <= -1.
                rows.append(np.zeros(dimension))
                rhs.append(-1.0)
                continue
            if math.isfinite(interval.hi):
                row = np.zeros(dimension)
                row[index] = 1.0
                rows.append(row)
                rhs.append(interval.hi)
            if math.isfinite(interval.lo):
                row = np.zeros(dimension)
                row[index] = -1.0
                rows.append(row)
                rhs.append(-interval.lo)
        if not rows:
            rows.append(np.zeros(dimension))
            rhs.append(0.0)
        return Polytope(np.array(rows), np.array(rhs))

    def add_constraints(self, rows: Sequence[Sequence[float]], rhs: Sequence[float]) -> "Polytope":
        """A new polytope with additional constraints ``rows · x ≤ rhs``."""
        if len(rows) == 0:
            return self
        new_a = np.vstack([self.a, np.atleast_2d(np.asarray(rows, dtype=float))])
        new_b = np.concatenate([self.b, np.asarray(rhs, dtype=float).reshape(-1)])
        return Polytope(new_a, new_b)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self.a.shape[1]

    @property
    def constraint_count(self) -> int:
        return self.a.shape[0]

    def contains(self, point: Sequence[float], tolerance: float = 1e-9) -> bool:
        point = np.asarray(point, dtype=float)
        return bool(np.all(self.a @ point <= self.b + tolerance))

    def cache_key(self) -> tuple[bytes, bytes]:
        """The exact H-representation bytes ``(A.tobytes(), b.tobytes())``.

        Two polytopes share a key iff their float64 constraint data is
        bit-identical, which makes the key safe for cross-path geometry
        caches: every LP/Qhull computation on this class is a deterministic
        pure function of ``(A, b)``, so a cache hit returns the identical
        float64s a fresh computation would.  Memoised per instance.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = (self.a.tobytes(), self.b.tobytes())
            object.__setattr__(self, "_cache_key", key)
        return key

    # ------------------------------------------------------------------
    # Linear programming
    # ------------------------------------------------------------------
    def bound_linear(self, coefficients: Sequence[float], constant: float = 0.0) -> Optional[Interval]:
        """Exact range of ``c·x + constant`` over the polytope (``None`` if empty)."""
        if self.dimension == 0:
            return None if self.is_empty() else Interval.point(constant)
        coefficients = np.asarray(coefficients, dtype=float)
        lower = self._optimise(coefficients, minimise=True)
        if lower is None:
            return None
        upper = self._optimise(coefficients, minimise=False)
        if upper is None:
            return None
        lo, hi = lower + constant, upper + constant
        if lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)

    def prepared_lp(self) -> Optional["_highs.PreparedLP"]:
        """The polytope's constraint system, loaded into the HiGHS kernel once.

        ``None`` when the direct binding is unavailable (callers then take
        the ``linprog`` fallback).  Lazily built and memoised per instance,
        so every objective bounded over this polytope — atom sweeps,
        feasibility checks — shares one prepared model.
        """
        prepared = self.__dict__.get("_prepared_lp", False)
        if prepared is False:
            prepared = (
                _highs.PreparedLP(self.a, self.b) if _highs.kernel_available() else None
            )
            object.__setattr__(self, "_prepared_lp", prepared)
        return prepared

    def _optimise(self, coefficients: np.ndarray, minimise: bool) -> Optional[float]:
        sign = 1.0 if minimise else -1.0
        prepared = self.prepared_lp()
        if prepared is not None:
            fun = prepared.minimise(sign * coefficients)
            return None if fun is None else float(sign * fun)
        result = linprog(
            sign * coefficients,
            A_ub=self.a,
            b_ub=self.b,
            bounds=[(None, None)] * self.dimension,
            method="highs",
        )
        if result.status == 2:  # infeasible
            return None
        if not result.success:
            return None
        return float(sign * result.fun)

    def is_empty(self) -> bool:
        """Feasibility check via LP."""
        if self.dimension == 0:
            # A zero-dimensional polytope is the single point (); it is empty
            # exactly when some constraint ``0 <= b`` fails.
            return bool(np.any(self.b < 0.0))
        prepared = self.prepared_lp()
        if prepared is not None:
            status, _, _ = prepared.solve(np.zeros(self.dimension))
            return status == _highs.INFEASIBLE
        result = linprog(
            np.zeros(self.dimension),
            A_ub=self.a,
            b_ub=self.b,
            bounds=[(None, None)] * self.dimension,
            method="highs",
        )
        return result.status == 2

    def chebyshev_center(self) -> Optional[tuple[np.ndarray, float]]:
        """Centre and radius of the largest inscribed ball (``None`` if empty)."""
        if self.dimension == 0:
            return None if self.is_empty() else (np.zeros(0), math.inf)
        norms = np.linalg.norm(self.a, axis=1)
        objective = np.zeros(self.dimension + 1)
        objective[-1] = -1.0  # maximise the radius
        a_ub = np.hstack([self.a, norms.reshape(-1, 1)])
        if _highs.kernel_available():
            col_lower = np.concatenate([np.full(self.dimension, -np.inf), [0.0]])
            prepared = _highs.PreparedLP(a_ub, self.b, col_lower=col_lower)
            status, _, x = prepared.solve(objective)
            if status != _highs.OPTIMAL:
                return None
            x = np.asarray(x, dtype=float)
        else:
            result = linprog(
                objective,
                A_ub=a_ub,
                b_ub=self.b,
                bounds=[(None, None)] * self.dimension + [(0.0, None)],
                method="highs",
            )
            if not result.success:
                return None
            x = result.x
        center = np.asarray(x[:-1], dtype=float)
        radius = float(x[-1])
        return center, radius

    # ------------------------------------------------------------------
    # Volume
    # ------------------------------------------------------------------
    def vertices(
        self, center_radius: Optional[tuple[np.ndarray, float]] = None
    ) -> Optional[np.ndarray]:
        """Vertex enumeration via Qhull halfspace intersection (``None`` on failure).

        ``center_radius`` lets a caller that already solved the Chebyshev LP
        (e.g. :meth:`volume_bounds`) pass its result in instead of paying for
        the identical solve again.
        """
        if self.dimension == 0:
            return np.zeros((1, 0))
        if center_radius is None:
            center_radius = self.chebyshev_center()
        if center_radius is None:
            return None
        center, radius = center_radius
        if radius <= _FEASIBILITY_TOL:
            return None
        if self.dimension == 1:
            bound = self.bound_linear([1.0])
            if bound is None:
                return None
            return np.array([[bound.lo], [bound.hi]])
        halfspaces = np.hstack([self.a, -self.b.reshape(-1, 1)])
        try:
            intersection = HalfspaceIntersection(halfspaces, center)
            return np.asarray(intersection.intersections)
        except (QhullError, ValueError):
            return None

    def volume_bounds(self) -> Interval:
        """Sound bounds on the Lebesgue volume.

        The pipeline is Chebyshev LP → Qhull halfspace intersection →
        pulling triangulation of the vertices → sum of ``|det| / d!`` over
        the simplices (:func:`_triangulated_volume`).  The result is a point
        interval (the volume, exact up to float rounding) in the regular
        case, and exactly 0 when the polytope is empty or lower-dimensional.
        The point volume must lie between the inscribed-ball volume and the
        vertex bounding-box volume; when that check or Qhull fails the result
        is ``[0, volume of the bounding box]``, which keeps every downstream
        bound sound (just less precise).
        """
        if self.dimension == 0:
            return Interval.point(0.0) if self.is_empty() else Interval.point(1.0)
        center_radius = self.chebyshev_center()
        if center_radius is None:
            return Interval.point(0.0)
        _, radius = center_radius
        if radius <= _FEASIBILITY_TOL:
            # Lower-dimensional (or empty): Lebesgue volume 0.
            return Interval.point(0.0)
        if self.dimension == 1:
            bound = self.bound_linear([1.0])
            if bound is None:
                return Interval.point(0.0)
            return Interval.point(bound.width)
        vertices = self.vertices(center_radius)
        if vertices is None or len(vertices) <= self.dimension:
            return Interval(0.0, self._bounding_box_volume())
        dimension = self.dimension
        try:
            volume = _triangulated_volume(self.a, self.b, vertices)
        except _SimplexBudgetExceeded:
            try:
                volume = float(ConvexHull(vertices, qhull_options="Qt").volume)
            except (QhullError, ValueError):
                volume = math.nan
        ball = math.pi ** (dimension / 2) / math.gamma(dimension / 2 + 1) * radius**dimension
        box = float(np.prod(vertices.max(axis=0) - vertices.min(axis=0)))
        if ball <= volume <= box * (1.0 + _VOLUME_SLACK):
            return Interval.point(volume)
        return Interval(0.0, self._bounding_box_volume())

    def volume(self) -> float:
        """The exact volume when available, otherwise the sound upper bound."""
        return self.volume_bounds().hi

    def _bounding_box_volume(self) -> float:
        volume = 1.0
        for index in range(self.dimension):
            direction = np.zeros(self.dimension)
            direction[index] = 1.0
            bound = self.bound_linear(direction)
            if bound is None:
                return 0.0
            if not bound.is_bounded:
                return math.inf
            volume *= bound.width
        return volume


# ----------------------------------------------------------------------
# Pulling triangulation
# ----------------------------------------------------------------------

class _SimplexBudgetExceeded(Exception):
    """A pulling triangulation outgrew :data:`_SIMPLEX_BUDGET`."""


def _triangulated_volume(a: np.ndarray, b: np.ndarray, vertices: np.ndarray) -> float:
    """Volume of ``conv(vertices)`` from a pulling triangulation.

    ``vertices`` are the (possibly repeated) vertices of the
    full-dimensional polytope ``{x : a x ≤ b}``.  Returns ``nan`` when the
    incidence structure is inconsistent (the caller's sanity check then
    rejects it) and raises :class:`_SimplexBudgetExceeded` past the simplex
    budget.
    """
    dimension = vertices.shape[1]
    vertices = _distinct_vertices(vertices)
    try:
        simplices = _pulling_triangulation(_incidence_masks(a, b, vertices), len(vertices), dimension)
    except _DegenerateFace:
        return math.nan
    total = []
    for start in range(0, len(simplices), _DET_BLOCK):
        block = simplices[start:start + _DET_BLOCK]
        apex = vertices[block[:, 0]]
        edges = vertices[block[:, 1:]] - apex[:, None, :]
        total.extend(np.abs(np.linalg.det(edges)).tolist())
    return math.fsum(total) / math.factorial(dimension)


def _distinct_vertices(vertices: np.ndarray) -> np.ndarray:
    """``vertices`` without near-duplicates.

    Qhull's halfspace intersection reports a vertex that lies on more than
    ``d`` facets once per dual facet, so a degenerate vertex can come back
    several times (seen on the pedestrian chunk polytopes).
    """
    scale = _INCIDENCE_TOL * max(1.0, float(np.abs(vertices).max()))
    pairs = cKDTree(vertices).query_pairs(scale, p=np.inf, output_type="ndarray")
    if len(pairs) == 0:
        return vertices
    keep = np.ones(len(vertices), dtype=bool)
    keep[pairs.max(axis=1)] = False
    return vertices[keep]


def _incidence_masks(a: np.ndarray, b: np.ndarray, vertices: np.ndarray) -> list[int]:
    """Per constraint, the bitmask of the vertices lying on its hyperplane.

    Vertex ``j`` lies on (unit-normalised) constraint ``i`` when
    ``a_i·v_j − b_i ≥ −tol·max(1, |b_i|)``.  Constraints touching no vertex
    are dropped.
    """
    norms = np.linalg.norm(a, axis=1)
    live = norms > 0.0
    a = a[live] / norms[live, None]
    b = b[live] / norms[live]
    slack = a @ vertices.T - b[:, None]
    on = slack >= -_INCIDENCE_TOL * np.maximum(1.0, np.abs(b))[:, None]
    weights = [1 << j for j in range(len(vertices))]
    masks = []
    for row in on:
        mask = sum(weights[j] for j in np.flatnonzero(row).tolist())
        if mask:
            masks.append(mask)
    return masks


class _DegenerateFace(Exception):
    """The incidence masks do not describe a face lattice."""


def _pulling_triangulation(masks: list[int], count: int, dimension: int) -> np.ndarray:
    """Simplices (rows of ``dimension + 1`` vertex indices) triangulating the polytope.

    Faces are vertex bitmasks.  The facets of a face ``F`` are the
    inclusion-maximal sets among ``{F & mask_i} \\ {0, F}``; each face is
    triangulated by coning its lowest-index vertex over the triangulations
    of the facets that miss it, down to simplicial faces.  Triangulations
    (and so the facet lists) are memoised per face: a face always pulls the
    same vertex, so the triangulations it induces on shared faces agree.
    """
    simplices = _triangulate((1 << count) - 1, dimension, masks, {})
    flat = np.fromiter(itertools.chain.from_iterable(simplices), dtype=np.intp)
    return flat.reshape(len(simplices), dimension + 1)


def _triangulate(
    face: int, dimension: int, masks: list[int], memo: dict[int, list[tuple[int, ...]]]
) -> list[tuple[int, ...]]:
    """The pulling triangulation of ``face`` (of the given dimension), memoised."""
    simplices = memo.get(face)
    if simplices is not None:
        return simplices
    size = face.bit_count()
    if size == dimension + 1:
        simplex = []
        rest = face
        while rest:
            low = rest & -rest
            simplex.append(low.bit_length() - 1)
            rest ^= low
        simplices = [tuple(simplex)]
    elif size <= dimension or dimension == 0:
        raise _DegenerateFace
    else:
        apex_bit = face & -face
        apex = (apex_bit.bit_length() - 1,)
        simplices = [
            apex + simplex
            for facet in _facets_missing(face, dimension, apex_bit, masks)
            for simplex in _triangulate(facet, dimension - 1, masks, memo)
        ]
        if not simplices:
            raise _DegenerateFace
        if len(simplices) > _SIMPLEX_BUDGET:
            raise _SimplexBudgetExceeded
    memo[face] = simplices
    return simplices


def _facets_missing(face: int, dimension: int, apex_bit: int, masks: list[int]) -> list[int]:
    """The facets of ``face`` (of the given dimension) that miss ``apex_bit``.

    Every proper face that misses the apex lies in a facet that misses it
    too (a face is the meet of the facets containing it), so maximality only
    needs testing among the apex-free candidates.  A facet of a k-face also
    spans k vertices at least.
    """
    candidates = {face & mask for mask in masks}
    found: list[int] = []
    for candidate in sorted(
        (c for c in candidates if not c & apex_bit and c.bit_count() >= dimension),
        key=int.bit_count,
        reverse=True,
    ):
        if not any(candidate & kept == candidate for kept in found):
            found.append(candidate)
    return found
