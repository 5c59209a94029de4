"""Tests for the convex polytope substrate (LPs, vertex enumeration, volumes)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import enumerate_vertices, hull_volume, volume_by_enumeration
from repro.intervals import Interval
from repro.polytope import Polytope, PolytopeError, bound_form, form_rows
from repro.symbolic import LinearForm


def unit_cube(dimension: int) -> Polytope:
    return Polytope.from_box([Interval(0.0, 1.0)] * dimension)


class TestBasics:
    def test_dimension_and_constraints(self):
        cube = unit_cube(3)
        assert cube.dimension == 3
        assert cube.constraint_count == 6

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(PolytopeError):
            Polytope(np.zeros((2, 2)), np.zeros(3))

    def test_contains(self):
        cube = unit_cube(2)
        assert cube.contains((0.5, 0.5))
        assert not cube.contains((1.5, 0.5))

    def test_emptiness(self):
        cube = unit_cube(2)
        assert not cube.is_empty()
        empty = cube.add_constraints([[1.0, 0.0], [-1.0, 0.0]], [0.2, -0.8])
        assert empty.is_empty()

    def test_zero_dimensional(self):
        point = Polytope.from_box([])
        assert not point.is_empty()
        assert point.volume_bounds() == Interval.point(1.0)
        infeasible = Polytope(np.zeros((1, 0)), np.array([-1.0]))
        assert infeasible.is_empty()
        assert infeasible.volume_bounds() == Interval.point(0.0)

    def test_empty_box_is_empty(self):
        box = Polytope.from_box([Interval.empty(), Interval(0.0, 1.0)])
        assert box.is_empty()


class TestLinearProgramming:
    def test_bound_linear_on_cube(self):
        cube = unit_cube(3)
        assert cube.bound_linear([1.0, 1.0, 1.0]) == Interval(0.0, 3.0)
        assert cube.bound_linear([1.0, -1.0, 0.0], constant=2.0) == Interval(1.0, 3.0)

    def test_bound_linear_empty_polytope(self):
        empty = unit_cube(1).add_constraints([[1.0], [-1.0]], [0.2, -0.8])
        assert empty.bound_linear([1.0]) is None

    def test_chebyshev_center_of_cube(self):
        center, radius = unit_cube(2).chebyshev_center()
        assert center == pytest.approx([0.5, 0.5])
        assert radius == pytest.approx(0.5)

    def test_bound_form_includes_interval_constant(self):
        cube = unit_cube(2)
        form = LinearForm.from_dict({0: 1.0, 1: 1.0}, Interval(0.0, 0.5))
        assert bound_form(cube, form) == Interval(0.0, 2.5)


class TestVolumes:
    def test_cube_volume(self):
        volume = unit_cube(4).volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(1.0)

    def test_scaled_box_volume(self):
        box = Polytope.from_box([Interval(0.0, 2.0), Interval(-1.0, 1.0)])
        assert box.volume_bounds().lo == pytest.approx(4.0)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5, 6])
    def test_simplex_volume(self, dimension):
        simplex = unit_cube(dimension).add_constraints([[1.0] * dimension], [1.0])
        expected = 1.0 / math.factorial(dimension)
        assert simplex.volume_bounds().lo == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_halfspace_cut_volume(self):
        half = unit_cube(2).add_constraints([[1.0, -1.0]], [0.0])  # x <= y
        assert half.volume_bounds().lo == pytest.approx(0.5)

    def test_degenerate_volume_zero(self):
        flat = unit_cube(2).add_constraints([[1.0, 0.0], [-1.0, 0.0]], [0.5, -0.5])
        assert flat.volume_bounds() == Interval.point(0.0)

    def test_empty_volume_zero(self):
        empty = unit_cube(3).add_constraints([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.2, -0.9])
        assert empty.volume_bounds() == Interval.point(0.0)

    def test_one_dimensional_volume(self):
        segment = unit_cube(1).add_constraints([[1.0]], [0.25])
        volume = segment.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(0.25)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10_000))
    def test_qhull_volume_matches_brute_force(self, dimension, seed):
        """The production volume path agrees with the brute-force oracle."""
        rng = np.random.default_rng(seed)
        cube = unit_cube(dimension)
        rows = rng.normal(size=(2, dimension))
        rhs = rng.uniform(0.2, 1.0, size=2)
        polytope = cube.add_constraints(rows.tolist(), rhs.tolist())
        fast = polytope.volume_bounds()
        slow = volume_by_enumeration(polytope)
        assume(slow is not None)  # the oracle's Qhull hull failed
        assert fast.is_point
        assert fast.lo == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_monte_carlo_volume_agreement(self):
        rng = np.random.default_rng(42)
        polytope = unit_cube(3).add_constraints([[1.0, 1.0, 1.0], [-1.0, 0.5, 0.0]], [1.5, 0.1])
        points = rng.random((200_000, 3))
        inside = np.mean(np.all(points @ polytope.a[6:].T <= polytope.b[6:], axis=1))
        assert polytope.volume_bounds().lo == pytest.approx(float(inside), abs=0.01)


class TestClosedFormVolumes:
    """Volumes known in closed form, matched to 1e-12 relative.

    A joggled (``QJ``) hull misses these by up to ~1e-6 relative; the pulling
    triangulation is exact up to float rounding.
    """

    @pytest.mark.parametrize("dimension", [2, 3, 4, 5, 6, 7])
    def test_random_boxes(self, dimension):
        rng = np.random.default_rng(dimension)
        for _ in range(10):
            lower = rng.uniform(-3.0, 3.0, size=dimension)
            sides = rng.uniform(0.05, 4.0, size=dimension)
            box = Polytope.from_box(
                [Interval(lo, lo + side) for lo, side in zip(lower, sides)]
            )
            volume = box.volume_bounds()
            assert volume.is_point
            assert volume.lo == pytest.approx(math.prod(sides), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dimension", [2, 3, 4, 5, 6, 7])
    def test_scaled_simplices(self, dimension):
        """``{x ≥ 0, Σ x_i / s_i ≤ 1}`` has volume ``∏ s_i / d!``."""
        rng = np.random.default_rng(100 + dimension)
        scales = rng.uniform(0.2, 5.0, size=dimension)
        rows = np.vstack([-np.eye(dimension), 1.0 / scales])
        rhs = np.concatenate([np.zeros(dimension), [1.0]])
        volume = Polytope(rows, rhs).volume_bounds()
        assert volume.is_point
        expected = math.prod(scales) / math.factorial(dimension)
        assert volume.lo == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dimension", [2, 3, 4, 5, 6, 7])
    def test_cross_polytopes(self, dimension):
        """``{x : Σ |x_i| ≤ 1}`` has volume ``2^d / d!``."""
        rows = np.array(list(itertools.product([1.0, -1.0], repeat=dimension)))
        volume = Polytope(rows, np.ones(len(rows))).volume_bounds()
        assert volume.is_point
        expected = 2.0**dimension / math.factorial(dimension)
        assert volume.lo == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dimension", [2, 3, 4, 5, 6, 7])
    def test_cube_cut_in_half(self, dimension):
        """``[0, 1]^d ∩ {Σ x ≤ d/2}`` is half the cube by point symmetry."""
        half = unit_cube(dimension).add_constraints([[1.0] * dimension], [dimension / 2])
        volume = half.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(0.5, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dimension", [2, 3, 5])
    @pytest.mark.parametrize("rhs,expected", [(0.0, 1.0), (-1.0, 0.0)])
    def test_zero_row(self, dimension, rhs, expected):
        """``0·x ≤ 0`` holds everywhere (the cube keeps volume 1); ``0·x ≤ -1``
        holds nowhere (volume 0)."""
        cube = unit_cube(dimension).add_constraints([[0.0] * dimension], [rhs])
        volume = cube.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dimension", [2, 3, 5])
    def test_subnormal_row_keeps_its_cut(self, dimension):
        """``1e-310·Σx ≤ 0`` leaves only the origin of the cube: volume 0.

        Dropping the subnormal row would report the whole cube instead, so
        the row must be rescaled, not discarded."""
        cube = unit_cube(dimension).add_constraints([[1e-310] * dimension], [0.0])
        volume = cube.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(0.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dimension", [2, 3, 5])
    def test_subnormal_halving_row(self, dimension):
        """``2^-1030·Σx ≤ 2^-1030·d/2`` cuts the cube in half, like ``Σx ≤ d/2``."""
        tiny = 2.0**-1030
        cube = unit_cube(dimension).add_constraints([[tiny] * dimension], [tiny * dimension / 2])
        volume = cube.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_regular_rows_keep_their_bytes(self):
        """Only zero or subnormal rows are touched; cache keys never move."""
        from repro.polytope.polytope import _well_scaled

        cube = unit_cube(3).add_constraints([[1.0, 2.0, 3.0]], [2.5])
        a, b = _well_scaled(cube.a, cube.b)
        assert a is cube.a and b is cube.b

    def test_repeated_degenerate_vertex(self):
        """A pedestrian chunk polytope whose degenerate vertex Qhull's
        halfspace intersection reports three times (a tetrahedron with six
        reported vertices).  Without deduplication the triangulation sees an
        inconsistent face lattice and the volume falls back to a box."""
        rows = [
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
            [-3, 0, 0], [-3, -1, 0], [3, 1, -1], [3, 0, 0], [-3, 0, 0],
            [0, 1, 1], [0, -1, -1],
        ]
        rhs = [
            1, 0, 1, 0, 1, 0, 0, 0, 0, 1.3794461715503124, -0.9787478844112216,
            0.9800761416355203, -0.9787478844112216,
        ]
        polytope = Polytope(np.array(rows, dtype=float), np.array(rhs))
        reference = hull_volume(polytope.vertices())
        volume = polytope.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(reference, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_cube_cut_by_halfspaces_matches_qhull(self, dimension, cuts, seed):
        """Cube ∩ random halfspaces agrees with a non-joggled Qhull hull."""
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(cuts, dimension))
        rhs = rng.uniform(0.1, 1.0, size=cuts) * np.abs(rows).sum(axis=1)
        polytope = unit_cube(dimension).add_constraints(rows.tolist(), rhs.tolist())
        vertices = polytope.vertices()
        assume(vertices is not None)
        reference = hull_volume(vertices)
        assume(reference is not None)  # Qhull's own hull failed
        volume = polytope.volume_bounds()
        assert volume.is_point
        assert volume.lo == pytest.approx(reference, rel=1e-12, abs=0.0)


class TestVertexEnumeration:
    def test_cube_vertices(self):
        vertices = enumerate_vertices(unit_cube(2))
        assert len(vertices) == 4

    def test_triangle_vertices(self):
        triangle = unit_cube(2).add_constraints([[1.0, 1.0]], [1.0])
        vertices = enumerate_vertices(triangle)
        assert len(vertices) == 3

    def test_qhull_vertices_match_brute_force(self):
        polytope = unit_cube(3).add_constraints([[1.0, 1.0, 1.0]], [1.5])
        fast = polytope.vertices()
        slow = enumerate_vertices(polytope)
        assert fast is not None
        assert len(fast) == len(slow)


class TestFormRows:
    def test_universal_vs_existential_upper(self):
        form = LinearForm.from_dict({0: 1.0}, Interval(0.0, 1.0))
        rows_univ, rhs_univ = form_rows(form, 1, upper=2.0, for_lower_bound=True)
        rows_exist, rhs_exist = form_rows(form, 1, upper=2.0, for_lower_bound=False)
        assert rhs_univ[0] == pytest.approx(1.0)  # x + 1 <= 2
        assert rhs_exist[0] == pytest.approx(2.0)  # x + 0 <= 2

    def test_lower_restriction(self):
        form = LinearForm.from_dict({0: 1.0}, Interval.point(0.0))
        rows, rhs = form_rows(form, 1, lower=0.5, for_lower_bound=True)
        assert rows[0] == [-1.0]
        assert rhs[0] == pytest.approx(-0.5)
