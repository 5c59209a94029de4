"""Convex polytope substrate: feasibility, LP bounds and exact volumes."""

from .batch import BatchPolytope
from .highs import kernel_available
from .linear_bounds import bound_form, form_rows
from .polytope import Polytope, PolytopeError

__all__ = [
    "BatchPolytope",
    "Polytope",
    "PolytopeError",
    "bound_form",
    "form_rows",
    "kernel_available",
]
