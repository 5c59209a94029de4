"""Standard interval trace semantics for a single symbolic path (Section 6.3).

The sample space of a path is the product of the supports of its sample
variables.  The analyser partitions every variable's domain into sub-intervals
(a grid of boxes = interval traces restricted to this path) and evaluates the
constraints, score values and result value of the path in interval arithmetic
on every box:

* a box contributes to the **lower** bound of a target only when every
  constraint is satisfied for *all* points of the box and the result interval
  is *contained* in the target;
* it contributes to the **upper** bound when every constraint is satisfiable
  by *some* point of the box and the result interval *intersects* the target.

The mass of a box is the product of the exact prior probabilities of its
per-variable intervals (for a uniform(0, 1) variable this is just the width,
i.e. the paper's ``vol``); non-uniform priors are therefore handled natively
as in Appendix E.1.  Unbounded supports are split along quantiles so that
every cell carries equal prior mass.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..distributions import ContinuousDistribution, DiscreteDistribution, Distribution
from ..intervals import Interval
from ..symbolic.paths import Relation, SymbolicPath
from ..symbolic.value import SymExpr, evaluate_interval
from .config import AnalysisOptions
from .vectorize import ScalarFallback as _ScalarFallback
from .vectorize import (
    TableProgramEvaluator,
    checked_cells,
    compile_table_roots,
    vec_mul as _vec_mul,
    vec_product as _vec_product,
)

__all__ = ["BoxPathAnalyzer", "analyze_path_boxes", "analyze_table_boxes", "split_domain"]

_NON_NEGATIVE = Interval(0.0, math.inf)


def split_domain(dist: Distribution, parts: int) -> list[Interval]:
    """Split the support of a prior into cells.

    * Finite discrete supports become one *point cell* per support value, so
      branching on discrete draws is decided exactly and the resulting bounds
      are tight (this is how the Table 2 benchmarks come out exact).
    * Bounded continuous supports are split uniformly in value.
    * Unbounded supports are split uniformly in *probability* using the
      quantile function, which keeps every cell's prior mass equal and finite
      (the two extreme cells stretch to ±∞ but still carry mass ``1/parts``).
    """
    if isinstance(dist, DiscreteDistribution):
        values = sorted(set(dist.support_values()))
        if values:
            return [Interval.point(value) for value in values]
        return [dist.support()]
    support = dist.support()
    if parts <= 1:
        return [support]
    if support.is_bounded:
        return support.split(parts)
    if isinstance(dist, ContinuousDistribution):
        cuts = [dist.quantile(k / parts) for k in range(1, parts)]
        edges = [support.lo, *cuts, support.hi]
        cells = []
        for lo, hi in zip(edges, edges[1:]):
            if hi < lo:
                lo, hi = hi, lo
            cells.append(Interval(lo, hi))
        return cells
    return [support]


def _grid_parts(dimension: int, options: AnalysisOptions) -> int:
    """Per-dimension split count respecting the total box budget."""
    parts = options.splits_per_dimension
    if dimension <= 0:
        return 1
    while parts > 1 and parts ** dimension > options.max_boxes_per_path:
        parts -= 1
    return max(1, parts)


@dataclass
class _Cell:
    bounds: list[Interval]
    mass: float


def _enumerate_cells(path: SymbolicPath, options: AnalysisOptions) -> list[_Cell]:
    parts = _grid_parts(path.variable_count, options)
    per_variable: list[list[tuple[Interval, float]]] = []
    for dist in path.distributions:
        cells = split_domain(dist, parts)
        per_variable.append([(cell, dist.measure(cell)) for cell in cells])
    cells: list[_Cell] = [_Cell(bounds=[], mass=1.0)]
    for variable_cells in per_variable:
        next_cells: list[_Cell] = []
        for cell in cells:
            for interval, mass in variable_cells:
                if mass <= 0.0 and interval.width == 0.0:
                    continue
                next_cells.append(_Cell(bounds=cell.bounds + [interval], mass=cell.mass * mass))
        cells = next_cells
    return cells


# ----------------------------------------------------------------------
# Vectorised cell evaluation
#
# The per-cell loop below evaluates every constraint, score and the result
# value once per grid cell — for a path with thousands of cells that is
# thousands of Python interpreter round-trips per expression node.  The
# vectorised sweep (shared with the linear analyser in
# :mod:`repro.analysis.vectorize`) evaluates each expression node once over
# *all* cells as a pair of (lo, hi) NumPy arrays instead; any anomaly
# abandons the sweep and re-runs the path through the scalar loop.
# ----------------------------------------------------------------------


def _checked_cells(
    expr: SymExpr, los: np.ndarray, his: np.ndarray, transcendentals: bool = False
):
    return checked_cells(
        expr,
        los.shape[0],
        var_leaf=lambda leaf: (los[:, leaf.index], his[:, leaf.index]),
        transcendentals=transcendentals,
    )


def _constraint_masks(relation: str, glo: np.ndarray, ghi: np.ndarray):
    """Vectorised ``holds_exists`` / ``holds_forall`` for one constraint."""
    if relation == Relation.LEQ:
        return glo <= 0.0, ghi <= 0.0
    if relation == Relation.LT:
        return glo < 0.0, ghi < 0.0
    if relation == Relation.GT:
        return ghi > 0.0, glo > 0.0
    return ghi >= 0.0, glo >= 0.0


def _cell_arrays(distributions: Sequence[Distribution], options: AnalysisOptions):
    """The cell grid as arrays: bounds ``(n, d)`` and masses ``(n,)``.

    Mirrors :func:`_enumerate_cells` (same per-variable splits, same
    zero-mass point-cell filter, same lexicographic cell order) but builds
    the product grid with ``meshgrid`` instead of a Python cross product.
    Takes the distribution sequence directly so the materialised and
    columnar routes build identical grids.
    """
    parts = _grid_parts(len(distributions), options)
    lows, highs, masses = [], [], []
    for dist in distributions:
        cells = []
        for cell in split_domain(dist, parts):
            cell_mass = dist.measure(cell)
            if cell_mass <= 0.0 and cell.width == 0.0:
                continue
            cells.append((cell, cell_mass))
        if not cells:
            return None
        lows.append(np.array([cell.lo for cell, _ in cells]))
        highs.append(np.array([cell.hi for cell, _ in cells]))
        masses.append(np.array([mass for _, mass in cells]))
    lo_grid = np.meshgrid(*lows, indexing="ij")
    hi_grid = np.meshgrid(*highs, indexing="ij")
    mass_grid = np.meshgrid(*masses, indexing="ij")
    los = np.stack([grid.reshape(-1) for grid in lo_grid], axis=1)
    his = np.stack([grid.reshape(-1) for grid in hi_grid], axis=1)
    mass = np.ones(los.shape[0])
    for grid in mass_grid:
        mass = mass * grid.reshape(-1)
    return los, his, mass


def _boxes_sweep(
    arrays,
    constraints,
    scores,
    result,
    targets: Sequence[Interval],
    eval_expr,
) -> list[tuple[float, float]]:
    """The grid sweep shared by the materialised and columnar routes.

    ``constraints`` is a sequence of ``(expression handle, relation)``,
    ``scores``/``result`` are expression handles, and ``eval_expr`` resolves
    a handle to per-cell ``(lo, hi)`` arrays — a :class:`SymExpr` evaluated
    by :func:`~repro.analysis.vectorize.checked_cells` on the materialised
    route, a node id evaluated by
    :func:`~repro.analysis.vectorize.checked_cells_table` on the columnar
    route.  Sharing this fold is what makes the two routes bit-identical.
    """
    los, his, mass = arrays
    possible = mass > 0.0
    definite = possible.copy()
    for handle, relation in constraints:
        glo, ghi = eval_expr(handle)
        exists_mask, forall_mask = _constraint_masks(relation, glo, ghi)
        possible &= exists_mask
        definite &= forall_mask
    if not possible.any():
        return [(0.0, 0.0) for _ in targets]

    weight_lo = np.ones(los.shape[0])
    weight_hi = np.ones(los.shape[0])
    for score in scores:
        slo, shi = eval_expr(score)
        # meet with [0, inf); an all-negative score interval collapses to 0.
        slo = np.maximum(slo, 0.0)
        negative = shi < slo
        slo = np.where(negative, 0.0, slo)
        shi = np.where(negative, 0.0, shi)
        weight_lo, weight_hi = _vec_mul(weight_lo, weight_hi, slo, shi)
    weight_lo = np.maximum(weight_lo, 0.0)
    weight_hi = np.maximum(weight_hi, 0.0)
    if np.isnan(weight_lo).any() or np.isnan(weight_hi).any():
        raise _ScalarFallback

    value_lo, value_hi = eval_expr(result)
    upper_mass = _vec_product(mass, weight_hi)
    lower_mass = _vec_product(mass, weight_lo)

    results: list[tuple[float, float]] = []
    for target in targets:
        intersects = possible & (value_hi >= target.lo) & (value_lo <= target.hi)
        contained = definite & (value_lo >= target.lo) & (value_hi <= target.hi)
        upper = float(np.sum(upper_mass, where=intersects, initial=0.0))
        lower = float(np.sum(lower_mass, where=contained, initial=0.0))
        results.append((lower, upper))
    return results


def _analyze_path_boxes_vectorized(
    path: SymbolicPath,
    targets: Sequence[Interval],
    options: AnalysisOptions,
) -> list[tuple[float, float]]:
    """The vectorised sweep; raises :class:`_ScalarFallback` when unsupported."""
    arrays = _cell_arrays(path.distributions, options)
    if arrays is None:
        return [(0.0, 0.0) for _ in targets]
    los, his, _ = arrays
    transcendentals = options.vectorized_transcendentals
    return _boxes_sweep(
        arrays,
        [(constraint.expr, constraint.relation) for constraint in path.constraints],
        path.scores,
        path.result,
        targets,
        lambda expr: _checked_cells(expr, los, his, transcendentals),
    )


#: ``table.scratch`` key of the box analyzer's per-path compiled programs.
_TABLE_SCRATCH_KEY = "box-analyzer"

#: ``table.scratch`` key of the per-distribution-signature cell-grid cache.
_GRID_SCRATCH_KEY = "box-analyzer-grids"

#: How many cell grids one table attachment keeps.  Grids depend only on the
#: distribution signature and the split knobs, and path sets reuse a handful
#: of signatures (e.g. ``(U(0,1),) * depth`` per pedestrian recursion depth),
#: so a small LRU serves whole workloads while bounding memory.
_GRID_CACHE_CAP = 16

#: Cache-miss sentinel (``None`` is a legitimate cached value).
_GRID_MISS = object()


def _table_cell_arrays(table, index: int, distributions, options: AnalysisOptions):
    """The (cached) cell grid of path ``index``.

    The grid depends only on the path's distribution signature (stable dist
    ids — a cache home only the columnar table provides) and the split
    options; within one attachment every path of the same shape — and every
    repeated query — reuses one grid.  The sweep never mutates grid arrays,
    so sharing is safe and bit-neutral.
    """
    cache = table.scratch.get(_GRID_SCRATCH_KEY)
    if cache is None:
        cache = table.scratch.setdefault(_GRID_SCRATCH_KEY, OrderedDict())
    key = (
        tuple(int(dist_id) for dist_id in table.path_dist_ids(index)),
        options.splits_per_dimension,
        options.max_boxes_per_path,
    )
    # The thread backend shares one table (and this cache) across pool
    # threads: read the entry atomically and tolerate losing the LRU
    # bookkeeping races — a concurrent eviction at worst recomputes a grid,
    # never corrupts one (grids are immutable once built).
    entry = cache.get(key, _GRID_MISS)
    if entry is not _GRID_MISS:
        try:
            cache.move_to_end(key)
        except KeyError:  # evicted between get() and move_to_end()
            pass
        return entry
    arrays = _cell_arrays(distributions, options)
    cache[key] = arrays
    while len(cache) > _GRID_CACHE_CAP:
        try:
            cache.popitem(last=False)
        except KeyError:  # another thread already evicted
            break
    return arrays


def _box_program(table, index: int):
    """The compiled sweep program of path ``index`` (memoised per table).

    Compiled once per table attachment and reused by every chunk and every
    query over it: ``(instructions, constraint (position, relation) pairs,
    score positions, result position, distributions)``.  ``None`` marks a
    path the sweep cannot express — callers decode and run the materialised
    route.
    """
    cache = table.scratch.get(_TABLE_SCRATCH_KEY)
    if cache is None:
        cache = table.scratch.setdefault(_TABLE_SCRATCH_KEY, {})
    if index in cache:
        return cache[index]
    expr_ids, rel_ids = table.constraint_ids(index)
    score_ids = table.score_ids(index)
    # Constraint roots first, then scores, then the result: the compiled
    # program is laid out so lazy evaluation short-circuits in exactly the
    # order the sweep consumes the roots.
    roots = [int(expr_id) for expr_id in expr_ids]
    roots.extend(int(score_id) for score_id in score_ids)
    roots.append(table.result_id(index))
    try:
        instrs, positions = compile_table_roots(table, roots)
    except _ScalarFallback:
        cache[index] = None
        return None
    constraint_count = len(expr_ids)
    entry = (
        instrs,
        tuple(
            (position, Relation.ALL[int(rel_id)])
            for position, rel_id in zip(positions[:constraint_count], rel_ids)
        ),
        positions[constraint_count:-1],
        positions[-1],
        table.path_distributions(index),
    )
    cache[index] = entry
    return entry


def analyze_table_boxes(
    table,
    index: int,
    targets: Sequence[Interval],
    options: AnalysisOptions,
) -> list[tuple[float, float]]:
    """Bounds for path ``index`` straight from the table's node/CSR arrays.

    The columnar fast path: the path's expressions are compiled once per
    table attachment into a flat program (:func:`_box_program`); each query
    then builds the cell grid from the (shared) distribution records and
    executes the program lazily over it — no
    :class:`~repro.symbolic.SymbolicPath` is materialised and no expression
    tree is walked.  Paths the sweep cannot express (zero-variable paths,
    anomalies mid-sweep) decode and run the materialised
    :func:`analyze_path_boxes`, so results are bit-identical to the
    materialised route in every case.
    """
    program = _box_program(table, index)
    if program is None or len(program[4]) == 0:
        return analyze_path_boxes(table.decode_path(index), targets, options)
    instrs, constraints, score_positions, result_position, distributions = program
    try:
        arrays = _table_cell_arrays(table, index, distributions, options)
        if arrays is None:
            return [(0.0, 0.0) for _ in targets]
        los, his, _ = arrays
        evaluator = TableProgramEvaluator(
            instrs,
            los.shape[0],
            var_leaf=lambda var_index: (los[:, var_index], his[:, var_index]),
            transcendentals=options.vectorized_transcendentals,
        )
        return _boxes_sweep(
            arrays, constraints, score_positions, result_position, targets, evaluator.eval_to
        )
    except _ScalarFallback:
        # Same escape hatch as the materialised route: decode this one path
        # and let analyze_path_boxes run its (vectorised, then scalar) loop.
        return analyze_path_boxes(table.decode_path(index), targets, options)


def analyze_path_boxes(
    path: SymbolicPath,
    targets: Sequence[Interval],
    options: AnalysisOptions,
) -> list[tuple[float, float]]:
    """Bounds on ``⟦Ψ⟧_lb(U)`` / ``⟦Ψ⟧_ub(U)`` for every target ``U``.

    Returns one ``(lower, upper)`` pair per entry of ``targets``.  The grid
    is evaluated in one vectorised sweep over all cells; paths the sweep
    cannot express fall back to the per-cell loop transparently.
    """
    if path.variable_count > 0:
        try:
            return _analyze_path_boxes_vectorized(path, targets, options)
        except _ScalarFallback:
            # Unsupported expression shapes and per-cell NaN corner cases
            # re-run through the scalar loop; genuine defects (e.g. shape
            # mismatches) propagate instead of silently degrading to it.
            pass
    lower = [0.0] * len(targets)
    upper = [0.0] * len(targets)
    if path.variable_count == 0:
        value = evaluate_interval(path.result, [])
        weight = Interval.point(1.0)
        for score in path.scores:
            weight = weight * evaluate_interval(score, []).meet(_NON_NEGATIVE)
        definite = all(
            constraint.holds_forall(evaluate_interval(constraint.expr, []))
            for constraint in path.constraints
        )
        possible = all(
            constraint.holds_exists(evaluate_interval(constraint.expr, []))
            for constraint in path.constraints
        )
        for index, target in enumerate(targets):
            if possible and value.intersects(target):
                upper[index] += max(0.0, weight.hi)
            if definite and target.contains_interval(value):
                lower[index] += max(0.0, weight.lo)
        return list(zip(lower, upper))

    for cell in _enumerate_cells(path, options):
        if cell.mass <= 0.0:
            continue
        bounds = cell.bounds
        definitely_satisfied = True
        possibly_satisfied = True
        for constraint in path.constraints:
            guard = evaluate_interval(constraint.expr, bounds)
            if not constraint.holds_exists(guard):
                possibly_satisfied = False
                break
            if not constraint.holds_forall(guard):
                definitely_satisfied = False
        if not possibly_satisfied:
            continue
        weight = Interval.point(1.0)
        for score in path.scores:
            score_bounds = evaluate_interval(score, bounds).meet(_NON_NEGATIVE)
            if score_bounds.is_empty:
                score_bounds = Interval.point(0.0)
            weight = weight * score_bounds
        value = evaluate_interval(path.result, bounds)
        for index, target in enumerate(targets):
            if value.intersects(target):
                upper[index] += cell.mass * max(0.0, weight.hi)
            if definitely_satisfied and target.contains_interval(value):
                lower[index] += cell.mass * max(0.0, weight.lo)
    return list(zip(lower, upper))


class BoxPathAnalyzer:
    """Registry adapter for the standard interval trace semantics.

    Box splitting is the universal fallback: it is applicable to every
    symbolic path, so it should come last in an analyzer preference list.
    """

    name = "box"

    def applicable(self, path: SymbolicPath, options: AnalysisOptions) -> bool:
        return True

    def analyze(
        self,
        path: SymbolicPath,
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[tuple[float, float]]:
        return analyze_path_boxes(path, targets, options)

    def analyze_batch(
        self,
        paths: Sequence[SymbolicPath],
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[list[tuple[float, float]]]:
        """Per-path contributions for a whole chunk of paths.

        Used by the parallel chunk workers; each path runs the same
        (vectorised) analysis as :meth:`analyze`, so batch results are
        identical to per-path calls.
        """
        return [analyze_path_boxes(path, targets, options) for path in paths]

    # -- columnar fast path --------------------------------------------
    def applicable_table(self, table, index: int, options: AnalysisOptions) -> bool:
        """Box splitting is universal, from the table as from objects."""
        return True

    def analyze_table(
        self,
        table,
        indices,
        targets: Sequence[Interval],
        options: AnalysisOptions,
    ) -> list[list[tuple[float, float]]]:
        """Per-path contributions straight from a ``PathTable`` slice.

        One result list per index, bit-identical to decoding each path and
        calling :meth:`analyze` (see :func:`analyze_table_boxes`).
        """
        return [analyze_table_boxes(table, index, targets, options) for index in indices]
