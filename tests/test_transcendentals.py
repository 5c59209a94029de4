"""The opt-in vectorised transcendentals (``vectorized_transcendentals``).

NumPy's ``exp``/``log`` may differ from libm's in the last ulp, which is why
the knob is **off by default** (golden pins assume libm).  Pinned here:

* with the knob off, vectorised sweeps keep reproducing the scalar loop's
  floats bit-for-bit (the pre-existing guarantee);
* with the knob on, every cell's bounds agree with the scalar interval
  lifting within a tight relative tolerance, and edge cases (``±inf``,
  non-positive ``log`` arguments, overflow) match exactly;
* end-to-end engine bounds with the knob on stay within the same relative
  tolerance of the scalar reference — sound and only ulp-shifted.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisOptions, Model
from repro.analysis.vectorize import checked_cells
from repro.intervals import Interval, get_primitive
from repro.lang import builder as b
from repro.symbolic import SPrim, SVar

from helpers import force_scalar_sweeps

_REL_TOL = 1e-12

_ENDPOINTS = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def _agree(vectorised: float, scalar: float) -> bool:
    if math.isinf(scalar) or scalar == 0.0:
        return vectorised == scalar
    return math.isclose(vectorised, scalar, rel_tol=_REL_TOL, abs_tol=0.0)


class TestCellwiseTolerance:
    @pytest.mark.parametrize("op", ["exp", "log"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_numpy_matches_scalar_lifting(self, op, data):
        endpoints = sorted(
            data.draw(st.lists(_ENDPOINTS, min_size=2, max_size=2), label="endpoints")
        )
        cell = Interval(endpoints[0], endpoints[1])
        expr = SPrim(op, (SVar(0),))
        lo, hi = checked_cells(
            expr,
            1,
            var_leaf=lambda leaf: (np.array([cell.lo]), np.array([cell.hi])),
            transcendentals=True,
        )
        reference = get_primitive(op).apply_interval(cell)
        assert _agree(float(lo[0]), reference.lo)
        assert _agree(float(hi[0]), reference.hi)

    @pytest.mark.parametrize(
        "op,cell",
        [
            ("exp", Interval(-math.inf, 0.0)),
            ("exp", Interval(0.0, math.inf)),
            ("exp", Interval(700.0, 1000.0)),  # overflow saturates to inf
            ("log", Interval(-2.0, -1.0)),  # non-positive -> -inf
            ("log", Interval(-1.0, 4.0)),
            ("log", Interval(0.0, math.inf)),
        ],
    )
    def test_edge_cases_match_exactly(self, op, cell):
        expr = SPrim(op, (SVar(0),))
        lo, hi = checked_cells(
            expr,
            1,
            var_leaf=lambda leaf: (np.array([cell.lo]), np.array([cell.hi])),
            transcendentals=True,
        )
        reference = get_primitive(op).apply_interval(cell)
        assert float(lo[0]) == reference.lo
        assert float(hi[0]) == reference.hi


def _exp_score_model():
    """Two samples under smooth exp/log scores — exercises both analysers."""
    return b.let(
        "x",
        b.sample(),
        b.let(
            "y",
            b.sample(),
            b.seq(
                b.score(b.exp(b.neg(b.mul(2.0, b.var("x"))))),
                b.seq(
                    b.score(b.log(b.add(1.5, b.var("y")))),
                    b.add(b.var("x"), b.var("y")),
                ),
            ),
        ),
    )


def _scalar_bounds(monkeypatch, targets):
    """Bounds of the exp-score model with every sweep on its scalar loop."""
    force_scalar_sweeps(monkeypatch)
    options = AnalysisOptions(workers=1, executor="serial")
    return Model(_exp_score_model(), options).bounds(targets)


class TestEndToEnd:
    _TARGETS = [Interval(0.0, 1.0), Interval.reals()]

    def test_knob_off_is_bit_identical_to_scalar(self, monkeypatch):
        vectorised = Model(_exp_score_model(), AnalysisOptions()).bounds(self._TARGETS)
        scalar = _scalar_bounds(monkeypatch, self._TARGETS)
        for a, b_ in zip(scalar, vectorised):
            assert a.lower == b_.lower
            assert a.upper == b_.upper

    def test_knob_on_stays_within_tolerance(self, monkeypatch):
        fast = Model(
            _exp_score_model(), AnalysisOptions(vectorized_transcendentals=True)
        ).bounds(self._TARGETS)
        scalar = _scalar_bounds(monkeypatch, self._TARGETS)
        for a, b_ in zip(scalar, fast):
            assert b_.lower == pytest.approx(a.lower, rel=1e-9)
            assert b_.upper == pytest.approx(a.upper, rel=1e-9)

    def test_knob_defaults_off(self):
        assert AnalysisOptions().vectorized_transcendentals is False
