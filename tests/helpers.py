"""Shared model builders for the test suite.

These used to live in ``tests/conftest.py``, but importing them via
``from conftest import ...`` is fragile: whichever ``conftest.py`` pytest
loads first (``benchmarks/`` or ``tests/``) wins the ``conftest`` slot in
``sys.modules``, so collecting both directories broke the imports.  Test
modules import the builders explicitly from this module instead.
"""

from __future__ import annotations

import random

from repro.lang import builder as b

__all__ = [
    "simple_observe_model",
    "pedestrian_walk_fixpoint",
    "geometric_program",
    "random_spcf_program",
    "force_scalar_sweeps",
]


def simple_observe_model(observed: float = 1.1, std: float = 0.25):
    """``let x = 3 * sample in observe(observed ~ N(x, std)); x`` — analytically tractable."""
    return b.let(
        "x",
        b.mul(3.0, b.sample()),
        b.seq(b.observe_normal(observed, std, b.var("x")), b.var("x")),
    )


def pedestrian_walk_fixpoint():
    """The pedestrian walk fixpoint (paper Example 5.2)."""
    return b.fix(
        "walk",
        "x",
        b.if_leq(
            b.var("x"),
            0.0,
            0.0,
            b.let(
                "step",
                b.sample(),
                b.choice(
                    0.5,
                    b.add(b.var("step"), b.app(b.var("walk"), b.add(b.var("x"), b.var("step")))),
                    b.add(b.var("step"), b.app(b.var("walk"), b.sub(b.var("x"), b.var("step")))),
                ),
            ),
        ),
    )


def geometric_program(p_stop: float = 0.5):
    """A geometric counter via recursion: rounds until a coin comes up heads."""
    loop = b.fix(
        "loop",
        "count",
        b.choice(p_stop, b.var("count"), b.app(b.var("loop"), b.add(b.var("count"), 1.0))),
    )
    return b.app(loop, 0.0)


def random_spcf_program(
    seed: int,
    *,
    max_samples: int = 3,
    max_observes: int = 2,
    max_branches: int = 1,
    allow_recursion: bool = True,
):
    """A small random SPCF term, deterministic in ``seed`` — the fuzz vehicle.

    The generated programs cover the feature axes the differential tests
    care about while staying cheap to analyse:

    * 1–``max_samples`` uniform draws (the path's box dimensions);
    * up to ``max_observes`` score atoms — ``observe normal`` / ``observe
      uniform`` over random (often non-linear) expressions of the bound
      variables, so some programs stay linear-analysable and others force
      the box fallback;
    * up to ``max_branches`` data-dependent ``if`` branches (path splits);
    * optionally a recursive geometric counter folded into the result, so
      the symbolic execution's depth limit produces *truncated* paths.

    Expressions only combine bound variables and constants, so every seed
    yields a closed, well-typed term.
    """
    rng = random.Random(seed)
    names: list[str] = []
    #: ("let", name, value_term) bindings and ("observe", score_term)
    #: effects, in program order; folded into nested lets at the end.
    bindings: list[tuple] = []

    def atom():
        if names and rng.random() < 0.7:
            return b.var(rng.choice(names))
        return b.const(round(rng.uniform(0.1, 1.5), 3))

    def expr(depth: int):
        if depth <= 0 or rng.random() < 0.3:
            return atom()
        op = rng.choice(("add", "sub", "mul"))
        left, right = expr(depth - 1), expr(depth - 1)
        if op == "add":
            return b.add(left, right)
        if op == "sub":
            return b.sub(left, right)
        return b.mul(left, right)

    for index in range(rng.randint(1, max_samples)):
        name = f"x{index}"
        bindings.append(("let", name, b.sample()))
        names.append(name)

    for index in range(rng.randint(0, max_observes)):
        if rng.random() < 0.5:
            atom_term = b.observe_normal(
                round(rng.uniform(0.0, 1.5), 3),
                round(rng.uniform(0.2, 0.6), 3),
                expr(2),
            )
        else:
            # Wide support so the density never vanishes everywhere.
            atom_term = b.observe_uniform(-4.0, 4.0, expr(2))
        bindings.append(("observe", atom_term))

    for index in range(rng.randint(0, max_branches)):
        name = f"br{index}"
        bindings.append(
            ("let", name,
             b.if_leq(expr(1), round(rng.uniform(0.2, 0.8), 3), expr(1), expr(1))),
        )
        names.append(name)

    if allow_recursion and rng.random() < 0.4:
        bindings.append(("let", "rec", geometric_program(round(rng.uniform(0.4, 0.7), 2))))
        names.append("rec")

    result = b.var(names[0])
    for name in names[1:]:
        scale = 0.05 if name == "rec" else 1.0
        result = b.add(result, b.mul(scale, b.var(name)))

    body = result
    for entry in reversed(bindings):
        if entry[0] == "let":
            _, name, value = entry
            body = b.let(name, value, body)
        else:
            body = b.seq(entry[1], body)
    return body


def force_scalar_sweeps(monkeypatch) -> None:
    """Send every box grid and score-weight sweep down its scalar loop.

    The vectorised sweeps are performance paths with a scalar escape hatch
    for expressions they cannot lift: the box analyser's per-cell loop and
    the linear analyser's per-combination weights.  Patching the sweeps to
    report "unsupported" makes every path take that hatch — the reference
    the sweeps must reproduce bit for bit.  Only in-process analyses see
    the patch, so callers pin a serial executor.
    """
    from repro.analysis import box_analyzer, linear_analyzer
    from repro.analysis.vectorize import ScalarFallback

    def unsupported(*args, **kwargs):
        raise ScalarFallback

    monkeypatch.setattr(box_analyzer, "_box_program", lambda table, index: None)
    monkeypatch.setattr(box_analyzer, "_analyze_path_boxes_vectorized", unsupported)
    monkeypatch.setattr(linear_analyzer, "_vectorized_factors", lambda *args, **kwargs: None)
