"""Randomized property suites, 200 cases per property."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedframes.frames import (
    BlockFrame,
    CoordinateFrame,
    DiagonalFrame,
    analyze,
    frame_bounds_analytic,
)
from gradedframes.gradings import (
    GradedVector,
    WeightGrading,
    graded_norm,
)
from gradedframes.multilevel import IndexPlan
from gradedframes.reconstruction import (
    SequenceOperator,
    projection_from_V,
    synthesis_from_rule,
)
from gradedframes.reportio import emit_report
from gradedframes.scenarios import ScenarioConfig, run_scenario

CASES = 200
N = 64


def random_vector(rng, n=N, dyadic=False):
    size = int(rng.integers(1, 9))
    idx = np.sort(rng.choice(np.arange(1, n + 1), size=size, replace=False))
    if dyadic:
        vals = rng.integers(-32, 33, size=size) / 16.0
    else:
        vals = rng.normal(size=size)
    return GradedVector(idx, vals + 0j)


def random_frame(rng, n=N):
    b = rng.uniform(0.5, 4.0, size=n)
    if rng.integers(2):
        return DiagonalFrame(b)
    return BlockFrame(b[: n // 2])


# -- 1: graded norms grow with the level ------------------------------------------

def test_norm_monotone_in_level():
    rng = np.random.default_rng(101)
    grading = WeightGrading("power", 6, N)
    for _ in range(CASES):
        v = random_vector(rng)
        s, t = sorted(rng.choice(7, size=2, replace=False))
        assert graded_norm(v, grading, int(s)) <= \
            graded_norm(v, grading, int(t)) * (1 + 1e-12)


# -- 2: prefixes never inflate the norm, the truncation factor is 1 ----------------

def test_truncation_factor_is_one():
    rng = np.random.default_rng(102)
    grading = WeightGrading("power", 4, N)
    samples = [random_vector(rng) for _ in range(CASES)]
    for v in samples:
        cut = int(rng.integers(0, N + 1))
        assert graded_norm(v.prefix(cut), grading, 2) <= \
            graded_norm(v, grading, 2) * (1 + 1e-12)


# -- 3: analysis is linear ----------------------------------------------------------

@settings(max_examples=CASES, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(min_value=1, max_value=32),
                  st.integers(min_value=-64, max_value=64),
                  st.integers(min_value=-64, max_value=64)),
        min_size=1, max_size=6, unique_by=lambda t: t[0]),
    scale=st.integers(min_value=-8, max_value=8),
)
def test_analyze_linear(data, scale):
    idx = [t[0] for t in data]
    f = GradedVector(idx, [t[1] / 8.0 for t in data])
    g = GradedVector(idx, [t[2] / 8.0 for t in data])
    for frame in (DiagonalFrame(np.arange(1, 33).astype(float) ** 2),
                  BlockFrame(np.arange(1, 33).astype(float))):
        lhs = analyze(frame, f * float(scale) + g)
        rhs = analyze(frame, f) * float(scale) + analyze(frame, g)
        assert lhs == rhs


# -- 4: bounds scale with the frame, witnesses do not --------------------------------

def test_scaling_covariance_and_witness_invariance():
    rng = np.random.default_rng(104)
    x = WeightGrading("power", 4, N)
    theta_d = WeightGrading("power", 4, N)
    theta_b = WeightGrading("power", 4, 2 * (N // 2))
    for _ in range(CASES):
        frame = random_frame(rng)
        theta = theta_d if isinstance(frame, DiagonalFrame) else theta_b
        k = int(rng.integers(0, 3))
        hi = k + int(rng.integers(0, 3))
        c = float(rng.uniform(0.25, 8.0))
        base = frame_bounds_analytic(frame, theta, k, x, k, hi)
        scaled = frame_bounds_analytic(CoordinateFrame(frame.reads, c * frame.b),
                                       theta, k, x, k, hi)
        assert scaled.lower == pytest.approx(c * base.lower, rel=1e-12)
        assert scaled.upper == pytest.approx(c * base.upper, rel=1e-12)
        assert scaled.witness_lower == base.witness_lower
        assert scaled.witness_upper == base.witness_upper


# -- 5: projections are idempotent ----------------------------------------------------

def test_projection_idempotent():
    n = N // 2
    frame = BlockFrame(np.where(np.arange(1, n + 1) % 2 == 1, 1.0,
                                (2.0 * np.arange(1, n + 1)) ** 1))
    x = WeightGrading("shifted_power", 3, n, shift=2)
    theta = WeightGrading("power", 3, 2 * n)
    plan = IndexPlan.shifted(2, 1, upper_const=2.0 ** 0.5)
    rules = (
        SequenceOperator.pair_collapse(np.zeros(n), np.ones(n), frame.b_pair),
        SequenceOperator.pair_collapse(np.full(n, 0.5), np.full(n, 0.5),
                                       frame.b_pair),
    )
    rng = np.random.default_rng(105)
    for rule in rules:
        op = synthesis_from_rule(rule, x, theta, plan)
        proj = projection_from_V(frame, op, theta)
        assert proj.idempotence_defect == 0.0
        for _ in range(CASES // 2):
            d = random_vector(rng, n=2 * n)
            once = proj.apply(d)
            assert proj.apply(once) == once


# -- 6: reconstruction rules are left inverses -----------------------------------------

def test_reconstruction_left_inverse():
    rng = np.random.default_rng(106)
    j = np.arange(1, N + 1)
    for r in (1, 2, 3):
        frame = DiagonalFrame(np.where(j % 2 == 1, 1.0, j.astype(float) ** r))
        rule = SequenceOperator.diagonal(np.ones(N), frame.b)
        for _ in range(CASES // 3 + 1):
            f = random_vector(rng, dyadic=bool(rng.integers(2)))
            back = rule.apply(analyze(frame, f))
            assert back.allclose(f, 1e-10)


# -- 7: reports serialize to identical bytes ---------------------------------------------

def test_report_determinism():
    configs = (
        ScenarioConfig("exf1", r=1, truncation=32, levels=3),
        ScenarioConfig("exf2", r=1, truncation=32, levels=3),
        ScenarioConfig("runo"),
        ScenarioConfig("custom", truncation=32, levels=3),
    )
    comparisons = 0
    for cfg in configs:
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        for fmt in ("csv", "json"):
            ref = emit_report(first, fmt)
            assert emit_report(second, fmt) == ref
            comparisons += 1
            for _ in range(24):
                assert emit_report(first, fmt) == ref
                comparisons += 1
    assert comparisons >= CASES
