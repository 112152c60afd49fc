"""Named demonstration runs producing tabular report rows.

Each scenario assembles a frame system, verifies its two-sided plan, computes
optimal per-level bounds with witnesses, classifies strictness, exercises the
reconstruction round trip, and emits rows suitable for delimited output.
Rows carry both the plan constants and the recomputed optimal ones, plus the
residual profile of a fixed dyadic probe so reports are reproducible byte for
byte at any truncation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .frames import (
    BlockFrame,
    DenseFrame,
    DiagonalFrame,
    analysis_norm,
    analyze,
    frame_bounds_numeric,
    runo_demo,
)
from .gradings import GradedVector, WeightGrading, graded_norm
from .multilevel import IndexPlan, classify_strictness, verify_pre_f_frame
from .reconstruction import (
    SequenceOperator,
    ProjectionOp,
    V_from_projection,
    synthesis_from_rule,
    verify_equivalences,
    verify_expansion,
)

SCENARIOS = ("exf1", "exf2", "runo", "custom")
SQRT2 = math.sqrt(2.0)
ROW_KINDS = ("level", "chain", "witness", "verdict")


def fmt_sig(x: float) -> str:
    """Float with 12 significant digits, as every report writes it."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class ScenarioConfig:
    """Run parameters shared by all scenarios."""

    scenario: str
    r: int = 2
    truncation: int = 4096
    levels: int = 8
    n_max: int = 32
    p: float = 1.5
    q: float = 3.0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError("unknown scenario %r, expected one of %s"
                             % (self.scenario, ", ".join(SCENARIOS)))
        # integral values are stored as int; any other is refused by name,
        # not truncated
        for name in (key for key, kind in PARAMS.items() if kind is int):
            value = getattr(self, name)
            if int(value) != value:
                raise ValueError("%s must be an integer, got %r" % (name, value))
            object.__setattr__(self, name, int(value))
        if self.truncation < 16:
            raise ValueError("truncation must be at least 16")
        if self.levels < 2:
            raise ValueError("at least 2 levels are required")
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        if not 1.0 < float(self.p) < 2.0 < float(self.q) < math.inf:
            raise ValueError("exponents must satisfy 1 < p < 2 < q")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        # hashed once here, since every report row carries the digest
        pairs = sorted(self.key_values(), key=lambda kv: kv.partition("=")[0])
        object.__setattr__(self, "_digest", hashlib.sha256(
            ";".join(pairs).encode("ascii")).hexdigest())

    def as_dict(self) -> dict:
        return asdict(self)

    def key_values(self) -> list:
        """`key=value` of every field in field order, floats written as every
        report writes them."""
        return ["%s=%s" % (key, fmt_sig(value) if isinstance(value, float) else value)
                for key, value in self.as_dict().items()]

    def digest(self) -> str:
        return self._digest


# every run parameter but the scenario name, with the type of its default
PARAMS = {f.name: type(f.default) for f in fields(ScenarioConfig)
          if f.default is not MISSING}


@dataclass(frozen=True)
class ReportRow:
    """One output record; unused fields stay at their empty defaults."""

    scenario: str
    kind: str
    label: str
    level: Optional[int] = None
    lower_level: Optional[int] = None
    upper_level: Optional[int] = None
    plan_lower: Optional[float] = None
    plan_upper: Optional[float] = None
    optimal_lower: Optional[float] = None
    optimal_upper: Optional[float] = None
    witness_lower: str = ""
    witness_upper: str = ""
    verdict: str = ""
    detail: str = ""
    residuals: str = ""
    config_hash: str = ""

    def __post_init__(self):
        if self.kind not in ROW_KINDS:
            raise ValueError("unknown row kind %r" % (self.kind,))


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    passed: bool
    rows: tuple
    notes: tuple = field(default=())


def _witness_str(w) -> str:
    if isinstance(w, (int, np.integer)):
        return str(int(w))
    return "|".join("%d:%s" % (int(j), fmt_sig(v.real))
                    for j, v in zip(w.indices, w.values))


def _dyadic_probe() -> GradedVector:
    return GradedVector.from_pairs({1: 1.0, 2: 0.5, 3: -0.25, 5: 2.0})


def _plan_samples(n: int) -> list:
    out = [GradedVector.canonical(i) for i in range(1, min(n, 6) + 1)]
    out.append(_dyadic_probe())
    out.append(GradedVector.from_pairs({2: 1.5, 4: -0.5, min(n, 11): 0.125}))
    return out


def _row(cfg: ScenarioConfig, kind: str, label: str, **fields) -> ReportRow:
    return ReportRow(scenario=cfg.scenario, kind=kind, label=label,
                     config_hash=cfg.digest(), **fields)


def _strict_row(cfg: ScenarioConfig, label: str, verdict) -> ReportRow:
    if verdict.verdict == "Strict":
        levels = ",".join(str(c.admissible_level) for c in verdict.certificates)
        detail = "admissible levels %s" % levels
    elif verdict.verdict == "NotStrict":
        detail = ("no admissible level for mid level %d among candidates 0..%d"
                  % (verdict.witnesses[0].level, verdict.n_max))
    else:
        detail = verdict.detail
    return _row(cfg, "verdict", label, verdict=verdict.verdict, detail=detail)


def _level_row(cfg, label, plan, k, bounds, passed, expansion) -> ReportRow:
    lower, upper, witness_lower, witness_upper = bounds   # the optimal ones
    return _row(
        cfg, "level", label, level=k, lower_level=plan.lower_levels[k],
        upper_level=plan.upper_levels[k],
        plan_lower=plan.lower_consts[k], plan_upper=plan.upper_consts[k],
        optimal_lower=lower, optimal_upper=upper,
        witness_lower=_witness_str(witness_lower),
        witness_upper=_witness_str(witness_upper),
        verdict="pass" if passed else "fail",
        residuals=";".join(fmt_sig(v) for v in expansion.row(0, k).profile))


def _graded_case(cfg, label, frame, x, theta, plan, rule, rows):
    """Check `plan` on the plan samples, build the synthesis operator of
    `rule`, expand the dyadic probe and classify strictness; append one level
    row per plan level, with the optimal constants the plan check took.
    Returns (synthesis operator, plan and expansion passed, strictness
    verdict); the caller places the verdict row."""
    plan_report = verify_pre_f_frame(frame, x, theta, plan,
                                     _plan_samples(cfg.truncation))
    op = synthesis_from_rule(rule, x, theta, plan)
    expansion = verify_expansion(frame, op, x, theta, plan, [_dyadic_probe()])
    strict = classify_strictness(frame, x, theta, cfg.n_max)
    for c in plan_report.levels:
        bounds = (c.optimal_lower, c.optimal_upper, c.witness_lower,
                  c.witness_upper)
        rows.append(_level_row(cfg, label, plan, c.level, bounds,
                               plan_report.passed, expansion))
    return op, plan_report.passed and expansion.passed, strict


# ---------------------------------------------------------------------------
# exf1: alternating diagonal weights


def run_exf1(cfg: ScenarioConfig) -> ScenarioResult:
    n, budget, r = cfg.truncation, cfg.levels - 1, cfg.r
    j = np.arange(1, n + 1)
    # weights that overflow come out infinite, and the frame refuses them
    with np.errstate(over="ignore"):
        powers = j.astype(float) ** r
    frame = DiagonalFrame(np.where(j % 2 == 1, 1.0, powers))
    variant = DiagonalFrame(powers)
    x = WeightGrading("power", max(budget + r, cfg.n_max), n)
    theta = WeightGrading("power", budget, n)
    plan = IndexPlan.shifted(budget, r)

    rows = []
    op, case_ok, strict_base = _graded_case(
        cfg, "base", frame, x, theta, plan,
        SequenceOperator.diagonal(np.ones(n), frame.b), rows)
    equiv = verify_equivalences(frame, op, x, theta, plan)
    strict_variant = classify_strictness(variant, x, theta, cfg.n_max)
    rows.append(_strict_row(cfg, "base", strict_base))
    rows.append(_strict_row(cfg, "variant", strict_variant))

    passed = (case_ok and equiv.passed
              and strict_base.verdict == "NotStrict"
              and strict_variant.verdict == "Strict")
    return ScenarioResult(cfg, passed, tuple(rows), tuple(equiv.notes))


# ---------------------------------------------------------------------------
# exf2: paired functionals over doubled-index weights


def run_exf2(cfg: ScenarioConfig) -> ScenarioResult:
    n, budget, r = cfg.truncation, cfg.levels - 1, cfg.r
    j = np.arange(1, n + 1)
    with np.errstate(over="ignore"):
        powers = (2.0 * j) ** r
    frame = BlockFrame(np.where(j % 2 == 1, 1.0, powers))
    x = WeightGrading("shifted_power", max(budget + r, cfg.n_max), n, shift=2)
    theta = WeightGrading("power", budget, 2 * n)
    plan = IndexPlan.shifted(budget, r, upper_const=SQRT2)

    rows = []
    rule = SequenceOperator.pair_collapse(np.zeros(n), np.ones(n), frame.b_pair)
    op, case_ok, strict = _graded_case(cfg, "base", frame, x, theta, plan,
                                       rule, rows)
    equiv = verify_equivalences(frame, op, x, theta, plan)
    proj = equiv.projection
    coefficients = (analyze(frame, f) for f in _plan_samples(n)[:6])
    range_ok = all(proj.apply(d) == d for d in coefficients)
    continuity_ok = all(c <= SQRT2 * (1 + 1e-12) for c in proj.continuity)

    e1 = GradedVector.canonical(1)
    chain = (plan.lower_consts[0] * graded_norm(e1, x, 0),
             analysis_norm(frame, e1, theta, 0),
             plan.upper_consts[0] * graded_norm(e1, x, r))
    rows.append(_row(
        cfg, "chain", "e1", level=0, lower_level=0, upper_level=r,
        verdict="pass" if chain[0] <= chain[1] <= chain[2] else "fail",
        detail="plan lower;mid norm;plan upper",
        residuals=";".join(fmt_sig(v) for v in chain)))
    rows.append(_strict_row(cfg, "base", strict))
    roundtrip_ok = (equiv.passed and proj.idempotence_defect == 0.0
                    and range_ok and continuity_ok)
    rows.append(_row(
        cfg, "verdict", "roundtrip",
        verdict="pass" if roundtrip_ok else "fail",
        detail="projection defect %s, continuity cap %s"
               % (fmt_sig(proj.idempotence_defect),
                  fmt_sig(max(proj.continuity)))))

    passed = case_ok and roundtrip_ok and strict.verdict == "NotStrict"
    return ScenarioResult(cfg, passed, tuple(rows), tuple(equiv.notes))


# ---------------------------------------------------------------------------
# runo: norm chain with a non-closedness witness family


def run_runo(cfg: ScenarioConfig) -> ScenarioResult:
    samples = (GradedVector.from_pairs({1: 1.0, 2: 1.0}),
               GradedVector.canonical(1))
    labels = ("ones2", "e1")
    rep = runo_demo(cfg.p, cfg.q, samples)
    rows = []
    for (i, nq, n2, np_, ok), label in zip(rep.chain_rows, labels):
        rows.append(_row(
            cfg, "chain", label, level=i,
            verdict="pass" if ok else "fail",
            detail="q norm;2 norm;p norm",
            residuals=";".join(fmt_sig(v) for v in (nq, n2, np_))))
    for n, l2, lp in rep.witness_rows:
        rows.append(_row(
            cfg, "witness", "prefix", level=n, detail="2 norm;p norm",
            residuals="%s;%s" % (fmt_sig(l2), fmt_sig(lp))))
    flags_ok = rep.p_sum_diverges and rep.l2_sum_converges
    rows.append(_row(
        cfg, "verdict", "witness",
        verdict="pass" if (rep.passed and flags_ok) else "fail",
        detail="exponent %s, bounded in 2 norm, strictly growing in p norm"
               % fmt_sig(rep.witness_exponent)))
    return ScenarioResult(cfg, rep.passed and flags_ok, tuple(rows))


# ---------------------------------------------------------------------------
# custom: identity, cubic diagonal and a small dense solve


def run_custom(cfg: ScenarioConfig) -> ScenarioResult:
    n, budget = cfg.truncation, cfg.levels - 1
    j = np.arange(1, n + 1).astype(float)
    theta = WeightGrading("power", budget, n)
    rows = []
    passed = True
    for label, b, shift in (("identity", np.ones(n), 0), ("cube", j ** 3, 3)):
        frame = DiagonalFrame(b)
        x = WeightGrading("power", max(budget + shift, cfg.n_max), n)
        _, case_ok, strict = _graded_case(
            cfg, label, frame, x, theta, IndexPlan.shifted(budget, shift),
            SequenceOperator.diagonal(np.ones(n), frame.b), rows)
        rows.append(_strict_row(cfg, label, strict))
        passed = passed and case_ok and strict.verdict == "Strict"

    frame = DenseFrame(np.array([[1.0, 1.0], [0.0, 1.0]]))
    x = theta = WeightGrading("power", 1, 2)
    fb = frame_bounds_numeric(frame, theta, 0, x, 0, 0)
    plan = IndexPlan((0,), (0,), (fb.lower,), (fb.upper,))
    proj = ProjectionOp(SequenceOperator.identity(2), (1.0,), 0.0)
    op = V_from_projection(frame, proj, x, theta, plan)
    expansion = verify_expansion(frame, op, x, theta, plan,
                                 [GradedVector.canonical(1)])
    equiv = verify_equivalences(frame, op, x, theta, plan)
    bounds = (fb.lower, fb.upper, fb.witness_lower, fb.witness_upper)
    rows.append(_level_row(cfg, "golden", plan, 0, bounds, expansion.passed,
                           expansion))
    golden_ok = expansion.passed and equiv.passed
    rows.append(_row(
        cfg, "verdict", "golden", verdict="pass" if golden_ok else "fail",
        detail="dense solve round trip, synthesis bound %s"
               % fmt_sig(op.bounds.consts[0])))
    passed = passed and golden_ok
    return ScenarioResult(cfg, passed, tuple(rows), tuple(equiv.notes))


RUNNERS = {
    "exf1": run_exf1,
    "exf2": run_exf2,
    "runo": run_runo,
    "custom": run_custom,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    return RUNNERS[cfg.scenario](cfg)
