"""Inputs, op lists and correctness checks of the three benchmark workloads.

Every workload is built from its seed alone (`scenarios` ignores it) and
returns a `Workload`: a list of timed ops, a list of untimed check ops that
run once per pass, and the coordinate count one pass covers.  An op's check
returns None when its output is correct, or the name of the check it failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from gradedframes import (
    BlockFrame,
    DiagonalFrame,
    GradedVector,
    IndexPlan,
    ContinuityData,
    SequenceOperator,
    WeightGrading,
    cli,
    frames,
    gradings,
    multilevel,
    reconstruction,
    reportio,
)

SQRT2 = math.sqrt(2.0)
# plan budget: levels 0..7, the scenarios' default of 8 report levels
BUDGET = 7
N_MAX = 32
TRUNCATIONS = (1024, 4096)
# a plan passes only when every optimal-bound slack is at least -REL_SLACK
# times the plan constant; the same tolerance the program applies to samples
REL_SLACK = 1e-12
NORM_RTOL = 1e-12
BOUND_RTOL = 1e-9
NUMERIC_TRUNCATION = 256

# (shape, truncation) of the 16 `levels` frames.  The fixed mix keeps a
# pass's work the same for every seed, and puts the op p50 and p90 inside a
# cluster of like ops (middle-cost ops and diagonal plans) rather than on
# the edge between two clusters.
LEVEL_LAYOUT = (("diag", 1024), ("diag", 4096)) * 5 \
    + (("block", 1024), ("block", 4096)) * 3
LEVEL_FRAMES = len(LEVEL_LAYOUT)
NORM_SAMPLES = 256
# every SCALED_EVERY-th norm sample is scaled by 2^-540
SCALED_EVERY = 16
PLAN_SAMPLES = 64
# plan samples live on coordinates 1..PLAN_SUPPORT and spikes beyond it, so a
# spike can only be found through the computed optimal bounds
PLAN_SUPPORT = 48
# block exponent pairs (odd, even) whose analytic bounds stay ordered; the
# other nine pairs make FrameBounds raise (see ABORT_CASES)
BLOCK_PAIRS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0))
# fixed block frames that raise in FrameBounds at every level; run untimed
ABORT_CASES = (("plan", 2, 2, 256), ("plan", 1, 3, 1024),
               ("bounds", 3, 1, 256), ("bounds", 2, 1, 1024))

# (shape, truncation, weights) of the 16 `expansion` frames; 4 diagonal and
# 12 block frames put the op p50 among block expansions and the p90 among
# block dual expansions
EXPANSION_LAYOUT = tuple((shape, n, w) for shape, reps in (("diag", 1),
                                                           ("block", 3))
                         for _ in range(reps) for n in TRUNCATIONS
                         for w in ("dyadic", "integer"))
EXPANSION_SUPPORT = 64

SCENARIO_TRUNCATION = 4096
SCENARIO_RUNS = (("exf1", "csv"), ("exf2", "csv"), ("custom", "csv"),
                 ("runo", "csv"), ("runo", "json"), ("custom", "json"))
REFERENCE = Path(__file__).resolve().parent / "reference" / "scenarios.json"


@dataclass
class Op:
    """One timed call into the program with the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # output digest compared against the checked pass when checks run once
    summary: Callable[[object], object] = repr


@dataclass
class Workload:
    ops: list
    untimed: list = field(default_factory=list)
    coordinates: int = 1
    # True: checks run on an untimed first pass, timed passes compare summaries
    check_once: bool = False
    before_op: Callable[[], None] = lambda: None


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _relerr(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref) if ref else abs(got)


# ---------------------------------------------------------------------------
# frames shared by `levels` and `expansion`


@dataclass
class FrameCase:
    """A frame with its X and Θ gradings; block frames pair with shift-2 X."""

    shape: str            # "diag" or "block"
    n: int
    r_odd: int
    r_even: int
    spike: int = 0        # coordinate scaled by 10, 0 for none
    weights: str = "parity"

    def __post_init__(self):
        j = np.arange(1, self.n + 1)
        # block weights use the shifted base 2j, the form exf2's even class
        # has, so they stay comparable with the shift-2 X weights
        base = (j if self.shape == "diag" else 2 * j).astype(float)
        if self.weights == "parity":
            b = np.where(j % 2 == 1, base ** self.r_odd, base ** self.r_even)
        elif self.weights == "dyadic":
            b = 2.0 ** (self.r_odd * np.floor(np.log2(j)))
        else:
            b = j.astype(float) ** self.r_odd
        if self.spike:
            b[self.spike - 1] *= 10.0
        r_max = max(self.r_odd, self.r_even)
        x_levels = max(BUDGET + r_max, N_MAX)
        if self.shape == "diag":
            self.frame = DiagonalFrame(b)
            self.x = WeightGrading("power", x_levels, self.n)
            self.theta = WeightGrading("power", BUDGET, self.n)
            self.plan = IndexPlan.shifted(BUDGET, r_max)
        else:
            self.frame = BlockFrame(b)
            self.x = WeightGrading("shifted_power", x_levels, self.n, shift=2)
            self.theta = WeightGrading("power", BUDGET, 2 * self.n)
            self.plan = IndexPlan.shifted(BUDGET, r_max, upper_const=SQRT2)

    @property
    def r_max(self) -> int:
        return max(self.r_odd, self.r_even)

    def truncated(self, m: int) -> "FrameCase":
        spike = self.spike if self.spike <= m else 0
        return FrameCase(self.shape, m, self.r_odd, self.r_even, spike,
                         self.weights)


def _dyadic_sample(rng, support: int, count: int,
                   reach: bool = False) -> GradedVector:
    """count dyadic entries on coordinates 1..support; with reach=True one of
    them sits at `support`, so every sample spans the same grid."""
    idx = rng.choice(np.arange(1, support + 1 - reach), size=count - reach,
                     replace=False)
    if reach:
        idx = np.append(idx, support)
    vals = rng.choice(np.r_[-16:0, 1:17], size=count) / 8.0
    return GradedVector(idx, vals)


def _bounds_at(case: FrameCase, k: int, lower: int, upper: int):
    return frames.frame_bounds_analytic(case.frame, case.theta, k, case.x,
                                        lower, upper)


def _slacks_ok(pairs) -> bool:
    """pairs: (slack, plan constant); True when no slack is below tolerance."""
    return all(s >= -REL_SLACK * max(1.0, abs(c)) for s, c in pairs
               if s is not None)


# ---------------------------------------------------------------------------
# levels: plan, strictness, analytic bounds, selection and norms


def generate_levels(seed: int):
    """Seeded frame cases and per-frame inputs of the `levels` workload."""
    rng = _rng(seed, 1)
    spiked = set(int(i) for i in rng.choice(LEVEL_FRAMES, LEVEL_FRAMES // 8,
                                            replace=False))
    cases = []
    for i, (shape, n) in enumerate(LEVEL_LAYOUT):
        if shape == "diag":
            r_odd, r_even = (int(v) for v in rng.integers(0, 4, size=2))
        else:
            r_odd, r_even = BLOCK_PAIRS[int(rng.integers(len(BLOCK_PAIRS)))]
        spike = 0
        if i in spiked:
            # a coordinate of the class with the larger exponent, clear of the
            # plan samples and of the tail points strictness certifies on
            parity = 1 if r_odd >= r_even else 0
            spike = int(rng.integers(PLAN_SUPPORT + 17, n // 4 - 1))
            if spike % 2 != parity:
                spike += 1
        case = FrameCase(shape, n, r_odd, r_even, spike)
        samples = [_dyadic_sample(rng, PLAN_SUPPORT, int(rng.integers(1, 5)))
                   for _ in range(PLAN_SAMPLES)]
        continuity = ContinuityData(
            tuple(int(p) for p in rng.integers(0, BUDGET + 1, size=BUDGET + 1)),
            (1.0,) * (BUDGET + 1))
        norm_samples = []
        for s in range(NORM_SAMPLES):
            count = int(rng.integers(1, 17))
            idx = rng.choice(np.arange(1, n + 1), size=count, replace=False)
            vals = rng.standard_normal(count)
            if _is_scaled(s):
                vals = np.ldexp(vals, -540)
            norm_samples.append(GradedVector(idx, vals))
        norm_args = (int(rng.integers(0, BUDGET + 1)),     # graded level
                     int(rng.integers(0, BUDGET + 1)),     # dual level
                     float(rng.choice((1.25, 1.5, 1.75))),  # p
                     float(rng.choice((2.5, 3.0, 4.0))))    # q
        cases.append((case, samples, continuity, norm_samples, norm_args))
    return cases


def _is_scaled(pos: int) -> bool:
    return pos % SCALED_EVERY == SCALED_EVERY - 1


def _mp_norms(v: GradedVector, case: FrameCase, args) -> tuple:
    import mpmath
    graded_level, dual_level, p, q = args
    with mpmath.workdps(50):
        scale = 2 if case.x.kind == "shifted_power" else 1
        vals = [abs(mpmath.mpc(z.real, z.imag)) for z in v.values]
        ws = [mpmath.mpf(scale * int(j)) for j in v.indices]
        graded = mpmath.sqrt(mpmath.fsum((a * w ** graded_level) ** 2
                                         for a, w in zip(vals, ws)))
        dual = mpmath.sqrt(mpmath.fsum((a / w ** dual_level) ** 2
                                       for a, w in zip(vals, ws)))
        lp = mpmath.fsum(a ** p for a in vals) ** (1 / mpmath.mpf(p))
        lq = mpmath.fsum(a ** q for a in vals) ** (1 / mpmath.mpf(q))
        return tuple(float(x) for x in (graded, dual, lp, lq))


def _norm_batch(case, samples, args):
    graded_level, dual_level, p, q = args
    dual = case.x.dual()
    return tuple((gradings.graded_norm(v, case.x, graded_level),
                  gradings.dual_norm(v, dual, dual_level),
                  gradings.lp_norm(v, p), gradings.lp_norm(v, q))
                 for v in samples)


def check_norms(case, samples, args, got) -> Optional[str]:
    """Every norm within NORM_RTOL of a 50-digit mpmath value.  Misses on
    2^-540-scaled samples only are the known underflow defect."""
    missed = set()
    for pos, (v, row) in enumerate(zip(samples, got)):
        ref = _mp_norms(v, case, args)
        if any(_relerr(g, r) > NORM_RTOL for g, r in zip(row, ref)):
            missed.add(_is_scaled(pos))
    if not missed:
        return None
    return "norm_underflow" if missed == {True} else "norm_accuracy"


def _verdict_check(passed: bool, slacks_ok: bool, what: str) -> Optional[str]:
    if passed == slacks_ok:
        return None
    return "%s_false_pass" % what if passed else "%s_false_fail" % what


def check_plan(case, report) -> Optional[str]:
    """`passed` holds exactly when no computed slack is negative."""
    pairs = []
    for c in report.levels:
        pairs.append((c.slack_lower, c.plan_lower))
        pairs.append((c.slack_upper, c.plan_upper))
    return _verdict_check(report.passed, _slacks_ok(pairs), "plan")


def _ratio_extremes(case: FrameCase, theta_level: int, lower_level: int,
                    upper_level: int) -> tuple:
    """Smallest lower-side and largest upper-side coordinate ratio, computed
    without FrameBounds, which refuses lower > upper."""
    j = np.arange(1, case.n + 1)
    if case.shape == "diag":
        size = case.frame.b * case.theta.weight_values(theta_level, j)
    else:
        size = case.frame.b_pair * np.hypot(
            case.theta.weight_values(theta_level, 2 * j - 1),
            case.theta.weight_values(theta_level, 2 * j))
    return (float(np.min(size / case.x.weight_values(lower_level, j))),
            float(np.max(size / case.x.weight_values(upper_level, j))))


def check_chain(case, selection, report) -> Optional[str]:
    """`passed` holds exactly when every selected entry's constants hold
    against the optimal ones."""
    pairs = []
    for s, n, t, a, b in zip(selection.lower_levels, selection.mid_levels,
                             selection.upper_levels, selection.lower_consts,
                             selection.upper_consts):
        lo, hi = _ratio_extremes(case, n, s, t)
        pairs.append((lo - a, a))
        pairs.append((b - hi, b))
    return _verdict_check(report.passed, _slacks_ok(pairs), "chain")


def check_strictness(case, verdict) -> Optional[str]:
    strict = verdict.verdict == "Strict"
    return None if strict == (case.r_odd == case.r_even) else "strictness"


def check_bounds_numeric(case, level: int) -> Optional[str]:
    """Analytic against numeric bounds on the frame cut to 256 coordinates."""
    small = case.truncated(NUMERIC_TRUNCATION)
    lo, hi = level, level + small.r_max
    ana = _bounds_at(small, level, lo, hi)
    num = frames.frame_bounds_numeric(small.frame, small.theta, level, small.x,
                                      lo, hi)
    if (_relerr(num.lower, ana.lower) > BOUND_RTOL
            or _relerr(num.upper, ana.upper) > BOUND_RTOL):
        return "bounds_numeric"
    return None


def _bounds_summary(bounds) -> tuple:
    return tuple((b.lower, b.upper, b.witness_lower, b.witness_upper)
                 for b in bounds)


def _plan_summary(report) -> tuple:
    return (report.passed, report.first_violation,
            tuple((c.optimal_lower, c.optimal_upper) for c in report.levels))


def _levels_ops(index, case, samples, continuity, norm_samples, norm_args):
    frame, x, theta, plan = case.frame, case.x, case.theta, case.plan

    def plan_op():
        return multilevel.verify_pre_f_frame(frame, x, theta, plan, samples)

    def strict_op():
        return multilevel.classify_strictness(frame, x, theta, n_max=N_MAX)

    def bounds_op():
        return [_bounds_at(case, k, k, k + case.r_max)
                for k in range(BUDGET + 1)]

    def chain_op():
        sel = multilevel.select_subsequence(plan, continuity)
        return sel, multilevel.verify_selected_chain(frame, x, theta, sel,
                                                     samples)

    def norms_op():
        return _norm_batch(case, norm_samples, norm_args)

    level = index % (BUDGET + 1)
    return [
        Op("levels.plan", plan_op, lambda r: check_plan(case, r),
           _plan_summary),
        Op("levels.strictness", strict_op, lambda r: check_strictness(case, r),
           lambda r: (r.verdict, r.detail, len(r.certificates),
                      len(r.witnesses))),
        Op("levels.bounds", bounds_op,
           lambda r: check_bounds_numeric(case, level), _bounds_summary),
        Op("levels.chain", chain_op, lambda r: check_chain(case, *r),
           lambda r: (r[0].chosen_indices, r[0].mid_levels, r[1].passed,
                      r[1].first_violation)),
        Op("levels.norms", norms_op,
           lambda r: check_norms(case, norm_samples, norm_args, r)),
    ]


def _abort_op(kind, r_odd, r_even, n) -> Op:
    """Untimed op on a block frame whose analytic bounds come out reversed."""
    case = FrameCase("block", n, r_odd, r_even)
    rng = _rng(0, 9)
    samples = [_dyadic_sample(rng, PLAN_SUPPORT, 2) for _ in range(8)]
    if kind == "plan":
        return Op("levels.abort.plan",
                  lambda: multilevel.verify_pre_f_frame(
                      case.frame, case.x, case.theta, case.plan, samples),
                  lambda r: check_plan(case, r))
    return Op("levels.abort.bounds",
              lambda: [_bounds_at(case, k, k, k + case.r_max)
                       for k in range(BUDGET + 1)],
              lambda r: None)


def levels(seed: int, workdir: Path) -> Workload:
    ops = []
    coords = 0
    for i, args in enumerate(generate_levels(seed)):
        ops.extend(_levels_ops(i, *args))
        coords += args[0].n
    untimed = [_abort_op(*c) for c in ABORT_CASES]
    return Workload(ops, untimed, coords, check_once=True)


# ---------------------------------------------------------------------------
# expansion: per-sample reconstruction and dual expansion


def generate_expansion(seed: int):
    """Seeded frame cases with one expansion and one dual sample each."""
    rng = _rng(seed, 2)
    out = []
    for shape, n, weights in EXPANSION_LAYOUT:
        r = int(rng.integers(1, 4))
        case = FrameCase(shape, n, r, r, weights=weights)
        f = _dyadic_sample(rng, EXPANSION_SUPPORT, 6, reach=True)
        g = _dyadic_sample(rng, EXPANSION_SUPPORT, 6, reach=True)
        out.append((case, f, g))
    return out


def _rule(case: FrameCase):
    if case.shape == "diag":
        return SequenceOperator.diagonal(np.ones(case.n), case.frame.b)
    return SequenceOperator.pair_collapse(np.zeros(case.n), np.ones(case.n),
                                          case.frame.b_pair)


def expansion(seed: int, workdir: Path) -> Workload:
    ops = []
    coords = 0
    for case, f, g in generate_expansion(seed):
        op = reconstruction.synthesis_from_rule(_rule(case), case.x, case.theta,
                                                case.plan)
        coords += case.n

        def primal(case=case, op=op, f=f):
            return reconstruction.verify_expansion(
                case.frame, op, case.x, case.theta, case.plan, [f])

        def dual(case=case, op=op, g=g):
            return reconstruction.verify_dual_expansion(
                case.frame, op, case.x, case.theta, case.plan, [g])

        ops.append(Op("expansion.primal", primal,
                      lambda r: None if r.passed else "expansion"))
        # exact zeros are promised for dyadic weights only
        dual_fail = "dual_expansion" if case.weights == "dyadic" \
            else "dual_expansion_nondyadic"
        ops.append(Op("expansion.dual", dual,
                      lambda r, fail=dual_fail: None if r.passed else fail))
    return Workload(ops, coordinates=coords)


# ---------------------------------------------------------------------------
# scenarios: the CLI at the target truncation


def report_projection(loaded) -> dict:
    """The part of a loaded report that must not change: verdict rows,
    optimal bounds, witnesses and residual profiles, keyed by row."""
    rows = {}
    for row in loaded.rows:
        if row.kind not in ("level", "chain", "witness", "verdict"):
            continue
        key = "%s/%s/%s" % (row.kind, row.label,
                            "" if row.level is None else row.level)
        rows[key] = [row.verdict, row.optimal_lower, row.optimal_upper,
                     row.witness_lower, row.witness_upper, row.residuals]
    return {"passed": loaded.passed, "rows": rows}


def load_reference() -> dict:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def check_scenario(reference: dict, scenario: str, path: Path,
                   codes) -> Optional[str]:
    if any(c != 0 for c in codes):
        return "exit_code"
    fmt = "json" if path.suffix == ".json" else "csv"
    loaded = reportio.load_report(path.read_text(encoding="ascii"), fmt)
    if report_projection(loaded) != reference[scenario]:
        return "scenario_reference"
    return None


def _clear_weight_cache():
    # each CLI call is a fresh process for its users, so start it cold
    cache = getattr(gradings, "_weight_table", None)
    if cache is not None:
        cache.cache_clear()


def scenarios(seed: int, workdir: Path) -> Workload:
    reference = load_reference()
    ops = []
    for scenario, fmt in SCENARIO_RUNS:
        path = workdir / ("%s.%s" % (scenario, fmt))
        argv = ["run", scenario, "--truncation", str(SCENARIO_TRUNCATION),
                "--format", fmt, "--out", str(path)]

        def run(argv=argv, path=path, fmt=fmt):
            codes = [_cli(argv)]
            if fmt == "csv":
                codes.append(_cli(["report", str(path)]))
            return codes

        ops.append(Op("scenarios.%s.%s" % (scenario, fmt), run,
                      lambda codes, s=scenario, p=path:
                      check_scenario(reference, s, p, codes)))
    return Workload(ops, coordinates=SCENARIO_TRUNCATION,
                    before_op=_clear_weight_cache)


WORKLOADS = {"scenarios": scenarios, "levels": levels, "expansion": expansion}
