"""Level-indexed frame plans: verification, strictness, subsequence selection.

A plan assigns to each level k a lower X level s_k, an upper X level t_k and
constants bounding the analysis coefficients,

    lower_k * |f|_{s_k}  <=  ||| analyze(f) |||_k  <=  upper_k * |f|_{t_k}.

A plan is strict at level s when a single X level n_s works on both sides
with finite positive constants.  The selection procedure inflates the mid
level to n_k = max(k, p_k), with p_k the continuity level of a reconstruction
operator, and extracts the earliest strictly increasing subsequence so that
the re-indexed plan is again valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .frames import (
    FrameFormError,
    FrameSystem,
    _functional_sizes,
    _largest_ratio,
    _ratios,
    _smallest_ratio,
    check_support,
    frame_bounds_analytic,
)
from .gradings import (
    GradedVector,
    LevelError,
    WeightGrading,
    column_norms,
    stack_columns,
)

REL_SLACK = 1e-12

# Log-log slope tolerances for certifying power-like ratio tails.  Integer
# weight exponents are at least 1 apart, while the bounded block factor
# contributes at most ~0.15 of apparent slope at small truncations.
SLOPE_AGREE = 0.25
SLOPE_FLAT = 0.5


def _int_tuple(xs) -> tuple:
    out = tuple(int(x) for x in xs)
    if any(x != y for x, y in zip(out, xs)):
        raise ValueError("levels must be integers")
    return out


@dataclass(frozen=True)
class IndexPlan:
    """Per-level two-sided inequality data, index k = 0 .. budget."""

    lower_levels: tuple      # s_k
    upper_levels: tuple      # t_k, the X level on the upper side
    lower_consts: tuple
    upper_consts: tuple

    def __post_init__(self):
        s = _int_tuple(self.lower_levels)
        t = _int_tuple(self.upper_levels)
        a = tuple(float(x) for x in self.lower_consts)
        b = tuple(float(x) for x in self.upper_consts)
        if not (len(s) == len(t) == len(a) == len(b)) or not s:
            raise ValueError("plan entries must be nonempty and of equal length")
        if any(x > y for x, y in zip(s, s[1:])) or any(x > y for x, y in zip(t, t[1:])):
            raise ValueError("plan levels must be nondecreasing")
        if any(x > y for x, y in zip(s, t)):
            raise ValueError("lower level must not exceed the upper level")
        if any(not 0 < x <= y for x, y in zip(a, b)):
            raise ValueError("plan constants must satisfy 0 < lower <= upper")
        object.__setattr__(self, "lower_levels", s)
        object.__setattr__(self, "upper_levels", t)
        object.__setattr__(self, "lower_consts", a)
        object.__setattr__(self, "upper_consts", b)

    @property
    def budget(self) -> int:
        return len(self.lower_levels) - 1

    @staticmethod
    def shifted(budget: int, shift: int, lower_const: float = 1.0,
                upper_const: float = 1.0) -> "IndexPlan":
        """Plan with s_k = k and upper level k + shift, constant bounds."""
        ks = range(budget + 1)
        return IndexPlan(tuple(ks), tuple(k + shift for k in ks),
                         (lower_const,) * (budget + 1),
                         (upper_const,) * (budget + 1))


@dataclass(frozen=True)
class ContinuityData:
    """Continuity levels p_k and constants C_k of a reconstruction operator."""

    theta_levels: tuple
    consts: tuple

    def __post_init__(self):
        p = _int_tuple(self.theta_levels)
        c = tuple(float(x) for x in self.consts)
        if len(p) != len(c) or not p:
            raise ValueError("continuity entries must be nonempty and of equal length")
        if any(x < 0 for x in p):
            raise ValueError("continuity levels must be nonnegative")
        if any(x <= 0 for x in c):
            raise ValueError("continuity constants must be positive")
        object.__setattr__(self, "theta_levels", p)
        object.__setattr__(self, "consts", c)

    def __len__(self) -> int:
        return len(self.theta_levels)


@dataclass(frozen=True)
class SelectionResult:
    """Re-indexed plan produced by the subsequence selection.

    Entry j carries the lower X level, the inflated mid level and the upper
    X level together with the constants transported from the source plan.
    """

    lower_levels: tuple     # s at the chosen index
    mid_levels: tuple       # inflated level n at the chosen index
    upper_levels: tuple     # t at index n
    lower_consts: tuple
    upper_consts: tuple
    chosen_indices: tuple
    inflated_levels: tuple  # full n_k table over the continuity range

    def __post_init__(self):
        for name in ("lower_levels", "mid_levels", "upper_levels"):
            seq = getattr(self, name)
            if any(x >= y for x, y in zip(seq, seq[1:])):
                raise ValueError("%s must be strictly increasing" % name)
        if any(w > wt for w, wt in zip(self.lower_levels, self.upper_levels)):
            raise ValueError("lower level must not exceed the upper level")


# ---------------------------------------------------------------------------
# plan verification


@dataclass(frozen=True, eq=False)
class LevelCheck:
    level: int
    plan_lower: float
    plan_upper: float
    optimal_lower: Optional[float]
    optimal_upper: Optional[float]
    slack_lower: Optional[float]
    slack_upper: Optional[float]
    samples_checked: int
    witness_lower: Optional[int] = None   # 1-based coordinates attaining
    witness_upper: Optional[int] = None   # the optimal constants


@dataclass(frozen=True, eq=False)
class PlanReport:
    passed: bool
    # (level, sample position, side, lhs, rhs) for a failing sample, or
    # (level, witness coordinate, "lower_slack"|"upper_slack", plan constant,
    # optimal constant) for a plan constant the optimal bound contradicts
    first_violation: Optional[tuple]
    levels: tuple


def _verify_entries(frame: FrameSystem, x_grading: WeightGrading,
                    theta_grading: WeightGrading, entries: Sequence[tuple],
                    samples: Sequence[GradedVector], optimal) -> PlanReport:
    """Check lower * |f|_s <= ||| analyze(f) |||_m <= upper * |f|_t for every
    entry (m, s, t, lower, upper) on every sample, then gate on the optimal
    constants optimal(m, s, t) gives as (lower, witness, upper, witness), or
    None when the frame form has no analytic route.

    The samples form the columns of one sparse matrix S and their analysis
    coefficients one product; one column_norms call takes the mid norms at
    every entry's level and one the X norms at every distinct outer level.
    Within an entry a failing sample is reported before a slack violation.
    """
    stacked = stack_columns(samples, frame.truncation)
    # one walk over the samples: the first reaching past the truncation is
    # refused by check_support
    first = stacked.first_row_reaching(frame.truncation)
    if first is not None:
        check_support(frame, samples[first])
    # both held by their transposes: (U S)^T = S^T U^T
    coefficients = stacked @ frame.coefficient_rows().T
    mids = column_norms(coefficients, theta_grading, [m for m, *_ in entries])
    x_levels = dict.fromkeys(level for _, s, t, _, _ in entries for level in (s, t))
    outer = dict(zip(x_levels, column_norms(stacked, x_grading, x_levels)))
    tol = 1 + REL_SLACK
    first_violation = None
    checks = []
    for (m, s, t, a, b), mid in zip(entries, mids):
        lo = a * outer[s]
        hi = b * outer[t]
        low = lo > mid * tol
        high = mid > hi * tol
        failing = np.flatnonzero(low | high)
        if failing.size and first_violation is None:
            pos = int(failing[0])
            if low[pos]:
                first_violation = (m, pos, "lower", float(lo[pos]), float(mid[pos]))
            else:
                first_violation = (m, pos, "upper", float(mid[pos]), float(hi[pos]))
        opt = optimal(m, s, t)
        if opt is None:
            checks.append(LevelCheck(m, a, b, None, None, None, None, len(samples)))
            continue
        opt_lower, witness_lower, opt_upper, witness_upper = opt
        slack_lower = opt_lower - a
        slack_upper = b - opt_upper
        checks.append(LevelCheck(m, a, b, opt_lower, opt_upper,
                                 slack_lower, slack_upper, len(samples),
                                 witness_lower, witness_upper))
        if slack_lower < -REL_SLACK * a and first_violation is None:
            first_violation = (m, witness_lower, "lower_slack", a, opt_lower)
        if slack_upper < -REL_SLACK * b and first_violation is None:
            first_violation = (m, witness_upper, "upper_slack", b, opt_upper)
    return PlanReport(first_violation is None, first_violation, tuple(checks))


def verify_pre_f_frame(frame: FrameSystem, x_grading: WeightGrading,
                       theta_grading: WeightGrading, plan: IndexPlan,
                       samples: Sequence[GradedVector]) -> PlanReport:
    """Check the two-sided inequality for every plan level on every sample.

    Also recomputes the optimal constants per level (coordinate frames
    only) and reports the slack of the plan constants against them; a slack
    below -REL_SLACK times the plan constant fails the plan even when every
    sample satisfies it.
    """
    if plan.budget > theta_grading.levels:
        raise LevelError("plan budget %d beyond mid-norm level budget %d"
                         % (plan.budget, theta_grading.levels))
    if max(plan.upper_levels) > x_grading.levels:
        raise LevelError("plan upper level %d beyond X level budget %d"
                         % (max(plan.upper_levels), x_grading.levels))

    def optimal(k, s_k, t_k):
        try:
            opt = frame_bounds_analytic(frame, theta_grading, k, x_grading,
                                        s_k, t_k)
        except FrameFormError:
            return None
        return opt.lower, opt.witness_lower, opt.upper, opt.witness_upper

    entries = tuple(zip(range(plan.budget + 1), plan.lower_levels,
                        plan.upper_levels, plan.lower_consts, plan.upper_consts))
    return _verify_entries(frame, x_grading, theta_grading, entries, samples,
                           optimal)


# ---------------------------------------------------------------------------
# strictness classification


@dataclass(frozen=True, eq=False)
class LevelCertificate:
    """Admissible single level n with two-sided constants at one mid level."""

    level: int
    admissible_level: int
    lower: float
    upper: float


@dataclass(frozen=True, eq=False)
class RatioWitness:
    """Canonical-vector family breaking one candidate level n.

    mode 'upper_unbounded': the ratio grows without bound along the listed
    coordinate class, so no finite upper constant works.  mode
    'lower_vanishing': the ratio tends to zero, so no positive lower
    constant works.  coordinates/ratios list the first class members.
    """

    level: int
    candidate: int
    mode: str
    coordinates: tuple
    ratios: tuple
    slope: float


@dataclass(frozen=True, eq=False)
class StrictnessVerdict:
    verdict: str                       # Strict | NotStrict | Undetermined
    certificates: tuple = ()           # LevelCertificate per level when Strict
    witnesses: tuple = ()              # RatioWitness per candidate when NotStrict
    n_max: int = 0
    detail: str = ""

    def __post_init__(self):
        if self.verdict not in ("Strict", "NotStrict", "Undetermined"):
            raise ValueError("unknown verdict %r" % (self.verdict,))
        if self.verdict == "NotStrict":
            if len({w.level for w in self.witnesses}) != 1:
                raise ValueError("witnesses must target a single level")
            got = sorted(w.candidate for w in self.witnesses)
            if got != list(range(self.n_max + 1)):
                raise ValueError("witnesses must cover every candidate up to n_max")


def _tail_positions(n: int):
    """The three tail positions of a class of n members; None if n < 3."""
    if n < 3:
        return None
    pos = sorted({n // 2, (3 * n) // 4, n - 1})
    return pos if len(pos) == 3 else [n - 3, n - 2, n - 1]


def _log_spacings(js) -> tuple:
    return math.log(js[1] / js[0]), math.log(js[2] / js[1]), math.log(js[2] / js[0])


def _tail_slope(logs, vs):
    """(certified, slope) of three tail points, _log_spacings of their
    coordinates and values vs: the log-log slopes must agree pairwise within
    SLOPE_AGREE."""
    if any(v <= 0 for v in vs):
        return False, 0.0
    s01 = math.log(vs[1] / vs[0]) / logs[0]
    s12 = math.log(vs[2] / vs[1]) / logs[1]
    s02 = math.log(vs[2] / vs[0]) / logs[2]
    if max(s01, s12, s02) - min(s01, s12, s02) > SLOPE_AGREE:
        return False, 0.0
    return True, s02


def certified_power_profile(indices: np.ndarray, values: np.ndarray):
    """Certify that values ~ C * indices**slope on the tail of one class.

    Returns (certified, slope) from the class's three tail points.
    """
    pos = _tail_positions(indices.size)
    if pos is None:
        return False, 0.0
    return _tail_slope(_log_spacings(indices[pos].astype(float)), values[pos])


def _parity_classes(count: int):
    j = np.arange(1, count + 1)
    return [j[0::2], j[1::2]]


def classify_strictness(frame: FrameSystem, x_grading: WeightGrading,
                        theta_grading: WeightGrading,
                        n_max: Optional[int] = None) -> StrictnessVerdict:
    """Decide whether one level can serve both sides of the inequality.

    For every mid level s up to the theta budget, candidate X levels
    n = 0..n_max are scanned for a ratio sequence with certified finite
    positive extremes.  A level with no admissible candidate yields a
    NotStrict verdict carrying one diverging or vanishing canonical-vector
    family per candidate.  Uncertifiable tails yield Undetermined.

    A candidate reads only each parity class's tail points and witness head
    (first four members), with X weights and tail log spacings taken once
    per call; the admitted candidate alone forms its whole ratio sequence.
    """
    budget = theta_grading.levels
    if n_max is None:
        n_max = 4 * budget
    if n_max < 0:
        raise LevelError("candidate bound %d is negative" % n_max)
    if n_max > x_grading.levels:
        raise LevelError("candidate bound %d beyond X level budget %d"
                         % (n_max, x_grading.levels))
    classes = []     # (head coordinates, tail coordinates or None, their logs)
    for cls in _parity_classes(frame.truncation):
        pos = _tail_positions(cls.size)
        tail = None if pos is None else cls[pos].tolist()
        classes.append((cls[:4].tolist(), tail, tail and _log_spacings(tail)))
    coords = [j for head, tail, _ in classes for j in head + (tail or [])]
    read = np.array(coords)
    rows = {}        # candidate n -> X weights at `read`, built on first use
    certificates = []
    for s in range(budget + 1):
        size = _functional_sizes(frame, theta_grading, s)
        size_read = size[read - 1]
        witnesses = []
        for n in range(n_max + 1):
            if n not in rows:
                rows[n] = x_grading.weight_values(n, read)
            ratio = dict(zip(coords, (size_read / rows[n]).tolist()))
            slopes = []
            for head, tail, logs in classes:
                certified, slope = (False, 0.0) if tail is None else _tail_slope(
                    logs, [ratio[j] for j in tail])
                if not certified:
                    return StrictnessVerdict(
                        "Undetermined", n_max=n_max,
                        detail="ratio tail not certifiable at level %d, "
                               "candidate %d" % (s, n))
                slopes.append((head, slope))
            grow = [(sl, head) for head, sl in slopes if sl > SLOPE_FLAT]
            fall = [(sl, head) for head, sl in slopes if sl < -SLOPE_FLAT]
            if not grow and not fall:
                ratios = _ratios(size, x_grading, n)
                certificates.append(LevelCertificate(s, n, float(ratios.min()),
                                                     float(ratios.max())))
                break
            # the breaking family of this candidate, should no candidate admit
            if fall and not (n <= s and grow):
                mode, (slope, head) = "lower_vanishing", min(fall, key=lambda t: t[0])
            else:
                mode, (slope, head) = "upper_unbounded", max(grow, key=lambda t: t[0])
            witnesses.append(RatioWitness(s, n, mode, tuple(head),
                                          tuple(ratio[j] for j in head),
                                          float(slope)))
        else:
            return StrictnessVerdict("NotStrict", witnesses=tuple(witnesses),
                                     n_max=n_max)
    return StrictnessVerdict("Strict", certificates=tuple(certificates),
                             n_max=n_max)


# ---------------------------------------------------------------------------
# subsequence selection


def select_subsequence(plan: IndexPlan, continuity: ContinuityData) -> SelectionResult:
    """Inflate mid levels to n_k = max(k, p_k) and re-index the plan along
    the earliest strictly increasing subsequence of {n_k}.

    The continuity table fixes the selection range; the plan must extend far
    enough to be consulted at every inflated level.
    """
    count = len(continuity)
    inflated = tuple(max(k, continuity.theta_levels[k]) for k in range(count))
    top = max(inflated)
    if top > plan.budget:
        raise ValueError("plan covers levels up to %d but the selection needs %d"
                         % (plan.budget, top))
    chosen = [0]
    for k in range(1, count):
        if inflated[k] > inflated[chosen[-1]]:
            chosen.append(k)
    lower = tuple(plan.lower_levels[k] for k in chosen)
    mid = tuple(inflated[k] for k in chosen)
    upper = tuple(plan.upper_levels[n] for n in mid)
    lo_c = tuple(plan.lower_consts[k] for k in chosen)
    hi_c = tuple(plan.upper_consts[n] for n in mid)
    return SelectionResult(lower, mid, upper, lo_c, hi_c,
                           tuple(chosen), inflated)


def verify_selected_chain(frame: FrameSystem, x_grading: WeightGrading,
                          theta_grading: WeightGrading,
                          selection: SelectionResult,
                          samples: Sequence[GradedVector]) -> PlanReport:
    """Re-verify the re-indexed inequality chain on the samples and against
    the optimal constants.

    For each selected entry the mid norm is taken at the inflated level and
    the outer norms at the transported lower/upper levels.  For coordinate
    frames the lower side's optimal constant is the smallest ratio
    against the lower X level and the upper side's the largest against the
    upper X level, each computed on its own: a chain entry may have an
    optimal lower constant above the optimal upper one, which FrameBounds
    refuses.
    """
    def optimal(n_j, s_j, t_j):
        try:
            size = _functional_sizes(frame, theta_grading, n_j)
        except FrameFormError:
            return None
        return (_smallest_ratio(_ratios(size, x_grading, s_j))
                + _largest_ratio(_ratios(size, x_grading, t_j)))

    entries = tuple(zip(selection.mid_levels, selection.lower_levels,
                        selection.upper_levels, selection.lower_consts,
                        selection.upper_consts))
    return _verify_entries(frame, x_grading, theta_grading, entries, samples,
                           optimal)
