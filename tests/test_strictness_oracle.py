"""Strictness classification against the whole-sequence reference loop.

classify_strictness reads, per candidate X level, only the ratios its
verdict uses: the three tail points and the witness head of each parity
class.  The reference below is the loop it replaces, which forms the whole
ratio sequence of every candidate.  Verdicts, details, certificates and
witnesses must agree bit for bit, and refusals must keep their type and
message.
"""

import math
import re

import numpy as np
import pytest

from gradedframes.frames import (
    BlockFrame,
    DenseFrame,
    DiagonalFrame,
    FrameFormError,
    _functional_sizes,
    _ratios,
)
from gradedframes.gradings import (
    LevelError,
    TruncationError,
    WeightGrading,
    _weight_table,
)
from gradedframes.multilevel import (
    SLOPE_AGREE,
    SLOPE_FLAT,
    LevelCertificate,
    RatioWitness,
    StrictnessVerdict,
    certified_power_profile,
    classify_strictness,
)

BUDGET = 3
X_LEVELS = 32


# -- reference --------------------------------------------------------------------

def _reference_profile(indices, values):
    n = indices.size
    if n < 3:
        return False, 0.0
    pos = sorted({n // 2, (3 * n) // 4, n - 1})
    if len(pos) < 3:
        pos = [n - 3, n - 2, n - 1]
    js = indices[pos].astype(float)
    vs = values[pos]
    if np.any(vs <= 0):
        return False, 0.0
    s01 = math.log(vs[1] / vs[0]) / math.log(js[1] / js[0])
    s12 = math.log(vs[2] / vs[1]) / math.log(js[2] / js[1])
    s02 = math.log(vs[2] / vs[0]) / math.log(js[2] / js[0])
    if max(s01, s12, s02) - min(s01, s12, s02) > SLOPE_AGREE:
        return False, 0.0
    return True, s02


def _reference_class_slopes(ratios):
    out = []
    j = np.arange(1, ratios.size + 1)
    for cls in (j[0::2], j[1::2]):
        certified, slope = _reference_profile(cls, ratios[cls - 1])
        if not certified:
            return None
        out.append((cls, slope))
    return out


def reference_strictness(frame, x_grading, theta_grading, n_max=None):
    budget = theta_grading.levels
    if n_max is None:
        n_max = 4 * budget
    if n_max > x_grading.levels:
        raise LevelError("candidate bound %d beyond X level budget %d"
                         % (n_max, x_grading.levels))
    certificates = []
    for s in range(budget + 1):
        size = _functional_sizes(frame, theta_grading, s)
        witnesses = []
        for n in range(n_max + 1):
            ratios = _ratios(size, x_grading, n)
            slopes = _reference_class_slopes(ratios)
            if slopes is None:
                return StrictnessVerdict(
                    "Undetermined", n_max=n_max,
                    detail="ratio tail not certifiable at level %d, candidate %d"
                           % (s, n))
            grow = [(sl, cls) for cls, sl in slopes if sl > SLOPE_FLAT]
            fall = [(sl, cls) for cls, sl in slopes if sl < -SLOPE_FLAT]
            if not grow and not fall:
                certificates.append(LevelCertificate(s, n, float(ratios.min()),
                                                     float(ratios.max())))
                break
            if fall and not (n <= s and grow):
                mode, (slope, cls) = "lower_vanishing", min(fall, key=lambda t: t[0])
            else:
                mode, (slope, cls) = "upper_unbounded", max(grow, key=lambda t: t[0])
            head = cls[:4]
            witnesses.append(RatioWitness(s, n, mode, tuple(int(j) for j in head),
                                          tuple(float(ratios[j - 1]) for j in head),
                                          float(slope)))
        else:
            return StrictnessVerdict("NotStrict", witnesses=tuple(witnesses),
                                     n_max=n_max)
    return StrictnessVerdict("Strict", certificates=tuple(certificates),
                             n_max=n_max)


def _same(got, want):
    """Equal type and bits (repr round-trips a float exactly)."""
    if isinstance(want, tuple):
        return (type(got) is tuple and len(got) == len(want)
                and all(_same(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and repr(got) == repr(want)


def assert_verdicts_match(got, want):
    for field in ("verdict", "detail", "n_max"):
        assert _same(getattr(got, field), getattr(want, field)), field
    assert len(got.certificates) == len(want.certificates)
    for g, w in zip(got.certificates, want.certificates):
        for field in ("level", "admissible_level", "lower", "upper"):
            assert _same(getattr(g, field), getattr(w, field)), (field, g, w)
    assert len(got.witnesses) == len(want.witnesses)
    for g, w in zip(got.witnesses, want.witnesses):
        for field in ("level", "candidate", "mode", "coordinates", "ratios",
                      "slope"):
            assert _same(getattr(g, field), getattr(w, field)), (field, g, w)


# -- cases ------------------------------------------------------------------------

def _case(shape, truncation, r_odd, r_even, spike=None):
    """(frame, x, theta): power X for diagonal frames, shift-2 X for blocks,
    coordinate weights j**r (diagonal) or (2j)**r (block) by parity."""
    j = np.arange(1, truncation + 1).astype(float)
    base = j if shape == "diag" else 2 * j
    b = np.where(j % 2 == 1, base ** r_odd, base ** r_even)
    if spike is not None:
        at, factor = spike
        b[at - 1] *= factor
    if shape == "diag":
        return (DiagonalFrame(b), WeightGrading("power", X_LEVELS, truncation),
                WeightGrading("power", BUDGET, truncation))
    return (BlockFrame(b),
            WeightGrading("shifted_power", X_LEVELS, truncation, shift=2),
            WeightGrading("power", BUDGET, 2 * truncation))


def _spikes(truncation):
    """No spike, one off the read coordinates (certificates only) for long
    frames, and one on the last coordinate, always a tail point."""
    yield None
    yield (truncation // 3 + 1, 10.0)
    yield (truncation, 0.1)


EXPONENTS = [(a, b) for a in range(4) for b in range(4)]
SHORT = range(1, 10)


def _check(frame, x, theta, n_max):
    try:
        want = reference_strictness(frame, x, theta, n_max)
    except ValueError as exc:     # log of an underflowed ratio
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            classify_strictness(frame, x, theta, n_max)
        return "raised"
    got = classify_strictness(frame, x, theta, n_max)
    assert_verdicts_match(got, want)
    return want.verdict


@pytest.mark.parametrize("shape", ["diag", "block"])
@pytest.mark.parametrize("truncation", list(SHORT) + [16, 33, 1024])
def test_strictness_matches_reference(shape, truncation):
    seen = set()
    for r_odd, r_even in EXPONENTS:
        for spike in _spikes(truncation):
            frame, x, theta = _case(shape, truncation, r_odd, r_even, spike)
            for n_max in (0, 4, 32):
                seen.add(_check(frame, x, theta, n_max))
    if truncation >= 6:
        assert {"Strict", "NotStrict"} <= seen
    else:
        assert seen == {"Undetermined"}


def test_strictness_matches_reference_on_exponential_weights():
    for truncation in (5, 16, 33):
        j = np.arange(1, truncation + 1).astype(float)
        frame = DiagonalFrame(np.where(j % 2 == 1, 1.0, j))
        x = WeightGrading("exponential", 4, truncation,
                          alphas=tuple(np.log(j).tolist()))
        theta = WeightGrading("power", 1, truncation)
        for n_max in (0, 4):
            _check(frame, x, theta, n_max)


def test_certified_power_profile_matches_reference():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5, 7, 16, 513):
        j = np.arange(1, 2 * n, 2)
        last_zero = np.ones(n)
        last_zero[-1] = 0.0
        for values in (j ** 2.0, j ** -1.5, 1 + rng.random(n), last_zero):
            assert _same(certified_power_profile(j, values),
                         _reference_profile(j, values))


# -- refusals ---------------------------------------------------------------------

def _same_refusal(call_args, kind):
    with pytest.raises(kind) as want:
        reference_strictness(*call_args)
    with pytest.raises(kind) as got:
        classify_strictness(*call_args)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("truncation", [1, 2, 5, 16])
def test_refusals_keep_types_and_messages(truncation):
    frame, x, theta = _case("diag", truncation, 0, 2)
    _same_refusal((frame, x, theta, X_LEVELS + 1), LevelError)
    short_x = WeightGrading("power", X_LEVELS, truncation + 1)
    assert classify_strictness(frame, short_x, theta, 4).n_max == 4
    if truncation > 1:
        short_x = WeightGrading("power", X_LEVELS, truncation - 1)
        _same_refusal((frame, short_x, theta, 4), TruncationError)
        short_theta = WeightGrading("power", BUDGET, truncation - 1)
        _same_refusal((frame, x, short_theta, 4), TruncationError)
    dense = DenseFrame(np.eye(truncation))
    _same_refusal((dense, x, theta, 4), FrameFormError)
    # a dense frame is refused before a short X grading is read
    if truncation > 1:
        _same_refusal((dense, WeightGrading("power", X_LEVELS, truncation - 1),
                       theta, 4), FrameFormError)


def test_short_x_grading_names_the_last_coordinate():
    frame, x, theta = _case("block", 33, 0, 1)
    with pytest.raises(TruncationError, match="coordinate 33 beyond truncation 20"):
        classify_strictness(frame, WeightGrading("shifted_power", 8, 20, shift=2),
                            theta, 4)


def test_negative_candidate_bound_is_refused():
    frame, x, theta = _case("diag", 16, 0, 2)
    with pytest.raises(LevelError, match="^candidate bound -1 is negative$"):
        classify_strictness(frame, x, theta, -1)
    # the reference fails only inside the verdict it builds
    with pytest.raises(ValueError, match="witnesses must target a single level"):
        reference_strictness(frame, x, theta, -1)


# -- work -------------------------------------------------------------------------

def _x_reads(monkeypatch, x):
    """Record the length of every weight_values call on the grading x.  Full
    tables are read through the weight cache, emptied first so that the first
    read of each table costs one call whatever ran before."""
    _weight_table.cache_clear()
    lengths = []
    original = WeightGrading.weight_values

    def counting(self, level, indices):
        if self is x:
            lengths.append(np.asarray(indices).size)
        return original(self, level, indices)

    monkeypatch.setattr(WeightGrading, "weight_values", counting)
    return lengths


@pytest.mark.parametrize("shape,r_odd,r_even,verdict", [
    ("diag", 2, 2, "Strict"),
    ("diag", 0, 2, "NotStrict"),
    ("block", 3, 3, "Strict"),
    ("block", 0, 1, "NotStrict"),
])
def test_full_ratio_sequence_only_for_the_certificate(monkeypatch, shape, r_odd,
                                                      r_even, verdict):
    truncation = 4096
    frame, x, theta = _case(shape, truncation, r_odd, r_even)
    lengths = _x_reads(monkeypatch, x)
    got = classify_strictness(frame, x, theta, 32)
    assert got.verdict == verdict
    full = [size for size in lengths if size == truncation]
    assert len(full) == len(got.certificates) <= BUDGET + 1
    # one short row per candidate reached, shared by every mid level
    scanned = (max(c.admissible_level for c in got.certificates) + 1
               if verdict == "Strict" else 33)
    short = [size for size in lengths if size < truncation]
    assert len(short) == scanned
    assert all(size == 14 for size in short)
