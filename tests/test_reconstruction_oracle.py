"""Whole-operator reconstruction checks against per-canonical reference loops.

The reference functions below apply operators one canonical vector at a
time, as the checks were first written.  Every matrix-based routine must give
the same values bit for bit, the same verdicts and notes, and the same error
messages, for operators from every constructor and every frame form at a
small size.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from gradedframes.frames import (
    BlockFrame,
    DENSE_LIMIT,
    DenseFrame,
    DiagonalFrame,
    analyze,
)
from gradedframes.gradings import GradedVector, WeightGrading, graded_norm
from gradedframes.multilevel import ContinuityData, IndexPlan
from gradedframes.reconstruction import (
    BOUND_MATCH_TOL,
    LEFT_INVERSE_TOL,
    RANGE_TOL,
    DualSystem,
    EquivalenceReport,
    ProjectionOp,
    SequenceOperator,
    SynthesisOp,
    V_from_projection,
    _bound_table,
    _detect_rule,
    _idempotence_defect,
    build_V_from_dual,
    build_dual_from_V,
    projection_from_V,
    synthesis_from_rule,
    verify_equivalences,
)

N = 6

# -- per-canonical reference loops ----------------------------------------------


def ref_build_dual(rule):
    return tuple(rule.apply(GradedVector.canonical(i))
                 for i in range(1, rule.in_dim + 1))


def ref_detect_rule(vectors, n):
    m = len(vectors)
    if m == n:
        diag = np.zeros(n)
        ok = True
        for i, f in enumerate(vectors):
            t = f.trim()
            if t.support_size == 0:
                continue
            if t.support_size == 1 and t.indices[0] == i + 1 and t.values[0].imag == 0:
                diag[i] = t.values[0].real
            else:
                ok = False
                break
        if ok:
            return SequenceOperator.diagonal(diag, np.ones(n))
    if m == 2 * n:
        odd = np.zeros(n)
        even = np.zeros(n)
        ok = True
        for i, f in enumerate(vectors):
            t = f.trim()
            j = i // 2 + 1
            if t.support_size == 0:
                continue
            if t.support_size == 1 and t.indices[0] == j and t.values[0].imag == 0:
                if i % 2 == 0:
                    odd[j - 1] = t.values[0].real
                else:
                    even[j - 1] = t.values[0].real
            else:
                ok = False
                break
        if ok:
            return SequenceOperator.pair_collapse(odd, even, np.ones(n))
    return SequenceOperator.from_columns(vectors, n)


def ref_synthesis(rule, x, theta, plan):
    """Rule, per-canonical dual and bound table, built beside SynthesisOp so
    that its dual is an independent reference."""
    return SimpleNamespace(
        rule=rule, dual=DualSystem.from_vectors(ref_build_dual(rule), rule.out_dim),
        bounds=_bound_table(rule, x, theta, plan))


def ref_V_from_dual(vectors, n, x, theta, plan):
    return ref_synthesis(ref_detect_rule(vectors, n), x, theta, plan)


def ref_reads(frame):
    """Coordinate each functional reads and the weight of each coordinate,
    for the diagonal and block forms; None for any other frame."""
    if isinstance(frame, DiagonalFrame):
        return np.arange(frame.truncation), frame.b
    if isinstance(frame, BlockFrame):
        return np.repeat(np.arange(frame.truncation), 2), frame.b_pair
    return None


def ref_images(rule):
    """Canonical images of a rule as dense values and as a stored pattern."""
    values = np.zeros((rule.out_dim, rule.in_dim), dtype=complex)
    pattern = np.zeros((rule.out_dim, rule.in_dim), dtype=bool)
    for i in range(1, rule.in_dim + 1):
        col = rule.apply(GradedVector.canonical(i))
        values[col.indices - 1, i - 1] = col.values
        pattern[col.indices - 1, i - 1] = True
    return values, pattern


def ref_projection_from_V(frame, op, theta):
    rule = op.rule
    m, n = frame.functional_count, frame.truncation
    if (rule.in_dim, rule.out_dim) != (m, n):
        raise ValueError("reconstruction maps %d coefficients to %d coordinates, "
                         "the frame has %d functionals on %d coordinates"
                         % (rule.in_dim, rule.out_dim, m, n))
    for j in range(1, n + 1):
        e = GradedVector.canonical(j)
        back = rule.apply(analyze(frame, e).coefficients)
        if not back.allclose(e, LEFT_INVERSE_TOL):
            raise ValueError("reconstruction is not a left inverse at coordinate %d" % j)
    reads = ref_reads(frame)
    weights = [theta.weights(k)[:m] for k in range(theta.levels + 1)]
    if reads is not None and rule.divisor is not None:
        coord, b = reads
        once = (b[:, None] * rule.numerator.toarray()) / rule.divisor[:, None]
        prule = SequenceOperator(once[coord], np.ones(m))
        norm_rule = SequenceOperator(once, np.ones(n))
        if isinstance(frame, DiagonalFrame):
            out_weights = weights
        else:
            out_weights = [np.hypot(w[0::2], w[1::2]) for w in weights]
    else:
        if m > DENSE_LIMIT:
            raise ValueError("truncation too large to compose a dense projection")
        g = frame.dense_matrix()
        vmat = np.zeros((n, m))
        for i in range(1, m + 1):
            col = rule.apply(GradedVector.canonical(i))
            vmat[:, i - 1] = col.to_dense(n).real
        prule = norm_rule = SequenceOperator.dense(g @ vmat)
        out_weights = weights
    continuity = tuple(norm_rule.weighted_norm(o, w) for o, w in zip(out_weights, weights))
    return ProjectionOp(prule, continuity, _idempotence_defect(prule))


def ref_coordinate_rows(frame, prule):
    """Dense row j of P when all functionals reading coordinate j see that
    same row, stored on those functionals only; None otherwise."""
    reads = ref_reads(frame)
    m = frame.functional_count
    if reads is None or prule.divisor is None or prule.in_dim != m:
        return None
    coord, _ = reads
    values, pattern = ref_images(prule)
    rows = []
    for j in range(frame.truncation):
        readers = np.flatnonzero(coord == j)
        first = readers[0]
        for i in readers:
            if not (np.array_equal(values[i], values[first])
                    and np.array_equal(pattern[i], pattern[first])):
                return None
        if np.any(coord[np.flatnonzero(pattern[first])] != j):
            return None
        rows.append(values[first].real)
    return np.array(rows)


def ref_V_from_projection(frame, proj, x, theta, plan):
    prule = proj.rule
    m = frame.functional_count
    if (prule.in_dim, prule.out_dim) != (m, m):
        raise ValueError("projection maps %d coefficients to %d, the frame has "
                         "%d functionals" % (prule.in_dim, prule.out_dim, m))
    rows = ref_coordinate_rows(frame, prule)
    if rows is not None:
        rule = SequenceOperator(rows, ref_reads(frame)[1])
    else:
        g = frame.dense_matrix()
        pmat = np.zeros((m, m))
        for i in range(1, m + 1):
            pmat[:, i - 1] = prule.apply(GradedVector.canonical(i)).to_dense(m).real
        vmat, *_ = np.linalg.lstsq(g, pmat, rcond=None)
        resid = g @ vmat - pmat
        scale = max(float(np.linalg.norm(pmat)), 1.0)
        if np.linalg.norm(resid) > RANGE_TOL * scale:
            raise ValueError("projection output leaves the analysis range "
                             "(relative residual %.3g)"
                             % (np.linalg.norm(resid) / scale))
        rule = SequenceOperator.dense(vmat)
    for i in range(1, m + 1):
        e = GradedVector.canonical(i)
        target = prule.apply(e)
        got = analyze(frame, rule.apply(e)).coefficients
        scale = max(graded_norm(target, theta, 0), 1.0)
        if graded_norm(got - target, theta, 0) > RANGE_TOL * scale:
            raise ValueError("projection output leaves the analysis range "
                             "at coefficient %d" % i)
    for j in range(1, frame.truncation + 1):
        e = GradedVector.canonical(j)
        back = rule.apply(analyze(frame, e).coefficients)
        if not back.allclose(e, LEFT_INVERSE_TOL):
            raise ValueError("recovered operator is not a left inverse "
                             "at coordinate %d" % j)
    return ref_synthesis(rule, x, theta, plan)


def ref_verify_equivalences(frame, x, theta, plan, source_kind, source):
    if source_kind == "V":
        op0 = ref_synthesis(source, x, theta, plan)
    elif source_kind == "dual":
        op0 = ref_V_from_dual(*source, x, theta, plan)
    else:
        op0 = ref_V_from_projection(frame, source, x, theta, plan)
    proj = ref_projection_from_V(frame, op0, theta)
    op2 = ref_V_from_projection(frame, proj, x, theta, plan)
    tables = (op0.bounds.consts, op2.bounds.consts)
    notes = []
    for k in range(plan.budget + 1):
        ref = tables[0][k]
        if abs(tables[1][k] - ref) > BOUND_MATCH_TOL * max(ref, 1e-300):
            notes.append("bound table mismatch at level %d" % k)
    return EquivalenceReport(not notes, proj, tables, tuple(notes))


# -- comparable signatures ------------------------------------------------------


def bits(x):
    """Exact byte image of an array (signed zeros included), or None."""
    if x is None:
        return None
    if hasattr(x, "toarray"):
        x = x.toarray()
    x = np.ascontiguousarray(x)
    return (x.dtype.str, x.shape, x.tobytes())


def dense_columns(vectors, n):
    return bits(np.array([f.to_dense(n) for f in vectors]).reshape(len(vectors), n))


def rule_sig(rule):
    return (rule.in_dim, rule.out_dim, bits(rule.numerator), bits(rule.divisor))


def synthesis_sig(op):
    dual = [op.dual[i] for i in range(len(op.dual))]
    return (rule_sig(op.rule), dense_columns(dual, op.dual.truncation),
            op.bounds.consts)


def projection_sig(proj):
    return (rule_sig(proj.rule), proj.continuity, proj.idempotence_defect)


def report_sig(rep):
    return (rep.passed, projection_sig(rep.projection), rep.bound_tables, rep.notes)


def outcome(fn, sig):
    try:
        return ("ok", sig(fn()))
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


# -- cases ------------------------------------------------------------------------

J = np.arange(1, N + 1).astype(float)
B_DIAG = np.where(J % 2 == 1, 1.0, J ** 2)
B_PAIR = np.where(J % 2 == 1, 1.0, (2.0 * J) ** 2)
G_DENSE = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.5, 0.0, 0.0],
                    [0.0, 0.0, 1.0, -2.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0, 3.0],
                    [0.0, 0.0, 0.0, 0.0, 1.0],
                    [1.0, 0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.25, 0.0, 0.0, 0.0]])

FRAMES = {
    "diagonal": DiagonalFrame(B_DIAG),
    "unit_diagonal": DiagonalFrame(np.ones(N)),
    "block": BlockFrame(B_PAIR),
    "dense": DenseFrame(G_DENSE),
}


def gradings(frame):
    # two spare coordinates admit rules wider than the frame
    n, m = frame.truncation, frame.functional_count
    return WeightGrading("power", 4, n + 2), WeightGrading("power", 3, m + 2)


def plan():
    return IndexPlan.shifted(2, 2, upper_const=2.0)


def perturbed(values, coords, delta=1e-6):
    out = np.array(values, dtype=float)
    for c in coords:
        out[c - 1] += delta
    return out


def columns_of(matrix):
    mat = np.asarray(matrix, dtype=float)
    return SequenceOperator.from_columns(
        [GradedVector.from_dense(mat[:, i]).trim() for i in range(mat.shape[1])],
        mat.shape[0])


def rules_for(name, frame):
    """Reconstruction candidates from every constructor for one frame."""
    n, m = frame.truncation, frame.functional_count
    g = frame.dense_matrix()
    pinv = np.linalg.pinv(g)
    out = {
        "zero": SequenceOperator.zero_map(m, n),
        "dense": SequenceOperator.dense(pinv),
        "columns": columns_of(pinv),
        "dense_perturbed_4": SequenceOperator.dense(pinv + 1e-6 * np.eye(n, m, 3)),
    }
    if m == n:
        out["identity"] = SequenceOperator.identity(n)
        out["pair_mix"] = SequenceOperator.pair_mix(0.0, 1.0, n // 2)
    if isinstance(frame, DiagonalFrame):
        out["diagonal"] = SequenceOperator.diagonal(np.ones(n), frame.b)
        out["diagonal_perturbed_4"] = SequenceOperator.diagonal(
            perturbed(np.ones(n), [4]), frame.b)
        out["diagonal_perturbed_3_5"] = SequenceOperator.diagonal(
            perturbed(np.ones(n), [5, 3]), frame.b)
        # within rtol + atol of the identity, but not within atol alone
        out["diagonal_perturbed_edge"] = SequenceOperator.diagonal(
            perturbed(np.ones(n), [2], delta=1.5e-10), frame.b)
        # more inputs than functionals: the coefficients are padded
        out["diagonal_wide"] = SequenceOperator.diagonal(
            np.ones(n + 2), np.append(frame.b, [1.0, 1.0]))
        # quotients that complex-by-real division rounds differently
        out["diagonal_thirds"] = SequenceOperator.diagonal(
            [-2998.0, -2995.0, -2992.0, 1.0, 2.0, 4.0], 3.0)
    if isinstance(frame, BlockFrame):
        out["pair_even"] = SequenceOperator.pair_collapse(np.zeros(n), np.ones(n),
                                                          frame.b_pair)
        out["pair_average"] = SequenceOperator.pair_collapse(
            np.full(n, 0.5), np.full(n, 0.5), frame.b_pair)
        out["pair_perturbed_2"] = SequenceOperator.pair_collapse(
            np.zeros(n), perturbed(np.ones(n), [2]), frame.b_pair)
    return out


def projections_for(name, frame):
    """Projection candidates from every constructor for one frame."""
    m = frame.functional_count
    g = frame.dense_matrix()
    range_proj = g @ np.linalg.pinv(g)
    # one large column lets the whole-matrix residual test pass while the
    # small columns 3 and 5, pushed off the range, fail the per-column one
    leak = (np.eye(m) - range_proj)[:, 0]
    leak = 1e-5 * leak / max(np.linalg.norm(leak), 1e-300)
    leaky = range_proj.copy()
    leaky[:, 1] *= 1e6
    leaky[:, 2] += leak
    leaky[:, 4] += leak
    out = {
        "identity": ProjectionOp(SequenceOperator.identity(m), (1.0,), 0.0),
        "zero": ProjectionOp(SequenceOperator.zero_map(m, m), (1.0,), 0.0),
        "dense": ProjectionOp(SequenceOperator.dense(range_proj), (1.0,), 0.0),
        "columns": ProjectionOp(columns_of(range_proj), (1.0,), 0.0),
        "dense_leaky_3_5": ProjectionOp(SequenceOperator.dense(leaky), (1.0,), 0.0),
        "diagonal": ProjectionOp(SequenceOperator.diagonal(np.ones(m), 1.0), (1.0,), 0.0),
        "pair_mix": ProjectionOp(SequenceOperator.pair_mix(0.0, 1.0, m // 2), (1.0,), 0.0),
        "pair_mix_average": ProjectionOp(SequenceOperator.pair_mix(0.5, 0.5, m // 2),
                                         (1.0,), 0.0),
        "pair_mix_perturbed_3": ProjectionOp(
            SequenceOperator.pair_mix(0.0, perturbed(np.ones(m // 2), [3]), m // 2),
            (1.0,), 0.0),
    }
    return out


RULE_CASES = [(f, r) for f, frame in FRAMES.items() for r in rules_for(f, frame)]
PROJ_CASES = [(f, p) for f, frame in FRAMES.items() for p in projections_for(f, frame)]


# -- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("frame_name,rule_name", RULE_CASES)
def test_dual_and_detected_rule_match_reference(frame_name, rule_name):
    frame = FRAMES[frame_name]
    rule = rules_for(frame_name, frame)[rule_name]
    ref = ref_build_dual(rule)
    dual = build_dual_from_V(rule)
    assert len(dual) == len(ref) and dual.truncation == rule.out_dim
    assert dense_columns([dual[i] for i in range(len(dual))], rule.out_dim) \
        == dense_columns(ref, rule.out_dim)
    assert rule_sig(_detect_rule(dual)) == rule_sig(ref_detect_rule(ref, rule.out_dim))


@pytest.mark.parametrize("frame_name,rule_name", RULE_CASES)
def test_projection_and_round_trip_from_V_match_reference(frame_name, rule_name):
    frame = FRAMES[frame_name]
    rule = rules_for(frame_name, frame)[rule_name]
    x, theta = gradings(frame)
    # projection_from_V reads no bound table, so a zero rule gets a dummy one
    op = SynthesisOp(rule, ContinuityData((0,), (1.0,)))
    assert outcome(lambda: projection_from_V(frame, op, theta), projection_sig) \
        == outcome(lambda: ref_projection_from_V(frame, op, theta), projection_sig)
    assert outcome(lambda: verify_equivalences(
        frame, synthesis_from_rule(rule, x, theta, plan()), x, theta, plan()),
                   report_sig) \
        == outcome(lambda: ref_verify_equivalences(frame, x, theta, plan(), "V", rule),
                   report_sig)


@pytest.mark.parametrize("frame_name,rule_name", RULE_CASES)
def test_round_trip_from_dual_matches_reference(frame_name, rule_name):
    frame = FRAMES[frame_name]
    rule = rules_for(frame_name, frame)[rule_name]
    x, theta = gradings(frame)
    vectors = ref_build_dual(rule)
    dual = DualSystem.from_vectors(vectors, rule.out_dim)
    assert outcome(lambda: build_V_from_dual(dual, x, theta, plan()), synthesis_sig) \
        == outcome(lambda: ref_V_from_dual(vectors, rule.out_dim, x, theta, plan()),
                   synthesis_sig)
    assert outcome(lambda: verify_equivalences(
        frame, build_V_from_dual(dual, x, theta, plan()), x, theta, plan()),
                   report_sig) \
        == outcome(lambda: ref_verify_equivalences(frame, x, theta, plan(), "dual",
                                                   (vectors, rule.out_dim)),
                   report_sig)


@pytest.mark.parametrize("frame_name,proj_name", PROJ_CASES)
def test_V_from_projection_matches_reference(frame_name, proj_name):
    frame = FRAMES[frame_name]
    proj = projections_for(frame_name, frame)[proj_name]
    x, theta = gradings(frame)
    assert outcome(lambda: V_from_projection(frame, proj, x, theta, plan()),
                   synthesis_sig) \
        == outcome(lambda: ref_V_from_projection(frame, proj, x, theta, plan()),
                   synthesis_sig)
    assert outcome(lambda: verify_equivalences(
        frame, V_from_projection(frame, proj, x, theta, plan()), x, theta, plan()),
                   report_sig) \
        == outcome(lambda: ref_verify_equivalences(frame, x, theta, plan(),
                                                   "projection", proj), report_sig)


def test_perturbed_rule_names_smallest_failing_coordinate():
    frame = FRAMES["diagonal"]
    x, theta = gradings(frame)
    rule = rules_for("diagonal", frame)["diagonal_perturbed_3_5"]
    op = SynthesisOp(rule, _bound_table(rule, x, theta, plan()))
    with pytest.raises(ValueError, match="not a left inverse at coordinate 3$"):
        projection_from_V(frame, op, theta)


def test_detect_rule_on_hand_built_duals():
    n = 4
    cases = [
        # stored zeros are ignored, leaving a diagonal dual
        [GradedVector([1, 2], [2.0, 0.0]), GradedVector.zero(),
         GradedVector.canonical(3, -1.5), GradedVector([4], [0.0])],
        # a complex entry forces the column form
        [GradedVector.canonical(i, 1j if i == 2 else 1.0) for i in range(1, n + 1)],
        # two entries in one column force the column form
        [GradedVector.from_pairs({1: 1.0, 3: 0.5})]
        + [GradedVector.canonical(i) for i in range(2, n + 1)],
        # a pair dual with one empty functional
        [GradedVector.canonical((i + 1) // 2, float(i)) if i != 5 else GradedVector.zero()
         for i in range(1, 2 * n + 1)],
        # a pair dual whose entry sits on the wrong coordinate
        [GradedVector.canonical((i + 1) // 2 + (i == 3), 1.0) for i in range(1, 2 * n + 1)],
    ]
    for vectors in cases:
        dual = DualSystem.from_vectors(vectors, n)
        assert rule_sig(_detect_rule(dual)) == rule_sig(ref_detect_rule(vectors, n))


def test_apply_columns_refuses_support_like_apply():
    rule = SequenceOperator.diagonal(np.ones(3), 2.0)
    with pytest.raises(ValueError) as ref:
        for i in range(1, 6):
            rule.apply(GradedVector.canonical(i))
    with pytest.raises(ValueError) as got:
        rule.apply_columns(np.eye(5))
    assert str(got.value) == str(ref.value)
