"""Whole-operator reconstruction checks against per-canonical reference loops.

The reference functions below apply operators one canonical vector at a
time, as the checks were first written.  Every matrix-based routine must give
the same values bit for bit, the same verdicts and notes, and the same error
messages, for operators from every constructor and every frame form at a
small size.
"""

import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from gradedframes.compressed import Compressed
from gradedframes.frames import (
    BlockFrame,
    DENSE_LIMIT,
    CoordinateFrame,
    DenseFrame,
    DiagonalFrame,
    analyze,
)
from gradedframes.gradings import (
    GradedVector,
    WeightGrading,
    column_norms,
    graded_norm,
    stack_columns,
)
from gradedframes.multilevel import ContinuityData, IndexPlan
from gradedframes.reconstruction import (
    BOUND_MATCH_TOL,
    LEFT_INVERSE_TOL,
    RANGE_TOL,
    EquivalenceReport,
    ProjectionOp,
    SequenceOperator,
    SynthesisOp,
    V_from_projection,
    _block_local,
    _bound_table,
    _coordinate_defect,
    _detect_rule,
    _idempotence_defect,
    _left_inverse_failure,
    _rows_per_coordinate,
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
    return SequenceOperator(stack_columns(vectors, n).T)


def ref_synthesis(rule, x, theta, plan):
    """Rule, per-canonical dual and bound table, built beside SynthesisOp so
    that its dual is an independent reference."""
    return SimpleNamespace(
        rule=rule, dual=stack_columns(ref_build_dual(rule), rule.out_dim),
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
        back = rule.apply(analyze(frame, e))
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


def ref_finite(values):
    """Refuse the first non-finite entry of a dense V'', row by row."""
    for j, i in np.argwhere(~np.isfinite(values)):
        raise ValueError("recovered operator entry (%d, %d) is not finite"
                         % (j + 1, i + 1))


def ref_V_from_projection(frame, proj, x, theta, plan):
    prule = proj.rule
    m = frame.functional_count
    if (prule.in_dim, prule.out_dim) != (m, m):
        raise ValueError("projection maps %d coefficients to %d, the frame has "
                         "%d functionals" % (prule.in_dim, prule.out_dim, m))
    rows = ref_coordinate_rows(frame, prule)
    if rows is not None:
        b = ref_reads(frame)[1]
        with np.errstate(over="ignore"):
            ref_finite(rows / b[:, None])
        rule = SequenceOperator(rows, b)
    else:
        g = frame.dense_matrix()
        pmat = np.zeros((m, m))
        for i in range(1, m + 1):
            pmat[:, i - 1] = prule.apply(GradedVector.canonical(i)).to_dense(m).real
        vmat, *_ = np.linalg.lstsq(g, pmat, rcond=None)
        ref_finite(vmat)
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
        got = analyze(frame, rule.apply(e))
        scale = max(graded_norm(target, theta, 0), 1.0)
        if graded_norm(got - target, theta, 0) > RANGE_TOL * scale:
            raise ValueError("projection output leaves the analysis range "
                             "at coefficient %d" % i)
    for j in range(1, frame.truncation + 1):
        e = GradedVector.canonical(j)
        back = rule.apply(analyze(frame, e))
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


def dual_vector(dual, i):
    """f_{i+1}, row i of a dual matrix, as a GradedVector."""
    lo, hi = dual.indptr[i:i + 2]
    return GradedVector(dual.indices[lo:hi] + 1, dual.data[lo:hi])


def synthesis_sig(op):
    """The reference carries its own per-canonical dual; a SynthesisOp's is
    its rule's canonical images."""
    dual = op.dual if isinstance(op, SimpleNamespace) else op.rule.canonical_images
    m, n = dual.shape
    return (rule_sig(op.rule), dense_columns([dual_vector(dual, i) for i in range(m)], n),
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
    return SequenceOperator(stack_columns(
        [GradedVector.from_dense(mat[:, i]).trim() for i in range(mat.shape[1])],
        mat.shape[0]).T)


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
    assert dual.shape == (len(ref), rule.out_dim)
    assert dense_columns([dual_vector(dual, i) for i in range(len(ref))], rule.out_dim) \
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
    dual = stack_columns(vectors, rule.out_dim)
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


# -- boundary of the general V U check --------------------------------------------
#
# On DenseFrame(I_3), V U = V, and column j of V is the image of e_j.  The check
# is np.isclose(V U, I, rtol=tol, atol=tol): a diagonal entry may be off by 2 tol,
# an off-diagonal one by tol.

EYE3 = DenseFrame(np.eye(3))
TOL = LEFT_INVERSE_TOL
POW2 = np.array([2.0, 4.0, 0.5])


def eye3_rule(entries, divisor):
    """Rule whose V U on EYE3 is I with the (row, column) -> value entries
    changed; with a divisor of powers of two the numerator holds each row
    times it, so every quotient is the given entry exactly."""
    m = np.eye(3, dtype=np.result_type(float, *entries.values()))
    for (i, j), v in entries.items():
        m[i, j] = v
    if divisor is None:
        return SequenceOperator(m)
    return SequenceOperator(m * divisor[:, None], divisor)


EYE3_CASES = {
    "diagonal_up_1.9": ({(1, 1): 1 + 1.9 * TOL}, None),
    "diagonal_down_1.9": ({(1, 1): 1 - 1.9 * TOL}, None),
    "diagonal_up_2.1": ({(1, 1): 1 + 2.1 * TOL}, 2),
    "diagonal_down_2.1": ({(1, 1): 1 - 2.1 * TOL}, 2),
    "off_diagonal_0.9": ({(0, 2): 0.9 * TOL, (2, 0): -0.9 * TOL}, None),
    "off_diagonal_1.1": ({(0, 2): 1.1 * TOL}, 3),
    "off_diagonal_minus_1.1": ({(2, 0): -1.1 * TOL}, 1),
    "diagonal_nan": ({(1, 1): np.nan}, 2),
    "off_diagonal_nan": ({(0, 2): np.nan}, 3),
    "diagonal_inf": ({(1, 1): np.inf}, 2),
    "off_diagonal_minus_inf": ({(2, 0): -np.inf}, 1),
    "smallest_of_two": ({(2, 2): 1 + 2.1 * TOL, (0, 1): 1.1 * TOL}, 2),
    "smallest_of_three": ({(0, 2): np.inf, (1, 1): 0.5, (2, 0): 2.1 * TOL}, 1),
    # complex entries are judged by their modulus
    "diagonal_complex_1.4": ({(1, 1): 1 + 1.4j * TOL}, None),
    "diagonal_complex_1.5_1.5": ({(1, 1): 1 + 1.5 * TOL + 1.5j * TOL}, 2),
    "off_diagonal_complex_0.7": ({(0, 2): 0.7 * TOL + 0.7j * TOL}, None),
    "off_diagonal_complex_0.8": ({(0, 2): 0.8 * TOL - 0.8j * TOL}, 3),
    "diagonal_complex_nan": ({(1, 1): complex(1.0, np.nan)}, 2),
}


def eye3_refusal(rule):
    op = SynthesisOp(rule, ContinuityData((0,), (1.0,)))
    with pytest.raises(ValueError) as err:
        projection_from_V(EYE3, op, gradings(EYE3)[1])
    return str(err.value)


@pytest.mark.parametrize("divisor", [None, POW2], ids=["bare", "divided"])
@pytest.mark.parametrize("name", list(EYE3_CASES))
def test_general_left_inverse_check_boundary(name, divisor):
    entries, want = EYE3_CASES[name]
    rule = eye3_rule(entries, divisor)
    assert not _block_local(EYE3, rule.numerator)
    assert _left_inverse_failure(EYE3, rule) == want
    if want is not None:
        assert eye3_refusal(rule) == "reconstruction is not a left inverse at coordinate %d" % want


@pytest.mark.parametrize("divisor", [None, POW2], ids=["bare", "divided"])
def test_general_left_inverse_check_fails_a_missing_diagonal(divisor):
    # the numerator stores nothing for e_1, alone or beside a later failure
    rule = SequenceOperator(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                            divisor)
    assert rule.numerator.nnz == 2
    assert _left_inverse_failure(EYE3, rule) == 1
    assert eye3_refusal(rule) == "reconstruction is not a left inverse at coordinate 1"
    later = SequenceOperator(np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]]),
                             divisor)
    assert _left_inverse_failure(EYE3, later) == 1


def test_general_left_inverse_check_on_stored_zeros():
    # a stored zero on the diagonal fails as a missing entry does; one off
    # the diagonal passes; a NaN divisor, whose quotients would fail every
    # stored zero of its row, is refused when the rule is built
    def rule(data, divisor):
        return SequenceOperator(Compressed(
            [0, 2, 3, 5], [0, 2, 1, 0, 2], data, (3, 3)), divisor)

    assert _left_inverse_failure(EYE3, rule([0.0, 0.0, 1.0, 0.0, 1.0], None)) == 1
    assert _left_inverse_failure(EYE3, rule([1.0, 0.0, 1.0, 0.0, 1.0], None)) is None
    assert _left_inverse_failure(EYE3, rule([2.0, 0.0, 4.0, 0.0, 0.5], POW2)) is None
    nan_row = np.array([2.0, 4.0, np.nan])
    with pytest.raises(ValueError, match="^divisor entry 3 is not finite$"):
        rule([2.0, 0.0, 4.0, 0.0, 1.0], nan_row)


@pytest.mark.parametrize("divisor,first", [
    ([1.0, np.nan, 2.0], 2), ([np.inf, 1.0, 1.0], 1), ([1.0, 2.0, -np.inf], 3),
    ([1.0, np.nan, np.inf], 2)])
def test_non_finite_divisor_refused_by_name(divisor, first):
    with pytest.raises(ValueError, match="^divisor entry %d is not finite$" % first):
        SequenceOperator(np.eye(3), np.array(divisor))


@pytest.mark.parametrize("indices,first", [([4, 0], 4), ([0, 3], 3), ([-1, 0], -1)])
def test_numerator_column_outside_the_input_refused_by_name(indices, first):
    # an index past the input once took the row-major key of another entry:
    # [4, 0] in a 2 x 3 numerator became the entry (1, 1)
    with pytest.raises(ValueError,
                       match=r"^numerator column index %d outside \[0, 3\)$" % first):
        SequenceOperator(Compressed([0, 1, 2], indices, [1.0, 2.0], (2, 3)))


@pytest.mark.parametrize("indptr,message", [
    ([0, 1, 1], "ends at 1, expected nnz 2"), ([0, 1], "has length 2, expected 3"),
    ([0, 2, 1], "decreases"), ([0, 1, 3], "ends at 3, expected nnz 2"),
    ([1, 1, 2], "starts at 1, expected 0")])
def test_numerator_indptr_refused_by_name(indptr, message):
    # [0, 1, 1] was built as [[1, 2, 0], [0, 0, 0]] and [0, 1] accepted for
    # 2 rows; [0, 2, 1] and [0, 1, 3] failed inside numpy
    with pytest.raises(ValueError, match="^numerator indptr %s$" % message):
        SequenceOperator(Compressed(indptr, [0, 1], [1.0, 2.0], (2, 3)))


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
        dual = stack_columns(vectors, n)
        assert rule_sig(_detect_rule(dual)) == rule_sig(ref_detect_rule(vectors, n))


# -- per-coordinate checks against the general path ------------------------------
#
# On a coordinate frame with a block-local rule (row j stores functionals of
# coordinate j only) the round trip checks run coordinate by coordinate.  The
# references here are the general whole-operator checks: the same operator on
# the frame's dense twin, the general idempotence product, and the range
# check's sparse product.

MIXED = CoordinateFrame(np.repeat(np.arange(4), [1, 2, 3, 2]), [1.0, 4.0, 0.5, 3.0])
READER_COUNTS = {"one": [1] * 6, "two": [2] * 5, "three": [3] * 4,
                 "mixed": [1, 2, 3, 2, 1, 3]}
ROW_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1.0 / 3.0, 2.0, -3.0, 2.0 ** -30, 1e5)


def dense_twin(frame):
    return DenseFrame(frame.dense_matrix())


def reader_rows(frame, row_values, complex_=False):
    """Rows whose row j stores row_values[j] on the first readers of j, in
    order; None stores nothing in that row."""
    rows, cols, vals = [], [], []
    for j, values in enumerate(row_values):
        readers = np.flatnonzero(frame.reads == j)
        for i, v in zip(readers, values or ()):
            rows.append(j)
            cols.append(i)
            vals.append(v)
    data = np.array(vals, dtype=complex if complex_ else float)
    return Compressed.from_triplets(rows, cols, data,
                                    (frame.truncation, frame.functional_count))


def reader_rule(frame, row_values):
    return SequenceOperator(reader_rows(frame, row_values), frame.b)


def random_block_rows(counts, rng):
    """Block-local rows on a frame with the given reader counts: each reader
    is stored with probability 0.8, its value drawn from ROW_VALUES."""
    frame = CoordinateFrame(np.repeat(np.arange(len(counts)), counts),
                            np.ones(len(counts)))
    keep = np.flatnonzero(rng.random(frame.functional_count) < 0.8)
    values = np.asarray(ROW_VALUES)[rng.integers(len(ROW_VALUES), size=keep.size)]
    return frame, Compressed.from_triplets(frame.reads[keep], keep, values,
                                           (frame.truncation, frame.functional_count))


def folded(frame, once):
    return SequenceOperator(once[frame.reads], np.ones(frame.functional_count))


def float_bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("counts", list(READER_COUNTS))
def test_coordinate_defect_is_the_general_product_bit_for_bit(counts, seed):
    frame, once = random_block_rows(READER_COUNTS[counts], np.random.default_rng(seed))
    assert _block_local(frame, once)
    assert float_bits(_coordinate_defect(once)) \
        == float_bits(_idempotence_defect(folded(frame, once)))


@pytest.mark.parametrize("row_values,complex_,nonzero", [
    ([[0.0, 1.0]] * 3, False, False),           # exf2's even pick, stored zeros
    ([[0.5, 0.5]] * 3, False, False),
    ([[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0]], False, False),
    ([[1.0, 1.0], [2.0, -1.0], None], False, True),
    ([[1.0 / 3.0, 0.5], [-2.0, 3.0], [0.25]], False, True),
    # 1 + 2^-53 - 1 is 0 summed in k order and 2^-53 summed backwards
    ([[1.0], [0.5, 0.5], [1.0, 2.0 ** -53, -1.0]], False, True),
    ([[0.5j, 1.0], [1.0 + 1j, 0.5], [0.5]], True, True),
])
def test_coordinate_defect_on_hand_built_rows(row_values, complex_, nonzero):
    frame = CoordinateFrame(np.repeat(np.arange(3), [2, 2, 3]), np.ones(3))
    once = reader_rows(frame, row_values, complex_)
    want = _idempotence_defect(folded(frame, once))
    assert float_bits(_coordinate_defect(once)) == float_bits(want)
    assert (want > 0) == nonzero


def test_mixed_reader_projection_takes_the_coordinate_defect(monkeypatch):
    # one, two and three readers per coordinate; each row sums to 1 after b
    rule = reader_rule(MIXED, [[1.0], [2.0, -1.0], [1 / 3, 1 / 3, 1 / 3], [-0.0, 1.0]])
    _, theta = gradings(MIXED)
    calls = counting_general_calls(monkeypatch)
    proj = projection_from_V(MIXED, SynthesisOp(rule, ContinuityData((0,), (1.0,))),
                             theta)
    assert calls == Counter()
    assert float_bits(proj.idempotence_defect) \
        == float_bits(_idempotence_defect(proj.rule))


def left_inverse_cases():
    """name -> (coordinate frame, block-local rule, first failing coordinate)."""
    diag, block = FRAMES["diagonal"], FRAMES["block"]
    complex_dual = stack_columns(
        [GradedVector.canonical(i, 1j if i == 2 else 1.0) for i in range(1, 5)], 4)
    return {
        "diagonal": (diag, SequenceOperator.diagonal(np.ones(N), diag.b), None),
        "diagonal_off_1e-9": (diag, SequenceOperator.diagonal(
            perturbed(np.ones(N), [3], delta=1e-9), diag.b), 3),
        "diagonal_within_rtol_atol": (diag, SequenceOperator.diagonal(
            perturbed(np.ones(N), [2], delta=1.5e-10), diag.b), None),
        "diagonal_nan": (diag, SequenceOperator.diagonal(
            np.where(J == 5, np.nan, 1.0), diag.b), 5),
        "pair_off_1e-9": (block, SequenceOperator.pair_collapse(
            np.zeros(N), perturbed(np.ones(N), [5], delta=1e-9), block.b_pair), 5),
        "pair_no_stored_entry": (block, reader_rule(
            block, [[0.0, 1.0]] * 3 + [None] + [[0.5, 0.5]] * 2), 4),
        "pair_stored_zeros": (block, reader_rule(
            block, [[0.0, 1.0], [0.0, -0.0]] + [[1.0, 0.0]] * 4), 2),
        "mixed": (MIXED, reader_rule(
            MIXED, [[1.0], [2.0, -1.0], [0.25, 0.5, 0.25], [-0.0, 1.0]]), None),
        # b_j M_ji sums to 1 in i order and cancels to 0 backwards
        "mixed_cancelling": (MIXED, reader_rule(
            MIXED, [[1.0], [2.0, -1.0], [1e17, -1e17, 1.0], [-0.0, 1.0]]), None),
        "mixed_off_1e-9": (MIXED, reader_rule(
            MIXED, [[1.0], [2.0, -1.0], [0.25, 0.5 + 1e-9, 0.25], [-0.0, 1.0]]), 3),
        "mixed_no_divisor": (MIXED, SequenceOperator(reader_rows(
            MIXED, [[1.0], [0.125, 0.125], [1.0, -1.0, 1.0], [1 / 3]])), 3),
        "dual-complex": (DiagonalFrame(np.ones(4)), _detect_rule(complex_dual), 2),
    }


@pytest.mark.parametrize("name", list(left_inverse_cases()))
def test_coordinate_left_inverse_check_matches_general_path(name):
    frame, rule, want = left_inverse_cases()[name]
    twin = dense_twin(frame)
    assert _block_local(frame, rule.numerator)
    assert not _block_local(twin, rule.numerator)
    assert _left_inverse_failure(frame, rule) == _left_inverse_failure(twin, rule) == want
    if want is None:
        return
    _, theta = gradings(frame)
    op = SynthesisOp(rule, ContinuityData((0,), (1.0,)))
    for f in (frame, twin):
        with pytest.raises(ValueError) as err:
            projection_from_V(f, op, theta)
        assert str(err.value) == "reconstruction is not a left inverse at coordinate %d" % want


def general_range_failure(frame, prule, rule, theta):
    """First coefficient where the columns of U V and P differ beyond
    RANGE_TOL, from the whole sparse product; None when none does."""
    target = prule.canonical_images
    residual = rule.canonical_images @ frame.coefficient_rows().T - target
    scale = np.maximum(column_norms(target, theta, (0,))[0], 1.0)
    bad = np.flatnonzero(column_norms(residual, theta, (0,))[0] > RANGE_TOL * scale)
    return int(bad[0]) + 1 if bad.size else None


def range_cases():
    """name -> (coordinate frame, projection with one block-local row per
    coordinate, first non-finite entry (j, i) of the closed-form V'')."""
    diag, block = FRAMES["diagonal"], FRAMES["block"]
    # once_j[i] / b_j overflows: the one way U V'' can leave P on this path
    tiny_diag = DiagonalFrame(np.where(J == 3, 1e-160, B_DIAG))
    small_diag = DiagonalFrame(np.where(J == 3, 1e-10, B_DIAG))
    tiny_mixed = CoordinateFrame(MIXED.reads, [1.0, 4.0, 1e-160, 3.0])
    tiny_rows = [[1.0], [0.5, 0.5], [1e150, 0.0, -2.0], [1.0, 0.0]]
    return {
        "diagonal_identity": (diag, SequenceOperator.identity(N), None),
        "diagonal_overflow": (tiny_diag, SequenceOperator.diagonal(
            np.where(J == 3, 1e150, 1.0), 1.0), (3, 3)),
        # P's own column norm overflows as well, so the range scale is inf
        "diagonal_overflow_huge": (small_diag, SequenceOperator.diagonal(
            np.where(J == 3, 1e300, 1.0), 1.0), (3, 3)),
        "pair_even": (block, SequenceOperator.pair_mix(0.0, 1.0, N), None),
        "pair_average": (block, SequenceOperator.pair_mix(0.5, 0.5, N), None),
        "pair_zero": (block, SequenceOperator.zero_map(2 * N, 2 * N), None),
        "mixed": (MIXED, folded(MIXED, reader_rows(MIXED, tiny_rows[:2] + [
            [1 / 3, 1 / 3, 1 / 3], [-0.0, 1.0]])), None),
        "mixed_overflow": (tiny_mixed, folded(tiny_mixed, reader_rows(
            tiny_mixed, tiny_rows)), (3, 4)),
    }


@pytest.mark.parametrize("name", list(range_cases()))
def test_coordinate_range_check_matches_general_path(name):
    frame, prule, entry = range_cases()[name]
    x, theta = gradings(frame)
    rows = _rows_per_coordinate(frame, prule)
    assert rows is not None and _block_local(frame, rows)
    rule = SequenceOperator(rows, frame.b)
    with np.errstate(over="ignore"):
        values = rows.toarray() / frame.b[:, None]
    first = next((tuple(int(k) + 1 for k in e)
                  for e in np.argwhere(~np.isfinite(values))), None)
    assert first == entry
    if entry is None:
        # U V'' = P by construction: the whole-product range check passes
        assert general_range_failure(frame, prule, rule, theta) is None
        j = _left_inverse_failure(dense_twin(frame), rule)
        want = ("ok", None) if j is None else ("error", "ValueError",
            "recovered operator is not a left inverse at coordinate %d" % j)
    else:
        want = ("error", "ValueError",
                "recovered operator entry (%d, %d) is not finite" % entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(lambda: V_from_projection(frame, ProjectionOp(prule, (1.0,), 0.0),
                                                x, theta, plan()), lambda op: None)
    assert got == want


def test_dense_solve_names_a_non_finite_entry():
    # 1 / 1e-310 overflows in the solve, where the whole residual reads inf
    frame = DenseFrame([[1e-310]])
    x, theta = gradings(frame)
    proj = ProjectionOp(SequenceOperator.identity(1), (1.0,), 0.0)
    with pytest.raises(ValueError) as err:
        V_from_projection(frame, proj, x, theta, plan())
    assert str(err.value) == "recovered operator entry (1, 1) is not finite"
    with pytest.raises(ValueError) as ref:
        ref_V_from_projection(frame, proj, x, theta, plan())
    assert str(ref.value) == str(err.value)


def counting_general_calls(monkeypatch):
    """Count whole products and every read of canonical_images, which is
    then built anew on each read."""
    calls = Counter()
    product = Compressed.__matmul__

    def counted(*args, **kwargs):
        calls["__matmul__"] += 1
        return product(*args, **kwargs)

    monkeypatch.setattr(Compressed, "__matmul__", counted)
    images = SequenceOperator.canonical_images.func

    def counted_images(self):
        calls["canonical_images"] += 1
        return images(self)

    monkeypatch.setattr(SequenceOperator, "canonical_images", property(counted_images))
    return calls


@pytest.mark.parametrize("frame_name,rule_name", [("diagonal", "diagonal"),
                                                  ("block", "pair_even")])
def test_closed_form_V_from_projection_takes_no_general_product(monkeypatch,
                                                                 frame_name, rule_name):
    # exf1's diagonal and exf2's pair-collapse rule on frames weighted as theirs
    frame = FRAMES[frame_name]
    x, theta = gradings(frame)
    op = synthesis_from_rule(rules_for(frame_name, frame)[rule_name], x, theta, plan())
    proj = projection_from_V(frame, op, theta)
    calls = counting_general_calls(monkeypatch)
    op2 = V_from_projection(frame, proj, x, theta, plan())
    assert calls == Counter()
    assert op2.bounds.consts == op.bounds.consts


def test_rules_that_are_not_block_local_keep_the_general_path(monkeypatch):
    diag, block = FRAMES["diagonal"], FRAMES["block"]
    _, theta = gradings(diag)
    j = np.arange(N - 1)

    def shifted(values):
        # row j also stores the functional of coordinate j + 1
        return SequenceOperator(Compressed.from_triplets(
            np.concatenate((j, j, [N - 1])), np.concatenate((j, j + 1, [N - 1])),
            np.concatenate((np.ones(N - 1), values, [1.0])), (N, N)), diag.b)

    calls = counting_general_calls(monkeypatch)
    # V U and P P for the zero shift; V U alone refuses the 0.5 shift
    for rule, general in ((shifted(np.zeros(N - 1)), Counter(__matmul__=2)),
                          (shifted(np.full(N - 1, 0.5)), Counter(__matmul__=1))):
        assert not _block_local(diag, rule.numerator)
        op = SynthesisOp(rule, ContinuityData((0,), (1.0,)))
        calls.clear()
        got = outcome(lambda: projection_from_V(diag, op, theta), projection_sig)
        assert calls == general
        assert got == outcome(lambda: ref_projection_from_V(diag, op, theta),
                              projection_sig)
    # the pair_mix projection on a diagonal frame mixes two coordinates; the
    # identity on a block frame leaves the range of U, which the dense solve
    # refuses before either check
    for frame, prule, general, refusal in (
            (diag, SequenceOperator.pair_mix(0.0, 1.0, N // 2),
             Counter(__matmul__=2, canonical_images=2),
             "recovered operator is not a left inverse"),
            (block, SequenceOperator.identity(2 * N), Counter(canonical_images=1),
             "projection output leaves the analysis range (")):
        assert _rows_per_coordinate(frame, prule) is None
        x, theta = gradings(frame)
        proj = ProjectionOp(prule, (1.0,), 0.0)
        calls.clear()
        got = outcome(lambda: V_from_projection(frame, proj, x, theta, plan()),
                      synthesis_sig)
        assert calls == general
        assert got == outcome(lambda: ref_V_from_projection(frame, proj, x, theta,
                                                            plan()), synthesis_sig)
        assert got[0] == "error" and got[2].startswith(refusal)


def kept_rows_cases():
    """name -> (coordinate frame, rule): every rule case on a coordinate
    frame, and a mixed-reader rule."""
    cases = {"%s-%s" % (f, r): (FRAMES[f], rules_for(f, FRAMES[f])[r])
             for f, r in RULE_CASES if isinstance(FRAMES[f], CoordinateFrame)}
    cases["mixed"] = (MIXED, reader_rule(
        MIXED, [[1.0], [2.0, -1.0], [1 / 3, 1 / 3, 1 / 3], [-0.0, 1.0]]))
    return cases


@pytest.mark.parametrize("name", list(kept_rows_cases()))
def test_kept_rows_are_the_rows_read_back_from_P(name):
    frame, rule = kept_rows_cases()[name]
    _, theta = gradings(frame)
    op = SynthesisOp(rule, ContinuityData((0,), (1.0,)))
    try:
        proj = projection_from_V(frame, op, theta)
    except ValueError:
        return  # a refused projection keeps nothing
    want = _rows_per_coordinate(frame, proj.rule)
    if proj._fold is None:
        assert want is None
    else:
        held, kept = proj._fold
        assert held is frame and want is not None and kept.shape == want.shape
        for k in ("indptr", "indices", "data"):
            assert bits(getattr(kept, k)) == bits(getattr(want, k))


def test_kept_rows_serve_only_the_frame_they_were_folded_on():
    # same functional count, other readers: P's rows are read back for it
    rule = kept_rows_cases()["mixed"][1]
    other = CoordinateFrame(np.repeat(np.arange(4), 2), MIXED.b)
    x, theta = gradings(MIXED)
    proj = projection_from_V(MIXED, SynthesisOp(rule, ContinuityData((0,), (1.0,))),
                             theta)
    bare = ProjectionOp(proj.rule, proj.continuity, proj.idempotence_defect)
    assert proj._fold is not None and bare._fold is None
    for frame in (MIXED, other):
        assert outcome(lambda: V_from_projection(frame, proj, x, theta, plan()),
                       synthesis_sig) \
            == outcome(lambda: V_from_projection(frame, bare, x, theta, plan()),
                       synthesis_sig)
