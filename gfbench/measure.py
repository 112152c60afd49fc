"""Timed passes, checks and metrics of one benchmark run.

Imported by run.py after the BLAS thread cap is set and `src/` is on the
path.  A pass runs every timed op of the workload once, in order, in this
process; checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import scipy

import spans
import workloads
from gradedframes import gradings

# check -> (ops it is known on, seed defect); a failure of any other
# (op, check) pair makes `correct` false
KNOWN_DEFECTS = {
    "plan_false_pass": (("levels.plan",),
                        "verify_pre_f_frame passes next to a negative slack"),
    "chain_false_pass": (("levels.chain",),
                         "verify_selected_chain passes a chain whose optimal "
                         "bounds break the plan constants"),
    "norm_underflow": (("levels.norms",),
                       "graded, dual or lp norm of a 2^-540-scaled sample "
                       "underflows"),
    "dual_expansion_nondyadic": (("expansion.dual",),
                                 "verify_dual_expansion demands exact zeros "
                                 "for integer weights"),
    "frame_bounds_abort": (("levels.abort.plan", "levels.abort.bounds"),
                           "FrameBounds refuses lower > upper"),
}
# FrameBounds' refusal; other checks share the words "lower <= upper"
FRAME_BOUNDS_ABORT = "bounds must satisfy 0 <= lower <= upper, got"
# every run times at least this many passes, so medians span passes
MIN_PASSES = 2
# fresh-interpreter imports and in-process input builds timed in set-up
IMPORT_REPS = 5
SETUP_REPS = 3
# Import time answers to the host's state differently from the kernel, so
# each `import gradedframes` is scaled by a fresh interpreter importing the
# package's third-party dependencies just before it, read as seconds on a
# machine where that takes DEPS_NOMINAL_S.
DEPS_IMPORT = "import numpy, scipy.sparse, scipy.sparse.linalg"
DEPS_NOMINAL_S = 0.4
END_TO_END = ("setup_s", "pass_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
REPORTED_SCENARIOS = ("exf1", "exf2", "custom")
# per-layer metrics beside each span's calls, busy_s and self_s
DERIVED_LAYER_METRICS = (
    ("gradings.vectors.per_op", "count", "lower"),
    ("gradings.weight_cache.hit_ratio", "ratio", "higher"),
    ("reconstruction.apply.per_coordinate", "ratio", "lower"),
    ("reconstruction.verify_equivalences.share_exf2", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
) + tuple(("report_s.%s" % s, "s", "lower") for s in REPORTED_SCENARIOS) + (
    ("checks.fail_ratio", "ratio", "lower"),
) + tuple(("checks.%s.per_pass" % c, "count", "lower") for c in KNOWN_DEFECTS)


def per_layer_spec() -> list:
    """(name, unit, better) of every metric a traced run prints, in order."""
    out = []
    for name in spans.span_names():
        out += [(name + ".calls", "count", "lower"),
                (name + ".busy_s", "s", "lower"),
                (name + ".self_s", "s", "lower")]
    return out + list(DERIVED_LAYER_METRICS)


# The CPUs this benchmark runs on are shared: for tens of seconds at a time
# they can run everything up to half again as slow, and the speed changes
# within seconds.  A small fixed kernel is timed every CAL_EVERY_S by an
# interval timer, in the middle of an op too, so a long op is measured
# against the speed it ran at.  Each op's wall time, less the kernel runs
# inside it, is scaled by CAL_NOMINAL_S / (the kernel time around it), so
# times read as seconds on a machine where the kernel takes CAL_NOMINAL_S.
# Raw times go to the metadata.
CAL_NOMINAL_S = 0.015
CAL_EVERY_S = 0.5
# a span is scaled by the median of the samples within this many seconds of
# it, together with the nearest one before and after it
CAL_WINDOW_S = 1.0


def calibration_seconds() -> float:
    """Time a fixed kernel of small numpy calls, Python arithmetic and dense
    length-4096 comparisons, the mix the package's hot paths are made of."""
    idx = np.array([5, 3, 9, 1, 7, 2, 8, 4])
    dense = np.zeros(4096, dtype=np.complex128)
    acc = 0.0
    start = time.perf_counter()
    for i in range(1000):
        acc += np.unique(idx).size + np.argsort(idx)[0]
        acc += math.fsum(np.abs(np.asarray(idx * 1.5, dtype=np.complex128)).tolist())
        if i % 10 == 0:
            other = np.zeros(4096, dtype=np.complex128)
            other[idx] = 1.0
            acc += np.allclose(dense, other)
    return time.perf_counter() - start


class Speed:
    """Kernel samples, and the speed adjustment of spans timed among them."""

    def __init__(self):
        self.samples = []         # (start, kernel seconds)

    def sample(self, *_):
        self.samples.append((time.perf_counter(), calibration_seconds()))

    @contextlib.contextmanager
    def sampling(self):
        """Sample on entry, every CAL_EVERY_S inside, and on exit."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def kernel_inside(self, start: float, end: float) -> float:
        return sum(k for t, k in self.samples if start <= t < end)

    def factor(self, start: float, end: float) -> float:
        """CAL_NOMINAL_S over the kernel time around [start, end]."""
        times = [t for t, _ in self.samples]
        near = {i for i, t in enumerate(times)
                if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S}
        near.add(max(i for i, t in enumerate(times) if t <= start))
        near.add(min(i for i, t in enumerate(times) if t >= end))
        return CAL_NOMINAL_S / statistics.median(self.samples[i][1]
                                                  for i in near)


class Raised:
    """Stands for the output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def category(self) -> str:
        if isinstance(self.exc, ValueError) and \
                str(self.exc).startswith(FRAME_BOUNDS_ABORT):
            return "frame_bounds_abort"
        return "raised:%s" % type(self.exc).__name__


def child_import_seconds(root, statement: str) -> float:
    """Time an import statement in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); %s; "
            "sys.stdout.write(repr(time.perf_counter() - t))" % statement)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(root),
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def timed_setup(root, build) -> tuple:
    """Median import time in fresh interpreters plus median build time, raw
    and speed-adjusted, with the last build.  Builds run in this process
    under the sampling timer."""
    imports = []
    for _ in range(IMPORT_REPS):
        deps = child_import_seconds(root, DEPS_IMPORT)
        secs = child_import_seconds(root, "import gradedframes")
        imports.append((secs, secs * DEPS_NOMINAL_S / deps))
    speed = Speed()
    builds = []
    built = []
    with speed.sampling():
        for _ in range(SETUP_REPS):
            built.clear()     # free the previous build before timing the next
            start = time.perf_counter()
            built.append(build())
            builds.append((start, time.perf_counter()))
    raw_builds = [end - start - speed.kernel_inside(start, end)
                  for start, end in builds]
    raw = (statistics.median(secs for secs, _ in imports)
           + statistics.median(raw_builds))
    adjusted = (statistics.median(secs for _, secs in imports)
                + statistics.median(secs * speed.factor(start, end)
                                    for secs, (start, end)
                                    in zip(raw_builds, builds)))
    return built[0], raw, adjusted


def _cache_counts() -> tuple:
    cache = getattr(gradings, "_weight_table", None)
    if cache is None:
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


class Pass:
    """Outputs and timings of one pass over the op list.

    `op_seconds` are speed-adjusted op times and `seconds` their sum;
    `raw_op_seconds` are as measured, less the kernel runs inside each op.
    """

    def __init__(self, op_spans, speed, results, cache_hits, cache_misses):
        self.results = results
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.calibrations = [k for _, k in speed.samples]
        self.raw_op_seconds = [end - start - speed.kernel_inside(start, end)
                               for start, end in op_spans]
        self.op_seconds = [raw * speed.factor(start, end) for raw, (start, end)
                           in zip(self.raw_op_seconds, op_spans)]
        self.seconds = sum(self.op_seconds)
        self.raw_seconds = sum(self.raw_op_seconds)


def run_pass(wl, tracer=None) -> Pass:
    op_spans = []
    results = []
    hits = misses = 0
    clock = time.perf_counter
    speed = Speed()
    if tracer is not None:
        tracer.install()
    try:
        with speed.sampling():
            for i, op in enumerate(wl.ops):
                wl.before_op()
                h0, m0 = _cache_counts()
                t0 = clock()
                try:
                    if tracer is None:
                        out = op.run()
                    else:
                        out = tracer.run_op("op." + op.name, i, op.run)
                except Exception as exc:  # a raised op is a counted failure
                    out = Raised(exc)
                op_spans.append((t0, clock()))
                h1, m1 = _cache_counts()
                hits += h1 - h0
                misses += m1 - m0
                results.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(op_spans, speed, results, hits, misses)


def _verdict(op, out):
    if isinstance(out, Raised):
        return out.category()
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot read the output fails it
        return "check_raised:%s" % type(exc).__name__


class Ledger:
    """Attempted and failed ops, with failures counted by (op, check).

    Each op of the workload counts once, however many passes run it: a
    run's `attempted` is the ops of one pass, untimed ones included, and
    `failed` those whose output failed a check in any pass.  Both depend on
    the seed alone, not on how many passes fit in the run's seconds.
    """

    def __init__(self):
        self.verdicts = {}        # key -> (op name, failed check or None)

    def add(self, op, category, key=None):
        if key is None:
            key = ("op", len(self.verdicts))
        old = self.verdicts.get(key)
        # a new op, or the first failure of one that has passed so far
        if old is None or (old[1] is None and category is not None):
            self.verdicts[key] = (op.name, category)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failures(self) -> Counter:
        return Counter(v for v in self.verdicts.values() if v[1] is not None)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def by_check(self) -> Counter:
        out = Counter()
        for (_, check), count in self.failures.items():
            out[check] += count
        return out

    def unexpected(self) -> list:
        """'op:check' of every failure that is not a known seed defect."""
        return sorted("%s:%s" % (op, check) for op, check in self.failures
                      if op not in KNOWN_DEFECTS.get(check, ((),))[0])

    @property
    def correct(self) -> bool:
        return not self.unexpected()


class Runner:
    """Runs passes of one workload and keeps the ledger of their checks."""

    def __init__(self, wl):
        self.wl = wl
        self.ledger = Ledger()
        self.reference = None     # per-op (summary, verdict) when checked once

    def check_pass(self):
        """Untimed first pass whose outputs get the full checks."""
        p = run_pass(self.wl)
        self.reference = []
        for op, out in zip(self.wl.ops, p.results):
            summary = None if isinstance(out, Raised) else op.summary(out)
            self.reference.append((summary, _verdict(op, out)))

    def record(self, p: Pass):
        for i, (op, out) in enumerate(zip(self.wl.ops, p.results)):
            if self.reference is None or isinstance(out, Raised):
                verdict = _verdict(op, out)
            else:
                summary, verdict = self.reference[i]
                if op.summary(out) != summary:
                    verdict = "nondeterministic"
            self.ledger.add(op, verdict, ("timed", i))
        for i, op in enumerate(self.wl.untimed):
            try:
                out = op.run()
            except Exception as exc:
                out = Raised(exc)
            self.ledger.add(op, _verdict(op, out), ("untimed", i))

    def passes(self, seconds: float, min_passes: int, tracer=None) -> list:
        done = []
        start = time.perf_counter()
        while True:
            p = run_pass(self.wl, tracer)
            self.record(p)
            p.results = None    # checked; keep memory flat across passes
            done.append(p)
            elapsed = time.perf_counter() - start
            typical = elapsed / len(done)
            if len(done) >= min_passes and elapsed + typical > seconds:
                return done


def _quantiles(values, n=10) -> list:
    if len(values) < 2:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _git_sha(root):
    # outside a git checkout, do not pick up the sha of an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines(root) -> int:
    total = 0
    for path in sorted((root / "src" / "gradedframes").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def metadata(root, args, wl, ledger, op_samples) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "src_lines": _src_lines(root),
        "ops_per_pass": len(wl.ops),
        "untimed_ops_per_pass": len(wl.untimed),
        "op_samples": op_samples,
        "fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "failures": {"%s:%s" % key: count
                     for key, count in sorted(ledger.failures.items())},
        "unexpected_failures": ledger.unexpected(),
    }


def end_to_end(root, workdir, args):
    build = workloads.WORKLOADS[args.workload]
    wl, setup_raw, setup_s = timed_setup(
        root, lambda: build(args.seed, workdir))
    runner = Runner(wl)
    if wl.check_once:
        runner.check_pass()
    done = runner.passes(args.seconds, MIN_PASSES)

    def summary(pass_s, op_s):
        q = _quantiles([x * 1e3 for x in op_s])
        return statistics.median(pass_s), q[4], q[8]

    pass_s, p50, p90 = summary([p.seconds for p in done],
                               [x for p in done for x in p.op_seconds])
    raw = summary([p.raw_seconds for p in done],
                  [x for p in done for x in p.raw_op_seconds])
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "pass_s": _metric(pass_s, "s"),
        "op_p50_ms": _metric(p50, "ms"),
        "op_p90_ms": _metric(p90, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    meta = metadata(root, args, wl, runner.ledger,
                    {"passes": len(done), "ops": sum(len(p.op_seconds)
                                                     for p in done)})
    meta["raw"] = {"setup_s": setup_raw,
                   "pass_s": raw[0], "op_p50_ms": raw[1], "op_p90_ms": raw[2]}
    meta["calibration_s"] = {
        "nominal": CAL_NOMINAL_S,
        "median": statistics.median(c for p in done for c in p.calibrations)}
    return runner.ledger, metrics, meta


def per_layer(root, workdir, args):
    build = workloads.WORKLOADS[args.workload]
    h0, m0 = _cache_counts()
    wl = build(args.seed, workdir)
    h1, m1 = _cache_counts()
    runner = Runner(wl)
    if wl.check_once:
        runner.check_pass()
    half = args.seconds / 2.0
    plain = runner.passes(half, 1)
    tracer = spans.Tracer()
    traced = runner.passes(half, 1, tracer)
    tracer.dump(root / ".gfbench" / ("trace-%s.json" % args.workload))

    n = len(traced)
    metrics = {}
    for name in spans.span_names():
        calls, busy, own = tracer.totals(name)
        metrics[name + ".calls"] = _metric(calls / n, "count")
        metrics[name + ".busy_s"] = _metric(busy / n, "s")
        metrics[name + ".self_s"] = _metric(own / n, "s")
    ops = len(wl.ops)
    vectors = tracer.totals("gradings.GradedVector.new")[0]
    metrics["gradings.vectors.per_op"] = _metric(vectors / (n * ops), "count")
    applies = tracer.totals("reconstruction.apply")[0]
    metrics["reconstruction.apply.per_coordinate"] = _metric(
        applies / (n * wl.coordinates), "ratio")
    hits = (h1 - h0) + sum(p.cache_hits for p in traced)
    misses = (m1 - m0) + sum(p.cache_misses for p in traced)
    metrics["gradings.weight_cache.hit_ratio"] = _metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    plain_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s - 1.0, "ratio")
    for scenario in REPORTED_SCENARIOS:
        name = "scenarios.%s.csv" % scenario
        times = [p.op_seconds[i] for p in plain
                 for i, op in enumerate(wl.ops) if op.name == name]
        metrics["report_s." + scenario] = _metric(
            statistics.median(times) if times else 0.0, "s")
    op_names = dict(enumerate(op.name for op in wl.ops))
    root_s = Counter()
    inner_s = {}
    for (op_id, name), secs in tracer.busy_by_op().items():
        op_name = op_names.get(op_id)
        if op_name is None:
            continue
        if name == "op." + op_name:
            root_s[op_name] += secs
        else:
            inner_s.setdefault(op_name, Counter())[name] += secs
    # share of each op's time spent inside a span name (nested names overlap)
    breakdown = {op: {name: secs / root_s[op]
                      for name, secs in inner.most_common(6)}
                 for op, inner in inner_s.items() if root_s[op]}
    exf2 = "scenarios.exf2.csv"
    equiv_s = inner_s.get(exf2, Counter())["reconstruction.verify_equivalences"]
    metrics["reconstruction.verify_equivalences.share_exf2"] = _metric(
        equiv_s / root_s[exf2] if root_s[exf2] else 0.0, "ratio")
    ledger = runner.ledger
    metrics["checks.fail_ratio"] = _metric(
        ledger.failed / max(ledger.attempted, 1), "ratio")
    by_check = ledger.by_check()
    for check in KNOWN_DEFECTS:
        metrics["checks.%s.per_pass" % check] = _metric(
            by_check.get(check, 0), "count")
    metrics = {name: metrics[name] for name, _, _ in per_layer_spec()}
    meta = metadata(root, args, wl, ledger,
                    {"untraced_passes": len(plain), "traced_passes": n,
                     "spans": len(tracer.spans)})
    meta["op_breakdown"] = breakdown
    return ledger, metrics, meta


def run(args, root) -> int:
    # per process, so that concurrent runs in one checkout do not collide
    workdir = root / ".gfbench" / ("work-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            ledger, metrics, meta = per_layer(root, workdir, args)
        else:
            ledger, metrics, meta = end_to_end(root, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"metadata": meta}, sort_keys=True))
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0
