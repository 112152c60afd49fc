"""In-memory span recorder that wraps the public functions of gradedframes.

Tracing is installed from outside the package: every wrapped name is
replaced in each gradedframes module that binds it, so calls between layers
(for example `reconstruction.analyze`, which is `frames.analyze`) are
caught.  A span records its name, start, end, parent span and op id.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

PACKAGE = "gradedframes"
MODULES = ("gradings", "frames", "multilevel", "reconstruction", "scenarios",
           "reportio", "cli")

# (module, attribute) pairs for module-level functions
FUNCTIONS = (
    ("gradings", "graded_norm"),
    ("gradings", "dual_norm"),
    ("gradings", "lp_norm"),
    ("frames", "analyze"),
    ("frames", "coanalyze"),
    ("frames", "analysis_norm"),
    ("frames", "frame_bounds_analytic"),
    ("frames", "frame_bounds_numeric"),
    ("frames", "runo_demo"),
    ("multilevel", "verify_pre_f_frame"),
    ("multilevel", "classify_strictness"),
    ("multilevel", "select_subsequence"),
    ("multilevel", "verify_selected_chain"),
    ("reconstruction", "synthesis_from_rule"),
    ("reconstruction", "build_dual_from_V"),
    ("reconstruction", "build_V_from_dual"),
    ("reconstruction", "synthesize"),
    ("reconstruction", "projection_from_V"),
    ("reconstruction", "V_from_projection"),
    ("reconstruction", "verify_expansion"),
    ("reconstruction", "verify_dual_expansion"),
    ("reconstruction", "verify_equivalences"),
    ("scenarios", "run_scenario"),
    ("reportio", "emit_report"),
    ("reportio", "load_report"),
    ("cli", "main"),
)

# (module, class, method, span name) for methods
METHODS = (
    ("gradings", "GradedVector", "__init__", "gradings.GradedVector.new"),
    ("gradings", "GradedVector", "allclose", "gradings.allclose"),
    ("reconstruction", "SequenceOperator", "apply", "reconstruction.apply"),
    ("reconstruction", "SequenceOperator", "transpose_apply",
     "reconstruction.transpose_apply"),
)


def span_names() -> tuple:
    """Every span name a traced run can report, in a fixed order."""
    return (tuple("%s.%s" % pair for pair in FUNCTIONS)
            + tuple(m[3] for m in METHODS))


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.names = []          # span name table, indexed by name id
        self._name_ids = {}
        self.spans = []          # [name id, start ns, end ns, parent index, op id]
        self._stack = []         # indices of open spans
        self._child_ns = []      # child time per open span
        self.op_id = -1
        self.stats = {}          # name -> [calls, busy ns, self ns]
        self._depth = {}         # name -> open spans of that name
        self._undo = []
        self._ops = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0, 0])
        depth = self._depth
        depth.setdefault(name, 0)
        spans = self.spans
        stack = self._stack
        child = self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            record = [nid, 0, 0, parent, self.op_id]
            spans.append(record)
            stack.append(idx)
            child.append(0)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                inner = child.pop()
                dur = end - start
                record[1] = start
                record[2] = end
                if child:
                    child[-1] += dur
                stats[0] += 1
                stats[2] += dur - inner
                if depth[name] == 0:
                    # nested spans of one name count once towards busy time
                    stats[1] += dur

        return traced

    def install(self):
        """Wrap every listed function in every module that binds it."""
        mods = [importlib.import_module(PACKAGE)]
        mods += [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES]
        for mod_name, attr in FUNCTIONS:
            owner = importlib.import_module("%s.%s" % (PACKAGE, mod_name))
            orig = getattr(owner, attr)
            wrapped = self._wrap("%s.%s" % (mod_name, attr), orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module("%s.%s" % (PACKAGE, mod_name)),
                          cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, orig))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo = []

    # -- results -------------------------------------------------------------

    def run_op(self, name: str, op_id: int, body):
        """Call body() as the root span `name` of op `op_id`."""
        runner = self._ops.get(name)
        if runner is None:
            runner = self._ops[name] = self._wrap(name, lambda fn: fn())
        self.op_id = op_id
        try:
            return runner(body)
        finally:
            self.op_id = -1

    def totals(self, name: str) -> tuple:
        """(calls, busy seconds, self seconds) of one span name."""
        calls, busy, own = self.stats.get(name, (0, 0, 0))
        return calls, busy / 1e9, own / 1e9

    def busy_by_op(self) -> dict:
        """Seconds per (op id, span name), summed over that op's spans."""
        out = {}
        for nid, start, end, _, op in self.spans:
            key = (op, self.names[nid])
            out[key] = out.get(key, 0.0) + (end - start) / 1e9
        return out

    def dump(self, path):
        """Write the span table as JSON: times in ns relative to the first span."""
        t0 = min((s[1] for s in self.spans), default=0)
        doc = {
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]]
                      for s in self.spans],
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))

