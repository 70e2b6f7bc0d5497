"""In-memory call spans around the package's layer functions.

The tracer replaces module-level functions of ``loglin_effects`` (and one
method) by wrappers that record a span per call: id, parent span, op id,
stage name, start and end in nanoseconds, and a small attribute dict.
Every module binding of the same function object is replaced, so calls
between modules (``causal.fit_poisson``, ``effects.conditional_probabilities``)
are traced as well.  A stage whose function no longer exists is skipped
and later reports zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

#: ``<module>.<function>`` stage names, relative to the ``loglin_effects`` package
STAGES = (
    "tables.parse_table",
    "tables.validate",
    "fitting.fit_poisson",
    "fitting.saturated_closed_form",
    "causal.fit_causal",
    "causal.conditional_probabilities",
    "causal.ConditionalProbabilities.joint",
    "effects.effects_report",
    "oracle.oracle_effects",
    "inference.additive_zero_test",
    "inference.linearity_bonds",
    "cli.main",
)

#: the benchmark's own span around one whole op
OP_STAGE = "bench.op"

PACKAGE = "loglin_effects"

# span record layout
ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


class Tracer:
    """Collects spans in memory; ``spans`` is written out by the caller."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.installed: list = []

    def call(self, name, fn, args, kwargs):
        rec = [len(self.spans), self.stack[-1] if self.stack else -1,
               self.op, name, 0, 0, None]
        self.spans.append(rec)
        self.stack.append(rec[ID])
        rec[START] = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec[END] = self.clock()
            self.stack.pop()
            rec[ATTRS] = {"error": type(exc).__name__}
            raise
        rec[END] = self.clock()
        self.stack.pop()
        rec[ATTRS] = _attrs(name, args, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self, stages=STAGES) -> list:
        """Wrap every stage found in the imported package; return those wrapped."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for stage in stages:
            mod_name, *path = stage.split(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner = mod
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            orig = getattr(owner, path[-1], None) if owner is not None else None
            if orig is None:
                continue
            wrapped = self.wrap(stage, orig)
            if len(path) > 1:  # a method: replace it on its class
                setattr(owner, path[-1], wrapped)
            else:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
            self.installed.append(stage)
        return self.installed

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span; return its result."""
        self.op = op_id
        try:
            return self.call(OP_STAGE, fn, args, {})
        finally:
            self.op = -1


def _attrs(name, args, result):
    if name == "fitting.fit_poisson":
        return {"iterations": getattr(result, "iterations", None)}
    if name == "tables.validate":
        return {"changed": result is not args[0]}
    return None


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the union of its children.

    Returns ``{span_id: self_ns}``.
    """
    children: dict = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = {}
    for rec in spans:
        covered = 0
        cur_start = cur_end = None
        for s, e in sorted(children.get(rec[ID], ())):
            s, e = max(s, rec[START]), min(e, rec[END])
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[rec[ID]] = (rec[END] - rec[START]) - covered
    return out


def per_op_stage_self(spans) -> dict:
    """``{(op, stage): total self ns}`` over all calls of a stage in an op."""
    selfs = self_times(spans)
    out: dict = {}
    for rec in spans:
        key = (rec[OP], rec[NAME])
        out[key] = out.get(key, 0) + selfs[rec[ID]]
    return out


def op_durations(spans) -> dict:
    """``{op: root span duration ns}``."""
    return {rec[OP]: rec[END] - rec[START]
            for rec in spans if rec[NAME] == OP_STAGE}
