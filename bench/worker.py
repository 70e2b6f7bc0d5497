"""A fresh process that sets up once, then runs passes in forked children.

Usage (started by ``run.py``, one process at a time):

    python3 bench/worker.py SRC_DIR INPUTS_JSON RESULT_PREFIX PLAN_JSON

``SRC_DIR`` holds the ``loglin_effects`` package under test.  The worker
imports it and runs the warm-up ops (its set-up time), then runs one pass
per entry ``[traced, outputs]`` of ``PLAN_JSON``.  Each pass is a forked
child, so no state an op leaves behind reaches another pass, and no input
repeats inside one process.  A pass runs every op once, in an order
shuffled per pass, times each op with ``perf_counter_ns``, records its
outcome (``ok``, a check that missed, or the exception type) and, when
``outputs`` is set, the values the benchmark's checks need.  A traced pass
records every layer call as a span (see ``spans.py``).  Pass ``k`` writes
``RESULT_PREFIX<k>.json``; the worker waits for each child to end.
"""

import gc
import json
import os
import random
import resource
import sys
import time
import traceback

from inputs import RTOL

#: set-up time runs from here to the end of the warm-up ops
_T0 = time.perf_counter()

#: exceptions the package documents; anything else is a crash
TYPED_ERRORS = {"TableError", "FitError", "CausalModelError",
                "DegenerateProbabilityError", "OracleError", "TestError"}


def report_fields(rep) -> dict:
    return {
        "te": rep.te, "lde0": rep.lde[0], "lde1": rep.lde[1],
        "cell0": rep.cell[0], "cell1": rep.cell[1], "ie": rep.ie,
        "ie_reverse": rep.ie_reverse, "nde": rep.nde,
        "multiplicative_interaction": rep.multiplicative_interaction,
        "additive_interaction": rep.additive_interaction,
    }


def oracle_error(got: dict, want: dict) -> float:
    """Largest relative error on the ratio effects, absolute on the additive one."""
    worst = abs(got["additive_interaction"] - want["additive_interaction"])
    for key, w in want.items():
        if key != "additive_interaction":
            worst = max(worst, abs(got[key] - w) / abs(w))
    return worst


def make_op(workload: str, L):
    """The op of a workload as ``op(item) -> (outcome, oracle_err, outputs)``."""
    tables, causal, effects, oracle = L.tables, L.causal, L.effects, L.oracle
    fitting, inference = L.fitting, L.inference

    if workload in ("effects-twoway", "effects-saturated"):
        saturated = workload == "effects-saturated"

        def op(text):
            t = tables.validate(tables.parse_table(text), "correct", 0.5)
            cp = causal.fit_causal(t, saturated)
            got = report_fields(effects.effects_report(cp))
            want = report_fields(oracle.oracle_effects(
                causal.conditional_probabilities(cp).joint()))
            err = oracle_error(got, want)
            out = {"cp": [cp.xc, cp.zc, cp.xzc, cp.y, cp.xy, cp.zy, cp.xzy],
                   "report": got}
            return ("ok" if err <= RTOL else "oracle_miss"), err, out
        return op

    if workload == "inference-twoway":
        def op(text):
            t = tables.validate(tables.parse_table(text), "correct", 0.5)
            fit = fitting.fit_poisson(t, fitting.two_way_spec())
            cp = causal.fit_causal(t)
            test = inference.additive_zero_test(fit)
            bonds = inference.linearity_bonds(cp, fit)
            out = {"fitted": list(fit.fitted_counts), "se": test.se,
                   "beta": test.beta_hat, "bond1": bonds.bond1_residual}
            return "ok", None, out
        return op

    if workload == "cli":
        import contextlib
        import io

        def op(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = L.cli.main(argv)
            outcome = "ok" if code == 0 else f"exit_{code}"
            return outcome, None, {"stdout": out.getvalue()}
        return op

    raise SystemExit(f"unknown workload {workload!r}")


def run_pass(k, op, warmup, items, traced, want_outputs, setup_s,
             base_kb) -> dict:
    """One pass in a forked child: ops in a per-pass order, results by item.

    Its peak RSS is the parent's peak at the fork, ``base_kb``, plus what
    the child's own peak grows by during the pass.  (The child's peak
    counts only the pages it has touched since the fork.)
    """
    for item in warmup:  # touch, in this child, the pages the op path uses
        op(item)
    start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    order = list(range(len(items)))
    random.Random(k).shuffle(order)
    n = len(items)
    times, outcomes, errs = [0] * n, [None] * n, [None] * n
    outputs = [None] * n if want_outputs else None
    clock = time.perf_counter_ns
    for i in order:
        item = items[i]
        t0 = clock()
        try:
            if tracer is None:
                outcome, err, out = op(item)
            else:
                outcome, err, out = tracer.run_op(i, op, item)
        except Exception as exc:  # one op's failure must not end the pass
            name = type(exc).__name__
            outcome = name if name in TYPED_ERRORS else f"crash_{name}"
            err = out = None
        times[i] = clock() - t0
        outcomes[i] = outcome
        errs[i] = err
        if want_outputs:
            outputs[i] = out
    return {
        "setup_s": setup_s,
        "maxrss_kb": base_kb - start_kb
        + resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "times_ns": times,
        "outcomes": outcomes,
        "oracle_err": errs,
        "outputs": outputs,
        "spans": tracer.spans if tracer else None,
    }


def main(argv) -> int:
    src, inputs_path, result_prefix, plan = argv[1:5]
    sys.path.insert(0, src)

    import importlib
    from types import SimpleNamespace

    with open(inputs_path, encoding="utf-8") as fh:
        workload = fh.readline().strip()
        warmup = json.loads(fh.readline())
    names = ["tables", "causal", "effects", "oracle", "fitting", "inference"]
    if workload == "cli":
        names.append("cli")
    L = SimpleNamespace(**{n: importlib.import_module(f"loglin_effects.{n}")
                           for n in names})
    if not L.tables.__file__.startswith(src):
        raise SystemExit(f"loglin_effects imported from {L.tables.__file__}, not {src}")
    op = make_op(workload, L)
    for item in warmup:
        op(item)
    setup_s = time.perf_counter() - _T0

    with open(inputs_path, encoding="utf-8") as fh:
        fh.readline()
        fh.readline()
        items = json.loads(fh.readline())

    # The input list and the result lists are the benchmark's, not the
    # program's: keep them out of the collector's scans, which would
    # otherwise land on the same op in every pass and survive the minimum.
    # Frozen objects are also left alone by the children's collections, so
    # these do not copy the parent's pages.
    gc.collect()
    gc.freeze()
    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for k, (traced, want_outputs) in enumerate(json.loads(plan)):
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                result = run_pass(k, op, warmup, items, traced, want_outputs,
                                  setup_s, base_kb)
                with open(f"{result_prefix}{k}.json", "w", encoding="utf-8") as fh:
                    json.dump(result, fh)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            print(f"pass {k} exited with {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
