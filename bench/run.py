"""The loglin-effects benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload effects-twoway --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree; it tests the package under
``src/``.  A run starts fresh worker processes (``worker.py``) one after
the other; each imports the package and warms up (its set-up time), then
forks one child per pass, and a pass runs the whole input list once.  An
op's latency is its best time over all passes, so host contention, which
comes and goes over seconds, is filtered out per op.  No input repeats
inside a process.  See ``README.md`` beside this file for the workloads
and metrics.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it, and ``bench/out/<workload>-s<seed>-trace<k>.json``,
give the error breakdown, the tail percentile and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
import spans  # noqa: E402

#: why each workload exists is in README.md; ``rate`` is the nominal ops
#: per second that sizes the input list to ``--seconds``; an untraced run
#: starts ``workers`` fresh processes, each forking ``passes`` passes.
#: The short-op workloads take more passes over fewer tables: in a slow
#: host phase most samples are slowed, and an op whose samples all are
#: lifts the tail, so each op needs many samples.
WORKLOADS = {
    "effects-twoway": {"rate": 750, "workers": 12, "passes": 9},
    "effects-saturated": {"rate": 2900, "workers": 12, "passes": 12},
    "inference-twoway": {"rate": 500, "workers": 12, "passes": 6},
    "cli": {"rate": 210, "workers": 12, "passes": 6},
}
#: a traced run is one worker whose passes alternate untraced and traced
TRACE_PASSES = (False, True) * 10
#: a run starts no new worker after this multiple of ``--seconds`` (at
#: least 2 run), which bounds a run on a slow host
DEADLINE_FACTOR = 1.1
CHILD_TIMEOUT_S = 150
CLI_COMMANDS = ("effects", "test", "fit")
#: the table of the package's README, the warm-up op's input
README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": read_loadavg(),
    }


# ---------------------------------------------------------------------------
# children


def run_worker(workdir: Path, w: int, plan: list) -> list:
    """One fresh worker process running ``plan``; its pass results in order.

    The worker runs in a session of its own, so that on a timeout or an
    interrupt it is killed together with the pass it forked.
    """
    prefix = workdir / f"w{w}-pass"
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(SRC),
         str(workdir / "inputs.json"), str(prefix), json.dumps(plan)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {w} failed:\n{err[-2000:]}")
    results = []
    for k in range(len(plan)):
        path = Path(f"{prefix}{k}.json")
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
        path.unlink()
    return results


def probe(args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)


def first_import() -> None:
    """Import the package once, which fills ``__pycache__`` and proves it imports."""
    proc = probe(["-c", "import loglin_effects.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import loglin_effects.cli:\n{proc.stderr}")


def import_profile() -> dict:
    """Interpreter start and import times of ``loglin_effects.cli``, in ms."""
    t0 = time.perf_counter()
    probe(["-c", "pass"])
    interp_ms = (time.perf_counter() - t0) * 1e3
    proc = probe(["-X", "importtime", "-c", "import loglin_effects.cli"])
    numpy_ms = pkg_ms = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        if name == "numpy":
            numpy_ms = cum_us / 1e3
        if name == "loglin_effects" or name.startswith("loglin_effects."):
            pkg_ms += self_us / 1e3
    return {"cli.interpreter_ms": interp_ms, "cli.import.numpy_ms": numpy_ms,
            "cli.import.loglin_effects_ms": pkg_ms}


# ---------------------------------------------------------------------------
# checks


def check_effects(saturated: bool, out: dict, counts) -> str:
    if saturated:
        return "ok" if inputs.check_exact(out["report"], counts) <= inputs.RTOL \
            else "exact_miss"
    cp = dict(zip(("xc", "zc", "xzc", "y", "xy", "zy", "xzy"), out["cp"]))
    fitted = inputs.fitted_from_causal(cp, counts)
    return "ok" if inputs.margin_error(fitted, counts) <= inputs.RTOL \
        else "margin_miss"


def check_inference(out: dict, counts) -> str:
    if inputs.margin_error(out["fitted"], counts) > inputs.RTOL:
        return "margin_miss"
    se = math.sqrt(inputs.contrast_variance(out["fitted"]))
    if inputs.rel_err(out["se"], se) > inputs.RTOL:
        return "se_miss"
    if abs(out["bond1"] - out["beta"]) > inputs.RTOL * max(1.0, abs(out["beta"])):
        return "bond_miss"
    return "ok"


class CliExpectation:
    """Library results the CLI's JSON output must reproduce."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import loglin_effects as lib
        self.lib = lib

    def table(self, counts):
        return self.lib.validate(self.lib.ContingencyTable(counts), "correct", 0.5)

    def check(self, cmd: str, stdout: str, counts) -> str:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return "output_miss"
        fixed = inputs.corrected(counts)
        if cmd == "fit":
            fitted = doc["loglinear"]["fitted_counts"]
            return "ok" if inputs.margin_error(fitted, fixed) <= inputs.RTOL \
                else "margin_miss"
        lib = self.lib
        if cmd == "effects":
            rep = lib.effects_report(lib.fit_causal(self.table(counts)))
            want = {"TE": rep.te, "IE": rep.ie, "NDE": rep.nde,
                    "IE_reverse": rep.ie_reverse,
                    "multiplicative_interaction": rep.multiplicative_interaction}
            got = {k: doc[k] for k in want}
            for z in (0, 1):
                want[f"LDE{z}"], got[f"LDE{z}"] = rep.lde[z], doc["LDE"][f"z{z}"]
                want[f"cell{z}"], got[f"cell{z}"] = rep.cell[z], doc["cell"][f"z{z}"]
        else:
            fit = lib.fit_poisson(self.table(counts), lib.two_way_spec())
            res = lib.additive_zero_test(fit)
            want = {"se": res.se, "beta_hat": res.beta_hat}
            got = {k: doc["additive_zero_test"][k] for k in want}
        worst = max(inputs.rel_err(got[k], w) for k, w in want.items())
        return "ok" if worst <= inputs.RTOL else "output_miss"


def cli_argv(cmd: str, path: Path) -> list:
    argv = [cmd, "--input", str(path), "--zero-cells", "correct:0.5",
            "--output", "json"]
    return argv + ["--verify"] if cmd == "effects" else argv


def cli_items(tables, workdir: Path) -> tuple:
    """(warm-up argvs, one per command on the README table; op argvs)."""
    warm = workdir / "warmup.csv"
    warm.write_text(inputs.to_csv(README_COUNTS))
    items = []
    for i, t in enumerate(tables):
        fmt = "csv" if i % 2 == 0 else "json"
        path = workdir / f"t{i}.{fmt}"
        path.write_text(inputs.to_csv(t["counts"]) if fmt == "csv"
                        else inputs.to_json(t["counts"]))
        items.append(cli_argv(CLI_COMMANDS[i % len(CLI_COMMANDS)], path))
    return [cli_argv(cmd, warm) for cmd in CLI_COMMANDS], items


# ---------------------------------------------------------------------------
# passes


def passes(workdir, plans, deadline) -> tuple:
    """Run one worker per plan, a list of (traced, want outputs) per pass.

    Returns the pass results in order and each worker's set-up time.
    """
    results, setups = [], []
    for w, plan in enumerate(plans):
        if w >= 2 and time.perf_counter() > deadline:
            break
        got = run_worker(workdir, w, plan)
        results += got
        setups.append(got[0]["setup_s"])
    return results, setups


def best_times(results) -> list:
    return [min(ts) for ts in zip(*(r["times_ns"] for r in results))]


def outcomes_of(workload, results, tables, items) -> tuple:
    """Per-op outcome after the checks, and whether the passes agreed."""
    first = results[0]
    agree = all(o == o0 for r in results
                for o, o0 in zip(r["outcomes"], first["outcomes"]))
    expect = CliExpectation() if workload == "cli" else None
    out = []
    for i, t in enumerate(tables):
        outcome = first["outcomes"][i]
        result = first["outputs"][i]
        counts = inputs.corrected(t["counts"])
        if outcome == "ok":
            if workload == "inference-twoway":
                outcome = check_inference(result, counts)
            elif workload == "cli":
                outcome = expect.check(items[i][0], result["stdout"], t["counts"])
            else:
                outcome = check_effects(workload == "effects-saturated",
                                        result, counts)
        out.append(outcome)
    return out, agree


# ---------------------------------------------------------------------------
# metrics


def tail(values) -> tuple:
    """The highest percentile with at least 10 samples above it."""
    s = sorted(values)
    n = len(s)
    k = max(n - 11, 0)
    return s[k], 100.0 * (k + 1) / n


def end_to_end(best_ns, outcomes, setups, rss_kb) -> tuple:
    """Throughput over the time of all ops; latency over verified ops.

    A failed op counts against ``verified_share`` and ``ops_per_s``; it is
    left out of the latency percentiles, where it would count as missing
    any latency limit.
    """
    n = len(best_ns)
    ok_ns = [t for t, o in zip(best_ns, outcomes) if o == "ok"]
    failed = n - len(ok_ns)
    tail_ns, tail_pct = tail(ok_ns)
    metrics = {
        "ops_per_s": (n - failed) / (sum(best_ns) / 1e9),
        "op_p50_ms": statistics.median(ok_ns) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "verified_share": (n - failed) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss_kb) / 1024,
    }
    return metrics, {"tail_percentile": tail_pct, "tail_samples": len(ok_ns)}


def per_layer(results, plan, n, outcomes, profile) -> dict:
    untraced = [r for r, (t, _) in zip(results, plan) if not t]
    traced = [r for r, (t, _) in zip(results, plan) if t]
    overhead = sum(best_times(traced)) / sum(best_times(untraced)) - 1.0

    per_pass = [spans.per_op_stage_self(r["spans"]) for r in traced]
    self_us = {}
    for stage in spans.STAGES + (spans.OP_STAGE,):
        total = 0
        for op in range(n):
            total += min(p.get((op, stage), 0) for p in per_pass)
        self_us[stage] = total / n / 1e3

    records = traced[0]["spans"]
    calls = {}
    for rec in records:
        calls[rec[spans.NAME]] = calls.get(rec[spans.NAME], 0) + 1
    fits = [r[spans.ATTRS] for r in records if r[spans.NAME] == "fitting.fit_poisson"]
    iters = [a["iterations"] for a in fits
             if a and a.get("iterations") is not None]
    fit_errors = sum(1 for a in fits if a and "error" in a)
    validates = [r[spans.ATTRS] for r in records if r[spans.NAME] == "tables.validate"]
    changed = sum(1 for a in validates if a and a.get("changed"))
    oracle_errs = [e for e in untraced[0]["oracle_err"] if e is not None]

    m = {f"{stage}.self_us": self_us[stage] for stage in spans.STAGES}
    m["bench.op.self_us"] = self_us[spans.OP_STAGE]
    m.update({
        "tables.validate.changed_share": changed / len(validates) if validates else 0.0,
        "fitting.fit_poisson.calls_per_op": calls.get("fitting.fit_poisson", 0) / n,
        "fitting.fit_poisson.iterations_mean": statistics.fmean(iters) if iters else 0.0,
        "fitting.fit_poisson.iterations_max": max(iters, default=0),
        "fitting.fit_poisson.errors": fit_errors,
        "causal.conditional_probabilities.calls_per_op":
            calls.get("causal.conditional_probabilities", 0) / n,
        "oracle.max_rel_err": max(oracle_errs, default=0.0),
        "ops.error_rate": sum(o != "ok" for o in outcomes) / n,
        "trace.overhead_share": overhead,
    })
    m.update(profile)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "loglin_effects" / "__init__.py").is_file():
        print(f"error: no package under test at {SRC / 'loglin_effects'}",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
    spec = WORKLOADS[args.workload]
    samples = spec["workers"] * spec["passes"]
    n = max(int(args.seconds * spec["rate"] / samples), 20)
    env = environment(args.seed)
    tables = inputs.generate(args.seed, n)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        first_import()
        if args.workload == "cli":
            warmup, items = cli_items(tables, workdir)
        else:
            warmup = [inputs.to_csv(README_COUNTS)]
            items = [inputs.to_csv(t["counts"]) for t in tables]
        with open(workdir / "inputs.json", "w", encoding="utf-8") as fh:
            fh.write(args.workload + "\n")
            fh.write(json.dumps(warmup) + "\n")
            fh.write(json.dumps(items) + "\n")

        if args.trace:
            plans = [[(t, k == 0) for k, t in enumerate(TRACE_PASSES)]]
        else:
            plans = [[(False, w == 0 and k == 0) for k in range(spec["passes"])]
                     for w in range(spec["workers"])]
        results, setups = passes(workdir, plans, deadline)
        plan = [p for ps in plans for p in ps][:len(results)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, agree = outcomes_of(args.workload, results, tables, items)
    failed = sum(o != "ok" for o in outcomes)
    breakdown = {}
    for o in outcomes:
        if o != "ok":
            breakdown[o] = breakdown.get(o, 0) + 1
    crashed = any(o.startswith("crash") for o in outcomes)

    if args.trace:
        probes = [import_profile() for _ in range(3)]
        profile = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
        metrics = per_layer(results, plan, n, outcomes, profile)
        extra = {}
    else:
        metrics, extra = end_to_end(best_times(results), outcomes, setups,
                                    [r["maxrss_kb"] for r in results])
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    env["loadavg_end"] = read_loadavg()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tables": n, "passes": len(results), "error_rate": failed / n,
        "errors": breakdown, "passes_agree": agree, **extra,
        "metrics": metrics, "environment": env,
    }
    with open(OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  tables {n}  "
          f"passes {len(results)}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<46} {value:.6g} {units[name]}")
    print(f"  error_rate {failed / n:.6g}  ({failed} of {n}: "
          + ", ".join(f"{k} {v}" for k, v in sorted(breakdown.items())) + ")")
    if extra:
        print(f"  op_tail_ms is p{extra['tail_percentile']:.2f} of "
              f"{extra['tail_samples']} ops")
    print("  environment " + json.dumps(env, sort_keys=True))

    line = {
        "correct": agree and not crashed,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
