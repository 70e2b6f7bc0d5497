"""Alternated pairs of benchmark runs, a parent against a change.

    python tests/ab.py --base REV [--change REV] --workload W [W ...]
        [--pairs N] [--seed S] [--seconds T] [--claim WORKLOAD:METRIC]
        [--out PATH]

Each side is a temporary tree: ``src`` exported from its REV by a plain
local ``git archive`` (this tree's ``src`` when ``--change`` is not
given), beside a copy of this tree's ``bench`` and ``BENCHMARK.json``, so
both sides run one harness.  Neither tree holds ``__pycache__``, and every
run sets ``PYTHONDONTWRITEBYTECODE=1``.  Pair i runs ``bench/run.py
--workload W --seed S+i --seconds T --trace 0`` on both sides; the side
that runs first alternates from pair to pair.  ``--seconds`` defaults to
``BENCHMARK.json``'s ``run_seconds``.

For each workload and end-to-end metric it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side), and
a verdict (see ``verdict``).  ``--out`` writes every run and the summary as
JSON.  It exits 1 when a run is not ``correct`` or has failed ops, and 2
when a run or ``git archive`` fails; a verdict never sets the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from output_manifest import export

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
#: the two trees, in the order of the even pairs' runs
SIDES = ("base", "change")
#: what no tree gets: bytecode, and the harness's own run records
_SKIP = shutil.ignore_patterns("__pycache__", "out")


def _quartiles(values) -> tuple:
    """The median and quartiles of ``values``, within their range."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _relative(diff: float, ref: float) -> float:
    if ref:
        return diff / abs(ref)
    return 0.0 if diff == 0 else math.inf


def verdict(base, change, better: str, bound: float,
            claimed: bool = False) -> dict:
    """One metric over the pairs ``zip(base, change)``: each side's median
    and quartiles, the pairs the change won, and a verdict.

    A claimed metric is "met" when the change won at least 0.9 of the
    pairs and its median beats the parent's by more than the parent's
    quartile spread, else "not met".  Any other metric is "worse" when the
    change's median is worse than the parent's by more than ``bound``, a
    share of the parent's median; "unresolved" when the parent's spread is
    a larger share than ``bound`` and not every change run beats every
    parent run; and "ok" otherwise."""
    sign = 1.0 if better == "higher" else -1.0  # gain > 0 reads better
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b_med, b_q1, b_q3 = _quartiles(base)
    c_med, c_q1, c_q3 = _quartiles(change)
    gain = sign * (c_med - b_med)
    spread = b_q3 - b_q1
    if claimed:
        met = wins >= 0.9 * len(base) and gain > spread
        result = "met" if met else "not met"
    elif _relative(-gain, b_med) > bound:
        result = "worse"
    elif (_relative(spread, b_med) > bound
          and not min(sign * v for v in change) > max(sign * v for v in base)):
        result = "unresolved"
    else:
        result = "ok"
    return {"base": [b_med, b_q1, b_q3], "change": [c_med, c_q1, c_q3],
            "wins": wins, "pairs": len(base), "verdict": result}


def _tree(directory: Path, rev) -> bool:
    """A tree to run: ``src`` of ``rev`` (or of this tree), and this
    tree's ``bench`` and ``BENCHMARK.json``."""
    directory.mkdir()
    if rev is None:
        shutil.copytree(ROOT / "src", directory / "src", ignore=_SKIP)
    elif not export(rev, directory):
        return False
    shutil.copytree(ROOT / "bench", directory / "bench", ignore=_SKIP)
    shutil.copy(ROOT / "BENCHMARK.json", directory)
    return True


def _run(tree: Path, workload: str, seed: int, seconds: float):
    """The result line of one untraced run in ``tree``, or None after
    printing why it has none."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    print(f"run failed (exit {proc.returncode}):\n{proc.stderr}",
          file=sys.stderr)
    return None


def _claim(text: str) -> tuple:
    workload, sep, metric = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected WORKLOAD:METRIC")
    return workload, metric


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change")
    parser.add_argument("--workload", required=True, nargs="+",
                        action="extend", choices=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--claim", type=_claim)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if args.claim and (args.claim[0] not in args.workload
                       or args.claim[1] not in metrics):
        parser.error(f"--claim names no run workload and end-to-end "
                     f"metric: {':'.join(args.claim)}")

    runs, bad = [], 0
    with tempfile.TemporaryDirectory() as directory:
        trees = {side: Path(directory) / side for side in SIDES}
        if not (_tree(trees["base"], args.base)
                and _tree(trees["change"], args.change)):
            return 2
        for workload in args.workload:
            for i in range(args.pairs):
                seed = args.seed + i
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    line = _run(trees[side], workload, seed, args.seconds)
                    if line is None:
                        return 2
                    ok = line["correct"] is True and line["failed"] == 0
                    bad += not ok
                    runs.append({"workload": workload, "pair": i,
                                 "seed": seed, "side": side, **line})
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} "
                          f"{side}: op_p50_ms "
                          f"{line['metrics']['op_p50_ms']['value']:.6g}"
                          f"{'' if ok else '  NOT CORRECT OR FAILED OPS'}",
                          flush=True)

    summary = []
    print(f"\nbase {args.base}, change {args.change or 'this tree'}: "
          "median [q1, q3] per side, pairs the change won")
    for workload in args.workload:
        for name, m in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in runs
                             if r["workload"] == workload
                             and r["side"] == side] for side in SIDES}
            row = verdict(values["base"], values["change"], m["better"],
                          m["bound"], args.claim == (workload, name))
            summary.append({"workload": workload, "metric": name, **row})
            b, c = row["base"], row["change"]
            print(f"{workload:<18} {name:<15} base {b[0]:.6g} "
                  f"[{b[1]:.6g}, {b[2]:.6g}]  change {c[0]:.6g} "
                  f"[{c[1]:.6g}, {c[2]:.6g}]  better in "
                  f"{row['wins']}/{row['pairs']}  {row['verdict']}")
    if args.out:
        args.out.write_text(json.dumps(
            {"base": args.base, "change": args.change, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    if bad:
        print(f"{bad} run(s) not correct or with failed ops", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
