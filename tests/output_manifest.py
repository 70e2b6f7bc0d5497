"""The output manifest: a digest of every byte the commands print over a
fixed corpus, one SHA-256 per group of calls.

The corpus is 601 tables in four strata:

- ``bench``: the 200 tables of ``bench/inputs.generate(9901, 200)``, as
  committed in ``data/bench_tables_9901.json`` (integer counts and counts
  scaled by 10^U(6, 14));
- ``far``: 300 tables of counts 10^U(-300, 300) from ``random.Random(11)``;
- ``zeros``: 100 tables of counts drawn from {0, 0, 1, 2, 5, 40} by
  ``random.Random(12)``;
- ``readme``: the README table.

Each table is written as CSV and as JSON, and each file runs in process
through ``cli.main`` under seven command lines (``COMMANDS``), with
``--output text`` and ``json`` and with ``--zero-cells allow`` and
``correct:0.5``: 33 656 calls.  A group is one stratum, input format,
command line, output and policy (224 groups); its digest is taken over
each call's argv (the input file by its name), stdout, stderr and exit
code, in corpus order.  ``data/output_manifest.json`` holds the digests and
the exit-code counts, per group and over all calls.

``python tests/output_manifest.py`` (with ``src`` on ``PYTHONPATH``) lists
the groups that differ from the committed manifest and exits 1 if any
does; ``--update`` rewrites it.  ``tests/test_output_manifest.py`` runs the
same check in tier-1.

``--diff REV`` compares call by call instead: it exports REV's ``src`` with
``git archive`` into a temporary directory and runs these calls once on it
and once on this tree's ``src``, each in a subprocess with ``PYTHONPATH``
set to that ``src`` alone.  It prints each call whose stdout, stderr or
exit code differs, with both exit codes and the largest distance in ulps
between the numbers it prints, then a count per command line.  It exits 0
after a comparison, whatever moved, and 2 on a usage or git error.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import struct
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
DATA = TESTS / "data"
MANIFEST = DATA / "output_manifest.json"

README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)

CELLS = tuple((x, z, y) for x in (0, 1) for z in (0, 1) for y in (0, 1))

#: the command lines, each run with an input file, an output and a policy
COMMANDS = (
    ("fit",),
    ("fit", "--model", "saturated"),
    ("effects", "--verify"),
    ("effects", "--verify", "--model", "saturated", "--from", "1", "--to", "0"),
    ("test",),
    ("test", "--model", "saturated"),
    ("oracle",),
)
OUTPUTS = ("text", "json")
POLICIES = ("allow", "correct:0.5")


def corpus() -> dict:
    """The tables of each stratum, as lists of ints or floats."""
    far = random.Random(11)
    zeros = random.Random(12)
    return {
        "bench": json.loads((DATA / "bench_tables_9901.json").read_text()),
        "far": [[10.0 ** far.uniform(-300.0, 300.0) for _ in range(8)]
                for _ in range(300)],
        "zeros": [[zeros.choice((0, 0, 1, 2, 5, 40)) for _ in range(8)]
                  for _ in range(100)],
        "readme": [list(README_COUNTS)],
    }


def _csv(counts) -> str:
    return "x,z,y,count\n" + "".join(
        f"{x},{z},{y},{c!r}\n" for (x, z, y), c in zip(CELLS, counts))


def _json(counts) -> str:
    return json.dumps({"labels": ["X", "Z", "Y"], "cells": [
        {"x": x, "z": z, "y": y, "count": c}
        for (x, z, y), c in zip(CELLS, counts)]})


#: each input format's writer
WRITERS = {"csv": _csv, "json": _json}


def group_key(stratum, fmt, command, output, policy) -> str:
    return (f"{stratum} {fmt}: {' '.join(command)} --output {output} "
            f"--zero-cells {policy}")


def calls(directory):
    """Every call of the corpus, run in process through ``cli.main`` group
    by group, its input files written to ``directory``: each group's key,
    command line and tail, and its calls' ``(file name, stdout, stderr,
    exit code)`` in corpus order."""
    # imported here, so that ``export`` needs no package on the path
    from loglin_effects.cli import main

    directory = Path(directory)
    for stratum, tables in corpus().items():
        for fmt, write in WRITERS.items():
            files = []
            for i, counts in enumerate(tables):
                name = f"{stratum}-{i:03d}.{fmt}"
                (directory / name).write_text(write(counts))
                files.append((name, str(directory / name)))
            for command in COMMANDS:
                for output in OUTPUTS:
                    for policy in POLICIES:
                        tail = ("--output", output, "--zero-cells", policy)
                        results = []
                        for name, path in files:
                            out, err = io.StringIO(), io.StringIO()
                            with redirect_stdout(out), redirect_stderr(err):
                                code = main([*command, "--input", path, *tail])
                            results.append(
                                (name, out.getvalue(), err.getvalue(), code))
                        key = group_key(stratum, fmt, command, output, policy)
                        yield key, command, tail, results


def compute(directory) -> dict:
    """The manifest of the corpus, its input files written to
    ``directory``."""
    groups, totals = {}, {}
    for key, command, tail, results in calls(directory):
        codes = {}
        for _, _, _, code in results:
            codes[code] = codes.get(code, 0) + 1
            totals[code] = totals.get(code, 0) + 1
        # each call's output ends in a frame that names its input file and
        # exit code
        out = "".join(f"{o}\0{name} {code}\0" for name, o, _, code in results)
        err = "".join(f"{e}\0" for _, _, e, _ in results)
        digest = hashlib.sha256(
            repr((command, tail, out, err)).encode()).hexdigest()
        groups[key] = {"sha256": digest, "exit_codes": _counts(codes)}
    return {"calls": sum(totals.values()), "exit_codes": _counts(totals),
            "groups": groups}


def _counts(codes: dict) -> dict:
    """Exit-code counts keyed by the code as text, as JSON keeps them."""
    return {str(code): count for code, count in sorted(codes.items())}


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def differences(want: dict, got: dict) -> list:
    """The groups whose digest or exit codes differ, or that only one of
    the two manifests holds, each with what differs."""
    lines = []
    for key in sorted(want["groups"].keys() | got["groups"].keys()):
        a, b = want["groups"].get(key), got["groups"].get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in the {'new' if a is None else 'committed'} "
                         "manifest")
        elif a != b:
            codes = ("" if a["exit_codes"] == b["exit_codes"] else
                     f" (exit codes {a['exit_codes']} -> {b['exit_codes']})")
            lines.append(f"{key}: digest differs{codes}")
    return lines


#: a number as the commands print it; splitting on it leaves the text
#: around the numbers at the even places
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b)")


def _ordered(x: float) -> int:
    """The integer whose order is ``x``'s among the floats: neighbours
    differ by 1, and 0.0 and -0.0 are both 0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _largest_ulps(a: str, b: str):
    """The largest distance in ulps between the numbers of texts ``a`` and
    ``b`` taken in order, or ``None`` when the text around them differs."""
    a, b = _NUMBER.split(a), _NUMBER.split(b)
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    return max((abs(_ordered(float(x)) - _ordered(float(y)))
                for x, y in zip(a[1::2], b[1::2])), default=0)


def diff_lines(old, new) -> list:
    """The report of ``--diff``: each call whose output or exit code moved
    from ``old`` to ``new``, two lists of ``(group key, file name, stdout,
    stderr, exit code)`` in the same order, then the moved calls per command
    line and in total."""
    lines, per_line, tables, total = [], {}, set(), 0
    for (key, name, *was), (new_key, new_name, *now) in zip(old, new,
                                                           strict=True):
        if (key, name) != (new_key, new_name):
            raise ValueError(f"the runs differ in order: {key} {name} "
                             f"against {new_key} {new_name}")
        total += 1
        if was == now:
            continue
        ulps = _largest_ulps(was[0] + "\0" + was[1], now[0] + "\0" + now[1])
        moved = [part for part, a, b in zip(("stdout", "stderr"), was, now)
                 if a != b]
        lines.append(
            f"{key} {name}: exit {was[2]} -> {now[2]}"
            + (f"; {' and '.join(moved)} moved" if moved else "")
            + ("; the text around the numbers moved" if ulps is None
               else f"; largest ulp distance {ulps}"))
        command_line = key.partition(": ")[2]
        per_line[command_line] = per_line.get(command_line, 0) + 1
        tables.add(name.rpartition(".")[0])
    lines += [f"{count} moved: {command_line}"
              for command_line, count in sorted(per_line.items())]
    moved = sum(per_line.values())
    lines.append(f"{moved} of {total} calls moved, on {len(tables)} tables")
    return lines


#: the harness's calls on the ``src`` that ``PYTHONPATH`` names, one JSON
#: list per call; run from the tests directory (argument 1), and it stops
#: if the package comes from elsewhere than that ``src`` (argument 2)
_CHILD = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import loglin_effects, output_manifest
if not loglin_effects.__file__.startswith(sys.argv[2]):
    sys.exit(f"loglin_effects imported from {loglin_effects.__file__}")
with tempfile.TemporaryDirectory() as directory:
    for key, _, _, results in output_manifest.calls(directory):
        for call in results:
            print(json.dumps([key, *call]))
"""


def _run(src: Path, directory) -> subprocess.Popen:
    """A subprocess that runs the harness's calls on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(TESTS), str(src) + os.sep],
        stdout=subprocess.PIPE, text=True, env=env, cwd=directory)


def export(rev: str, directory) -> bool:
    """Extract ``src`` of ``rev`` into ``directory`` by a plain local
    ``git archive``; False, after printing git's message, if that fails."""
    try:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"],
            capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None)
        print(f"git archive {rev} src failed: "
              f"{detail.decode().strip() if detail else exc}",
              file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:
            tar.extractall(directory)
    return True


def _diff(rev: str) -> int:
    with tempfile.TemporaryDirectory() as directory:
        if not export(rev, directory):
            return 2
        children = [_run(src, directory)
                    for src in (Path(directory) / "src", ROOT / "src")]
        failure = None
        try:
            lines = diff_lines(*(map(json.loads, child.stdout)
                                 for child in children))
        except ValueError as exc:  # a run ended early or out of order
            failure = exc
        for child in children:
            child.stdout.close()  # a run still writing stops
            child.wait()
    if failure or any(child.returncode for child in children):
        print(f"a run of the calls failed: {failure or 'see above'}",
              file=sys.stderr)
        return 2
    print(f"--diff {rev}: calls whose output moved from {rev} to this tree")
    print(*lines, sep="\n")
    return 0


def _main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--diff" and not argv[1].startswith("-"):
        return _diff(argv[1])
    if argv not in ([], ["--update"]):
        print("usage: python tests/output_manifest.py [--update | --diff REV]",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as directory:
        got = compute(directory)
    if argv == ["--update"]:
        MANIFEST.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {MANIFEST.name}: {got['calls']} calls, "
              f"exit codes {got['exit_codes']}")
        return 0
    lines = differences(load(), got)
    if lines:
        print(*lines, sep="\n")
        return 1
    print(f"{got['calls']} calls in {len(got['groups'])} groups: no difference")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
