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
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from loglin_effects.cli import main

DATA = Path(__file__).resolve().parent / "data"
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


def compute(directory) -> dict:
    """The manifest of the corpus, its input files written to
    ``directory``."""
    directory = Path(directory)
    groups, totals = {}, {}
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
                        out, err, codes = io.StringIO(), io.StringIO(), {}
                        with redirect_stdout(out), redirect_stderr(err):
                            for name, path in files:
                                code = main([*command, "--input", path, *tail])
                                # each call's output ends in a frame that
                                # names its input file and exit code
                                out.write(f"\0{name} {code}\0")
                                err.write("\0")
                                codes[code] = codes.get(code, 0) + 1
                        digest = hashlib.sha256(repr((
                            command, tail, out.getvalue(), err.getvalue()
                        )).encode()).hexdigest()
                        for code, count in codes.items():
                            totals[code] = totals.get(code, 0) + count
                        key = group_key(stratum, fmt, command, output, policy)
                        groups[key] = {"sha256": digest,
                                       "exit_codes": _counts(codes)}
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


def _main(argv) -> int:
    if argv not in ([], ["--update"]):
        print("usage: python tests/output_manifest.py [--update]",
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
