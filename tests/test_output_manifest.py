"""Every byte the commands print over the output manifest's corpus is the
committed manifest's (see ``output_manifest.py``).  A change that moves an
output on purpose rewrites the manifest with ``python
tests/output_manifest.py --update`` and says which groups moved."""

import math

import pytest

import output_manifest


def test_every_group_matches_the_committed_manifest(tmp_path):
    want = output_manifest.load()
    got = output_manifest.compute(tmp_path)
    moved = output_manifest.differences(want, got)
    assert not moved, "groups that differ:\n" + "\n".join(moved)
    assert got == want


def test_diff_lists_each_moved_call_and_counts_them():
    # one float moved by 1 ulp, one exit code moved, one call unchanged
    text = "readme csv: fit --output text --zero-cells allow"
    json_ = "readme json: test --output json --zero-cells allow"
    old = [(text, "readme-000.csv", "deviance 0.5\n", "", 0),
           (json_, "readme-000.json", '{"z":-1.25}\n', "", 0),
           (json_, "zeros-001.json", "", "error: zero count\n", 2)]
    new = [(text, "readme-000.csv", f"deviance {math.nextafter(0.5, 1)!r}\n",
            "", 0),
           (json_, "readme-000.json", "", "fit error: no MLE\n", 2),
           (json_, "zeros-001.json", "", "error: zero count\n", 2)]
    assert output_manifest.diff_lines(old, new) == [
        f"{text} readme-000.csv: exit 0 -> 0; stdout moved; "
        "largest ulp distance 1",
        f"{json_} readme-000.json: exit 0 -> 2; stdout and stderr moved; "
        "the text around the numbers moved",
        "1 moved: fit --output text --zero-cells allow",
        "1 moved: test --output json --zero-cells allow",
        "2 of 3 calls moved, on 1 tables",
    ]


@pytest.mark.parametrize("a, b, ulps", [
    ("0.0", "-0.0", 0),
    ("5e-324", "-5e-324", 2),
    ("1.0 and 2", "1.0000000000000002 and 2", 1),
    ("x 1.0", "y 1.0", None),
])
def test_the_ulp_distance_counts_floats_between(a, b, ulps):
    assert output_manifest._largest_ulps(a, b) == ulps
