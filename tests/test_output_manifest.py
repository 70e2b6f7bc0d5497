"""Every byte the commands print over the output manifest's corpus is the
committed manifest's (see ``output_manifest.py``).  A change that moves an
output on purpose rewrites the manifest with ``python
tests/output_manifest.py --update`` and says which groups moved."""

import output_manifest


def test_every_group_matches_the_committed_manifest(tmp_path):
    want = output_manifest.load()
    got = output_manifest.compute(tmp_path)
    moved = output_manifest.differences(want, got)
    assert not moved, "groups that differ:\n" + "\n".join(moved)
    assert got == want
