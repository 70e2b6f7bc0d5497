import csv
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CELLS,
    ContingencyTable,
    JointProbabilityTable,
    TableError,
    joint_probabilities,
    parse_table,
    serialize_table,
    validate,
)
from loglin_effects import tables
from conftest import record_outcome

CSV_FULL = "x,z,y,count\n" + "".join(
    f"{x},{z},{y},{4*x+2*z+y+1}\n" for x, z, y in CELLS
)


def _reference_coerce_level(raw, what):
    try:
        v = int(str(raw).strip())
    except (TypeError, ValueError):
        raise TableError(f"non-binary level for {what}: {raw!r}") from None
    if v not in (0, 1):
        raise TableError(f"non-binary level for {what}: {raw!r}")
    return v


def _reference_coerce_count(raw):
    try:
        c = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise TableError(f"malformed count {raw!r}") from None
    if not math.isfinite(c):
        raise TableError(f"non-finite count {raw!r}")
    if c < 0:
        raise TableError(f"negative count {raw!r}")
    return c


def reference_parse_csv(text):
    """The counts of a CSV table, by the earlier row-by-row parser.

    A plain transcription of that parser and of the table constructor's
    checks, kept as the reference ``parse_table`` must agree with on every
    input: the same counts, bit for bit, or the same ``TableError`` message.
    """
    try:
        rows = [row for row in csv.reader(io.StringIO(text))
                if row and any(f.strip() for f in row)]
    except csv.Error as exc:
        raise TableError(f"malformed CSV: {exc}") from None
    if not rows:
        raise TableError("empty CSV input")
    header = [h.strip().lower() for h in rows[0]]
    if header != ["x", "z", "y", "count"]:
        raise TableError(f"expected header x,z,y,count, got {rows[0]!r}")
    seen = {}
    for row in rows[1:]:
        if len(row) != 4:
            raise TableError(f"malformed record {row!r}")
        x = _reference_coerce_level(row[0], "x")
        z = _reference_coerce_level(row[1], "z")
        y = _reference_coerce_level(row[2], "y")
        c = _reference_coerce_count(row[3])
        if (x, z, y) in seen:
            raise TableError(f"duplicate cell ({x},{z},{y})")
        seen[(x, z, y)] = c
    counts = [0.0] * 8
    for (x, z, y), c in seen.items():
        counts[4 * x + 2 * z + y] = c
    total = sum(counts)
    if not math.isfinite(total):
        raise TableError("table total overflows")
    if total <= 0:
        raise TableError("table total must be positive")
    return counts


def _outcome(parse, text):
    """``("ok", cell bits)`` or ``("error", message)`` of one parse."""
    try:
        counts = parse(text)
    except TableError as exc:
        return "error", str(exc)
    return "ok", [float.hex(c) for c in counts]


#: CSV-like text: the header's pieces, levels, signs, exponents, quotes,
#: both line ends and stray characters, joined in any order
CSV_TOKENS = (list("0123456789,\n\r\" +_.e-xzy")
              + ["count", "x,z,y,count\n", "\n0,1,1,", "\n1,0,", "\r\n"])
csv_like = st.tuples(
    st.sampled_from(["", "x,z,y,count\n", " X , Z,y ,COUNT\r\n", '"x",z,y,count']),
    st.lists(st.sampled_from(CSV_TOKENS), max_size=40),
).map(lambda parts: parts[0] + "".join(parts[1]))


def positive_counts():
    return st.lists(
        st.floats(min_value=0.1, max_value=1e4), min_size=8, max_size=8
    )


class TestParse:
    @pytest.mark.parametrize("text, fmt", [
        (CSV_FULL, "csv"),
        (json.dumps({"cells": [4 * x + 2 * z + y + 1 for x, z, y in CELLS]}),
         "json"),
        (json.dumps({"cells": [{"x": x, "z": z, "y": y,
                                "count": 4 * x + 2 * z + y + 1}
                               for x, z, y in CELLS]}), "json"),
    ], ids=["csv", "json-flat", "json-objects"])
    def test_leading_byte_order_mark_is_ignored(self, text, fmt):
        # as spreadsheet programs write "CSV UTF-8", in bytes or decoded
        want = parse_table(text, fmt).counts
        for source in ("\ufeff" + text, ("\ufeff" + text).encode()):
            assert parse_table(source, fmt).counts == want

    def test_csv_all_cells(self):
        t = parse_table(CSV_FULL, "csv")
        assert t.total == 36
        assert t.count(1, 1, 1) == 8

    def test_csv_missing_cells_filled_with_zero(self):
        text = "x,z,y,count\n0,0,0,1\n0,0,1,2\n0,1,0,3\n0,1,1,4\n"
        t = parse_table(text, "csv")
        assert t.count(0, 1, 1) == 4
        assert all(t.count(1, z, y) == 0 for z in (0, 1) for y in (0, 1))

    def test_input_order_independence(self):
        shuffled = "x,z,y,count\n1,1,1,8\n0,0,0,1\n0,0,1,2\n"
        t = parse_table(shuffled, "csv")
        assert t.counts[0] == 1 and t.counts[1] == 2 and t.counts[7] == 8

    def test_non_binary_level_rejected(self):
        with pytest.raises(TableError, match="non-binary level"):
            parse_table("x,z,y,count\n2,0,0,1\n", "csv")

    def test_duplicate_cell_rejected(self):
        with pytest.raises(TableError, match="duplicate"):
            parse_table("x,z,y,count\n0,0,0,1\n0,0,0,2\n", "csv")

    def test_negative_count_rejected(self):
        with pytest.raises(TableError, match="negative"):
            parse_table("x,z,y,count\n0,0,0,-1\n", "csv")

    def test_json_object_cells(self):
        doc = (
            '{"labels": ["a","b","c"], "cells": ['
            + ",".join(
                f'{{"x":{x},"z":{z},"y":{y},"count":{4*x+2*z+y+1}}}'
                for x, z, y in CELLS
            )
            + "]}"
        )
        t = parse_table(doc, "json")
        assert t.total == 36
        assert t.labels == ("a", "b", "c")

    def test_json_flat_array(self):
        t = parse_table('{"cells": [1,2,3,4,5,6,7,8]}', "json")
        assert t.counts == tuple(float(i) for i in range(1, 9))

    def test_bytes_and_crlf_accepted(self):
        t = parse_table(CSV_FULL.replace("\n", "\r\n").encode(), "csv")
        assert t.total == 36

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_like_source_reads_as_bytes(self, wrap, fmt):
        data = serialize_table(ContingencyTable(tuple(range(1, 9))),
                               fmt).encode()
        assert parse_table(wrap(data), fmt) == parse_table(data, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stream_source_reads_as_its_content(self, fmt):
        text = serialize_table(ContingencyTable(tuple(range(1, 9))), fmt)
        want = parse_table(text, fmt)
        assert parse_table(io.StringIO(text), fmt) == want
        assert parse_table(io.BytesIO(text.encode()), fmt) == want

    def test_json_keeps_the_labels(self):
        t = ContingencyTable(tuple(range(1, 9)), labels=("A", "B", "C"))
        again = parse_table(serialize_table(t, "json"), "json")
        assert again == t and again.labels == ("A", "B", "C")

    def test_unknown_serialization_format_rejected(self):
        with pytest.raises(TableError) as exc:
            serialize_table(ContingencyTable((1,) * 8), "xml")
        assert str(exc.value) == "unknown table format 'xml'"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip(self, fmt, rng):
        t = ContingencyTable(tuple(rng.uniform(0.5, 50, 8)))
        assert parse_table(serialize_table(t, fmt), fmt).counts == pytest.approx(
            t.counts, abs=0
        )


    @pytest.mark.parametrize(
        "doc",
        [
            '{"cells": 5}',
            '{"cells": {"x": 0}}',
            '{"cells": [1,2,3,4,5,6,7,8], "labels": 7}',
            '{"cells": [1,2,3,4,5,6,7,8], "labels": "abc"}',
            '{"cells": [1,2,3,4,5,6,7,8], "labels": ["a", "b"]}',
            '{"cells": [1,2,3,4,5,6,7,8], "labels": ["a", "b", 3]}',
        ],
    )
    def test_json_cells_and_labels_shape_rejected(self, doc):
        with pytest.raises(TableError):
            parse_table(doc, "json")

    def test_list_labels_are_stored_as_a_tuple(self):
        listed = ContingencyTable(range(1, 9), labels=["A", "B", "C"])
        tupled = ContingencyTable(range(1, 9), labels=("A", "B", "C"))
        assert listed.labels == ("A", "B", "C")
        assert listed == tupled and hash(listed) == hash(tupled)

    def test_json_null_labels_mean_none(self):
        t = parse_table('{"cells": [1,2,3,4,5,6,7,8], "labels": null}', "json")
        assert t.labels is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.text(), st.binary()),
        st.sampled_from(["csv", "json"]),
    )
    @example('{"cells": 5}', "json")
    @example('{"cells": [1,2,3,4,5,6,7,8], "labels": 7}', "json")
    @example('{"cells": [1,2,3,4,5,6,7,8], "labels": "abc"}', "json")
    @example('{"cells": [1e308,1e308,1,1,1,1,1,1]}', "json")
    @example("x,z,y,count\n0,0,0,1e308\n0,0,1,1e308\n", "csv")
    @example('{"cells": [1%s,1,1,1,1,1,1,1]}' % ("0" * 400), "json")
    @example('{"cells": [1%s,1,1,1,1,1,1,1]}' % ("0" * 5000), "json")
    @example("[" * 100000, "json")
    @example(b"\xff\xfe", "csv")
    @example("\r0", "csv")
    @example('"%s"' % ("a" * 200000), "csv")
    def test_parse_raises_only_table_error(self, source, fmt):
        try:
            t = parse_table(source, fmt)
        except TableError:
            return
        assert len(t.counts) == 8 and math.isfinite(t.total)
        assert t.labels is None or (
            len(t.labels) == 3 and all(isinstance(s, str) for s in t.labels)
        )


class TestParseAgainstReference:
    @settings(max_examples=1500, deadline=None)
    @given(csv_like)
    @example("")
    @example("x,z,y,count\n 1,0,0,5\n01,0,1,2\n+1,1,1,3\n")
    @example("x,z,y,count\n1,0,0,5\n 1 ,0,0,2\n")
    @example("x,z,y,count\n1_0,0,0,5\n")
    @example("x,z,y,count\n1,0,0,-0\n")
    @example("x,z,y,count\n1,0,0,5\n1,0,0,-1\n")
    @example("x,z,y,count\n1,0,0,1e308\n1,1,0,1e308\n")
    @example('x,z,y,count\r\n"1",0,"0",2\r\n\r\n , ,,\n0,0,0,"3"\n')
    @example("x,z,y,count\n\r0")
    def test_csv_matches_the_reference(self, text):
        new = _outcome(lambda s: parse_table(s, "csv").counts, text)
        assert new == _outcome(reference_parse_csv, text)

    @pytest.mark.parametrize("level", [True, False, 1.0, "1", " 1", 2, 0, 1, None])
    def test_json_level_matches_the_reference(self, level):
        doc = json.dumps({"cells": [{"x": level, "z": 1, "y": 1, "count": 5}]})
        try:
            x = _reference_coerce_level(level, "x")
        except TableError as exc:
            with pytest.raises(TableError) as got:
                parse_table(doc, "json")
            assert str(got.value) == str(exc)
            return
        counts = [0.0] * 8
        counts[4 * x + 3] = 5.0
        assert parse_table(doc, "json").counts == tuple(counts)


#: count fields a CSV reader or ``float`` may take apart, each of them alone
#: or joined: the empty field, spaces, ``_``, signs, exponents, nan and inf,
#: -0, a subnormal, a 1e308 whose pair overflows the total, quotes, commas,
#: a carriage return, a line end and non-ASCII digits and spaces
COUNT_TOKENS = ["", " ", "_", "+", "-", "e", "E", "0", "1", "5", ".", "nan",
                "NaN", "inf", "-inf", "Infinity", "-0", "1e-320", "1e308",
                "1E+308", '"', ",", "\r", "\n", "\u0661", "\uff15", "\u00a0",
                "\x0c"]
hostile_count = st.one_of(
    st.lists(st.sampled_from(COUNT_TOKENS), max_size=4).map("".join),
    st.floats().map(repr),
)
plain_count = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.integers(min_value=0, max_value=10**6).map(str),
)


def _canonical_text(counts, hostile, end):
    counts = [hostile.get(i, c) for i, c in enumerate(counts)]
    return "x,z,y,count" + "".join(
        f"\n{x},{z},{y},{c}" for (x, z, y), c in zip(CELLS, counts)) + end


#: the canonical layout, with or without its final line end, with plain
#: counts of which up to three, in any positions, are hostile
canonical_like = st.builds(
    _canonical_text,
    st.lists(plain_count, min_size=8, max_size=8),
    st.dictionaries(st.integers(0, 7), hostile_count, max_size=3),
    st.sampled_from(["", "\n"]),
)

#: a count ``float`` accepts in a field the CSV reader refuses as too long
LONG_COUNT = "0." + "0" * 140000 + "1"
README_CSV = ("x,z,y,count\n0,0,0,42\n0,0,1,18\n0,1,0,25\n0,1,1,31\n"
              "1,0,0,17\n1,0,1,23\n1,1,0,12\n1,1,1,48\n")


def _with_count(i, count, text=README_CSV):
    """``text`` in the canonical layout with the count of cell ``i`` replaced."""
    lines = text.split("\n")
    lines[i + 1] = lines[i + 1].rsplit(",", 1)[0] + "," + count
    return "\n".join(lines)


class TestOneMatchPath:
    """A canonical CSV text is read in one match, any other by the rows:
    both give the reference's counts, bit for bit, or its message."""

    @settings(max_examples=1500, deadline=None)
    @given(canonical_like)
    @example(_with_count(3, LONG_COUNT))
    @example(_with_count(7, "nan"))
    @example(_with_count(0, "nan"))
    @example(_with_count(5, "-0"))
    @example(_with_count(2, "1e-320"))
    @example(_with_count(6, "1e308", _with_count(1, "1e308")))
    @example(_with_count(4, ""))
    @example(_with_count(4, " 1_7 "))
    @example(_with_count(4, '"17"'))
    @example(_with_count(4, "\u0661\u0667"))
    @example(_with_count(1, "\r1"))
    @example(_with_count(1, "1\r "))
    @example(README_CSV.rstrip("\n"))
    @example(_canonical_text(["0"] * 8, {}, "\n"))  # a total of 0
    @example(_with_count(3, "-1"))
    @example(_with_count(3, "inf"))
    @example(_with_count(3, "1e400"))
    @example(_with_count(3, "abc"))
    def test_canonical_layout_matches_the_reference(self, text):
        new = _outcome(lambda s: parse_table(s, "csv").counts, text)
        want = _outcome(reference_parse_csv, text)
        assert new == want
        if want[0] == "ok":
            # the table built directly is the constructor's: its type, no
            # labels, and every count an exact float
            table = parse_table(text, "csv")
            assert type(table) is ContingencyTable and table.labels is None
            assert table == ContingencyTable(reference_parse_csv(text))
            assert all(type(c) is float for c in table.counts)

    def test_field_over_the_limit_is_refused(self):
        with pytest.raises(TableError) as got:
            parse_table(_with_count(3, LONG_COUNT), "csv")
        assert str(got.value) == ("malformed CSV: field larger than field "
                                  f"limit ({csv.field_size_limit()})")

    @pytest.fixture
    def row_reads(self, monkeypatch):
        calls = []
        real = tables._parse_csv_rows

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(tables, "_parse_csv_rows", counting)
        return calls

    @pytest.mark.parametrize("text", [
        README_CSV,
        README_CSV.rstrip("\n"),
        serialize_table(ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))),
        serialize_table(ContingencyTable(
            (0.1, 1e-300, 2.5e-7, 1 / 3, 0.0, 7e12, 1.7976931348623157e+300, 5.0))),
    ], ids=["readme", "readme-no-final-newline", "serialized", "repr-floats"])
    def test_canonical_text_takes_one_match(self, row_reads, text):
        assert parse_table(text, "csv").counts == tuple(reference_parse_csv(text))
        assert row_reads == []

    @pytest.mark.parametrize("text", [
        "x,z,y,count\n1,1,1,48\n0,0,0,42\n0,0,1,18\n0,1,0,25\n0,1,1,31\n"
        "1,0,0,17\n1,0,1,23\n1,1,0,12\n",
        README_CSV.replace("\n", "\r\n"),
        README_CSV.replace(",42\n", ',"42"\n'),
        README_CSV.replace("x,z,y,count", "X,Z,Y,COUNT"),
        README_CSV.replace("0,1,0,25", " 0 , 1 , 0 , 25 "),
        README_CSV + "\n",
    ], ids=["shuffled", "crlf", "quoted", "upper-case-header", "spaces",
            "blank-line"])
    def test_other_text_is_read_by_rows_once(self, row_reads, text):
        assert parse_table(text, "csv").counts == (42, 18, 25, 31, 17, 23, 12, 48)
        assert row_reads == [text]

    def test_canonical_text_after_a_byte_order_mark_takes_one_match(
            self, row_reads):
        for source in ("\ufeff" + README_CSV, ("\ufeff" + README_CSV).encode()):
            assert parse_table(source, "csv").counts == (
                42, 18, 25, 31, 17, 23, 12, 48)
        assert row_reads == []

    @pytest.mark.parametrize("count, message", [
        ("nan", "non-finite count 'nan'"),
        ("1e400", "non-finite count '1e400'"),
        ("-1", "negative count '-1'"),
        ("", "malformed count ''"),
    ])
    def test_rejected_count_is_read_by_rows_once(self, row_reads, count, message):
        text = _with_count(6, count)
        with pytest.raises(TableError) as got:
            parse_table(text, "csv")
        assert str(got.value) == message
        assert row_reads == [text]


def reference_parse_json(text):
    """The table of a JSON text, by the earlier entry-by-entry reader.

    A transcription of that reader, kept as the reference the JSON reader
    must agree with on every input: the same table, labels included, or
    the same ``TableError`` message.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TableError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise TableError("JSON table must be an object with a 'cells' list")
    labels = doc.get("labels")
    cells = doc["cells"]

    def count(raw):
        if raw is True or raw is False:
            raise TableError(f"malformed count {raw!r}")
        return _reference_coerce_count(raw)

    if len(cells) == 8 and not any(isinstance(c, dict) for c in cells):
        return ContingencyTable([count(c) for c in cells], labels=labels)
    counts = [0.0] * 8
    seen = set()
    for entry in cells:
        if not isinstance(entry, dict):
            raise TableError(f"malformed cell entry {entry!r}")
        levels = []
        for name in ("x", "z", "y"):
            raw = entry.get(name)
            # an int 0 or 1 is its level; a bool is not
            levels.append(raw if type(raw) is int and raw in (0, 1)
                          else _reference_coerce_level(raw, name))
        c = count(entry.get("count"))
        if tuple(levels) in seen:
            raise TableError("duplicate cell ({},{},{})".format(*levels))
        seen.add(tuple(levels))
        x, z, y = levels
        counts[4 * x + 2 * z + y] = c
    return ContingencyTable(counts, labels=labels)


def _table_outcome(parse, text):
    """``("ok", cell bits, labels)`` or ``("error", message)`` of one parse."""
    try:
        table = parse(text)
    except TableError as exc:
        return "error", str(exc)
    return "ok", [float.hex(c) for c in table.counts], table.labels


def _json_table(counts=(42, 18, 25, 31, 17, 23, 12, 48), levels=None,
                cells=None, **doc):
    """The JSON text of a document with ``doc``'s keys and object cells in
    ``CELLS`` order: ``counts``, the levels of each cell (``levels`` maps a
    cell index to other ones), and then ``cells`` edits the list."""
    entries = []
    for i, ((x, z, y), c) in enumerate(zip(CELLS, counts)):
        x, z, y = (levels or {}).get(i, (x, z, y))
        entries.append({"x": x, "z": z, "y": y, "count": c})
    if cells is not None:
        entries = cells(entries)
    return json.dumps({**doc, "cells": entries})


#: JSON values a level or a count may take: the ints and floats, booleans,
#: strings, null, a negative zero, nan, infinities and a 400-digit integer
json_scalar = st.one_of(
    st.sampled_from([0, 1, 2, -1, 0.0, 1.0, -0.0, True, False, None, "0", "1",
                     " 1", "x", 10 ** 400, -(10 ** 400), math.nan, math.inf,
                     -math.inf, 1e308, 5e-324]),
    st.integers(0, 10 ** 6),
    st.floats(),
)


def _edit_cells(entries, edits):
    """``entries`` after each edit in ``edits``: a shuffle, a drop, a
    duplicate, an extra cell, or an extra key in one entry."""
    for kind, i, j in edits:
        if not entries:
            break
        i %= len(entries)
        if kind == "swap":
            j %= len(entries)
            entries[i], entries[j] = entries[j], entries[i]
        elif kind == "drop":
            del entries[i]
        elif kind == "duplicate":
            entries.insert(j % len(entries), dict(entries[i]))
        elif kind == "extra cell":
            entries.append({"x": 1, "z": 1, "y": 1, "count": j})
        else:
            entries[i] = {**entries[i], "weight": j}
    return entries


def _changed_table(counts, hostile, levels, doc, edits):
    """A canonical document with the counts ``hostile`` and the levels
    ``levels`` (each by cell index), the keys ``doc`` and the cell list
    edits ``edits``."""
    return _json_table([hostile.get(i, c) for i, c in enumerate(counts)],
                       levels, lambda entries: _edit_cells(entries, edits),
                       **doc)


#: canonical documents with a few counts, levels, labels or cells changed
json_like = st.builds(
    _changed_table,
    st.lists(st.one_of(st.floats(0, 1e6), st.integers(0, 1000)),
             min_size=8, max_size=8),
    st.dictionaries(st.integers(0, 7), json_scalar, max_size=2),
    st.dictionaries(st.integers(0, 7), st.tuples(
        *[st.one_of(st.sampled_from([0, 1]), json_scalar)] * 3), max_size=2),
    st.sampled_from([{}, {"labels": None}, {"labels": ["X", "Z", "Y"]},
                     {"labels": ["X", "Z"]}, {"labels": "XZY"},
                     {"labels": ["X", 1, "Y"]}]),
    st.lists(st.tuples(st.sampled_from(["swap", "drop", "duplicate",
                                        "extra cell", "extra key"]),
                       st.integers(0, 7), st.integers(0, 7)), max_size=2),
)


def _with_token(token, counts=(42, 18, 25, "@", 17, 23, 12, 48), levels=None,
                flat=False):
    """The README table as JSON text, object cells or ``flat``, with the raw
    JSON ``token`` where ``counts`` or ``levels`` hold ``"@"``."""
    if flat:
        return json.dumps({"cells": list(counts)}).replace('"@"', token)
    return _json_table(counts, levels).replace('"@"', token)


#: the edges of the reader's guard, each in the README table: as a count, a
#: zero of either sign, the least and the greatest float, the greatest float
#: as an int, the least int that ``float`` overflows on, 2**1024, a literal
#: that ``json`` reads as inf and a boolean, in both layouts; as each level,
#: a boolean, a float and ints on either side of 0 and 1
GUARD_EDGES = {
    f"count-{name}-{layout}": _with_token(token, flat=layout == "flat")
    for name, token in [("-0", "-0"), ("-0.0", "-0.0"), ("5e-324", "5e-324"),
                        ("max-float", "1.7976931348623157e308"),
                        ("max-float-int", str(2 ** 1024 - 2 ** 971)),
                        ("overflowing-int", str(2 ** 1024 - 2 ** 970)),
                        ("2**1024", str(2 ** 1024)), ("1e400", "1e400"),
                        ("true", "true")]
    for layout in ("objects", "flat")
}
GUARD_EDGES.update(
    (f"level-{name}-{token}",
     _with_token(token, (42, 18, 25, 31, 17, 23, 12, 48), {6: levels}))
    for token in ("true", "1.0", "-1", "-2", "2", "3")
    for name, levels in [("x", ("@", 1, 0)), ("z", (1, "@", 0)),
                         ("y", (1, 1, "@"))]
)


#: every cell's levels as strings, ``"0"`` and ``"1"``
STRING_LEVELS = {i: tuple(map(str, cell)) for i, cell in enumerate(CELLS)}


class TestJsonReader:
    """Every cells list is read entry by entry in one loop: the table of the
    reference, labels included, or its message."""

    @settings(max_examples=200, deadline=None)
    @given(json_like)
    @example(_json_table())
    @example(_json_table(labels=["X", "Z", "Y"]))
    def test_matches_the_reference(self, text):
        assert (_table_outcome(lambda s: parse_table(s, "json"), text)
                == _table_outcome(reference_parse_json, text))

    @pytest.mark.parametrize("text", [
        _json_table(),
        _json_table(labels=["X", "Z", "Y"]),
        _json_table(labels=None),
        serialize_table(ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48),
                                         ("X", "Z", "Y")), "json"),
        _json_table((0.1, 1e-300, 2.5e-7, 1 / 3, 0.0, 7e12, 1.5e300, 5.0)),
        _json_table((0, 18, 25, 31, 17, 23, 12, 48)),
        '{"cells": [' + ", ".join(
            f'{{"x": {x}, "z": {z}, "y": {y}, "count": {c}}}'
            for (x, z, y), c in zip(CELLS, ["-0", "-0.0", *"1234567"[:6]]))
        + "]}",
        _json_table(cells=lambda e: [{**e[0], "weight": 2}, *e[1:]]),
        _json_table(source="survey"),
        _json_table(levels={6: (True, 1, 0)}),
        _json_table(levels={4: (1, False, 0)}),
        _json_table(levels={2: ("0", "1", "0")}),
        _json_table(levels={5: (1.0, 0, 1)}),
        _json_table(levels={0: (None, 0, 0)}),
        _json_table(levels={3: (0, 1, 2)}),
        _json_table((42, 18, "25", 31, 17, 23, 12, 48)),
        _json_table((42, 18, 25, True, 17, 23, 12, 48)),
        _json_table((42, 18, 25, 31, False, 23, 12, 48)),
        _json_table((42, 18, 25, 31, 17, -23, 12, 48)),
        _json_table((42, 18, 25, 31, 17, 23, 10 ** 400, 48)),
        _json_table((42, 18, 25, 31, 17, 23, 12, math.nan)),
        _json_table((42, math.inf, 25, 31, 17, 23, 12, 48)),
        _json_table((42, 18, 25, 31, 17, 23, None, 48)),
        _json_table(cells=lambda e: e[::-1]),
        _json_table(cells=lambda e: [e[1], e[0], *e[2:]]),
        _json_table(cells=lambda e: e[:7]),
        _json_table(cells=lambda e: [*e[:7], dict(e[0])]),
        _json_table(cells=lambda e: [*e, {"x": 1, "z": 1, "y": 1,
                                          "count": 3}]),
        _json_table(cells=lambda e: [*e[:7], {"x": 1, "z": 1, "y": 1}]),
        _json_table(cells=lambda e: [*e[:6], {"x": 1, "y": 0, "count": 3},
                                     e[7]]),
        _json_table(labels=["X", 1, "Y"]),
        _json_table(labels="XZY"),
        _json_table((0,) * 8),
        _json_table((1e308, 1e308, 1, 1, 1, 1, 1, 1)),
        # refused tables with every level a string
        _json_table((42, 18, 25, -31, 17, 23, 12, 48), STRING_LEVELS),
        _with_token("1e400", levels=STRING_LEVELS),
        _json_table((0,) * 8, STRING_LEVELS),
        *GUARD_EDGES.values(),
    ], ids=["readme", "labels", "null-labels", "serialized", "repr-floats",
            "a-zero", "negative-zeros", "extra-cell-key",
            "extra-document-key", "bool-level", "false-level",
            "string-levels", "float-level", "null-level", "level-2",
            "string-count", "true-count", "false-count", "negative-count",
            "400-digit-count", "nan-count", "inf-count", "null-count",
            "reversed", "swapped", "missing", "duplicate", "extra-cell",
            "count-key-missing", "level-key-missing", "malformed-labels",
            "string-labels", "zero-total", "overflowing-total",
            "string-levels-negative-count", "string-levels-1e400-count",
            "string-levels-zero-total", *GUARD_EDGES])
    def test_outcome_is_the_reference(self, text):
        assert (_table_outcome(lambda s: parse_table(s, "json"), text)
                == _table_outcome(reference_parse_json, text))


def _csv_error(text):
    """The ``csv`` module's own message for ``text``; it varies by Python."""
    try:
        list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return str(exc)
    raise AssertionError(f"{text!r} is valid CSV")


def _table_of(counts):
    return lambda: ContingencyTable(counts)


def _parsed(source, fmt="csv"):
    return lambda: parse_table(source, fmt)


_README_TABLE = ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))
_README_JOINT = joint_probabilities(_README_TABLE)


@pytest.mark.parametrize("make, message", [
    (_parsed(""), "empty CSV input"),
    (_parsed(" \n,,\n"), "empty CSV input"),
    (_parsed("x,y,z,count\n"),
     "expected header x,z,y,count, got ['x', 'y', 'z', 'count']"),
    (_parsed("x,z,y,count\n0,0,0\n"), "malformed record ['0', '0', '0']"),
    (_parsed("x,z,y,count\n0,2,0,1\n"), "non-binary level for z: '2'"),
    (_parsed("x,z,y,count\n0,0,a,1\n"), "non-binary level for y: 'a'"),
    (_parsed("x,z,y,count\n1,0,1,1\n 1,0,1,2\n"), "duplicate cell (1,0,1)"),
    (_parsed("x,z,y,count\n0,0,0,x\n"), "malformed count 'x'"),
    (_parsed("x,z,y,count\n0,0,0,-1\n"), "negative count '-1'"),
    (_parsed("x,z,y,count\n0,0,0,nan\n"), "non-finite count 'nan'"),
    (_parsed("x,z,y,count\n0,0,0,inf\n"), "non-finite count 'inf'"),
    (_parsed("x,z,y,count\n0,0,0,-inf\n"), "non-finite count '-inf'"),
    (_parsed("x,z,y,count\n0,0,0,1e308\n0,0,1,1e308\n"), "table total overflows"),
    (_parsed("x,z,y,count\n0,0,0,0\n"), "table total must be positive"),
    (_parsed("x,z,y,count\n"), "table total must be positive"),
    (_parsed("\r0"), "malformed CSV: " + _csv_error("\r0")),
    (_parsed(b"\xff"), "input is not UTF-8: 'utf-8' codec can't decode byte 0xff"
                       " in position 0: invalid start byte"),
    # the mark counts in the position, as it does in the file
    (_parsed(b"\xef\xbb\xbf\xff"), "input is not UTF-8: 'utf-8' codec can't "
                                   "decode byte 0xff in position 3: invalid "
                                   "start byte"),
    # a bytes-like source decodes as bytes do; any other is no table source
    (_parsed(bytearray(b"\xff")), "input is not UTF-8: 'utf-8' codec can't "
                                  "decode byte 0xff in position 0: invalid "
                                  "start byte"),
    (_parsed(123), "cannot read a table from int: expected text, bytes or a "
                   "readable stream"),
    (_parsed(None), "cannot read a table from NoneType: expected text, bytes "
                    "or a readable stream"),
    (_parsed(memoryview(b"\xef\xbb\xbf\xff")),
     "input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 3:"
     " invalid start byte"),
    (_parsed("\ufeff\ufeffx,z,y,count\n"),
     "expected header x,z,y,count, got ['\\ufeffx', 'z', 'y', 'count']"),
    (_parsed("", "xml"), "unknown table format 'xml'"),
    (_parsed("[]", "json"), "JSON table must be an object with a 'cells' list"),
    (_parsed('{"cells": [1]}', "json"), "malformed cell entry 1"),
    (_parsed('{"cells": [{"x": 1, "z": 1, "y": 1, "count": 1},'
             ' {"x": 1, "z": 1, "y": 1, "count": 2}]}', "json"),
     "duplicate cell (1,1,1)"),
    (_parsed('{"cells": [1, 1, 1, 1, 1, 1, 1, -2]}', "json"), "negative count -2"),
    (_parsed('{"cells": [1, 1, 1, 1, 1, 1, 1, NaN]}', "json"), "non-finite count nan"),
    (_parsed('{"cells": [1, 1, 1, 1, 1, 1, 1, Infinity]}', "json"),
     "non-finite count inf"),
    (_table_of((1,) * 7), "expected 8 cells, got 7"),
    (_table_of((1, 1, 1, -1, 1, 1, 1, 1)), "negative or non-finite count at cell (0,1,1)"),
    (_table_of((1, 1, 1, 1, 1, 1, 1, math.nan)),
     "negative or non-finite count at cell (1,1,1)"),
    (_table_of((1, 1, 1, 1, math.inf, 1, 1, 1)),
     "negative or non-finite count at cell (1,0,0)"),
    (_table_of((1e308, 1e308, 1, 1, 1, 1, 1, 1)), "table total overflows"),
    (_table_of((0,) * 8), "table total must be positive"),
    (_table_of((-0.0,) * 8), "table total must be positive"),
    # a level other than 0 or 1 names no cell, not the cell its index
    # 4x + 2z + y would fall on
    (lambda: _README_TABLE.count(-1, 1, 1), "non-binary level for X: -1"),
    (lambda: _README_TABLE.count(0, 0, 2), "non-binary level for Y: 2"),
    (lambda: _README_JOINT.prob(1, 1, -1), "non-binary level for Y: -1"),
    (lambda: _README_TABLE.count(2, 0, 0), "non-binary level for X: 2"),
    # labels are None or a list or tuple of three strings
    (lambda: ContingencyTable(_README_TABLE.counts, labels=5),
     "labels must be a list or tuple of three strings"),
    (lambda: ContingencyTable(_README_TABLE.counts, labels="abc"),
     "labels must be a list or tuple of three strings"),
    (lambda: ContingencyTable(_README_TABLE.counts, labels=(1, 2, 3)),
     "labels must be a list or tuple of three strings"),
    (lambda: ContingencyTable(_README_TABLE.counts, labels=["A", "B"]),
     "labels must be a list or tuple of three strings"),
])
def test_table_error_messages(make, message):
    with pytest.raises(TableError) as exc:
        make()
    assert str(exc.value) == message


def _reference_at(mapping, levels):
    """``mapping[levels]``, by the earlier lookup over any number of
    variables, here the three of a table: a plain transcription, kept as
    the reference that ``count`` and ``prob`` must agree with."""
    variables = ("X", "Z", "Y")
    if len(levels) != len(variables):
        raise TableError(f"expected {len(variables)} levels "
                         f"({', '.join(variables)}), got {len(levels)}")
    for name, level in zip(variables, levels):
        if not (level == 0 or level == 1):
            raise TableError(f"non-binary level for {name}: {level!r}")
    return mapping[levels]


def _lookup_outcome(read, *levels):
    """``("ok", value)`` or ``("error", message)`` of one cell read."""
    try:
        return "ok", read(*levels)
    except TableError as exc:
        return "error", str(exc)


class TestCellLookup:
    """``count`` and ``prob`` read the cell their three levels name, as the
    earlier lookup did, and name the first level that is not 0 or 1."""

    TABLE = ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))
    JOINT = joint_probabilities(TABLE)
    READS = {
        "count": (TABLE.count, dict(zip(CELLS, TABLE.counts))),
        "prob": (JOINT.prob, dict(zip(CELLS, JOINT.probs))),
    }

    @pytest.mark.parametrize("cell", CELLS, ids=str)
    def test_each_cell_reads_its_own_count(self, cell):
        assert self.TABLE.count(*cell) == self.TABLE.counts[
            tables.cell_index(*cell)]

    @pytest.mark.parametrize("cell", CELLS, ids=str)
    def test_each_cell_reads_its_own_probability(self, cell):
        assert self.JOINT.prob(*cell) == self.JOINT.probs[
            tables.cell_index(*cell)]

    @pytest.mark.parametrize("read", ["count", "prob"])
    @pytest.mark.parametrize("position", range(3), ids=["X", "Z", "Y"])
    @pytest.mark.parametrize("level", [2, -1, 0.5, math.nan, "1", None],
                             ids=repr)
    def test_a_non_binary_level_is_named(self, read, position, level):
        method, mapping = self.READS[read]
        levels = [1, 0, 1]
        levels[position] = level
        outcome = _lookup_outcome(method, *levels)
        assert outcome == _lookup_outcome(
            lambda *ls: _reference_at(mapping, ls), *levels)
        assert outcome == (
            "error", f"non-binary level for {'XZY'[position]}: {level!r}")

    @pytest.mark.parametrize("read", ["count", "prob"])
    @pytest.mark.parametrize("one, zero", [
        (True, False), (1.0, 0.0), (np.int64(1), np.int64(0)),
        (Fraction(1), Decimal(0)),
    ], ids=["bool", "float", "numpy-int", "fraction-decimal"])
    def test_a_level_equal_to_zero_or_one_reads_that_cell(self, read, one,
                                                          zero):
        method, mapping = self.READS[read]
        for x, z, y in CELLS:
            levels = [one if v else zero for v in (x, z, y)]
            assert method(*levels) == method(x, z, y)
            assert method(*levels) == _reference_at(mapping, tuple(levels))


class TestTextIsNoCounts:
    """Text or bytes are not eight numbers, though ``float`` reads each of
    their characters or bytes as one."""

    @pytest.mark.parametrize("text", [
        "42183125", b"12345678", bytearray(b"12345678"),
        memoryview(b"12345678"),
    ], ids=["str", "bytes", "bytearray", "memoryview"])
    def test_counts(self, text):
        with pytest.raises(TableError) as exc:
            ContingencyTable(text)
        assert str(exc.value) == (
            f"counts must be numbers, not {type(text).__name__}")

    @pytest.mark.parametrize("text", [
        "10000000", b"10000000", bytearray(b"10000000"),
        memoryview(b"10000000"),
    ], ids=["str", "bytes", "bytearray", "memoryview"])
    def test_probabilities(self, text):
        with pytest.raises(TableError) as exc:
            JointProbabilityTable(text)
        assert str(exc.value) == (
            f"probabilities must be numbers, not {type(text).__name__}")

    def test_a_sequence_of_numeric_strings_is_still_counts(self):
        assert ContingencyTable(list("42183125")).counts == (
            4.0, 2.0, 1.0, 8.0, 3.0, 1.0, 2.0, 5.0)


@pytest.mark.parametrize("cells", [
    ["a"] * 8, [None] * 8, 5, [1j] * 8, [10 ** 400] + [1] * 7,
], ids=["text-cell", "none", "not-iterable", "complex", "huge-int"])
def test_a_cell_float_refuses_is_a_table_error(cells):
    # the message carries float's own, whose wording varies by version
    with pytest.raises((TypeError, ValueError, OverflowError)) as refused:
        list(map(float, cells))
    for make, what in ((ContingencyTable, "counts"),
                       (JointProbabilityTable, "probabilities")):
        with pytest.raises(TableError) as exc:
            make(cells)
        assert str(exc.value) == f"{what} must be 8 numbers: {refused.value}"


class TestTotal:
    def test_overflowing_total_rejected(self):
        with pytest.raises(TableError, match="total"):
            ContingencyTable((1e308, 1e308, 1, 1, 1, 1, 1, 1))

    def test_largest_finite_total_accepted(self):
        t = ContingencyTable((1e308, 1e307, 1, 1, 1, 1, 1, 1))
        assert math.isfinite(t.total)


class TestValidate:
    def test_all_positive_passthrough(self):
        t = ContingencyTable((1,) * 8)
        assert validate(t, "error") is t

    @pytest.mark.parametrize("policy", ["allow", "correct"])
    def test_all_positive_passthrough_under_any_policy(self, policy):
        t = ContingencyTable((1e-300, 1, 2, 3, 4, 5, 6, 7))
        assert validate(t, policy) is t

    def test_first_zero_cell_named(self):
        t = ContingencyTable((1, 1, 1, 1, 1, -0.0, 1, 0))
        with pytest.raises(TableError) as exc:
            validate(t, "error")
        assert str(exc.value) == "zero count in cell (1, 0, 1) (policy 'error')"

    def test_correct_adds_to_every_cell(self):
        t = ContingencyTable((0, 1, 2, 3, 4, 5, 6, 7))
        fixed = validate(t, "correct", 0.5)
        assert fixed.counts == tuple(c + 0.5 for c in t.counts)
        assert fixed.total == t.total + 8 * 0.5

    def test_zero_cell_error_policy(self):
        t = ContingencyTable((0, 1, 1, 1, 1, 1, 1, 1))
        with pytest.raises(TableError, match=r"\(0, 0, 0\)"):
            validate(t, "error")

    def test_allow_passthrough(self):
        t = ContingencyTable((0, 1, 1, 1, 1, 1, 1, 1))
        assert validate(t, "allow") is t


class TestProbabilities:
    def test_uniform(self):
        j = joint_probabilities(ContingencyTable((10,) * 8))
        assert all(p == 0.125 for p in j.probs)

    def test_half_zero(self):
        j = joint_probabilities(ContingencyTable((1, 1, 1, 1, 0, 0, 0, 0)))
        assert j.probs[:4] == (0.25,) * 4
        assert j.probs[4:] == (0.0,) * 4

    @given(positive_counts())
    def test_sums_to_one(self, counts):
        j = joint_probabilities(ContingencyTable(tuple(counts)))
        assert math.isclose(sum(j.probs), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("index", range(8))
    def test_nan_probability_rejected(self, index):
        probs = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        probs.insert(index, math.nan)
        with pytest.raises(TableError, match="sum to nan"):
            JointProbabilityTable(tuple(probs[:8]))

    @pytest.mark.parametrize("probs, message", [
        ((0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0), None),
        ((0.5, 0.75, -0.25, 0.0, 0.0, 0.0, 0.0, 0.0), "negative probability"),
        # the sign is checked before the sum, whatever precedes the negative
        ((math.nan, -0.25, 0.5, 0.75, 0.0, 0.0, 0.0, 0.0),
         "negative probability"),
        ((math.inf, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "sum to inf"),
        ((0.5, 0.5 + 2e-12, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "not 1"),
        ((0.5,) * 7, "expected 8 probabilities, got 7"),
    ])
    def test_probability_checks(self, probs, message):
        if message is None:
            assert JointProbabilityTable(probs).probs == probs
        else:
            with pytest.raises(TableError, match=message):
                JointProbabilityTable(probs)


class TestCorrectionAmount:
    @pytest.mark.parametrize("amount", [
        -5.0, 0.0, -0.0, math.nan, math.inf, -math.inf,
        # no number, or none that is a finite float
        "0.5", None, Decimal("NaN"), Fraction(10 ** 400), Decimal("1e-400"),
    ])
    @pytest.mark.parametrize(
        "counts", [(1, 2, 3, 4, 5, 6, 7, 8), (0, 2, 3, 4, 5, 6, 7, 8)]
    )
    def test_bad_amount_rejected_on_every_table(self, counts, amount):
        with pytest.raises(TableError) as exc:
            validate(ContingencyTable(counts), "correct", amount)
        assert str(exc.value) == "correction amount must be finite and > 0"

    @pytest.mark.parametrize("amount", [
        Decimal("0.5"), Fraction(1, 2), np.float64(0.5), 1,
    ], ids=["decimal", "fraction", "numpy", "int"])
    @pytest.mark.parametrize(
        "counts", [(1, 2, 3, 4, 5, 6, 7, 8), (0, 2, 3, 4, 5, 6, 7, 8)],
        ids=["no-zero", "zero"])
    def test_any_number_is_added_as_its_float(self, counts, amount):
        table = ContingencyTable(counts)
        fixed = validate(table, "correct", amount)
        want = tuple(c + float(amount) for c in counts) if 0 in counts else counts
        assert fixed.counts == want
        assert all(type(c) is float for c in fixed.counts)


#: 2x2x2 tables with a zero cell and another above 0, with labels or none;
#: no count is above 2e307, so every total is finite
zero_cell_tables = st.tuples(
    st.lists(st.one_of(st.floats(min_value=0.0, max_value=2e307),
                       st.sampled_from([0.0, -0.0, 5e-324])),
             min_size=8, max_size=8),
    st.integers(0, 7),
    st.one_of(st.none(), st.tuples(st.text(), st.text(), st.text())),
).filter(lambda a: any(a[0][:a[1]] + a[0][a[1] + 1:])).map(
    lambda a: ContingencyTable(a[0][:a[1]] + [0.0] + a[0][a[1] + 1:], a[2]))


class TestDirectCorrection:
    """``validate(t, "correct", a)`` builds its table without the
    constructor's checks: the same table the constructor builds from the
    corrected counts, or the constructor's error."""

    @settings(max_examples=500, deadline=None)
    @given(zero_cell_tables,
           st.floats(min_value=5e-324, max_value=tables._FLOAT_MAX))
    # a cell plus the amount overflows, and only the total does
    @example(ContingencyTable((1.7976931348623157e308,) + (0.0,) * 7), 1e300)
    @example(ContingencyTable((8e307, 8e307) + (0.0,) * 6), 1e307)
    @example(parse_table('{"labels": ["smoking", "tar", "cancer"], '
                         '"cells": [0, 18, 25, 31, 17, 23, 12, 48]}', "json"),
             0.5)
    def test_the_correction_is_the_constructors(self, table, amount):
        got = record_outcome(lambda: validate(table, "correct", amount))
        want = record_outcome(lambda: ContingencyTable(
            tuple(c + amount for c in table.counts), table.labels))
        assert got == want


class TestCountsBeforeLabels:
    """The counts are tested before the labels, so a table with both wrong
    raises the counts' error, by every route to the table's builder."""

    def test_the_constructor(self):
        with pytest.raises(TableError) as exc:
            ContingencyTable((-1.0,) + 7 * (1.0,), labels=5)
        assert str(exc.value) == "negative or non-finite count at cell (0,0,0)"

    def test_a_json_table(self):
        with pytest.raises(TableError) as exc:
            parse_table('{"labels": 5, "cells": [0, 0, 0, 0, 0, 0, 0, 0]}',
                        "json")
        assert str(exc.value) == "table total must be positive"

    def test_a_labelled_correction_whose_total_overflows(self):
        table = ContingencyTable((8e307, 8e307) + (0.0,) * 6,
                                 labels=("X", "Z", "Y"))
        with pytest.raises(TableError) as exc:
            validate(table, "correct", 1e307)
        assert str(exc.value) == "table total overflows"


class TestBooleanCounts:
    """JSON ``true`` and ``false`` are ints to Python, but not counts."""

    @pytest.mark.parametrize("flag", [True, False])
    def test_flat_array(self, flag):
        doc = json.dumps({"cells": [18, 25, 31, flag, 17, 23, 12, 48]})
        with pytest.raises(TableError) as exc:
            parse_table(doc, "json")
        assert str(exc.value) == f"malformed count {flag!r}"

    @pytest.mark.parametrize("flag", [True, False])
    def test_object_cells(self, flag):
        cells = [{"x": x, "z": z, "y": y, "count": 1} for x, z, y in CELLS]
        cells[3]["count"] = flag
        with pytest.raises(TableError) as exc:
            parse_table(json.dumps({"cells": cells}), "json")
        assert str(exc.value) == f"malformed count {flag!r}"
