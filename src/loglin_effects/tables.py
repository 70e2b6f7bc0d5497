"""2x2x2 contingency tables: parsing, validation, probabilities.

Cells are ordered lexicographically by (x, z, y) with x slowest, so the
flat index of cell (x, z, y) is ``4*x + 2*z + y``.  Every structure here
is immutable; counts are stored as floats so continuity-corrected tables
flow through fitting unchanged.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from collections import _tuplegetter

VARIABLES = ("X", "Z", "Y")

#: canonical cell order: (x, z, y) lexicographic, x slowest
CELLS = tuple((x, z, y) for x in (0, 1) for z in (0, 1) for y in (0, 1))

#: the greatest finite float
_FLOAT_MAX = sys.float_info.max


class TableError(ValueError):
    """Malformed, inconsistent, or otherwise unusable table input."""


def cell_index(x: int, z: int, y: int) -> int:
    return 4 * x + 2 * z + y


#: the flat index of each cell, keyed by its levels
_INDEX = {cell: i for i, cell in enumerate(CELLS)}


def _index(x: int, z: int, y: int) -> int:
    """The flat index of cell (x, z, y); a level that is not 0 or 1 raises
    ``TableError``."""
    for name, level in zip(VARIABLES, (x, z, y)):
        if not (level == 0 or level == 1):
            raise TableError(f"non-binary level for {name}: {level!r}")
    return _INDEX[x, z, y]


def _left_sum(values) -> float:
    """The float sum of ``values`` added left to right, rounding each step.

    ``sum`` adds so on Python 3.10 and 3.11 but compensates its rounding
    from 3.12 on.  Every sum that reaches an output is this one or is
    written out as a left-to-right chain of ``+``, so no sum is compensated
    and the outputs are the same bits on every supported version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _eight_floats(values, what: str, unit: str) -> tuple:
    """``values`` as a tuple of eight floats, or ``TableError`` calling them
    ``what`` and counting them in ``unit``."""
    # float would read each character or byte of a text as a number
    if isinstance(values, (str, bytes, bytearray, memoryview)):
        raise TableError(
            f"{what} must be numbers, not {type(values).__name__}")
    try:
        values = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise TableError(f"{what} must be 8 numbers: {exc}") from None
    if len(values) != 8:
        raise TableError(f"expected 8 {unit}, got {len(values)}")
    return values


class _Record(tuple):
    """An immutable record: the tuple of its fields, named in ``_fields`` in
    constructor order, each read through a C accessor that
    ``__init_subclass__`` installs.  A record class declares
    ``__slots__ = ()``; its ``__new__`` ends in one ``tuple.__new__``, or
    converts the fields for a builder that holds the record's only test.

    Assignment and deletion raise ``AttributeError``.  Records of one class
    compare and hash by their fields, as tuples do; a record equals no
    other tuple.  They repr as ``Name(field=value, ...)``, and pickle and
    copy by calling the class with their fields, so validation runs again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self)


class _Document(_Record):
    """A record that ``to_dict`` turns into a JSON document: the records
    that have ``to_dict`` derive from it, and only they have ``to_json``."""

    __slots__ = ()
    _fields = ()

    def to_json(self) -> str:
        """``to_dict()`` as sorted-key JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)


class ContingencyTable(_Record):
    """Observed counts n(x, z, y) over three binary variables."""

    __slots__ = ()
    _fields = ("counts", "labels")

    def __new__(cls, counts, labels: tuple | None = None):
        return _table(_eight_floats(counts, "counts", "cells"), labels)

    @property
    def total(self) -> float:
        return _left_sum(self.counts)

    def count(self, x: int, z: int, y: int) -> float:
        return self.counts[_index(x, z, y)]


def _table(counts: tuple, labels) -> ContingencyTable:
    """The table of eight float ``counts`` and ``labels``, by the one test
    of a valid table: the counts', then the labels' (None or 3 strings)."""
    a, b, c, d, e, f, g, h = counts
    total = 0.0 + a + b + c + d + e + f + g + h  # as _left_sum
    # a finite total of cells none below 0 has no nan or inf cell either;
    # only a failing table is searched for its message
    if not (0.0 <= a and 0.0 <= b and 0.0 <= c and 0.0 <= d and 0.0 <= e
            and 0.0 <= f and 0.0 <= g and 0.0 <= h
            and 0.0 < total < math.inf):
        for (x, z, y), n in zip(CELLS, counts):
            if not 0.0 <= n < math.inf:
                raise TableError(f"negative or non-finite count at cell ({x},{z},{y})")
        if total == math.inf:
            raise TableError("table total overflows")
        raise TableError("table total must be positive")
    if labels is not None:
        if not (isinstance(labels, (list, tuple)) and len(labels) == 3
                and isinstance(labels[0], str) and isinstance(labels[1], str)
                and isinstance(labels[2], str)):
            raise TableError("labels must be a list or tuple of three strings")
        labels = tuple(labels)
    return tuple.__new__(ContingencyTable, (counts, labels))


class JointProbabilityTable(_Record):
    """Joint probabilities pi(x, z, y), canonical cell order, summing to 1."""

    __slots__ = ()
    _fields = ("probs",)

    def __new__(cls, probs):
        probs = _eight_floats(probs, "probabilities", "probabilities")
        if any(p < 0 for p in probs):
            raise TableError("negative probability")
        total = _left_sum(probs)
        if not abs(total - 1.0) <= 1e-12:  # also a nan probability
            raise TableError(f"probabilities sum to {total!r}, not 1")
        return tuple.__new__(cls, (probs,))

    def prob(self, x: int, z: int, y: int) -> float:
        return self.probs[_index(x, z, y)]


def joint_probabilities(table: ContingencyTable) -> JointProbabilityTable:
    """Convert counts to the joint probability table (count / total)."""
    total = table.total
    return JointProbabilityTable(tuple(c / total for c in table.counts))


def validate(
    table: ContingencyTable,
    policy: str = "error",
    correction: float = 0.5,
) -> ContingencyTable:
    """Apply the zero-cell policy: ``error``, ``correct``, or ``allow``.

    Under ``correct`` a table with a zero cell gets the correction amount
    added to every cell, not just the zero ones, so odds-ratio structure is
    shifted uniformly; a table without one is returned as it is.  The
    amount must be a number, finite and > 0 as a float, whether or not the
    table has a zero cell; it is added as that float, so every count stays
    a float.  The corrected counts and the table's labels go to the
    builder ``_table``, with no class call: each cell is then at least the
    amount, so only one that overflows, or the total, fails its test.
    """
    if policy not in ("error", "correct", "allow"):
        raise TableError(f"unknown zero-cell policy {policy!r}")
    if policy == "correct":
        try:  # text or None compares with no number
            amount = float(correction) if 0.0 < correction else 0.0
        except (TypeError, ArithmeticError):  # a Decimal nan, or an int or
            amount = 0.0                      # Fraction beyond the floats
        if not 0.0 < amount < math.inf:
            raise TableError("correction amount must be finite and > 0")
    if 0.0 not in table.counts:
        return table
    if policy == "error":
        cell = CELLS[table.counts.index(0.0)]
        raise TableError(f"zero count in cell {cell} (policy 'error')")
    if policy == "allow":
        return table
    a, b, c, d, e, f, g, h = table.counts
    return _table((a + amount, b + amount, c + amount, d + amount,
                   e + amount, f + amount, g + amount, h + amount),
                  table.labels)


# ---------------------------------------------------------------------------
# serialization


def parse_table(source, fmt: str = "csv") -> ContingencyTable:
    """Parse a table from text, UTF-8 bytes or any bytes-like object, or a
    readable stream of either.

    CSV: header ``x,z,y,count``.  JSON: ``{"labels": [...], "cells": [...]}``
    where cells is either 8 objects ``{x,z,y,count}`` or a flat 8-array in
    canonical order.  Missing cells count 0; a leading BOM is ignored.
    Any other source raises ``TableError``.  A ``str`` skips the stream
    and bytes handling.  A CSV text in the canonical layout goes straight
    to the table's builder, any other table through ``ContingencyTable``
    (see ``_parse_csv``).
    """
    if type(source) is not str:
        if hasattr(source, "read"):
            source = source.read()
        if not isinstance(source, (str, bytes)):
            try:
                source = bytes(memoryview(source))
            except TypeError:
                raise TableError(
                    f"cannot read a table from {type(source).__name__}: "
                    "expected text, bytes or a readable stream"
                ) from None
        if isinstance(source, bytes):
            try:
                source = source.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TableError(f"input is not UTF-8: {exc}") from None
    source = source.removeprefix("\ufeff")
    if fmt == "csv":
        return _parse_csv(source)
    if fmt == "json":
        return _parse_json(source)
    raise TableError(f"unknown table format {fmt!r}")


def _coerce_level(raw, what: str) -> int:
    try:
        v = int(str(raw).strip())
    except (TypeError, ValueError):
        raise TableError(f"non-binary level for {what}: {raw!r}") from None
    if v not in (0, 1):
        raise TableError(f"non-binary level for {what}: {raw!r}")
    return v


def _coerce_count(raw) -> float:
    """``raw`` as a count: a float, finite and >= 0.  A boolean is no
    count, though to Python JSON's ``true`` and ``false`` are 1 and 0."""
    if raw is True or raw is False:
        raise TableError(f"malformed count {raw!r}")
    try:
        c = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise TableError(f"malformed count {raw!r}") from None
    if not math.isfinite(c):
        raise TableError(f"non-finite count {raw!r}")
    if c < 0:
        raise TableError(f"negative count {raw!r}")
    return c


#: the canonical CSV layout that ``serialize_table`` writes: the header, then
#: one line per cell in ``CELLS`` order, each ended by ``\n`` (the last line
#: optionally), with a count field that no CSV reader splits or unquotes;
#: its groups are the eight count fields as written
_CANONICAL_CSV = re.compile("x,z,y,count" + "".join(
    f'\n{x},{z},{y},([^,"\r\n]*)' for x, z, y in CELLS) + "\n?")


def _parse_csv(text: str) -> ContingencyTable:
    """The table of a CSV text: a text in the canonical layout in one match,
    whose eight count fields are converted by ``float`` and go to the
    builder ``_table``, any other by ``_parse_csv_rows``.

    Both paths give the same counts, bit for bit, since the match finds the
    fields the CSV reader would and ``float`` converts them as
    ``_coerce_count`` does.  A canonical text with a field ``float``
    refuses, or whose counts fail ``_table``'s test, is read again by
    ``_parse_csv_rows``, so every error is its error, or the builder's.
    """
    m = _CANONICAL_CSV.fullmatch(text)
    # longer text may hold a field the CSV reader refuses
    if m is not None and len(text) <= csv.field_size_limit():
        try:
            return _table(tuple(map(float, m.groups())), None)
        except ValueError:  # a field float refuses, or a failed test
            pass
    return _parse_csv_rows(text)


def _parse_csv_rows(text: str) -> ContingencyTable:
    """The table of any CSV text, read record by record by ``csv.reader``."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text))
                if "".join(row).strip()]
    except csv.Error as exc:
        raise TableError(f"malformed CSV: {exc}") from None
    if not rows:
        raise TableError("empty CSV input")
    header = [h.strip().lower() for h in rows[0]]
    if header != ["x", "z", "y", "count"]:
        raise TableError(f"expected header x,z,y,count, got {rows[0]!r}")
    counts = [0.0] * 8
    seen = 0  # bit i set once cell i has a record
    for row in rows[1:]:
        if len(row) != 4:
            raise TableError(f"malformed record {row!r}")
        x, z, y, raw = row
        i = cell_index(_coerce_level(x, "x"), _coerce_level(z, "z"),
                       _coerce_level(y, "y"))
        c = _coerce_count(raw)
        if seen >> i & 1:
            raise TableError("duplicate cell ({},{},{})".format(*CELLS[i]))
        seen |= 1 << i
        counts[i] = c
    return ContingencyTable(counts)


def _parse_json(text: str) -> ContingencyTable:
    """The table of a JSON text, its cells read entry by entry.

    Eight cells none of which is an object are the flat layout, counts in
    ``CELLS`` order; any other list holds object cells.  An ``int`` level
    0 or 1 is taken as it is, and so is an ``int`` or ``float`` count from
    0 to the greatest float, which ``ContingencyTable`` converts as
    ``_coerce_count`` would; any other level or count goes to
    ``_coerce_level`` or ``_coerce_count`` for its value or its error.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long integers
        raise TableError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise TableError("JSON table must be an object with a 'cells' list")
    cells = doc["cells"]
    flat = len(cells) == 8 and dict not in map(type, cells)
    counts = [None] * 8  # None until a cell has an entry
    i = -1
    for entry in cells:
        if flat:
            c = entry
            i += 1
        elif type(entry) is dict:
            try:
                x, z, y = entry["x"], entry["z"], entry["y"]
                c = entry["count"]
            except KeyError:  # a missing key reads as null
                x, z, y, c = map(entry.get, ("x", "z", "y", "count"))
            # ints, none negative, with no bit set above bit 0
            if (type(x) is int and type(z) is int and type(y) is int
                    and 0 <= x | z | y <= 1):
                i = 4 * x + 2 * z + y
            else:
                i = cell_index(_coerce_level(x, "x"), _coerce_level(z, "z"),
                               _coerce_level(y, "y"))
        else:
            raise TableError(f"malformed cell entry {entry!r}")
        if not ((type(c) is int or type(c) is float)
                and 0 <= c <= _FLOAT_MAX):  # also nan
            c = _coerce_count(c)
        if counts[i] is not None:
            raise TableError("duplicate cell ({},{},{})".format(*CELLS[i]))
        counts[i] = c
    if len(cells) < 8:  # eight or more entries without a duplicate fill all
        counts = [0.0 if c is None else c for c in counts]
    return ContingencyTable(counts, doc.get("labels"))


def serialize_table(table: ContingencyTable, fmt: str = "csv") -> str:
    """Serialize in canonical cell order; inverse of ``parse_table``."""
    if fmt == "csv":
        # a float's repr holds no comma, quote or line end to escape
        return "x,z,y,count\n" + "".join(
            f"{x},{z},{y},{c!r}\n" for (x, z, y), c in zip(CELLS, table.counts))
    if fmt == "json":
        doc: dict = {}
        if table.labels is not None:
            doc["labels"] = list(table.labels)
        doc["cells"] = [
            {"x": x, "z": z, "y": y, "count": c}
            for (x, z, y), c in zip(CELLS, table.counts)
        ]
        return json.dumps(doc, indent=2)
    raise TableError(f"unknown table format {fmt!r}")
