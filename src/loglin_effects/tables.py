"""2x2x2 contingency tables: parsing, validation, probabilities, margins.

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


def _at(mapping: dict, variables: tuple, levels: tuple):
    """``mapping[levels]``, where ``levels`` gives one level of each of
    ``variables``; another number of levels, or a level that is not 0 or 1,
    raises ``TableError``."""
    if len(levels) != len(variables):
        raise TableError(f"expected {len(variables)} levels "
                         f"({', '.join(variables)}), got {len(levels)}")
    for name, level in zip(variables, levels):
        if not (level == 0 or level == 1):
            raise TableError(f"non-binary level for {name}: {level!r}")
    return mapping[levels]


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


class _Record(tuple):
    """An immutable record: the tuple of its fields, named in ``_fields`` in
    constructor order, each read through a C accessor that
    ``__init_subclass__`` installs.  A record class declares
    ``__slots__ = ()``, and its ``__new__`` validates the fields and ends in
    one ``tuple.__new__``.

    Assignment and deletion raise ``AttributeError``.  Records of one class
    compare and hash by ``_key()``, their fields unless a class says
    otherwise; a record equals no other tuple.  They repr as
    ``Name(field=value, ...)``, and pickle and copy by calling the class
    with their fields, so validation runs again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def _key(self) -> tuple:
        """The values that equality and hashing compare."""
        return tuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return self._key() != other._key()
        return True if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self)

    def to_json(self) -> str:
        """``to_dict``, for the records that have one, as sorted-key JSON."""
        return json.dumps(self.to_dict(), sort_keys=True)


class ContingencyTable(_Record):
    """Observed counts n(x, z, y) over three binary variables."""

    __slots__ = ()
    _fields = ("counts", "labels")

    def __new__(cls, counts, labels: tuple | None = None):
        # float would read each character or byte of a text as a count
        if isinstance(counts, (str, bytes, bytearray, memoryview)):
            raise TableError(
                f"counts must be numbers, not {type(counts).__name__}")
        try:
            counts = tuple(map(float, counts))
        except (TypeError, ValueError, OverflowError) as exc:
            raise TableError(f"counts must be 8 numbers: {exc}") from None
        if len(counts) != 8:
            raise TableError(f"expected 8 cells, got {len(counts)}")
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
                    and isinstance(labels[0], str)
                    and isinstance(labels[1], str)
                    and isinstance(labels[2], str)):
                raise TableError("labels must be a list or tuple of three "
                                 "strings")
            labels = tuple(labels)
        return tuple.__new__(cls, (counts, labels))

    @property
    def total(self) -> float:
        return _left_sum(self.counts)

    def count(self, x: int, z: int, y: int) -> float:
        return self.counts[_at(_INDEX, VARIABLES, (x, z, y))]


class JointProbabilityTable(_Record):
    """Joint probabilities pi(x, z, y), canonical cell order, summing to 1."""

    __slots__ = ()
    _fields = ("probs",)

    def __new__(cls, probs):
        if isinstance(probs, (str, bytes, bytearray, memoryview)):
            raise TableError(
                f"probabilities must be numbers, not {type(probs).__name__}")
        try:
            probs = tuple(map(float, probs))
        except (TypeError, ValueError, OverflowError) as exc:
            raise TableError(
                f"probabilities must be 8 numbers: {exc}") from None
        if len(probs) != 8:
            raise TableError(f"expected 8 probabilities, got {len(probs)}")
        if any(p < 0 for p in probs):
            raise TableError("negative probability")
        total = _left_sum(probs)
        if not abs(total - 1.0) <= 1e-12:  # also a nan probability
            raise TableError(f"probabilities sum to {total!r}, not 1")
        return tuple.__new__(cls, (probs,))

    def prob(self, x: int, z: int, y: int) -> float:
        return self.probs[_at(_INDEX, VARIABLES, (x, z, y))]


class MarginalTable(_Record):
    """Probabilities over a subset of {X, Z, Y}, optionally conditioned.

    ``probs`` maps level tuples (ordered as ``variables``) to values, and
    ``condition`` is a ``(variable, level)`` pair or None.  Equality and
    hashing compare ``variables`` and ``condition`` only.
    """

    __slots__ = ()
    _fields = ("variables", "probs", "condition")

    def __new__(cls, variables: tuple, probs: dict,
                condition: tuple | None = None):
        return tuple.__new__(cls, (variables, probs, condition))

    def _key(self) -> tuple:
        return self.variables, self.condition

    def prob(self, *levels: int) -> float:
        return _at(self.probs, self.variables, levels)


def joint_probabilities(table: ContingencyTable) -> JointProbabilityTable:
    """Convert counts to the joint probability table (count / total)."""
    total = table.total
    return JointProbabilityTable(tuple(c / total for c in table.counts))


def margin(
    joint: JointProbabilityTable, keep, condition: tuple | None = None
) -> MarginalTable:
    """Marginalize the joint table onto ``keep``, optionally given ``condition``.

    ``condition`` is a ``(variable, level)`` pair; the result is renormalized
    over the conditioning slice.
    """
    keep = tuple(keep)
    for v in keep:
        if v not in VARIABLES:
            raise TableError(f"unknown variable {v!r}")
    keep = tuple(v for v in VARIABLES if v in keep)
    if not keep:
        raise TableError("keep must name at least one variable")
    if condition is not None:
        cond_var, cond_level = condition
        if cond_var not in VARIABLES:
            raise TableError(f"unknown conditioning variable {cond_var!r}")
        if cond_var in keep:
            raise TableError("conditioning variable cannot be kept")
        if cond_level not in (0, 1):
            raise TableError("conditioning level must be 0 or 1")

    pos = {v: i for i, v in enumerate(VARIABLES)}
    sums: dict = {}
    slice_total = 0.0
    for cell, p in zip(CELLS, joint.probs):
        if condition is not None and cell[pos[condition[0]]] != condition[1]:
            continue
        slice_total += p
        key = tuple(cell[pos[v]] for v in keep)
        sums[key] = sums.get(key, 0.0) + p

    if condition is not None:
        if slice_total <= 0:
            raise TableError("conditioning slice has zero probability")
        sums = {k: v / slice_total for k, v in sums.items()}
    # every level tuple of ``keep`` occurs in the slice, and in
    # lexicographic order, as ``CELLS`` and ``VARIABLES`` are ordered
    return MarginalTable(variables=keep, probs=sums, condition=condition)


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
    a float.  The corrected table is built directly, with the table's
    labels, when its total is finite: each cell is then a finite float
    > 0.  Only one whose total overflows goes to ``ContingencyTable`` for
    its error.
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
    counts = (a + amount, b + amount, c + amount, d + amount,
              e + amount, f + amount, g + amount, h + amount)
    a, b, c, d, e, f, g, h = counts
    if 0.0 + a + b + c + d + e + f + g + h < math.inf:  # as _left_sum
        return tuple.__new__(ContingencyTable, (counts, table.labels))
    return ContingencyTable(counts, table.labels)


def dichotomize(records, thresholds="mean") -> ContingencyTable:
    """Reduce numeric (x, z, y) records to a 2x2x2 table by thresholding.

    ``thresholds`` is either ``"mean"`` (per-variable mean split) or a triple
    of explicit cut points.  Values below the threshold map to 0, values at
    or above it map to 1.  Every value and threshold must be finite: a nan
    or inf has no level, and a nan would make its variable's mean nan.  A
    column whose sum would overflow is summed scaled down by a power of two.
    """
    try:
        records = [tuple(float(v) for v in r) for r in records]
    except (TypeError, ValueError, OverflowError) as exc:
        raise TableError(f"records must hold numbers: {exc}") from None
    if len(records) < 2:
        raise TableError("need at least 2 records to dichotomize")
    if any(len(r) != 3 for r in records):
        raise TableError("each record must have exactly 3 values")
    for i, r in enumerate(records):
        for name, v in zip(VARIABLES, r):
            if not math.isfinite(v):
                raise TableError(f"non-finite value {v!r} for {name} in record {i}")

    # an array of cut points == "mean" is an array, not False
    if isinstance(thresholds, str) and thresholds == "mean":
        cuts = []
        for j in range(3):
            col = [r[j] for r in records]
            if max(col) == min(col):
                raise TableError(
                    f"variable {VARIABLES[j]} is constant; mean split undefined"
                )
            # 2^-k keeps each partial sum of the len(col) values below 2^1024;
            # k is 0, and the mean the plain one, on every ordinary column
            k = max(0, math.frexp(max(map(abs, col)))[1]
                    + len(col).bit_length() - 1024)
            cuts.append(math.ldexp(
                _left_sum([math.ldexp(v, -k) for v in col]) / len(col), k))
    else:
        try:
            cuts = [float(t) for t in thresholds]
        except (TypeError, ValueError, OverflowError):
            cuts = []
        # a string other than "mean", even "123", gives no cut points
        if len(cuts) != 3 or isinstance(thresholds, str):
            raise TableError("thresholds must give one cut point per variable")
        for name, t in zip(VARIABLES, cuts):
            if not math.isfinite(t):
                raise TableError(f"non-finite threshold {t!r} for {name}")

    counts = [0.0] * 8
    for r in records:
        x, z, y = (0 if r[j] < cuts[j] else 1 for j in range(3))
        counts[cell_index(x, z, y)] += 1.0
    return ContingencyTable(tuple(counts))


# ---------------------------------------------------------------------------
# serialization


def parse_table(source, fmt: str = "csv") -> ContingencyTable:
    """Parse a table from text, UTF-8 bytes or any bytes-like object, or a
    readable stream of either.

    CSV: header ``x,z,y,count``.  JSON: ``{"labels": [...], "cells": [...]}``
    where cells is either 8 objects ``{x,z,y,count}`` or a flat 8-array in
    canonical order.  Missing cells count 0; a leading BOM is ignored.
    Any other source raises ``TableError``.  A ``str`` skips the stream
    and bytes handling.  A CSV text in the canonical layout builds its
    table directly, any other table goes through ``ContingencyTable``
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
    whose eight count fields are converted by ``float`` and the table built
    directly, any other by ``_parse_csv_rows``.

    Both paths give the same counts, bit for bit, since the match finds the
    fields the CSV reader would and ``float`` converts them as
    ``_coerce_count`` does.  The direct table passes ``ContingencyTable``'s
    own test: no cell below 0, and a left-to-right total in (0, inf).  A
    canonical text with a field ``float`` refuses, or whose counts fail that
    test, is read again by ``_parse_csv_rows``, so every error is its error,
    or the constructor's.
    """
    m = _CANONICAL_CSV.fullmatch(text)
    # longer text may hold a field the CSV reader refuses
    if m is not None and len(text) <= csv.field_size_limit():
        try:
            counts = tuple(map(float, m.groups()))
        except ValueError:
            return _parse_csv_rows(text)
        a, b, c, d, e, f, g, h = counts
        total = 0.0 + a + b + c + d + e + f + g + h  # as _left_sum
        # as in ContingencyTable: a finite total of cells none below 0
        # has no nan or inf cell either
        if (0.0 <= a and 0.0 <= b and 0.0 <= c and 0.0 <= d and 0.0 <= e
                and 0.0 <= f and 0.0 <= g and 0.0 <= h
                and 0.0 < total < math.inf):
            return tuple.__new__(ContingencyTable, (counts, None))
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
