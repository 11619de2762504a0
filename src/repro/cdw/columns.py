"""Typed column vectors backing :class:`~repro.cdw.table.CdwTable`.

Row-of-tuples storage pays ~50 bytes of object header per value plus a
tuple per row; on the Fig 7 staging/target tables that overhead is the
dominant memory cost and every scan re-touches it.  This module packs
each column into flat stdlib buffers instead:

- integer bases  -> ``array('q')`` (8 bytes/value)
- DOUBLE         -> ``array('d')``
- BOOLEAN        -> ``bytearray`` (1 byte/value)
- character      -> one UTF-8 blob ``bytearray`` + ``array('q')`` offsets
- everything else (DECIMAL/DATE/TIMESTAMP) -> a plain object list

NULLs live in a per-column validity ``bytearray`` (1 = present).  A
value that does not fit its typed buffer (tests append un-coerced rows)
degrades that one column to object storage instead of failing — the
column store must accept anything a Python list would.

The store is an *internal* representation: :class:`CdwTable` presents
the same tuple-level API as before through a view shim, and the engine
opts into columnar reads via ``column_list`` and ``column_vector``.
"""

from __future__ import annotations

import functools
import struct
import sys
from array import array
from itertools import accumulate, compress, islice
from operator import sub

__all__ = ["ColumnBlock", "ColumnStore", "TextColumn", "TextSlice",
           "column_for_type", "decoded", "runs"]

_INT_BASES = ("SMALLINT", "INT", "BIGINT")
_CHAR_BASES = ("NVARCHAR", "VARCHAR", "CHAR")

#: array('q') bounds; Python ints outside degrade the column to objects.
_Q_MIN, _Q_MAX = -2 ** 63, 2 ** 63 - 1


def runs(indices) -> "list[tuple[int, int]]":
    """``indices`` as maximal runs of consecutive ascending values:
    ``(start, stop)`` pairs, in order, each ``[start, stop)``.

    A ``take`` copies each run with a few slice operations, so a
    selection of a sorted range (a ``NOT IN`` that drops a few hundred
    rows, a DELETE of a few) costs its run count in Python steps, not
    its row count.  The boundaries are found at C level.
    """
    idx = indices if type(indices) in (list, range) else list(indices)
    n = len(idx)
    if not n:
        return []
    if type(idx) is range and idx.step == 1:
        return [(idx.start, idx.stop)]
    cuts = list(compress(range(1, n), map(
        (1).__ne__, map(sub, islice(idx, 1, None), idx))))
    return [(idx[first], idx[last - 1] + 1) for first, last in
            zip([0, *cuts], [*cuts, n])]


class _BaseColumn:
    """Shared shape of one column vector."""

    __slots__ = ("valid",)

    def append_many(self, values) -> None:
        for v in values:
            self.append(v)

    def null_count(self) -> int:
        return self.valid.count(0)

    def take(self, indices):
        """A new column of the values at ``indices``, in that order."""
        return self.take_runs(runs(indices))


class _IntColumn(_BaseColumn):
    __slots__ = ("data",)

    def __init__(self):
        self.data = array("q")
        self.valid = bytearray()

    def __len__(self):
        return len(self.data)

    def append(self, value) -> None:
        if type(value) is int and _Q_MIN <= value <= _Q_MAX:
            self.data.append(value)
            self.valid.append(1)
        elif value is None:
            self.data.append(0)
            self.valid.append(0)
        else:
            raise TypeError(value)

    def append_many(self, values) -> None:
        """Append values; an int64 ``array`` appends as one buffer."""
        if type(values) is array and values.typecode == "q":
            self.data += values
            self.valid += b"\x01" * len(values)
        else:
            _BaseColumn.append_many(self, values)

    def __getitem__(self, i):
        return self.data[i] if self.valid[i] else None

    def to_list(self, lo: int, hi: int) -> list:
        data, valid = self.data, self.valid
        if valid.find(0, lo, hi) == -1:     # no NULL in range: bulk convert
            return data[lo:hi].tolist()
        return [data[i] if valid[i] else None for i in range(lo, hi)]

    def truncate(self, length: int) -> None:
        del self.data[length:]
        del self.valid[length:]

    def take_runs(self, spans) -> "_IntColumn":
        """A new column of the rows of ``spans`` (:func:`runs`)."""
        out = _IntColumn()
        for start, stop in spans:
            out.data += self.data[start:stop]
            out.valid += self.valid[start:stop]
        return out

    def nbytes(self) -> int:
        return self.data.itemsize * len(self.data) + len(self.valid)


class _FloatColumn(_BaseColumn):
    __slots__ = ("data",)

    def __init__(self):
        self.data = array("d")
        self.valid = bytearray()

    def __len__(self):
        return len(self.data)

    def append(self, value) -> None:
        if type(value) is float:
            self.data.append(value)
            self.valid.append(1)
        elif value is None:
            self.data.append(0.0)
            self.valid.append(0)
        else:
            raise TypeError(value)

    def __getitem__(self, i):
        return self.data[i] if self.valid[i] else None

    def to_list(self, lo: int, hi: int) -> list:
        data, valid = self.data, self.valid
        if valid.find(0, lo, hi) == -1:
            return data[lo:hi].tolist()
        return [data[i] if valid[i] else None for i in range(lo, hi)]

    def truncate(self, length: int) -> None:
        del self.data[length:]
        del self.valid[length:]

    def take_runs(self, spans) -> "_FloatColumn":
        """A new column of the rows of ``spans`` (:func:`runs`)."""
        out = _FloatColumn()
        for start, stop in spans:
            out.data += self.data[start:stop]
            out.valid += self.valid[start:stop]
        return out

    def nbytes(self) -> int:
        return self.data.itemsize * len(self.data) + len(self.valid)


class _BoolColumn(_BaseColumn):
    __slots__ = ("data",)

    def __init__(self):
        self.data = bytearray()
        self.valid = bytearray()

    def __len__(self):
        return len(self.data)

    def append(self, value) -> None:
        if value is True or value is False:
            self.data.append(1 if value else 0)
            self.valid.append(1)
        elif value is None:
            self.data.append(0)
            self.valid.append(0)
        else:
            raise TypeError(value)

    def __getitem__(self, i):
        return bool(self.data[i]) if self.valid[i] else None

    def to_list(self, lo: int, hi: int) -> list:
        data, valid = self.data, self.valid
        return [bool(data[i]) if valid[i] else None
                for i in range(lo, hi)]

    def truncate(self, length: int) -> None:
        del self.data[length:]
        del self.valid[length:]

    def take_runs(self, spans) -> "_BoolColumn":
        """A new column of the rows of ``spans`` (:func:`runs`)."""
        out = _BoolColumn()
        for start, stop in spans:
            out.data += self.data[start:stop]
            out.valid += self.valid[start:stop]
        return out

    def nbytes(self) -> int:
        return len(self.data) + len(self.valid)


class TextColumn(_BaseColumn):
    """Strings as one UTF-8 blob plus end offsets.

    This is where the memory multiple comes from: a Python ``str``
    costs ~49 bytes of header per value; the blob costs its UTF-8
    bytes plus an 8-byte offset.  A COPY joins staging blocks
    (:mod:`repro.cdw.stagefile`) into one and appends its buffers to a
    table without a ``str`` per value.
    """

    __slots__ = ("blob", "offsets")

    def __init__(self, valid=None, offsets=None, blob=None):
        self.blob = bytearray() if blob is None else blob
        #: offsets[i+1] ends value i; a NULL spans no bytes.
        self.offsets = array("q", [0]) if offsets is None else offsets
        self.valid = bytearray() if valid is None else valid

    def __len__(self):
        """Number of values (NULLs included)."""
        return len(self.valid)

    def append(self, value) -> None:
        """Append one ``str`` or None; anything else is a TypeError."""
        if type(value) is str:
            self.blob += value.encode("utf-8")
            self.offsets.append(len(self.blob))
            self.valid.append(1)
        elif value is None:
            self.offsets.append(len(self.blob))
            self.valid.append(0)
        else:
            raise TypeError(value)

    def append_many(self, values) -> None:
        """Append values; another TextColumn appends buffer by buffer,
        and an empty column takes its buffers over.

        Handing a TextColumn in hands its buffers off: only a caller
        that owns them exclusively may pass one — a column it built
        (:meth:`TextSlice.copy`, joined staging blocks) and keeps no
        other reference to.  A table's own column
        is never passed, so no two columns share a ``bytearray`` and a
        :meth:`truncate` of one never reaches another.
        """
        if type(values) is not TextColumn:
            _BaseColumn.append_many(self, values)
            return
        if not self.valid and type(values.blob) is bytearray \
                and type(values.valid) is bytearray:
            self.blob, self.offsets, self.valid = \
                values.blob, values.offsets, values.valid
            return
        base = len(self.blob)
        self.blob += values.blob
        ends = islice(values.offsets, 1, None)
        self.offsets.extend(map(base.__add__, ends) if base else ends)
        self.valid += values.valid

    def __getitem__(self, i):
        if i < 0:
            i += len(self.valid)
        if not self.valid[i]:
            return None
        return str(self.blob[self.offsets[i]:self.offsets[i + 1]], "utf-8")

    def to_list(self, lo: int, hi: int) -> list:
        """Values ``[lo, hi)`` as ``str | None``."""
        offsets, valid = self.offsets, self.valid
        start = offsets[lo]
        # One immutable copy of the range; ASCII bytes decode once and
        # slice at the byte offsets, which are then character offsets.
        buf = bytes(memoryview(self.blob)[start:offsets[hi]])
        starts, ends = offsets[lo:hi], offsets[lo + 1:hi + 1]
        if start:
            starts = map((-start).__add__, starts)
            ends = map((-start).__add__, ends)
        if buf.isascii():
            out = list(map(buf.decode("ascii").__getitem__,
                           map(slice, starts, ends)))
        else:
            out = list(map(bytes.decode,
                           map(buf.__getitem__, map(slice, starts, ends))))
        present = valid[lo:hi]
        if 0 in present:
            out = [v if p else None for v, p in zip(out, present)]
        return out

    def truncate(self, length: int) -> None:
        """Drop every value past ``length``."""
        del self.blob[self.offsets[length]:]
        del self.offsets[length + 1:]
        del self.valid[length:]

    def take_runs(self, spans) -> "TextColumn":
        """A new column of the rows of ``spans`` (:func:`runs`): each
        run is one copy of its blob bytes, its shifted end offsets and
        its validity bytes."""
        out = TextColumn()
        blob, offsets, valid = self.blob, self.offsets, self.valid
        with memoryview(blob) as view:
            for start, stop in spans:
                first = offsets[start]
                shift = len(out.blob) - first
                out.blob += view[first:offsets[stop]]
                ends = offsets[start + 1:stop + 1]
                out.offsets.extend(map(shift.__add__, ends) if shift
                                   else ends)
                out.valid += valid[start:stop]
        return out

    def nbytes(self) -> int:
        """Buffer footprint in bytes."""
        return (len(self.blob)
                + self.offsets.itemsize * len(self.offsets)
                + len(self.valid))


#: the bytes ``str.strip()`` removes that are ASCII: ``\t\n\v\f\r``,
#: ``\x1c``-``\x1f`` and space.
_ASCII_WHITESPACE = (*range(0x09, 0x0E), *range(0x1C, 0x21))


#: offsets per compare in :meth:`TextSlice.uniform_width`: the packed
#: progression is built this many at a time, so the check of a 50k-value
#: column holds some 100 KB at once, not a tuple and an int of every
#: offset (≈ 2 MB).
_PROGRESSION_STEP = 2048


@functools.lru_cache(maxsize=8)
def _uniform_cut(width: int, count: int) -> struct.Struct:
    """The struct cutting ``count`` values of ``width`` bytes each.

    Kept because an export cuts chunk after chunk of one width and
    count (parsing the format is ~40 % of a cut); a struct holds ~40
    bytes per value, so the few kept cost little at export chunk sizes.
    """
    return struct.Struct(f"{width}s" * count)


class TextSlice:
    """Values ``[lo, hi)`` of a :class:`TextColumn`, read in place.

    The vector path's form of a text column (:mod:`repro.cdw.expressions`):
    its kernels decide a whole slice with a few C-level calls over the
    column's buffers, and :meth:`to_list` is where it becomes ``str``
    values.  A slice never lends its buffers out: :meth:`copy` is the
    only way its values reach another column.
    """

    __slots__ = ("column", "lo", "hi", "_width")

    def __init__(self, column: TextColumn, lo: int, hi: int,
                 width: "int | None" = None):
        self.column = column
        self.lo = lo
        self.hi = hi
        #: the :meth:`uniform_width`, once known (None: not known).
        self._width = width

    def __len__(self):
        """Number of values (NULLs included)."""
        return self.hi - self.lo

    def sub(self, start: int, stop: int) -> "TextSlice":
        """Values ``[start, stop)`` of this slice; every value of a
        slice of one width has it, so a known width is handed down."""
        return TextSlice(self.column, self.lo + start, self.lo + stop,
                         self._width)

    def to_list(self) -> list:
        """The values as ``str | None``."""
        return self.column.to_list(self.lo, self.hi)

    def valid(self) -> bytes:
        """The validity bytes (1 = present)."""
        return bytes(self.column.valid[self.lo:self.hi])

    def null_count(self) -> int:
        """Number of NULLs."""
        return self.column.valid.count(0, self.lo, self.hi)

    def data(self) -> bytes:
        """The values' UTF-8 bytes, end to end (NULLs span none)."""
        offsets = self.column.offsets
        return bytes(memoryview(self.column.blob)[
            offsets[self.lo]:offsets[self.hi]])

    def pieces(self) -> list:
        """Each value's UTF-8 bytes (a NULL's are empty): the values
        without a ``str`` per value, cut from the blob by one struct
        unpack, of one width when every value has it
        (:meth:`uniform_width`), else of the values' lengths."""
        column, lo, hi = self.column, self.lo, self.hi
        if hi == lo:
            return []
        offsets = column.offsets
        width = self.uniform_width()
        if width is not None:
            cut = _uniform_cut(width, hi - lo)
        else:
            cut = struct.Struct("%ds" * (hi - lo) % tuple(
                map(sub, offsets[lo + 1:hi + 1], offsets[lo:hi])))
        return list(cut.unpack_from(column.blob, offsets[lo]))

    def max_chars(self) -> int:
        """Length in characters of the longest value (0 when there is
        none): the byte width when the column's blob is ASCII (tested in
        place, so a sub-slice is not copied), else counted over the
        decoded values."""
        if self.column.blob.isascii():
            return self.max_width()
        return max(map(len, filter(None, self.to_list())), default=0)

    def max_width(self) -> int:
        """Byte width of the widest value (0 when there is none): the
        :meth:`uniform_width` when the values have one, else a max over
        the offsets' differences."""
        width = self.uniform_width()
        if width is not None:
            return width
        offsets, lo, hi = self.column.offsets, self.lo, self.hi
        return max(map(sub, offsets[lo + 1:hi + 1], offsets[lo:hi]))

    def uniform_width(self) -> "int | None":
        """The width in bytes every value spans when their offsets are
        an arithmetic progression, else None: the offsets' bytes
        compared with the progression's, packed
        :data:`_PROGRESSION_STEP` offsets at a time (a bounded
        transient; an uneven slice stops at its first uneven step).  A
        NULL spans none, so a slice holding NULLs has one (0) only when
        no value has a byte.  A width found is kept with the slice (its
        values do not change while it is read) and its :meth:`sub`
        slices, so an export's chunks do not check it again."""
        if self._width is not None:
            return self._width
        offsets, lo, hi = self.column.offsets, self.lo, self.hi
        base, end = offsets[lo], offsets[hi]
        width, uneven = divmod(end - base, max(hi - lo, 1))
        if uneven:
            return None
        step = _PROGRESSION_STEP
        for first in range(lo, hi + 1, step) if width else ():
            last = min(first + step, hi + 1)
            start = base + (first - lo) * width
            if offsets[first:last].tobytes() != struct.pack(
                    f"{last - first}q",
                    *range(start, start + (last - first) * width, width)):
                return None
        self._width = width
        return width

    def free_of(self, needles: tuple) -> bool:
        """Whether no value holds any of ``needles`` (byte strings of
        one character each): one ``find`` per needle over the values'
        bytes."""
        offsets, blob = self.column.offsets, self.column.blob
        start, end = offsets[self.lo], offsets[self.hi]
        return all(blob.find(needle, start, end) < 0 for needle in needles)

    def has_width(self, width: int) -> bool:
        """Whether every value is ``width`` bytes wide (NULLs aside)."""
        offsets = self.column.offsets[self.lo:self.hi + 1]
        base = offsets[0]
        if not width:           # no value spans a byte
            return offsets[-1] == base
        if not self.null_count():
            return offsets == array(
                "q", range(base, base + width * len(self) + 1, width))
        ends = accumulate(self.valid(), initial=0)     # values so far
        return offsets == array(
            "q", map(base.__add__, map(width.__mul__, ends)))

    def trim_safe(self) -> bool:
        """Whether no value holds a character ``str.strip()`` removes,
        so TRIM, LTRIM and RTRIM are the identity: the bytes are ASCII
        and none is ASCII whitespace."""
        data = self.data()
        return data.isascii() and not any(
            map(data.__contains__, _ASCII_WHITESPACE))

    def gather(self, order) -> TextColumn:
        """A new column of the values at positions ``order`` of this
        slice, in that order: the :meth:`pieces` joined once, the
        offsets their lengths' running sum, with no ``str`` per value."""
        pieces = list(map(self.pieces().__getitem__, order))
        valid = self.valid()
        return TextColumn(bytearray(map(valid.__getitem__, order))
                          if 0 in valid else bytearray(b"\x01") * len(order),
                          array("q", accumulate(map(len, pieces),
                                                initial=0)),
                          bytearray().join(pieces))

    def copy(self) -> TextColumn:
        """A new column of these values, with buffers of its own."""
        column = self.column
        lo, hi = self.lo, self.hi
        offsets = column.offsets[lo:hi + 1]
        base = offsets[0]
        if base:
            offsets = array("q", map((-base).__add__, offsets))
        return TextColumn(bytearray(memoryview(column.valid)[lo:hi]), offsets,
                          bytearray(memoryview(column.blob)[
                              base:column.offsets[hi]]))


class _ObjectColumn(_BaseColumn):
    """Fallback: a plain Python list (DECIMAL/DATE/TIMESTAMP, and any
    column a typed buffer rejected)."""

    __slots__ = ("data",)

    def __init__(self):
        self.data: list = []
        self.valid = None   # nulls live inline

    def __len__(self):
        return len(self.data)

    def append(self, value) -> None:
        self.data.append(value)

    def append_many(self, values) -> None:
        self.data.extend(decoded(values))

    def __getitem__(self, i):
        return self.data[i]

    def to_list(self, lo: int, hi: int) -> list:
        return self.data[lo:hi]

    def truncate(self, length: int) -> None:
        del self.data[length:]

    def take_runs(self, spans) -> "_ObjectColumn":
        """A new column of the rows of ``spans`` (:func:`runs`)."""
        out = _ObjectColumn()
        for start, stop in spans:
            out.data += self.data[start:stop]
        return out

    def null_count(self) -> int:
        return sum(1 for v in self.data if v is None)

    def nbytes(self) -> int:
        # Estimate: list slots plus per-object size (shared objects are
        # counted once per reference; good enough for a gauge).
        return sys.getsizeof(self.data) + sum(
            sys.getsizeof(v) for v in self.data if v is not None)

    @classmethod
    def from_column(cls, column) -> "_ObjectColumn":
        out = cls()
        out.data = column.to_list(0, len(column))
        return out


def decoded(column):
    """Candidate column values as a list: the values of a
    :class:`TextColumn` or :class:`TextSlice` decoded, any other
    sequence as it is."""
    if type(column) is TextColumn:
        return column.to_list(0, len(column))
    if type(column) is TextSlice:
        return column.to_list()
    return column


class ColumnBlock:
    """Rows held as columns: each column a :class:`TextSlice` or a list
    of values, all ``length`` long.

    A query result's form for export: :class:`~repro.core.tdfcursor.TdfCursor`
    hands its chunks to the record codecs as blocks, and the compiled
    codecs (:mod:`repro.legacy.codec`) encode a block column by column.
    A block iterates as row tuples, so any record format encodes it.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: list, length: int):
        self.columns = columns
        self.length = length

    @classmethod
    def from_rows(cls, rows: "list[tuple]", arity: int) -> "ColumnBlock":
        """The block of ``rows`` (tuples of ``arity`` values), one value
        list per column."""
        columns = [list(col) for col in zip(*rows)] if rows \
            else [[] for _ in range(arity)]
        return cls(columns, len(rows))

    def __len__(self):
        """Number of rows."""
        return self.length

    def __iter__(self):
        return iter(self.rows())

    def rows(self) -> "list[tuple]":
        """The rows as tuples."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*map(decoded, self.columns)))

    def sub(self, lo: int, hi: int) -> "ColumnBlock":
        """Rows ``[lo, hi)`` of this block (``hi`` clipped to its end)."""
        hi = min(hi, self.length)
        lo = min(lo, hi)
        return ColumnBlock([col.sub(lo, hi) if type(col) is TextSlice
                            else col[lo:hi] for col in self.columns],
                           hi - lo)


def column_for_type(base: str):
    """A fresh column vector suited to a :class:`CdwType` base name."""
    if base in _INT_BASES:
        return _IntColumn()
    if base == "DOUBLE":
        return _FloatColumn()
    if base == "BOOLEAN":
        return _BoolColumn()
    if base in _CHAR_BASES:
        return TextColumn()
    return _ObjectColumn()


class ColumnStore:
    """All columns of one table, kept the same length."""

    __slots__ = ("specs", "cols", "_length")

    def __init__(self, specs):
        self.specs = specs
        self.cols = [column_for_type(s.ctype.base) for s in specs]
        self._length = 0

    def __len__(self):
        """Number of rows in the store."""
        return self._length

    # -- writes --------------------------------------------------------------

    def _degraded(self, i: int) -> _ObjectColumn:
        col = _ObjectColumn.from_column(self.cols[i])
        self.cols[i] = col
        return col

    def append_row(self, row) -> None:
        """Append one tuple, value by value."""
        for i, value in enumerate(row):
            try:
                self.cols[i].append(value)
            except (TypeError, OverflowError):
                self._degraded(i).append(value)
        self._length += 1

    def extend_rows(self, rows) -> None:
        """Append many tuples."""
        arity = len(self.cols)
        for row in rows:
            cols = self.cols
            for i in range(arity):
                try:
                    cols[i].append(row[i])
                except (TypeError, OverflowError):
                    self._degraded(i).append(row[i])
            self._length += 1

    def extend_columns(self, column_values: list[list]) -> None:
        """Columnwise append; every list must share one length."""
        if not column_values:
            return
        n = len(column_values[0])
        for i, vals in enumerate(column_values):
            try:
                self.cols[i].append_many(vals)
            except (TypeError, OverflowError):
                # Partial append possible: rebuild the column cleanly.
                done = self._length
                col = self.cols[i]
                col.truncate(done)
                self._degraded(i).append_many(vals)
        self._length += n

    # -- reads ---------------------------------------------------------------

    def row(self, i: int) -> tuple:
        """Materialize row ``i`` as a tuple (negative indexes allowed)."""
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("row index out of range")
        return tuple(col[i] for col in self.cols)

    def tuples(self, lo: int, hi: int) -> list[tuple]:
        """Materialize rows ``[lo, hi)`` as a list of tuples."""
        if hi <= lo:
            return []
        return list(zip(*(col.to_list(lo, hi) for col in self.cols)))

    def column_list(self, idx: int, lo: int = 0,
                    hi: "int | None" = None) -> list:
        """One column's Python values over row range ``[lo, hi)``."""
        return self.cols[idx].to_list(
            lo, self._length if hi is None else hi)

    def column_vector(self, idx: int, lo: int, hi: int):
        """One column over ``[lo, hi)`` as the vector path reads it: a
        :class:`TextSlice` of a text column, else a list of values."""
        col = self.cols[idx]
        if type(col) is TextColumn:
            return TextSlice(col, lo, hi)
        return col.to_list(lo, hi)

    # -- mutation ------------------------------------------------------------

    def add_column(self, spec) -> None:
        """Append one column (NULL-backfilled for every existing row).

        Callers keep ``specs`` in sync themselves when the spec list is
        shared with a table object; when it is not shared the spec is
        appended here.
        """
        col = column_for_type(spec.ctype.base)
        col.append_many([None] * self._length)
        self.cols.append(col)
        if not (self.specs and self.specs[-1] is spec):
            self.specs.append(spec)

    def truncate(self, length: int) -> None:
        """Drop every row past ``length``."""
        if length >= self._length:
            return
        length = max(length, 0)
        for col in self.cols:
            col.truncate(length)
        self._length = length

    def take(self, indices) -> "ColumnStore":
        """A new store holding the given rows, in the given order."""
        out = ColumnStore.__new__(ColumnStore)
        out.specs = self.specs
        spans = runs(indices)
        out.cols = [col.take_runs(spans) for col in self.cols]
        out._length = len(indices)
        return out

    def nbytes(self) -> int:
        """Total buffer footprint of every column, in bytes."""
        return sum(col.nbytes() for col in self.cols)

    @classmethod
    def of_vectors(cls, vectors: list, length: int) -> "ColumnStore":
        """A read-only store over columns of ``length`` values, each a
        :class:`TextColumn` or a list (taken over, not copied): a
        query result's snapshot, read through a
        :class:`~repro.cdw.table.RowsView`."""
        out = cls.__new__(cls)
        out.specs = None
        out.cols = []
        for vector in vectors:
            if type(vector) is not TextColumn:
                col = _ObjectColumn()
                col.data = vector
                vector = col
            out.cols.append(vector)
        out._length = length
        return out

    @classmethod
    def from_rows(cls, specs, rows) -> "ColumnStore":
        """Build a store from an iterable of row tuples."""
        store = cls(specs)
        store.extend_rows(rows)
        return store
