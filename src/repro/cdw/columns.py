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
opts into columnar reads via ``column_list``.
"""

from __future__ import annotations

import sys
from array import array
from itertools import islice

__all__ = ["ColumnStore", "TextColumn", "column_for_type"]

_INT_BASES = ("SMALLINT", "INT", "BIGINT")
_CHAR_BASES = ("NVARCHAR", "VARCHAR", "CHAR")

#: array('q') bounds; Python ints outside degrade the column to objects.
_Q_MIN, _Q_MAX = -2 ** 63, 2 ** 63 - 1


class _BaseColumn:
    """Shared shape of one column vector."""

    __slots__ = ("valid",)

    def append_many(self, values) -> None:
        for v in values:
            self.append(v)

    def null_count(self) -> int:
        return len(self.valid) - sum(self.valid)


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
        if len(valid) == sum(valid):          # no NULLs: bulk convert
            return data[lo:hi].tolist()
        return [data[i] if valid[i] else None for i in range(lo, hi)]

    def truncate(self, length: int) -> None:
        del self.data[length:]
        del self.valid[length:]

    def take(self, indices) -> "_IntColumn":
        out = _IntColumn()
        data, valid = self.data, self.valid
        out.data = array("q", (data[i] for i in indices))
        out.valid = bytearray(valid[i] for i in indices)
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
        if len(valid) == sum(valid):
            return data[lo:hi].tolist()
        return [data[i] if valid[i] else None for i in range(lo, hi)]

    def truncate(self, length: int) -> None:
        del self.data[length:]
        del self.valid[length:]

    def take(self, indices) -> "_FloatColumn":
        out = _FloatColumn()
        out.data = array("d", (self.data[i] for i in indices))
        out.valid = bytearray(self.valid[i] for i in indices)
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

    def take(self, indices) -> "_BoolColumn":
        out = _BoolColumn()
        out.data = bytearray(self.data[i] for i in indices)
        out.valid = bytearray(self.valid[i] for i in indices)
        return out

    def nbytes(self) -> int:
        return len(self.data) + len(self.valid)


class TextColumn(_BaseColumn):
    """Strings as one UTF-8 blob plus end offsets.

    This is where the memory multiple comes from: a Python ``str``
    costs ~49 bytes of header per value; the blob costs its UTF-8
    bytes plus an 8-byte offset.  It is also the text column of a
    staging block (:mod:`repro.cdw.stagefile`), so a COPY can append a
    block's buffers to a table without a ``str`` per value.
    """

    __slots__ = ("blob", "offsets")

    def __init__(self, valid=None, offsets=None, blob=None):
        self.blob = bytearray() if blob is None else blob
        #: offsets[i+1] ends value i; a NULL spans no bytes.
        self.offsets = array("q", [0]) if offsets is None else offsets
        self.valid = bytearray() if valid is None else valid

    @classmethod
    def concat(cls, parts) -> "TextColumn":
        """One column of the values of ``parts`` (TextColumns), in
        order; each buffer is allocated once."""
        offsets = array("q", [0])
        base = 0
        for part in parts:
            ends = islice(part.offsets, 1, None)
            offsets.extend(map(base.__add__, ends) if base else ends)
            base += len(part.blob)
        return cls(bytearray().join([part.valid for part in parts]),
                   offsets,
                   bytearray().join([part.blob for part in parts]))

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
        and an empty column takes its buffers over (the caller hands
        them off)."""
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
        out = []
        append = out.append
        start = offsets[lo]
        # One immutable copy: bytes slices decode without further copies
        # of the mutable blob.
        buf = bytes(self.blob[start:offsets[hi]])
        for i in range(lo, hi):
            if valid[i]:
                append(buf[offsets[i] - start:offsets[i + 1] - start]
                       .decode("utf-8"))
            else:
                append(None)
        return out

    def truncate(self, length: int) -> None:
        """Drop every value past ``length``."""
        del self.blob[self.offsets[length]:]
        del self.offsets[length + 1:]
        del self.valid[length:]

    def take(self, indices) -> "TextColumn":
        """A new column of the values at ``indices``, in that order."""
        out = TextColumn()
        blob, offsets, valid = self.blob, self.offsets, self.valid
        for i in indices:
            if valid[i]:
                out.blob += blob[offsets[i]:offsets[i + 1]]
                out.valid.append(1)
            else:
                out.valid.append(0)
            out.offsets.append(len(out.blob))
        return out

    def nbytes(self) -> int:
        """Buffer footprint in bytes."""
        return (len(self.blob)
                + self.offsets.itemsize * len(self.offsets)
                + len(self.valid))


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
        self.data.extend(values)

    def __getitem__(self, i):
        return self.data[i]

    def to_list(self, lo: int, hi: int) -> list:
        return self.data[lo:hi]

    def truncate(self, length: int) -> None:
        del self.data[length:]

    def take(self, indices) -> "_ObjectColumn":
        out = _ObjectColumn()
        data = self.data
        out.data = [data[i] for i in indices]
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
        out.cols = [col.take(indices) for col in self.cols]
        out._length = len(indices)
        return out

    def nbytes(self) -> int:
        """Total buffer footprint of every column, in bytes."""
        return sum(col.nbytes() for col in self.cols)

    @classmethod
    def from_rows(cls, specs, rows) -> "ColumnStore":
        """Build a store from an iterable of row tuples."""
        store = cls(specs)
        store.extend_rows(rows)
        return store
