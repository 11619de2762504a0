"""The CDW's bulk-ingest file formats.

**Blocks** are the staging format: the DataConverter emits one block
per chunk, the FileWriter concatenates blocks into files, and the
pipeline's ``COPY INTO … FORMAT block`` appends their buffers to the
staging table without parsing text.  A block mirrors
:class:`~repro.cdw.columns.TextColumn`; integers are little-endian::

    header    magic ``HQB1``, u32 row count, u32 column count
    __SEQ     one int64 per row (rejected records leave gaps)
    columns   per column: one validity byte per row (1 = present),
              row count + 1 int64 end offsets (the first is 0), one
              UTF-8 blob

Every column is text: typed values render by the CSV rules below
(``str``, ``isoformat``, ``true``/``false``), so COPY coerces a block
into a typed column exactly as it coerces the same CSV field.

**CSV** is the user-facing ``COPY … FORMAT csv`` reader.  Unlike legacy
VARTEXT, it distinguishes SQL NULL (the unquoted marker ``\\N``) from
the empty string (``""``) and uses RFC-4180-style quoting for
delimiters, quotes, and newlines inside values.
"""

from __future__ import annotations

import datetime as _dt
import gzip
import io
import re
import struct
import sys
from array import array
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate, islice
from operator import le
from typing import Iterable, Iterator

from repro import values
from repro.cdw.columns import TextColumn
from repro.errors import DataFormatError

__all__ = [
    "encode_csv_row", "encode_csv_rows", "decode_csv_rows",
    "decode_csv_columns", "CsvKernel", "compress", "decompress",
    "NULL_MARKER", "BLOCK_FORMAT", "Block", "encode_block",
    "decode_blocks", "fields_column", "values_column",
]

NULL_MARKER = "\\N"

#: every character a non-string value can render to ("true"/"false",
#: float/Decimal digits, exponents, inf/nan, ISO dates and timestamps).
#: A delimiter outside this alphabet can never collide with a rendered
#: number/bool/date, so those fields skip the quote check entirely.
_NONSTRING_ALPHABET = frozenset("0123456789+-.:eE naiftrusl")


def _render_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float, Decimal)):
        return str(value)
    if isinstance(value, values.Timestamp):
        return value.isoformat(sep=" ")
    if isinstance(value, values.Date):
        return value.isoformat()
    raise DataFormatError(
        f"cannot serialize {type(value).__name__} into a staging file")


def _quote(text: str, delimiter: str) -> str:
    needs_quoting = (
        delimiter in text or '"' in text or "\n" in text
        or "\r" in text or text == NULL_MARKER or text == ""
    )
    if needs_quoting:
        return '"' + text.replace('"', '""') + '"'
    return text


def encode_csv_row(row: tuple, delimiter: str = ",") -> str:
    """Encode one row; NULLs become the unquoted ``\\N`` marker."""
    rendered = [
        NULL_MARKER if value is None
        else _quote(_render_value(value), delimiter)
        for value in row
    ]
    return delimiter.join(rendered) + "\n"


def encode_csv_rows(rows: Iterable[tuple], delimiter: str = ",") -> bytes:
    """Encode many rows into staging-file bytes.

    Streams row-by-row into a :class:`bytearray` so peak memory is the
    output buffer, not the output buffer plus one giant intermediate str.
    """
    out = bytearray()
    for row in rows:
        out += encode_csv_row(row, delimiter).encode("utf-8")
    return bytes(out)


class CsvKernel:
    """A row→CSV renderer compiled once per delimiter.

    :func:`encode_csv_row` re-discovers each value's type and re-checks
    quoting rules per field; the kernel picks a renderer closure per
    concrete value type up front and skips the quote scan for rendered
    values that cannot collide with the delimiter.  Output is identical
    to :func:`encode_csv_row` for every input (the stagefile test suite
    holds the two equivalent); unusual types fall back to the reference
    functions, errors included.  No load path renders CSV any more: the
    kernel serves the benchmark's kernel drives and the block-staging
    differential test's reference route.
    """

    def __init__(self, delimiter: str = ","):
        self.delimiter = delimiter
        search = re.compile("[%s\"\n\r]" % re.escape(delimiter)).search
        self._search = search

        def quote_checked(text: str) -> str:
            if text and text != NULL_MARKER and search(text) is None:
                return text
            return '"' + text.replace('"', '""') + '"'

        self._quote_checked = quote_checked
        safe = (len(delimiter) == 1
                and delimiter not in _NONSTRING_ALPHABET)
        self._safe_nonstring = safe
        if safe:
            render_number = str

            def render_bool(value):
                return "true" if value else "false"

            def render_timestamp(value):
                return value.isoformat(sep=" ")

            render_date = _dt.date.isoformat
        else:
            def render_number(value):
                return quote_checked(str(value))

            def render_bool(value):
                return quote_checked("true" if value else "false")

            def render_timestamp(value):
                return quote_checked(value.isoformat(sep=" "))

            def render_date(value):
                return quote_checked(value.isoformat())

        self._renderers = {
            str: quote_checked,
            bool: render_bool,
            int: render_number,
            float: render_number,
            Decimal: render_number,
            _dt.datetime: render_timestamp,
            _dt.date: render_date,
        }

    def _fallback(self, value) -> str:
        # Subclasses and unsupported types: exact reference behaviour.
        return _quote(_render_value(value), self.delimiter)

    def render_row(self, row: tuple, seq: int | None = None) -> str:
        """Render one row (optionally appending a ``__SEQ`` value)."""
        renderers = self._renderers
        fallback = self._fallback
        parts: list[str] = []
        append = parts.append
        for value in row:
            if value is None:
                append(NULL_MARKER)
                continue
            render = renderers.get(value.__class__)
            append(render(value) if render is not None else fallback(value))
        if seq is not None:
            text = str(seq)
            append(text if self._safe_nonstring
                   else self._quote_checked(text))
        return self.delimiter.join(parts) + "\n"


def decode_csv_rows(data: bytes,
                    delimiter: str = ",") -> Iterator[tuple[str | None, ...]]:
    """Decode a CSV file back into rows of ``str | None`` fields.

    Typing is the COPY target table's job; the file format itself only
    distinguishes NULL from text.
    """
    text = data.decode("utf-8")
    if '"' not in text and len(delimiter) == 1 and delimiter not in '"\n\r':
        # No quoting anywhere: rows are exactly the newline-separated
        # segments (the terminator's trailing empty segment excluded),
        # every CR is skipped, and fields split on the bare delimiter.
        lines = text.split("\n")
        last = len(lines) - 1
        for index, line in enumerate(lines):
            if index == last and line == "":
                break
            if "\r" in line:
                line = line.replace("\r", "")
            parts = line.split(delimiter)
            yield tuple(
                [None if part == NULL_MARKER else part for part in parts])
        return
    pos = 0
    n = len(text)
    while pos < n:
        row: list[str | None] = []
        field_chars: list[str] = []
        quoted = False
        was_quoted = False
        while pos < n:
            ch = text[pos]
            if quoted:
                if ch == '"':
                    if pos + 1 < n and text[pos + 1] == '"':
                        field_chars.append('"')
                        pos += 2
                        continue
                    quoted = False
                    pos += 1
                    continue
                field_chars.append(ch)
                pos += 1
                continue
            if ch == '"' and not field_chars:
                quoted = True
                was_quoted = True
                pos += 1
                continue
            if ch == delimiter:
                row.append(_finish_field(field_chars, was_quoted))
                field_chars = []
                was_quoted = False
                pos += 1
                continue
            if ch == "\n":
                pos += 1
                break
            if ch == "\r":
                pos += 1
                continue
            field_chars.append(ch)
            pos += 1
        else:
            if quoted:
                raise DataFormatError("unterminated quoted CSV field")
        row.append(_finish_field(field_chars, was_quoted))
        yield tuple(row)


def decode_csv_columns(data: bytes, delimiter: str,
                       arity: int) -> "list[list[str | None]] | None":
    """Columnwise :func:`decode_csv_rows`: one value list per column.

    Only handles the quote-free layout with exactly ``arity`` fields per
    line — the shape :class:`CsvKernel` renders.  Returns
    None for quoted, ragged, or exotic-delimiter data; the caller then
    uses the row decoder, whose error behaviour (wrong-arity rows reach
    ``coerce_row``) is the canonical one.
    """
    text = data.decode("utf-8")
    if '"' in text or len(delimiter) != 1 or delimiter in '"\n\r':
        return None
    cols: list[list[str | None]] = [[] for _ in range(arity)]
    lines = text.split("\n")
    last = len(lines) - 1
    for index, line in enumerate(lines):
        if index == last and line == "":
            break
        if "\r" in line:
            line = line.replace("\r", "")
        parts = line.split(delimiter)
        if len(parts) != arity:
            return None
        for i, part in enumerate(parts):
            cols[i].append(None if part == NULL_MARKER else part)
    return cols


def _finish_field(chars: list[str], was_quoted: bool) -> str | None:
    text = "".join(chars)
    if not was_quoted and text == NULL_MARKER:
        return None
    return text


def compress(data: bytes) -> bytes:
    """Apply the staging-file compression (gzip) used before upload."""
    buffer = io.BytesIO()
    # mtime=0 keeps output deterministic for tests.
    with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
        handle.write(data)
    return buffer.getvalue()


def decompress(data: bytes) -> bytes:
    """Undo :func:`compress`, mapping corruption to DataFormatError."""
    try:
        return gzip.decompress(data)
    except (OSError, EOFError) as exc:
        raise DataFormatError(f"corrupt compressed staging file: {exc}") \
            from exc


# -- blocks ------------------------------------------------------------------

#: the ``COPY INTO … FORMAT`` name of the staging block format.
BLOCK_FORMAT = "block"
_MAGIC = b"HQB1"
_HEADER = struct.Struct("<4sII")
_SWAP = sys.byteorder != "little"


@dataclass(frozen=True)
class Block:
    """One decoded block: its ``__SEQ`` values and its text columns."""

    seq: array
    columns: list[TextColumn]


def _column(valid: bytearray, fields: list[bytes]) -> TextColumn:
    offsets = array("q", [0])
    offsets.extend(accumulate(map(len, fields)))
    return TextColumn(valid, offsets, b"".join(fields))


def fields_column(fields: list[bytes]) -> TextColumn:
    """A text column of raw UTF-8 fields; an empty field is NULL (the
    legacy VARTEXT rule)."""
    return _column(bytearray(map(bool, fields)), fields)


def values_column(column_values) -> TextColumn:
    """A text column of values rendered as CSV fields are, unquoted."""
    return _column(
        bytearray([value is not None for value in column_values]),
        [b"" if value is None else _render_value(value).encode("utf-8")
         for value in column_values])


def _int64_bytes(numbers: array) -> bytes:
    if _SWAP:
        numbers = array("q", numbers)
        numbers.byteswap()
    return numbers.tobytes()


def encode_block(seq: array, columns: list[TextColumn]) -> bytes:
    """One block of ``len(seq)`` rows; every column holds as many."""
    parts = [_HEADER.pack(_MAGIC, len(seq), len(columns)),
             _int64_bytes(seq)]
    for column in columns:
        parts += (column.valid, _int64_bytes(column.offsets), column.blob)
    return b"".join(parts)


def _int64s(raw) -> array:
    numbers = array("q")
    numbers.frombytes(raw)
    if _SWAP:
        numbers.byteswap()
    return numbers


def decode_blocks(data: bytes) -> list[Block]:
    """Every block of a staging file, in file order.

    A truncated or corrupt block raises :class:`DataFormatError`.  The
    columns' buffers are views into ``data`` (offsets excepted).
    """
    view = memoryview(data)
    size = len(view)
    pos = 0

    def take(length: int, what: str):
        nonlocal pos
        end = pos + length
        if end > size:
            raise DataFormatError(f"truncated staging block: {what} "
                                  f"needs {length} bytes, {size - pos} left")
        part = view[pos:end]
        pos = end
        return part

    blocks = []
    while pos < size:
        magic, rows, ncols = _HEADER.unpack(take(_HEADER.size, "header"))
        if magic != _MAGIC:
            raise DataFormatError(f"not a staging block: magic {magic!r}")
        seq = _int64s(take(8 * rows, "__SEQ"))
        columns = []
        for _ in range(ncols):
            valid = take(rows, "validity")
            if bytes(valid).translate(None, b"\x00\x01"):
                raise DataFormatError("corrupt staging block: validity")
            offsets = _int64s(take(8 * (rows + 1), "offsets"))
            if offsets[0] != 0 or not all(
                    map(le, offsets, islice(offsets, 1, None))):
                raise DataFormatError("corrupt staging block: offsets")
            blob = take(offsets[-1], "blob")
            try:
                str(blob, "utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(
                    f"corrupt staging block: {exc}") from exc
            columns.append(TextColumn(valid, offsets, blob))
        blocks.append(Block(seq, columns))
    return blocks
