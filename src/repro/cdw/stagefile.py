"""The CDW's bulk-ingest file formats.

**Blocks** are the staging format: the DataConverter emits one block
per chunk, the FileWriter concatenates blocks into files, and the
pipeline's ``COPY INTO … FORMAT block`` appends their buffers to the
staging table without parsing text.  A text column is framed the way
a columnar file keeps a string column, as a data stream plus a length
stream; integers are little-endian::

    header    magic ``HQB2``, u32 row count, u32 column count,
              u32 run count
    __SEQ     per run: int64 first, int64 stop; the runs hold the rows'
              ``__SEQ`` values ``first, first + 1, …, stop - 1`` in row
              order (rejected records split a chunk's run)
    columns   per column: u64 blob size, one validity byte per row
              (1 = present), one u64 UTF-8 byte length per row (a
              NULL's is 0), the blob

A reader takes a block in O(columns + runs) steps: lengths are unsigned,
so no value can end before it starts, and COPY proves once per block
and column, where it turns the lengths into a
:class:`~repro.cdw.columns.TextColumn`'s end offsets by one running sum
(:func:`join_blocks`), that they add up to the stated blob size.  The
runs tell COPY for free whether the staged rows ascend in ``__SEQ``.

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
from collections import namedtuple
from decimal import Decimal
from itertools import accumulate, chain
from typing import Iterable, Iterator

from repro import values
from repro.cdw.columns import TextColumn, runs
from repro.errors import DataFormatError

__all__ = [
    "encode_csv_row", "encode_csv_rows", "decode_csv_rows",
    "decode_csv_columns", "CsvKernel", "compress", "decompress",
    "NULL_MARKER", "BLOCK_FORMAT", "Block", "BlockColumn",
    "encode_block", "decode_blocks", "join_blocks", "fields_column",
    "values_column",
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
_MAGIC = b"HQB2"
_HEADER = struct.Struct("<4sIII")
_SIZE = struct.Struct("<Q")
_SWAP = sys.byteorder != "little"


#: one text column of a block: a validity byte per value (1 = present),
#: each value's UTF-8 byte length (``array('Q')``) and the values' bytes.
BlockColumn = namedtuple("BlockColumn", "valid lengths blob")
#: one decoded block: ``rows`` rows whose ``__SEQ`` values are the
#: ``[first, stop)`` ``runs`` in order, and its ``BlockColumn`` list.
Block = namedtuple("Block", "runs rows columns")


def fields_column(fields: list[bytes]) -> BlockColumn:
    """A block column of raw UTF-8 fields; an empty field is NULL (the
    legacy VARTEXT rule)."""
    valid = bytearray(map(bool, fields)) if b"" in fields \
        else bytearray(b"\x01") * len(fields)
    return BlockColumn(valid, array("Q", map(len, fields)),
                       b"".join(fields))


def values_column(column_values) -> BlockColumn:
    """A block column of values rendered as CSV fields are, unquoted."""
    fields = [b"" if value is None else _render_value(value).encode("utf-8")
              for value in column_values]
    return BlockColumn(bytearray([value is not None
                                  for value in column_values]),
                       array("Q", map(len, fields)), b"".join(fields))


def _little(numbers: array) -> bytes:
    if _SWAP:
        numbers = array(numbers.typecode, numbers)
        numbers.byteswap()
    return numbers.tobytes()


def _numbers(typecode: str, raw) -> array:
    numbers = array(typecode)
    numbers.frombytes(raw)
    if _SWAP:
        numbers.byteswap()
    return numbers


def encode_block(seq, columns: list[BlockColumn]) -> bytes:
    """One block of ``len(seq)`` rows whose ``__SEQ`` values are
    ``seq`` (a ``range`` or a sequence of ints); every column holds as
    many values."""
    spans = runs(seq)
    parts = [_HEADER.pack(_MAGIC, len(seq), len(columns), len(spans)),
             _little(array("q", chain.from_iterable(spans)))]
    for column in columns:
        parts += (_SIZE.pack(len(column.blob)), column.valid,
                  _little(column.lengths), column.blob)
    return b"".join(parts)


def decode_blocks(data: bytes) -> list[Block]:
    """Every block of a staging file, in file order.

    A truncated block, a bad magic, empty ``__SEQ`` runs or runs that
    do not hold the row count, a validity byte outside {0, 1} or a
    non-UTF-8 blob raises :class:`DataFormatError`; :func:`join_blocks`
    proves the lengths.  Validity bytes and blobs are views into
    ``data``.
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
        magic, rows, ncols, nruns = _HEADER.unpack(
            take(_HEADER.size, "header"))
        if magic != _MAGIC:
            raise DataFormatError(f"not a staging block: magic {magic!r}")
        bounds = _numbers("q", take(16 * nruns, "__SEQ runs"))
        spans = list(zip(bounds[::2], bounds[1::2]))
        if any(stop <= first for first, stop in spans) or sum(
                stop - first for first, stop in spans) != rows:
            raise DataFormatError("corrupt staging block: __SEQ runs")
        columns = []
        for _ in range(ncols):
            (blob_size,) = _SIZE.unpack(take(_SIZE.size, "blob size"))
            valid = take(rows, "validity")
            if bytes(valid).translate(None, b"\x00\x01"):
                raise DataFormatError("corrupt staging block: validity")
            lengths = _numbers("Q", take(8 * rows, "lengths"))
            blob = take(blob_size, "blob")
            try:
                str(blob, "utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(
                    f"corrupt staging block: {exc}") from exc
            columns.append(BlockColumn(valid, lengths, blob))
        blocks.append(Block(spans, rows, columns))
    return blocks


def join_blocks(blocks: list[Block]) -> "tuple[list, bool]":
    """The rows of ``blocks`` (at least one, in order, each with the
    same column count) as one :class:`TextColumn` per text column plus the
    ``__SEQ`` values last (``array('q')``), and whether those ascend.

    Each column's end offsets are one running sum over every block's
    lengths; where each block ends, the sum must have grown by that
    block's blob size, or :class:`DataFormatError` is raised.
    """
    spans = [span for block in blocks for span in block.runs]
    seq = array("q")
    for first, stop in spans:
        seq.extend(range(first, stop))
    out: list = []
    for i in range(len(blocks[0].columns)):
        parts = [block.columns[i] for block in blocks]
        lengths = array("Q")
        for part in parts:
            lengths += part.lengths
        offsets = array("q", [0])
        try:
            offsets.extend(accumulate(lengths))
        except OverflowError:
            raise DataFormatError(
                "corrupt staging block: lengths overflow") from None
        row = end = 0
        for part in parts:
            row += len(part.lengths)
            end += len(part.blob)
            if offsets[row] != end:
                raise DataFormatError("corrupt staging block: lengths "
                                      "do not sum to the blob size")
        out.append(TextColumn(bytearray().join([p.valid for p in parts]),
                              offsets,
                              bytearray().join([p.blob for p in parts])))
    out.append(seq)
    return out, all(stop <= first for (_, stop), (first, _)
                    in zip(spans, spans[1:]))
