"""Legacy binary record formats (the over-the-wire data encodings).

The legacy ETL client formats data "according to the format and protocol of
the EDW system" (Section 2).  Two encodings are provided, mirroring the two
families of legacy load formats:

- **VARTEXT** — delimiter-separated text records, one per line.  All fields
  are character data; an *empty* field means SQL NULL (this is the
  "detecting null values, handling empty strings" discrepancy that the
  DataConverter of Section 4 must bridge, because the CDW's CSV input
  distinguishes NULL from the empty string).  The encoder renders each
  value as its field's type carries it — the text a BINARY encode →
  decode of the value renders as — so an export written straight to
  VARTEXT reads the same as one re-encoded from BINARY.
- **BINARY** — length-prefixed typed records with a null-indicator bitmap,
  using the legacy system's value encodings (e.g. dates as the classic
  ``(year-1900)*10000 + month*100 + day`` integer).

Both encoders work record-at-a-time so the client can cut chunks on record
boundaries, and both decoders offer a *lenient* mode that yields
:class:`~repro.errors.DataFormatError` objects in place of undecodable
records — the hook for per-tuple error reporting during acquisition.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro import values
from repro.errors import DataFormatError, ExpressionError, ProtocolError
from repro.legacy.types import FieldDef, Layout

__all__ = [
    "FormatSpec",
    "RecordFormat",
    "VartextFormat",
    "BinaryFormat",
    "make_format",
    "LEGACY_FIELD_COUNT_ERROR",
]

#: legacy error code for a record with the wrong number of fields.
LEGACY_FIELD_COUNT_ERROR = 2673

_DATE_EPOCH_BASE = 1900

#: value range of each integer type's BINARY width.
INT_RANGES = {
    "BYTEINT": (-2**7, 2**7 - 1),
    "SMALLINT": (-2**15, 2**15 - 1),
    "INTEGER": (-2**31, 2**31 - 1),
    "BIGINT": (-2**63, 2**63 - 1),
}


def _valid_delimiter(delimiter: str) -> bool:
    return len(delimiter) == 1 and delimiter not in ("\\", "\n")


def _escaper(delimiter: str):
    """``text -> text`` with VARTEXT's backslash escapes applied."""
    search = re.compile("[\\\\\n%s]" % re.escape(delimiter)).search

    def escape(text: str) -> str:
        if search(text) is None:
            return text
        return (text.replace("\\", "\\\\")
                .replace(delimiter, "\\" + delimiter)
                .replace("\n", "\\n"))

    return escape


@dataclass(frozen=True)
class FormatSpec:
    """A serializable description of a record format.

    Travels inside BEGIN LOAD / BEGIN EXPORT protocol messages so both ends
    agree on the encoding; ``kind`` is ``"vartext"`` or ``"binary"``.
    """

    kind: str
    delimiter: str = "|"

    def to_wire(self) -> str:
        """Serialize for BEGIN LOAD / BEGIN EXPORT metadata."""
        return f"{self.kind}:{self.delimiter}"

    @classmethod
    def from_wire(cls, text: str) -> "FormatSpec":
        kind, _, delim = text.partition(":")
        return cls(kind=kind, delimiter=delim or "|")

    def validate(self) -> "FormatSpec":
        """This spec, if it names a record format :func:`make_format` builds.

        Otherwise raise :class:`ProtocolError` naming the wire form: a
        bad format is a bad request, not a record's conversion error.
        """
        if self.kind == "binary" or (
                self.kind == "vartext" and _valid_delimiter(self.delimiter)):
            return self
        raise ProtocolError(
            f"unsupported record format {self.to_wire()!r}")


def make_format(spec: FormatSpec, layout: Layout) -> "RecordFormat":
    """Instantiate the encoder/decoder named by ``spec`` for ``layout``.

    Returns the layout-compiled codecs from :mod:`repro.legacy.codec`;
    they are subclasses of the reference classes below and byte-identical
    in behaviour, errors included.
    """
    from repro.legacy import codec

    return codec.compile_format(spec, layout)


class RecordFormat:
    """Common interface of the legacy record encodings."""

    def __init__(self, layout: Layout):
        self.layout = layout

    # -- encoding ----------------------------------------------------------

    def encode_record(self, row: tuple) -> bytes:
        """Encode one row as wire bytes."""
        raise NotImplementedError

    def encode_records(self, rows: Iterable[tuple]) -> bytes:
        """Encode many rows back to back."""
        return b"".join(self.encode_record(r) for r in rows)

    # -- decoding ----------------------------------------------------------

    def iter_decode(self, data: bytes) -> Iterator[tuple | DataFormatError]:
        """Yield one decoded row per record; errors replace bad records."""
        raise NotImplementedError

    def decode_records(self, data: bytes) -> list[tuple]:
        """Strict decode: raise on the first malformed record."""
        out: list[tuple] = []
        for item in self.iter_decode(data):
            if isinstance(item, DataFormatError):
                raise item
            out.append(item)
        return out

    def count_records(self, data: bytes) -> int:
        """Number of items :meth:`iter_decode` would yield for ``data``.

        Lets callers size-check a chunk before paying for the decode.
        """
        return sum(1 for _ in self.iter_decode(data))


def _typed_text(value, fld: FieldDef) -> str:
    """``value`` rendered as ``fld``'s type carries it.

    The text is exactly what a BINARY encode → decode of the value
    renders as: an int in a FLOAT field reads ``4.0``, a bool in a
    BIGINT field ``1``, a value BINARY cannot carry raises
    :class:`DataFormatError`.
    """
    ftype = fld.type
    base = ftype.base
    try:
        if ftype.is_character:
            return str(value)
        if ftype.is_integer:
            number = int(value)
            low, high = INT_RANGES[base]
            if not low <= number <= high:
                raise ValueError(f"{number} is out of range")
            return str(number)
        if base == "FLOAT":
            return str(float(value))
        if base == "DECIMAL":
            # BINARY carries the text as ASCII and decodes it as a decimal.
            text = str(value)
            text.encode("ascii")
            return str(values.parse_decimal(text))
        if base == "DATE":
            return values.format_date(value)
        return values.parse_timestamp(  # TIMESTAMP
            value.isoformat(sep=" ")).isoformat(sep=" ")
    except (ArithmeticError, AttributeError, ExpressionError, TypeError,
            ValueError) as exc:
        raise DataFormatError(
            f"cannot encode {value!r} as {ftype.render()}: {exc}",
            field=fld.name) from exc


class VartextFormat(RecordFormat):
    """Delimiter-separated text records, one per ``\\n``-terminated line."""

    def __init__(self, layout: Layout, delimiter: str = "|"):
        super().__init__(layout)
        if not _valid_delimiter(delimiter):
            raise DataFormatError(f"invalid vartext delimiter {delimiter!r}")
        self.delimiter = delimiter
        self._escape = _escaper(delimiter)

    # -- encoding ----------------------------------------------------------

    def _render_field(self, value, fld: FieldDef) -> str:
        if value is None:
            return ""
        return self._escape(_typed_text(value, fld))

    def encode_record(self, row: tuple) -> bytes:
        """Encode one row as a delimited text line."""
        if len(row) != self.layout.arity:
            raise DataFormatError(
                f"record has {len(row)} fields, layout "
                f"{self.layout.name!r} expects {self.layout.arity}",
                code=LEGACY_FIELD_COUNT_ERROR)
        parts = [
            self._render_field(v, f)
            for v, f in zip(row, self.layout.fields)
        ]
        return (self.delimiter.join(parts) + "\n").encode("utf-8")

    # -- decoding ----------------------------------------------------------

    def _split_line(self, line: str) -> list[str | None]:
        fields: list[str | None] = []
        buf: list[str] = []
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == "\\" and i + 1 < len(line):
                nxt = line[i + 1]
                buf.append("\n" if nxt == "n" else nxt)
                i += 2
                continue
            if ch == self.delimiter:
                fields.append("".join(buf))
                buf = []
            else:
                buf.append(ch)
            i += 1
        fields.append("".join(buf))
        # Legacy semantics: an empty vartext field is NULL.
        return [f if f != "" else None for f in fields]

    def iter_decode(self, data: bytes) -> Iterator[tuple | DataFormatError]:
        text = data.decode("utf-8")
        for line in text.split("\n"):
            if line == "":
                continue
            fields = self._split_line(line)
            if len(fields) != self.layout.arity:
                yield DataFormatError(
                    f"record has {len(fields)} fields, layout "
                    f"{self.layout.name!r} expects {self.layout.arity}",
                    code=LEGACY_FIELD_COUNT_ERROR)
                continue
            yield tuple(fields)

    def count_records(self, data: bytes) -> int:
        """Count records without decoding the text.

        UTF-8 multi-byte sequences never contain ``0x0A``, so splitting
        the raw bytes on newlines sees exactly the lines ``iter_decode``
        sees; empty lines are skipped there too.
        """
        return sum(1 for line in data.split(b"\n") if line)


class BinaryFormat(RecordFormat):
    """Length-prefixed typed records with a null-indicator bitmap.

    Record wire layout::

        u16  body length (bytes after this header)
        u8[] null bitmap, ceil(arity / 8) bytes, bit i set => field i NULL
        ...  non-null field payloads, in layout order
    """

    def __init__(self, layout: Layout):
        super().__init__(layout)
        self._bitmap_len = (layout.arity + 7) // 8

    # -- field codecs ------------------------------------------------------

    def _encode_field(self, value, ftype: LegacyType, name: str) -> bytes:
        try:
            if ftype.is_character:
                raw = str(value).encode("utf-8")
                return struct.pack("<H", len(raw)) + raw
            if ftype.base == "BYTEINT":
                return struct.pack("<b", int(value))
            if ftype.base == "SMALLINT":
                return struct.pack("<h", int(value))
            if ftype.base == "INTEGER":
                return struct.pack("<i", int(value))
            if ftype.base == "BIGINT":
                return struct.pack("<q", int(value))
            if ftype.base == "FLOAT":
                return struct.pack("<d", float(value))
            if ftype.base == "DECIMAL":
                text = str(value)
                # A payload the decoder cannot parse fails here, not there.
                values.parse_decimal(text)
                raw = text.encode("ascii")
                return struct.pack("<H", len(raw)) + raw
            if ftype.base == "DATE":
                encoded = ((value.year - _DATE_EPOCH_BASE) * 10000
                           + value.month * 100 + value.day)
                return struct.pack("<i", encoded)
            if ftype.base == "TIMESTAMP":
                raw = value.isoformat(sep=" ").encode("ascii")
                return struct.pack("<H", len(raw)) + raw
        except (struct.error, ArithmeticError, AttributeError,
                ExpressionError, TypeError, ValueError) as exc:
            raise DataFormatError(
                f"cannot encode {value!r} as {ftype.render()}: {exc}",
                field=name) from exc
        raise DataFormatError(
            f"no binary encoding for {ftype.render()}", field=name)

    def _decode_field(self, view: memoryview, pos: int,
                      ftype: LegacyType, name: str):
        try:
            if ftype.is_character or ftype.base in ("DECIMAL", "TIMESTAMP"):
                (length,) = struct.unpack_from("<H", view, pos)
                raw = bytes(view[pos + 2:pos + 2 + length])
                if len(raw) != length:
                    raise DataFormatError(
                        f"truncated field {name}", field=name)
                pos += 2 + length
                text = raw.decode("utf-8")
                if ftype.base == "DECIMAL":
                    return values.parse_decimal(text, field=name), pos
                if ftype.base == "TIMESTAMP":
                    return values.parse_timestamp(text, field=name), pos
                return text, pos
            if ftype.base == "BYTEINT":
                (val,) = struct.unpack_from("<b", view, pos)
                return val, pos + 1
            if ftype.base == "SMALLINT":
                (val,) = struct.unpack_from("<h", view, pos)
                return val, pos + 2
            if ftype.base == "INTEGER":
                (val,) = struct.unpack_from("<i", view, pos)
                return val, pos + 4
            if ftype.base == "BIGINT":
                (val,) = struct.unpack_from("<q", view, pos)
                return val, pos + 8
            if ftype.base == "FLOAT":
                (val,) = struct.unpack_from("<d", view, pos)
                return val, pos + 8
            if ftype.base == "DATE":
                (encoded,) = struct.unpack_from("<i", view, pos)
                year = encoded // 10000 + _DATE_EPOCH_BASE
                month = (encoded // 100) % 100
                day = encoded % 100
                return values.Date(year, month, day), pos + 4
        except struct.error as exc:
            raise DataFormatError(
                f"truncated field {name}: {exc}", field=name) from exc
        except ValueError as exc:
            raise DataFormatError(
                f"bad value for field {name}: {exc}", field=name) from exc
        raise DataFormatError(
            f"no binary decoding for {ftype.render()}", field=name)

    # -- records -----------------------------------------------------------

    def encode_record(self, row: tuple) -> bytes:
        """Encode one row in the binary record layout."""
        if len(row) != self.layout.arity:
            raise DataFormatError(
                f"record has {len(row)} fields, layout "
                f"{self.layout.name!r} expects {self.layout.arity}",
                code=LEGACY_FIELD_COUNT_ERROR)
        bitmap = bytearray(self._bitmap_len)
        payload = bytearray()
        for i, (value, fld) in enumerate(zip(row, self.layout.fields)):
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
            else:
                payload += self._encode_field(value, fld.type, fld.name)
        body = bytes(bitmap) + bytes(payload)
        return struct.pack("<H", len(body)) + body

    def iter_decode(self, data: bytes) -> Iterator[tuple | DataFormatError]:
        view = memoryview(data)
        pos = 0
        while pos < len(view):
            if pos + 2 > len(view):
                yield DataFormatError("truncated record header")
                return
            (body_len,) = struct.unpack_from("<H", view, pos)
            body_end = pos + 2 + body_len
            if body_end > len(view):
                yield DataFormatError("truncated record body")
                return
            record_view = view[pos + 2:body_end]
            pos = body_end
            yield self._decode_one(record_view)

    def count_records(self, data: bytes) -> int:
        """Count records by walking the length headers only.

        A truncated header or body contributes one item — the error
        object ``iter_decode`` yields before stopping.
        """
        n = len(data)
        pos = 0
        count = 0
        while pos < n:
            if pos + 2 > n:
                return count + 1
            body_end = pos + 2 + (data[pos] | (data[pos + 1] << 8))
            if body_end > n:
                return count + 1
            count += 1
            pos = body_end
        return count

    def _decode_one(self, body: memoryview) -> tuple | DataFormatError:
        if len(body) < self._bitmap_len:
            return DataFormatError("record body shorter than null bitmap")
        bitmap = bytes(body[:self._bitmap_len])
        cursor = self._bitmap_len
        row: list = []
        for i, fld in enumerate(self.layout.fields):
            if bitmap[i // 8] & (1 << (i % 8)):
                row.append(None)
                continue
            try:
                value, cursor = self._decode_field(
                    body, cursor, fld.type, fld.name)
            except DataFormatError as exc:
                return exc
            row.append(value)
        if cursor != len(body):
            return DataFormatError(
                f"record has {len(body) - cursor} trailing bytes",
                code=LEGACY_FIELD_COUNT_ERROR)
        return tuple(row)
