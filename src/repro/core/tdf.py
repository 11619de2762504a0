"""TDF — Tabular Data Format (Section 3).

"TDF is an internal binary data message representation designed to be an
extensible format that can handle arbitrarily large nested data."  Packets
carry a batch of rows; values are tag-prefixed so the format is
self-describing and nests arbitrarily (LIST/STRUCT).

Packet layout (little-endian)::

    4s   magic "TDF1"
    u32  chunk number
    u32  row count
    u16  column count
    per column: u16 name length + UTF-8 name
    per row:    one LIST value holding the column values

Value encoding: ``u8`` tag followed by the tag-specific payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from datetime import timedelta
from decimal import Decimal

from repro import values
from repro.errors import TdfError

__all__ = ["TdfPacket", "encode_packet", "decode_packet",
           "encode_value", "decode_value"]

_MAGIC = b"TDF1"

_T_NULL = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_STR = 4
_T_BYTES = 5
_T_DATE = 6
_T_TIMESTAMP = 7
_T_DECIMAL = 8
_T_LIST = 9
_T_STRUCT = 10

_EPOCH = values.Date(1970, 1, 1)


@dataclass
class TdfPacket:
    """One decoded TDF packet: a chunk of a result set."""

    chunk_no: int
    columns: list[str]
    rows: list[tuple]


def encode_value(value, out: bytearray) -> None:
    """Append one tagged value."""
    if value is None:
        out.append(_T_NULL)
    elif value is True or value is False:
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        out.append(_T_INT)
        out += struct.pack("<q", value)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack("<d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out += struct.pack("<I", len(value))
        out += bytes(value)
    elif isinstance(value, values.Timestamp):
        # Component-wise encoding avoids timezone/epoch pitfalls.
        out.append(_T_TIMESTAMP)
        out += struct.pack(
            "<HBBBBBI", value.year, value.month, value.day,
            value.hour, value.minute, value.second, value.microsecond)
    elif isinstance(value, values.Date):
        out.append(_T_DATE)
        out += struct.pack("<i", (value - _EPOCH).days)
    elif isinstance(value, Decimal):
        raw = str(value).encode("ascii")
        out.append(_T_DECIMAL)
        out += struct.pack("<H", len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += struct.pack("<I", len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_STRUCT)
        out += struct.pack("<I", len(value))
        for key, item in value.items():
            raw = str(key).encode("utf-8")
            out += struct.pack("<H", len(raw))
            out += raw
            encode_value(item, out)
    else:
        raise TdfError(f"cannot TDF-encode {type(value).__name__}")


def decode_value(view: memoryview, pos: int) -> tuple[object, int]:
    """Decode one tagged value; returns (value, new position)."""
    try:
        tag = view[pos]
        pos += 1
        if tag == _T_NULL:
            return None, pos
        if tag == _T_BOOL:
            return bool(view[pos]), pos + 1
        if tag == _T_INT:
            (value,) = struct.unpack_from("<q", view, pos)
            return value, pos + 8
        if tag == _T_FLOAT:
            (value,) = struct.unpack_from("<d", view, pos)
            return value, pos + 8
        if tag in (_T_STR, _T_BYTES):
            (length,) = struct.unpack_from("<I", view, pos)
            raw = bytes(view[pos + 4:pos + 4 + length])
            if len(raw) != length:
                raise TdfError("truncated string payload")
            pos += 4 + length
            return (raw.decode("utf-8") if tag == _T_STR else raw), pos
        if tag == _T_DATE:
            (days,) = struct.unpack_from("<i", view, pos)
            return _EPOCH + timedelta(days=days), pos + 4
        if tag == _T_TIMESTAMP:
            year, month, day, hour, minute, second, micro = \
                struct.unpack_from("<HBBBBBI", view, pos)
            return values.Timestamp(
                year, month, day, hour, minute, second, micro), pos + 11
        if tag == _T_DECIMAL:
            (length,) = struct.unpack_from("<H", view, pos)
            raw = bytes(view[pos + 2:pos + 2 + length])
            return Decimal(raw.decode("ascii")), pos + 2 + length
        if tag == _T_LIST:
            (count,) = struct.unpack_from("<I", view, pos)
            pos += 4
            items = []
            for _ in range(count):
                item, pos = decode_value(view, pos)
                items.append(item)
            return items, pos
        if tag == _T_STRUCT:
            (count,) = struct.unpack_from("<I", view, pos)
            pos += 4
            struct_value: dict = {}
            for _ in range(count):
                (name_len,) = struct.unpack_from("<H", view, pos)
                name = bytes(view[pos + 2:pos + 2 + name_len]).decode()
                pos += 2 + name_len
                item, pos = decode_value(view, pos)
                struct_value[name] = item
            return struct_value, pos
    except (struct.error, IndexError) as exc:
        raise TdfError(f"truncated TDF value: {exc}") from exc
    raise TdfError(f"unknown TDF tag {tag}")


def encode_packet(chunk_no: int, columns: list[str],
                  rows: list[tuple]) -> bytes:
    """Encode one result chunk as a TDF packet."""
    out = bytearray(_MAGIC)
    out += struct.pack("<IIH", chunk_no, len(rows), len(columns))
    for name in columns:
        raw = name.encode("utf-8")
        out += struct.pack("<H", len(raw))
        out += raw
    for row in rows:
        encode_value(list(row), out)
    return bytes(out)


def decode_packet(data: bytes) -> TdfPacket:
    """Decode a TDF packet back into rows (the PXC's "unwrap" step)."""
    view = memoryview(data)
    if bytes(view[:4]) != _MAGIC:
        raise TdfError("bad TDF magic")
    try:
        chunk_no, row_count, col_count = struct.unpack_from("<IIH", view, 4)
    except struct.error as exc:
        raise TdfError("truncated TDF header") from exc
    pos = 4 + 10
    columns: list[str] = []
    for _ in range(col_count):
        try:
            (name_len,) = struct.unpack_from("<H", view, pos)
        except struct.error as exc:
            raise TdfError("truncated TDF column header") from exc
        columns.append(bytes(view[pos + 2:pos + 2 + name_len]).decode())
        pos += 2 + name_len
    rows: list[tuple] = []
    for _ in range(row_count):
        value, pos = decode_value(view, pos)
        if not isinstance(value, list):
            raise TdfError("TDF row is not a LIST value")
        rows.append(tuple(value))
    if pos != len(view):
        raise TdfError(f"{len(view) - pos} trailing bytes in TDF packet")
    return TdfPacket(chunk_no, columns, rows)
