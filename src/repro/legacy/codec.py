"""Compiled row codecs for the legacy wire formats.

:mod:`repro.legacy.datafmt` decodes records with per-field ``if/elif``
dispatch — correct, but the DataConverter pays that interpreter overhead
for every field of every record of every chunk.  This module compiles a
:class:`~repro.legacy.types.Layout` once into specialized encode/decode
closures, the way push-down translators cache per-shape plans:

- **BINARY** — consecutive fixed-width fields are fused into a single
  precomputed :class:`struct.Struct` run, split only at variable-length
  fields (character/DECIMAL/TIMESTAMP payloads).  A record whose null
  bitmap is all zeroes and whose layout is entirely fixed-width decodes
  with one ``unpack_from`` call.
- **VARTEXT** — a line with no backslash escapes splits with
  ``str.split`` instead of the character-at-a-time escape scanner; the
  encoder is one generated straight-line function per layout that
  renders each field by its type, and a chunk pays for escaping only
  when counting its delimiters and newlines says a field needs it.

Error semantics are byte-identical to the reference implementations by
construction: the fast paths handle the well-formed cases, and *any*
surprise (truncation, bad value, unexpected Python type, arity
mismatch) falls back to the reference code path for that one record, so
the reference classes remain the behavioural oracle.  The equivalence
suite in ``tests/legacy/test_codec_equivalence.py`` holds the two
implementations byte-identical, errors included.
"""

from __future__ import annotations

import datetime as _dt
import functools
import struct
from decimal import Decimal
from typing import Iterable, Iterator

from repro import values
from repro.errors import DataFormatError
from repro.legacy.datafmt import (
    _DATE_EPOCH_BASE,
    INT_RANGES,
    LEGACY_FIELD_COUNT_ERROR,
    BinaryFormat,
    FormatSpec,
    VartextFormat,
)
from repro.legacy.types import Layout

__all__ = [
    "CompiledVartextFormat",
    "CompiledBinaryFormat",
    "compile_format",
]


class _Slow(Exception):
    """Internal signal: bail out of a fast path to the reference oracle."""


@functools.lru_cache(maxsize=None)
def _struct(fmt: str) -> struct.Struct:
    """Shared Struct instances — one per distinct format string."""
    return struct.Struct(fmt)


_S_H = _struct("<H")

#: fixed-width struct code and size per binary base type.
_FIXED_CODES = {
    "BYTEINT": ("b", 1),
    "SMALLINT": ("h", 2),
    "INTEGER": ("i", 4),
    "BIGINT": ("q", 8),
    "FLOAT": ("d", 8),
    "DATE": ("i", 4),
}


def compile_format(spec: FormatSpec, layout: Layout):
    """Compile the encoder/decoder named by ``spec`` for ``layout``."""
    if spec.kind == "vartext":
        return CompiledVartextFormat(layout, delimiter=spec.delimiter)
    if spec.kind == "binary":
        return CompiledBinaryFormat(layout)
    raise DataFormatError(f"unknown record format {spec.kind!r}")


# ---------------------------------------------------------------------------
# VARTEXT


#: exec templates rendering field ``{v}`` as its type carries it, in
#: place; a value the fast path does not render raises ``_Slow``.
_RENDER_SRC = {
    "character": ["if type({v}) is not str:",
                  "    {v} = '' if {v} is None else str({v})"],
    "integer": ["if {v} is None: {v} = ''",
                "elif type({v}) is int and {lo} <= {v} <= {hi}:"
                " {v} = str({v})",
                "else: raise _Slow"],
    "FLOAT": ["if {v} is None: {v} = ''",
              "elif type({v}) is float: {v} = str({v})",
              "elif type({v}) is int: {v} = str(float({v}))",
              "else: raise _Slow"],
    "DECIMAL": ["if {v} is None: {v} = ''",
                "elif type({v}) is _Decimal or type({v}) is int:"
                " {v} = str({v})",
                "else: raise _Slow"],
    "DATE": ["if {v} is None: {v} = ''",
             "elif type({v}) is _date:"
             " {v} = '%04d-%02d-%02d' % ({v}.year, {v}.month, {v}.day)",
             "else: raise _Slow"],
    "TIMESTAMP": ["if {v} is None: {v} = ''",
                  "elif type({v}) is _datetime and {v}.tzinfo is None:"
                  " {v} = {v}.isoformat(' ')",
                  "else: raise _Slow"],
}


def _gen_render(layout: Layout, delimiter: str, escape=None):
    """exec-compile a straight-line ``row -> line`` VARTEXT renderer.

    Each field renders by its type's template (the typed rendering of
    :class:`VartextFormat`); with ``escape`` every field text also
    passes through it.  Without, the line is unescaped and the caller
    checks that no field needed escaping.  A wrong-arity row fails the
    unpacking; the caller falls back to the reference for it.
    """
    env = {"_Slow": _Slow, "_Decimal": Decimal, "_date": _dt.date,
           "_datetime": _dt.datetime, "_esc": escape, "_d": delimiter}
    names = [f"v{i}" for i in range(layout.arity)]
    fields = f"[{', '.join(names)}]"
    src = ["def _render(row):", f"    {fields} = row"]
    for name, fld in zip(names, layout.fields):
        ftype = fld.type
        family = ("character" if ftype.is_character
                  else "integer" if ftype.is_integer else ftype.base)
        lo, hi = INT_RANGES.get(ftype.base, (0, 0))
        src += ["    " + line.format(v=name, lo=lo, hi=hi)
                for line in _RENDER_SRC[family]]
        if escape is not None:
            src.append(f"    {name} = _esc({name})")
    src.append(f"    return _d.join({fields}) + '\\n'")
    exec("\n".join(src), env)
    return env["_render"]


class CompiledVartextFormat(VartextFormat):
    """VartextFormat with a generated renderer and a split fast path.

    A chunk renders unescaped through one straight-line function per
    layout; three C-level counts over the chunk's text (no backslash,
    one delimiter per field gap, one newline per record) prove that no
    field needed escaping.  Otherwise each record renders again with
    per-field escapes, and a record the generated code does not render
    (wrong arity, an unusual value) goes to the reference.
    """

    def __init__(self, layout: Layout, delimiter: str = "|"):
        super().__init__(layout, delimiter)
        self._arity = layout.arity
        self._gaps = max(layout.arity - 1, 0)

    # -- encoding ----------------------------------------------------------

    # Generated on first encode: a load job only decodes, and per-job
    # exec compiles would be a visible share of a small feed batch.
    @functools.cached_property
    def _render(self):
        return _gen_render(self.layout, self.delimiter)

    @functools.cached_property
    def _render_escaped(self):
        return _gen_render(self.layout, self.delimiter, self._escape)

    def _line(self, row: tuple) -> str:
        try:
            return self._render_escaped(row)
        except Exception:
            return VartextFormat.encode_record(self, row).decode("utf-8")

    def encode_record(self, row: tuple) -> bytes:
        return self._line(row).encode("utf-8")

    def encode_records(self, rows: Iterable[tuple]) -> bytes:
        rows = list(rows)
        try:
            text = "".join([self._render(row) for row in rows])
        except Exception:
            text = None
        if (text is None or "\\" in text
                or text.count("\n") != len(rows)
                or text.count(self.delimiter) != len(rows) * self._gaps):
            text = "".join([self._line(row) for row in rows])
        return text.encode("utf-8")

    # -- decoding ----------------------------------------------------------

    def iter_decode(self, data: bytes) -> Iterator[tuple | DataFormatError]:
        text = data.decode("utf-8")
        arity = self._arity
        delimiter = self.delimiter
        layout_name = self.layout.name
        split_escaped = self._split_line
        for line in text.split("\n"):
            if not line:
                continue
            if "\\" in line:
                fields = split_escaped(line)
                if len(fields) != arity:
                    yield DataFormatError(
                        f"record has {len(fields)} fields, layout "
                        f"{layout_name!r} expects {arity}",
                        code=LEGACY_FIELD_COUNT_ERROR)
                    continue
                yield tuple(fields)
                continue
            parts = line.split(delimiter)
            if len(parts) != arity:
                yield DataFormatError(
                    f"record has {len(parts)} fields, layout "
                    f"{layout_name!r} expects {arity}",
                    code=LEGACY_FIELD_COUNT_ERROR)
                continue
            if "" in parts:
                yield tuple([p or None for p in parts])
            else:
                yield tuple(parts)


# ---------------------------------------------------------------------------
# BINARY


def _make_fixed_decoder(code: str, width: int, post):
    unpack_from = _struct("<" + code).unpack_from
    if post is None:
        def decode(data, pos, end):
            nxt = pos + width
            if nxt > end:
                raise _Slow
            return unpack_from(data, pos)[0], nxt
    else:
        def decode(data, pos, end):
            nxt = pos + width
            if nxt > end:
                raise _Slow
            return post(unpack_from(data, pos)[0]), nxt
    return decode


def _date_from_epoch(encoded: int) -> _dt.date:
    year = encoded // 10000 + _DATE_EPOCH_BASE
    month = (encoded // 100) % 100
    day = encoded % 100
    return _dt.date(year, month, day)


def _make_var_decoder(base: str, name: str):
    unpack_h = _S_H.unpack_from
    if base == "DECIMAL":
        parse = values.parse_decimal
    elif base == "TIMESTAMP":
        parse = values.parse_timestamp
    else:
        parse = None

    def decode(data, pos, end):
        if pos + 2 > end:
            raise _Slow
        length = unpack_h(data, pos)[0]
        nxt = pos + 2 + length
        if nxt > end:
            raise _Slow
        text = data[pos + 2:nxt].decode("utf-8")
        if parse is not None:
            return parse(text, field=name), nxt
        return text, nxt

    return decode


def _make_char_encoder():
    pack = _S_H.pack

    def encode(value):
        raw = str(value).encode("utf-8")
        return pack(len(raw)) + raw

    return encode


def _make_text_encoder(base: str):
    pack = _S_H.pack
    if base == "DECIMAL":
        def encode(value):
            kind = type(value)
            if kind is not Decimal and kind is not int:
                raise _Slow  # the reference checks that the text parses
            raw = str(value).encode("ascii")
            return pack(len(raw)) + raw
    else:  # TIMESTAMP
        def encode(value):
            raw = value.isoformat(sep=" ").encode("ascii")
            return pack(len(raw)) + raw
    return encode


def _date_to_epoch(value) -> int:
    return ((value.year - _DATE_EPOCH_BASE) * 10000
            + value.month * 100 + value.day)


def _make_fixed_encoder(code: str, is_date: bool):
    pack = _struct("<" + code).pack
    if is_date:
        def encode(value):
            return pack(_date_to_epoch(value))
    else:
        def encode(value):
            return pack(value)
    return encode


class CompiledBinaryFormat(BinaryFormat):
    """BinaryFormat with fused fixed-width struct runs.

    The layout is compiled into *segments*: maximal runs of consecutive
    fixed-width fields (packed/unpacked with one Struct call when none
    of the run's fields is NULL) interleaved with variable-length field
    closures.  An entirely fixed-width layout additionally gets a
    whole-record Struct used whenever the null bitmap is zero.
    """

    def __init__(self, layout: Layout):
        super().__init__(layout)
        self._arity = layout.arity
        self._compile()

    def _compile(self) -> None:
        dsegments: list[tuple] = []
        esegments: list[tuple] = []
        run: list[tuple] = []  # (index, code, width, is_date, name)

        def flush_run() -> None:
            if not run:
                return
            mask = 0
            codes = []
            posts = []
            dec_fields = []
            enc_fields = []
            indices = []
            datepos = []
            for offset, (i, code, width, is_date, name) in enumerate(run):
                mask |= 1 << i
                codes.append(code)
                post = _date_from_epoch if is_date else None
                posts.append(post)
                dec_fields.append(
                    (i, _make_fixed_decoder(code, width, post)))
                enc_fields.append((i, _make_fixed_encoder(code, is_date)))
                indices.append(i)
                if is_date:
                    datepos.append(offset)
            fused = _struct("<" + "".join(codes))
            posts_t = tuple(posts) if datepos else None
            dsegments.append((0, mask, fused.unpack_from, fused.size,
                              posts_t, tuple(dec_fields)))
            esegments.append((0, tuple(indices), fused.pack,
                              tuple(datepos), tuple(enc_fields)))
            run.clear()

        for i, fld in enumerate(self.layout.fields):
            ftype = fld.type
            if ftype.is_character or ftype.base in ("DECIMAL", "TIMESTAMP"):
                flush_run()
                if ftype.is_character:
                    # Tag 3: plain length-prefixed text, inlined in the
                    # decode loop (no per-field closure call).
                    dsegments.append((3, i))
                    esegments.append((1, i, _make_char_encoder()))
                else:
                    dsegments.append(
                        (1, i, _make_var_decoder(ftype.base, fld.name)))
                    esegments.append((1, i, _make_text_encoder(ftype.base)))
            elif ftype.base in _FIXED_CODES:
                code, width = _FIXED_CODES[ftype.base]
                run.append((i, code, width, ftype.base == "DATE", fld.name))
            else:
                # No binary codec for this base; the reference raises the
                # "no binary encoding/decoding" error per record.
                flush_run()
                dsegments.append((2,))
                esegments.append((2,))
        flush_run()

        self._dsegments = tuple(dsegments)
        self._esegments = tuple(esegments)
        self._decode_zero = self._gen_decode_zero(dsegments)

        # Whole-record fast path: a single fused run covering every field.
        self._whole = None
        self._fixed_prefix = None
        if len(dsegments) == 1 and dsegments[0][0] == 0:
            _, _, unpack_from, size, posts_t, _ = dsegments[0]
            datepos = esegments[0][3]
            self._whole = (unpack_from, size, posts_t)
            self._whole_pack = esegments[0][2]
            self._whole_datepos = datepos
            body_len = self._bitmap_len + size
            if body_len <= 0xFFFF:
                self._fixed_prefix = (
                    _S_H.pack(body_len) + bytes(self._bitmap_len))

    @staticmethod
    def _gen_decode_zero(dsegments: list[tuple]):
        """exec-compile a straight-line decoder for the no-NULLs case.

        With a zero null bitmap every field is present, so the byte walk
        is fully determined by the layout; generating it as one flat
        function removes the segment loop and the per-row result list.
        Any shortfall (truncation, trailing bytes, unsupported base)
        raises ``_Slow`` and the caller falls back.
        """
        src = ["def _decode_zero(data, cursor, end):"]
        env = {"_Slow": _Slow, "_uh": _S_H.unpack_from}
        names: list[str] = []
        for k, seg in enumerate(dsegments):
            tag = seg[0]
            if tag == 0:
                _, _, unpack_from, size, posts, fields = seg
                unpack = f"_u{k}"
                env[unpack] = unpack_from
                run = [f"v{i}" for i, _ in fields]
                src += [f"    nxt = cursor + {size}",
                        "    if nxt > end: raise _Slow",
                        f"    {', '.join(run)}"
                        f"{',' if len(run) == 1 else ''}"
                        f" = {unpack}(data, cursor)",
                        "    cursor = nxt"]
                if posts is not None:
                    for (i, _), post in zip(fields, posts):
                        if post is not None:
                            env[f"_p{i}"] = post
                            src.append(f"    v{i} = _p{i}(v{i})")
                names += run
            elif tag == 3:
                i = seg[1]
                src += ["    nxt = cursor + 2",
                        "    if nxt > end: raise _Slow",
                        "    nxt += _uh(data, cursor)[0]",
                        "    if nxt > end: raise _Slow",
                        f"    v{i} = data[cursor + 2:nxt].decode('utf-8')",
                        "    cursor = nxt"]
                names.append(f"v{i}")
            elif tag == 1:
                _, i, decode = seg
                env[f"_d{i}"] = decode
                src.append(f"    v{i}, cursor = _d{i}(data, cursor, end)")
                names.append(f"v{i}")
            else:
                src.append("    raise _Slow")
        src.append("    if cursor != end: raise _Slow")
        src.append(f"    return ({', '.join(names)}"
                   f"{',' if len(names) == 1 else ''})")
        exec("\n".join(src), env)
        return env["_decode_zero"]

    # -- decoding ----------------------------------------------------------

    def iter_decode(self, data: bytes) -> Iterator[tuple | DataFormatError]:
        n = len(data)
        pos = 0
        unpack_h = _S_H.unpack_from
        decode_body = self._decode_body
        oracle = BinaryFormat._decode_one
        view = None
        while pos < n:
            if pos + 2 > n:
                yield DataFormatError("truncated record header")
                return
            body_end = pos + 2 + unpack_h(data, pos)[0]
            if body_end > n:
                yield DataFormatError("truncated record body")
                return
            start = pos + 2
            pos = body_end
            try:
                yield decode_body(data, start, body_end)
            except Exception:
                # Reference oracle reproduces the exact error item (or
                # re-raises the exact exception, e.g. ExpressionError).
                if view is None:
                    view = memoryview(data)
                yield oracle(self, view[start:body_end])

    def _decode_body(self, data: bytes, start: int, end: int) -> tuple:
        cursor = start + self._bitmap_len
        if cursor > end:
            raise _Slow
        bitmap = int.from_bytes(data[start:cursor], "little")
        if bitmap == 0:
            if self._whole is not None:
                unpack_from, size, posts = self._whole
                if end - cursor != size:
                    raise _Slow
                vals = unpack_from(data, cursor)
                if posts is None:
                    return vals
                out = list(vals)
                for j, post in enumerate(posts):
                    if post is not None:
                        out[j] = post(out[j])
                return tuple(out)
            return self._decode_zero(data, cursor, end)
        row: list = []
        append = row.append
        unpack_h = _S_H.unpack_from
        for seg in self._dsegments:
            tag = seg[0]
            if tag == 0:
                _, mask, unpack_from, size, posts, fields = seg
                if not (bitmap & mask):
                    nxt = cursor + size
                    if nxt > end:
                        raise _Slow
                    vals = unpack_from(data, cursor)
                    cursor = nxt
                    if posts is None:
                        row += vals
                    else:
                        for v, post in zip(vals, posts):
                            append(post(v) if post is not None else v)
                else:
                    for i, decode in fields:
                        if bitmap >> i & 1:
                            append(None)
                        else:
                            v, cursor = decode(data, cursor, end)
                            append(v)
            elif tag == 3:
                i = seg[1]
                if bitmap >> i & 1:
                    append(None)
                else:
                    nxt = cursor + 2
                    if nxt > end:
                        raise _Slow
                    nxt += unpack_h(data, cursor)[0]
                    if nxt > end:
                        raise _Slow
                    append(data[cursor + 2:nxt].decode("utf-8"))
                    cursor = nxt
            elif tag == 1:
                _, i, decode = seg
                if bitmap >> i & 1:
                    append(None)
                else:
                    v, cursor = decode(data, cursor, end)
                    append(v)
            else:
                # Unsupported base type: reference error path.
                raise _Slow
        if cursor != end:
            raise _Slow
        return tuple(row)

    # -- encoding ----------------------------------------------------------

    def encode_record(self, row: tuple) -> bytes:
        try:
            return self._encode_fast(row)
        except Exception:
            return BinaryFormat.encode_record(self, row)

    def _encode_fast(self, row: tuple) -> bytes:
        if len(row) != self._arity:
            raise _Slow
        prefix = self._fixed_prefix
        if prefix is not None and None not in row:
            datepos = self._whole_datepos
            if not datepos:
                return prefix + self._whole_pack(*row)
            vals = list(row)
            for j in datepos:
                vals[j] = _date_to_epoch(vals[j])
            return prefix + self._whole_pack(*vals)
        bitmap = 0
        parts: list[bytes] = []
        append = parts.append
        for seg in self._esegments:
            tag = seg[0]
            if tag == 0:
                _, indices, pack, datepos, fields = seg
                vals = [row[i] for i in indices]
                if None in vals:
                    for i, encode in fields:
                        value = row[i]
                        if value is None:
                            bitmap |= 1 << i
                        else:
                            append(encode(value))
                else:
                    for j in datepos:
                        vals[j] = _date_to_epoch(vals[j])
                    append(pack(*vals))
            elif tag == 1:
                _, i, encode = seg
                value = row[i]
                if value is None:
                    bitmap |= 1 << i
                else:
                    append(encode(value))
            else:
                raise _Slow
        body_len = self._bitmap_len + sum(map(len, parts))
        return (_S_H.pack(body_len)
                + bitmap.to_bytes(self._bitmap_len, "little")
                + b"".join(parts))

    def encode_records(self, rows: Iterable[tuple]) -> bytes:
        out: list[bytes] = []
        append = out.append
        fast = self._encode_fast
        for row in rows:
            try:
                append(fast(row))
            except Exception:
                append(BinaryFormat.encode_record(self, row))
        return b"".join(out)
