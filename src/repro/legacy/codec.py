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
  when counting its delimiters and newlines says a field needs it.  A
  block of columns (:class:`ColumnBlock`) skips the count when each
  column is proven free of escapes on its own.

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
import threading
from decimal import Decimal
from itertools import repeat
from operator import add, mul, or_
from typing import Iterable, Iterator

from repro import values
from repro.cdw.columns import ColumnBlock, TextSlice, decoded
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

#: the characters a DATE renders to.
_DATE_CHARS = frozenset("0123456789-")

#: validity bytes (1 = present) to null flags.
_NOT = bytes.maketrans(b"\x00\x01", b"\x01\x00")

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


def _field_src(ftype, name: str) -> "list[str]":
    """The lines rendering a value of type ``ftype``, held in ``name``,
    as that type carries it (:data:`_RENDER_SRC`)."""
    family = ("character" if ftype.is_character
              else "integer" if ftype.is_integer else ftype.base)
    lo, hi = INT_RANGES.get(ftype.base, (0, 0))
    return ["    " + line.format(v=name, lo=lo, hi=hi)
            for line in _RENDER_SRC[family]]


def _render_env(**extra) -> dict:
    return {"_Slow": _Slow, "_Decimal": Decimal, "_date": _dt.date,
            "_datetime": _dt.datetime, **extra}


def _gen_render(layout: Layout, delimiter: str, escape=None):
    """exec-compile a straight-line ``row -> line`` VARTEXT renderer.

    Each field renders by its type's template (the typed rendering of
    :class:`VartextFormat`); with ``escape`` every field text also
    passes through it.  Without, the line is unescaped and the caller
    checks that no field needed escaping.  A wrong-arity row fails the
    unpacking; the caller falls back to the reference for it.
    """
    env = _render_env(_esc=escape, _d=delimiter)
    names = [f"v{i}" for i in range(layout.arity)]
    fields = f"[{', '.join(names)}]"
    src = ["def _render(row):", f"    {fields} = row"]
    for name, fld in zip(names, layout.fields):
        src += _field_src(fld.type, name)
        if escape is not None:
            src.append(f"    {name} = _esc({name})")
    src.append(f"    return _d.join({fields}) + '\\n'")
    exec("\n".join(src), env)
    return env["_render"]


#: the types a column of dates holds.
_DATE_KINDS = frozenset({_dt.date, type(None)})

#: most dates :data:`_DATE_TEXT` keeps; a fill past it starts it over.
_DATE_TEXT_MAX = 16384

#: each date's VARTEXT bytes (its ISO text), kept across chunks and
#: exports: an export's dates repeat (a 50k-row table holds ≈ 8 400
#: distinct ones) and the next export of the table renders the same
#: ones.  Bounded by :data:`_DATE_TEXT_MAX` (≈ 100 bytes an entry) so a
#: long-lived gateway does not keep every date it ever exported.
#: Reads take no lock; :data:`_DATE_TEXT_LOCK` orders fills.
_DATE_TEXT: "dict[_dt.date | None, bytes]" = {None: b""}
_DATE_TEXT_LOCK = threading.Lock()


def _iso_texts(dates: set) -> dict:
    """Each of ``dates`` (and NULL) to its VARTEXT bytes."""
    dates.discard(None)
    texts = dict(zip(dates, map(str.encode, map(_dt.date.isoformat,
                                                dates))))
    texts[None] = b""
    return texts


def _date_texts(column: list) -> list:
    """The VARTEXT bytes of a column of dates and NULLs: one lookup per
    value in :data:`_DATE_TEXT`, which a chunk holding a date it lacks
    fills first (a fill that would pass the bound starts the memo
    over).  A chunk another export's fill raced, or with more dates
    than the memo keeps, takes its own texts."""
    memo = _DATE_TEXT
    try:
        return list(map(memo.__getitem__, column))
    except KeyError:
        pass
    fresh = _iso_texts(set(column).difference(memo))
    with _DATE_TEXT_LOCK:
        if len(memo) + len(fresh) > _DATE_TEXT_MAX:
            memo.clear()
        if len(fresh) <= _DATE_TEXT_MAX:
            memo.update(fresh)
    try:
        return list(map(memo.__getitem__, column))
    except KeyError:
        return list(map(_iso_texts(set(column)).__getitem__, column))


@functools.lru_cache(maxsize=256)
def _gen_column_render(ftype):
    """``column -> list of bytes``: the unescaped VARTEXT text of every
    value of a block column (:class:`ColumnBlock`) in a field of type
    ``ftype``.

    Kept across exports (one compile per field type, not per export:
    its ``exec`` is ≈ 1 ms of an export's first chunk), bounded because
    a gateway meets as many types as its jobs declare.  A text column's
    values are its buffer's bytes; a column of dates and NULLs renders
    through the shared memo of :func:`_date_texts`, checked chunk by
    chunk so a ``Timestamp`` never takes a date's text; any other
    column renders value by value through the type's template, which
    raises ``_Slow`` on a value it does not render.
    """
    env = _render_env()
    exec("\n".join(["def _value(v):", *_field_src(ftype, "v"),
                     "    return v"]), env)
    value, encode = env["_value"], str.encode
    text = ftype.is_character
    dates = ftype.base == "DATE"

    def render(column) -> list:
        if text and type(column) is TextSlice:
            return column.pieces()
        column = decoded(column)
        if dates and _DATE_KINDS.issuperset(map(type, column)):
            return _date_texts(column)
        return list(map(encode, map(value, column)))

    return render


class CompiledVartextFormat(VartextFormat):
    """VartextFormat with a generated renderer and a split fast path.

    A chunk renders unescaped through one straight-line function per
    layout; three C-level counts over the chunk's bytes (no backslash,
    one delimiter per field gap, one newline per record) prove that no
    field needed escaping.  Otherwise each record renders again with
    per-field escapes, and a record the generated code does not render
    (wrong arity, an unusual value) goes to the reference.  A
    :class:`ColumnBlock` renders column by column instead of row by
    row; its proof is per column when every column has one
    (:meth:`_escape_free`), else the same counts over its bytes.
    """

    def __init__(self, layout: Layout, delimiter: str = "|"):
        super().__init__(layout, delimiter)
        self._arity = layout.arity
        self._gaps = max(layout.arity - 1, 0)
        self._delimiter_bytes = delimiter.encode("utf-8")
        #: what no value of a text column may hold to need no escape.
        self._needles = (self._delimiter_bytes, b"\n", b"\\")
        # Per field: True when its text never needs an escape (a DATE
        # renders only digits and ``-``), None when a text column's
        # bytes decide, else False.
        plain = delimiter not in _DATE_CHARS
        self._proofs = [None if fld.type.is_character
                        else plain and fld.type.base == "DATE"
                        for fld in layout.fields]

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

    @functools.cached_property
    def _column_renders(self):
        return [_gen_column_render(fld.type)
                for fld in self.layout.fields]

    def encode_records(self, rows: "Iterable[tuple] | ColumnBlock"
                       ) -> bytes:
        """Encode many rows back to back; a :class:`ColumnBlock` column
        by column when :meth:`_encode_block` can, else row by row."""
        if type(rows) is ColumnBlock:
            data = self._encode_block(rows)
            if data is not None:
                return data
            rows = rows.rows()
        rows = list(rows)
        try:
            data = "".join([self._render(row) for row in rows]).encode()
        except Exception:
            data = None
        if data is None or not self._unescaped(data, len(rows)):
            data = "".join([self._line(row) for row in rows]).encode()
        return data

    def _unescaped(self, data: bytes, lines: int) -> bool:
        """Whether ``lines`` records rendered without escapes into
        ``data`` needed none: no backslash, one delimiter per field gap
        and one newline per record (a field holding either adds one)."""
        return (b"\\" not in data and data.count(b"\n") == lines
                and data.count(self._delimiter_bytes) == lines * self._gaps)

    def _encode_block(self, block: ColumnBlock) -> "bytes | None":
        """A block's records with no ``str`` per line: each column
        renders to a list of bytes (:func:`_gen_column_render`), one
        C-level join interleaves them with the delimiters and newlines,
        and :meth:`_escape_free` or else :meth:`_unescaped` proves that
        no field needed escaping.  None when neither does, or when a
        column holds a value its renderer does not take."""
        count = len(block)
        arity = self._arity
        if len(block.columns) != arity or not arity:
            return None
        try:
            fields = [render(column) for render, column
                      in zip(self._column_renders, block.columns)]
        except Exception:
            return None
        step = 2 * arity
        parts: list = [None] * (step * count)
        for j, field in enumerate(fields):
            parts[2 * j::step] = field
        # What follows each field: the delimiter, or the line's end.
        parts[1::2] = ([self._delimiter_bytes] * self._gaps + [b"\n"]) * count
        data = b"".join(parts)
        if self._escape_free(block.columns) or self._unescaped(data, count):
            return data
        return None

    def _escape_free(self, columns: list) -> bool:
        """Whether every column is proven to need no escape: as a DATE
        column (when the delimiter is no digit and no ``-``), or as a
        text column whose bytes hold no delimiter, newline or backslash
        (:meth:`~repro.cdw.columns.TextSlice.free_of`: a ``find`` per
        needle over the chunk's values, not a count over its output)."""
        for proof, column in zip(self._proofs, columns):
            if proof is None and type(column) is TextSlice:
                proof = column.free_of(self._needles)
            if not proof:
                return False
        return True

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
        #: per field, its value encoder (None: no binary codec).
        self._field_encoders = [None] * self._arity
        for seg in esegments:
            if seg[0] == 0:
                for i, encode in seg[4]:
                    self._field_encoders[i] = encode
            elif seg[0] == 1:
                self._field_encoders[seg[1]] = seg[2]
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

    def encode_records(self, rows: "Iterable[tuple] | ColumnBlock"
                       ) -> bytes:
        """Encode many rows back to back; a :class:`ColumnBlock` column
        by column when :meth:`_encode_block` can, else row by row."""
        if type(rows) is ColumnBlock:
            data = self._encode_block(rows)
            if data is not None:
                return data
            rows = rows.rows()
        out: list[bytes] = []
        append = out.append
        fast = self._encode_fast
        for row in rows:
            try:
                append(fast(row))
            except Exception:
                append(BinaryFormat.encode_record(self, row))
        return b"".join(out)

    def _encode_block(self, block: ColumnBlock) -> "bytes | None":
        """A block's records built column by column: each column's
        payloads (a text column's straight from its buffer, others by
        the field's value encoder), its nulls' bits, and the running
        body lengths; one join interleaves header, bitmap and payloads
        per record.  None when a value does not encode here (the
        caller encodes that block row by row, errors included)."""
        count = len(block)
        arity = self._arity
        if len(block.columns) != arity or None in self._field_encoders:
            return None
        bitmap_len = self._bitmap_len
        lengths = [bitmap_len] * count
        bits = None
        payloads = []
        try:
            for i, (fld, encode, column) in enumerate(zip(
                    self.layout.fields, self._field_encoders,
                    block.columns)):
                if type(column) is TextSlice and fld.type.is_character:
                    pieces = column.pieces()
                    payload = list(map(add, map(_S_H.pack, map(len, pieces)),
                                       pieces))
                    nulls = None
                    if column.null_count():
                        nulls = column.valid().translate(_NOT)
                        payload = [b"" if null else piece
                                   for piece, null in zip(payload, nulls)]
                else:
                    column = decoded(column)
                    nulls = None
                    if None in column:
                        nulls = [v is None for v in column]
                        payload = [b"" if v is None else encode(v)
                                   for v in column]
                    else:
                        payload = list(map(encode, column))
                if nulls is not None:
                    flags = map(mul, nulls, repeat(1 << i))
                    bits = list(flags if bits is None
                                else map(or_, bits, flags))
                lengths = list(map(add, lengths, map(len, payload)))
                payloads.append(payload)
            headers = list(map(_S_H.pack, lengths))
        except Exception:
            return None
        bitmaps = [bytes(bitmap_len)] * count if bits is None else list(
            map(int.to_bytes, bits, repeat(bitmap_len), repeat("little")))
        step = arity + 2
        parts: list = [None] * (step * count)
        parts[0::step] = headers
        parts[1::step] = bitmaps
        for j, payload in enumerate(payloads):
            parts[j + 2::step] = payload
        return b"".join(parts)
