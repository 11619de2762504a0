"""Property tests: compiled codecs are byte-identical to the reference.

The compiled codecs (:mod:`repro.legacy.codec`) are only allowed to be
*faster* than the reference interpreters in :mod:`repro.legacy.datafmt` —
every observable behaviour must match: encoded bytes, decoded values,
in-stream :class:`DataFormatError` items (message, field, code) and
raised exceptions (type and message), including on corrupted input.

The random-layout/random-rows generators deliberately produce the nasty
cases: NULLs, empty strings, payloads containing the delimiter, quotes,
backslashes and newlines, wrong-typed values, and bit-flipped or
truncated byte streams.
"""

from __future__ import annotations

import datetime
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataFormatError
from repro.legacy.codec import (
    CompiledBinaryFormat, CompiledVartextFormat, compile_format,
)
from repro.legacy.datafmt import (
    BinaryFormat, FormatSpec, VartextFormat, make_format,
)
from repro.legacy.infer import infer_result_layout
from repro.legacy.types import FieldDef, Layout, parse_type

TYPE_POOL = [
    "integer", "smallint", "byteint", "bigint", "float", "date",
    "timestamp", "decimal(10,2)", "varchar(20)", "char(8)", "unicode(12)",
]

#: Text values chosen to stress escaping, quoting and UTF-8 handling.
NASTY_TEXT = [
    "", " ", "plain", "with|pipe", "with,comma", 'with"quote',
    "back\\slash", "new\nline", "cr\rreturn", "tab\there", "ünïcødé",
    "\\n literal", "|", "\\", '"', "ends with space ", "\N{SNOWMAN}",
]

#: Wrong-typed values mixed in to exercise the encode error paths.
MISFIT_VALUES = [object(), b"bytes", ["list"], 3 + 4j]


def _layout_from(seed: int, size: int) -> Layout:
    rng = random.Random(seed)
    return Layout(f"L{seed}", [
        FieldDef(f"F{i}", parse_type(rng.choice(TYPE_POOL)))
        for i in range(size)
    ])


def _value_for(rng: random.Random, base: str):
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.22:  # wrong-typed value: both sides must fail identically
        return rng.choice(MISFIT_VALUES + NASTY_TEXT)
    if base in ("BYTEINT",):
        return rng.randrange(-128, 128)
    if base == "SMALLINT":
        return rng.randrange(-2**15, 2**15)
    if base == "INTEGER":
        return rng.randrange(-2**31, 2**31)
    if base == "BIGINT":
        return rng.randrange(-2**63, 2**63)
    if base == "FLOAT":
        return rng.choice([rng.random() * 1e6, -0.0, 1e300, float("inf")])
    if base == "DECIMAL":
        return Decimal(rng.randrange(-10**9, 10**9)) / 100
    if base == "DATE":
        return datetime.date(rng.randrange(1900, 2100),
                             rng.randrange(1, 13), rng.randrange(1, 29))
    if base == "TIMESTAMP":
        return datetime.datetime(2020, 1, 1) + datetime.timedelta(
            seconds=rng.randrange(0, 10**8),
            microseconds=rng.choice([0, rng.randrange(10**6)]))
    return rng.choice(NASTY_TEXT)


def _rows_for(layout: Layout, rng: random.Random, count: int) -> list[tuple]:
    rows = []
    for _ in range(count):
        row = tuple(
            _value_for(rng, f.type.base) for f in layout.fields)
        if rng.random() < 0.05:  # wrong arity: field-count error path
            row = row + ("extra",) if rng.random() < 0.5 else row[:-1]
        rows.append(row)
    return rows


def _encode_outcome(fmt, row):
    try:
        return ("ok", fmt.encode_record(row))
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))


def _decode_outcomes(fmt, data: bytes) -> list:
    out: list = []
    try:
        for item in fmt.iter_decode(data):
            if isinstance(item, Exception):
                out.append(("err", type(item).__name__, str(item),
                            getattr(item, "field", None),
                            getattr(item, "code", None)))
            else:
                # repr, not the tuple itself: corrupted FLOAT bytes can
                # decode to NaN, which never compares equal to itself.
                out.append(("row", repr(item)))
    except Exception as exc:
        out.append(("raise", type(exc).__name__, str(exc)))
    return out


def _pair(kind: str, layout: Layout, delimiter: str = "|"):
    spec = FormatSpec(kind=kind, delimiter=delimiter)
    if kind == "binary":
        return BinaryFormat(layout), compile_format(spec, layout)
    return VartextFormat(layout, delimiter), compile_format(spec, layout)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), size=st.integers(1, 9),
       kind=st.sampled_from(["binary", "vartext"]))
def test_encode_equivalence(seed, size, kind):
    layout = _layout_from(seed, size)
    rng = random.Random(seed ^ 0xBEEF)
    reference, compiled = _pair(kind, layout)
    for row in _rows_for(layout, rng, 12):
        assert _encode_outcome(compiled, row) == \
            _encode_outcome(reference, row)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), size=st.integers(1, 9),
       kind=st.sampled_from(["binary", "vartext"]))
def test_decode_equivalence_clean_and_corrupted(seed, size, kind):
    layout = _layout_from(seed, size)
    rng = random.Random(seed ^ 0xF00D)
    reference, compiled = _pair(kind, layout)
    chunks = []
    for row in _rows_for(layout, rng, 10):
        outcome = _encode_outcome(reference, row)
        if outcome[0] == "ok":
            chunks.append(outcome[1])
    data = b"".join(chunks)
    assert _decode_outcomes(compiled, data) == \
        _decode_outcomes(reference, data)
    assert compiled.count_records(data) == reference.count_records(data)

    if data:  # corrupted stream: flip one byte, then truncate
        flipped = bytearray(data)
        pos = rng.randrange(len(flipped))
        flipped[pos] ^= 1 << rng.randrange(8)
        flipped = bytes(flipped)
        assert _decode_outcomes(compiled, flipped) == \
            _decode_outcomes(reference, flipped)
        cut = data[:rng.randrange(len(data))]
        assert _decode_outcomes(compiled, cut) == \
            _decode_outcomes(reference, cut)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), size=st.integers(1, 6),
       delimiter=st.sampled_from(["|", ",", ";", "\t", "~"]))
def test_vartext_delimiters_equivalence(seed, size, delimiter):
    layout = _layout_from(seed, size)
    rng = random.Random(seed ^ 0xD1CE)
    reference, compiled = _pair("vartext", layout, delimiter)
    rows = _rows_for(layout, rng, 8)
    encodable = []
    for row in rows:
        outcome = _encode_outcome(reference, row)
        assert outcome == _encode_outcome(compiled, row)
        if outcome[0] == "ok":
            encodable.append(row)
    data = reference.encode_records(encodable)
    assert compiled.encode_records(encodable) == data
    assert _decode_outcomes(compiled, data) == \
        _decode_outcomes(reference, data)


def _chunk_outcome(fmt, rows):
    try:
        return ("ok", fmt.encode_records(rows))
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), size=st.integers(1, 6),
       delimiter=st.sampled_from(["|", ",", "\t", ".", "-", "0", " "]))
def test_vartext_chunk_encode_equivalence(seed, size, delimiter):
    """Whole chunks: the compiled encoder's unescaped pass, its escaped
    re-render and its per-record fallback all agree with the reference,
    including delimiters that occur inside rendered numbers and dates."""
    layout = _layout_from(seed, size)
    rng = random.Random(seed ^ 0xC0DE)
    reference, compiled = _pair("vartext", layout, delimiter)
    rows = _rows_for(layout, rng, 8)
    encodable = [row for row in rows
                 if _encode_outcome(reference, row)[0] == "ok"]
    for chunk in (rows, encodable, encodable[:1], []):
        assert _chunk_outcome(compiled, chunk) == \
            _chunk_outcome(reference, chunk)


class TestExplicitErrorCases:
    """The DataFormatError paths the ISSUE calls out, one by one."""

    LAYOUT = Layout("E", [
        FieldDef("N", parse_type("integer")),
        FieldDef("T", parse_type("varchar(10)")),
        FieldDef("D", parse_type("decimal(8,2)")),
    ])

    @pytest.mark.parametrize("kind", ["binary", "vartext"])
    def test_field_count_error_identical(self, kind):
        reference, compiled = _pair(kind, self.LAYOUT)
        short = (1, "x")
        assert _encode_outcome(compiled, short) == \
            _encode_outcome(reference, short)
        assert _encode_outcome(compiled, short)[0] == "raise"

    def test_vartext_field_count_in_stream(self):
        reference, compiled = _pair("vartext", self.LAYOUT)
        data = b"1|x\n1|x|2.5|extra\n2|y|3.5\n"
        ref = _decode_outcomes(reference, data)
        assert _decode_outcomes(compiled, data) == ref
        kinds = [item[0] for item in ref]
        assert kinds == ["err", "err", "row"]

    def test_binary_truncated_header_and_body(self):
        reference, compiled = _pair("binary", self.LAYOUT)
        good = reference.encode_record((7, "ok", Decimal("1.25")))
        for cut in (good[:1], good[:3], good[:-1], good + b"\x05"):
            assert _decode_outcomes(compiled, cut) == \
                _decode_outcomes(reference, cut)

    def test_binary_char_length_overrun(self):
        reference, compiled = _pair("binary", self.LAYOUT)
        body = bytes([0]) + b"\x01\x00\x00\x00" + b"\xff\x00" + b"hi"
        data = len(body).to_bytes(2, "little") + body
        assert _decode_outcomes(compiled, data) == \
            _decode_outcomes(reference, data)

    def test_binary_bad_decimal_raises_identically(self):
        reference, compiled = _pair("binary", self.LAYOUT)
        bad = b"oops"
        body = (bytes([0b010]) + b"\x01\x00\x00\x00"
                + len(bad).to_bytes(2, "little") + bad)
        data = len(body).to_bytes(2, "little") + body
        ref = _decode_outcomes(reference, data)
        assert _decode_outcomes(compiled, data) == ref
        assert ref[0][0] == "raise", \
            "bad DECIMAL text raises (ExpressionError), not an error item"

    def test_binary_invalid_date_epoch(self):
        reference, compiled = _pair(
            "binary", Layout("D", [FieldDef("D", parse_type("date"))]))
        for epoch in (0, -1, 999999, 11345):  # month/day out of range
            body = bytes([0]) + epoch.to_bytes(4, "little", signed=True)
            data = len(body).to_bytes(2, "little") + body
            assert _decode_outcomes(compiled, data) == \
                _decode_outcomes(reference, data)

    def test_vartext_invalid_utf8_raises_identically(self):
        reference, compiled = _pair("vartext", self.LAYOUT)
        data = b"1|\xff\xfe|2.5\n"
        assert _decode_outcomes(compiled, data) == \
            _decode_outcomes(reference, data)


class TestMakeFormatSelection:
    LAYOUT = Layout("S", [FieldDef("A", parse_type("integer"))])

    def test_default_is_compiled(self):
        fmt = make_format(FormatSpec(kind="binary"), self.LAYOUT)
        assert isinstance(fmt, CompiledBinaryFormat)
        fmt = make_format(FormatSpec(kind="vartext"), self.LAYOUT)
        assert isinstance(fmt, CompiledVartextFormat)

    def test_compiled_is_subclass_of_reference(self):
        assert issubclass(CompiledBinaryFormat, BinaryFormat)
        assert issubclass(CompiledVartextFormat, VartextFormat)


# ---------------------------------------------------------------------------
# Typed VARTEXT: encoding a result straight to VARTEXT equals decoding its
# BINARY encoding and VARTEXT-encoding that (what an export client used to
# do), for the layouts export results get.

#: value kinds a query result column can mix.
_RESULT_KINDS = {
    "bool": st.booleans(),
    "int": st.integers(-2**70, 2**70),
    "float": st.floats(),
    "decimal": st.decimals(),
    "date": st.dates(),
    "datetime": st.datetimes(),
    "str": st.text(st.characters(blacklist_categories=("Cs",)),
                   max_size=8),
}


@st.composite
def _result_rows(draw) -> list[tuple]:
    row_count = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kinds = draw(st.lists(st.sampled_from(sorted(_RESULT_KINDS)),
                              min_size=1, max_size=3, unique=True))
        value = st.one_of(st.none(), *(_RESULT_KINDS[k] for k in kinds))
        columns.append(draw(st.lists(value, min_size=row_count,
                                     max_size=row_count)))
    return list(zip(*columns))


def _bytes_or_format_error(encode):
    try:
        return encode()
    except DataFormatError:
        return DataFormatError


@settings(max_examples=300, deadline=None)
@given(rows=_result_rows(), delimiter=st.sampled_from(["|", ",", "\t"]))
def test_typed_vartext_equals_binary_round_trip(rows, delimiter):
    layout = infer_result_layout(
        [f"C{i}" for i in range(len(rows[0]))], rows)
    codecs = [
        (VartextFormat(layout, delimiter), BinaryFormat(layout)),
        (compile_format(FormatSpec("vartext", delimiter), layout),
         compile_format(FormatSpec("binary"), layout)),
    ]
    for vartext, binary in codecs:
        direct = _bytes_or_format_error(lambda: vartext.encode_records(rows))
        round_trip = _bytes_or_format_error(
            lambda: vartext.encode_records(
                binary.decode_records(binary.encode_records(rows))))
        assert direct == round_trip
