"""The converter's clean VARTEXT split against the per-line arity check.

:meth:`DataConverter.convert` proves a clean chunk's arity with one
skeleton compare (the chunk's delimiter and newline bytes against one
line's, repeated).  The reference here is the check it replaced: the
chunk's non-empty lines, one ``bytes.count`` of the delimiter per line,
the records of a chunk that fails it decoded one by one.  Over generated
chunks — blank lines, no final newline, lines of the wrong arity,
backslashes, multi-byte delimiters beside characters that share their
bytes, invalid UTF-8, strides too small for the chunk — both must give
the same block bytes, the same acquisition errors and the same error.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cdw import stagefile
from repro.core.converter import AcquisitionError, DataConverter
from repro.errors import DataFormatError
from repro.legacy.datafmt import FormatSpec, make_format
from repro.legacy.types import FieldDef, Layout, parse_type

#: ASCII and multi-byte delimiters; ``§`` (C2 A7) shares a byte with
#: ``¢`` (C2 A2) and ``ç`` (C3 A7), ``€`` (E2 82 AC) with ``‚`` (E2 80 9A).
DELIMITERS = ["|", ",", "\t", "§", "€"]

#: field characters: plain, escapes, and multi-byte characters that
#: share bytes with a multi-byte delimiter.
ALPHABET = list("ab |,\t\\") + ["é", "ç", "¢", "‚", "😀", "§", "€"]


def reference_convert(record_format, stride: int, chunk_seq: int,
                      data: bytes):
    """``(block, errors)`` of the per-line arity check."""
    separator = record_format.delimiter.encode("utf-8")
    arity = record_format.layout.arity
    lines = [line for line in data.split(b"\n") if line]
    if len(lines) > stride:
        raise DataFormatError(
            f"chunk {chunk_seq} holds {len(lines)} records, more than the "
            f"configured seq_stride of {stride}; raise seq_stride")
    base = chunk_seq * stride
    data.decode("utf-8")
    if b"\\" not in data and all(
            line.count(separator) == arity - 1 for line in lines):
        if not lines:
            return b"", []
        fields = separator.join(lines).split(separator)
        return stagefile.encode_block(
            range(base, base + len(lines)),
            [stagefile.fields_column(fields[i::arity])
             for i in range(arity)]), []
    seqs, rows, errors = [], [], []
    for index, item in enumerate(record_format.iter_decode(data)):
        if isinstance(item, DataFormatError):
            errors.append(AcquisitionError(
                seq=base + index, code=item.code, field=item.field,
                message=str(item)))
            continue
        rows.append(item)
        seqs.append(base + index)
    if not rows:
        return b"", errors
    return stagefile.encode_block(
        seqs, [stagefile.values_column(column)
               for column in zip(*rows)]), errors


def outcome(call):
    try:
        return call()
    except Exception as exc:            # compared by type and message
        return ("raise", type(exc).__name__, str(exc))


@st.composite
def chunk_case(draw):
    arity = draw(st.integers(1, 4))
    delimiter = draw(st.sampled_from(DELIMITERS))
    layout = Layout("V", [FieldDef(f"F{i}", parse_type("varchar(20)"))
                          for i in range(arity)])
    record_format = make_format(FormatSpec("vartext", delimiter), layout)
    text = st.text(alphabet=st.sampled_from(
        [c for c in ALPHABET if c != delimiter]), max_size=4)
    dirty = draw(st.booleans())

    def line() -> str:
        kind = draw(st.sampled_from(
            ["clean"] * 4 + ["blank"]
            + (["short", "long", "escaped"] if dirty else [])))
        if kind == "blank":
            return ""
        width = {"short": arity - 1, "long": arity + 1}.get(kind, arity)
        fields = [draw(text).replace("\\", "") if kind != "escaped"
                  else draw(text) + "\\" + delimiter
                  for _ in range(width)]
        return delimiter.join(fields)

    data = "\n".join(line() for _ in range(draw(st.integers(0, 8))))
    if data and draw(st.booleans()):
        data += "\n"
    raw = data.encode("utf-8")
    if draw(st.integers(0, 24)) == 0:
        raw += b"\xff\n"                       # invalid UTF-8
    stride = draw(st.sampled_from([3, 1000]))
    return record_format, stride, draw(st.integers(0, 5)), raw


@settings(max_examples=400, deadline=None)
@given(chunk_case())
def test_split_matches_the_per_line_check(case):
    record_format, stride, chunk_seq, data = case
    expected = outcome(lambda: reference_convert(
        record_format, stride, chunk_seq, data))
    converted = outcome(lambda: DataConverter(
        record_format, seq_stride=stride).convert(chunk_seq, data))
    if not isinstance(converted, tuple):
        converted = (converted.block, converted.errors)
    assert converted == expected


@settings(max_examples=100, deadline=None)
@given(chunk_case())
def test_clean_ascii_chunks_never_reach_the_record_decoder(case):
    """Where the per-line check takes a chunk as clean and the delimiter
    is one byte, so does the skeleton compare."""
    record_format, stride, chunk_seq, data = case
    separator = record_format.delimiter.encode("utf-8")
    lines = [line for line in data.split(b"\n") if line]
    clean = (len(separator) == 1 and len(lines) <= stride
             and b"\\" not in data and b"\xff" not in data
             and all(line.count(separator) == record_format.layout.arity - 1
                     for line in lines))
    if not clean:
        return
    record_format.iter_decode = None      # would raise if called
    converted = DataConverter(record_format, seq_stride=stride).convert(
        chunk_seq, data)
    assert converted.records == len(lines)
