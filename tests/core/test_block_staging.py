"""Differential test: block staging lands what CSV staging landed.

The *reference route* is the converter the block format replaced: the
codec's ``iter_decode`` per record, ``CsvKernel.render_row`` with the
record's ``__SEQ``, and ``COPY … FORMAT csv``.  The *block route* is
today's: ``DataConverter.convert`` per chunk, the blocks concatenated
into staging files in any order, and ``COPY … FORMAT block``.  For the
same chunks both must give the same staging rows, ``__SEQ`` values and
acquisition errors — or raise the same error and leave the table empty.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdw import stagefile
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.converter import AcquisitionError, DataConverter
from repro.core.jobs import staging_columns
from repro.errors import DataFormatError
from repro.legacy.datafmt import FormatSpec, make_format
from repro.legacy.types import FieldDef, Layout, parse_type

STRIDE = 1000

#: regex-special, multibyte and plain delimiters.
DELIMITERS = ["|", ",", ".", "*", "+", "?", "^", "$", "\t", "§", "€"]

#: characters that stress escaping, quoting, NULL markers and UTF-8.
ALPHABET = list("ab ,|.*+?^$\\\"\r\tN") + ["é", "€", "😀", "\n", "§"]
TEXT = st.text(alphabet=st.sampled_from(ALPHABET), max_size=6)
CLEAN_TEXT = st.text(
    alphabet=st.sampled_from(list("ab ,.\"\r") + ["é", "😀"]), max_size=6)

#: staging column types a VARTEXT field may land in.
TARGETS = ["NVARCHAR", "VARCHAR(3)", "NVARCHAR NOT NULL", "INT"]


# -- the two routes ---------------------------------------------------------


def reference_stage(record_format, chunks):
    """``(csv bytes, acquisition errors)`` as the CSV converter made them."""
    kernel = stagefile.CsvKernel(",")
    lines, errors = [], []
    for chunk_seq, data in sorted(chunks):
        base = chunk_seq * STRIDE
        for index, item in enumerate(record_format.iter_decode(data)):
            if isinstance(item, DataFormatError):
                errors.append(AcquisitionError(
                    seq=base + index, code=item.code, field=item.field,
                    message=str(item)))
                continue
            lines.append(kernel.render_row(item, base + index))
    return "".join(lines).encode("utf-8"), errors


def block_stage(record_format, chunks, order, files):
    """``(staging files, acquisition errors)`` of today's converter,
    the blocks concatenated in ``order`` into ``files`` files."""
    converter = DataConverter(record_format, seq_stride=STRIDE)
    converted = [converter.convert(chunk_seq, data)
                 for chunk_seq, data in chunks]
    errors = sorted((e for c in converted for e in c.errors),
                    key=lambda e: e.seq)
    blocks = [converted[i].block for i in order]
    cut = len(blocks) * (files - 1) // files
    return [b"".join(blocks[:cut]), b"".join(blocks[cut:])], errors


def copy_outcome(ddl, blobs, file_format, gzip):
    """COPY ``blobs`` into a fresh STG: ``("ok", rows)`` in storage
    order, or ``("raise", type, message)`` with the table left empty."""
    store = CloudStore()
    store.create_container("stage")
    for index, data in enumerate(blobs):
        name = f"j/part-{index}"
        if gzip:
            data, name = stagefile.compress(data), name + ".gz"
        store.put_blob("stage", name, data)
    engine = CdwEngine(store=store)
    engine.execute(ddl)
    try:
        engine.execute(
            f"COPY INTO STG FROM 'store://stage/j/' FORMAT {file_format}")
    except Exception as exc:
        assert engine.catalog.get("STG").row_count == 0
        return ("raise", type(exc).__name__, str(exc))
    return ("ok", list(engine.catalog.get("STG").rows))


def outcomes(record_format, chunks, ddl, gzip, order, files):
    """The reference and block outcomes of staging ``chunks``."""
    try:
        csv, ref_errors = reference_stage(record_format, chunks)
    except Exception as exc:
        reference = ("convert raise", type(exc).__name__)
    else:
        reference = (copy_outcome(ddl, [csv], "csv", gzip),
                     ref_errors)
    try:
        blobs, errors = block_stage(record_format, chunks, order, files)
    except Exception as exc:
        block = ("convert raise", type(exc).__name__)
    else:
        block = (copy_outcome(ddl, blobs, "block", gzip), errors)
    return reference, block


def assert_same(reference, block):
    if reference[0] != "convert raise" and reference[0][0] == "ok":
        # CSV lands in file order; blocks land in __SEQ order.
        ref_rows = sorted(reference[0][1], key=lambda row: row[-1])
        assert reference[0][1] == ref_rows
        reference = (("ok", ref_rows), reference[1])
    assert block == reference


# -- generators --------------------------------------------------------------


@st.composite
def vartext_case(draw):
    arity = draw(st.integers(1, 4))
    delimiter = draw(st.sampled_from(DELIMITERS))
    layout = Layout("V", [FieldDef(f"F{i}", parse_type("varchar(20)"))
                          for i in range(arity)])
    record_format = make_format(FormatSpec("vartext", delimiter), layout)
    clean = draw(st.booleans())

    def line() -> bytes:
        if clean:
            kind = draw(st.sampled_from(["clean", "clean", "empty"]))
        else:
            kind = draw(st.sampled_from(
                ["clean", "encoded", "raw", "short", "long", "empty"]))
        if kind == "empty":
            return b"\n"
        if kind == "encoded":
            row = tuple(draw(st.none() | TEXT) for _ in range(arity))
            return record_format.encode_record(row)
        width = {"short": arity - 1, "long": arity + 1}.get(kind, arity)
        texts = CLEAN_TEXT if kind == "clean" else TEXT
        fields = [draw(texts).replace(delimiter, "").replace("\n", "")
                  if kind == "clean" else draw(texts).replace("\n", "")
                  for _ in range(width)]
        return (delimiter.join(fields) + "\n").encode("utf-8")

    chunk_seqs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3,
                               unique=True))
    chunks = []
    for chunk_seq in chunk_seqs:
        data = b"".join(line() for _ in range(draw(st.integers(0, 6))))
        if data and draw(st.booleans()):
            data = data[:-1]                   # no final newline
        if draw(st.integers(0, 19)) == 0:
            data += b"\xff\n"                  # invalid UTF-8
        chunks.append((chunk_seq, data))
    targets = [draw(st.sampled_from(TARGETS)) for _ in range(arity)]
    unique = draw(st.booleans())
    columns = [f"F{i} {target}" for i, target in enumerate(targets)]
    columns.append("__SEQ BIGINT")
    if unique:
        columns.append("UNIQUE (F0)")
    ddl = f"CREATE TABLE STG ({', '.join(columns)})"
    return record_format, chunks, ddl


#: every legacy type and a value strategy for it.
BINARY_FIELDS = [
    ("byteint", st.integers(-2**7, 2**7 - 1)),
    ("smallint", st.integers(-2**15, 2**15 - 1)),
    ("integer", st.integers(-2**31, 2**31 - 1)),
    ("bigint", st.integers(-2**63, 2**63 - 1)),
    ("float", st.floats(allow_nan=False)),
    ("decimal(10,2)", st.integers(-10**9, 10**9).map(
        lambda cents: Decimal(cents) / 100)),
    ("date", st.dates(datetime.date(1900, 1, 1),
                      datetime.date(2099, 12, 31))),
    ("timestamp", st.datetimes(datetime.datetime(1900, 1, 1),
                               datetime.datetime(2099, 12, 31))),
    ("varchar(20)", TEXT),
    ("char(8)", TEXT),
]


@st.composite
def binary_case(draw):
    layout = Layout("B", [FieldDef(f"F{i}", parse_type(type_name))
                          for i, (type_name, _) in enumerate(BINARY_FIELDS)])
    record_format = make_format(FormatSpec("binary"), layout)
    chunk_seqs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3,
                               unique=True))
    chunks = []
    for chunk_seq in chunk_seqs:
        rows = draw(st.lists(st.tuples(*(
            st.none() | values for _, values in BINARY_FIELDS)),
            max_size=5))
        data = b"".join(record_format.encode_record(row) for row in rows)
        if data and draw(st.integers(0, 4)) == 0:
            data = data[:draw(st.integers(0, len(data) - 1))]
        chunks.append((chunk_seq, data))
    ddl = f"CREATE TABLE STG ({', '.join(staging_columns(layout))})"
    return record_format, chunks, ddl


def placement(draw, chunks):
    order = draw(st.permutations(range(len(chunks))))
    return order, draw(st.integers(1, 2))


# -- the differential properties ---------------------------------------------


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_vartext_block_route_matches_csv_route(data):
    record_format, chunks, ddl = data.draw(vartext_case())
    order, files = placement(data.draw, chunks)
    assert_same(*outcomes(record_format, chunks, ddl,
                          gzip=data.draw(st.booleans()),
                          order=order, files=files))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_binary_block_route_matches_csv_route(data):
    record_format, chunks, ddl = data.draw(binary_case())
    order, files = placement(data.draw, chunks)
    assert_same(*outcomes(record_format, chunks, ddl,
                          gzip=data.draw(st.booleans()),
                          order=order, files=files))


def test_clean_vartext_takes_the_split_path():
    """A clean chunk never reaches the per-record decoder."""
    layout = Layout("V", [FieldDef("A", parse_type("varchar(9)")),
                          FieldDef("B", parse_type("varchar(9)"))])
    record_format = make_format(FormatSpec("vartext", "|"), layout)
    record_format.iter_decode = None      # would raise if called
    converted = DataConverter(record_format, seq_stride=STRIDE).convert(
        2, "x|\n\né|y\n".encode("utf-8"))
    (block,) = stagefile.decode_blocks(converted.block)
    assert block.runs == [(2000, 2002)]
    *columns, seq = stagefile.join_blocks([block])[0]
    assert seq.tolist() == [2000, 2001]
    assert [c.to_list(0, 2) for c in columns] == [["x", "é"], [None, "y"]]


def test_invalid_utf8_raises_what_the_decoder_raises():
    layout = Layout("V", [FieldDef("A", parse_type("varchar(9)"))])
    record_format = make_format(FormatSpec("vartext", "|"), layout)
    with pytest.raises(UnicodeDecodeError):
        list(record_format.iter_decode(b"a\n\xff\n"))
    with pytest.raises(UnicodeDecodeError):
        DataConverter(record_format, seq_stride=STRIDE).convert(
            0, b"a\n\xff\n")


# -- corrupt blocks ---------------------------------------------------------


def _one_block_file() -> bytes:
    layout = Layout("V", [FieldDef("A", parse_type("varchar(9)")),
                          FieldDef("B", parse_type("varchar(9)"))])
    record_format = make_format(FormatSpec("vartext", "|"), layout)
    converter = DataConverter(record_format, seq_stride=STRIDE)
    return converter.convert(0, "a|b\n|é\nc|\n".encode("utf-8")).block


_DDL = "CREATE TABLE STG (A NVARCHAR, B NVARCHAR, __SEQ BIGINT)"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_truncated_block_is_a_typed_error_and_lands_nothing(data):
    block = _one_block_file()
    cut = data.draw(st.integers(1, len(block) - 1))
    intact = _one_block_file()
    outcome = copy_outcome(_DDL, [intact, block[:cut]], "block", False)
    assert outcome[:2] == ("raise", "DataFormatError")


#: where column A of :func:`_one_block_file` (rows ``a|b``, ``|é``,
#: ``c|``) lies: a 16-byte header and one 16-byte ``__SEQ`` run, then
#: its u64 blob size, three validity bytes, three u64 lengths (1, 0, 1)
#: and its blob ``ac``.
_VALID_A = 16 + 16 + 8
_LENGTHS_A = _VALID_A + 3
_BLOB_A = _LENGTHS_A + 3 * 8


@pytest.mark.parametrize("where, junk", [
    ("magic", (0, b"XXXX")),
    ("validity", (_VALID_A, b"\x07")),
    ("lengths", (_LENGTHS_A, (99).to_bytes(8, "little"))),  # sum past
    ("lengths", (_LENGTHS_A, (0).to_bytes(8, "little"))),   # sum short
    ("utf-8", (_BLOB_A, b"\xff")),
    ("magic", (0, b"HQB1")),            # the end-offsets format's magic
    ("__SEQ runs", (16 + 8, (0).to_bytes(8, "little"))),    # empty run
], ids=["magic-junk0", "validity-junk1", "lengths-past", "lengths-short",
        "utf8", "hqb1-magic", "empty-run"])
def test_corrupt_block_is_a_typed_error(where, junk):
    """Each corrupt block raises ``DataFormatError`` naming what is
    wrong, and the COPY lands nothing, an intact file beside it
    included."""
    at, payload = junk
    block = bytearray(_one_block_file())
    assert block[:4] == b"HQB2"
    block[at:at + len(payload)] = payload
    outcome = copy_outcome(_DDL, [_one_block_file(), bytes(block)],
                           "block", False)
    assert outcome[:2] == ("raise", "DataFormatError")
    assert where in outcome[2]


def test_block_of_the_wrong_width_is_refused():
    outcome = copy_outcome(
        "CREATE TABLE STG (A NVARCHAR, __SEQ BIGINT)",
        [_one_block_file()], "block", False)
    assert outcome[:2] == ("raise", "BulkExecutionError")
