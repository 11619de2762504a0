"""DataConverter tests: legacy chunk -> one staging block."""

import datetime

import pytest

from repro.cdw import stagefile
from repro.core.converter import DataConverter
from repro.errors import DataFormatError
from repro.legacy.datafmt import BinaryFormat, VartextFormat
from repro.legacy.types import FieldDef, Layout, parse_type

LAYOUT = Layout("L", [
    FieldDef("A", parse_type("varchar(20)")),
    FieldDef("B", parse_type("varchar(20)")),
])


def staged_rows(block):
    """The ``(field..., __SEQ)`` tuples of a converted chunk's block."""
    blocks = stagefile.decode_blocks(block)
    if not blocks:
        return []
    *columns, seq = stagefile.join_blocks(blocks)[0]
    return list(zip(*[column.to_list(0, len(column))
                      for column in columns], seq.tolist()))


def make_converter(record_format=None, stride=1000):
    fmt = record_format or VartextFormat(LAYOUT)
    return DataConverter(fmt, seq_stride=stride)


class TestConvert:
    def test_basic_vartext(self):
        converter = make_converter()
        converted = converter.convert(0, b"x|y\na|b\n")
        assert converted.records == 2
        rows = staged_rows(converted.block)
        assert rows == [("x", "y", 0), ("a", "b", 1)]

    def test_seq_uses_stride(self):
        converter = make_converter(stride=100)
        converted = converter.convert(3, b"x|y\n")
        assert staged_rows(converted.block) == [("x", "y", 300)]

    def test_null_becomes_marker_not_empty(self):
        """The null-detection discrepancy of Section 4: legacy empty
        vartext field -> CDW NULL (a validity byte of 0)."""
        converter = make_converter()
        converted = converter.convert(0, b"x|\n")
        (block,) = stagefile.decode_blocks(converted.block)
        assert list(block.columns[1].valid) == [0]
        assert staged_rows(converted.block) == [("x", None, 0)]

    def test_special_characters_escaped(self):
        converter = make_converter()
        data = VartextFormat(LAYOUT).encode_record(('a,"b', "c\nd"))
        converted = converter.convert(0, data)
        assert staged_rows(converted.block) == [('a,"b', "c\nd", 0)]

    def test_bad_records_become_acquisition_errors(self):
        converter = make_converter()
        converted = converter.convert(0, b"a|b\nonly-one-field\nc|d\n")
        assert converted.records == 2
        assert len(converted.errors) == 1
        assert converted.errors[0].seq == 1  # second record of chunk 0
        assert converted.total_records == 3
        assert staged_rows(converted.block) == [("a", "b", 0), ("c", "d", 2)]

    def test_binary_input_types_serialized(self):
        layout = Layout("B", [
            FieldDef("N", parse_type("integer")),
            FieldDef("D", parse_type("date")),
        ])
        fmt = BinaryFormat(layout)
        converter = DataConverter(fmt, seq_stride=100)
        data = fmt.encode_record((7, datetime.date(2020, 1, 2)))
        converted = converter.convert(0, data)
        assert staged_rows(converted.block) == [("7", "2020-01-02", 0)]

    def test_stride_overflow_raises(self):
        converter = make_converter(stride=2)
        with pytest.raises(DataFormatError):
            converter.convert(0, b"a|b\nc|d\ne|f\n")

    def test_empty_chunk(self):
        converted = make_converter().convert(0, b"")
        assert converted.records == 0
        assert converted.block == converted.csv_bytes == b""

    def test_scratch_buffer_does_not_leak_between_chunks(self):
        converter = make_converter()
        first = converter.convert(0, b"x|y\n")
        second = converter.convert(1, b"a|b\n")
        assert staged_rows(first.block) == [("x", "y", 0)]
        assert staged_rows(second.block) == [("a", "b", 1000)]


class TestOversizeChunk:
    """Oversized chunks are rejected up front, naming the staging table."""

    def test_message_names_chunk_and_staging_table(self):
        converter = DataConverter(
            VartextFormat(LAYOUT), seq_stride=2, staging_table="HQ_STG_7")
        with pytest.raises(DataFormatError) as excinfo:
            converter.convert(4, b"a|b\nc|d\ne|f\n")
        message = str(excinfo.value)
        assert "HQ_STG_7" in message
        assert "chunk 4" in message
        assert "3 records" in message
        assert "seq_stride" in message

    def test_rejected_before_converting_any_record(self):
        # The count check runs before row conversion: even a chunk whose
        # every record is malformed (conversion would error them out)
        # trips the stride check first.
        converter = make_converter(stride=1)
        with pytest.raises(DataFormatError):
            converter.convert(0, b"only-one-field\nanother\n")

    def test_exact_stride_is_accepted(self):
        converter = make_converter(stride=2)
        converted = converter.convert(0, b"a|b\nc|d\n")
        assert converted.records == 2
