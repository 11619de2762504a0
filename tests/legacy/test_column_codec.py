"""Property tests: a result encoded from its columns is the reference.

An export hands the record codecs a :class:`~repro.cdw.columns.ColumnBlock`
of the query's snapshot (a text column as its buffers, any other column as
a list of values), and the layout is inferred from those columns.  Over
random columns of every legacy type family — NULLs, non-ASCII text,
values holding the delimiter, a backslash or a newline, columns degraded
to objects by un-coerced values — both must equal the row route:

- the layout equals the per-column inference over the row tuples;
- every chunk's VARTEXT and BINARY bytes (or error) equal the reference
  :class:`VartextFormat` / :class:`BinaryFormat` encode of its rows.

The delimiters include characters that renderings hold (``-`` and ``:``
in dates and timestamps, ``.`` in numbers, a space, a digit), so the
compiled encoder's whole-block escape check fails and falls back as
often as it passes.  A chunk cuts a text column by one width when
every value has it and skips the whole-block check when each column is
proven free of escapes on its own; the fixed-width families give those
checks something to prove, and each chunk is a ``sub()`` of a ``sub()``.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.cdw.columns import ColumnBlock, TextSlice
from repro.cdw.engine import CdwEngine
from repro.cdw.table import CdwTable, ColumnSpec
from repro.cdw.types import CdwType
from repro.legacy.datafmt import BinaryFormat, FormatSpec, VartextFormat
from repro.legacy.codec import compile_format
from repro.legacy.infer import infer_column_layout, infer_legacy_type
from repro.legacy.types import FieldDef, Layout

_TEXT = st.text(st.one_of(
    st.sampled_from("|-.: 5,\t\\\nab"),
    st.characters(blacklist_categories=("Cs",))), max_size=6)

#: per family: the table column type, and its values (before NULLs).
FAMILIES = {
    "text": (CdwType("VARCHAR", 20), _TEXT),
    # fixed widths: ASCII 0, 1 and 8 bytes (delimiters among the
    # characters), and equal characters in unequal bytes.
    "fixed0": (CdwType("VARCHAR", 20), st.just("")),
    "fixed1": (CdwType("VARCHAR", 20), st.text(
        st.sampled_from("|-5\\\nab"), min_size=1, max_size=1)),
    "fixed8": (CdwType("VARCHAR", 20), st.text(
        st.sampled_from("ab-5"), min_size=8, max_size=8)),
    "chars3": (CdwType("VARCHAR", 20), st.text(
        st.sampled_from("aé\N{SNOWMAN}"), min_size=3, max_size=3)),
    "int": (CdwType("BIGINT"), st.integers(-2 ** 64, 2 ** 64)),
    "bool": (CdwType("BOOLEAN"), st.booleans()),
    "float": (CdwType("DOUBLE"), st.floats()),
    "decimal": (CdwType("DECIMAL", 12, 2),
                st.decimals(places=2, min_value=-10 ** 6,
                            max_value=10 ** 6)),
    "date": (CdwType("DATE"), st.dates()),
    "timestamp": (CdwType("TIMESTAMP"), st.datetimes()),
    # un-coerced values degrade a text column to objects.
    "degraded": (CdwType("VARCHAR", 20), st.one_of(
        _TEXT, st.integers(), st.dates(), st.decimals(allow_nan=False))),
}

DELIMITERS = ["|", ",", "\t", "-", ".", ":", " ", "5", "\N{SNOWMAN}"]


@st.composite
def _tables(draw) -> CdwTable:
    """A table of random columns, appended un-coerced."""
    count = draw(st.integers(0, 12))
    families = draw(st.lists(st.sampled_from(sorted(FAMILIES)),
                             min_size=1, max_size=5))
    columns = []
    for family in families:
        values = FAMILIES[family][1]
        if draw(st.booleans()):         # an all-NULL column now and then
            values = st.one_of(st.none(), values)
        else:
            values = st.none() if draw(st.integers(0, 9)) == 0 else values
        columns.append(draw(st.lists(values, min_size=count,
                                     max_size=count)))
    table = CdwTable("T", [ColumnSpec(f"C{i}", FAMILIES[family][0])
                           for i, family in enumerate(families)])
    table.append_rows(list(zip(*columns)))
    return table


def _row_layout(names: list[str], rows: list[tuple]) -> Layout:
    """The row route's inference: each column's values from the tuples."""
    return Layout("__resultset__", [
        FieldDef(name, infer_legacy_type([row[i] for row in rows]))
        for i, name in enumerate(names)])


def _outcome(encode):
    try:
        return encode()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _snapshot_block(table: CdwTable) -> ColumnBlock:
    """``SELECT *`` over ``table`` on the engine: its snapshot's block."""
    engine = CdwEngine()
    engine.catalog.create(table)
    return engine.execute("SELECT * FROM T").block()


def _assert_column_route(names, block: ColumnBlock, delimiter: str,
                         chunk_rows: int) -> None:
    """Layout and every chunk's bytes equal the row route's; each chunk
    is a ``sub()`` of a two-chunk ``sub()``."""
    rows = block.rows()
    layout = infer_column_layout(names, block.columns)
    assert layout == _row_layout(names, rows)
    formats = [
        (compile_format(FormatSpec("vartext", delimiter), layout),
         VartextFormat(layout, delimiter)),
        (compile_format(FormatSpec("binary"), layout), BinaryFormat(layout)),
    ]
    step = 2 * chunk_rows
    for base in range(0, max(len(rows), 1), step):
        pair = block.sub(base, base + step)
        for lo in (base, base + chunk_rows):
            chunk = pair.sub(lo - base, lo - base + chunk_rows)
            for compiled, reference in formats:
                assert _outcome(lambda: compiled.encode_records(chunk)) \
                    == _outcome(lambda: reference.encode_records(
                        rows[lo:lo + chunk_rows]))


@settings(max_examples=300, deadline=None)
@given(table=_tables(), delimiter=st.sampled_from(DELIMITERS),
       chunk_rows=st.integers(1, 13))
def test_column_route_equals_the_row_route(table, delimiter, chunk_rows):
    names = table.column_names
    _assert_column_route(names, table.rows.block(), delimiter, chunk_rows)
    _assert_column_route(names, _snapshot_block(table), delimiter,
                         chunk_rows)


def test_text_columns_reach_the_codecs_as_buffers():
    """The export form is buffers: a snapshot's text column is a
    ``TextSlice`` over a copy of the table's, sliced in place."""
    table = CdwTable("T", [ColumnSpec("S", CdwType("VARCHAR", 9)),
                           ColumnSpec("N", CdwType("BIGINT"))])
    table.append_rows([("ünï|", 1), (None, None), ("", 3)])
    block = _snapshot_block(table)
    text, numbers = block.columns
    assert type(text) is TextSlice
    assert text.column is not table._store.cols[0]
    assert numbers == [1, None, 3]
    assert text.pieces() == ["ünï|".encode(), b"", b""]
    _assert_column_route(["S", "N"], block, "|", 2)


def test_empty_result_columns_are_one_wide_text():
    table = CdwTable("T", [ColumnSpec(f"C{i}", FAMILIES[family][0])
                           for i, family in enumerate(sorted(FAMILIES))])
    block = _snapshot_block(table)
    layout = infer_column_layout(table.column_names, block.columns)
    assert {f.type.render() for f in layout.fields} == {"VARCHAR(1)"}
    for spec in (FormatSpec("vartext"), FormatSpec("binary")):
        assert compile_format(spec, layout).encode_records(block) == b""


def test_non_ascii_width_counts_characters():
    table = CdwTable("T", [ColumnSpec("S", CdwType("VARCHAR", 9))])
    table.append_rows([("ab",), ("\N{SNOWMAN}" * 3,), (None,)])
    layout = infer_column_layout(["S"], _snapshot_block(table).columns)
    assert layout.fields[0].type.render() == "VARCHAR(3)"


def test_degraded_column_is_a_value_list():
    """A column an un-coerced value degraded to objects reaches the
    inference as values, and renders each as its text."""
    table = CdwTable("T", [ColumnSpec("S", CdwType("VARCHAR", 9))])
    table.append_rows([("ab",), (12345,), (datetime.date(2020, 1, 2),),
                       (Decimal("1.50"),)])
    block = _snapshot_block(table)
    assert type(block.columns[0]) is list
    layout = infer_column_layout(["S"], block.columns)
    assert layout.fields[0].type.render() == "VARCHAR(10)"
    vartext = compile_format(FormatSpec("vartext"), layout)
    assert vartext.encode_records(block) == \
        b"ab\n12345\n2020-01-02\n1.50\n"


def _wide_table(count: int) -> CdwTable:
    """Fixed-width ASCII, fixed characters in unequal bytes, variable
    text with escapes now and then, dates and integers."""
    table = CdwTable("T", [ColumnSpec("ID", CdwType("VARCHAR", 8)),
                           ColumnSpec("U", CdwType("VARCHAR", 3)),
                           ColumnSpec("V", CdwType("VARCHAR", 20)),
                           ColumnSpec("D", CdwType("DATE")),
                           ColumnSpec("N", CdwType("BIGINT"))])
    table.append_rows([
        (f"R{i:07d}", "aé\N{SNOWMAN}"[i % 3] * 3,
         "x|y" if i == count - 7 else "p\\q" if i == count // 2
         else "v" * (i % 11),
         datetime.date(2000 + i % 25, 1 + i % 12, 1 + i % 28), i - count)
        for i in range(count)])
    return table


def test_chunks_past_a_thousand_rows():
    """Chunks of more than 1 000 rows, the last one short; only some
    chunks hold a value needing an escape."""
    table = _wide_table(2345)
    for chunk_rows in (1001, 1500, 4096):
        _assert_column_route(table.column_names, _snapshot_block(table),
                             "|", chunk_rows)


def test_delimiters_inside_the_date_alphabet():
    """A delimiter a date renders (``-``, ``5``) leaves the DATE column
    unproven, even when every text column is proven free of it; the
    whole-block check decides, and the row route escapes the dates."""
    wide = _wide_table(60)
    narrow = CdwTable("T", [ColumnSpec("ID", CdwType("VARCHAR", 8)),
                            ColumnSpec("D", CdwType("DATE"))])
    narrow.append_rows([("abcdefgh"[i % 8] * 8,
                         datetime.date(2005, 1 + i % 12, 1 + i % 28))
                        for i in range(40)])
    for table in (wide, narrow):
        block = _snapshot_block(table)
        for delimiter in ("-", "5", "|"):
            _assert_column_route(table.column_names, block, delimiter, 25)
    layout = infer_column_layout(narrow.column_names, block.columns)
    for delimiter, line in (("-", "aaaaaaaa-2005\\-01\\-01\n"),
                            ("5", "aaaaaaaa5200\\5-01-01\n")):
        encoder = compile_format(FormatSpec("vartext", delimiter), layout)
        assert encoder.encode_records(block.sub(0, 1)) == line.encode()


def test_fixed_width_chunk_of_a_chunk():
    """A chunk of a chunk of the fixed-width ID column cuts its values
    by that width; a column of equal characters in unequal bytes has
    none, but a chunk of one kind of character does."""
    table = _wide_table(30)
    block = _snapshot_block(table)
    assert block.columns[0].uniform_width() == 8
    assert block.columns[1].uniform_width() is None   # 3-9 bytes
    inner = block.sub(10, 30).sub(5, 9)
    assert inner.columns[0].uniform_width() == 8
    assert inner.columns[0].pieces() == \
        [f"R{i:07d}".encode() for i in range(15, 19)]
    assert inner.columns[1].sub(0, 1).uniform_width() == 3   # "aaa"
