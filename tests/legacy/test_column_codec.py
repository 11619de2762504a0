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
often as it passes.
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
    rows = block.rows()
    layout = infer_column_layout(names, block.columns)
    assert layout == _row_layout(names, rows)
    formats = [
        (compile_format(FormatSpec("vartext", delimiter), layout),
         VartextFormat(layout, delimiter)),
        (compile_format(FormatSpec("binary"), layout), BinaryFormat(layout)),
    ]
    for lo in range(0, max(len(rows), 1), chunk_rows):
        chunk = block.sub(lo, lo + chunk_rows)
        for compiled, reference in formats:
            assert _outcome(lambda: compiled.encode_records(chunk)) == \
                _outcome(lambda: reference.encode_records(
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
