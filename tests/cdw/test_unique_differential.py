"""The unique-key index against a tuple-keyed reference.

The table keeps a one-column key's values bare in its index (no 1-tuple
per row) and a wider key's as tuples.  Over generated append sequences
— one- and two-column keys, NULL keys, duplicates within one append and
across appends, the index dropped and rebuilt in between — every entry
point must name the first duplicate that
:func:`tests.cdw.oracles.tuple_keyed_violation` names, with the same
``BulkExecutionError`` text, and land exactly the appends it accepts:

- the table's four: ``check_unique_append`` then ``append_rows``,
  ``check_unique_append_columns`` then ``append_columns`` with and
  without the key sets it returned, and ``append_rows`` then
  ``check_unique`` over the whole table with a truncating rollback (how
  Beta emulates keys on an engine without native ones);
- the engine's ``INSERT … VALUES``, ``INSERT … SELECT``, ``COPY …
  FORMAT csv`` and ``COPY … FORMAT block`` under ``native_unique`` on,
  and under it off with Beta's emulation check after each statement.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdw import stagefile
from repro.cdw.cloudstore import CloudStore
from repro.cdw.columns import TextColumn
from repro.cdw.engine import CdwEngine
from repro.cdw.table import CdwTable, ColumnSpec
from repro.cdw.types import CdwType
from repro.errors import BulkExecutionError
from tests.cdw.oracles import tuple_keyed_violation

COLUMNS = ["K1", "K2", "V", "__SEQ"]
#: the declared keys of a case, by column position.
KEYS = {"one": [(0,)], "two": [(0, 1)], "both": [(1,), (0, 1)],
        "int": [(1,)]}
ROW = st.tuples(st.sampled_from([None, "a", "b", "a ", "é"]),
                st.sampled_from([None, 1, 2]),
                st.sampled_from([None, "v", "w"]))


@st.composite
def appends(draw):
    """``(keys, batches)``: 1–5 appends of 0–5 rows each; a row's
    ``__SEQ`` is its position in the whole sequence."""
    keys = draw(st.sampled_from(sorted(KEYS)))
    batches, seq = [], 0
    for _ in range(draw(st.integers(1, 5))):
        rows = []
        for row in draw(st.lists(ROW, max_size=5)):
            rows.append((*row, seq))
            seq += 1
        batches.append(rows)
    return KEYS[keys], batches, draw(st.lists(st.booleans(), min_size=5,
                                              max_size=5))


def make_table(keys) -> CdwTable:
    types = ["NVARCHAR", "BIGINT", "NVARCHAR", "BIGINT"]
    return CdwTable("T", [ColumnSpec(name, CdwType(base))
                          for name, base in zip(COLUMNS, types)],
                    [tuple(COLUMNS[i] for i in key) for key in keys])


def columns_of(rows, text_buffers: bool) -> list:
    cols = [[row[i] for row in rows] for i in range(len(COLUMNS))]
    if text_buffers:
        for i in (0, 2):
            column = TextColumn()
            column.append_many(cols[i])
            cols[i] = column
    return cols


def by_rows(table, rows):
    table.check_unique_append(rows)
    table.append_rows(rows)


def by_columns(table, rows):
    cols = columns_of(rows, text_buffers=True)
    table.append_columns(cols, table.check_unique_append_columns(cols))


def by_columns_folded(table, rows):
    cols = columns_of(rows, text_buffers=False)
    table.check_unique_append_columns(cols)
    table.append_columns(cols)


def by_full_check(table, rows):
    before = table.row_count
    table.append_rows(rows)
    try:
        table.check_unique(table.rows)
    except BulkExecutionError:
        table.truncate_rows(before)
        raise


@settings(max_examples=150, deadline=None)
@given(appends(), st.sampled_from(
    [by_rows, by_columns, by_columns_folded, by_full_check]))
def test_table_entry_points_match_the_tuple_keyed_reference(case, entry):
    keys, batches, drops = case
    table = make_table(keys)
    landed: list = []
    for rows, drop in zip(batches, drops):
        if drop:        # the index is rebuilt from the rows on next use
            table.truncate_rows(table.row_count)
        expected = tuple_keyed_violation("T", COLUMNS, keys, landed, rows)
        try:
            entry(table, rows)
        except BulkExecutionError as exc:
            assert (str(exc), exc.kind) == (expected, "uniqueness")
        else:
            assert expected is None
            landed += rows
        assert list(table.rows) == landed


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


def _values(rows) -> str:
    return ", ".join("(" + ", ".join(map(_literal, row)) + ")"
                     for row in rows)


def by_statement(engine: CdwEngine, route: str, rows, batch: int) -> None:
    """Append ``rows`` to ``T`` by one statement of ``route``."""
    if route == "values":
        engine.execute(f"INSERT INTO T VALUES {_values(rows)}")
    elif route == "select":
        engine.execute("DELETE FROM SRC")
        engine.execute(f"INSERT INTO SRC VALUES {_values(rows)}")
        engine.execute("INSERT INTO T SELECT K1, K2, V, __SEQ FROM SRC")
    else:
        if route == "csv":
            data = stagefile.encode_csv_rows(rows)
        else:
            data = stagefile.encode_block(
                [row[-1] for row in rows],
                [stagefile.values_column([row[i] for row in rows])
                 for i in range(3)])
        engine.store.put_blob("stage", f"b{batch}/part", data)
        engine.execute(f"COPY INTO T FROM 'store://stage/b{batch}/' "
                       f"FORMAT {route}")


@pytest.mark.parametrize("native_unique", [True, False],
                         ids=["native", "emulated"])
@pytest.mark.parametrize("route", ["values", "select", "csv", "block"])
@settings(max_examples=40, deadline=None)
@given(case=appends())
def test_engine_routes_match_the_tuple_keyed_reference(native_unique, route,
                                                       case):
    keys, batches, _ = case
    store = CloudStore()
    store.create_container("stage")
    engine = CdwEngine(store=store, native_unique=native_unique)
    names = [", ".join(COLUMNS[i] for i in key) for key in keys]
    uniques = "".join(f", UNIQUE ({name})" for name in names)
    engine.execute("CREATE TABLE T (K1 NVARCHAR, K2 BIGINT, V NVARCHAR, "
                   f"__SEQ BIGINT{uniques})")
    engine.execute("CREATE TABLE SRC (K1 NVARCHAR, K2 BIGINT, "
                   "V NVARCHAR, __SEQ BIGINT)")
    table = engine.catalog.get("T")
    landed: list = []
    for batch, rows in enumerate(batches):
        if not rows:
            continue
        expected = tuple_keyed_violation("T", COLUMNS, keys, landed, rows)
        before = table.row_count
        try:
            by_statement(engine, route, rows, batch)
            if not native_unique:       # Beta's emulation check
                try:
                    table.check_unique(table.rows)
                except BulkExecutionError:
                    table.truncate_rows(before)
                    raise
        except BulkExecutionError as exc:
            assert (str(exc), exc.kind) == (expected, "uniqueness")
        else:
            assert expected is None
            landed += rows
        assert sorted(table.rows, key=lambda row: row[-1]) == landed
