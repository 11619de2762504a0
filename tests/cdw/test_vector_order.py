"""Differential test: the vector ORDER BY against the row interpreter.

A vector SELECT orders its projected columns by decoding only the sort
keys; a text column is gathered buffer to buffer by the order
(``TextSlice.gather``) and stays a ``TextSlice`` in the statement's
snapshot, so an ORDER BY export takes the column route.  The oracle is
the same statement on an engine forced onto its row interpreter
(``tests/cdw/oracles.py``).  Over NULLs, DESC, non-ASCII and empty
text, ties (few distinct keys, so later keys and stability decide),
positions, aliases, source expressions and LIMIT, both must give the
same rows in the same order.
"""

from __future__ import annotations

import datetime

from hypothesis import given, settings, strategies as st

from repro.cdw.columns import TextSlice
from repro.cdw.engine import CdwEngine
from tests.cdw.oracles import row_interpreter

DDL = "CREATE TABLE T (K INT, S VARCHAR(12), D DATE, U NVARCHAR(12))"

_TEXT = st.one_of(st.none(), st.sampled_from(
    ["", "a", "A", "ab", "b", "é", "éa", "☃", "a ", "zz"]))
_ROWS = st.lists(st.tuples(
    st.one_of(st.none(), st.integers(-2, 2)), _TEXT,
    st.one_of(st.none(), st.sampled_from(
        [datetime.date(2020, 1, 2), datetime.date(1999, 12, 31)])),
    _TEXT), max_size=25)

#: ORDER BY entries: columns, positions, an alias, source expressions.
_KEYS = ["K", "S", "D", "U", "1", "2", "4", "KEY_S", "K + 1", "UPPER(S)",
         "T.S"]


def _engines(rows) -> "tuple[CdwEngine, CdwEngine]":
    engines = CdwEngine(), row_interpreter(CdwEngine())
    for engine in engines:
        engine.execute(DDL)
        engine.table("T").append_rows(rows)
    return engines


@settings(max_examples=250, deadline=None)
@given(rows=_ROWS,
       keys=st.lists(st.tuples(st.sampled_from(_KEYS), st.booleans()),
                     min_size=1, max_size=3),
       limit=st.one_of(st.none(), st.integers(0, 30)))
def test_vector_order_equals_the_row_interpreter(rows, keys, limit):
    vector, rows_only = _engines(rows)
    order = ", ".join(f"{key}{'' if ascending else ' DESC'}"
                      for key, ascending in keys)
    sql = (f"SELECT K, S AS KEY_S, D, U FROM T ORDER BY {order}"
           + ("" if limit is None else f" LIMIT {limit}"))
    got, want = vector.execute(sql), rows_only.execute(sql)
    assert list(got.rows) == list(want.rows)
    assert got.columns == want.columns
    if rows:    # the column route: text stays buffers through the sort
        assert [type(col) is TextSlice for col in got.block().columns] \
            == [False, True, False, True]


def test_descending_text_puts_nulls_last_and_prefixes_after():
    vector, rows_only = _engines([(1, "ab", None, None), (2, None, None, None),
                                  (3, "a", None, None), (4, "b", None, None)])
    sql = "SELECT S, K FROM T ORDER BY S DESC"
    assert list(vector.execute(sql).rows) == \
        list(rows_only.execute(sql).rows) == \
        [("b", 4), ("ab", 1), ("a", 3), (None, 2)]
