"""Unit tests for the typed column-vector storage layer (PR 8).

:mod:`repro.cdw.columns` backs every columnar :class:`CdwTable`; these
tests pin the storage contracts the engine paths rely on — round-trip
fidelity (including NULLs and non-ASCII text), graceful degradation to
object storage when a value does not fit the typed buffer, and the
truncate/take mutations that implement rollback and vectorized DELETE.
"""

from decimal import Decimal

import pytest

from repro.cdw.columns import ColumnStore, column_for_type
from repro.cdw.table import ColumnSpec
from repro.cdw.types import CdwType

SPECS = [
    ColumnSpec("I", CdwType("INT")),
    ColumnSpec("D", CdwType("DOUBLE")),
    ColumnSpec("B", CdwType("BOOLEAN")),
    ColumnSpec("S", CdwType("NVARCHAR", 40)),
]

ROWS = [
    (1, 1.5, True, "alpha"),
    (None, None, None, None),
    (-7, -0.25, False, ""),
    (2 ** 40, 3e300, True, "naïve — ünïcode"),
]


def make_store(rows=ROWS):
    return ColumnStore.from_rows(SPECS, rows)


class TestRoundTrip:
    def test_tuples_and_rows_match_input(self):
        store = make_store()
        assert store.tuples(0, len(store)) == ROWS
        assert [store.row(i) for i in range(len(store))] == ROWS
        assert store.row(-1) == ROWS[-1]

    def test_column_list_slices(self):
        store = make_store()
        assert store.column_list(3, 1, 3) == [None, ""]
        assert store.column_list(0) == [1, None, -7, 2 ** 40]

    @pytest.mark.parametrize("base", ["INT", "DOUBLE"])
    def test_to_list_checks_only_its_own_range_for_nulls(self, base):
        col = column_for_type(base)
        cast = int if base == "INT" else float
        values = [cast(i) for i in range(10)]
        values[7] = None
        col.append_many(values)
        # NULL-free range of a column with a NULL elsewhere ...
        assert col.to_list(1, 4) == values[1:4]
        # ... and the reverse: a range holding the column's NULL.
        assert col.to_list(6, 9) == values[6:9]
        assert col.to_list(7, 8) == [None]
        assert col.to_list(0, 10) == values

    def test_columnwise_append_equals_rowwise(self):
        rowwise = make_store()
        colwise = ColumnStore(list(SPECS))
        colwise.extend_columns(
            [[r[i] for r in ROWS] for i in range(len(SPECS))])
        assert colwise.tuples(0, 4) == rowwise.tuples(0, 4)


class TestDegradation:
    def test_out_of_range_int_degrades_not_raises(self):
        store = make_store()
        store.append_row((2 ** 70, 0.0, True, "x"))
        assert store.row(4)[0] == 2 ** 70
        assert store.column_list(0) == [1, None, -7, 2 ** 40, 2 ** 70]

    def test_wrong_type_degrades(self):
        # Decimal in a DOUBLE column: the engine stores whatever a
        # coercion produced; the store must keep it verbatim.
        store = make_store()
        store.append_row((0, Decimal("1.25"), False, "y"))
        assert store.row(4)[1] == Decimal("1.25")

    def test_columnwise_degradation_keeps_prior_rows(self):
        store = make_store()
        store.extend_columns([[2 ** 80, 3], [0.5, 1.5],
                              [True, False], ["a", "b"]])
        assert len(store) == 6
        assert store.column_list(0) == \
            [1, None, -7, 2 ** 40, 2 ** 80, 3]


class TestMutation:
    def test_truncate_drops_suffix(self):
        store = make_store()
        store.truncate(2)
        assert store.tuples(0, len(store)) == ROWS[:2]
        store.append_row(ROWS[3])
        assert store.row(2) == ROWS[3]

    def test_take_reorders_and_filters(self):
        store = make_store()
        taken = store.take([3, 1, 0])
        assert taken.tuples(0, 3) == [ROWS[3], ROWS[1], ROWS[0]]
        # the original is untouched
        assert store.tuples(0, 4) == ROWS

    def test_text_blob_truncate_then_append(self):
        col = column_for_type("NVARCHAR")
        for v in ("aa", None, "bbbb"):
            col.append(v)
        col.truncate(1)
        col.append("cc")
        assert col.to_list(0, 2) == ["aa", "cc"]
        assert col[1] == "cc"


class TestFootprint:
    def test_nbytes_is_buffer_sized(self):
        store = ColumnStore(list(SPECS))
        store.extend_rows([(i, float(i), True, "v%04d" % i)
                           for i in range(1000)])
        # 8B int + 8B double + ~1B bool + ~13B text (5 UTF-8 bytes +
        # 8B offset) + 4 validity bytes ≈ 34B/row — far under the
        # several-hundred-byte tuple-of-objects footprint.
        assert store.nbytes() < 60 * 1000

    def test_null_count(self):
        store = make_store()
        assert store.cols[0].null_count() == 1
        assert store.cols[3].null_count() == 1


def test_unknown_base_falls_back_to_object_column():
    col = column_for_type("DECIMAL")
    col.append(Decimal("7.25"))
    col.append(None)
    assert col.to_list(0, 2) == [Decimal("7.25"), None]
