"""Table storage against a list model: the reference for storage.

A :class:`CdwTable` keeps its rows in typed column vectors
(:mod:`repro.cdw.columns`); the row interpreter and the vector path
both read them, so a differential test between the two cannot see a
storage fault they share.  This state machine drives one table and a
plain list of tuples through the same random operations — row and
column appends (lists, ``TextColumn`` buffers, ``array('q')`` integers,
values that degrade a typed column to objects), checked appends,
``take_rows``, ``truncate_rows``, ``set_sorted``, ``add_column`` and the
``rows`` setter — and after every step compares each read: ``rows``
(iteration, indexing, slicing), ``row_count``, ``column_values``, the
values of ``column_vector``, ``seq_slice`` and ``storage_info()``.
"""

from __future__ import annotations

import datetime
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.cdw.columns import TextColumn, TextSlice, decoded, runs
from repro.cdw.table import CdwTable, ColumnSpec
from repro.cdw.types import CdwType
from repro.errors import BulkExecutionError, CatalogError

SEQ = "SEQ"

#: values per column type; the last entries of each are off-type values
#: a typed vector cannot hold, which degrade its column to objects.
VALUES = {
    "INT": st.integers(-9, 9) | st.just(2 ** 64) | st.just("x"),
    "BIGINT": st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(0, 12),
    "DOUBLE": st.floats(allow_nan=False, width=64) | st.just(3),
    "NVARCHAR": st.text(max_size=4) | st.just(7),
    "BOOLEAN": st.booleans() | st.just(0),
    "DATE": st.dates(datetime.date(1999, 1, 1), datetime.date(2001, 1, 1)),
    "DECIMAL": st.decimals(-100, 100, places=2),
}

BASE_SPECS = [
    ColumnSpec("ID", CdwType("INT")),
    ColumnSpec(SEQ, CdwType("BIGINT"), nullable=False),
    ColumnSpec("AMT", CdwType("DOUBLE")),
    ColumnSpec("NAME", CdwType("NVARCHAR")),
    ColumnSpec("FLAG", CdwType("BOOLEAN")),
    ColumnSpec("DAY", CdwType("DATE")),
]


def typed(rows) -> list[tuple]:
    """Rows with each value's type beside it: ``True`` is not ``1``."""
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def value(spec: ColumnSpec):
    """A value for ``spec``: mostly its own type, sometimes NULL."""
    if spec.name == SEQ:
        return st.integers(0, 12)
    return VALUES[spec.ctype.base] | st.none()


class StorageModel(RuleBasedStateMachine):
    """One table, one list of tuples, the same operations."""

    def __init__(self):
        super().__init__()
        self.table = CdwTable("M", list(BASE_SPECS), [("ID",)])
        self.model: list[tuple] = []
        self.armed = False

    # -- helpers -------------------------------------------------------------

    @property
    def specs(self) -> list[ColumnSpec]:
        return self.table.columns

    def draw_rows(self, data, max_size=6) -> list[tuple]:
        row = st.tuples(*(value(spec) for spec in self.specs))
        return data.draw(st.lists(row, max_size=max_size))

    def keep_order(self) -> None:
        """The zone map's contract: while armed, rows stay in a stable
        sort by ``SEQ``."""
        if self.armed:
            col = self.table.column_index(SEQ)
            self.model.sort(key=lambda row: row[col])

    def duplicate_key(self, new_rows) -> bool:
        """Whether ``new_rows`` repeat an ``ID`` present or earlier in
        them (NULL keys never clash); existing duplicates do not
        count."""
        seen = {row[0] for row in self.model if row[0] is not None}
        for row in new_rows:
            if row[0] is None:
                continue
            if row[0] in seen:
                return True
            seen.add(row[0])
        return False

    def as_columns(self, data, rows) -> list:
        """``rows`` as one value list per column; text columns sometimes
        as ``TextColumn`` buffers (whole, or concatenated from two
        parts), integer columns without NULLs sometimes as
        ``array('q')``."""
        cols = [[row[i] for row in rows] for i in range(len(self.specs))]
        for i, spec in enumerate(self.specs):
            col = cols[i]
            kinds = {type(v) for v in col}
            if spec.ctype.base == "NVARCHAR" and kinds <= {str, type(None)} \
                    and data.draw(st.booleans()):
                cut = data.draw(st.integers(0, len(col)))
                parts = [TextColumn(), TextColumn()]
                for j, v in enumerate(col):
                    parts[j >= cut].append(v)
                parts[0].append_many(parts[1])
                cols[i] = parts[0]
            elif kinds <= {int} and all(-2 ** 63 <= v < 2 ** 63
                                        for v in col) \
                    and data.draw(st.booleans()):
                cols[i] = array("q", col)
        return cols

    # -- writes --------------------------------------------------------------

    @rule(data=st.data())
    def append_rows(self, data):
        rows = self.draw_rows(data)
        self.table.append_rows(list(rows))
        self.model.extend(rows)
        self.keep_order()

    @rule(data=st.data())
    def append_rows_checked(self, data):
        rows = self.draw_rows(data)
        if self.duplicate_key(rows):
            with pytest.raises(BulkExecutionError):
                self.table.check_unique_append(rows)
            return
        self.table.check_unique_append(rows)
        self.table.append_rows(list(rows))
        self.model.extend(rows)
        self.keep_order()

    @rule(data=st.data(), checked=st.booleans())
    def append_columns(self, data, checked):
        rows = self.draw_rows(data)
        cols = self.as_columns(data, rows)
        new_keys = None
        if checked:
            if self.duplicate_key(rows):
                with pytest.raises(BulkExecutionError):
                    self.table.check_unique_append_columns(cols)
                return
            new_keys = self.table.check_unique_append_columns(cols)
        self.table.append_columns(cols, new_keys)
        self.model.extend(rows)
        self.keep_order()

    @rule(data=st.data())
    def take_rows(self, data):
        index = st.integers(0, len(self.model) - 1)
        if not self.model:
            indices = []
        elif self.armed:        # a subsequence keeps the sort
            indices = sorted(data.draw(st.sets(index)))
        else:
            indices = data.draw(st.lists(index, max_size=len(self.model) + 2))
        self.table.take_rows(indices)
        self.model = [self.model[i] for i in indices]

    @rule(data=st.data())
    def truncate_rows(self, data):
        length = data.draw(st.integers(0, len(self.model) + 2))
        self.table.truncate_rows(length)
        del self.model[length:]

    @rule()
    def set_sorted(self):
        self.table.set_sorted(SEQ)
        self.armed = True
        self.keep_order()

    @precondition(lambda self: len(self.specs) < 9)
    @rule(base=st.sampled_from(sorted(VALUES)), nullable=st.booleans())
    def add_column(self, base, nullable):
        spec = ColumnSpec(f"C{len(self.specs)}", CdwType(base), nullable)
        if not nullable and self.model:
            with pytest.raises(CatalogError):
                self.table.add_column(spec)
            return
        assert self.table.add_column(spec)
        self.model = [row + (None,) for row in self.model]

    @rule(data=st.data(), own=st.booleans())
    def set_rows(self, data, own):
        if own:
            self.table.rows = self.table.rows
        else:
            rows = self.draw_rows(data)
            self.model = list(rows)
            self.keep_order()
            self.table.rows = list(self.model)

    # -- reads ---------------------------------------------------------------

    @invariant()
    def reads_agree(self):
        table, model = self.table, self.model
        assert typed(table.rows) == typed(model)
        assert typed(table.materialized_rows()) == typed(model)
        assert table.row_count == len(table.rows) == len(model)
        assert bool(table.rows) == bool(model)
        assert table.storage_info()["rows"] == len(model)
        assert table.storage_info()["bytes"] >= 0
        for i, spec in enumerate(table.columns):
            want = [row[i] for row in model]
            assert typed([table.column_values(spec.name)]) == typed([want])
            vector = table.column_vector(i, 0, len(model))
            assert typed([decoded(vector)]) == typed([want])
        if self.armed:
            seqs = [row[table.column_index(SEQ)] for row in model]
            for low, high in ((0, 12), (3, 3), (5, 2), (-1, 4), (7, 99)):
                assert table.seq_slice(low, high) == (
                    sum(s < low for s in seqs), sum(s <= high for s in seqs))

    @rule(data=st.data())
    def read_ranges(self, data):
        table, model = self.table, self.model
        n = len(model)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        for i, spec in enumerate(table.columns):
            want = [row[i] for row in model[lo:hi]]
            assert typed([table.column_values(spec.name, lo, hi)]) == \
                typed([want])
            vector = table.column_vector(i, lo, hi)
            assert typed([decoded(vector)]) == typed([want])
            if type(vector) is TextSlice:
                cut = data.draw(st.integers(0, hi - lo))
                assert vector.sub(cut, hi - lo).to_list() == want[cut:]
                assert vector.null_count() == want.count(None)
                assert vector.max_width() == max(
                    [len(v.encode()) for v in want if v is not None],
                    default=0)
        rows = table.rows
        assert typed(rows[lo:hi]) == typed(model[lo:hi])
        step = data.draw(st.integers(1, 3))
        assert typed(rows[lo:hi:step]) == typed(model[lo:hi:step])
        assert typed(rows[::-1]) == typed(model[::-1])
        assert typed(rows[-hi:]) == typed(model[-hi:])
        if n:
            at = data.draw(st.integers(-n, n - 1))
            assert typed([rows[at]]) == typed([model[at]])
        assert rows == model
        assert typed(rows + []) == typed([] + rows) == typed(model)


TestStorageModel = StorageModel.TestCase
TestStorageModel.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


#: a text column's values: multi-byte characters, empty strings, NULLs.
TEXTS = st.lists(st.text(max_size=3) | st.none(), max_size=12)


def _selection(draw, n):
    """Indices into ``n`` values: sorted runs with gaps, reversed,
    repeated, or arbitrary."""
    index = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["runs", "reversed", "repeated", "any"]))
    if kind == "runs":
        return sorted(draw(st.sets(index)))
    if kind == "reversed":
        return sorted(draw(st.sets(index)), reverse=True)
    if kind == "repeated":
        return [i for i in draw(st.lists(index, max_size=5))
                for _ in range(draw(st.integers(1, 3)))]
    return draw(st.lists(index, max_size=n + 3))


@settings(max_examples=300, deadline=None)
@given(TEXTS, st.data())
def test_text_take_copies_runs(values, data):
    """``TextColumn.take`` copies each run of consecutive indices as one
    slice of blob, offsets and validity: its values are the list's,
    from a whole column and from one whose buffers start mid-blob."""
    column = TextColumn()
    for v in ["lead", None, *values]:
        column.append(v)
    base = 2                                # two values ahead of ours
    indices = _selection(data.draw, len(values)) if values else []
    taken = column.take([base + i for i in indices])
    assert taken.to_list(0, len(taken)) == [values[i] for i in indices]
    assert len(taken.offsets) == len(indices) + 1
    assert taken.offsets[-1] == len(taken.blob)
    assert taken.valid == bytearray(v is not None for v in
                                    (values[i] for i in indices))
    assert runs(indices) == [
        (first, last + 1) for first, last in _model_runs(indices)]


def _model_runs(indices):
    """Maximal runs ``(first, last)`` of consecutive ascending indices,
    one index at a time."""
    out = []
    for i in indices:
        if out and i == out[-1][1] + 1:
            out[-1] = (out[-1][0], i)
        else:
            out.append((i, i))
    return out
