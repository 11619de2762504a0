"""Catalog and row storage for the CDW engine (and the legacy server).

Tables store their data in one of two layouts:

- **columnar** (the default): typed column vectors from
  :mod:`repro.cdw.columns` — flat buffers per column with a validity
  byte per value.  The ``rows`` property then returns a
  :class:`RowsView` shim that materializes tuples on demand, so every
  pre-existing tuple-level call site keeps working; the engine's
  vectorized paths read whole columns via :meth:`CdwTable.column_values`
  instead.
- **row** (``columnar=False``, reached only through
  ``CdwEngine(columnar=False)``): the original list of plain tuples, kept
  as the behavioural oracle of the differential suites.

Uniqueness enforcement is *declared* here but *checked* by the engine at
statement commit, so that violation semantics stay set-oriented.
``native_unique=False`` on the engine makes declared keys advisory —
modelling CDWs without native uniqueness support, for which Hyper-Q
"enforces uniqueness through emulation" (Section 7).
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, field, replace

from repro.cdw.columns import ColumnStore
from repro.cdw.types import CdwType
from repro.errors import BulkExecutionError, CatalogError, ExpressionError

__all__ = ["ColumnSpec", "CdwTable", "RowsView", "Catalog"]


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    ctype: CdwType
    nullable: bool = True


def _key_repr(key_value: tuple) -> str:
    """Bounded repr of a unique-key value for violation messages."""
    if len(key_value) == 1:
        body = repr(key_value[0])
    else:
        body = "(" + ", ".join(repr(v) for v in key_value) + ")"
    if len(body) > 64:
        body = body[:61] + "..."
    return body


class RowsView:
    """Sequence-of-tuples facade over a :class:`ColumnStore`.

    Supports the read-only list operations existing call sites use
    (len, indexing, slicing, iteration, equality, concatenation).
    Mutation goes through the table's own methods.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ColumnStore):
        self._store = store

    def __len__(self) -> int:
        """Number of rows behind the view."""
        return len(self._store)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self._store))
            if step == 1:
                return self._store.tuples(start, stop)
            return self._store.tuples(0, len(self._store))[item]
        return self._store.row(item)

    def __iter__(self):
        return iter(self._store.tuples(0, len(self._store)))

    def __eq__(self, other):
        if isinstance(other, RowsView):
            other = list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def __bool__(self) -> bool:
        return len(self._store) > 0

    def __repr__(self) -> str:
        return f"RowsView({list(self)!r})"


class CdwTable:
    """One table: schema, rows, and declared unique keys."""

    def __init__(self, name: str, columns: list[ColumnSpec],
                 unique_keys: list[tuple[str, ...]] | None = None,
                 columnar: bool = True):
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        self.name = name
        self.columns = list(columns)
        self._index = {c.name.upper(): i for i, c in enumerate(columns)}
        if len(self._index) != len(columns):
            raise CatalogError(f"table {name!r} has duplicate column names")
        self.unique_keys: list[tuple[int, ...]] = []
        for key in unique_keys or []:
            self.unique_keys.append(
                tuple(self.column_index(col) for col in key))
        self.columnar = columnar
        #: cached per-key sets of the current rows' unique-key values;
        #: None when stale.  Maintained by :meth:`append_rows`, dropped
        #: by any wholesale ``rows`` reassignment or :meth:`truncate_rows`.
        self._unique_index: list[set] | None = None
        self._store: ColumnStore | None = \
            ColumnStore(self.columns) if self.columnar else None
        self._rows: list[tuple] = []
        #: name of a column the rows are known to be sorted by (set by
        #: Hyper-Q's Beta after sorting the staging table); lets the
        #: engine slice BETWEEN-range scans with binary search instead of
        #: a full scan.  The setter must guarantee the order holds.
        self.sorted_by: str | None = None

    # -- row storage ---------------------------------------------------------

    @property
    def rows(self) -> "list[tuple] | RowsView":
        """The table's rows (tuples in storage order; a live view when
        the table is columnar)."""
        if self._store is not None:
            return RowsView(self._store)
        return self._rows

    @rows.setter
    def rows(self, value: list[tuple]) -> None:
        """Replace the row list wholesale; drops the unique-key index
        (UPDATE/DELETE/MERGE/rollback may have freed arbitrary keys)."""
        if self._store is not None:
            if isinstance(value, RowsView):
                value = list(value)
            self._store = ColumnStore.from_rows(self.columns, value)
        else:
            self._rows = value
        self._unique_index = None

    @property
    def row_count(self) -> int:
        return len(self._store) if self._store is not None \
            else len(self._rows)

    def materialized_rows(self) -> list[tuple]:
        """The rows as a plain list (no copy in row mode).  Callers must
        treat the result as read-only."""
        if self._store is not None:
            return self._store.tuples(0, len(self._store))
        return self._rows

    def take_rows(self, indices: list[int]) -> None:
        """Replace contents with the rows at ``indices``, in that order.

        The vectorized DELETE path uses this to drop a selection without
        materializing tuples.  Like any wholesale mutation it drops the
        unique-key index; ``sorted_by`` is the *caller's* contract (a
        subsequence of sorted rows stays sorted, so DELETE keeps it).
        """
        if self._store is not None:
            self._store = self._store.take(indices)
        else:
            rows = self._rows
            self._rows = [rows[i] for i in indices]
        self._unique_index = None

    def truncate_rows(self, length: int) -> None:
        """Drop every row past ``length`` (Beta's emulation rollback).

        Invalidates the unique-key index so the removed rows' keys
        become insertable again.  ``sorted_by`` is deliberately left
        armed: truncation removes a suffix, which cannot disturb the
        order of what remains, so zone-map slices stay valid for the
        ranges the error handler applies after a rollback.
        """
        if self._store is not None:
            self._store.truncate(length)
        else:
            del self._rows[length:]
        self._unique_index = None

    # -- schema -------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def arity(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Position of a column by (case-insensitive) name."""
        try:
            return self._index[name.upper()]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}") from None

    def column(self, name: str) -> ColumnSpec:
        """The ColumnSpec for a column name."""
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        """Whether a column of this name exists."""
        return name.upper() in self._index

    # -- schema evolution ----------------------------------------------------

    def add_column(self, spec: ColumnSpec,
                   if_not_exists: bool = False) -> bool:
        """Append a column, NULL-backfilling every existing row.

        The new column lands at the end of the schema so existing
        positional semantics (unique-key positions, error-table
        layouts) are untouched.  Returns False for an ``if_not_exists``
        no-op.  A NOT NULL column cannot be added to a non-empty table
        (there is no DEFAULT mechanism to backfill it).
        """
        if self.has_column(spec.name):
            if if_not_exists:
                return False
            raise CatalogError(
                f"table {self.name!r} already has column {spec.name!r}")
        if not spec.nullable and self.row_count:
            raise CatalogError(
                f"cannot add NOT NULL column {spec.name!r} to non-empty "
                f"table {self.name!r}")
        self.columns.append(spec)
        self._index[spec.name.upper()] = len(self.columns) - 1
        if self._store is not None:
            # ``self._store.specs`` aliases ``self.columns`` (the spec
            # is already appended above); this just adds the vector.
            self._store.add_column(spec)
        else:
            self._rows = [row + (None,) for row in self._rows]
        return True

    def rename_column(self, old: str, new: str) -> None:
        """Rename a column in place; data and positions are untouched."""
        idx = self.column_index(old)
        if self.has_column(new) and idx != self.column_index(new):
            raise CatalogError(
                f"table {self.name!r} already has column {new!r}")
        spec = self.columns[idx]
        self.columns[idx] = replace(spec, name=new)
        self._index = {c.name.upper(): i
                       for i, c in enumerate(self.columns)}
        if self.sorted_by is not None \
                and self.sorted_by.upper() == old.upper():
            self.sorted_by = new

    # -- columnar reads ------------------------------------------------------

    def column_values(self, name: str, lo: int = 0,
                      hi: "int | None" = None) -> list:
        """One column's values over row range ``[lo, hi)`` as a list.

        O(range) without materializing row tuples in columnar mode —
        the read primitive of the vectorized engine paths and of Beta's
        ``ApplyRun.apply_seq_range``.
        """
        return self.column_values_at(self.column_index(name), lo, hi)

    def column_values_at(self, idx: int, lo: int = 0,
                         hi: "int | None" = None) -> list:
        """Like :meth:`column_values` but by column position."""
        if self._store is not None:
            return self._store.column_list(idx, lo, hi)
        rows = self._rows if hi is None else self._rows[lo:hi]
        if hi is None and lo:
            rows = rows[lo:]
        return [row[idx] for row in rows]

    # -- zone map -----------------------------------------------------------

    def set_sorted(self, column: str) -> None:
        """Sort the rows by ``column`` and arm the zone map.

        After this, :meth:`seq_slice` answers range queries by binary
        search and :meth:`append_rows` keeps the order as new rows land
        (Hyper-Q's Beta arms the staging table once per apply run, and
        the adaptive error handler's range-pruned DML scans slice it).
        """
        col = self.column_index(column)
        if self._store is not None:
            self._sort_store(col)
        else:
            self._rows.sort(key=lambda r: r[col])
        self.sorted_by = column

    def _sort_store(self, col: int) -> None:
        """Stable-sort the column store by one column (argsort + take)."""
        store = self._store
        keys = store.column_list(col)
        n = len(keys)
        if all(keys[i] <= keys[i + 1] for i in range(n - 1)):
            return                      # already in order: no rebuild
        order = sorted(range(n), key=keys.__getitem__)
        self._store = store.take(order)

    def seq_slice(self, low, high) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of rows with sort-column values in
        ``[low, high]`` — a binary search over the armed zone map.

        Raises :class:`CatalogError` when no sort column is armed.
        """
        if self.sorted_by is None:
            raise CatalogError(
                f"table {self.name!r} has no sorted column")
        col = self.column_index(self.sorted_by)
        if self._store is not None:
            column = self._store.cols[col]
            lo = bisect.bisect_left(column, low)
            hi = bisect.bisect_right(column, high)
            return lo, hi
        lo = bisect.bisect_left(self._rows, low, key=lambda r: r[col])
        hi = bisect.bisect_right(self._rows, high, key=lambda r: r[col])
        return lo, hi

    def append_rows(self, new_rows: list[tuple]) -> None:
        """Append rows, preserving the zone-map order when armed.

        The common case — rows strictly after every row already present
        — is a plain extend; out-of-order arrivals
        (round-robin writers finishing early chunks late) fall back to a
        sort, which is near-linear on the mostly-sorted result.
        """
        if not new_rows:
            return
        if self._unique_index is not None:
            # An append never *removes* keys, so the index stays live:
            # fold the new rows in rather than rebuilding O(table) later.
            for key_no, key in enumerate(self.unique_keys):
                bucket = self._unique_index[key_no]
                for row in new_rows:
                    key_value = tuple(row[i] for i in key)
                    if not any(v is None for v in key_value):
                        bucket.add(key_value)
        if self.sorted_by is None:
            self._extend(new_rows)
            return
        col = self.column_index(self.sorted_by)
        last = None
        if self.row_count:
            last = self._store.cols[col][self.row_count - 1] \
                if self._store is not None else self._rows[-1][col]
        in_order = last is None or last <= new_rows[0][col]
        self._extend(new_rows)
        if not in_order or any(
                new_rows[i][col] > new_rows[i + 1][col]
                for i in range(len(new_rows) - 1)):
            if self._store is not None:
                self._sort_store(col)
            else:
                self._rows.sort(key=lambda r: r[col])

    def _extend(self, new_rows: list[tuple]) -> None:
        if self._store is not None:
            self._store.extend_rows(new_rows)
        else:
            self._rows.extend(new_rows)

    def append_columns(self, column_values: list[list]) -> None:
        """Columnwise :meth:`append_rows`: one value list per column,
        all the same length, values already coerced.

        The COPY/INSERT..SELECT hot path — rows never exist as tuples.
        """
        if not column_values or not column_values[0]:
            return
        n = len(column_values[0])
        if self._unique_index is not None:
            for key_no, key in enumerate(self.unique_keys):
                bucket = self._unique_index[key_no]
                for key_value in zip(*(column_values[i] for i in key)):
                    if not any(v is None for v in key_value):
                        bucket.add(key_value)
        sort_needed = False
        if self.sorted_by is not None:
            col = self.column_index(self.sorted_by)
            new_col = column_values[col]
            last = None
            if self.row_count:
                last = self._store.cols[col][self.row_count - 1] \
                    if self._store is not None else self._rows[-1][col]
            sort_needed = (last is not None and last > new_col[0]) or any(
                new_col[i] > new_col[i + 1] for i in range(n - 1))
        if self._store is not None:
            self._store.extend_columns(column_values)
        else:
            self._rows.extend(zip(*column_values))
        if sort_needed:
            col = self.column_index(self.sorted_by)
            if self._store is not None:
                self._sort_store(col)
            else:
                self._rows.sort(key=lambda r: r[col])

    # -- row validation -----------------------------------------------------

    def coerce_row(self, row: tuple) -> tuple:
        """Type-coerce one candidate row against the schema.

        Raises :class:`ExpressionError` on a bad value and
        :class:`BulkExecutionError` for NOT NULL violations (both are
        turned into statement-level aborts by the engine).
        """
        if len(row) != self.arity:
            raise BulkExecutionError(
                f"row has {len(row)} values, table {self.name!r} has "
                f"{self.arity} columns")
        coerced = []
        for value, spec in zip(row, self.columns):
            if value is None and not spec.nullable:
                raise BulkExecutionError(
                    f"NULL in NOT NULL column {spec.name} of {self.name}",
                    field=spec.name)
            coerced.append(spec.ctype.coerce(value, field=spec.name))
        return tuple(coerced)

    def _uniqueness_error(self, key: tuple[int, ...], key_value: tuple,
                          field_hint: str | None) -> BulkExecutionError:
        columns = ", ".join(self.columns[i].name for i in key)
        return BulkExecutionError(
            f"uniqueness violation on {self.name}({columns}): "
            f"key {_key_repr(key_value)}",
            kind="uniqueness",
            field=field_hint or self.columns[key[0]].name)

    def _key_tuples(self, key: tuple[int, ...], candidate_rows):
        """Iterate key tuples of ``candidate_rows`` — columnwise when the
        candidate is this table's own live view (no tuple building)."""
        if isinstance(candidate_rows, RowsView) \
                and candidate_rows._store is self._store \
                and self._store is not None:
            return zip(*(self._store.column_list(i) for i in key))
        return (tuple(row[i] for i in key) for row in candidate_rows)

    def check_unique(self, candidate_rows: list[tuple],
                     field_hint: str | None = None) -> None:
        """Verify ``candidate_rows`` (the table's would-be full contents)
        satisfy every declared unique key; raise a *uniqueness*
        BulkExecutionError naming the first violating key otherwise
        (without identifying the row)."""
        for key in self.unique_keys:
            seen: set[tuple] = set()
            for key_value in self._key_tuples(key, candidate_rows):
                if any(v is None for v in key_value):
                    continue
                if key_value in seen:
                    raise self._uniqueness_error(key, key_value, field_hint)
                seen.add(key_value)

    def _ensure_unique_index(self) -> list[set]:
        """Build (once) the per-key sets of current rows' key values."""
        if self._unique_index is None:
            index: list[set] = []
            for key in self.unique_keys:
                bucket: set = set()
                for key_value in self._key_tuples(key, self.rows):
                    if not any(v is None for v in key_value):
                        bucket.add(key_value)
                index.append(bucket)
            self._unique_index = index
        return self._unique_index

    def check_unique_append(self, new_rows: list[tuple],
                            field_hint: str | None = None) -> None:
        """Verify appending ``new_rows`` keeps every unique key satisfied,
        assuming the existing rows already do.

        The incremental counterpart to :meth:`check_unique`: instead of
        rescanning the whole table per statement — quadratic across the
        many small ranged statements the error handler issues — it
        checks new rows against a cached key index (built once, extended
        by :meth:`append_rows`, dropped on any other mutation).  Only valid
        when every prior insert into this table was checked, which the
        engine's ``native_unique`` mode guarantees.  Raises the same
        uniqueness :class:`BulkExecutionError` as :meth:`check_unique`.
        """
        if not self.unique_keys:
            return
        index = self._ensure_unique_index()
        for key_no, key in enumerate(self.unique_keys):
            seen, local = index[key_no], set()
            for row in new_rows:
                key_value = tuple(row[i] for i in key)
                if any(v is None for v in key_value):
                    continue
                if key_value in seen or key_value in local:
                    raise self._uniqueness_error(key, key_value, field_hint)
                local.add(key_value)

    def check_unique_append_columns(self, column_values: list[list],
                                    field_hint: str | None = None) -> None:
        """Columnwise :meth:`check_unique_append` over candidate column
        lists (same order semantics: first duplicate in row order)."""
        if not self.unique_keys:
            return
        index = self._ensure_unique_index()
        for key_no, key in enumerate(self.unique_keys):
            seen, local = index[key_no], set()
            for key_value in zip(*(column_values[i] for i in key)):
                if any(v is None for v in key_value):
                    continue
                if key_value in seen or key_value in local:
                    raise self._uniqueness_error(key, key_value, field_hint)
                local.add(key_value)

    # -- storage stats -------------------------------------------------------

    def storage_info(self) -> dict:
        """Snapshot of this table's physical footprint.

        ``bytes`` is the column-buffer footprint in columnar mode and a
        per-object estimate in row mode — comparable enough to make the
        layout win observable in ``stats()`` and the gauge.
        """
        if self._store is not None:
            nbytes = self._store.nbytes()
        else:
            nbytes = sys.getsizeof(self._rows) + sum(
                sys.getsizeof(row) + sum(
                    sys.getsizeof(v) for v in row if v is not None)
                for row in self._rows)
        return {"rows": self.row_count,
                "bytes": nbytes,
                "mode": "columnar" if self._store is not None else "rows"}


@dataclass
class Catalog:
    """The engine's table namespace."""

    tables: dict[str, CdwTable] = field(default_factory=dict)

    def create(self, table: CdwTable, if_not_exists: bool = False) -> bool:
        """Register a table; returns False if it already existed."""
        key = table.name.upper()
        if key in self.tables:
            if if_not_exists:
                return False
            raise CatalogError(f"table {table.name!r} already exists")
        self.tables[key] = table
        return True

    def drop(self, name: str, if_exists: bool = False) -> bool:
        """Remove a table; returns False for if_exists no-ops."""
        key = name.upper()
        if key not in self.tables:
            if if_exists:
                return False
            raise CatalogError(f"no such table {name!r}")
        del self.tables[key]
        return True

    def get(self, name: str) -> CdwTable:
        """Look up a table; raises CatalogError if absent."""
        try:
            return self.tables[name.upper()]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None

    def exists(self, name: str) -> bool:
        """Whether a table of this name exists."""
        return name.upper() in self.tables

    def names(self) -> list[str]:
        """Sorted names of every table."""
        return sorted(t.name for t in self.tables.values())
