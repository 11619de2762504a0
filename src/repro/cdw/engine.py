"""The CDW SQL executor.

Executes the shared AST (parsed in the ``cdw`` dialect) against the
catalog.  Two properties matter for the paper:

1. **Set-oriented DML.**  Every DML statement is all-or-nothing: effects
   are computed against a working copy and committed only if *every* row
   succeeds.  A single bad tuple raises
   :class:`~repro.errors.BulkExecutionError` whose message deliberately
   does not identify the row — "the error will be observed at the level of
   the chunk containing the faulty tuple rather than at the tuple level"
   (Section 7).  This is what Hyper-Q's adaptive error handling works
   around.
2. **Optional native uniqueness.**  ``native_unique=False`` models CDWs
   that do not enforce declared unique constraints; Hyper-Q then emulates
   the check (Section 7, citing [26]).

MERGE applies source rows *in order* against the working target (later
source rows see earlier ones' effects).  That is intentionally the legacy
tuple-at-a-time upsert semantics the virtualization layer must preserve,
not strict SQL:2003 MERGE.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from decimal import Decimal

from repro import values
from repro.cdw import stagefile
from repro.cdw.cloudstore import CloudStore
from repro.cdw.expressions import (VECTOR_ERRORS, _Evaluator, ColumnBatch,
                                   GatherBatch, RowContext, compile_vector,
                                   evaluate, first_failing_row, is_true,
                                   prepare_layout, vec_values)
from repro.cdw.locks import LockManager
from repro.cdw.table import Catalog, CdwTable, ColumnSpec
from repro.cdw.types import cdw_type_from_node
from repro.errors import (
    BulkExecutionError, CatalogError, CdwError, ExpressionError,
    SqlTranslationError,
)
from repro.plancache import PlanCache
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_statement

__all__ = ["CdwEngine", "CdwResult"]

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass
class CdwResult:
    """Outcome of one statement."""

    kind: str                       # 'rows' | 'count' | 'ddl'
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0

    @property
    def activity_count(self) -> int:
        if self.kind == "rows":
            return len(self.rows)
        return self.rows_inserted + self.rows_updated + self.rows_deleted


def _sort_key(value):
    """Total order over heterogeneous SQL values (NULLs first)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float, Decimal)):
        return (2, float(value))
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, values.Timestamp):
        return (4, value.isoformat())
    if isinstance(value, values.Date):
        return (4, value.isoformat() + " 00:00:00")
    return (5, repr(value))


class CdwEngine:
    """An in-process cloud data warehouse."""

    def __init__(self, store: CloudStore | None = None,
                 native_unique: bool = True,
                 parse_cache_size: int = 256,
                 columnar: bool = True):
        self.catalog = Catalog()
        self.store = store
        self.native_unique = native_unique
        #: catalog + per-table reader/writer locks.  Statements lock only
        #: the tables they touch (write beats read), so read-only SQL and
        #: exports proceed concurrently with a bulk load's COPY INTO, and
        #: concurrent jobs' COPY and DML run side by side.
        self.locks = LockManager()
        self._counts_lock = threading.Lock()
        #: storage mode of the tables this engine creates: typed column
        #: vectors executed over column batches, or (False) row-of-tuples
        #: storage under the per-row interpreter everywhere — the
        #: behavioural oracle for differential tests.
        self.columnar = columnar
        #: parsed-statement cache for SQL text handed to execute():
        #: repeated statement texts (staging DDL probes, prepared error
        #: INSERT shapes, bench workloads) skip the parser entirely.
        #: Safe because executors treat parsed trees as read-only.
        self.plan_cache = PlanCache(capacity=parse_cache_size)
        #: statement log (statement type -> count), for tests/metrics.
        self.statement_counts: dict[str, int] = {}
        #: optional observability hook ``(statement_name, seconds)``,
        #: called after every execution (including failed ones); the
        #: Hyper-Q node points this at its statement-latency histogram.
        self.on_statement: "callable | None" = None
        #: optional observability hook ``(rows_skipped,)`` fired whenever
        #: a zone-map slice avoids scanning that many rows.
        self.on_scan_pruned: "callable | None" = None
        #: executions of a statement kind the vector path serves
        #: (SELECT incl. sub-selects, INSERT..SELECT, plain DELETE,
        #: COPY) that ran on the row interpreter instead, by reason —
        #: there is one: ``out_of_scope``, a shape or expression the
        #: vector compiler does not cover (or row-mode storage).
        #: ``INSERT .. VALUES`` was never vectorizable and is not counted.
        self.vector_fallbacks = {"out_of_scope": 0}
        #: optional observability hook ``(reason,)``, one call per
        #: :attr:`vector_fallbacks` increment.
        self.on_vector_fallback: "callable | None" = None

    # -- locking -------------------------------------------------------------

    def _lock_sets(self, statement: n.Statement
                   ) -> "tuple[set[str], set[str]] | None":
        """(read, write) table-name sets for a statement.

        Returns None for DDL and unknown shapes — those fall back to an
        exclusive catalog hold.  Read names come from every TableRef in
        the tree (joins, derived tables, scalar subqueries included), so
        a held statement never touches an unlocked table.

        The answer is a function of tree structure, which executors
        treat as read-only, so it is memoized on the statement node:
        it lives exactly as long as whoever retains the statement (a
        plan-cache entry, a ``PreparedDml`` template) and dies with an
        ad-hoc AST.
        """
        try:
            return statement.__dict__["_lock_sets"]
        except KeyError:
            sets = statement.__dict__["_lock_sets"] = \
                self._compute_lock_sets(statement)
            return sets

    @staticmethod
    def _compute_lock_sets(statement: n.Statement
                           ) -> "tuple[frozenset, frozenset] | None":
        if isinstance(statement, (n.Insert, n.Update, n.Delete)):
            writes = {statement.table.name}
        elif isinstance(statement, n.Merge):
            writes = {statement.target.name}
        elif isinstance(statement, n.CopyInto):
            writes = {statement.table.name}
        elif isinstance(statement, n.Upsert):
            writes = {statement.update.table.name,
                      statement.insert.table.name}
        elif isinstance(statement, (n.Select, n.SetOp)):
            writes = set()
        else:
            return None
        reads = {node.name for node in n.walk(statement)
                 if isinstance(node, n.TableRef)}
        return frozenset(reads), frozenset(writes)

    # -- public API ----------------------------------------------------------

    def execute(self, statement: "str | n.Statement") -> CdwResult:
        """Execute one statement (SQL text is parsed in the cdw dialect)."""
        if isinstance(statement, str):
            statement = self.plan_cache.get_or_compile(
                statement,
                lambda: parse_statement(statement, dialect="cdw"))
        name = type(statement).__name__
        with self._counts_lock:
            self.statement_counts[name] = \
                self.statement_counts.get(name, 0) + 1
        handler = getattr(self, f"_exec_{name}", None)
        if handler is None:
            raise CdwError(f"cannot execute {name} statement")
        sets = self._lock_sets(statement)
        guard = self.locks.ddl() if sets is None \
            else self.locks.statement(*sets)
        with guard:
            hook = self.on_statement
            if hook is None:
                return handler(statement)
            started = time.perf_counter()
            try:
                return handler(statement)
            finally:
                hook(name, time.perf_counter() - started)

    def query(self, sql: "str | n.Select") -> list[tuple]:
        """Convenience: run a SELECT and return its rows."""
        result = self.execute(sql)
        if result.kind != "rows":
            raise CdwError("query() expects a SELECT")
        return result.rows

    def table(self, name: str) -> CdwTable:
        """Look up a table object in the catalog."""
        return self.catalog.get(name)

    def storage_snapshot(self) -> dict:
        """Per-table physical storage: ``{name: {rows, bytes, mode}}``."""
        return {table.name: table.storage_info()
                for table in self.catalog.tables.values()}

    # -- DDL ---------------------------------------------------------------------

    def _exec_CreateTable(self, stmt: n.CreateTable) -> CdwResult:
        columns = [
            ColumnSpec(c.name, cdw_type_from_node(c.type), c.nullable)
            for c in stmt.columns
        ]
        table = CdwTable(stmt.table.name, columns,
                         [tuple(k) for k in stmt.unique],
                         columnar=self.columnar)
        self.catalog.create(table, if_not_exists=stmt.if_not_exists)
        return CdwResult(kind="ddl")

    def _exec_CreateTableAs(self, stmt: n.CreateTableAs) -> CdwResult:
        rows, columns = self._run_query(stmt.query, outer=None)
        specs = [
            ColumnSpec(name, _infer_cdw_type([row[i] for row in rows]))
            for i, name in enumerate(columns)
        ]
        table = CdwTable(stmt.table.name, specs, columnar=self.columnar)
        created = self.catalog.create(
            table, if_not_exists=stmt.if_not_exists)
        if created:
            table.rows = [table.coerce_row(row) for row in rows]
        return CdwResult(kind="count",
                         rows_inserted=len(rows) if created else 0)

    def _exec_AlterTable(self, stmt: n.AlterTable) -> CdwResult:
        """Schema evolution (``_lock_sets`` returns None for DDL, so
        this always runs under the exclusive catalog hold)."""
        table = self.catalog.get(stmt.table.name)
        if stmt.action == "add":
            spec = ColumnSpec(stmt.column.name,
                              cdw_type_from_node(stmt.column.type),
                              stmt.column.nullable)
            table.add_column(spec, if_not_exists=stmt.if_not_exists)
        elif stmt.action == "rename":
            table.rename_column(stmt.old_name, stmt.new_name)
        else:
            raise CdwError(
                f"unknown ALTER TABLE action {stmt.action!r}")
        return CdwResult(kind="ddl")

    def _exec_DropTable(self, stmt: n.DropTable) -> CdwResult:
        self.catalog.drop(stmt.table.name, if_exists=stmt.if_exists)
        return CdwResult(kind="ddl")

    # -- COPY INTO ------------------------------------------------------------------

    def _exec_CopyInto(self, stmt: n.CopyInto) -> CdwResult:
        if self.store is None:
            raise CdwError("engine has no cloud store attached")
        table = self.catalog.get(stmt.table.name)
        container, prefix = CloudStore.parse_url(stmt.source_url)
        datas: list[bytes] = []
        for blob in self.store.list_blobs(container, prefix):
            data = self.store.get_blob(container, blob)
            if blob.endswith(".gz"):
                data = stagefile.decompress(data)
            datas.append(data)
        try:
            return self._vector_or_rows(
                lambda: self._try_columnar_copy(table, datas,
                                                stmt.delimiter),
                lambda: self._row_copy(table, datas, stmt.delimiter))
        except ExpressionError as exc:
            raise BulkExecutionError(
                f"COPY INTO {table.name} aborted: {exc}",
                field=exc.field) from exc

    def _row_copy(self, table: CdwTable, datas: list[bytes],
                  delimiter: str) -> CdwResult:
        """COPY INTO row by row."""
        new_rows = [table.coerce_row(raw) for data in datas
                    for raw in stagefile.decode_csv_rows(data, delimiter)]
        if self.native_unique and table.unique_keys:
            table.check_unique_append(new_rows)
        table.append_rows(new_rows)
        return CdwResult(kind="count", rows_inserted=len(new_rows))

    def _try_columnar_copy(self, table: CdwTable, datas: list[bytes],
                           delimiter: str) -> "CdwResult | None":
        """Staged bytes straight into column vectors.

        CSV fields decode columnwise (:func:`stagefile.decode_csv_columns`),
        coerce in bulk per column (:meth:`_coerce_columns`, which raises
        the row path's error for the first bad row), and append without
        intermediate row tuples.  Returns None for row-mode tables and
        quoted/ragged data the columnwise decoder leaves to the row path.
        """
        if not table.columnar:
            return None
        cols: "list[list] | None" = None
        for data in datas:
            decoded = stagefile.decode_csv_columns(data, delimiter,
                                                   table.arity)
            if decoded is None:
                return None
            if cols is None:
                cols = decoded
            else:
                for bucket, col in zip(cols, decoded):
                    bucket.extend(col)
        if cols is None:
            cols = [[] for _ in range(table.arity)]
        coerced = self._coerce_columns(table, cols)
        if self.native_unique and table.unique_keys:
            table.check_unique_append_columns(coerced)
        table.append_columns(coerced)
        return CdwResult(kind="count",
                         rows_inserted=len(cols[0]) if cols else 0)

    # -- SELECT ------------------------------------------------------------------------

    def _exec_Select(self, stmt: n.Select) -> CdwResult:
        rows, columns = self._run_select(stmt, outer=None)
        return CdwResult(kind="rows", columns=columns, rows=rows)

    def _exec_SetOp(self, stmt: n.SetOp) -> CdwResult:
        rows, columns = self._run_query(stmt, outer=None)
        return CdwResult(kind="rows", columns=columns, rows=rows)

    def _run_query(self, query: "n.Select | n.SetOp",
                   outer: RowContext | None) -> tuple[list[tuple],
                                                      list[str]]:
        """Run a SELECT or a set-operation tree."""
        if isinstance(query, n.Select):
            return self._run_select(query, outer)
        if not isinstance(query, n.SetOp):
            raise CdwError(
                f"cannot run {type(query).__name__} as a query")
        left_rows, left_columns = self._run_query(query.left, outer)
        right_rows, right_columns = self._run_query(query.right, outer)
        if len(left_columns) != len(right_columns):
            raise CdwError(
                f"{query.op} operands have {len(left_columns)} vs "
                f"{len(right_columns)} columns")

        def keys(rows):
            return [tuple(_sort_key(v) for v in row) for row in rows]

        if query.op == "UNION":
            if query.all:
                return left_rows + right_rows, left_columns
            seen = set()
            out = []
            for row, key in zip(left_rows + right_rows,
                                keys(left_rows + right_rows)):
                if key not in seen:
                    seen.add(key)
                    out.append(row)
            return out, left_columns
        if query.op == "EXCEPT":
            right_keys = set(keys(right_rows))
            seen = set()
            out = []
            for row, key in zip(left_rows, keys(left_rows)):
                if key not in right_keys and key not in seen:
                    seen.add(key)
                    out.append(row)
            return out, left_columns
        # INTERSECT
        right_keys = set(keys(right_rows))
        seen = set()
        out = []
        for row, key in zip(left_rows, keys(left_rows)):
            if key in right_keys and key not in seen:
                seen.add(key)
                out.append(row)
        return out, left_columns

    def _subquery_runner(self, select: "n.Select | n.SetOp",
                         ctx: RowContext) -> list[tuple]:
        rows, _ = self._run_query(select, outer=ctx)
        return rows

    # FROM resolution -------------------------------------------------------

    def _source_contexts(self, source: "n.TableRef | n.Join | None",
                         outer: RowContext | None) -> list[RowContext]:
        """Materialize the FROM clause into row contexts."""
        if source is None:
            return [RowContext(parent=outer)]
        bindings = self._bind_rows(source)
        contexts = []
        for combo in bindings:
            ctx = RowContext(parent=outer)
            for binding, columns, row in combo:
                ctx.bind(binding, columns, row)
            contexts.append(ctx)
        return contexts

    def _table_rows(self, ref: "n.TableRef | n.DerivedTable"
                    ) -> tuple[str, list[str], list[tuple]]:
        if isinstance(ref, n.DerivedTable):
            rows, columns = self._run_query(ref.query, outer=None)
            return (ref.binding, columns, rows)
        table = self.catalog.get(ref.name)
        return (ref.binding, table.column_names, table.materialized_rows())

    def _bind_rows(self, source: "n.TableRef | n.DerivedTable | n.Join"
                   ) -> list[list[tuple[str, list[str], tuple]]]:
        if isinstance(source, (n.TableRef, n.DerivedTable)):
            binding, columns, rows = self._table_rows(source)
            return [[(binding, columns, row)] for row in rows]
        if not isinstance(source, n.Join):
            raise CdwError(f"unsupported FROM node {type(source).__name__}")
        left_combos = self._bind_rows(source.left)
        right_binding, right_columns, right_rows = \
            self._table_rows(source.right)
        joined: list[list[tuple[str, list[str], tuple]]] = []
        null_row = tuple([None] * len(right_columns))
        for left in left_combos:
            matched = False
            for right_row in right_rows:
                combo = left + [(right_binding, right_columns, right_row)]
                if source.kind == "CROSS":
                    joined.append(combo)
                    continue
                ctx = RowContext()
                for binding, columns, row in combo:
                    ctx.bind(binding, columns, row)
                if is_true(evaluate(source.on, ctx, self._subquery_runner)):
                    joined.append(combo)
                    matched = True
            if source.kind == "LEFT" and not matched:
                joined.append(
                    left + [(right_binding, right_columns, null_row)])
            if source.kind in ("RIGHT", "FULL"):
                raise CdwError(
                    f"{source.kind} JOIN is not supported by this engine")
        return joined

    # projection ------------------------------------------------------------

    def _expand_items(self, stmt: n.Select,
                      contexts: list[RowContext]) -> list[n.SelectItem]:
        """Expand ``*`` into explicit column references."""
        items: list[n.SelectItem] = []
        for item in stmt.items:
            if isinstance(item.expr, n.Star):
                if stmt.from_ is None:
                    raise CdwError("SELECT * needs a FROM clause")
                for binding, columns in self._from_shape(stmt.from_):
                    for column in columns:
                        items.append(n.SelectItem(
                            n.ColumnRef(column, table=binding), column))
            else:
                items.append(item)
        return items

    def _from_shape(self, source: "n.TableRef | n.DerivedTable | n.Join"
                    ) -> list[tuple[str, list[str]]]:
        if isinstance(source, n.TableRef):
            table = self.catalog.get(source.name)
            return [(source.binding, table.column_names)]
        if isinstance(source, n.DerivedTable):
            # Column names require running the subquery; only the
            # SELECT-* expansion path pays this.
            _, columns = self._run_query(source.query, outer=None)
            return [(source.binding, columns)]
        return self._from_shape(source.left) + self._from_shape(source.right)

    @staticmethod
    def _item_name(item: n.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, n.ColumnRef):
            return item.expr.name
        return f"col{index + 1}"

    @classmethod
    def _output_aliases(cls, items: list[n.SelectItem]) -> dict[str, int]:
        """``{UPPER name: output position}`` for ORDER BY: output columns
        are addressable by alias or by projected name (e.g. ``GROUP BY
        REGION ... ORDER BY REGION``); an explicit alias wins."""
        aliases: dict[str, int] = {}
        for i, item in enumerate(items):
            aliases.setdefault(cls._item_name(item, i).upper(), i)
        for i, item in enumerate(items):
            if item.alias:
                aliases[item.alias.upper()] = i
        return aliases

    @staticmethod
    def _contains_aggregate(expr: n.Expr) -> bool:
        """Whether ``expr`` calls an aggregate; a fact of the (read-only)
        tree structure, memoized on the node like its compiled forms."""
        d = expr.__dict__
        found = d.get("_has_aggregate")
        if found is None:
            found = d["_has_aggregate"] = any(
                isinstance(node, n.FuncCall) and node.name in _AGGREGATES
                for node in n.walk(expr))
        return found

    @staticmethod
    def _where_conjuncts(where: n.Expr) -> list[n.Expr]:
        """Flatten top-level AND structure into its conjuncts."""
        conjuncts: list[n.Expr] = []
        stack = [where]
        while stack:
            node = stack.pop()
            if isinstance(node, n.BinaryOp) and node.op == "AND":
                stack.extend([node.left, node.right])
            else:
                conjuncts.append(node)
        return conjuncts

    @staticmethod
    def _zone_map_conjunct(conjuncts: list[n.Expr], table: CdwTable,
                           binding: str) -> "int | None":
        """Index of a ``sorted_by BETWEEN literal AND literal`` conjunct
        usable to slice ``table``'s zone map, or None."""
        if table.sorted_by is None:
            return None
        for i, conjunct in enumerate(conjuncts):
            if (isinstance(conjunct, n.Between) and not conjunct.negated
                    and isinstance(conjunct.operand, n.ColumnRef)
                    and conjunct.operand.name.upper()
                    == table.sorted_by.upper()
                    and (conjunct.operand.table is None
                         or conjunct.operand.table.upper()
                         == binding.upper())
                    and isinstance(conjunct.low, n.Literal)
                    and isinstance(conjunct.high, n.Literal)):
                return i
        return None

    def _note_pruned(self, table: CdwTable, lo: int, hi: int) -> None:
        skipped = len(table.rows) - max(hi - lo, 0)
        if skipped > 0 and self.on_scan_pruned is not None:
            self.on_scan_pruned(skipped)

    def _try_sorted_slice(self, stmt: n.Select, outer: RowContext | None
                          ) -> "tuple[list[RowContext], n.Expr | None] | None":
        """BETWEEN-range pushdown over a table sorted by one column.

        When the FROM clause is a single table whose ``sorted_by`` column
        appears in a top-level ``BETWEEN literal AND literal`` conjunct,
        binary-search the row range instead of scanning.  This is what
        keeps Hyper-Q's recursive chunk splitting (Section 7) cheap: each
        sub-chunk attempt touches only its own row range.
        """
        if not isinstance(stmt.from_, n.TableRef) or stmt.where is None:
            return None
        table = self.catalog.get(stmt.from_.name)
        binding = stmt.from_.binding
        conjuncts = self._where_conjuncts(stmt.where)
        chosen = self._zone_map_conjunct(conjuncts, table, binding)
        if chosen is None:
            return None
        between = conjuncts[chosen]
        lo, hi = table.seq_slice(between.low.value, between.high.value)
        self._note_pruned(table, lo, hi)
        binding_upper = binding.upper()
        layout = prepare_layout(table.column_names)
        contexts = []
        for row in table.rows[lo:hi]:
            ctx = RowContext(parent=outer)
            ctx.bind_prepared(binding_upper, layout, row)
            contexts.append(ctx)
        residual: n.Expr | None = None
        for i, conjunct in enumerate(conjuncts):
            if i == chosen:
                continue
            residual = conjunct if residual is None \
                else n.BinaryOp("AND", residual, conjunct)
        return contexts, residual

    def _pruned_source_contexts(self, source: "n.TableRef | n.Join | None",
                                where: "n.Expr | None"
                                ) -> list[RowContext]:
        """Source contexts for UPDATE/DELETE, zone-map sliced if possible.

        When the FROM/USING clause is a single zone-mapped table and the
        statement WHERE carries a top-level BETWEEN conjunct on its sort
        column, bind only the sliced rows.  The full WHERE is still
        evaluated per (target row × source row) pair afterwards — the
        BETWEEN re-check over the slice is redundant but cheap, and
        keeping it avoids rewriting the predicate.  This is the fix for
        the Fig 11 cascade: each re-executed ``__SEQ`` range now binds
        O(rows in range) source contexts instead of O(staging_rows).
        """
        if isinstance(source, n.TableRef) and where is not None:
            table = self.catalog.get(source.name)
            conjuncts = self._where_conjuncts(where)
            chosen = self._zone_map_conjunct(
                conjuncts, table, source.binding)
            if chosen is not None:
                between = conjuncts[chosen]
                lo, hi = table.seq_slice(
                    between.low.value, between.high.value)
                self._note_pruned(table, lo, hi)
                binding_upper = source.binding.upper()
                layout = prepare_layout(table.column_names)
                contexts = []
                for row in table.rows[lo:hi]:
                    ctx = RowContext(parent=None)
                    ctx.bind_prepared(binding_upper, layout, row)
                    contexts.append(ctx)
                return contexts
        return self._source_contexts(source, None)

    def _run_select(self, stmt: n.Select,
                    outer: RowContext | None) -> tuple[list[tuple],
                                                       list[str]]:
        return self._vector_or_rows(
            lambda: self._try_vector_select(stmt),
            lambda: self._select_rows(stmt, outer))

    def _select_rows(self, stmt: n.Select,
                     outer: RowContext | None) -> tuple[list[tuple],
                                                        list[str]]:
        """SELECT on the row interpreter."""
        sliced = self._try_sorted_slice(stmt, outer)
        if sliced is not None:
            contexts, where = sliced
        else:
            contexts = self._source_contexts(stmt.from_, outer)
            where = stmt.where
        # One evaluator, rebound per row: on wide scans the per-row
        # _Evaluator construction is pure overhead (it carries no
        # per-row state beyond the context).
        ev = _Evaluator(None, self._subquery_runner)
        if where is not None:
            kept = []
            for ctx in contexts:
                ev.ctx = ctx
                if ev.eval(where) is True:
                    kept.append(ctx)
            contexts = kept
        items = self._expand_items(stmt, contexts)
        columns = [self._item_name(item, i) for i, item in enumerate(items)]

        grouped = bool(stmt.group_by) or any(
            self._contains_aggregate(item.expr) for item in items)
        if grouped:
            rows = self._run_grouped(stmt, items, contexts)
        else:
            rows = self._project(items, contexts, ev)
            rows = self._order_rows(stmt, rows, contexts, items)

        return self._finish_select(stmt, rows), columns

    @staticmethod
    def _finish_select(stmt: n.Select, rows: list[tuple]) -> list[tuple]:
        """Shared DISTINCT + LIMIT tail of the row and vector paths."""
        if stmt.distinct:
            seen = set()
            unique_rows = []
            for row in rows:
                key = tuple(_sort_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
            rows = unique_rows
        if stmt.limit is not None:
            rows = rows[:stmt.limit]
        return rows

    # -- vectorized execution ------------------------------------------------
    #
    # Columnar tables execute single-table SELECT / INSERT..SELECT /
    # plain DELETE / COPY over whole column slices: predicates compile
    # once per (layout, binding) into vector closures
    # (repro.cdw.expressions), the WHERE produces a selection, and
    # projection / aggregation read only the touched columns.  Every
    # helper returns None when a shape or expression is outside the
    # vector compiler's scope, and the caller runs the statement on the
    # row interpreter instead — the one fallback there is.
    #
    # Errors are raised here, once, and are the interpreter's own: the
    # phases run in the row path's order (residual WHERE over the whole
    # range, then the select list, then coercion / NOT NULL), and when a
    # phase raises, :meth:`_vector_eval` bisects to the first raising
    # row and evaluates that single row on the interpreter, whose error
    # propagates.  The closures raise only where the interpreter does,
    # so it always rejects the located row; if it ever accepts one, the
    # two evaluators disagree and the statement fails with a
    # :class:`CdwError` naming the phase instead of hiding the bug
    # behind a slow re-run.

    def _vector_or_rows(self, vector, rows):
        """Run a statement's vector path, ``vector()``; when it declines
        (None), count the fallback and run ``rows()``, the row
        interpreter's version."""
        result = vector()
        if result is not None:
            return result
        with self._counts_lock:
            self.vector_fallbacks["out_of_scope"] += 1
        if self.on_vector_fallback is not None:
            self.on_vector_fallback("out_of_scope")
        return rows()

    def _vector_eval(self, exprs: list[n.Expr], data, layout,
                     binding_upper) -> "list[list] | None":
        """One phase of a vector statement: each expression's values
        over ``data``, one list per expression — or None when one is
        outside the vector compiler's scope.

        The row path evaluates a phase row by row, so its error is that
        of the first row any expression raises on.  When a closure
        raises, that row is found by bisecting sub-batches that share
        ``data``'s materialized columns, and the interpreter evaluates
        it: its error is the statement's.
        """
        fns = []
        for expr in exprs:
            fn = compile_vector(expr, layout, binding_upper)
            if fn is None:
                return None
            fns.append(fn)
        nrows = data.length
        if not nrows:
            return [[] for _ in fns]    # like the row path: nothing runs
        out = []
        try:
            for fn in fns:
                out.append(vec_values(fn(data), nrows))
            return out
        except VECTOR_ERRORS as exc:
            eager = repr(exc)           # (not exc: its traceback pins data)
            suspects = fns[len(out):]   # the others passed on every row

        def attempt(lo: int, hi: int) -> None:
            sub = GatherBatch(data, range(lo, hi))
            for fn in suspects:
                fn(sub)

        ctx = RowContext()
        ctx.bind_prepared(binding_upper, layout,
                          data.row(first_failing_row(nrows, attempt)))
        ev = _Evaluator(ctx, self._subquery_runner)
        for expr in exprs:
            ev.eval(expr)
        raise CdwError(f"vector evaluation raised {eager} on a row the "
                       f"interpreter accepts")

    def _vector_scan(self, stmt: n.Select):
        """FROM-one-columnar-table scan for the vector paths.

        Zone-map-slices the batch exactly like :meth:`_try_sorted_slice`
        (same pruning telemetry), applies the residual WHERE as a
        vectorized mask (a :meth:`_vector_eval` phase: its errors are
        the row path's), and returns ``(batch, layout, binding_upper)``
        for the surviving rows — or None when out of scope.
        """
        if not isinstance(stmt.from_, n.TableRef):
            return None
        table = self.catalog.get(stmt.from_.name)
        if not table.columnar:
            return None
        binding = stmt.from_.binding
        binding_upper = binding.upper()
        layout = prepare_layout(table.column_names)
        lo, hi = 0, table.row_count
        residual = stmt.where
        if stmt.where is not None and table.sorted_by is not None:
            conjuncts = self._where_conjuncts(stmt.where)
            chosen = self._zone_map_conjunct(conjuncts, table, binding)
            if chosen is not None:
                between = conjuncts[chosen]
                lo, hi = table.seq_slice(between.low.value,
                                         between.high.value)
                self._note_pruned(table, lo, hi)
                residual = None
                for i, conjunct in enumerate(conjuncts):
                    if i == chosen:
                        continue
                    residual = conjunct if residual is None \
                        else n.BinaryOp("AND", residual, conjunct)
        batch = ColumnBatch(table, lo, max(hi, lo))
        if residual is None:
            return batch, layout, binding_upper
        masks = self._vector_eval([residual], batch, layout,
                                  binding_upper)
        if masks is None:
            return None
        sel = [i for i, v in enumerate(masks[0]) if v is True]
        return GatherBatch(batch, sel), layout, binding_upper

    def _try_vector_select(self, stmt: n.Select
                           ) -> "tuple[list[tuple], list[str]] | None":
        """Columnar SELECT: WHERE, projection, and aggregation over
        column batches instead of per-row contexts.  Returns the usual
        ``(rows, columns)`` pair or None when out of scope; raises the
        row path's error."""
        scan = self._vector_scan(stmt)
        if scan is None:
            return None
        data, layout, binding_upper = scan
        items = self._expand_items(stmt, [])
        columns = [self._item_name(item, i)
                   for i, item in enumerate(items)]
        grouped = bool(stmt.group_by) or any(
            self._contains_aggregate(item.expr) for item in items)
        if grouped:
            rows = self._vector_grouped(stmt, items, data, layout,
                                        binding_upper)
        else:
            rows = self._vector_project(stmt, items, data, layout,
                                        binding_upper)
        if rows is None:
            return None
        return self._finish_select(stmt, rows), columns

    def _vector_project(self, stmt: n.Select, items: list[n.SelectItem],
                        data, layout, binding_upper
                        ) -> "list[tuple] | None":
        """Evaluate the select list columnwise and zip into rows."""
        out_cols = self._vector_eval([item.expr for item in items], data,
                                     layout, binding_upper)
        if out_cols is None:
            return None
        rows = list(zip(*out_cols)) if out_cols else []
        return self._vector_order(stmt, rows, items, data, layout,
                                  binding_upper)

    def _vector_order(self, stmt: n.Select, rows: list[tuple],
                      items: list[n.SelectItem], data, layout,
                      binding_upper) -> "list[tuple] | None":
        """ORDER BY over vector-projected rows (mirrors _order_rows:
        positions and aliases address the output row, anything else is
        an expression over the source row)."""
        if not stmt.order_by:
            return rows
        aliases = self._output_aliases(items)
        # Per ORDER BY entry: an output position, or None for a source
        # expression (evaluated together as one phase, like the row
        # path's sort-key pass).
        positions: "list[int | None]" = []
        for expr, _ in stmt.order_by:
            if isinstance(expr, n.Literal) and isinstance(expr.value, int):
                positions.append(expr.value - 1)
            elif isinstance(expr, n.ColumnRef) and expr.table is None \
                    and expr.name.upper() in aliases:
                positions.append(aliases[expr.name.upper()])
            else:
                positions.append(None)
        computed = self._vector_eval(
            [expr for (expr, _), pos in zip(stmt.order_by, positions)
             if pos is None], data, layout, binding_upper)
        if computed is None:
            return None
        computed_cols = iter(computed)
        key_cols = []
        for (_, ascending), pos in zip(stmt.order_by, positions):
            vals = next(computed_cols) if pos is None \
                else [row[pos] for row in rows]
            key_cols.append((vals, ascending))

        def order_key(i: int):
            key = []
            for vals, ascending in key_cols:
                rank = _sort_key(vals[i])
                key.append(rank if ascending
                           else (-rank[0], _negate(rank[1])))
            return tuple(key)

        order = sorted(range(len(rows)), key=order_key)
        return [rows[i] for i in order]

    def _vector_grouped(self, stmt: n.Select, items: list[n.SelectItem],
                        data, layout, binding_upper
                        ) -> "list[tuple] | None":
        """GROUP BY / aggregation over a batch (mirrors _run_grouped).

        Supports direct aggregate calls and plain per-group expressions;
        HAVING and aggregates nested inside larger expressions go to the
        row path.
        """
        if stmt.having is not None:
            return None
        # Per item ``(call, expr, fn)``: an aggregate call over ``expr``
        # (None for COUNT(*)), or — call None — a plain expression.
        plans: list[tuple] = []
        for item in items:
            call, expr = None, item.expr
            if type(expr) is n.FuncCall and expr.name in _AGGREGATES:
                call = expr
                if call.name == "COUNT" and call.args \
                        and isinstance(call.args[0], n.Star):
                    plans.append((call, None, None))
                    continue
                if not call.args or any(isinstance(a, n.Star)
                                        for a in call.args):
                    return None             # row path raises for these
                expr = call.args[0]
            elif self._contains_aggregate(expr):
                return None
            fn = compile_vector(expr, layout, binding_upper)
            if fn is None:
                return None
            plans.append((call, expr, fn))
        nrows = data.length
        if stmt.group_by:
            key_cols = self._vector_eval(stmt.group_by, data, layout,
                                         binding_upper)
            if key_cols is None:
                return None
            groups: dict[tuple, list[int]] = {}
            for i in range(nrows):
                key = tuple(_sort_key(col[i]) for col in key_cols)
                groups.setdefault(key, []).append(i)
            group_list = [groups[k] for k in sorted(groups)]
        elif nrows or all(call for call, _, _ in plans):
            group_list = [list(range(nrows))]
        else:
            return None     # a plain item over no row: the row path's
        # Like the interpreter, an aggregate's argument is evaluated on
        # every row and a plain expression on each group's first row.
        firsts = GatherBatch(data, [group[0] for group in group_list
                                    if group])
        try:
            evaluated = []
            for call, _, fn in plans:
                batch = data if call else firsts
                evaluated.append(
                    vec_values(fn(batch), batch.length)
                    if fn is not None and batch.length else None)
        except VECTOR_ERRORS as exc:
            # The row path works group by group in key order and item
            # by item; the first of those to raise names the error.
            for group in group_list:
                for call, expr, _ in plans:
                    if expr is not None:
                        self._vector_eval(
                            [expr], GatherBatch(
                                data, group if call else group[:1]),
                            layout, binding_upper)
            raise CdwError(f"vector grouping raised {exc!r} on rows the "
                           f"interpreter accepts") from None
        out_rows: list[tuple] = []
        for ordinal, group in enumerate(group_list):
            row = []
            for (call, expr, _), values_ in zip(plans, evaluated):
                if call is None:
                    row.append(values_[ordinal])
                elif expr is None:          # COUNT(*)
                    row.append(len(group))
                else:
                    row.append(_fold_aggregate(
                        call, [values_[i] for i in group]))
            out_rows.append(tuple(row))
        if stmt.order_by:
            out_rows = self._order_rows(stmt, out_rows, [], items)
        return out_rows

    def _project(self, items: list[n.SelectItem],
                 contexts: list[RowContext],
                 ev: _Evaluator) -> list[tuple]:
        """Evaluate the select list against each row context."""
        exprs = [item.expr for item in items]
        rows: list[tuple] = []
        for ctx in contexts:
            ev.ctx = ctx
            rows.append(tuple(ev.eval(e) for e in exprs))
        return rows

    def _order_rows(self, stmt: n.Select, rows: list[tuple],
                    contexts: list[RowContext],
                    items: list[n.SelectItem]) -> list[tuple]:
        if not stmt.order_by:
            return rows
        aliases = self._output_aliases(items)

        def order_values(pair):
            row, ctx = pair
            key = []
            for expr, ascending in stmt.order_by:
                if isinstance(expr, n.Literal) and isinstance(expr.value,
                                                              int):
                    value = row[expr.value - 1]
                elif isinstance(expr, n.ColumnRef) and expr.table is None \
                        and expr.name.upper() in aliases:
                    value = row[aliases[expr.name.upper()]]
                elif ctx is not None:
                    value = evaluate(expr, ctx, self._subquery_runner)
                else:
                    raise CdwError(
                        "ORDER BY over aggregates must use output "
                        "positions or aliases")
                rank = _sort_key(value)
                key.append(rank if ascending
                           else (-rank[0], _negate(rank[1])))
            return tuple(key)

        paired = list(zip(rows, contexts)) if contexts and \
            len(contexts) == len(rows) else [(row, None) for row in rows]
        paired.sort(key=order_values)
        return [row for row, _ in paired]

    # grouping ----------------------------------------------------------------

    def _run_grouped(self, stmt: n.Select, items: list[n.SelectItem],
                     contexts: list[RowContext]) -> list[tuple]:
        groups: dict[tuple, list[RowContext]] = {}
        if stmt.group_by:
            ev = _Evaluator(None, self._subquery_runner)
            for ctx in contexts:
                ev.ctx = ctx
                key = tuple(_sort_key(ev.eval(g)) for g in stmt.group_by)
                groups.setdefault(key, []).append(ctx)
        else:
            groups[()] = contexts

        rows: list[tuple] = []
        for key in sorted(groups):
            group = groups[key]
            if stmt.having is not None:
                having_value = self._eval_with_aggregates(
                    stmt.having, group)
                if not is_true(having_value):
                    continue
            rows.append(tuple(
                self._eval_with_aggregates(item.expr, group)
                for item in items))
        if stmt.order_by:
            rows = self._order_rows(stmt, rows, [], items)
        return rows

    def _eval_with_aggregates(self, expr: n.Expr,
                              group: list[RowContext]):
        """Evaluate an expression over a group: aggregate sub-calls are
        computed over all group rows, the remainder over a representative
        row."""

        def rule(node: n.Node) -> n.Node:
            if isinstance(node, n.FuncCall) and node.name in _AGGREGATES:
                return n.Literal(self._aggregate(node, group))
            return node

        # transform() is bottom-up; nested aggregates are not supported by
        # SQL anyway, and the inner-most call wins here.
        folded = n.transform(expr, rule)
        representative = group[0] if group else RowContext()
        return evaluate(folded, representative, self._subquery_runner)

    def _aggregate(self, call: n.FuncCall, group: list[RowContext]):
        name = call.name
        if name == "COUNT" and call.args \
                and isinstance(call.args[0], n.Star):
            return len(group)
        if not call.args:
            raise CdwError(f"{name} needs an argument")
        ev = _Evaluator(None, self._subquery_runner)
        raw = []
        for ctx in group:
            ev.ctx = ctx
            raw.append(ev.eval(call.args[0]))
        return _fold_aggregate(call, raw)

    # -- DML --------------------------------------------------------------------------

    def _wrap_row_error(self, exc: ExpressionError,
                        what: str) -> BulkExecutionError:
        return BulkExecutionError(
            f"{what} aborted: {exc}", kind="conversion", field=exc.field)

    def _insert_rows_from_source(self, stmt: n.Insert) -> list[tuple]:
        """Source rows of an INSERT on the row interpreter."""
        if isinstance(stmt.source, n.Values):
            ctx = RowContext()
            rows = []
            for row_exprs in stmt.source.rows:
                rows.append(tuple(
                    evaluate(e, ctx, self._subquery_runner)
                    for e in row_exprs))
            return rows
        if isinstance(stmt.source, (n.Select, n.SetOp)):
            rows, _ = self._run_query(stmt.source, outer=None)
            return rows
        raise CdwError("INSERT without a source")

    def _shape_insert_row(self, table: CdwTable, columns: list[str],
                          row: tuple) -> tuple:
        if not columns:
            return row
        if len(columns) != len(row):
            raise BulkExecutionError(
                f"INSERT column list has {len(columns)} names but the "
                f"source row has {len(row)} values")
        full: list = [None] * table.arity
        for name, value in zip(columns, row):
            full[table.column_index(name)] = value
        return tuple(full)

    @staticmethod
    def _coerce_columns(table: CdwTable, cols: list[list]) -> list[list]:
        """Columnwise :meth:`CdwTable.coerce_row` over candidate column
        lists: NOT NULL checks and bulk coercion per column.

        The row path coerces row by row, so when a column raises, the
        first offending row is bisected out of slices of ``cols`` and
        :meth:`CdwTable.coerce_row` raises that row's error.
        """
        def attempt(lo: int, hi: "int | None") -> list[list]:
            out = []
            for spec, col in zip(table.columns, cols):
                if hi is not None:
                    col = col[lo:hi]
                if not spec.nullable and any(v is None for v in col):
                    raise ExpressionError(f"NULL in {spec.name}")
                out.append(spec.ctype.coerce_many(col, field=spec.name))
            return out

        try:
            return attempt(0, None)
        except VECTOR_ERRORS:
            pass
        bad = first_failing_row(len(cols[0]), attempt)
        table.coerce_row(tuple(col[bad] for col in cols))
        raise CdwError(f"bulk coercion into {table.name} rejected a row "
                       f"coerce_row accepts")

    def _try_vector_insert(self, stmt: n.Insert, table: CdwTable
                           ) -> "CdwResult | None":
        """Columnwise INSERT..SELECT: source columns are computed by the
        vector path, coerced in bulk, and appended to the target's
        column store without ever forming row tuples.  Returns None when
        out of scope; a bad row raises the row path's own error from
        here (:meth:`_vector_eval`, :meth:`_coerce_columns`)."""
        src = stmt.source
        if (not table.columnar or not isinstance(src, n.Select)
                or src.group_by or src.order_by or src.distinct
                or src.limit is not None or src.having is not None):
            return None
        if any(self._contains_aggregate(item.expr) for item in src.items):
            return None
        scan = self._vector_scan(src)
        if scan is None:
            return None
        data, layout, binding_upper = scan
        source_cols = self._vector_eval(
            [item.expr for item in self._expand_items(src, [])], data,
            layout, binding_upper)
        if source_cols is None:
            return None
        nrows = data.length
        if stmt.columns:
            if len(stmt.columns) != len(source_cols):
                return None           # row path raises the arity error
            full = [[None] * nrows for _ in range(table.arity)]
            for name, col in zip(stmt.columns, source_cols):
                full[table.column_index(name)] = col
        else:
            if len(source_cols) != table.arity:
                return None           # row path raises the arity error
            full = source_cols
        coerced = self._coerce_columns(table, full)
        if self.native_unique and table.unique_keys:
            table.check_unique_append_columns(coerced)
        table.append_columns(coerced)
        return CdwResult(kind="count", rows_inserted=nrows)

    def _row_insert(self, stmt: n.Insert, table: CdwTable) -> CdwResult:
        """INSERT on the row interpreter."""
        new_rows = [
            table.coerce_row(
                self._shape_insert_row(table, stmt.columns, row))
            for row in self._insert_rows_from_source(stmt)
        ]
        if self.native_unique and table.unique_keys:
            table.check_unique_append(new_rows)
        table.append_rows(new_rows)
        return CdwResult(kind="count", rows_inserted=len(new_rows))

    def _exec_Insert(self, stmt: n.Insert) -> CdwResult:
        table = self.catalog.get(stmt.table.name)
        try:
            if isinstance(stmt.source, n.Values):
                return self._row_insert(stmt, table)
            return self._vector_or_rows(
                lambda: self._try_vector_insert(stmt, table),
                lambda: self._row_insert(stmt, table))
        except ExpressionError as exc:
            raise self._wrap_row_error(
                exc, f"INSERT INTO {table.name}") from exc

    def _exec_Update(self, stmt: n.Update) -> CdwResult:
        table = self.catalog.get(stmt.table.name)
        binding = stmt.table.binding
        source_contexts = (
            self._pruned_source_contexts(stmt.from_, stmt.where)
            if stmt.from_ is not None else [None])
        working = list(table.rows)
        updated: dict[int, tuple] = {}
        try:
            for index, row in enumerate(working):
                # Source rows apply in order; with several matches the
                # later row's assignment wins — the tuple-at-a-time
                # semantics of the legacy system this engine must let
                # Hyper-Q preserve.
                for source_ctx in source_contexts:
                    current = updated.get(index, row)
                    ctx = RowContext(parent=source_ctx)
                    ctx.bind(binding, table.column_names, current)
                    if stmt.where is not None and not is_true(
                            evaluate(stmt.where, ctx,
                                     self._subquery_runner)):
                        continue
                    new_row = list(current)
                    for assignment in stmt.assignments:
                        col = table.column_index(assignment.column)
                        new_row[col] = evaluate(
                            assignment.value, ctx, self._subquery_runner)
                    updated[index] = table.coerce_row(tuple(new_row))
        except ExpressionError as exc:
            raise self._wrap_row_error(
                exc, f"UPDATE {table.name}") from exc
        for index, row in updated.items():
            working[index] = row
        if self.native_unique and table.unique_keys:
            table.check_unique(working)
        table.rows = working
        if updated and table.sorted_by is not None and any(
                a.column.upper() == table.sorted_by.upper()
                for a in stmt.assignments):
            table.sorted_by = None     # order no longer guaranteed
        return CdwResult(kind="count", rows_updated=len(updated))

    def _exec_Delete(self, stmt: n.Delete) -> CdwResult:
        table = self.catalog.get(stmt.table.name)
        binding = stmt.table.binding
        if stmt.using is None and stmt.where is None:
            # Unconditional DELETE is a truncate: no row is read (a
            # stream feed empties its staging table this way once per
            # micro-batch).  ``sorted_by`` stays armed, as for any
            # order-preserving DELETE.
            deleted = table.row_count
            table.truncate_rows(0)
            return CdwResult(kind="count", rows_deleted=deleted)
        # Plain DELETEs (no USING) zone-map-slice the *target* scan:
        # rows outside a top-level ``sorted_by BETWEEN`` conjunct cannot
        # match, so only the slice is evaluated and everything around it
        # is kept untouched (order preserved — the zone map stays armed).
        # This is what keeps the dq precheck's violation-routing DELETE
        # sub-linear in staging size.
        lo, hi = 0, table.row_count
        if stmt.using is None and stmt.where is not None:
            conjuncts = self._where_conjuncts(stmt.where)
            chosen = self._zone_map_conjunct(conjuncts, table, binding)
            if chosen is not None:
                between = conjuncts[chosen]
                lo, hi = table.seq_slice(
                    between.low.value, between.high.value)
                self._note_pruned(table, lo, hi)
        try:
            return self._vector_or_rows(
                lambda: self._try_vector_delete(stmt, table, lo, hi),
                lambda: self._row_delete(stmt, table, lo, hi))
        except ExpressionError as exc:
            raise self._wrap_row_error(
                exc, f"DELETE FROM {table.name}") from exc

    def _row_delete(self, stmt: n.Delete, table: CdwTable,
                    lo: int, hi: int) -> CdwResult:
        """DELETE on the row interpreter over target rows ``[lo, hi)``."""
        binding = stmt.table.binding
        source_contexts = (
            self._pruned_source_contexts(stmt.using, stmt.where)
            if stmt.using is not None else [None])
        rows = table.rows
        keep: list[tuple] = []
        deleted = 0
        ev = _Evaluator(None, self._subquery_runner)
        for row in rows[lo:hi]:
            doomed = False
            for source_ctx in source_contexts:
                ctx = RowContext(parent=source_ctx)
                ctx.bind(binding, table.column_names, row)
                ev.ctx = ctx
                if stmt.where is None or ev.eval(stmt.where) is True:
                    doomed = True
                    break
            if doomed:
                deleted += 1
            else:
                keep.append(row)
        table.rows = rows[:lo] + keep + rows[hi:]
        return CdwResult(kind="count", rows_deleted=deleted)

    def _try_vector_delete(self, stmt: n.Delete, table: CdwTable,
                           lo: int, hi: int) -> "CdwResult | None":
        """Vectorized plain DELETE: mask the (possibly zone-map-sliced)
        candidate range, drop matching rows via a columnwise take.

        Order of survivors is preserved, so ``sorted_by`` stays armed —
        exactly like the row path.  Returns None when out of scope; the
        mask is a :meth:`_vector_eval` phase, so a bad row raises the
        row path's error.
        """
        if (stmt.using is not None or stmt.where is None
                or not table.columnar):
            return None
        batch = ColumnBatch(table, lo, hi)
        masks = self._vector_eval(
            [stmt.where], batch, prepare_layout(table.column_names),
            stmt.table.binding.upper())
        if masks is None:
            return None
        keep = list(range(lo))
        keep.extend(lo + i for i, v in enumerate(masks[0]) if v is not True)
        deleted = batch.length - (len(keep) - lo)
        if deleted:
            keep.extend(range(hi, table.row_count))
            table.take_rows(keep)
        return CdwResult(kind="count", rows_deleted=deleted)

    def _exec_Upsert(self, stmt: n.Upsert) -> CdwResult:
        """Legacy atomic upsert: UPDATE, and if nothing matched, INSERT.

        Only reaches the engine from the reference legacy server (per
        bound record); Hyper-Q rewrites upserts to MERGE instead.
        """
        update_result = self._exec_Update(stmt.update)
        if update_result.rows_updated > 0:
            return update_result
        return self._exec_Insert(stmt.insert)

    # MERGE ----------------------------------------------------------------------

    def _merge_source(self, stmt: n.Merge
                      ) -> tuple[str, list[str], list[tuple]]:
        if isinstance(stmt.source, n.TableRef):
            source_table = self.catalog.get(stmt.source.name)
            binding = stmt.source_alias or stmt.source.binding
            return binding, source_table.column_names, list(
                source_table.rows)
        rows, columns = self._run_query(stmt.source, outer=None)
        binding = stmt.source_alias or "src"
        return binding, columns, rows

    @staticmethod
    def _equi_keys(on: n.Expr, target_binding: str, target_table: CdwTable,
                   source_binding: str, source_columns: list[str]
                   ) -> "list[tuple[int, int]] | None":
        """Extract ``target.col = source.col`` pairs from a conjunction.

        Returns (target column index, source column index) pairs, or None
        when the ON clause is not a pure equi-join — the caller then falls
        back to a nested loop.
        """
        pairs: list[tuple[int, int]] = []
        stack = [on]
        source_upper = [c.upper() for c in source_columns]
        while stack:
            node = stack.pop()
            if isinstance(node, n.BinaryOp) and node.op == "AND":
                stack.extend([node.left, node.right])
                continue
            if not (isinstance(node, n.BinaryOp) and node.op == "="
                    and isinstance(node.left, n.ColumnRef)
                    and isinstance(node.right, n.ColumnRef)):
                return None
            left, right = node.left, node.right
            sides = {}
            for ref in (left, right):
                if ref.table and ref.table.upper() == target_binding.upper():
                    sides["target"] = ref
                elif ref.table and ref.table.upper() == \
                        source_binding.upper():
                    sides["source"] = ref
                else:
                    return None
            if "target" not in sides or "source" not in sides:
                return None
            try:
                t_index = target_table.column_index(sides["target"].name)
            except CatalogError:
                return None
            s_name = sides["source"].name.upper()
            if s_name not in source_upper:
                return None
            pairs.append((t_index, source_upper.index(s_name)))
        return pairs or None

    def _exec_Merge(self, stmt: n.Merge) -> CdwResult:
        table = self.catalog.get(stmt.target.name)
        target_binding = stmt.target.binding
        source_binding, source_columns, source_rows = \
            self._merge_source(stmt)
        if stmt.on is None:
            raise CdwError("MERGE needs an ON clause")

        working = list(table.rows)
        inserted = updated = deleted = 0
        equi = self._equi_keys(stmt.on, target_binding, table,
                               source_binding, source_columns)
        index: dict[tuple, int] | None = None
        if equi is not None:
            index = {}
            for position, row in enumerate(working):
                key = tuple(_sort_key(row[t]) for t, _ in equi)
                index.setdefault(key, position)

        def find_match(source_row: tuple) -> int | None:
            if equi is not None and index is not None:
                key = tuple(_sort_key(source_row[s]) for _, s in equi)
                position = index.get(key)
                if position is not None and working[position] is not None:
                    return position
                return None
            for position, target_row in enumerate(working):
                if target_row is None:
                    continue
                ctx = RowContext()
                ctx.bind(target_binding, table.column_names, target_row)
                ctx.bind(source_binding, source_columns, source_row)
                if is_true(evaluate(stmt.on, ctx, self._subquery_runner)):
                    return position
            return None

        try:
            for source_row in source_rows:
                source_ctx = RowContext()
                source_ctx.bind(source_binding, source_columns, source_row)
                position = find_match(source_row)
                if position is not None:
                    matched = stmt.matched
                    if matched is None:
                        continue
                    ctx = RowContext()
                    ctx.bind(target_binding, table.column_names,
                             working[position])
                    ctx.bind(source_binding, source_columns, source_row)
                    if matched.condition is not None and not is_true(
                            evaluate(matched.condition, ctx,
                                     self._subquery_runner)):
                        continue
                    if matched.delete:
                        working[position] = None
                        deleted += 1
                        continue
                    new_row = list(working[position])
                    for assignment in matched.assignments:
                        col = table.column_index(assignment.column)
                        new_row[col] = evaluate(
                            assignment.value, ctx, self._subquery_runner)
                    working[position] = table.coerce_row(tuple(new_row))
                    if equi is not None and index is not None:
                        key = tuple(_sort_key(working[position][t])
                                    for t, _ in equi)
                        index.setdefault(key, position)
                    updated += 1
                    continue
                not_matched = stmt.not_matched
                if not_matched is None:
                    continue
                if not_matched.condition is not None and not is_true(
                        evaluate(not_matched.condition, source_ctx,
                                 self._subquery_runner)):
                    continue
                raw = tuple(
                    evaluate(value, source_ctx, self._subquery_runner)
                    for value in not_matched.values)
                shaped = self._shape_insert_row(
                    table, not_matched.columns, raw)
                new_row = table.coerce_row(shaped)
                working.append(new_row)
                if equi is not None and index is not None:
                    key = tuple(_sort_key(new_row[t]) for t, _ in equi)
                    index.setdefault(key, len(working) - 1)
                inserted += 1
        except ExpressionError as exc:
            raise self._wrap_row_error(
                exc, f"MERGE INTO {table.name}") from exc

        final = [row for row in working if row is not None]
        if self.native_unique and table.unique_keys:
            table.check_unique(final)
        table.rows = final
        if (inserted or updated) and table.sorted_by is not None:
            table.sorted_by = None     # appends/updates may break order
        return CdwResult(kind="count", rows_inserted=inserted,
                         rows_updated=updated, rows_deleted=deleted)


def _infer_cdw_type(column_values: list) -> "CdwType":
    """Narrowest CDW type carrying every value (CREATE TABLE AS)."""
    from repro.cdw.types import CdwType
    kinds = {type(v) for v in column_values if v is not None}
    if not kinds:
        return CdwType("NVARCHAR")
    if kinds <= {bool}:
        return CdwType("BOOLEAN")
    if kinds <= {bool, int}:
        return CdwType("BIGINT")
    if kinds <= {bool, int, float}:
        return CdwType("DOUBLE")
    if kinds <= {bool, int, Decimal}:
        return CdwType("DECIMAL")
    if kinds == {values.Timestamp}:
        return CdwType("TIMESTAMP")
    if all(isinstance(v, values.Date)
           and not isinstance(v, values.Timestamp)
           for v in column_values if v is not None):
        return CdwType("DATE")
    return CdwType("NVARCHAR")


def _fold_aggregate(call: n.FuncCall, arg_values: list):
    """One aggregate call over its argument's values for a group."""
    name = call.name
    non_null = [v for v in arg_values if v is not None]
    if call.distinct:
        deduped = []
        seen = set()
        for v in non_null:
            key = _sort_key(v)
            if key not in seen:
                seen.add(key)
                deduped.append(v)
        non_null = deduped
    if name == "COUNT":
        return len(non_null)
    if not non_null:
        return None
    if name == "SUM":
        return _sum(non_null)
    if name == "AVG":
        total = _sum(non_null)
        return float(total) / len(non_null)
    if name == "MIN":
        return min(non_null, key=_sort_key)
    if name == "MAX":
        return max(non_null, key=_sort_key)
    raise CdwError(f"unknown aggregate {name}")


def _sum(items: list):
    if any(isinstance(v, Decimal) for v in items):
        return sum((Decimal(str(v)) for v in items), Decimal(0))
    total = 0
    for v in items:
        total += v
    return total


def _negate(value):
    """Invert a sort-key payload for descending order."""
    if isinstance(value, (int, float)):
        return -value
    if isinstance(value, str):
        return tuple(-ord(c) for c in value)
    return value
