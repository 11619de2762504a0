"""References the CDW engine's differential suites diff against.

The engine keeps one table storage (typed column vectors) and runs a
statement on its vector path when the shape is in scope, on the row
interpreter otherwise.  Three references check it, and all three live
in the tests:

- :func:`row_interpreter` forces an engine onto the row interpreter.
  It is the reference for *error identity*: which row a failing
  statement reports, with what message, ``kind`` and ``field``.
- ``tests/cdw/test_column_store_model.py`` drives a table and a plain
  list of tuples through the same storage operations.  It is the
  reference for *storage*, which the other two share with the engine.
- :class:`SqliteOracle` mirrors the engine's tables into stdlib
  ``sqlite3`` and runs the statement there.  It is the reference for
  *statement semantics*: which statements succeed, what they return and
  what they leave behind.  It never asks which error a failing
  statement raised.
- :func:`tuple_keyed_violation` is the unique-key check with every key
  value a tuple, one-column keys included.  It is the reference for the
  table's unique-key index (``tests/cdw/test_unique_differential.py``):
  which key an append duplicates first, and the error's text.
- :func:`nested_loop_dml` runs UPDATE, DELETE … USING and MERGE as
  nested loops over target × source rows.  It is the reference for the
  engine's keyed DML executor: which rows a statement updates, deletes
  or inserts, in what order, and whether it succeeds.

The oracle follows a ``supports / compile / execute`` seam:
:meth:`SqliteOracle.verdict` says whether a statement is compared,
excluded (:data:`EXCLUSIONS`) or out of scope (:data:`OUT_OF_SCOPE`),
:meth:`SqliteOracle.compile` renders the ``repro.sqlxc`` tree as SQLite
SQL, and :meth:`SqliteOracle.check` executes it and diffs the outcome.
"""

from __future__ import annotations

import datetime
import sqlite3
import sys
from collections import Counter
from decimal import Decimal

from repro.cdw.engine import CdwEngine, CdwResult, statement_error
from repro.cdw.expressions import RowContext, evaluate, is_true
from repro.errors import CdwError, ExpressionError
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_statement

#: semantics the sqlite oracle does not judge inside a covered family,
#: and why.  ``tests/cdw/test_sqlite_oracle.py`` pins how many seeded
#: statements each one takes, so the list cannot grow silently.
EXCLUSIONS = {
    "date_format": "text becoming a DATE (TO_DATE, CAST … AS DATE [FORMAT], "
                   "text assigned to a DATE column): the CDW's date parser "
                   "is its own specification; not compared at all",
    "decimal_scale": "DECIMAL literals, casts and columns: scale and "
                     "precision rounding; not compared at all",
    "first_error_identity": "which row, message, kind and field a failing "
                            "statement reports: only success versus error "
                            "is compared (the forced row interpreter is "
                            "the reference for the rest)",
    "order_by_ties": "the order of rows whose ORDER BY keys may tie (every "
                     "row, without an ORDER BY), and with LIMIT which of "
                     "them are kept: compared as a multiset without LIMIT, "
                     "by outcome only with it",
}

#: statement shapes outside the covered families (SELECT, INSERT …
#: SELECT, DELETE by a ``__SEQ`` range): the oracle neither runs nor
#: judges them, and re-mirrors any table they write.
OUT_OF_SCOPE = (
    "statement",        # UPDATE, MERGE, COPY, DDL, INSERT … VALUES, set ops
    "from",             # no FROM, joins, derived tables
    "subquery",
    "bare_column",      # a plain column beside an aggregate
    "expression",       # an operator, function or cast not rendered
)

#: the characters ``str.strip()`` removes: TRIM renders as SQLite's
#: ``trim(x, chars)`` over exactly these.
_WHITESPACE = "".join(chr(c) for c in range(sys.maxunicode + 1)
                      if chr(c).isspace())

_INT_RANGES = {"SMALLINT": 15, "INT": 31, "INTEGER": 31, "BIGINT": 63}
_TEXT_BASES = ("VARCHAR", "NVARCHAR")
_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")
_DATE_FUNCTIONS = ("TO_DATE", "TRY_TO_DATE", "TO_TIMESTAMP",
                   "TRY_TO_TIMESTAMP")
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def row_interpreter(engine: CdwEngine) -> CdwEngine:
    """Run every statement of ``engine`` on its row interpreter: the
    vector paths are never tried (the converse of
    ``test_vector_error_order.forbid_row_paths``).  Returns ``engine``."""
    engine._vector_or_rows = lambda vector, rows: rows()
    return engine


def tuple_keyed_violation(name: str, columns: "list[str]",
                          unique_keys: "list[tuple[int, ...]]",
                          existing: "list[tuple]",
                          new_rows: "list[tuple]") -> "str | None":
    """The text of the uniqueness error appending ``new_rows`` to a
    table ``name`` holding ``existing`` (whose keys are unique) raises,
    or None.  Keys are checked in declaration order; within a key the
    first new row whose tuple repeats an existing or an earlier new
    row's is the one named, and a key tuple holding a NULL never
    participates."""
    for key in unique_keys:
        def tuples(rows):
            return [tuple(row[i] for i in key) for row in rows]

        seen = {value for value in tuples(existing) if None not in value}
        for value in tuples(new_rows):
            if None in value:
                continue
            if value in seen:
                body = repr(value[0]) if len(value) == 1 else \
                    "(" + ", ".join(map(repr, value)) + ")"
                if len(body) > 64:
                    body = body[:61] + "..."
                names = ", ".join(columns[i] for i in key)
                return (f"uniqueness violation on {name}({names}): "
                        f"key {body}")
            seen.add(value)
    return None


def nested_loop_dml(engine: CdwEngine, ruled_out=None) -> CdwEngine:
    """Run ``engine``'s UPDATE, DELETE … USING and MERGE as nested
    loops: every target row is tested against every source row, and a
    MERGE source row against every live working row in position order
    until the first match.  Everything else about the statements (the
    source rows, the assignments, the commit) is the engine's.  Returns
    ``engine``.

    The keyed executor tests only the rows its key picks, so it skips a
    predicate that would raise on a row the key rules out.
    ``ruled_out(ctx)``, when given, says whether the (target, source)
    pair bound in ``ctx`` is such a row; a predicate that raises on it
    then counts as no match instead of failing the statement.
    """
    runner = engine._subquery_runner
    plain_delete = engine._exec_Delete

    def true(condition, ctx) -> bool:
        return condition is None or is_true(
            evaluate(condition, ctx, runner))

    def holds(predicate, ctx) -> bool:
        try:
            return true(predicate, ctx)
        except ExpressionError:
            if ruled_out is not None and ruled_out(ctx):
                return False
            raise

    def nested(source_ctx, binding, table, row) -> RowContext:
        ctx = RowContext(parent=source_ctx)
        ctx.bind(binding, table.column_names, row)
        return ctx

    def assigned(table, row, assignments, ctx) -> tuple:
        new_row = list(row)
        for assignment in assignments:
            new_row[table.column_index(assignment.column)] = evaluate(
                assignment.value, ctx, runner)
        return table.coerce_row(tuple(new_row))

    def update(stmt: n.Update) -> CdwResult:
        table = engine.catalog.get(stmt.table.name)
        sources = (engine._pruned_source_contexts(stmt.from_, stmt.where)
                   if stmt.from_ is not None else [None])
        working = list(table.rows)
        updated: dict[int, tuple] = {}
        try:
            for index, row in enumerate(working):
                for source_ctx in sources:
                    current = updated.get(index, row)
                    ctx = nested(source_ctx, stmt.table.binding, table,
                                 current)
                    if holds(stmt.where, ctx):
                        updated[index] = assigned(
                            table, current, stmt.assignments, ctx)
        except ExpressionError as exc:
            raise statement_error(exc, f"UPDATE {table.name}") from exc
        for index, row in updated.items():
            working[index] = row
        if engine.native_unique and table.unique_keys:
            table.check_unique(working)
        table.rows = working
        if updated and table.sorted_by is not None and any(
                a.column.upper() == table.sorted_by.upper()
                for a in stmt.assignments):
            table.sorted_by = None
        return CdwResult(kind="count", rows_updated=len(updated))

    def delete(stmt: n.Delete) -> CdwResult:
        if stmt.using is None:
            return plain_delete(stmt)
        table = engine.catalog.get(stmt.table.name)
        sources = engine._pruned_source_contexts(stmt.using, stmt.where)
        keep: list[tuple] = []
        try:
            for row in table.rows:
                if not any(holds(stmt.where, nested(
                        source_ctx, stmt.table.binding, table, row))
                        for source_ctx in sources):
                    keep.append(row)
        except ExpressionError as exc:
            raise statement_error(
                exc, f"DELETE FROM {table.name}") from exc
        deleted = table.row_count - len(keep)
        table.rows = keep
        return CdwResult(kind="count", rows_deleted=deleted)

    def merge(stmt: n.Merge) -> CdwResult:
        table = engine.catalog.get(stmt.target.name)
        target_binding = stmt.target.binding
        source_binding, source_columns, source_rows = \
            engine._merge_source(stmt)
        if stmt.on is None:
            raise CdwError("MERGE needs an ON clause")
        working: list = list(table.rows)
        inserted = updated = deleted = 0

        def both(target_row, source_row) -> RowContext:
            ctx = RowContext()
            ctx.bind(target_binding, table.column_names, target_row)
            ctx.bind(source_binding, source_columns, source_row)
            return ctx

        try:
            for source_row in source_rows:
                source_ctx = RowContext()
                source_ctx.bind(source_binding, source_columns, source_row)
                position = next(
                    (p for p, row in enumerate(working) if row is not None
                     and holds(stmt.on, both(row, source_row))), None)
                if position is None:
                    not_matched = stmt.not_matched
                    if not_matched is None or not true(
                            not_matched.condition, source_ctx):
                        continue
                    raw = tuple(evaluate(value, source_ctx, runner)
                                for value in not_matched.values)
                    working.append(table.coerce_row(
                        engine._shape_insert_row(
                            table, not_matched.columns, raw)))
                    inserted += 1
                    continue
                matched = stmt.matched
                ctx = both(working[position], source_row)
                if matched is None or not true(matched.condition, ctx):
                    continue
                if matched.delete:
                    working[position] = None
                    deleted += 1
                else:
                    working[position] = assigned(
                        table, working[position], matched.assignments, ctx)
                    updated += 1
        except ExpressionError as exc:
            raise statement_error(
                exc, f"MERGE INTO {table.name}") from exc
        final = [row for row in working if row is not None]
        if engine.native_unique and table.unique_keys:
            table.check_unique(final)
        table.rows = final
        if (inserted or updated) and table.sorted_by is not None:
            table.sorted_by = None
        return CdwResult(kind="count", rows_inserted=inserted,
                         rows_updated=updated, rows_deleted=deleted)

    engine._exec_Update = update
    engine._exec_Delete = delete
    engine._exec_Merge = merge
    return engine


def run(engine: CdwEngine, sql: str):
    """``("ok", result)`` or ``("error", exception)`` of one statement."""
    try:
        return "ok", engine.execute(sql)
    except Exception as exc:  # noqa: BLE001 - outcomes are diffed
        return "error", exc


def normalized(value):
    """One value as both engines can state it: booleans as 0/1, dates
    as ISO text, DECIMAL and DOUBLE values rounded to six places, and
    the value's kind kept so ``1`` and ``1.0`` still differ."""
    if value is None:
        return None
    if isinstance(value, bool):
        return "int", int(value)
    if isinstance(value, int):
        return "int", value
    if isinstance(value, (float, Decimal)):
        return "float", round(float(value), 6) + 0.0
    if isinstance(value, datetime.date):
        return "text", value.isoformat()
    return "text", value


def _normalized_rows(rows) -> list[tuple]:
    return [tuple(map(normalized, row)) for row in rows]


def _stored(value):
    """One engine value as the mirror stores it."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Decimal):
        return float(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


class _Unsupported(Exception):
    """A tree the renderer does not cover; ``args[0]`` is the reason."""


def _cast(value, base, length, safe):
    """The CDW's CAST, independently: INT types take integers, integral
    doubles and optionally signed ASCII digits (blanks around them
    allowed); DOUBLE takes numbers and decimal text; VARCHAR(n) takes
    text and the text of numbers, at most ``n`` characters; BOOLEAN
    takes integers.  Raises where the CDW raises, or is NULL when
    ``safe`` (TRY_CAST)."""
    if value is None:
        return None
    try:
        if base in _INT_RANGES:
            if isinstance(value, float):
                if value != int(value):
                    raise ValueError(value)
                value = int(value)
            elif isinstance(value, str):
                text = value.strip()
                digits = text[1:] if text[:1] in "+-" else text
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(value)
                value = int(text)
            bound = 2 ** _INT_RANGES[base]
            if not -bound <= value < bound:
                raise ValueError(value)
            return value
        if base == "DOUBLE":
            if isinstance(value, str):
                text = value.strip()
                if not text.isascii() or any(c.isalpha() and c not in "eE"
                                             for c in text):
                    raise ValueError(value)
                return float(text)
            return float(value)
        if base in _TEXT_BASES:
            text = value if isinstance(value, str) else str(value)
            if length is not None and len(text) > length:
                raise ValueError(value)
            return text
        if base == "BOOLEAN" and isinstance(value, int):
            return int(bool(value))
        raise ValueError(value)
    except ValueError:
        if safe:
            return None
        raise


def _quote(name: str) -> str:
    return '"' + name.upper().replace('"', '""') + '"'


def _literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise _Unsupported("expression")


def _glob(pattern: str) -> str:
    """A LIKE pattern as the GLOB pattern (case-sensitive, whole
    string) that matches the same strings."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append("*")
        elif ch == "_":
            out.append("?")
        elif ch in "*?[":
            out.append(f"[{ch}]")
        else:
            out.append(ch)
    return "".join(out)


class SqliteOracle:
    """An engine's tables mirrored into an in-memory SQLite database.

    Every table becomes a SQLite table with the same columns, its unique
    keys (when the engine enforces them), and its NOT NULL columns and
    each ``VARCHAR(n)`` bound as CHECKs.  Casts, and the coercion of a
    value into its target column, are Python functions (:func:`_cast`)
    that raise where the CDW's raise; SQLite's ABORT then rolls the
    statement back, which is the engine's all-or-nothing rule.
    """

    def __init__(self, engine: CdwEngine):
        self.engine = engine
        self.db = sqlite3.connect(":memory:", isolation_level=None)
        # Not deterministic: SQLite must not hoist a constant CAST out
        # of the row loop and raise where no row reaches it.
        self.db.create_function("CDW_CAST", 4, _cast)
        #: statements checked, by verdict.
        self.verdicts: Counter = Counter()
        for table in engine.catalog.tables.values():
            self.mirror(table.name)

    # -- the mirror ----------------------------------------------------------

    def mirror(self, name: str) -> None:
        """(Re)create table ``name`` from the engine's current rows."""
        table = self.engine.table(name)
        columns = []
        for spec in table.columns:
            base = spec.ctype.base
            affinity = ("INTEGER" if base in _INT_RANGES or base == "BOOLEAN"
                        else "REAL" if base in ("DOUBLE", "DECIMAL")
                        else "TEXT")
            column = f"{_quote(spec.name)} {affinity}"
            if not spec.nullable:
                column += f" CHECK ({_quote(spec.name)} IS NOT NULL)"
            if spec.ctype.is_character and spec.ctype.length is not None:
                column += (f" CHECK (length({_quote(spec.name)}) <= "
                           f"{spec.ctype.length})")
            columns.append(column)
        if self.engine.native_unique:
            for key in table.unique_keys:
                columns.append("UNIQUE (" + ", ".join(
                    _quote(table.columns[i].name) for i in key) + ")")
        self.db.execute(f"DROP TABLE IF EXISTS {_quote(name)}")
        self.db.execute(f"CREATE TABLE {_quote(name)} "
                        f"({', '.join(columns)})")
        marks = ", ".join("?" * table.arity)
        # NOT NULL and the bounds are CHECKs: they hold for what a
        # statement writes, and rows a test put in storage directly are
        # mirrored as they are.
        self.db.execute("PRAGMA ignore_check_constraints = ON")
        self.db.executemany(
            f"INSERT INTO {_quote(name)} VALUES ({marks})",
            [tuple(map(_stored, row)) for row in table.rows])
        self.db.execute("PRAGMA ignore_check_constraints = OFF")

    def state(self, name: str) -> Counter:
        """The mirrored table's rows, as a multiset."""
        rows = self.db.execute(f"SELECT * FROM {_quote(name)}").fetchall()
        return Counter(_normalized_rows(rows))

    # -- supports ------------------------------------------------------------

    def verdict(self, stmt: n.Statement) -> "str | None":
        """None when the statement is compared in full; else the
        :data:`EXCLUSIONS` or ``out_of_scope:`` reason that limits it
        (``order_by_ties`` still compares what it can)."""
        try:
            self.compile(stmt)
        except _Unsupported as exc:
            reason = exc.args[0]
            return reason if reason in EXCLUSIONS \
                else f"out_of_scope:{reason}"
        if isinstance(stmt, n.Select) and not self._total_order(stmt) \
                and (stmt.order_by or stmt.limit is not None):
            return "order_by_ties"
        return None

    @staticmethod
    def _total_order(select: n.Select) -> bool:
        """Whether the ORDER BY keys cannot tie: they include ``__SEQ``
        (unique in every table the suites build) or every GROUP BY
        key.  An output position stands for its select item."""
        keys = [select.items[expr.value - 1].expr
                if isinstance(expr, n.Literal) else expr
                for expr, _ in select.order_by]
        if n.ColumnRef("__SEQ") in keys:
            return True
        return bool(select.group_by) and all(
            key in keys for key in select.group_by)

    # -- compile -------------------------------------------------------------

    def compile(self, stmt: n.Statement) -> str:
        """SQLite SQL for ``stmt``; raises :class:`_Unsupported`.  A
        SELECT's LIMIT is left out: the engine computes every row before
        it cuts, and :meth:`execute` cuts the same way."""
        if isinstance(stmt, n.Select):
            return self._select(stmt)
        if isinstance(stmt, n.Insert) and isinstance(stmt.source, n.Select):
            return self._insert(stmt)
        if isinstance(stmt, n.Delete) and stmt.using is None:
            sql = f"DELETE FROM {_quote(stmt.table.name)}"
            if stmt.table.alias:
                raise _Unsupported("from")
            if stmt.where is not None:
                sql += f" WHERE {self._expr(stmt.where)}"
            return sql
        raise _Unsupported("statement")

    def _insert(self, stmt: n.Insert) -> str:
        table = self.engine.table(stmt.table.name)
        names = stmt.columns or table.column_names
        select = stmt.source
        if select.limit is not None or select.order_by:
            raise _Unsupported("statement")
        body = self._select(select)
        items = self._items(select)
        if len(items) != len(names):
            raise _Unsupported("statement")
        coerced = []
        for i, name in enumerate(names):
            ctype = table.column(name).ctype
            if ctype.base in ("DATE", "TIMESTAMP"):
                if not (isinstance(items[i].expr, n.Literal)
                        and items[i].expr.value is None):
                    raise _Unsupported("date_format")
            if ctype.base == "DECIMAL":
                raise _Unsupported("decimal_scale")
            if ctype.base not in (*_INT_RANGES, *_TEXT_BASES, "DOUBLE",
                                  "BOOLEAN", "DATE", "TIMESTAMP"):
                raise _Unsupported("expression")
            # the VARCHAR(n) bound is the mirror's CHECK
            coerced.append(f"CDW_CAST(c{i}, '{ctype.base}', NULL, 0)")
        columns = ", ".join(_quote(name) for name in names)
        inner = ", ".join(f"c{i}" for i in range(len(names)))
        return (f"WITH oracle_source ({inner}) AS ({body}) "
                f"INSERT INTO {_quote(table.name)} ({columns}) "
                f"SELECT {', '.join(coerced)} FROM oracle_source")

    def _items(self, select: n.Select) -> list[n.SelectItem]:
        items = []
        for item in select.items:
            if isinstance(item.expr, n.Star):
                table = self.engine.table(select.from_.name)
                items.extend(n.SelectItem(n.ColumnRef(name))
                             for name in table.column_names)
            else:
                items.append(item)
        return items

    def _select(self, select: n.Select) -> str:
        if not isinstance(select.from_, n.TableRef):
            raise _Unsupported("from")
        source = _quote(select.from_.name)
        if select.from_.alias:
            source += f" AS {_quote(select.from_.alias)}"
        grouped = bool(select.group_by) or any(
            self._has_aggregate(item.expr) for item in select.items)
        if grouped:
            for item in select.items:
                self._check_grouped(item.expr, select.group_by)
        items = ", ".join("*" if isinstance(item.expr, n.Star)
                          else self._expr(item.expr)
                          for item in select.items)
        sql = "SELECT " + ("DISTINCT " if select.distinct else "") + items
        sql += f" FROM {source}"
        if select.where is not None:
            sql += f" WHERE {self._expr(select.where)}"
        if select.group_by:
            sql += " GROUP BY " + ", ".join(map(self._expr, select.group_by))
        if select.having is not None:
            sql += f" HAVING {self._expr(select.having)}"
        if select.order_by:
            sql += " ORDER BY " + ", ".join(
                self._expr(expr) + ("" if ascending else " DESC")
                for expr, ascending in select.order_by)
        return sql

    @staticmethod
    def _has_aggregate(expr: n.Expr) -> bool:
        return any(isinstance(node, n.FuncCall)
                   and node.name.upper() in _AGGREGATES
                   for node in n.walk(expr))

    def _check_grouped(self, node: n.Node, group_by: list) -> None:
        """Every column outside an aggregate must be a GROUP BY key: the
        engine gives a bare column its group's first row, SQLite some
        row."""
        if node in group_by or isinstance(node, n.FuncCall) \
                and node.name.upper() in _AGGREGATES:
            return
        if isinstance(node, n.ColumnRef):
            raise _Unsupported("bare_column")
        for child in node.children():
            self._check_grouped(child, group_by)

    def _expr(self, expr: n.Expr) -> str:
        if isinstance(expr, n.Literal):
            if isinstance(expr.value, Decimal):
                raise _Unsupported("decimal_scale")
            return _literal(expr.value)
        if isinstance(expr, n.ColumnRef):
            if expr.table:
                return f"{_quote(expr.table)}.{_quote(expr.name)}"
            return _quote(expr.name)
        if isinstance(expr, n.UnaryOp) and expr.op in ("NOT", "-", "+"):
            op = "NOT " if expr.op == "NOT" else expr.op
            return f"({op}{self._expr(expr.operand)})"
        if isinstance(expr, n.BinaryOp):
            left, right = self._expr(expr.left), self._expr(expr.right)
            if expr.op in ("AND", "OR"):
                # The engine skips the right operand only when the left
                # one alone decides (AND: FALSE, OR: TRUE); SQLite's
                # jumps would also skip it after a NULL.  In a value
                # context SQLite evaluates both operands.
                decided = 0 if expr.op == "AND" else 1
                return (f"(CASE WHEN {left} = {decided} THEN {decided} "
                        f"ELSE ({left} {expr.op} {right}) END)")
            if expr.op not in (*_COMPARISONS, "+", "-", "*", "||"):
                raise _Unsupported("expression")
            return f"({left} {expr.op} {right})"
        if isinstance(expr, n.Cast):
            return self._cast_expr(expr)
        if isinstance(expr, n.FuncCall):
            return self._function(expr)
        if isinstance(expr, n.CaseExpr):
            whens = " ".join(f"WHEN {self._expr(w.condition)} THEN "
                             f"{self._expr(w.result)}" for w in expr.whens)
            tail = "" if expr.else_result is None \
                else f" ELSE {self._expr(expr.else_result)}"
            return f"(CASE {whens}{tail} END)"
        if isinstance(expr, n.IsNull):
            return (f"({self._expr(expr.operand)} IS "
                    f"{'NOT ' if expr.negated else ''}NULL)")
        if isinstance(expr, n.InExpr):
            if expr.subquery is not None:
                raise _Unsupported("subquery")
            items = ", ".join(map(self._expr, expr.items))
            return (f"({self._expr(expr.operand)} "
                    f"{'NOT ' if expr.negated else ''}IN ({items}))")
        if isinstance(expr, n.Between):
            return (f"({self._expr(expr.operand)} "
                    f"{'NOT ' if expr.negated else ''}BETWEEN "
                    f"{self._expr(expr.low)} AND {self._expr(expr.high)})")
        if isinstance(expr, n.Like):
            if not (isinstance(expr.pattern, n.Literal)
                    and isinstance(expr.pattern.value, str)):
                raise _Unsupported("expression")
            return (f"({'NOT ' if expr.negated else ''}"
                    f"{self._expr(expr.operand)} GLOB "
                    f"{_literal(_glob(expr.pattern.value))})")
        if isinstance(expr, (n.SubqueryExpr, n.Exists)):
            raise _Unsupported("subquery")
        raise _Unsupported("expression")

    def _cast_expr(self, expr: n.Cast) -> str:
        base = expr.type.base.upper()
        if base in ("DATE", "TIMESTAMP") or expr.format is not None:
            raise _Unsupported("date_format")
        if base in ("DECIMAL", "NUMERIC"):
            raise _Unsupported("decimal_scale")
        if base == "INTEGER":
            base = "INT"
        if base not in (*_INT_RANGES, "DOUBLE", *_TEXT_BASES):
            raise _Unsupported("expression")
        length = "NULL" if expr.type.length is None \
            else str(expr.type.length)
        return (f"CDW_CAST({self._expr(expr.operand)}, '{base}', {length}, "
                f"{int(expr.safe)})")

    def _function(self, call: n.FuncCall) -> str:
        name = call.name.upper()
        if name in _DATE_FUNCTIONS:
            raise _Unsupported("date_format")
        if name in _AGGREGATES:
            if len(call.args) == 1 and isinstance(call.args[0], n.Star):
                return "COUNT(*)"
            return (f"{name}({'DISTINCT ' if call.distinct else ''}"
                    f"{self._expr(call.args[0])})")
        args = [self._expr(arg) for arg in call.args]
        if name in ("TRIM", "LTRIM", "RTRIM") and len(args) == 1:
            return f"{name}({args[0]}, {_literal(_WHITESPACE)})"
        if name in ("SUBSTR", "SUBSTRING") and len(args) in (2, 3):
            start = call.args[1]
            if not (isinstance(start, n.Literal)
                    and isinstance(start.value, int) and start.value >= 1):
                raise _Unsupported("expression")
            return f"SUBSTR({', '.join(args)})"
        if name == "COALESCE":
            return args[0] if len(args) == 1 \
                else f"COALESCE({', '.join(args)})"
        if name == "ROUND" and len(args) == 1:
            return f"ROUND({args[0]})"
        raise _Unsupported("expression")

    # -- execute -------------------------------------------------------------

    def execute(self, stmt: n.Statement):
        """``("ok", rows, count)`` or ``("error", exc)`` of ``stmt`` in
        SQLite; ``rows`` is None for DML, ``count`` for SELECT."""
        changes = self.db.total_changes
        try:
            cursor = self.db.execute(self.compile(stmt))
            if isinstance(stmt, n.Select):
                rows = cursor.fetchall()
                if stmt.limit is not None:
                    rows = rows[:stmt.limit]
                return "ok", rows, None
            return "ok", None, self.db.total_changes - changes
        except sqlite3.Error as exc:
            return "error", exc

    # -- check ---------------------------------------------------------------

    def check(self, sql: str, ran) -> str:
        """Diff the engine's outcome ``ran`` (see :func:`run`) of
        ``sql`` against SQLite's; returns the statement's verdict
        (``compared``, an :data:`EXCLUSIONS` key, or ``out_of_scope:…``)
        and counts it in :attr:`verdicts`."""
        stmt = parse_statement(sql, dialect="cdw")
        verdict = self.verdict(stmt)
        written = stmt.table.name \
            if isinstance(stmt, (n.Insert, n.Delete)) else None
        if verdict is not None and verdict != "order_by_ties":
            self._resync(stmt)
            self.verdicts[verdict] += 1
            return verdict
        mine = self.execute(stmt)
        assert (mine[0] == "ok") == (ran[0] == "ok"), \
            f"sqlite {mine[0]} but engine {ran[0]} ({ran[1]!r}) on: {sql}"
        if mine[0] == "error":
            verdict = "first_error_identity"
        elif isinstance(stmt, n.Select):
            if verdict is None or stmt.limit is None:
                want = _normalized_rows(ran[1].rows)
                got = _normalized_rows(mine[1])
                if verdict is not None or not stmt.order_by:
                    want, got = Counter(want), Counter(got)
                assert got == want, f"rows differ on: {sql}"
        else:
            result = ran[1]
            assert mine[2] == result.rows_inserted + result.rows_deleted, \
                f"counts differ on: {sql}"
        if written is not None:
            assert self.state(written) == Counter(
                _normalized_rows(self.engine.table(written).rows)), \
                f"{written} differs after: {sql}"
        verdict = verdict or "compared"
        self.verdicts[verdict] += 1
        return verdict

    def _resync(self, stmt: n.Statement) -> None:
        """After a statement the oracle did not run, re-mirror every
        table it may have written."""
        if isinstance(stmt, (n.Insert, n.Delete)):
            self.mirror(stmt.table.name)
        elif not isinstance(stmt, (n.Select, n.SetOp)):
            for table in self.engine.catalog.tables.values():
                self.mirror(table.name)
