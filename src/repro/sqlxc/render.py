"""Dialect-specific SQL renderers.

``render(node, dialect)`` turns an AST back into SQL text.  The renderer is
total over the AST; constructs that do not exist in the requested dialect
(e.g. a FORMAT cast rendered as ``cdw``, or an Upsert rendered as ``cdw``)
raise :class:`~repro.errors.SqlTranslationError` — the cross compiler must
rewrite them away first.
"""

from __future__ import annotations

import re
from decimal import Decimal

from repro.errors import SqlTranslationError
from repro.sqlxc import nodes as n
from repro import values

__all__ = ["render", "render_expr"]

_SAFE_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9$]*(\.[A-Za-z_][A-Za-z_0-9$]*)*$")


def _ident(name: str) -> str:
    if _SAFE_IDENT.match(name):
        return name
    return '"' + name.replace('"', '""') + '"'


def _string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def render(node: n.Node, dialect: str = "cdw") -> str:
    """Render a statement (or any node) as SQL in the given dialect."""
    return _Renderer(dialect).render(node)


def render_expr(expr: n.Expr, dialect: str = "cdw") -> str:
    """Render a scalar expression."""
    return _Renderer(dialect).expr(expr)


class _Renderer:
    def __init__(self, dialect: str):
        self.dialect = dialect

    # -- dispatch ------------------------------------------------------------

    def render(self, node: n.Node) -> str:
        method = getattr(self, f"_render_{type(node).__name__}", None)
        if method is None:
            raise SqlTranslationError(
                f"cannot render {type(node).__name__} node")
        return method(node)

    def expr(self, node: n.Expr) -> str:
        return self.render(node)

    # -- expressions ------------------------------------------------------------

    def _render_Literal(self, node: n.Literal) -> str:
        value = node.value
        if value is None:
            return "NULL"
        if value is True:
            return "TRUE"
        if value is False:
            return "FALSE"
        if isinstance(value, str):
            return _string(value)
        if isinstance(value, (int, float, Decimal)):
            return str(value)
        if isinstance(value, values.Timestamp):
            return f"TIMESTAMP {_string(value.isoformat(sep=' '))}"
        if isinstance(value, values.Date):
            return f"DATE {_string(value.isoformat())}"
        raise SqlTranslationError(
            f"cannot render literal of type {type(value).__name__}")

    def _render_Star(self, node: n.Star) -> str:
        return "*"

    def _render_ColumnRef(self, node: n.ColumnRef) -> str:
        if node.table:
            return f"{_ident(node.table)}.{_ident(node.name)}"
        return _ident(node.name)

    def _render_BoundParam(self, node: n.BoundParam) -> str:
        return self._render_Literal(n.Literal(node.value))

    def _render_HostParam(self, node: n.HostParam) -> str:
        if self.dialect != "legacy":
            raise SqlTranslationError(
                f"host parameter :{node.name} must be bound before "
                "rendering for the CDW")
        return f":{node.name}"

    def _render_UnaryOp(self, node: n.UnaryOp) -> str:
        # Self-contained rendering: the node carries its own parentheses
        # so it is atomic in any operand position.
        if node.op == "NOT":
            return f"(NOT ({self.expr(node.operand)}))"
        return f"({node.op}({self.expr(node.operand)}))"

    def _render_BinaryOp(self, node: n.BinaryOp) -> str:
        return f"({self.expr(node.left)} {node.op} {self.expr(node.right)})"

    def _render_Cast(self, node: n.Cast) -> str:
        if node.format is not None and self.dialect != "legacy":
            raise SqlTranslationError(
                "FORMAT cast must be rewritten before rendering for the CDW")
        inner = self.expr(node.operand)
        type_sql = node.type.render_sql()
        if node.format is not None:
            return f"CAST({inner} AS {type_sql} FORMAT {_string(node.format)})"
        word = "TRY_CAST" if node.safe else "CAST"
        return f"{word}({inner} AS {type_sql})"

    def _render_FuncCall(self, node: n.FuncCall) -> str:
        if node.name == "EXTRACT" and len(node.args) == 2 \
                and isinstance(node.args[0], n.Literal):
            return (f"EXTRACT({node.args[0].value} FROM "
                    f"{self.expr(node.args[1])})")
        prefix = "DISTINCT " if node.distinct else ""
        args = ", ".join(self.expr(a) for a in node.args)
        return f"{node.name}({prefix}{args})"

    def _render_CaseExpr(self, node: n.CaseExpr) -> str:
        parts = ["CASE"]
        for when in node.whens:
            parts.append(
                f"WHEN {self.expr(when.condition)} "
                f"THEN {self.expr(when.result)}")
        if node.else_result is not None:
            parts.append(f"ELSE {self.expr(node.else_result)}")
        parts.append("END")
        return " ".join(parts)

    def _render_IsNull(self, node: n.IsNull) -> str:
        suffix = "IS NOT NULL" if node.negated else "IS NULL"
        return f"({self.expr(node.operand)} {suffix})"

    def _render_InExpr(self, node: n.InExpr) -> str:
        negate = "NOT " if node.negated else ""
        if node.subquery is not None:
            inner = self.render(node.subquery)
            return f"({self.expr(node.operand)} {negate}IN ({inner}))"
        items = ", ".join(self.expr(item) for item in node.items)
        return f"({self.expr(node.operand)} {negate}IN ({items}))"

    def _render_Between(self, node: n.Between) -> str:
        negate = "NOT " if node.negated else ""
        return (f"({self.expr(node.operand)} {negate}BETWEEN "
                f"{self.expr(node.low)} AND {self.expr(node.high)})")

    def _render_Like(self, node: n.Like) -> str:
        negate = "NOT " if node.negated else ""
        return (f"({self.expr(node.operand)} {negate}LIKE "
                f"{self.expr(node.pattern)})")

    def _render_Exists(self, node: n.Exists) -> str:
        negate = "NOT " if node.negated else ""
        return f"{negate}EXISTS ({self.render(node.subquery)})"

    def _render_SubqueryExpr(self, node: n.SubqueryExpr) -> str:
        return f"({self.render(node.subquery)})"

    # -- queries ------------------------------------------------------------------

    def _render_SelectItem(self, node: n.SelectItem) -> str:
        sql = self.expr(node.expr)
        if node.alias:
            sql += f" AS {_ident(node.alias)}"
        return sql

    def _render_TableRef(self, node: n.TableRef) -> str:
        sql = _ident(node.name)
        if node.alias:
            sql += f" AS {_ident(node.alias)}"
        return sql

    def _render_DerivedTable(self, node: n.DerivedTable) -> str:
        return f"({self.render(node.query)}) AS {_ident(node.alias)}"

    def _render_Join(self, node: n.Join) -> str:
        left = self.render(node.left)
        right = self.render(node.right)
        if node.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        on = f" ON {self.expr(node.on)}" if node.on is not None else ""
        return f"{left} {node.kind} JOIN {right}{on}"

    def _render_Select(self, node: n.Select) -> str:
        parts = ["SELECT"]
        if node.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self.render(i) for i in node.items))
        if node.from_ is not None:
            parts.append("FROM " + self.render(node.from_))
        if node.where is not None:
            parts.append("WHERE " + self.expr(node.where))
        if node.group_by:
            parts.append(
                "GROUP BY " + ", ".join(self.expr(g) for g in node.group_by))
        if node.having is not None:
            parts.append("HAVING " + self.expr(node.having))
        if node.order_by:
            rendered = [
                self.expr(expr) + ("" if ascending else " DESC")
                for expr, ascending in node.order_by
            ]
            parts.append("ORDER BY " + ", ".join(rendered))
        if node.limit is not None:
            parts.append(f"LIMIT {node.limit}")
        return " ".join(parts)

    def _render_SetOp(self, node: n.SetOp) -> str:
        op = node.op + (" ALL" if node.all else "")
        right = self.render(node.right)
        if isinstance(node.right, n.SetOp):
            right = f"({right})"
        return f"{self.render(node.left)} {op} {right}"

    def _render_CreateTableAs(self, node: n.CreateTableAs) -> str:
        exists = "IF NOT EXISTS " if node.if_not_exists else ""
        return (f"CREATE TABLE {exists}{_ident(node.table.name)} AS "
                f"{self.render(node.query)}")

    # -- DML ------------------------------------------------------------------------

    def _render_Values(self, node: n.Values) -> str:
        rows = ", ".join(
            "(" + ", ".join(self.expr(v) for v in row) + ")"
            for row in node.rows)
        return f"VALUES {rows}"

    def _render_Insert(self, node: n.Insert) -> str:
        sql = f"INSERT INTO {_ident(node.table.name)}"
        if node.columns:
            sql += " (" + ", ".join(_ident(c) for c in node.columns) + ")"
        if isinstance(node.source, n.Values):
            sql += " " + self.render(node.source)
        elif isinstance(node.source, n.Select):
            sql += " " + self.render(node.source)
        else:
            raise SqlTranslationError("INSERT without a source")
        return sql

    def _render_Assignment(self, node: n.Assignment) -> str:
        return f"{_ident(node.column)} = {self.expr(node.value)}"

    def _render_Update(self, node: n.Update) -> str:
        sql = (f"UPDATE {self.render(node.table)} SET "
               + ", ".join(self.render(a) for a in node.assignments))
        if node.from_ is not None:
            sql += " FROM " + self.render(node.from_)
        if node.where is not None:
            sql += " WHERE " + self.expr(node.where)
        return sql

    def _render_Delete(self, node: n.Delete) -> str:
        sql = f"DELETE FROM {self.render(node.table)}"
        if node.using is not None:
            sql += " USING " + self.render(node.using)
        if node.where is not None:
            sql += " WHERE " + self.expr(node.where)
        return sql

    def _render_Upsert(self, node: n.Upsert) -> str:
        if self.dialect != "legacy":
            raise SqlTranslationError(
                "legacy upsert must be rewritten to MERGE for the CDW")
        return (self.render(node.update) + " ELSE "
                + self.render(node.insert))

    def _render_Merge(self, node: n.Merge) -> str:
        if isinstance(node.source, n.Select):
            source = f"({self.render(node.source)})"
        else:
            source = _ident(node.source.name)
        sql = (f"MERGE INTO {self.render(node.target)} USING {source}")
        if node.source_alias:
            sql += f" AS {_ident(node.source_alias)}"
        sql += f" ON {self.expr(node.on)}"
        if node.matched is not None:
            sql += " WHEN MATCHED"
            if node.matched.condition is not None:
                sql += f" AND {self.expr(node.matched.condition)}"
            if node.matched.delete:
                sql += " THEN DELETE"
            else:
                sql += " THEN UPDATE SET " + ", ".join(
                    self.render(a) for a in node.matched.assignments)
        if node.not_matched is not None:
            sql += " WHEN NOT MATCHED"
            if node.not_matched.condition is not None:
                sql += f" AND {self.expr(node.not_matched.condition)}"
            sql += " THEN INSERT"
            if node.not_matched.columns:
                sql += " (" + ", ".join(
                    _ident(c) for c in node.not_matched.columns) + ")"
            sql += " VALUES (" + ", ".join(
                self.expr(v) for v in node.not_matched.values) + ")"
        return sql

    # -- DDL --------------------------------------------------------------------------

    def _render_ColumnDef(self, node: n.ColumnDef) -> str:
        sql = f"{_ident(node.name)} {node.type.render_sql()}"
        if not node.nullable:
            sql += " NOT NULL"
        return sql

    def _render_CreateTable(self, node: n.CreateTable) -> str:
        exists = "IF NOT EXISTS " if node.if_not_exists else ""
        parts = [self.render(c) for c in node.columns]
        for key in node.unique:
            parts.append("UNIQUE (" + ", ".join(_ident(c) for c in key) + ")")
        return (f"CREATE TABLE {exists}{_ident(node.table.name)} ("
                + ", ".join(parts) + ")")

    def _render_AlterTable(self, node: n.AlterTable) -> str:
        if node.action == "add":
            exists = "IF NOT EXISTS " if node.if_not_exists else ""
            return (f"ALTER TABLE {_ident(node.table.name)} "
                    f"ADD COLUMN {exists}{self.render(node.column)}")
        if node.action == "rename":
            return (f"ALTER TABLE {_ident(node.table.name)} RENAME "
                    f"COLUMN {_ident(node.old_name)} "
                    f"TO {_ident(node.new_name)}")
        raise SqlTranslationError(
            f"unknown ALTER TABLE action {node.action!r}")

    def _render_DropTable(self, node: n.DropTable) -> str:
        exists = "IF EXISTS " if node.if_exists else ""
        return f"DROP TABLE {exists}{_ident(node.table.name)}"

    def _render_CopyInto(self, node: n.CopyInto) -> str:
        if self.dialect != "cdw":
            raise SqlTranslationError("COPY INTO is a CDW-only statement")
        sql = (f"COPY INTO {_ident(node.table.name)} FROM "
               f"{_string(node.source_url)} FORMAT {node.file_format}")
        if node.delimiter != ",":
            sql += f" DELIMITER {_string(node.delimiter)}"
        if node.compression:
            sql += f" COMPRESSION {node.compression}"
        return sql
