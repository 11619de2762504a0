"""Legacy→CDW transformation rules and host-variable binding.

These are the rewrite rules Hyper-Q's Protocol Cross Compiler applies to
make legacy SQL executable on the CDW:

- :func:`map_type` — the legacy↔CDW type mapping of Section 6 ("a Unicode
  character type in the source script could be mapped to the national
  varchar type in the CDW type system");
- :func:`to_cdw` — structural rewrites: ``CAST .. FORMAT`` into
  ``TO_DATE``/``TO_TIMESTAMP`` calls, legacy function names into CDW ones,
  legacy ``UPDATE .. ELSE INSERT`` upserts into ``MERGE``;
- :func:`bind_params_to_columns` — replaces host variables ``:F`` with
  references to the staging table's columns, turning a tuple-at-a-time DML
  into the set-oriented form Hyper-Q executes over the staging table;
- :func:`bind_params_to_values` — replaces host variables with literals
  (how the reference legacy server and the Figure 11 baseline apply the
  DML to one input record at a time).
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import SqlTranslationError, UnboundParameterError
from repro.sqlxc import nodes as n

__all__ = [
    "map_type", "to_cdw", "bind_params_to_columns", "bind_params_to_values",
    "collect_host_params", "upsert_to_merge", "TYPE_MAP",
]

#: legacy base type -> CDW base type (Section 6's type mapping).
TYPE_MAP: dict[str, str] = {
    "VARCHAR": "VARCHAR",
    "CHAR": "CHAR",
    "UNICODE": "NVARCHAR",
    "BYTEINT": "SMALLINT",
    "SMALLINT": "SMALLINT",
    "INTEGER": "INT",
    "INT": "INT",
    "BIGINT": "BIGINT",
    "DECIMAL": "DECIMAL",
    "NUMERIC": "DECIMAL",
    "FLOAT": "DOUBLE",
    "DOUBLE": "DOUBLE",
    "DATE": "DATE",
    "TIMESTAMP": "TIMESTAMP",
}

#: legacy function name -> rewrite constructor.
_FUNCTION_MAP = {
    "ZEROIFNULL": lambda args: n.FuncCall("COALESCE", [args[0], n.Literal(0)]),
    "NULLIFZERO": lambda args: n.FuncCall("NULLIF", [args[0], n.Literal(0)]),
    # legacy INDEX(haystack, needle) and standard POSITION(needle IN
    # haystack) both become STRPOS(haystack, needle).
    "INDEX": lambda args: n.FuncCall("STRPOS", [args[0], args[1]]),
    "POSITION": lambda args: n.FuncCall("STRPOS", [args[1], args[0]]),
    "SUBSTR": lambda args: n.FuncCall("SUBSTR", list(args)),
}


def map_type(type_name: n.TypeName) -> n.TypeName:
    """Map a legacy type name to its CDW equivalent."""
    if type_name.dialect == "cdw":
        return type_name
    base = TYPE_MAP.get(type_name.base)
    if base is None:
        raise SqlTranslationError(
            f"legacy type {type_name.base} has no CDW mapping")
    return n.TypeName(base, type_name.length, type_name.scale, dialect="cdw")


def _rewrite_cast(cast: n.Cast) -> n.Expr:
    mapped = map_type(cast.type)
    if cast.format is None:
        return n.Cast(cast.operand, mapped, safe=cast.safe)
    if mapped.base == "DATE":
        return n.FuncCall("TO_DATE", [cast.operand, n.Literal(cast.format)])
    if mapped.base == "TIMESTAMP":
        return n.FuncCall(
            "TO_TIMESTAMP", [cast.operand, n.Literal(cast.format)])
    raise SqlTranslationError(
        f"FORMAT cast to {cast.type.base} is not supported")


def upsert_to_merge(upsert: n.Upsert) -> n.Merge:
    """Rewrite the legacy atomic upsert into a CDW MERGE.

    ``UPDATE t SET a = x WHERE k = v ELSE INSERT INTO t VALUES (..)``
    becomes ``MERGE INTO t USING <source> ON k = v WHEN MATCHED THEN
    UPDATE SET a = x WHEN NOT MATCHED THEN INSERT VALUES (..)``.  The
    source is the staging table when the statement was bound over one
    (detected from table-qualified column references); otherwise a
    single-row constant source is synthesised.
    """
    update = upsert.update
    insert = upsert.insert
    if update.table.name != insert.table.name:
        raise SqlTranslationError(
            "upsert UPDATE and INSERT must address the same table")
    if update.where is None:
        raise SqlTranslationError("upsert UPDATE needs a WHERE clause")
    source_tables = {
        node.table
        for node in n.walk(update)
        if isinstance(node, n.ColumnRef) and node.table
        if node.table.upper() != (update.table.binding or "").upper()
        and node.table.upper() != update.table.name.upper()
    } | {
        node.table
        for node in n.walk(insert)
        if isinstance(node, n.ColumnRef) and node.table
        if node.table.upper() != insert.table.name.upper()
    }
    if len(source_tables) > 1:
        raise SqlTranslationError(
            f"upsert references several source tables: {source_tables}")
    if source_tables:
        alias = next(iter(source_tables))
        source: n.TableRef | n.Select = n.TableRef(alias)
        source_alias = alias
    else:
        # Constant upsert: synthesise SELECT <nothing> ... a one-row dual.
        source = n.Select(items=[n.SelectItem(n.Literal(1), "dummy")])
        source_alias = "src"
    if not isinstance(insert.source, n.Values) or len(insert.source.rows) != 1:
        raise SqlTranslationError(
            "upsert INSERT must carry exactly one VALUES row")
    return n.Merge(
        target=update.table,
        source=source,
        source_alias=source_alias,
        on=update.where,
        matched=n.MergeMatched(assignments=update.assignments),
        not_matched=n.MergeNotMatched(
            columns=list(insert.columns),
            values=list(insert.source.rows[0])),
    )


def to_cdw(statement: n.Statement) -> n.Statement:
    """Apply every legacy→CDW structural rewrite to a statement."""

    def rule(node: n.Node) -> n.Node:
        if isinstance(node, n.Cast):
            return _rewrite_cast(node)
        if isinstance(node, n.FuncCall) and node.name in _FUNCTION_MAP:
            return _FUNCTION_MAP[node.name](node.args)
        if isinstance(node, n.TypeName):
            return map_type(node)
        if isinstance(node, n.Upsert):
            return upsert_to_merge(node)
        return node

    return n.transform(statement, rule)


def collect_host_params(statement: n.Node) -> list[str]:
    """All distinct host variable names, in first-appearance order."""
    seen: list[str] = []
    for node in n.walk(statement):
        if isinstance(node, n.HostParam) and node.name not in seen:
            seen.append(node.name)
    return seen


def bind_params_to_columns(statement: n.Statement, field_names: list[str],
                           table_alias: str) -> n.Statement:
    """Replace ``:F`` with ``alias.F`` for every layout field ``F``.

    This is the key step that turns the script's tuple-at-a-time DML into
    the set-oriented DML Hyper-Q runs over the staging table.
    """
    known = {name.upper(): name for name in field_names}

    def rule(node: n.Node) -> n.Node:
        if isinstance(node, n.HostParam):
            actual = known.get(node.name.upper())
            if actual is None:
                raise UnboundParameterError(
                    f"host variable :{node.name} is not a layout field "
                    f"(fields: {', '.join(field_names)})")
            return n.ColumnRef(actual, table=table_alias)
        return node

    return n.transform(statement, rule)


def bind_params_to_values(statement: n.Statement,
                          bindings: Mapping[str, object]) -> n.Statement:
    """Replace ``:F`` with the literal value of field ``F`` of one record."""
    upper = {key.upper(): value for key, value in bindings.items()}

    def rule(node: n.Node) -> n.Node:
        if isinstance(node, n.HostParam):
            key = node.name.upper()
            if key not in upper:
                raise UnboundParameterError(
                    f"host variable :{node.name} has no binding")
            return n.BoundParam(node.name, upper[key])
        return node

    return n.transform(statement, rule)
