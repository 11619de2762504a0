"""The dialect-agnostic SQL AST — Hyper-Q's "system-agnostic abstraction".

Every node is a frozen-ish dataclass; rewrite rules build new trees rather
than mutating.  ``walk``/``transform`` provide generic traversal used by the
rewrite rules and by analysis passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator

__all__ = [
    "Node", "Expr", "Statement",
    "Literal", "Star", "ColumnRef", "HostParam", "BoundParam", "TypeName",
    "UnaryOp", "BinaryOp", "Cast", "FuncCall", "CaseExpr", "WhenClause",
    "IsNull", "InExpr", "Between", "Like", "Exists", "SubqueryExpr",
    "SelectItem", "TableRef", "DerivedTable", "Join", "Select", "SetOp",
    "Values", "Insert", "Assignment", "Update", "Delete", "Upsert",
    "MergeMatched", "MergeNotMatched", "Merge",
    "ColumnDef", "CreateTable", "CreateTableAs", "DropTable",
    "AlterTable", "CopyInto",
    "walk", "transform", "replace",
]


@dataclass
class Node:
    """Base of all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield every direct child node (incl. inside lists)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item
                    elif isinstance(item, (list, tuple)):
                        for sub in item:
                            if isinstance(sub, Node):
                                yield sub


class Expr(Node):
    """Marker base for scalar expressions."""


class Statement(Node):
    """Marker base for top-level statements."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Literal(Expr):
    """A constant: str, int, float, Decimal, bool, date, or None."""

    value: Any


@dataclass
class Star(Expr):
    """``*`` in a select list or ``COUNT(*)``."""


@dataclass
class ColumnRef(Expr):
    name: str
    table: str | None = None


@dataclass
class HostParam(Expr):
    """A legacy host variable ``:NAME`` referencing an input field."""

    name: str


@dataclass
class BoundParam(Expr):
    """A host variable bound to a concrete value of one input record.

    Keeps the originating field name so that conversion errors raised
    while evaluating expressions over the value can be attributed to the
    right field in error tables (ERRFIELD in Figure 5b / Figure 6).
    """

    name: str
    value: Any


@dataclass
class TypeName(Node):
    """A type as written in SQL; ``dialect`` records which system's name."""

    base: str
    length: int | None = None
    scale: int | None = None
    dialect: str = "legacy"

    def render_sql(self) -> str:
        """SQL rendering of the type name."""
        if self.length is not None and self.scale is not None:
            return f"{self.base}({self.length},{self.scale})"
        if self.length is not None:
            return f"{self.base}({self.length})"
        return self.base


@dataclass
class UnaryOp(Expr):
    op: str  # NOT, -, +
    operand: Expr


@dataclass
class BinaryOp(Expr):
    op: str  # arithmetic, comparison, AND/OR, ||
    left: Expr
    right: Expr


@dataclass
class Cast(Expr):
    """``CAST(x AS type [FORMAT 'fmt'])`` — FORMAT is legacy-only.

    ``safe`` is ``TRY_CAST(x AS type)``: NULL where CAST raises.
    """

    operand: Expr
    type: TypeName
    format: str | None = None
    safe: bool = False


@dataclass
class FuncCall(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    distinct: bool = False


@dataclass
class WhenClause(Node):
    condition: Expr
    result: Expr


@dataclass
class CaseExpr(Expr):
    whens: list[WhenClause]
    else_result: Expr | None = None


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class InExpr(Expr):
    operand: Expr
    items: list[Expr] = field(default_factory=list)
    subquery: "Select | None" = None
    negated: bool = False


@dataclass
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class Exists(Expr):
    subquery: "Select"
    negated: bool = False


@dataclass
class SubqueryExpr(Expr):
    """A scalar subquery in an expression position."""

    subquery: "Select"


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass
class SelectItem(Node):
    expr: Expr
    alias: str | None = None


@dataclass
class TableRef(Node):
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class DerivedTable(Node):
    """A subquery in the FROM clause: ``FROM (SELECT ...) AS alias``."""

    query: "Select | SetOp"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class Join(Node):
    left: "TableRef | DerivedTable | Join"
    right: "TableRef | DerivedTable"
    kind: str = "INNER"  # INNER, LEFT, RIGHT, FULL, CROSS
    on: Expr | None = None


@dataclass
class Select(Statement):
    items: list[SelectItem]
    from_: "TableRef | Join | None" = None
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False


@dataclass
class SetOp(Statement):
    """``UNION [ALL]`` / ``EXCEPT`` / ``INTERSECT`` of two queries."""

    op: str                       # UNION | EXCEPT | INTERSECT
    left: "Select | SetOp"
    right: "Select | SetOp"
    all: bool = False             # UNION ALL keeps duplicates


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------

@dataclass
class Values(Node):
    rows: list[list[Expr]]


@dataclass
class Insert(Statement):
    table: TableRef
    columns: list[str] = field(default_factory=list)
    source: "Values | Select | None" = None


@dataclass
class Assignment(Node):
    column: str
    value: Expr


@dataclass
class Update(Statement):
    table: TableRef
    assignments: list[Assignment]
    from_: "TableRef | Join | None" = None
    where: Expr | None = None


@dataclass
class Delete(Statement):
    table: TableRef
    using: "TableRef | Join | None" = None
    where: Expr | None = None


@dataclass
class Upsert(Statement):
    """Legacy atomic upsert: ``UPDATE ... ELSE INSERT ...``.

    Not representable in the CDW dialect; the cross compiler rewrites it
    into a :class:`Merge`.
    """

    update: Update
    insert: Insert


@dataclass
class MergeMatched(Node):
    assignments: list[Assignment] = field(default_factory=list)
    delete: bool = False
    condition: Expr | None = None


@dataclass
class MergeNotMatched(Node):
    columns: list[str] = field(default_factory=list)
    values: list[Expr] = field(default_factory=list)
    condition: Expr | None = None


@dataclass
class Merge(Statement):
    target: TableRef
    source: "TableRef | Select"
    source_alias: str | None = None
    on: Expr | None = None
    matched: MergeMatched | None = None
    not_matched: MergeNotMatched | None = None


# ---------------------------------------------------------------------------
# DDL and bulk operations
# ---------------------------------------------------------------------------

@dataclass
class ColumnDef(Node):
    name: str
    type: TypeName
    nullable: bool = True


@dataclass
class CreateTable(Statement):
    table: TableRef
    columns: list[ColumnDef] = field(default_factory=list)
    unique: list[list[str]] = field(default_factory=list)
    if_not_exists: bool = False


@dataclass
class CreateTableAs(Statement):
    """``CREATE TABLE t AS SELECT ...`` — column types inferred from
    the query result."""

    table: TableRef
    query: "Select | SetOp"
    if_not_exists: bool = False


@dataclass
class DropTable(Statement):
    table: TableRef
    if_exists: bool = False


@dataclass
class AlterTable(Statement):
    """Schema evolution: ``ALTER TABLE t ADD [COLUMN] ...`` or
    ``ALTER TABLE t RENAME [COLUMN] old TO new``.

    ``action`` is ``"add"`` (``column`` holds the new definition) or
    ``"rename"`` (``old_name``/``new_name`` hold the names).
    """

    table: TableRef
    action: str = "add"
    column: "ColumnDef | None" = None
    old_name: str = ""
    new_name: str = ""
    if_not_exists: bool = False


@dataclass
class CopyInto(Statement):
    """CDW-only bulk ingest: ``COPY INTO t FROM 'store://...' ...``."""

    table: TableRef
    source_url: str = ""
    file_format: str = "csv"
    compression: str | None = None
    delimiter: str = ","


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def walk(node: Node) -> Iterator[Node]:
    """Depth-first pre-order walk of the tree rooted at ``node``."""
    yield node
    for child in node.children():
        yield from walk(child)


def _rebuild_value(value, fn: Callable[[Node], Node]):
    if isinstance(value, Node):
        return transform(value, fn)
    if isinstance(value, list):
        return [_rebuild_value(item, fn) for item in value]
    if isinstance(value, tuple):
        return tuple(_rebuild_value(item, fn) for item in value)
    return value


def transform(node: Node, fn: Callable[[Node], Node]) -> Node:
    """Bottom-up rewrite: children first, then ``fn`` on the rebuilt node.

    ``fn`` returns either a replacement node or its argument unchanged.
    """
    changes = {}
    for f in fields(node):
        old = getattr(node, f.name)
        new = _rebuild_value(old, fn)
        if new is not old:
            changes[f.name] = new
    rebuilt = replace(node, **changes) if changes else node
    return fn(rebuilt)
