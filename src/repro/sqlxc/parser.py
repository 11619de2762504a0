"""Recursive-descent SQL parser producing the shared AST.

One grammar serves both dialects; ``dialect`` gates the few constructs that
exist on only one side (``FORMAT`` casts, ``UPDATE .. ELSE INSERT`` upserts
and host ``:params`` are legacy; ``COPY INTO`` is CDW).
"""

from __future__ import annotations

from decimal import Decimal

from repro.errors import SqlParseError
from repro.sqlxc import nodes as n
from repro.sqlxc.lexer import Token, TokenType, tokenize
from repro import values

__all__ = ["parse_statement", "parse_expression"]

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}
_TYPE_KEYWORDS = {"DATE", "TIMESTAMP", "TIME"}


class _Parser:
    def __init__(self, sql: str, dialect: str):
        self.dialect = dialect
        self.tokens = tokenize(sql, dialect)
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *keywords: str) -> Token | None:
        if self.current.match(*keywords):
            return self.advance()
        return None

    def expect_keyword(self, *keywords: str) -> Token:
        token = self.accept_keyword(*keywords)
        if token is None:
            raise SqlParseError(
                f"expected {'/'.join(keywords)}, got {self.current.value!r}",
                self.current)
        return token

    def accept_op(self, *ops: str) -> Token | None:
        if self.current.type is TokenType.OP and self.current.value in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> Token:
        token = self.accept_op(op)
        if token is None:
            raise SqlParseError(
                f"expected {op!r}, got {self.current.value!r}", self.current)
        return token

    def accept_word(self, *words: str) -> Token | None:
        """Accept a *contextual* keyword (lexed as IDENT, e.g. ADD/TO).

        Matching is case-insensitive; real keywords match too, so a
        grammar word may later be promoted to the reserved set without
        touching its call sites.
        """
        token = self.current
        if token.type in (TokenType.IDENT, TokenType.KEYWORD) \
                and token.value.upper() in words:
            return self.advance()
        return None

    def expect_word(self, *words: str) -> Token:
        """Like :meth:`expect_keyword` for contextual keywords."""
        token = self.accept_word(*words)
        if token is None:
            raise SqlParseError(
                f"expected {'/'.join(words)}, got {self.current.value!r}",
                self.current)
        return token

    def expect_ident(self) -> str:
        if self.current.type is TokenType.IDENT:
            return self.advance().value
        # Non-reserved use of a keyword as an identifier (e.g. a column
        # named DATE) is not supported; fail clearly.
        raise SqlParseError(
            f"expected identifier, got {self.current.value!r}", self.current)

    # -- entry points ---------------------------------------------------------

    def parse_statement(self) -> n.Statement:
        statement = self._statement()
        self.accept_op(";")
        if self.current.type is not TokenType.EOF:
            raise SqlParseError(
                f"trailing input at {self.current.value!r}", self.current)
        return statement

    def _statement(self) -> n.Statement:
        token = self.current
        if token.match("SELECT"):
            return self._query()
        if token.match("INSERT"):
            return self._insert()
        if token.match("UPDATE"):
            return self._update()
        if token.match("DELETE"):
            return self._delete()
        if token.match("MERGE"):
            return self._merge()
        if token.match("CREATE"):
            return self._create_table()
        if token.match("ALTER"):
            return self._alter_table()
        if token.match("DROP"):
            return self._drop_table()
        if token.match("COPY"):
            if self.dialect != "cdw":
                raise SqlParseError("COPY INTO is a CDW-only statement")
            return self._copy_into()
        raise SqlParseError(
            f"cannot parse statement starting with {token.value!r}", token)

    # -- SELECT ---------------------------------------------------------------

    def _query(self) -> "n.Select | n.SetOp":
        """A SELECT possibly chained with UNION/EXCEPT/INTERSECT."""
        left: n.Select | n.SetOp = self._select()
        while self.current.match("UNION", "EXCEPT", "INTERSECT"):
            op = self.advance().value
            keep_all = False
            if op == "UNION" and self.accept_keyword("ALL"):
                keep_all = True
            if self.accept_op("("):
                right: n.Select | n.SetOp = self._query()
                self.expect_op(")")
            else:
                right = self._select()
            left = n.SetOp(op, left, right, keep_all)
        return left

    def _select(self) -> n.Select:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT") is not None
        items = [self._select_item()]
        while self.accept_op(","):
            items.append(self._select_item())
        from_ = None
        if self.accept_keyword("FROM"):
            from_ = self._from_clause()
        where = self._expr() if self.accept_keyword("WHERE") else None
        group_by: list[n.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self._expr())
            while self.accept_op(","):
                group_by.append(self._expr())
        having = self._expr() if self.accept_keyword("HAVING") else None
        order_by: list[tuple[n.Expr, bool]] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept_op(","):
                order_by.append(self._order_item())
        limit = None
        if self.accept_keyword("LIMIT"):
            if self.current.type is not TokenType.NUMBER:
                raise SqlParseError("LIMIT expects a number", self.current)
            limit = int(self.advance().value)
        return n.Select(items=items, from_=from_, where=where,
                        group_by=group_by, having=having,
                        order_by=order_by, limit=limit, distinct=distinct)

    def _select_item(self) -> n.SelectItem:
        if self.accept_op("*"):
            return n.SelectItem(n.Star())
        expr = self._expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return n.SelectItem(expr, alias)

    def _order_item(self) -> tuple[n.Expr, bool]:
        expr = self._expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return (expr, ascending)

    def _table_name(self) -> str:
        name = self.expect_ident()
        while self.accept_op("."):
            name += "." + self.expect_ident()
        return name

    def _table_ref(self) -> "n.TableRef | n.DerivedTable":
        if self.accept_op("("):
            query = self._query()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias = self.expect_ident()
            return n.DerivedTable(query, alias)
        name = self._table_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return n.TableRef(name, alias)

    def _from_clause(self) -> n.TableRef | n.Join:
        left: n.TableRef | n.Join = self._table_ref()
        while True:
            kind = None
            if self.accept_keyword("INNER"):
                kind = "INNER"
                self.expect_keyword("JOIN")
            elif self.accept_keyword("LEFT"):
                self.accept_keyword("OUTER")
                kind = "LEFT"
                self.expect_keyword("JOIN")
            elif self.accept_keyword("RIGHT"):
                self.accept_keyword("OUTER")
                kind = "RIGHT"
                self.expect_keyword("JOIN")
            elif self.accept_keyword("FULL"):
                self.accept_keyword("OUTER")
                kind = "FULL"
                self.expect_keyword("JOIN")
            elif self.accept_keyword("CROSS"):
                kind = "CROSS"
                self.expect_keyword("JOIN")
            elif self.accept_keyword("JOIN"):
                kind = "INNER"
            elif self.accept_op(","):
                kind = "CROSS"
            else:
                return left
            right = self._table_ref()
            on = None
            if kind != "CROSS":
                self.expect_keyword("ON")
                on = self._expr()
            left = n.Join(left, right, kind, on)

    # -- DML --------------------------------------------------------------------

    def _insert(self) -> n.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = n.TableRef(self._table_name())
        columns: list[str] = []
        if (self.current.type is TokenType.OP and self.current.value == "("
                and not self.peek().match("SELECT")):
            self.expect_op("(")
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        if self.accept_keyword("VALUES"):
            rows = [self._value_row()]
            while self.accept_op(","):
                rows.append(self._value_row())
            return n.Insert(table, columns, n.Values(rows))
        if self.current.match("SELECT") or (
                self.current.type is TokenType.OP
                and self.current.value == "("):
            wrapped = self.accept_op("(") is not None
            select = self._query()
            if wrapped:
                self.expect_op(")")
            return n.Insert(table, columns, select)
        raise SqlParseError(
            "INSERT expects VALUES or SELECT", self.current)

    def _value_row(self) -> list[n.Expr]:
        self.expect_op("(")
        row = [self._expr()]
        while self.accept_op(","):
            row.append(self._expr())
        self.expect_op(")")
        return row

    def _update(self) -> n.Update | n.Upsert:
        self.expect_keyword("UPDATE")
        table = self._table_ref()
        self.expect_keyword("SET")
        assignments = [self._assignment()]
        while self.accept_op(","):
            assignments.append(self._assignment())
        from_ = self._from_clause() if self.accept_keyword("FROM") else None
        where = self._expr() if self.accept_keyword("WHERE") else None
        update = n.Update(table, assignments, from_, where)
        if self.current.match("ELSE"):
            if self.dialect != "legacy":
                raise SqlParseError(
                    "UPDATE .. ELSE INSERT is a legacy-only upsert")
            self.expect_keyword("ELSE")
            insert = self._insert()
            return n.Upsert(update, insert)
        return update

    def _assignment(self) -> n.Assignment:
        column = self.expect_ident()
        self.expect_op("=")
        return n.Assignment(column, self._expr())

    def _delete(self) -> n.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self._table_ref()
        using = self._from_clause() if self.accept_keyword("USING") else None
        where = self._expr() if self.accept_keyword("WHERE") else None
        return n.Delete(table, using, where)

    def _merge(self) -> n.Merge:
        self.expect_keyword("MERGE")
        self.expect_keyword("INTO")
        target = self._table_ref()
        self.expect_keyword("USING")
        source: n.TableRef | n.Select | n.SetOp
        source_alias = None
        if self.accept_op("("):
            source = self._query()
            self.expect_op(")")
            self.accept_keyword("AS")
            source_alias = self.expect_ident()
        else:
            ref = self._table_ref()
            source = ref
            source_alias = ref.alias
        self.expect_keyword("ON")
        on = self._expr()
        matched = None
        not_matched = None
        while self.current.match("WHEN"):
            self.expect_keyword("WHEN")
            if self.accept_keyword("NOT"):
                self.expect_keyword("MATCHED")
                condition = (self._expr()
                             if self.accept_keyword("AND") else None)
                self.expect_keyword("THEN")
                self.expect_keyword("INSERT")
                columns: list[str] = []
                if self.accept_op("("):
                    columns.append(self.expect_ident())
                    while self.accept_op(","):
                        columns.append(self.expect_ident())
                    self.expect_op(")")
                self.expect_keyword("VALUES")
                row = self._value_row()
                not_matched = n.MergeNotMatched(columns, row, condition)
            else:
                self.expect_keyword("MATCHED")
                condition = (self._expr()
                             if self.accept_keyword("AND") else None)
                self.expect_keyword("THEN")
                if self.accept_keyword("DELETE"):
                    matched = n.MergeMatched(
                        delete=True, condition=condition)
                else:
                    self.expect_keyword("UPDATE")
                    self.expect_keyword("SET")
                    assignments = [self._assignment()]
                    while self.accept_op(","):
                        assignments.append(self._assignment())
                    matched = n.MergeMatched(assignments, False, condition)
        return n.Merge(target, source, source_alias, on, matched, not_matched)

    # -- DDL ----------------------------------------------------------------------

    def _create_table(self) -> "n.CreateTable | n.CreateTableAs":
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            # "EXISTS" lexes as the EXISTS keyword
            self.expect_keyword("EXISTS")
            if_not_exists = True
        table = n.TableRef(self._table_name())
        if self.accept_keyword("AS"):
            wrapped = self.accept_op("(") is not None
            query = self._query()
            if wrapped:
                self.expect_op(")")
            return n.CreateTableAs(table, query, if_not_exists)
        self.expect_op("(")
        columns: list[n.ColumnDef] = []
        unique: list[list[str]] = []
        while True:
            if self.current.match("UNIQUE"):
                self.advance()
                unique.append(self._paren_name_list())
            elif self.current.match("PRIMARY"):
                self.advance()
                self.expect_keyword("KEY")
                unique.append(self._paren_name_list())
            elif self.current.match("CONSTRAINT"):
                self.advance()
                self.expect_ident()  # constraint name, ignored
                if self.accept_keyword("UNIQUE") or (
                        self.accept_keyword("PRIMARY")
                        and self.expect_keyword("KEY")):
                    unique.append(self._paren_name_list())
            else:
                name = self.expect_ident()
                type_name = self._type_name()
                nullable = True
                if self.accept_keyword("NOT"):
                    self.expect_keyword("NULL")
                    nullable = False
                elif self.accept_keyword("NULL"):
                    nullable = True
                if self.accept_keyword("UNIQUE"):
                    unique.append([name])
                columns.append(n.ColumnDef(name, type_name, nullable))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return n.CreateTable(table, columns, unique, if_not_exists)

    def _alter_table(self) -> n.AlterTable:
        """``ALTER TABLE t ADD [COLUMN] [IF NOT EXISTS] name type
        [NOT NULL | NULL]`` or
        ``ALTER TABLE t RENAME [COLUMN] old TO new``."""
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = n.TableRef(self._table_name())
        if self.accept_word("ADD"):
            self.accept_word("COLUMN")
            if_not_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("NOT")
                self.expect_keyword("EXISTS")
                if_not_exists = True
            name = self.expect_ident()
            type_name = self._type_name()
            nullable = True
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
            else:
                self.accept_keyword("NULL")
            return n.AlterTable(
                table, action="add",
                column=n.ColumnDef(name, type_name, nullable),
                if_not_exists=if_not_exists)
        self.expect_word("RENAME")
        self.accept_word("COLUMN")
        old_name = self.expect_ident()
        self.expect_word("TO")
        new_name = self.expect_ident()
        return n.AlterTable(table, action="rename",
                            old_name=old_name, new_name=new_name)

    def _paren_name_list(self) -> list[str]:
        self.expect_op("(")
        names = [self.expect_ident()]
        while self.accept_op(","):
            names.append(self.expect_ident())
        self.expect_op(")")
        return names

    def _drop_table(self) -> n.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return n.DropTable(n.TableRef(self._table_name()), if_exists)

    def _copy_into(self) -> n.CopyInto:
        self.expect_keyword("COPY")
        self.expect_keyword("INTO")
        table = n.TableRef(self._table_name())
        self.expect_keyword("FROM")
        if self.current.type is not TokenType.STRING:
            raise SqlParseError(
                "COPY INTO expects a quoted source URL", self.current)
        url = self.advance().value
        file_format = "csv"
        compression = None
        delimiter = ","
        while True:
            if self.accept_keyword("FORMAT"):
                file_format = self._ident_or_string().lower()
            elif self.accept_keyword("COMPRESSION"):
                compression = self._ident_or_string().lower()
            elif self.accept_keyword("DELIMITER"):
                delimiter = self._ident_or_string()
            else:
                break
        return n.CopyInto(table, url, file_format, compression, delimiter)

    def _ident_or_string(self) -> str:
        if self.current.type in (TokenType.IDENT, TokenType.STRING):
            return self.advance().value
        raise SqlParseError(
            f"expected name or string, got {self.current.value!r}",
            self.current)

    def _type_name(self) -> n.TypeName:
        token = self.current
        if token.type is TokenType.IDENT or token.match(*_TYPE_KEYWORDS):
            base = self.advance().value.upper()
        else:
            raise SqlParseError(
                f"expected type name, got {token.value!r}", token)
        if base == "DOUBLE" and self.current.type is TokenType.IDENT \
                and self.current.value.upper() == "PRECISION":
            self.advance()
            base = "DOUBLE"
        length = scale = None
        if self.accept_op("("):
            if self.current.type is not TokenType.NUMBER:
                raise SqlParseError("expected length", self.current)
            length = int(self.advance().value)
            if self.accept_op(","):
                scale = int(self.advance().value)
            self.expect_op(")")
        return n.TypeName(base, length, scale, dialect=self.dialect)

    # -- expressions -----------------------------------------------------------

    def _expr(self) -> n.Expr:
        return self._or_expr()

    def _or_expr(self) -> n.Expr:
        left = self._and_expr()
        while self.accept_keyword("OR"):
            left = n.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> n.Expr:
        left = self._not_expr()
        while self.accept_keyword("AND"):
            left = n.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> n.Expr:
        if self.accept_keyword("NOT"):
            return n.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> n.Expr:
        left = self._concat()
        while True:
            if self.current.type is TokenType.OP \
                    and self.current.value in _COMPARISON_OPS:
                op = self.advance().value
                op = "<>" if op == "!=" else op
                left = n.BinaryOp(op, left, self._concat())
                continue
            if self.current.match("IS"):
                self.advance()
                negated = self.accept_keyword("NOT") is not None
                self.expect_keyword("NULL")
                left = n.IsNull(left, negated)
                continue
            negated = False
            if self.current.match("NOT") and self.peek().match(
                    "IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
            if self.accept_keyword("IN"):
                self.expect_op("(")
                if self.current.match("SELECT"):
                    subquery = self._query()
                    self.expect_op(")")
                    left = n.InExpr(left, subquery=subquery, negated=negated)
                else:
                    items = [self._expr()]
                    while self.accept_op(","):
                        items.append(self._expr())
                    self.expect_op(")")
                    left = n.InExpr(left, items=items, negated=negated)
                continue
            if self.accept_keyword("BETWEEN"):
                low = self._concat()
                self.expect_keyword("AND")
                high = self._concat()
                left = n.Between(left, low, high, negated)
                continue
            if self.accept_keyword("LIKE"):
                left = n.Like(left, self._concat(), negated)
                continue
            return left

    def _concat(self) -> n.Expr:
        left = self._additive()
        while self.accept_op("||"):
            left = n.BinaryOp("||", left, self._additive())
        return left

    def _additive(self) -> n.Expr:
        left = self._multiplicative()
        while True:
            if self.accept_op("+"):
                left = n.BinaryOp("+", left, self._multiplicative())
            elif self.accept_op("-"):
                left = n.BinaryOp("-", left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> n.Expr:
        left = self._unary()
        while True:
            if self.accept_op("*"):
                left = n.BinaryOp("*", left, self._unary())
            elif self.accept_op("/"):
                left = n.BinaryOp("/", left, self._unary())
            elif self.accept_op("%"):
                left = n.BinaryOp("%", left, self._unary())
            else:
                return left

    def _unary(self) -> n.Expr:
        if self.accept_op("-"):
            operand = self._unary()
            # Fold a negated numeric literal so that -1 stays Literal(-1)
            # (keeps render/parse a fixpoint).
            if isinstance(operand, n.Literal) and isinstance(
                    operand.value, (int, float, Decimal)) \
                    and not isinstance(operand.value, bool):
                return n.Literal(-operand.value)
            return n.UnaryOp("-", operand)
        if self.accept_op("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> n.Expr:
        token = self.current

        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                if "e" in text or "E" in text:
                    return n.Literal(float(text))
                return n.Literal(Decimal(text))
            return n.Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return n.Literal(token.value)
        if token.type is TokenType.HOSTPARAM:
            self.advance()
            return n.HostParam(token.value)
        if token.match("NULL"):
            self.advance()
            return n.Literal(None)
        if token.match("TRUE"):
            self.advance()
            return n.Literal(True)
        if token.match("FALSE"):
            self.advance()
            return n.Literal(False)
        if token.match("DATE") and self.peek().type is TokenType.STRING:
            self.advance()
            literal = self.advance().value
            return n.Literal(values.parse_date(literal))
        if token.match("TIMESTAMP") and self.peek().type is TokenType.STRING:
            self.advance()
            literal = self.advance().value
            return n.Literal(values.parse_timestamp(literal))
        if token.match("CAST"):
            return self._cast()
        if token.match("CASE"):
            return self._case()
        if token.match("TRIM"):
            return self._trim()
        if token.match("POSITION"):
            return self._position()
        if token.match("SUBSTRING"):
            return self._substring()
        if token.match("EXTRACT"):
            return self._extract()
        if token.match("EXISTS"):
            self.advance()
            self.expect_op("(")
            subquery = self._query()
            self.expect_op(")")
            return n.Exists(subquery)
        if self.accept_op("("):
            if self.current.match("SELECT"):
                subquery = self._query()
                self.expect_op(")")
                return n.SubqueryExpr(subquery)
            expr = self._expr()
            self.expect_op(")")
            return expr
        if token.type is TokenType.IDENT:
            if token.value.upper() == "TRY_CAST" \
                    and self.peek().type is TokenType.OP \
                    and self.peek().value == "(":
                return self._cast()
            return self._ident_expr()
        raise SqlParseError(
            f"unexpected token {token.value!r} in expression", token)

    def _ident_expr(self) -> n.Expr:
        name = self.advance().value
        if self.current.type is TokenType.OP and self.current.value == "(":
            self.advance()
            distinct = self.accept_keyword("DISTINCT") is not None
            args: list[n.Expr] = []
            if self.accept_op("*"):
                args.append(n.Star())
            elif not (self.current.type is TokenType.OP
                      and self.current.value == ")"):
                args.append(self._expr())
                while self.accept_op(","):
                    args.append(self._expr())
            self.expect_op(")")
            return n.FuncCall(name.upper(), args, distinct)
        parts = [name]
        while self.accept_op("."):
            parts.append(self.expect_ident())
        if len(parts) == 1:
            return n.ColumnRef(name)
        # a.b -> column b of binding a; a.b.c -> column c of the
        # schema-qualified table a.b.
        return n.ColumnRef(parts[-1], table=".".join(parts[:-1]))

    def _cast(self) -> n.Cast:
        """``CAST(x AS type [FORMAT 'fmt'])`` or ``TRY_CAST(x AS type)``."""
        safe = self.advance().value.upper() == "TRY_CAST"
        self.expect_op("(")
        operand = self._expr()
        self.expect_keyword("AS")
        type_name = self._type_name()
        fmt = None
        if self.accept_keyword("FORMAT"):
            if safe:
                raise SqlParseError("TRY_CAST takes no FORMAT")
            if self.dialect != "legacy":
                raise SqlParseError(
                    "CAST .. FORMAT is a legacy-only construct")
            if self.current.type is not TokenType.STRING:
                raise SqlParseError(
                    "FORMAT expects a string literal", self.current)
            fmt = self.advance().value
        self.expect_op(")")
        return n.Cast(operand, type_name, fmt, safe)

    def _case(self) -> n.CaseExpr:
        self.expect_keyword("CASE")
        base: n.Expr | None = None
        if not self.current.match("WHEN"):
            base = self._expr()
        whens: list[n.WhenClause] = []
        while self.accept_keyword("WHEN"):
            condition = self._expr()
            if base is not None:
                condition = n.BinaryOp("=", base, condition)
            self.expect_keyword("THEN")
            whens.append(n.WhenClause(condition, self._expr()))
        else_result = self._expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        if not whens:
            raise SqlParseError("CASE needs at least one WHEN")
        return n.CaseExpr(whens, else_result)

    def _trim(self) -> n.FuncCall:
        self.expect_keyword("TRIM")
        self.expect_op("(")
        side = "BOTH"
        if self.current.match("LEADING", "TRAILING", "BOTH"):
            side = self.advance().value
            self.expect_keyword("FROM")
        operand = self._expr()
        self.expect_op(")")
        name = {"BOTH": "TRIM", "LEADING": "LTRIM",
                "TRAILING": "RTRIM"}[side]
        return n.FuncCall(name, [operand])

    def _position(self) -> n.FuncCall:
        self.expect_keyword("POSITION")
        self.expect_op("(")
        # The needle parses below comparison precedence so that the IN
        # separator is not mistaken for an IN-list predicate.
        needle = self._concat()
        self.expect_keyword("IN")
        haystack = self._expr()
        self.expect_op(")")
        return n.FuncCall("POSITION", [needle, haystack])

    def _extract(self) -> n.FuncCall:
        self.expect_keyword("EXTRACT")
        self.expect_op("(")
        token = self.current
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            part = self.advance().value.upper()
        else:
            raise SqlParseError(
                f"EXTRACT expects a date part, got {token.value!r}",
                token)
        self.expect_keyword("FROM")
        operand = self._expr()
        self.expect_op(")")
        return n.FuncCall("EXTRACT", [n.Literal(part), operand])

    def _substring(self) -> n.FuncCall:
        self.expect_keyword("SUBSTRING")
        self.expect_op("(")
        operand = self._expr()
        self.expect_keyword("FROM")
        start = self._expr()
        length = None
        if self.accept_keyword("FOR"):
            length = self._expr()
        self.expect_op(")")
        args = [operand, start] + ([length] if length is not None else [])
        return n.FuncCall("SUBSTR", args)


def parse_statement(sql: str, dialect: str = "legacy") -> n.Statement:
    """Parse one SQL statement in the given dialect."""
    return _Parser(sql, dialect).parse_statement()


def parse_expression(sql: str, dialect: str = "legacy") -> n.Expr:
    """Parse a standalone scalar expression (used in tests and tools)."""
    parser = _Parser(sql, dialect)
    expr = parser._expr()
    if parser.current.type is not TokenType.EOF:
        raise SqlParseError(
            f"trailing input at {parser.current.value!r}", parser.current)
    return expr
