"""Tests for the SQL parser (both dialects)."""

import datetime
from decimal import Decimal

import pytest

from repro.errors import SqlParseError
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_expression, parse_statement


class TestExpressions:
    def test_literals(self):
        assert parse_expression("42") == n.Literal(42)
        assert parse_expression("3.5") == n.Literal(Decimal("3.5"))
        assert parse_expression("1e3") == n.Literal(1000.0)
        assert parse_expression("'hi'") == n.Literal("hi")
        assert parse_expression("NULL") == n.Literal(None)
        assert parse_expression("TRUE") == n.Literal(True)

    def test_date_literal(self):
        assert parse_expression("DATE '2012-01-02'") == \
            n.Literal(datetime.date(2012, 1, 2))

    def test_column_refs(self):
        assert parse_expression("a") == n.ColumnRef("a")
        assert parse_expression("t.a") == n.ColumnRef("a", table="t")

    def test_host_param_legacy_only(self):
        expr = parse_expression(":X", dialect="legacy")
        assert expr == n.HostParam("X")

    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, n.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, n.BinaryOp) and expr.right.op == "*"

    def test_precedence_logic(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, n.UnaryOp) and expr.op == "NOT"

    def test_unary_minus_folds_literal(self):
        assert parse_expression("-5") == n.Literal(-5)

    def test_unary_minus_on_expression(self):
        expr = parse_expression("-(a)")
        assert isinstance(expr, n.UnaryOp) and expr.op == "-"

    def test_concat(self):
        expr = parse_expression("a || b || c")
        assert expr.op == "||"
        assert expr.left.op == "||"

    def test_is_null_and_negation(self):
        assert parse_expression("a IS NULL") == \
            n.IsNull(n.ColumnRef("a"))
        assert parse_expression("a IS NOT NULL").negated

    def test_in_list(self):
        expr = parse_expression("a IN (1, 2, 3)")
        assert isinstance(expr, n.InExpr)
        assert len(expr.items) == 3

    def test_not_in(self):
        assert parse_expression("a NOT IN (1)").negated

    def test_between(self):
        expr = parse_expression("a BETWEEN 1 AND 10")
        assert isinstance(expr, n.Between)

    def test_like(self):
        expr = parse_expression("a LIKE 'x%'")
        assert isinstance(expr, n.Like)

    def test_cast_plain(self):
        expr = parse_expression("CAST(a AS INTEGER)")
        assert isinstance(expr, n.Cast)
        assert expr.type.base == "INTEGER"

    def test_cast_with_format_legacy(self):
        expr = parse_expression(
            "CAST(:D AS DATE FORMAT 'YYYY-MM-DD')", dialect="legacy")
        assert expr.format == "YYYY-MM-DD"

    def test_cast_with_format_rejected_in_cdw(self):
        with pytest.raises(SqlParseError):
            parse_expression(
                "CAST(a AS DATE FORMAT 'YYYY-MM-DD')", dialect="cdw")

    def test_try_cast(self):
        expr = parse_expression("TRY_CAST(a AS INTEGER)")
        assert isinstance(expr, n.Cast) and expr.safe
        assert not parse_expression("CAST(a AS INTEGER)").safe
        with pytest.raises(SqlParseError):
            parse_expression(
                "TRY_CAST(a AS DATE FORMAT 'YYYY-MM-DD')", dialect="legacy")

    def test_trim_variants(self):
        assert parse_expression("TRIM(a)").name == "TRIM"
        assert parse_expression("TRIM(LEADING FROM a)").name == "LTRIM"
        assert parse_expression("TRIM(TRAILING FROM a)").name == "RTRIM"

    def test_position(self):
        expr = parse_expression("POSITION('x' IN a)")
        assert expr.name == "POSITION"
        assert expr.args[0] == n.Literal("x")

    def test_substring_from_for(self):
        expr = parse_expression("SUBSTRING(a FROM 2 FOR 3)")
        assert expr.name == "SUBSTR"
        assert len(expr.args) == 3

    def test_case_searched(self):
        expr = parse_expression(
            "CASE WHEN a = 1 THEN 'one' ELSE 'other' END")
        assert isinstance(expr, n.CaseExpr)
        assert expr.else_result == n.Literal("other")

    def test_case_simple_desugars(self):
        expr = parse_expression("CASE a WHEN 1 THEN 'one' END")
        condition = expr.whens[0].condition
        assert isinstance(condition, n.BinaryOp) and condition.op == "="

    def test_function_call_with_distinct(self):
        expr = parse_expression("COUNT(DISTINCT a)")
        assert expr.distinct

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr.args[0], n.Star)

    def test_trailing_garbage_raises(self):
        with pytest.raises(SqlParseError):
            parse_expression("1 2")


class TestSelect:
    def test_simple(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert isinstance(stmt, n.Select)
        assert len(stmt.items) == 2
        assert stmt.from_.name == "t"

    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, n.Star)

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t AS u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_.alias == "u"

    def test_qualified_table_name(self):
        stmt = parse_statement("SELECT * FROM PROD.CUSTOMER")
        assert stmt.from_.name == "PROD.CUSTOMER"

    def test_full_clause_set(self):
        stmt = parse_statement(
            "SELECT a, COUNT(*) FROM t WHERE b > 0 GROUP BY a "
            "HAVING COUNT(*) > 1 ORDER BY 2 DESC LIMIT 5")
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0][1] is False
        assert stmt.limit == 5

    def test_joins(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x "
            "LEFT JOIN c ON b.y = c.y")
        outer = stmt.from_
        assert isinstance(outer, n.Join) and outer.kind == "LEFT"
        inner = outer.left
        assert isinstance(inner, n.Join) and inner.kind == "INNER"

    def test_cross_join_comma(self):
        stmt = parse_statement("SELECT * FROM a, b")
        assert stmt.from_.kind == "CROSS"

    def test_subquery_in_where(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE a IN (SELECT b FROM u)")
        assert stmt.where.subquery is not None

    def test_exists(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)")
        assert isinstance(stmt.where, n.Exists)

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct


class TestDml:
    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t VALUES (1, 'x')")
        assert isinstance(stmt.source, n.Values)

    def test_insert_with_columns(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ["a", "b"]

    def test_insert_multi_row(self):
        stmt = parse_statement("INSERT INTO t VALUES (1), (2), (3)")
        assert len(stmt.source.rows) == 3

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a FROM u")
        assert isinstance(stmt.source, n.Select)

    def test_update(self):
        stmt = parse_statement(
            "UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_update_from(self):
        stmt = parse_statement(
            "UPDATE t SET a = s.a FROM stg s WHERE t.k = s.k",
            dialect="cdw")
        assert stmt.from_.alias == "s"

    def test_legacy_upsert(self):
        stmt = parse_statement(
            "UPDATE t SET a = :A WHERE k = :K "
            "ELSE INSERT INTO t VALUES (:K, :A)", dialect="legacy")
        assert isinstance(stmt, n.Upsert)

    def test_upsert_rejected_in_cdw(self):
        with pytest.raises(SqlParseError):
            parse_statement(
                "UPDATE t SET a = 1 WHERE k = 1 "
                "ELSE INSERT INTO t VALUES (1, 1)", dialect="cdw")

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, n.Delete)

    def test_delete_using(self):
        stmt = parse_statement(
            "DELETE FROM t USING s WHERE t.k = s.k", dialect="cdw")
        assert stmt.using is not None

    def test_merge(self):
        stmt = parse_statement(
            "MERGE INTO t USING s ON t.k = s.k "
            "WHEN MATCHED THEN UPDATE SET v = s.v "
            "WHEN NOT MATCHED THEN INSERT (k, v) VALUES (s.k, s.v)",
            dialect="cdw")
        assert isinstance(stmt, n.Merge)
        assert stmt.matched.assignments[0].column == "v"
        assert stmt.not_matched.columns == ["k", "v"]

    def test_merge_delete_clause(self):
        stmt = parse_statement(
            "MERGE INTO t USING s ON t.k = s.k "
            "WHEN MATCHED THEN DELETE", dialect="cdw")
        assert stmt.matched.delete


class TestDdl:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR(5), "
            "UNIQUE (a))")
        assert isinstance(stmt, n.CreateTable)
        assert not stmt.columns[0].nullable
        assert stmt.unique == [["a"]]

    def test_create_table_if_not_exists(self):
        stmt = parse_statement("CREATE TABLE IF NOT EXISTS t (a INT)",
                               dialect="cdw")
        assert stmt.if_not_exists

    def test_inline_unique(self):
        stmt = parse_statement("CREATE TABLE t (a INT UNIQUE)",
                               dialect="cdw")
        assert stmt.unique == [["a"]]

    def test_primary_key(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT, PRIMARY KEY (a))", dialect="cdw")
        assert stmt.unique == [["a"]]

    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_copy_into_cdw_only(self):
        stmt = parse_statement(
            "COPY INTO t FROM 'store://c/p/' FORMAT csv "
            "DELIMITER ';' COMPRESSION gzip", dialect="cdw")
        assert isinstance(stmt, n.CopyInto)
        assert stmt.compression == "gzip"
        assert stmt.delimiter == ";"
        with pytest.raises(SqlParseError):
            parse_statement("COPY INTO t FROM 'x'", dialect="legacy")

    def test_unparseable_statement_raises(self):
        with pytest.raises(SqlParseError):
            parse_statement("GRANT ALL TO bob")
