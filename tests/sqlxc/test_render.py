"""Renderer tests, including the parse -> render -> parse fixpoint."""

import pytest

from repro.errors import SqlTranslationError
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_statement
from repro.sqlxc.render import render, render_expr

FIXPOINT_STATEMENTS = [
    ("SELECT a, b AS x FROM t WHERE a > 1 ORDER BY a LIMIT 3", "cdw"),
    ("SELECT DISTINCT t.a FROM s AS t GROUP BY t.a HAVING COUNT(*) > 1",
     "cdw"),
    ("SELECT * FROM a INNER JOIN b ON a.x = b.x", "cdw"),
    ("SELECT * FROM a LEFT JOIN b ON a.x = b.x", "cdw"),
    ("INSERT INTO t (a, b) VALUES (1, 'x''y')", "cdw"),
    ("INSERT INTO t SELECT a FROM u WHERE a IS NOT NULL", "cdw"),
    ("UPDATE t AS x SET a = (x.a + 1) FROM s WHERE x.k = s.k", "cdw"),
    ("DELETE FROM t USING s WHERE t.k = s.k", "cdw"),
    ("MERGE INTO t USING s ON t.k = s.k WHEN MATCHED THEN UPDATE SET "
     "v = s.v WHEN NOT MATCHED THEN INSERT (k, v) VALUES (s.k, s.v)",
     "cdw"),
    ("CREATE TABLE t (a INT NOT NULL, b NVARCHAR(5), UNIQUE (a))", "cdw"),
    ("DROP TABLE IF EXISTS t", "cdw"),
    ("COPY INTO t FROM 'store://c/p/' FORMAT csv COMPRESSION gzip",
     "cdw"),
    ("SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t", "cdw"),
    ("SELECT a FROM t WHERE a BETWEEN 1 AND 2 AND b LIKE 'x%'", "cdw"),
    ("SELECT a FROM t WHERE a IN (SELECT b FROM u)", "cdw"),
    ("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)", "cdw"),
    ("INSERT INTO PROD.CUSTOMER VALUES (TRIM(:CUST_ID), "
     "CAST(:JOIN_DATE AS DATE FORMAT 'YYYY-MM-DD'))", "legacy"),
    ("UPDATE t SET a = :A WHERE k = :K ELSE INSERT INTO t VALUES "
     "(:K, :A)", "legacy"),
    ("SELECT TRY_CAST(a AS INT), TRY_TO_DATE(b, 'YYYY-MM-DD') FROM t",
     "cdw"),
]


@pytest.mark.parametrize("sql,dialect", FIXPOINT_STATEMENTS)
def test_parse_render_parse_fixpoint(sql, dialect):
    """render(parse(x)) must parse back to the same rendering."""
    first = render(parse_statement(sql, dialect), dialect)
    second = render(parse_statement(first, dialect), dialect)
    assert first == second


class TestRenderDetails:
    def test_string_escaping(self):
        assert render_expr(n.Literal("it's")) == "'it''s'"

    def test_identifier_quoting(self):
        assert render_expr(n.ColumnRef("weird name")) == '"weird name"'
        assert render_expr(n.ColumnRef("plain")) == "plain"

    def test_date_literal(self):
        import datetime
        assert render_expr(n.Literal(datetime.date(2020, 1, 2))) == \
            "DATE '2020-01-02'"

    def test_null_true_false(self):
        assert render_expr(n.Literal(None)) == "NULL"
        assert render_expr(n.Literal(True)) == "TRUE"

    def test_bound_param_renders_as_literal(self):
        assert render_expr(n.BoundParam("X", 5)) == "5"

    def test_host_param_legacy_only(self):
        assert render_expr(n.HostParam("X"), "legacy") == ":X"
        with pytest.raises(SqlTranslationError):
            render_expr(n.HostParam("X"), "cdw")

    def test_format_cast_cdw_rejected(self):
        cast = n.Cast(n.ColumnRef("a"), n.TypeName("DATE"),
                      format="YYYY-MM-DD")
        with pytest.raises(SqlTranslationError):
            render_expr(cast, "cdw")

    def test_upsert_cdw_rejected(self):
        stmt = parse_statement(
            "UPDATE t SET a = 1 WHERE k = 1 ELSE INSERT INTO t "
            "VALUES (1, 1)", dialect="legacy")
        with pytest.raises(SqlTranslationError):
            render(stmt, "cdw")

    def test_copy_into_legacy_rejected(self):
        stmt = parse_statement(
            "COPY INTO t FROM 'store://c/p/'", dialect="cdw")
        with pytest.raises(SqlTranslationError):
            render(stmt, "legacy")
