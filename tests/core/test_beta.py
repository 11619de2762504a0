"""Beta tests: DML shaping over staging, apply, uniqueness emulation."""

import datetime

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.beta import SEQ_COLUMN, Beta
from repro.core.config import HyperQConfig
from repro.core.converter import AcquisitionError
from repro.errors import SqlTranslationError
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.sqlxc.render import render

LAYOUT = Layout("L", [
    FieldDef("K", parse_type("varchar(10)")),
    FieldDef("V", parse_type("varchar(10)")),
    FieldDef("D", parse_type("varchar(10)")),
])


def make_rig(native_unique=True, config=None):
    engine = CdwEngine(store=CloudStore(), native_unique=native_unique)
    engine.execute("CREATE TABLE TGT (K NVARCHAR(10) NOT NULL, "
                   "V NVARCHAR(10), D DATE, UNIQUE (K))")
    engine.execute("CREATE TABLE STG (K NVARCHAR, V NVARCHAR, "
                   "D NVARCHAR, __SEQ BIGINT)")
    engine.execute("CREATE TABLE ET (SEQNO INT, ERRCODE INT, "
                   "ERRFIELD NVARCHAR(128), ERRMSG NVARCHAR(512), "
                   "__RULE_ID NVARCHAR(64), __REASON NVARCHAR(256))")
    engine.execute("CREATE TABLE UV (K NVARCHAR(10), V NVARCHAR(10), "
                   "D DATE, SEQNO INT, ERRCODE INT)")
    beta = Beta(engine, config or HyperQConfig())
    return engine, beta


def stage_rows(engine, rows):
    table = engine.table("STG")
    table.rows = [tuple(r) + (i,) for i, r in enumerate(rows)]


INSERT_SQL = ("insert into TGT values (trim(:K), :V, "
              "cast(:D as DATE format 'YYYY-MM-DD'))")


class TestPrepareDml:
    def test_insert_shape(self):
        engine, beta = make_rig()
        builder, kind = beta.prepare_dml(INSERT_SQL, LAYOUT, "STG")
        assert kind == "insert"
        sql = render(builder(5, 9))
        assert "FROM STG AS s" in sql
        assert f"s.{SEQ_COLUMN} BETWEEN 5 AND 9" in sql
        assert "TO_DATE(s.D, 'YYYY-MM-DD')" in sql

    def test_update_shape(self):
        engine, beta = make_rig()
        builder, kind = beta.prepare_dml(
            "update TGT set V = :V where TGT.K = :K", LAYOUT, "STG")
        assert kind == "update"
        sql = render(builder(0, 3))
        assert "UPDATE TGT SET" in sql
        assert "FROM STG AS s" in sql
        assert "BETWEEN 0 AND 3" in sql

    def test_delete_shape(self):
        engine, beta = make_rig()
        builder, kind = beta.prepare_dml(
            "delete from TGT where TGT.K = :K", LAYOUT, "STG")
        assert kind == "delete"
        assert "USING STG AS s" in render(builder(0, 0))

    def test_upsert_becomes_merge_over_staging(self):
        engine, beta = make_rig()
        builder, kind = beta.prepare_dml(
            "update TGT set V = :V where TGT.K = :K "
            "else insert into TGT values (:K, :V, NULL)", LAYOUT, "STG")
        assert kind == "merge"
        sql = render(builder(2, 4))
        assert sql.startswith("MERGE INTO TGT USING (SELECT")
        assert "BETWEEN 2 AND 4" in sql

    def test_multi_row_values_rejected(self):
        engine, beta = make_rig()
        with pytest.raises(SqlTranslationError):
            beta.prepare_dml(
                "insert into TGT values (:K, :V, NULL), (:K, :V, NULL)",
                LAYOUT, "STG")

    def test_select_rejected(self):
        engine, beta = make_rig()
        with pytest.raises(SqlTranslationError):
            beta.prepare_dml("select * from TGT", LAYOUT, "STG")


def apply(engine, beta, sql=INSERT_SQL, n=None, errors=(), **kwargs):
    if n is None:
        n = len(engine.table("STG").rows)
    chunk_records = {0: n + len(errors)}
    return beta.apply_dml(
        sql=sql, layout=LAYOUT, staging_table="STG",
        target_table="TGT", et_table="ET", uv_table="UV",
        chunk_records=chunk_records,
        acquisition_errors=list(errors), **kwargs)


class TestApply:
    def test_clean_load(self):
        engine, beta = make_rig()
        stage_rows(engine, [(" a ", "v1", "2020-01-01"),
                            ("b", "v2", "2020-01-02")])
        summary = apply(engine, beta)
        assert summary.rows_inserted == 2
        assert summary.statements == 1
        assert engine.query("SELECT K FROM TGT ORDER BY K") == \
            [("a",), ("b",)]

    def test_conversion_error_goes_to_et(self):
        engine, beta = make_rig()
        stage_rows(engine, [("a", "v", "2020-01-01"),
                            ("b", "v", "bad-date")])
        summary = apply(engine, beta)
        assert summary.rows_inserted == 1
        assert summary.et_errors == 1
        (row,) = engine.query(
            "SELECT SEQNO, ERRCODE, ERRFIELD, ERRMSG FROM ET")
        assert row[0] == 2
        assert row[1] == 3103
        assert row[2] == "D"
        assert "row number: 2" in row[3]

    def test_uniqueness_error_goes_to_uv_with_tuple(self):
        engine, beta = make_rig()
        stage_rows(engine, [("k1", "first", "2020-01-01"),
                            ("k1", "dup", "2020-01-02")])
        summary = apply(engine, beta)
        assert summary.uv_errors == 1
        (row,) = engine.query("SELECT K, V, SEQNO, ERRCODE FROM UV")
        assert row == ("k1", "dup", 2, 3805)
        # First occurrence won (legacy order semantics).
        assert engine.query("SELECT V FROM TGT") == [("first",)]

    def test_acquisition_errors_recorded_first(self):
        engine, beta = make_rig()
        stage_rows(engine, [("a", "v", "2020-01-01")])
        error = AcquisitionError(seq=1, code=2673, field=None,
                                 message="record has 2 fields")
        summary = apply(engine, beta, errors=[error])
        assert summary.et_errors == 1
        (row,) = engine.query("SELECT SEQNO, ERRCODE FROM ET")
        assert row == (2, 2673)

    def test_max_errors_range_report(self):
        engine, beta = make_rig()
        stage_rows(engine, [
            ("a", "v", "2020-01-01"),
            ("b", "v", "bad"),
            ("c", "v", "bad"),
            ("a", "v", "2020-12-01"),   # dup of row 1
            ("e", "v", "2020-12-01"),
        ])
        summary = apply(engine, beta, max_errors=2)
        messages = [r[0] for r in engine.query("SELECT ERRMSG FROM ET")]
        assert any("row numbers: (4, 5)" in m for m in messages)
        assert any("Max number of errors reached" in m for m in messages)
        assert summary.rows_inserted == 1

    def test_max_retries_range_report(self):
        engine, beta = make_rig()
        stage_rows(engine, [("a", "v", "bad")] * 8)
        summary = apply(engine, beta, max_retries=1)
        messages = [r[0] for r in engine.query("SELECT ERRMSG FROM ET")]
        assert all("Max number of retries reached" in m for m in messages)
        assert summary.rows_inserted == 0

    def test_update_apply(self):
        engine, beta = make_rig()
        engine.execute("INSERT INTO TGT VALUES ('a', 'old', NULL)")
        stage_rows(engine, [("a", "new", "x")])
        summary = apply(
            engine, beta,
            sql="update TGT set V = :V where TGT.K = trim(:K)")
        assert summary.rows_updated == 1
        assert engine.query("SELECT V FROM TGT") == [("new",)]

    def test_delete_apply(self):
        engine, beta = make_rig()
        engine.execute("INSERT INTO TGT VALUES ('a', 'x', NULL), "
                       "('b', 'y', NULL)")
        stage_rows(engine, [("a", "", "")])
        summary = apply(engine, beta,
                        sql="delete from TGT where TGT.K = trim(:K)")
        assert summary.rows_deleted == 1
        assert engine.query("SELECT K FROM TGT") == [("b",)]

    def test_upsert_apply(self):
        engine, beta = make_rig()
        engine.execute("INSERT INTO TGT VALUES ('a', 'old', NULL)")
        stage_rows(engine, [("a", "updated", "2020-01-01"),
                            ("c", "created", "2020-01-02")])
        summary = apply(
            engine, beta,
            sql="update TGT set V = :V where TGT.K = :K else insert "
                "into TGT values (:K, :V, "
                "cast(:D as DATE format 'YYYY-MM-DD'))")
        assert summary.rows_updated == 1
        assert summary.rows_inserted == 1
        assert engine.query("SELECT K, V FROM TGT ORDER BY K") == \
            [("a", "updated"), ("c", "created")]


class TestUniqueEmulation:
    def test_emulated_uniqueness_detected(self):
        engine, beta = make_rig(native_unique=False)
        stage_rows(engine, [("k1", "first", "2020-01-01"),
                            ("k1", "dup", "2020-01-02"),
                            ("k2", "ok", "2020-01-03")])
        summary = apply(engine, beta)
        assert summary.uv_errors == 1
        assert engine.query("SELECT K FROM TGT ORDER BY K") == \
            [("k1",), ("k2",)]
        assert engine.query("SELECT V FROM TGT WHERE K = 'k1'") == \
            [("first",)]

    def test_emulation_rollback_keeps_target_clean(self):
        engine, beta = make_rig(native_unique=False)
        engine.execute("INSERT INTO TGT VALUES ('k1', 'existing', NULL)")
        stage_rows(engine, [("k1", "dup", "2020-01-01")])
        summary = apply(engine, beta)
        assert summary.uv_errors == 1
        assert engine.query("SELECT COUNT(*) FROM TGT") == [(1,)]


class TestRownumMapping:
    def test_multi_chunk_rownums(self):
        engine, beta = make_rig(config=HyperQConfig(seq_stride=100))
        table = engine.table("STG")
        # chunk 0 has 3 records, chunk 1 has 2: seq 100 -> row 4.
        table.rows = [
            ("a", "v", "2020-01-01", 0),
            ("b", "v", "2020-01-01", 1),
            ("c", "v", "2020-01-01", 2),
            ("d", "v", "bad-date", 100),
            ("e", "v", "2020-01-01", 101),
        ]
        summary = beta.apply_dml(
            sql=INSERT_SQL, layout=LAYOUT, staging_table="STG",
            target_table="TGT", et_table="ET", uv_table="UV",
            chunk_records={0: 3, 1: 2}, acquisition_errors=[])
        assert summary.rows_inserted == 4
        assert engine.query("SELECT SEQNO FROM ET") == [(4,)]
