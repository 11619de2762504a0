"""DML tests: set-oriented semantics, atomicity, uniqueness, MERGE."""

import datetime

import pytest

from repro.cdw.engine import CdwEngine
from repro.errors import BulkExecutionError, CatalogError


@pytest.fixture
def db():
    engine = CdwEngine()
    engine.execute("CREATE TABLE t (K INT NOT NULL, V NVARCHAR(10), "
                   "D DATE, UNIQUE (K))")
    return engine


class TestInsert:
    def test_values(self, db):
        result = db.execute(
            "INSERT INTO t VALUES (1, 'a', DATE '2020-01-01')")
        assert result.rows_inserted == 1

    def test_column_list_fills_nulls(self, db):
        db.execute("INSERT INTO t (K) VALUES (1)")
        assert db.query("SELECT V, D FROM t") == [(None, None)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE src (K INT, V NVARCHAR(10))")
        db.execute("INSERT INTO src VALUES (1, 'x'), (2, 'y')")
        result = db.execute(
            "INSERT INTO t (K, V) SELECT K, V FROM src")
        assert result.rows_inserted == 2

    def test_coercion_applies(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', '2020-01-02')")
        assert db.query("SELECT D FROM t") == \
            [(datetime.date(2020, 1, 2),)]

    def test_not_null_violation_aborts(self, db):
        with pytest.raises(BulkExecutionError):
            db.execute("INSERT INTO t VALUES (NULL, 'a', NULL)")

    def test_conversion_error_aborts_whole_statement(self, db):
        """Set-oriented semantics: one bad row, nothing applied."""
        with pytest.raises(BulkExecutionError) as info:
            db.execute(
                "INSERT INTO t VALUES (1, 'a', '2020-01-01'), "
                "(2, 'b', 'garbage'), (3, 'c', '2020-01-03')")
        assert info.value.kind == "conversion"
        assert db.query("SELECT COUNT(*) FROM t") == [(0,)]

    def test_unique_violation_aborts_whole_statement(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL)")
        with pytest.raises(BulkExecutionError) as info:
            db.execute("INSERT INTO t VALUES (2, 'b', NULL), "
                       "(1, 'dup', NULL)")
        assert info.value.kind == "uniqueness"
        assert db.query("SELECT COUNT(*) FROM t") == [(1,)]

    def test_duplicate_within_batch_detected(self, db):
        with pytest.raises(BulkExecutionError):
            db.execute("INSERT INTO t VALUES (5, 'a', NULL), "
                       "(5, 'b', NULL)")

    def test_null_keys_do_not_collide(self, db):
        db.execute("CREATE TABLE u (K INT, UNIQUE (K))")
        db.execute("INSERT INTO u VALUES (NULL), (NULL)")
        assert db.query("SELECT COUNT(*) FROM u") == [(2,)]

    def test_no_native_unique_mode(self):
        engine = CdwEngine(native_unique=False)
        engine.execute("CREATE TABLE t (K INT, UNIQUE (K))")
        engine.execute("INSERT INTO t VALUES (1), (1)")
        assert engine.query("SELECT COUNT(*) FROM t") == [(2,)]


class TestUpdate:
    def test_basic(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        result = db.execute("UPDATE t SET V = 'z' WHERE K = 1")
        assert result.rows_updated == 1
        assert db.query("SELECT V FROM t ORDER BY K") == [("z",), ("b",)]

    def test_update_expression_uses_old_row(self, db):
        db.execute("CREATE TABLE n (A INT)")
        db.execute("INSERT INTO n VALUES (1), (2)")
        db.execute("UPDATE n SET A = A + 10")
        assert db.query("SELECT A FROM n ORDER BY A") == [(11,), (12,)]

    def test_update_from_source(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        db.execute("CREATE TABLE s (K INT, V NVARCHAR(10))")
        db.execute("INSERT INTO s VALUES (2, 'patched')")
        result = db.execute(
            "UPDATE t SET V = s.V FROM s WHERE t.K = s.K")
        assert result.rows_updated == 1
        assert db.query("SELECT V FROM t WHERE K = 2") == [("patched",)]

    def test_update_atomic_on_conversion_error(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        with pytest.raises(BulkExecutionError):
            db.execute("UPDATE t SET D = 'garbage'")
        assert db.query("SELECT D FROM t") == [(None,), (None,)]

    def test_update_unique_violation_rolls_back(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        with pytest.raises(BulkExecutionError):
            db.execute("UPDATE t SET K = 9")
        assert db.query("SELECT K FROM t ORDER BY K") == [(1,), (2,)]


class TestDelete:
    def test_where(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        result = db.execute("DELETE FROM t WHERE K = 1")
        assert result.rows_deleted == 1
        assert db.query("SELECT K FROM t") == [(2,)]

    def test_delete_all(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL)")
        assert db.execute("DELETE FROM t").rows_deleted == 1

    def test_delete_using(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        db.execute("CREATE TABLE doomed (K INT)")
        db.execute("INSERT INTO doomed VALUES (2)")
        result = db.execute(
            "DELETE FROM t USING doomed d WHERE t.K = d.K")
        assert result.rows_deleted == 1
        assert db.query("SELECT K FROM t") == [(1,)]


class TestMerge:
    def _setup(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', NULL)")
        db.execute("CREATE TABLE s (K INT, V NVARCHAR(10))")
        db.execute(
            "INSERT INTO s VALUES (2, 'updated'), (3, 'inserted')")

    def test_update_and_insert(self, db):
        self._setup(db)
        result = db.execute(
            "MERGE INTO t USING s ON t.K = s.K "
            "WHEN MATCHED THEN UPDATE SET V = s.V "
            "WHEN NOT MATCHED THEN INSERT (K, V) VALUES (s.K, s.V)")
        assert (result.rows_updated, result.rows_inserted) == (1, 1)
        assert db.query("SELECT K, V FROM t ORDER BY K") == [
            (1, "a"), (2, "updated"), (3, "inserted")]

    def test_sequential_source_semantics(self, db):
        """Later source rows see earlier rows' effects (legacy
        tuple-at-a-time upsert behaviour)."""
        db.execute("CREATE TABLE s2 (K INT, V NVARCHAR(10))")
        db.execute("INSERT INTO s2 VALUES (7, 'first'), (7, 'second')")
        db.execute(
            "MERGE INTO t USING s2 ON t.K = s2.K "
            "WHEN MATCHED THEN UPDATE SET V = s2.V "
            "WHEN NOT MATCHED THEN INSERT (K, V) VALUES (s2.K, s2.V)")
        assert db.query("SELECT V FROM t WHERE K = 7") == [("second",)]

    def test_matched_delete(self, db):
        self._setup(db)
        result = db.execute(
            "MERGE INTO t USING s ON t.K = s.K "
            "WHEN MATCHED THEN DELETE")
        assert result.rows_deleted == 1
        assert db.query("SELECT K FROM t ORDER BY K") == [(1,)]

    def test_conditional_clauses(self, db):
        self._setup(db)
        db.execute(
            "MERGE INTO t USING s ON t.K = s.K "
            "WHEN MATCHED AND s.V = 'nope' THEN UPDATE SET V = s.V "
            "WHEN NOT MATCHED AND s.V = 'inserted' THEN INSERT (K, V) "
            "VALUES (s.K, s.V)")
        assert db.query("SELECT V FROM t WHERE K = 2") == [("b",)]
        assert db.query("SELECT V FROM t WHERE K = 3") == [("inserted",)]

    def test_merge_with_select_source(self, db):
        self._setup(db)
        db.execute(
            "MERGE INTO t USING (SELECT K, V FROM s WHERE K = 3) AS src "
            "ON t.K = src.K "
            "WHEN NOT MATCHED THEN INSERT (K, V) VALUES (src.K, src.V)")
        assert db.query("SELECT V FROM t WHERE K = 3") == [("inserted",)]

    def test_non_equi_on_falls_back_to_loop(self, db):
        self._setup(db)
        result = db.execute(
            "MERGE INTO t USING s ON t.K < s.K "
            "WHEN MATCHED THEN UPDATE SET V = 'lt'")
        assert result.rows_updated >= 1

    def test_merge_atomicity_on_error(self, db):
        self._setup(db)
        with pytest.raises(BulkExecutionError):
            db.execute(
                "MERGE INTO t USING s ON t.K = s.K "
                "WHEN MATCHED THEN UPDATE SET D = 'garbage'")
        assert db.query("SELECT V FROM t WHERE K = 2") == [("b",)]

    # The keyed executor's key must never disagree with ``=``: each
    # case runs as MERGE and as its UPDATE … FROM / DELETE … USING twin.
    MERGE_KT = ("MERGE INTO kt USING ks ON kt.K = ks.K "
                "WHEN MATCHED THEN UPDATE SET V = ks.V "
                "WHEN NOT MATCHED THEN INSERT VALUES (ks.K, ks.V)")
    UPDATE_KT = "UPDATE kt SET V = ks.V FROM ks WHERE kt.K = ks.K"
    DELETE_KT = "DELETE FROM kt USING ks WHERE kt.K = ks.K"

    @staticmethod
    def _keyed(key_type, target, source):
        db = CdwEngine()
        db.execute(f"CREATE TABLE kt (K {key_type}, V INT)")
        db.execute(f"CREATE TABLE ks (K {key_type}, V INT)")
        for table, rows in (("kt", target), ("ks", source)):
            for row in rows:
                db.execute(f"INSERT INTO {table} VALUES ({row[0]!r}, "
                           f"{row[1]})")
        return db

    @pytest.mark.parametrize("sql, counts, rows", [
        (MERGE_KT, (0, 1, 0), [("A", 2)]),
        (UPDATE_KT, (0, 1, 0), [("A", 2)]),
        (DELETE_KT, (0, 0, 1), []),
    ], ids=["merge", "update", "delete"])
    def test_trailing_blanks_match_as_equals_does(self, sql, counts, rows):
        """``'A' = 'A '`` is TRUE (CHAR semantics), so the source row
        matches instead of inserting ``'A '`` beside ``'A'``."""
        db = self._keyed("VARCHAR(4)", [("A", 1)], [("A ", 2)])
        result = db.execute(sql)
        assert (result.rows_inserted, result.rows_updated,
                result.rows_deleted) == counts
        assert db.query("SELECT K, V FROM kt") == rows

    @pytest.mark.parametrize("sql, counts, rows", [
        (MERGE_KT, (1, 0, 0), [(2**53, 1), (2**53 + 1, 2)]),
        (UPDATE_KT, (0, 0, 0), [(2**53, 1)]),
        (DELETE_KT, (0, 0, 0), [(2**53, 1)]),
    ], ids=["merge", "update", "delete"])
    def test_bigints_past_2_53_are_not_equal(self, sql, counts, rows):
        """2**53 and 2**53 + 1 are one float but two BIGINTs: they may
        share a key, and the predicate tells them apart."""
        db = self._keyed("BIGINT", [(2**53, 1)], [(2**53 + 1, 2)])
        result = db.execute(sql)
        assert (result.rows_inserted, result.rows_updated,
                result.rows_deleted) == counts
        assert db.query("SELECT K, V FROM kt") == rows

    @pytest.mark.parametrize("source, rows", [
        ([(1, 5), (1, 6)], [(5, 0), (1, 9)]),
        ([(1, 5), (5, 7)], [(7, 0)]),
    ], ids=["old-key-misses", "new-key-hits"])
    def test_a_key_update_moves_the_row_to_its_new_key(self, source, rows):
        """After ``SET K = ks.V`` the row no longer matches its old key
        (the second source row inserts) and matches its new one at
        once (the second source row updates it again)."""
        db = self._keyed("INT", [(1, 0)], source)
        db.execute("MERGE INTO kt USING ks ON kt.K = ks.K "
                   "WHEN MATCHED THEN UPDATE SET K = ks.V "
                   "WHEN NOT MATCHED THEN INSERT VALUES (ks.K, 9)")
        assert db.query("SELECT K, V FROM kt") == rows

    def test_the_first_match_is_first_in_position_order(self):
        """Row 0 re-keyed to 2 now shares its key with row 1, and the
        next source row with key 2 takes row 0, the first in order."""
        db = self._keyed("INT", [(1, 0), (2, 0)], [(1, 2), (2, 9)])
        db.execute("MERGE INTO kt USING ks ON kt.K = ks.K "
                   "WHEN MATCHED THEN UPDATE SET K = ks.V")
        assert db.query("SELECT K, V FROM kt") == [(9, 0), (2, 0)]

    @pytest.mark.parametrize("source, rows", [
        ([(1, 5), (1, 6)], [(5, 0)]),
        ([(1, 5), (5, 7)], [(7, 0)]),
    ], ids=["old-key-misses", "new-key-hits"])
    def test_a_key_update_moves_the_row_twin(self, source, rows):
        db = self._keyed("INT", [(1, 0)], source)
        result = db.execute(
            "UPDATE kt SET K = ks.V FROM ks WHERE kt.K = ks.K")
        assert result.rows_updated == 1
        assert db.query("SELECT K, V FROM kt") == rows

    @pytest.mark.parametrize("sql", [
        "UPDATE kt SET V = 0 FROM ks WHERE CAST(kt.W AS INT) > 0 "
        "AND kt.K = ks.K",
        "DELETE FROM kt USING ks WHERE CAST(kt.W AS INT) > 0 "
        "AND kt.K = ks.K",
        "MERGE INTO kt USING ks ON CAST(kt.W AS INT) > 0 AND kt.K = ks.K "
        "WHEN MATCHED THEN UPDATE SET V = 0",
    ], ids=["update", "delete", "merge"])
    def test_rows_the_key_rules_out_are_never_evaluated(self, sql):
        """Row 2's ``W`` does not cast, but no source row has its key:
        the statement succeeds, as a warehouse hash join does (a nested
        loop over every target row would raise)."""
        db = CdwEngine()
        db.execute("CREATE TABLE kt (K INT, V INT, W VARCHAR(4))")
        db.execute("CREATE TABLE ks (K INT)")
        db.execute("INSERT INTO kt VALUES (1, 1, '5'), (2, 2, 'x')")
        db.execute("INSERT INTO ks VALUES (1)")
        result = db.execute(sql)
        assert result.activity_count == 1


class TestDdlAndCatalog:
    def test_drop_and_recreate(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM t")
        db.execute("CREATE TABLE t (A INT)")

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS never_existed")

    def test_create_duplicate_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (A INT)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS t (A INT)")

    def test_statement_counts(self, db):
        db.execute("INSERT INTO t VALUES (1, 'a', NULL)")
        assert db.statement_counts["Insert"] == 1
        assert db.statement_counts["CreateTable"] == 1
