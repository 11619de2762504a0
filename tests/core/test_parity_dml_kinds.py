"""Parity for non-INSERT apply DML: UPDATE, DELETE, and legacy upsert.

The application phase can carry any DML; the virtualized execution
(set-oriented over staging, upsert rewritten to MERGE) must match the
legacy server's tuple-at-a-time interpretation — including order
sensitivity when several input records hit the same target row.
"""

import pytest

from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.legacy.server import LegacyServer
from repro.legacy.types import FieldDef, Layout, parse_type

LAYOUT = Layout("L", [
    FieldDef("K", parse_type("varchar(8)")),
    FieldDef("V", parse_type("varchar(16)")),
])

SEED_SQL = [
    "create table T (K varchar(8) not null, V varchar(16), unique (K))",
    "insert into T values ('a', 'v-a')",
    "insert into T values ('b', 'v-b')",
    "insert into T values ('c', 'v-c')",
]


def seeded(client, table: str) -> None:
    """Create and fill the target, named ``table``."""
    for sql in SEED_SQL:
        client.execute_sql(sql.replace(" T ", f" {table} "))


def run_job(connect, apply_sql: str, data: bytes, chunk_bytes: int = 24,
            table: str = "T"):
    client = LegacyEtlClient(connect)
    client.logon("h", "u", "p")
    seeded(client, table)
    result = client.run_import(ImportJobSpec(
        target_table=table, et_table=f"{table}_ET", uv_table=f"{table}_UV",
        layout=LAYOUT, apply_sql=apply_sql, data=data,
        sessions=2, chunk_bytes=chunk_bytes))
    client.logoff()
    return result


def both(apply_sql: str, data: bytes, chunk_bytes: int = 24,
         table: str = "T", job=run_job):
    """``job``'s result and the target's rows on the legacy server, then
    through Hyper-Q."""
    server = LegacyServer().start()
    try:
        legacy_result = job(server.connect, apply_sql, data, chunk_bytes,
                            table)
        legacy_table = server.engine.query(
            f"SELECT K, V FROM {table} ORDER BY K")
    finally:
        server.stop()
    stack = build_stack(config=HyperQConfig(credits=8))
    try:
        hyperq_result = job(stack.node.connect, apply_sql, data,
                            chunk_bytes, table)
        hyperq_table = stack.engine.query(
            f"SELECT K, V FROM {table} ORDER BY K")
    finally:
        stack.close()
    return legacy_result, legacy_table, hyperq_result, hyperq_table


class TestUpdateParity:
    def test_matched_updates(self):
        data = b"a|new-a\nc|new-c\nzz|never\n"
        lr, lt, hr, ht = both(
            "update T set V = :V where T.K = trim(:K)", data)
        assert lr.rows_updated == hr.rows_updated == 2
        assert lt == ht
        assert ("a", "new-a") in ht

    def test_last_write_wins_for_repeated_keys(self):
        data = b"a|first\na|second\na|third\n"
        lr, lt, hr, ht = both(
            "update T set V = :V where T.K = trim(:K)", data,
            chunk_bytes=8)
        assert lt == ht
        assert ("a", "third") in ht


class TestDeleteParity:
    def test_matched_deletes(self):
        data = b"b|x\nnope|y\n"
        lr, lt, hr, ht = both(
            "delete from T where T.K = trim(:K)", data)
        assert lr.rows_deleted == hr.rows_deleted == 1
        assert lt == ht
        assert all(k != "b" for k, _ in ht)


class TestUpsertParity:
    UPSERT = ("update T set V = :V where T.K = :K "
              "else insert into T values (:K, :V)")

    def test_mixed_update_and_insert(self):
        data = b"a|updated-a\nd|created-d\nb|updated-b\ne|created-e\n"
        lr, lt, hr, ht = both(self.UPSERT, data)
        assert lt == ht
        assert (lr.rows_updated, lr.rows_inserted) == \
            (hr.rows_updated, hr.rows_inserted) == (2, 2)

    def test_insert_then_update_same_key_in_one_job(self):
        """Row 1 creates key 'z'; row 2 must UPDATE it (tuple order)."""
        data = b"z|created\nz|then-updated\n"
        lr, lt, hr, ht = both(self.UPSERT, data, chunk_bytes=8)
        assert lt == ht
        assert ("z", "then-updated") in ht
        assert (lr.rows_inserted, lr.rows_updated) == \
            (hr.rows_inserted, hr.rows_updated) == (1, 1)

    def test_trailing_blanks_update_the_equal_key(self):
        """``'a  ' = 'a'`` under CHAR semantics: the legacy server
        updates row ``a``, and so must the MERGE the upsert becomes."""
        lr, lt, hr, ht = both(self.UPSERT, b"a  |updated-a\n")
        assert (lr.rows_updated, lr.rows_inserted) == \
            (hr.rows_updated, hr.rows_inserted) == (1, 0)
        assert lt == ht
        assert [k for k, _ in ht] == ["a", "b", "c"]

    @pytest.mark.parametrize("chunk_bytes", [8, 64, 4096])
    def test_chunking_invariance(self, chunk_bytes):
        data = (b"a|u1\nq|c1\na|u2\nq|u-after-c\nr|c2\n")
        lr, lt, hr, ht = both(self.UPSERT, data, chunk_bytes)
        assert lt == ht


def counts(result) -> tuple:
    return (result.rows_inserted, result.rows_updated, result.rows_deleted,
            result.et_errors, result.uv_errors)


class TestGeneratedNames:
    """Names the translation introduces never capture the job's: the
    staging binding and a constant upsert's MERGE source are drawn
    unlike any table, alias or column of the statement."""

    DATA = b"a|new-a\nzz|new-z\n"

    @pytest.mark.parametrize("apply_sql", [
        "update S set V = :V where S.K = :K else insert into S values "
        "(:K, :V)",
        "update S set V = :V where S.K = trim(:K)",
        "delete from S where S.K = trim(:K)",
    ], ids=["upsert", "update", "delete"])
    def test_a_target_named_like_the_staging_alias(self, apply_sql):
        lr, lt, hr, ht = both(apply_sql, self.DATA, table="S")
        assert counts(lr) == counts(hr)
        assert lt == ht

    def test_a_constant_upsert_into_a_table_named_like_its_source(self):
        def upsert(connect, sql, data, chunk_bytes, table):
            client = LegacyEtlClient(connect)
            client.logon("h", "u", "p")
            seeded(client, table)
            result = [client.execute_sql(sql).activity_count
                      for _ in range(2)]
            client.logoff()
            return result

        sql = ("update SRC set V = 'const' where K = 'zz' "
               "else insert into SRC values ('zz', 'const')")
        lr, lt, hr, ht = both(sql, b"", table="SRC", job=upsert)
        assert lr == hr == [1, 1]
        assert lt == ht
        assert ("zz", "const") in ht

    def test_a_field_named_like_the_staging_sequence(self):
        """A layout field ``__SEQ`` is the job's own, beside the order
        column every staging table has."""
        layout = Layout("L", [
            FieldDef("K", parse_type("varchar(8)")),
            FieldDef("__SEQ", parse_type("varchar(16)")),
        ])

        def load(connect, sql, data, chunk_bytes, table):
            client = LegacyEtlClient(connect)
            client.logon("h", "u", "p")
            seeded(client, table)
            result = client.run_import(ImportJobSpec(
                target_table=table, et_table=f"{table}_ET",
                uv_table=f"{table}_UV", layout=layout, apply_sql=sql,
                data=data, sessions=2, chunk_bytes=chunk_bytes))
            client.logoff()
            return result

        lr, lt, hr, ht = both("insert into T values (:K, :__SEQ)",
                              b"x|1\ny|2\n", job=load)
        assert counts(lr) == counts(hr) == (2, 0, 0, 0, 0)
        assert lt == ht
        assert ("x", "1") in ht and ("y", "2") in ht


class TestUnqualifiedTargetColumns:
    """Legacy DML names only its target, so a bare column is the
    target's even when the layout has a field of the same name (``K``,
    ``V``): the staging binding beside the target must not make it
    ambiguous, in an upsert's MERGE (its ON and its SET right-hand
    sides) or in UPDATE … FROM and DELETE … USING."""

    DATA = b"a|x\nd|y\nc|z\n"

    @pytest.mark.parametrize("apply_sql", [
        "update T set V = V || :V where K = trim(:K) "
        "else insert into T values (:K, :V)",
        "update T set V = V || '-' || :V where K = trim(:K)",
        "delete from T where K = trim(:K) and V <> :V",
    ], ids=["upsert", "update", "delete"])
    def test_bare_columns_are_the_targets(self, apply_sql):
        lr, lt, hr, ht = both(apply_sql, self.DATA)
        assert counts(lr) == counts(hr)
        assert counts(hr)[3:] == (0, 0)
        assert lt == ht

    def test_a_constant_key_upsert_over_a_layout_field(self):
        """Each record updates row ``a`` (no record names a field)."""
        lr, lt, hr, ht = both(
            "update T set V = 'const' where K = 'a' "
            "else insert into T values ('a', 'const')", b"a|x\nb|y\n")
        assert counts(lr) == counts(hr) == (0, 2, 0, 0, 0)
        assert lt == ht
        assert ("a", "const") in ht
