"""End-to-end Hyper-Q gateway tests (import, export, ad-hoc SQL).

These drive the *unmodified* legacy client and script interpreter against
a Hyper-Q node — the transparency property the paper claims.
"""

import datetime
import gc
import threading
import time
import weakref

import pytest

from repro.core.config import HyperQConfig
from repro.errors import ProtocolError
from repro.legacy.client import ExportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import Message, MessageKind
from repro.legacy.script import ScriptInterpreter, parse_script
from tests.conftest import EXAMPLE_DATA, EXAMPLE_SCRIPT, make_node
from tests.resilience.test_chaos_e2e import wait_until


class TestExampleThroughHyperQ:
    """Figure 5 parity + Figure 6 when max_errors=2."""

    def test_parity_with_legacy_figure5(self, stack):
        begins = []
        handle_message = stack.node.handle_message

        def noting_handle_message(channel, message, conn):
            if message.kind == MessageKind.BEGIN_LOAD:
                begins.append(message.meta)
            handle_message(channel, message, conn)

        stack.node.handle_message = noting_handle_message
        interp = ScriptInterpreter(
            stack.node.connect, files={"input.txt": EXAMPLE_DATA})
        result = interp.run(parse_script(EXAMPLE_SCRIPT))
        imp = result.last_import
        assert (imp.rows_inserted, imp.et_errors, imp.uv_errors) == \
            (2, 2, 1)
        # The DML travels in APPLY_DML only; BEGIN_LOAD does not carry it.
        assert len(begins) == 1 and "apply_sql" not in begins[0]
        assert stack.engine.query(
            "SELECT * FROM PROD.CUSTOMER ORDER BY CUST_ID") == [
                ("123", "Smith", datetime.date(2012, 1, 1)),
                ("157", "Jones", datetime.date(2012, 12, 1))]
        assert stack.engine.query(
            "SELECT SEQNO, ERRFIELD FROM PROD.CUSTOMER_ET "
            "ORDER BY SEQNO") == [(2, "JOIN_DATE"), (3, "JOIN_DATE")]
        assert stack.engine.query(
            "SELECT CUST_ID, CUST_NAME, SEQNO FROM PROD.CUSTOMER_UV") \
            == [("123", "Jones", 4)]

    def test_figure6_with_max_errors_2(self, stack):
        script = EXAMPLE_SCRIPT.replace(
            ".begin import", ".set max_errors 2;\n.begin import")
        interp = ScriptInterpreter(
            stack.node.connect, files={"input.txt": EXAMPLE_DATA})
        interp.run(parse_script(script))
        rows = stack.engine.query(
            "SELECT ERRCODE, ERRFIELD, ERRMSG FROM PROD.CUSTOMER_ET")
        assert [(r[0], r[1]) for r in rows] == [
            (3103, "JOIN_DATE"), (3103, "JOIN_DATE"), (9057, None)]
        assert "row number: 2" in rows[0][2]
        assert "row number: 3" in rows[1][2]
        assert "row numbers: (4, 5)" in rows[2][2]
        # Row 5 was skipped (range not split), so only row 1 loaded.
        assert stack.engine.query(
            "SELECT COUNT(*) FROM PROD.CUSTOMER") == [(1,)]

    def test_metrics_recorded(self, stack):
        interp = ScriptInterpreter(
            stack.node.connect, files={"input.txt": EXAMPLE_DATA})
        interp.run(parse_script(EXAMPLE_SCRIPT))
        (metrics,) = stack.node.completed_jobs
        assert metrics.records_converted == 5
        assert metrics.bytes_received == len(EXAMPLE_DATA)
        assert metrics.acquisition_s > 0
        assert metrics.application_s > 0
        assert metrics.total_s >= \
            metrics.acquisition_s + metrics.application_s

    def test_staging_cleanup_after_end_load(self, stack):
        interp = ScriptInterpreter(
            stack.node.connect, files={"input.txt": EXAMPLE_DATA})
        interp.run(parse_script(EXAMPLE_SCRIPT))
        leftovers = [t for t in stack.engine.catalog.names()
                     if t.startswith("HQ_STG_")]
        assert leftovers == []
        assert stack.store.list_blobs(
            stack.node.config.container) == []

    def test_credit_conservation_after_job(self, stack):
        interp = ScriptInterpreter(
            stack.node.connect, files={"input.txt": EXAMPLE_DATA})
        interp.run(parse_script(EXAMPLE_SCRIPT))
        stack.node.credits.check_conservation()
        assert stack.node.credits.available == \
            stack.node.credits.pool_size


class TestAdHocSql:
    def test_cross_compiled_ddl_and_query(self, stack):
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql(
            "create table T (A integer, B unicode(5), C float)")
        client.execute_sql("insert into T values (1, 'x', 2.5)")
        result = client.execute_sql(
            "sel A, ZEROIFNULL(C) from T where B = 'x'")
        client.logoff()
        assert result.rows == [(1, 2.5)]
        # The legacy UNICODE type became NVARCHAR on the CDW.
        assert stack.engine.table("T").column("B").ctype.base == \
            "NVARCHAR"

    def test_result_set_body_matches_reference_encoder(self, stack):
        """The RESULT_SET body comes from the compiled binary codec;
        the reference ``BinaryFormat`` is the oracle, byte for byte."""
        from repro.legacy.datafmt import BinaryFormat
        from repro.legacy.infer import infer_result_layout
        from repro.legacy.protocol import Message, MessageChannel, \
            MessageKind
        stack.engine.execute(
            "CREATE TABLE RS (K INT, V NVARCHAR(10), D DATE, "
            "F FLOAT, N DECIMAL(9,2))")
        stack.engine.execute(
            "INSERT INTO RS VALUES (1, 'one', DATE '2012-01-01', 2.5, "
            "12.25), (2, NULL, NULL, NULL, NULL), "
            "(-3, 'three', DATE '1999-12-31', -0.125, -7.5)")
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {"user": "u"}),
                        MessageKind.LOGON_OK)
        reply = channel.request(
            Message(MessageKind.SQL_REQUEST,
                    {"sql": "sel * from RS order by K"}),
            MessageKind.RESULT_SET)
        channel.close()
        result = stack.engine.execute("SELECT * FROM RS ORDER BY K")
        layout = infer_result_layout(result.columns, result.rows)
        assert reply.body == \
            BinaryFormat(layout).encode_records(result.rows)
        assert len(result.rows) == 3

    def test_error_surfaces_as_protocol_error(self, stack):
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        with pytest.raises(ProtocolError):
            client.execute_sql("select * from MISSING_TABLE")
        client.logoff()

    def test_load_into_missing_target_fails_cleanly(self, stack):
        from repro.legacy.client import ImportJobSpec
        from repro.legacy.types import FieldDef, Layout, parse_type
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        layout = Layout("L", [FieldDef("A", parse_type("varchar(5)"))])
        with pytest.raises(ProtocolError, match="does not exist"):
            client.run_import(ImportJobSpec(
                target_table="NOPE", et_table="NOPE_ET",
                uv_table="NOPE_UV", layout=layout,
                apply_sql="insert into NOPE values (:A)", data=b"a\n"))
        client.logoff()


class TestExportThroughHyperQ:
    def _load_target(self, stack, rows=10):
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql("create table E (A integer, D date)")
        for i in range(rows):
            client.execute_sql(
                f"insert into E values ({i}, DATE '2020-01-0{i % 9 + 1}')")
        return client

    def test_export_roundtrip(self, stack):
        client = self._load_target(stack)
        result = client.run_export(ExportJobSpec(
            "sel A, D from E order by A", sessions=3))
        client.logoff()
        assert result.rows_exported == 10
        lines = result.data.decode().strip().split("\n")
        assert lines[0].startswith("0|2020-01-01")

    def test_export_chunks_served_in_order(self, stack):
        stack.node.config.export_chunk_rows = 3
        client = self._load_target(stack)
        result = client.run_export(ExportJobSpec(
            "sel A from E order by A", sessions=2))
        client.logoff()
        values = [int(line) for line in
                  result.data.decode().strip().split("\n")]
        assert values == list(range(10))
        assert result.chunks_fetched == 4

    def test_export_then_reimport_identity(self, stack):
        """Round-trip invariant: export a table, re-import the file,
        contents match (incl. NULL handling)."""
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql(
            "create table SRC (K varchar(5), N integer)")
        client.execute_sql("insert into SRC values ('a', 1)")
        client.execute_sql("insert into SRC values ('b', NULL)")
        exported = client.run_export(ExportJobSpec(
            "sel K, N from SRC order by K", sessions=1))
        client.execute_sql(
            "create table DST (K varchar(5), N integer)")
        from repro.legacy.client import ImportJobSpec
        from repro.legacy.types import FieldDef, Layout, parse_type
        layout = Layout("L", [
            FieldDef("K", parse_type("varchar(5)")),
            FieldDef("N", parse_type("varchar(12)")),
        ])
        client.run_import(ImportJobSpec(
            target_table="DST", et_table="DST_ET", uv_table="DST_UV",
            layout=layout,
            apply_sql="insert into DST values (:K, "
                      "cast(:N as integer))",
            data=exported.data))
        client.logoff()
        assert stack.engine.query("SELECT * FROM DST ORDER BY K") == \
            stack.engine.query("SELECT * FROM SRC ORDER BY K")

    @pytest.fixture
    def cursors(self, monkeypatch):
        """Weak references to every TdfCursor the gateway creates."""
        from repro.core import gateway
        refs = []
        real_cursor = gateway.TdfCursor

        def tracked_cursor(*args, **kwargs):
            cursor = real_cursor(*args, **kwargs)
            refs.append(weakref.ref(cursor))
            return cursor

        monkeypatch.setattr(gateway, "TdfCursor", tracked_cursor)
        return refs

    @staticmethod
    def _assert_collected(ref):
        def collected():
            gc.collect()
            return ref() is None

        # A serving thread may still be unwinding from its last reply.
        wait_until(collected, timeout_s=5.0)

    def test_result_set_freed_when_export_drains(self, stack, cursors):
        """An export's cursor (and its materialized rows) dies with the
        job, not with the control session that began it."""
        client = self._load_target(stack)
        for done in range(1, 4):
            client.run_export(ExportJobSpec(
                "sel A from E order by A", sessions=2))
            assert stack.node._exports == {}
            assert len(cursors) == done
            self._assert_collected(cursors[-1])
        client.logoff()

    def test_result_set_freed_when_export_abandoned(self, stack, cursors):
        """A control session that vanishes mid-export must also stop
        the prefetch thread, which otherwise pins the rows forever."""
        from repro.legacy.protocol import Message, MessageKind
        stack.node.config.export_chunk_rows = 1
        client = self._load_target(stack)
        client._require_control().request(
            Message(MessageKind.BEGIN_EXPORT, {
                "job_id": "abandoned", "sessions": 1,
                "sql": "sel A from E order by A"}),
            MessageKind.BEGIN_EXPORT_OK)
        assert set(stack.node._exports) == {"abandoned"}
        client._require_control().close()
        wait_until(lambda: not stack.node._exports, timeout_s=5.0)
        self._assert_collected(cursors[-1])

    @staticmethod
    def _cursor_threads():
        return {t for t in threading.enumerate() if t.name == "tdf-cursor"}

    def _begin_unfetched_export(self, stack, job_id):
        """BEGIN_EXPORT of a 20-chunk result on a fresh control session;
        the prefetch thread fills its buffer and waits."""
        client = self._load_target(stack, rows=20)
        control = client._require_control()
        control.request(
            Message(MessageKind.BEGIN_EXPORT, {
                "job_id": job_id, "sessions": 1,
                "sql": "sel A from E order by A"}),
            MessageKind.BEGIN_EXPORT_OK)
        return client

    def test_data_session_dropped_before_eof_fails_the_export(self):
        """A data session that closes after one chunk, before its EOF
        and before the control session closes, ends the export with
        ``error``: its prefetch thread stops and its slot frees."""
        stack = make_node(config=HyperQConfig(
            trace_enabled=True, export_chunk_rows=1, wlm_profile=[
                {"name": "one", "max_concurrency": 1, "queue_limit": 0,
                 "queue_timeout_s": 0.2, "match": {"user": "*"}}]))
        before = self._cursor_threads()
        try:
            client = self._begin_unfetched_export(stack, "dropped")
            data = client._session(job_id="dropped", session_no=0)
            data.request(
                Message(MessageKind.EXPORT_FETCH, {
                    "job_id": "dropped", "session_no": 0, "chunk_no": 0}),
                MessageKind.EXPORT_DATA)
            data.close()
            wait_until(lambda: not stack.node._exports, timeout_s=5.0)
            wait_until(lambda: self._cursor_threads() <= before,
                       timeout_s=5.0)
            assert [r["status"] for r in
                    stack.node.obs.tracer.spans("export")] == ["error"]
            pool = stack.node.stats()["wlm"]["pools"]["one"]
            assert pool["occupied_slots"] == 0
            client.logoff()
        finally:
            stack.close()

    def test_node_stop_ends_a_begun_export(self):
        """``stop()`` with an export begun and never fetched leaves no
        prefetch thread behind."""
        stack = make_node(config=HyperQConfig(export_chunk_rows=1))
        before = self._cursor_threads()
        try:
            client = self._begin_unfetched_export(stack, "unfetched")
            assert set(stack.node._exports) == {"unfetched"}
        finally:
            stack.close()
        assert stack.node._exports == {}
        wait_until(lambda: self._cursor_threads() <= before, timeout_s=5.0)
        client._require_control().close()

    def test_unknown_export_job_rejected(self, stack):
        from repro.legacy.protocol import (
            Message, MessageChannel, MessageKind,
        )
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {}),
                        MessageKind.LOGON_OK)
        channel.send(Message(MessageKind.EXPORT_FETCH,
                             {"job_id": "ghost", "chunk_no": 0}))
        response = channel.recv()
        assert response.kind == MessageKind.ERROR

    def test_unencodable_export_fails_fast_and_frees_its_slot(self):
        """A chunk the cursor cannot encode (a product overflowing
        BIGINT) is an immediate error reply naming the chunk, not a
        30 s wait; the export is then gone, its single WLM slot is free
        and the node serves the next export."""
        stack = make_node(config=HyperQConfig(wlm_profile=[
            {"name": "one", "max_concurrency": 1, "queue_limit": 0,
             "queue_timeout_s": 0.2, "match": {"user": "*"}}]))
        try:
            client = LegacyEtlClient(stack.node.connect, timeout=60)
            client.logon("h", "u", "p")
            client.execute_sql("create table OV (A bigint, B integer)")
            client.execute_sql("insert into OV values (4000000000, 1)")
            client.execute_sql("insert into OV values (2, 2)")
            started = time.monotonic()
            with pytest.raises(ProtocolError, match="export chunk 0"):
                client.run_export(ExportJobSpec(
                    "SELECT A * A * A AS P, B FROM OV", sessions=2))
            assert time.monotonic() - started < 2.0
            client.logoff()
            wait_until(lambda: stack.node._exports == {}, timeout_s=5.0)
            pool = stack.node.stats()["wlm"]["pools"]["one"]
            assert pool["occupied_slots"] == 0

            again = LegacyEtlClient(stack.node.connect, timeout=60)
            again.logon("h", "u", "p")
            result = again.run_export(ExportJobSpec(
                "SELECT A, B FROM OV ORDER BY B", sessions=2))
            again.logoff()
            assert result.data == b"4000000000|1\n2|2\n"
        finally:
            stack.close()

    def test_bad_export_format_is_refused_and_frees_its_slot(self):
        """A BEGIN_EXPORT whose ``format`` names no record format is a
        typed error naming the format (not the 2666 conversion code),
        and it holds no WLM slot: the next export on the same logon
        runs on a one-slot pool."""
        stack = make_node(config=HyperQConfig(wlm_profile=[
            {"name": "one", "max_concurrency": 1, "queue_limit": 0,
             "queue_timeout_s": 0.2, "match": {"user": "*"}}]))
        try:
            client = LegacyEtlClient(stack.node.connect, timeout=60)
            client.logon("h", "u", "p")
            client.execute_sql("create table BF (A integer)")
            client.execute_sql("insert into BF values (7)")
            started = time.monotonic()
            with pytest.raises(ProtocolError) as caught:
                client.run_export(ExportJobSpec(
                    "SELECT A FROM BF", sessions=2,
                    format_spec=FormatSpec("vartext", "\\")))
            assert time.monotonic() - started < 1.0
            assert "'vartext:\\\\'" in str(caught.value)
            assert "2666" not in str(caught.value)
            assert stack.node._exports == {}
            pool = stack.node.stats()["wlm"]["pools"]["one"]
            assert pool["occupied_slots"] == 0

            result = client.run_export(ExportJobSpec(
                "SELECT A FROM BF", sessions=2))
            client.logoff()
            assert (result.data, result.rows_exported) == (b"7\n", 1)
        finally:
            stack.close()


class TestConcurrentJobs:
    def test_two_imports_share_one_credit_manager(self):
        stack = make_node(config=HyperQConfig(
            converters=2, filewriters=1, credits=6))
        try:
            import threading
            from repro.legacy.client import ImportJobSpec
            from repro.legacy.types import FieldDef, Layout, parse_type
            layout = Layout("L", [
                FieldDef("K", parse_type("varchar(8)")),
            ])
            setup = LegacyEtlClient(stack.node.connect)
            setup.logon("h", "u", "p")
            setup.execute_sql("create table J1 (K varchar(8))")
            setup.execute_sql("create table J2 (K varchar(8))")
            setup.logoff()

            def run_job(table):
                client = LegacyEtlClient(stack.node.connect)
                client.logon("h", "u", "p")
                data = "".join(f"{table}-{i}\n" for i in range(200))
                client.run_import(ImportJobSpec(
                    target_table=table, et_table=f"{table}_ET",
                    uv_table=f"{table}_UV", layout=layout,
                    apply_sql=f"insert into {table} values (:K)",
                    data=data.encode(), sessions=2, chunk_bytes=256))
                client.logoff()

            threads = [threading.Thread(target=run_job, args=(t,))
                       for t in ("J1", "J2")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert stack.engine.query(
                "SELECT COUNT(*) FROM J1") == [(200,)]
            assert stack.engine.query(
                "SELECT COUNT(*) FROM J2") == [(200,)]
            stack.node.credits.check_conservation()
        finally:
            stack.close()
