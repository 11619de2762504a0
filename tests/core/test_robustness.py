"""Failure injection: the gateway must degrade cleanly, never wedge."""

import threading
import time

import pytest

from repro.core.config import HyperQConfig
from repro.errors import ProtocolError
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.legacy.protocol import Message, MessageChannel, MessageKind
from repro.legacy.types import FieldDef, Layout, parse_type
from tests.conftest import make_node

LAYOUT = Layout("L", [FieldDef("A", parse_type("varchar(8)"))])


def simple_spec(**overrides):
    spec = dict(
        target_table="T", et_table="T_ET", uv_table="T_UV",
        layout=LAYOUT, apply_sql="insert into T values (:A)",
        data=b"a\nb\nc\n", sessions=1)
    spec.update(overrides)
    return ImportJobSpec(**spec)


class TestProtocolAbuse:
    def test_data_for_unknown_job(self, stack):
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {}),
                        MessageKind.LOGON_OK)
        channel.send(Message(MessageKind.DATA,
                             {"job_id": "ghost", "seq": 0}, body=b"x"))
        assert channel.recv().kind == MessageKind.ERROR

    def test_apply_for_unknown_job(self, stack):
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {}),
                        MessageKind.LOGON_OK)
        channel.send(Message(MessageKind.APPLY_DML,
                             {"job_id": "ghost", "sql": "select 1"}))
        assert channel.recv().kind == MessageKind.ERROR

    def test_gateway_survives_error_and_serves_next_request(self, stack):
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {}),
                        MessageKind.LOGON_OK)
        channel.send(Message(MessageKind.SQL_REQUEST,
                             {"sql": "select * from NOPE"}))
        assert channel.recv().kind == MessageKind.ERROR
        # Same connection still works afterwards.
        channel.send(Message(MessageKind.SQL_REQUEST,
                             {"sql": "select 1"}))
        assert channel.recv().kind == MessageKind.RESULT_SET

    def test_abrupt_disconnect_does_not_wedge_node(self, stack):
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {}),
                        MessageKind.LOGON_OK)
        channel.close()  # walk away mid-session
        # The node still serves new clients.
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql("create table T (A varchar(8))")
        result = client.run_import(simple_spec())
        client.logoff()
        assert result.rows_inserted == 3

    def test_garbage_bytes_close_connection_only(self, stack):
        endpoint = stack.node.connect()
        endpoint.send_bytes(b"\xde\xad\xbe\xef" * 4)
        # Node must keep accepting fresh, well-behaved connections.
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.logoff()


class TestBadJobs:
    def test_apply_with_invalid_sql_reports_error(self, stack):
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql("create table T (A varchar(8))")
        with pytest.raises(ProtocolError):
            client.run_import(simple_spec(
                apply_sql="THIS IS NOT SQL"))
        client.logoff()

    def test_apply_referencing_unknown_field_reports_error(self, stack):
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql("create table T (A varchar(8))")
        with pytest.raises(ProtocolError):
            client.run_import(simple_spec(
                apply_sql="insert into T values (:NOT_A_FIELD)"))
        client.logoff()

    def test_node_usable_after_failed_job(self, stack):
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql("create table T (A varchar(8))")
        with pytest.raises(ProtocolError):
            client.run_import(simple_spec(apply_sql="NOT SQL"))
        result = client.run_import(simple_spec())
        client.logoff()
        assert result.rows_inserted == 3


class TestBackPressureTimeout:
    def test_stalled_pipeline_times_out_cleanly(self):
        stack = make_node(config=HyperQConfig(
            converters=1, filewriters=1, credits=1,
            credit_timeout_s=0.2))
        try:
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "u", "p")
            client.execute_sql("create table T (A varchar(8))")

            # Stall the single converter so credits never return.
            release = threading.Event()
            job_ids = []

            original_begin = stack.node._handle_begin_load

            def patched_begin(channel, message, request, conn):
                original_begin(channel, message, request, conn)
                job = stack.node._jobs[request["job_id"]]
                job_ids.append(job.job_id)
                original_convert = job.pipeline.converter.convert

                def stalled_convert(seq, data):
                    release.wait(timeout=5)
                    return original_convert(seq, data)

                job.pipeline.converter.convert = stalled_convert

            stack.node._handle_begin_load = patched_begin
            data = b"".join(f"row{i}\n".encode() for i in range(50))
            with pytest.raises(ProtocolError, match="credit"):
                client.run_import(simple_spec(
                    data=data, chunk_bytes=16))
            release.set()
            time.sleep(0.1)
        finally:
            stack.close()
