"""Checkpoint/restart tests: sessions resume after connection failures.

A flaky transport drops the connection after a configured number of
sends; with ``retry_attempts`` the client reconnects and resumes from
its last unacknowledged chunk.  Because the gateway deduplicates chunk
sequence numbers, a chunk whose ack was lost can be resent without
double-loading — the end state is exactly-once.
"""

import dataclasses
import os
import threading
import time

import pytest

from repro.core.config import HyperQConfig
from repro.errors import TransportClosed
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.legacy.protocol import MessageChannel, MessageKind
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.resilience import CheckpointJournal
from tests.conftest import make_node

LAYOUT = Layout("L", [FieldDef("A", parse_type("varchar(12)"))])


class _FlakyEndpoint:
    """Drops the connection after ``fail_after`` sends (once)."""

    def __init__(self, inner, fail_after: int, flag: dict):
        self._inner = inner
        self._fail_after = fail_after
        self._sends = 0
        self._flag = flag

    def send_bytes(self, data):
        self._sends += 1
        if not self._flag["tripped"] and self._sends > self._fail_after:
            self._flag["tripped"] = True
            self._inner.close_both()
            raise TransportClosed("injected connection failure")
        self._inner.send_bytes(data)

    def recv_bytes(self, timeout=None):
        return self._inner.recv_bytes(timeout=timeout)

    def close(self):
        self._inner.close()

    def close_both(self):
        self._inner.close_both()


def flaky_connect(node, fail_after: int):
    """Connection factory whose 2nd connection (a data session) is
    flaky — exactly once across the whole test."""
    flag = {"tripped": False}
    counter = {"n": 0}
    lock = threading.Lock()

    def connect():
        with lock:
            counter["n"] += 1
            number = counter["n"]
        endpoint = node.connect()
        if number == 2 and not flag["tripped"]:
            return _FlakyEndpoint(endpoint, fail_after, flag)
        return endpoint

    return connect, flag


def run_job(connect, sessions=1, retry_attempts=0):
    client = LegacyEtlClient(connect, timeout=5)
    client.logon("h", "u", "p")
    client.execute_sql(
        "create table R (A varchar(12) not null, unique (A))")
    data = "".join(f"row-{i:04d}\n" for i in range(40)).encode()
    result = client.run_import(ImportJobSpec(
        target_table="R", et_table="R_ET", uv_table="R_UV",
        layout=LAYOUT, apply_sql="insert into R values (:A)",
        data=data, sessions=sessions, chunk_bytes=64,
        retry_attempts=retry_attempts))
    client.logoff()
    return result


class TestRestart:
    def test_without_retries_job_fails(self, stack):
        connect, flag = flaky_connect(stack.node, fail_after=3)
        with pytest.raises(TransportClosed):
            run_job(connect, retry_attempts=0)
        assert flag["tripped"]

    def test_session_resumes_and_loads_exactly_once(self, stack):
        connect, flag = flaky_connect(stack.node, fail_after=3)
        result = run_job(connect, retry_attempts=2)
        assert flag["tripped"], "the failure must actually have fired"
        assert result.rows_inserted == 40
        assert result.uv_errors == 0  # no double-loaded rows
        rows = stack.engine.query("SELECT COUNT(*) FROM R")
        assert rows == [(40,)]

    def test_duplicate_chunk_submission_is_idempotent(self, stack):
        """Directly resend the same chunk seq — only one copy lands."""
        from repro.legacy.protocol import (
            Message, MessageChannel, MessageKind,
        )
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "u", "p")
        client.execute_sql("create table R (A varchar(12))")
        control = client._control
        control.request(
            Message(MessageKind.BEGIN_LOAD, {
                "job_id": "duptest", "target": "R",
                "et_table": "R_ET", "uv_table": "R_UV",
                "layout": {"name": "L",
                           "fields": [["A", "VARCHAR(12)"]]},
                "format": "vartext:|", "sessions": 1,
            }), MessageKind.BEGIN_LOAD_OK)
        data_channel = MessageChannel(stack.node.connect(), timeout=5)
        data_channel.request(
            Message(MessageKind.LOGON,
                    {"job_id": "duptest", "session_no": 0}),
            MessageKind.LOGON_OK)
        for _ in range(3):  # same chunk, three times
            data_channel.request(
                Message(MessageKind.DATA,
                        {"job_id": "duptest", "session_no": 0,
                         "seq": 0}, body=b"x\ny\n"),
                MessageKind.DATA_ACK)
        data_channel.request(
            Message(MessageKind.DATA_EOF,
                    {"job_id": "duptest", "session_no": 0}),
            MessageKind.DATA_ACK)
        applied = control.request(
            Message(MessageKind.APPLY_DML,
                    {"job_id": "duptest",
                     "sql": "insert into R values (:A)"}),
            MessageKind.APPLY_RESULT)
        assert applied.meta["rows_inserted"] == 2
        control.request(Message(MessageKind.END_LOAD,
                                {"job_id": "duptest"}),
                        MessageKind.END_LOAD_OK)
        data_channel.close()
        client.logoff()


class TestResumeFromBlockFiles:
    """A resumed load whose journal holds durable staging block files
    and one pending file lands exactly what an uninterrupted load
    lands."""

    DATA = "".join(f"row-{i:04d}-{'x' * 24}\n" for i in range(24)).encode()

    def _spec(self, tmp_path, **extra):
        return ImportJobSpec(
            target_table="R", et_table="R_ET", uv_table="R_UV",
            layout=Layout("L", [FieldDef("A", parse_type("varchar(40)"))]),
            apply_sql="insert into R values (:A)", data=self.DATA,
            sessions=1, chunk_bytes=16, job_id="blockresume",
            journal_path=str(tmp_path / "client.jsonl"), **extra)

    def _target(self, config, spec, interrupt=None):
        with make_node(config=config) as stack:
            client = LegacyEtlClient(stack.node.connect, timeout=15)
            client.logon("h", "u", "p")
            client.execute_sql(
                "create table R (A varchar(40) not null, unique (A))")
            if interrupt is not None:
                interrupt(client, stack)
                spec = dataclasses.replace(spec, resume=True)
            result = client.run_import(spec)
            client.logoff()
            rows = stack.engine.query("SELECT A FROM R ORDER BY A")
            return rows, (result.rows_inserted, result.et_errors,
                          result.uv_errors)

    def test_durable_blocks_and_a_requeued_file(self, tmp_path):
        # One chunk per staging file.  Run 1's connection drops after
        # 8 chunks and the 8th file's upload fails for good, so the
        # journal holds 7 uploaded block files and one pending one.
        config = HyperQConfig(
            converters=1, filewriters=1, credits=8,
            file_threshold_bytes=16,
            chaos_profile=[
                {"point": "net.send", "at_call": 12, "max_fires": 1},
                {"point": "store.upload", "at_call": 8, "max_fires": 1,
                 "error": "permanent"}])
        state = {}

        def interrupt(client, stack):
            with pytest.raises(TransportClosed):
                client.run_import(self._spec(tmp_path))
            job_dir = os.path.join(stack.node._base_dir, "blockresume")
            journal_path = os.path.join(job_dir, "checkpoint.jsonl")
            deadline = time.monotonic() + 10
            while stack.store.upload_count < 7 \
                    or stack.node.stats()["active_jobs"]:
                assert time.monotonic() < deadline, "run 1 never settled"
                time.sleep(0.01)
            journal = CheckpointJournal(journal_path)
            state["uploaded"] = sorted(journal.uploaded)
            state["pending"] = [rec["path"]
                                for rec in journal.pending_files()]
            journal.close()
            state["on_disk"] = all(os.path.exists(path)
                                   for path in state["pending"])

        resumed = self._target(config, self._spec(tmp_path), interrupt)
        assert len(state["uploaded"]) == 7
        assert all(name.endswith(".blk") for name in state["uploaded"])
        assert len(state["pending"]) == 1 and state["on_disk"]
        (tmp_path / "clean").mkdir()
        clean = self._target(
            HyperQConfig(converters=1, filewriters=1, credits=8,
                         file_threshold_bytes=16),
            self._spec(tmp_path / "clean"))
        assert resumed == clean
        assert clean[1] == (24, 0, 0)


def lose_first_apply_result(monkeypatch):
    """The client sends APPLY, the server commits and replies, and the
    reply is lost on the way: the client's except-path aborts the job
    (END_LOAD ``abort``) and raises, exactly as on a dropped link."""
    original = MessageChannel.request
    armed = [True]

    def request(channel, message, expect):
        reply = original(channel, message, expect)
        if expect == MessageKind.APPLY_RESULT and armed[0]:
            armed[0] = False
            raise TransportClosed("APPLY_RESULT lost")
        return reply

    monkeypatch.setattr(MessageChannel, "request", request)


def counts(engine, *tables):
    return [engine.query(f"SELECT COUNT(*) FROM {t}")[0][0] for t in tables]


class TestLostApplyResult:
    """APPLY is a commit: a resume after a lost APPLY_RESULT gets the
    stored result back and the DML never runs twice."""

    def _resume(self, stack, monkeypatch, ddl, spec, tables):
        client = LegacyEtlClient(stack.node.connect, timeout=5)
        client.logon("h", "u", "p")
        client.execute_sql(ddl)
        lose_first_apply_result(monkeypatch)
        with pytest.raises(TransportClosed):
            client.run_import(spec)
        applied = counts(stack.engine, *tables)
        result = client.run_import(dataclasses.replace(spec, resume=True))
        client.logoff()
        # the resumed job changes nothing in the warehouse ...
        assert counts(stack.engine, *tables) == applied
        # ... and reports what the lost APPLY_RESULT said
        assert result.committed and result.chunks_sent == 0
        assert stack.node.stats()["active_jobs"] == 0
        assert not stack.engine.catalog.exists(f"HQ_STG_{spec.job_id}")
        return applied, result

    def test_clean_load_applies_once(self, stack, monkeypatch):
        data = "".join(f"row-{i:04d}\n" for i in range(40)).encode()
        applied, result = self._resume(
            stack, monkeypatch, "create table R (A varchar(12))",
            ImportJobSpec(
                target_table="R", et_table="R_ET", uv_table="R_UV",
                layout=LAYOUT, apply_sql="insert into R values (:A)",
                data=data, sessions=2, chunk_bytes=64, job_id="lost1"),
            ["R"])
        assert applied == [40]
        assert result.rows_inserted == 40

    def test_dirty_load_routes_errors_once(self, stack, monkeypatch):
        layout = Layout("L", [FieldDef("ID", parse_type("varchar(5)")),
                              FieldDef("D", parse_type("varchar(10)"))])
        lines = []
        for i in range(40):
            key = f"{i - 10:05d}" if i in (22, 33) else f"{i:05d}"
            day = "xxxx" if i in (5, 15, 25) else "2012-01-01"
            lines.append(f"{key}|{day}\n")
        applied, result = self._resume(
            stack, monkeypatch,
            "create table T (ID varchar(5) not null, D date, unique (ID))",
            ImportJobSpec(
                target_table="T", et_table="T_ET", uv_table="T_UV",
                layout=layout, data="".join(lines).encode(),
                apply_sql="insert into T values (trim(:ID), "
                          "cast(:D as DATE format 'YYYY-MM-DD'))",
                sessions=1, chunk_bytes=96, job_id="lost2"),
            ["T", "T_ET", "T_UV"])
        assert applied == [35, 3, 2]
        assert (result.rows_inserted, result.et_errors,
                result.uv_errors) == (35, 3, 2)

    def test_feed_batch_commit_stays_the_feed_watermark(
            self, stack, monkeypatch):
        """A feed batch journals no ``applied`` record: its commit is
        the feed's ``stream_commit``, and its replay is the same
        ``committed`` reply."""
        records = []
        monkeypatch.setattr(CheckpointJournal, "record_applied",
                            lambda journal, result: records.append(result))
        client = LegacyEtlClient(stack.node.connect, timeout=5)
        client.logon("h", "u", "p")
        client.execute_sql("create table R (A varchar(12))")
        spec = ImportJobSpec(
            target_table="R", et_table="R_ET", uv_table="R_UV",
            layout=LAYOUT, apply_sql="insert into R values (:A)",
            data=b"a\nb\n", sessions=1, job_id="feed_b0", resume=True,
            stream={"feed": "feed", "batch_seq": 0})
        first = client.run_import(spec)
        replay = client.run_import(spec)
        client.end_stream("feed")
        client.logoff()
        assert not first.committed and first.rows_inserted == 2
        assert replay.committed and replay.stream["committed_seq"] == 0
        assert records == []
        assert counts(stack.engine, "R") == [2]


class TestNodeStats:
    def test_stats_snapshot(self, stack):
        run_job(stack.node.connect, retry_attempts=0)
        stats = stack.node.stats()
        assert stats["completed_jobs"] == 1
        assert stats["rows_loaded"] == 40
        assert stats["active_jobs"] == 0
        assert stats["credits"]["available"] == \
            stats["credits"]["pool_size"]
        assert stats["engine_statements"]["Insert"] >= 1
        assert stats["store_bytes_uploaded"] > 0
