"""Admission slots must be released on every job-death path.

A pool with ``max_concurrency=1, queue_limit=0`` makes leaks instantly
visible: if a failed or abandoned job kept its slot, the very next
BEGIN would be shed with WLM_THROTTLED and the pool would be bricked
until node restart.
"""

import time

import pytest

from repro.core.config import HyperQConfig
from repro.errors import ProtocolError
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import (
    Message, MessageChannel, MessageKind, layout_to_wire,
)
from repro.workloads.generator import make_workload
from tests.conftest import make_node

PROFILE = {
    "pools": [
        {"name": "only", "weight": 1, "max_concurrency": 1,
         "queue_limit": 0, "queue_timeout_s": 1.0, "match": {}},
    ],
}


def tight_stack():
    return make_node(config=HyperQConfig(
        credits=8, wlm_profile=PROFILE))


def occupied(stack) -> int:
    return stack.node.stats()["wlm"]["pools"]["only"]["occupied_slots"]


def wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def import_spec(workload, **overrides) -> ImportJobSpec:
    spec = dict(
        target_table=workload.target_table,
        et_table=workload.et_table, uv_table=workload.uv_table,
        layout=workload.layout, apply_sql=workload.apply_sql,
        data=workload.data, sessions=1)
    spec.update(overrides)
    return ImportJobSpec(**spec)


def control_channel(stack) -> MessageChannel:
    channel = MessageChannel(stack.node.connect(), timeout=5)
    channel.request(
        Message(MessageKind.LOGON,
                {"host": "h", "user": "u", "password": "p"}),
        MessageKind.LOGON_OK)
    return channel


def data_channel(stack, job_id: str, session_no: int) -> MessageChannel:
    channel = MessageChannel(stack.node.connect(), timeout=5)
    channel.request(
        Message(MessageKind.LOGON,
                {"host": "h", "user": "u", "password": "p",
                 "job_id": job_id, "session_no": session_no}),
        MessageKind.LOGON_OK)
    return channel


def begin_load(channel, workload, job_id: str) -> None:
    channel.request(
        Message(MessageKind.BEGIN_LOAD, {
            "job_id": job_id,
            "target": workload.target_table,
            "et_table": workload.et_table,
            "uv_table": workload.uv_table,
            "layout": layout_to_wire(workload.layout),
            "format": FormatSpec("vartext", "|").to_wire(),
            "sessions": 1,
        }),
        MessageKind.BEGIN_LOAD_OK)


class TestLoadSlotRelease:
    def test_failed_apply_releases_slot(self):
        """A failed application phase must not brick the pool: the
        client aborts the job and the very next BEGIN is admitted."""
        workload = make_workload(rows=40, row_bytes=60, seed=11)
        stack = tight_stack()
        try:
            stack.engine.execute(workload.ddl)
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "u", "p")
            with pytest.raises(ProtocolError):
                client.run_import(import_spec(
                    workload,
                    apply_sql="insert into NO_SUCH_TABLE values "
                              "(:CUST_ID)"))
            # Slot freed immediately, no job state left behind.
            assert occupied(stack) == 0
            assert not stack.node._jobs

            # The pool (1 slot, 0 queue) admits the retry of the job.
            result = client.run_import(import_spec(workload))
            assert result.rows_inserted == workload.expected_good_rows
            client.logoff()
        finally:
            stack.close()

    def test_control_disconnect_releases_slot(self):
        """A client that crashes after BEGIN_LOAD (no END_LOAD ever
        arrives) must not hold its admission slot forever."""
        workload = make_workload(rows=20, row_bytes=60, seed=12)
        stack = tight_stack()
        try:
            stack.engine.execute(workload.ddl)
            channel = control_channel(stack)
            begin_load(channel, workload, "crashjob")
            assert occupied(stack) == 1
            channel.close()  # simulated client crash
            wait_until(lambda: occupied(stack) == 0)
            wait_until(lambda: not stack.node._jobs)
        finally:
            stack.close()

    def test_aborted_job_keeps_restartable_state(self):
        """Abort frees the slot but preserves checkpointed state, so a
        resume restart of the same job_id still works."""
        workload = make_workload(rows=40, row_bytes=60, seed=13)
        stack = tight_stack()
        try:
            stack.engine.execute(workload.ddl)
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "u", "p")
            spec_kwargs = dict(
                target_table=workload.target_table,
                et_table=workload.et_table,
                uv_table=workload.uv_table,
                layout=workload.layout, data=workload.data,
                sessions=1, job_id="rerunme")
            with pytest.raises(ProtocolError):
                client.run_import(ImportJobSpec(
                    apply_sql="insert into NO_SUCH_TABLE values "
                              "(:CUST_ID)",
                    **spec_kwargs))
            assert occupied(stack) == 0

            result = client.run_import(ImportJobSpec(
                apply_sql=workload.apply_sql, resume=True,
                **spec_kwargs))
            assert result.rows_inserted == workload.expected_good_rows
            client.logoff()
            assert occupied(stack) == 0
        finally:
            stack.close()


class TestExportSlotRelease:
    def setup_rows(self, stack, rows: int = 50) -> None:
        stack.engine.execute("create table E (A varchar(12))")
        for i in range(rows):
            stack.engine.execute(
                f"insert into E values ('row-{i:04d}')")

    def begin_export(self, channel, job_id: str,
                     sessions: int = 2) -> None:
        channel.request(
            Message(MessageKind.BEGIN_EXPORT, {
                "job_id": job_id,
                "sql": "select A from E",
                "format": FormatSpec("vartext", "|").to_wire(),
                "sessions": sessions,
            }),
            MessageKind.BEGIN_EXPORT_OK)

    def test_dead_data_session_releases_slot(self):
        """A data session that dies before fetching its EOF counts as
        drained on teardown — the export completes and frees its slot
        once the surviving sessions reach EOF."""
        stack = tight_stack()
        try:
            self.setup_rows(stack)
            control = control_channel(stack)
            self.begin_export(control, "exp1", sessions=2)
            assert occupied(stack) == 1

            # Session 1 connects, fetches nothing, and dies.
            dead = data_channel(stack, "exp1", session_no=1)
            dead.close()

            # Session 0 drains its stripe to EOF.
            live = data_channel(stack, "exp1", session_no=0)
            chunk_no = 0
            while True:
                response = live.request(
                    Message(MessageKind.EXPORT_FETCH,
                            {"job_id": "exp1", "session_no": 0,
                             "chunk_no": chunk_no}),
                    MessageKind.EXPORT_DATA)
                if response.meta.get("eof"):
                    break
                chunk_no += 2
            live.close()
            wait_until(lambda: occupied(stack) == 0)
            wait_until(lambda: not stack.node._exports)
            control.close()
        finally:
            stack.close()

    def test_eof_tracked_by_session_not_chunk_stripe(self):
        """Repeated past-the-end fetches from ONE session must not
        complete a two-session export early."""
        stack = tight_stack()
        try:
            self.setup_rows(stack, rows=2)
            control = control_channel(stack)
            self.begin_export(control, "exp2", sessions=2)
            live = data_channel(stack, "exp2", session_no=0)
            # Two past-the-end fetches with different chunk parities —
            # under chunk-stripe accounting these would (wrongly) count
            # as both sessions having drained.
            for chunk_no in (100, 101):
                response = live.request(
                    Message(MessageKind.EXPORT_FETCH,
                            {"job_id": "exp2", "session_no": 0,
                             "chunk_no": chunk_no}),
                    MessageKind.EXPORT_DATA)
                assert response.meta["eof"] is True
            assert occupied(stack) == 1
            assert "exp2" in stack.node._exports

            other = data_channel(stack, "exp2", session_no=1)
            response = other.request(
                Message(MessageKind.EXPORT_FETCH,
                        {"job_id": "exp2", "session_no": 1,
                         "chunk_no": 102}),
                MessageKind.EXPORT_DATA)
            assert response.meta["eof"] is True
            wait_until(lambda: occupied(stack) == 0)
            live.close()
            other.close()
            control.close()
        finally:
            stack.close()

    def test_control_disconnect_releases_export_slot(self):
        """An export whose owning control connection vanishes before
        any session drains is dropped and its slot freed."""
        stack = tight_stack()
        try:
            self.setup_rows(stack)
            control = control_channel(stack)
            self.begin_export(control, "exp3", sessions=2)
            assert occupied(stack) == 1
            control.close()  # simulated client crash
            wait_until(lambda: occupied(stack) == 0)
            wait_until(lambda: not stack.node._exports)
        finally:
            stack.close()
