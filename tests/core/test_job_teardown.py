"""Every way a job ends goes through its one end method.

For a one-shot load, a feed batch and an export, each end path —
END_LOAD, END_LOAD abort (before and after APPLY), a dropped control or
data connection, a resume takeover and node stop — must leave no WLM
slot, no registry entry, the job span ended with the outcome's status,
exactly one terminal flight event, no extra thread, and the staging
table, the job's staging dir and its uploaded blobs kept (for a
``resume``) or removed as that outcome's row in docs/RESILIENCE.md says.
"""

import os
import threading
import time

import pytest

from repro.core.config import HyperQConfig
from repro.legacy.client import split_into_chunks
from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import (
    Message, MessageChannel, MessageKind, layout_to_wire,
)
from repro.workloads.generator import make_workload
from tests.conftest import make_node

PROFILE = {"pools": [
    {"name": "only", "weight": 1, "max_concurrency": 2, "queue_limit": 0,
     "queue_timeout_s": 1.0, "match": {}},
]}
FORMAT = FormatSpec("vartext", "|")
JOB, FEED = "J1", "F1"
#: flight events that end a job: the load outcomes, and an export's.
TERMINAL = {"completed", "aborted", "abandoned", "restarted", "failed"}


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


class Rig:
    """A started node with a target table, driven frame by frame."""

    def __init__(self, tmp_path):
        self.stack = make_node(config=HyperQConfig(
            credits=8, wlm_profile=PROFILE, trace_enabled=True,
            # every chunk cuts its own staging file, uploaded at once
            file_threshold_bytes=1))
        self.node, self.engine = self.stack.node, self.stack.engine
        self.workload = make_workload(rows=24, row_bytes=60, seed=21)
        self.engine.execute(self.workload.ddl)
        self.chunks = split_into_chunks(self.workload.data, FORMAT, 300)
        self.watermarks = str(tmp_path)
        self.channels: list[MessageChannel] = []
        self.stopped = False
        self.baseline_threads = threading.active_count()

    def session(self, **logon) -> MessageChannel:
        channel = MessageChannel(self.node.connect(), timeout=10)
        self.channels.append(channel)
        channel.request(Message(MessageKind.LOGON, {"user": "u", **logon}),
                        MessageKind.LOGON_OK)
        return channel

    def begin(self, control, feed: bool, resume: bool = False) -> dict:
        workload = self.workload
        meta = {
            "job_id": JOB, "target": workload.target_table,
            "et_table": workload.et_table, "uv_table": workload.uv_table,
            "layout": layout_to_wire(workload.layout),
            "format": FORMAT.to_wire(), "sessions": 1,
            "resume": resume or feed,
        }
        if feed:
            meta["stream"] = {"feed": FEED, "batch_seq": 0,
                              "watermark_dir": self.watermarks}
        return control.request(Message(MessageKind.BEGIN_LOAD, meta),
                               MessageKind.BEGIN_LOAD_OK).meta

    def send(self) -> None:
        data = self.session(job_id=JOB, session_no=0)
        for seq, chunk in enumerate(self.chunks):
            data.request(Message(MessageKind.DATA,
                                 {"job_id": JOB, "seq": seq}, body=chunk),
                         MessageKind.DATA_ACK)
        data.request(Message(MessageKind.DATA_EOF, {"job_id": JOB}),
                     MessageKind.DATA_ACK)
        data.close()

    def apply(self, control) -> dict:
        return control.request(
            Message(MessageKind.APPLY_DML,
                    {"job_id": JOB, "sql": self.workload.apply_sql}),
            MessageKind.APPLY_RESULT).meta

    @staticmethod
    def end_load(control, job_id: str = JOB, **flags) -> None:
        control.request(
            Message(MessageKind.END_LOAD, {"job_id": job_id, **flags}),
            MessageKind.END_LOAD_OK)

    def blobs(self) -> list[str]:
        return self.node.store.list_blobs(self.node.config.container,
                                          f"{JOB}/")

    def artifacts(self, staging_table: str) -> dict:
        """What of the job is left: staging table (and its rows),
        staging dir, uploaded blobs."""
        exists = self.engine.catalog.exists(staging_table)
        return {
            "table": exists,
            "rows": exists and self.engine.table(staging_table).row_count,
            "dir": os.path.isdir(os.path.join(self.node._base_dir, JOB)),
            "blobs": bool(self.blobs()),
        }

    def spans(self, name: str, job_id: str = JOB) -> list[str]:
        return [r["status"] for r in self.node.obs.tracer.spans(name)
                if r["attrs"].get("job_id") == job_id]

    def terminal_events(self, job_id: str = JOB) -> list[str]:
        return [e["event"] for e in self.node.obs.flight.events(job_id)
                if e["event"] in TERMINAL]

    def occupied(self) -> int:
        return self.node.wlm.snapshot()["pools"]["only"]["occupied_slots"]

    def stop(self) -> None:
        self.stopped = True
        self.stack.close()

    def close(self) -> None:
        for channel in self.channels:
            channel.close()
        if not self.stopped:
            self.stop()

    def assert_released(self) -> None:
        """No slot, no registry entry, no thread beyond the baseline."""
        node = self.node
        wait_until(lambda: self.occupied() == 0)
        assert not node._jobs and not node._exports and not node._streams
        for channel in self.channels:
            channel.close()
        wait_until(lambda: threading.active_count() <= self.baseline_threads)
        assert not [t for t in threading.enumerate()
                    if t.name == "tdf-cursor"]


@pytest.fixture
def rig(tmp_path):
    rig = Rig(tmp_path)
    yield rig
    rig.close()


# path -> (terminal flight event, job span status, resumable state kept)
LOAD_PATHS = {
    "end_load": ("completed", "ok", False),
    "abort": ("aborted", "error", True),
    "abort_after_apply": ("aborted", "error", True),
    "control_drop": ("abandoned", "error", True),
    "resume_takeover": ("restarted", "error", True),
    "node_stop": ("abandoned", "error", True),
}


@pytest.mark.parametrize("feed", [False, True], ids=["one_shot", "feed"])
@pytest.mark.parametrize("path", LOAD_PATHS)
def test_load_job_ends_through_one_teardown(rig, feed, path):
    event, status, kept = LOAD_PATHS[path]
    staging = f"HQ_STG_FEED_{FEED}" if feed else f"HQ_STG_{JOB}"
    control = rig.session()
    rig.begin(control, feed)
    rig.send()
    wait_until(lambda: len(rig.blobs()) == len(rig.chunks))

    if path == "end_load":
        rig.apply(control)
        rig.end_load(control)
    elif path == "abort":
        rig.end_load(control, abort=True)
    elif path == "abort_after_apply":
        rig.apply(control)
        rig.end_load(control, abort=True)
    elif path == "control_drop":
        control.close()
        wait_until(lambda: JOB not in rig.node._jobs)
    elif path == "resume_takeover":
        successor = rig.session()
        begun = rig.begin(successor, feed, resume=True)
        # the killed predecessor's journal and blobs carried over
        assert begun["durable_seqs"] == list(range(len(rig.chunks)))
    else:
        rig.stop()

    assert rig.terminal_events() == [event]
    assert rig.spans("job")[0] == status
    # A feed batch aborted after its commit lost only its END_LOAD.
    keep = kept and not (feed and path == "abort_after_apply")
    left = rig.artifacts(staging)
    assert left["dir"] == (keep and path != "node_stop"), left
    assert left["blobs"] == keep, left
    if feed:
        # The feed's table outlives the batch: emptied when it commits,
        # left for the next BEGIN to empty when only END_LOAD was lost.
        assert left["table"], left
        if path in ("end_load", "abort_after_apply"):
            assert bool(left["rows"]) == (path != "end_load"), left
    else:
        assert left["table"] == kept, left

    if path == "resume_takeover":
        assert set(rig.node._jobs) == {JOB}
        rig.send()      # resubmitted chunks the journal holds dedupe
        result = rig.apply(successor)
        rig.end_load(successor)
        assert result["rows_inserted"] == rig.workload.expected_good_rows
        assert rig.terminal_events() == ["restarted", "completed"]
        assert rig.spans("job") == ["error", "ok"]
        assert rig.artifacts(staging)["dir"] is False
    if feed and not rig.stopped:
        assert rig.occupied() == 1          # the feed's own slot
        rig.end_load(rig.session(), FEED, stream_end=True)
        # a parked batch keeps the feed's staging table for its resume
        parked = keep and path != "resume_takeover"
        assert rig.engine.catalog.exists(staging) == parked
    rig.assert_released()


# path -> (terminal flight event, export span status)
EXPORT_PATHS = {
    "every_eof": ("completed", "ok"),
    "data_drop": ("failed", "error"),
    "control_drop": ("failed", "error"),
    "node_stop": ("failed", "error"),
}


@pytest.mark.parametrize("path", EXPORT_PATHS)
def test_export_ends_through_one_teardown(rig, path):
    event, status = EXPORT_PATHS[path]
    rig.node.config.export_chunk_rows = 1
    rig.engine.execute("create table E (A integer)")
    for i in range(8):
        rig.engine.execute(f"insert into E values ({i})")
    control = rig.session()
    control.request(Message(MessageKind.BEGIN_EXPORT, {
        "job_id": JOB, "sql": "sel A from E", "sessions": 1}),
        MessageKind.BEGIN_EXPORT_OK)
    data = rig.session(job_id=JOB, session_no=0)
    fetched = 0
    while path == "every_eof" or fetched < 1:
        reply = data.request(
            Message(MessageKind.EXPORT_FETCH, {
                "job_id": JOB, "session_no": 0, "chunk_no": fetched}),
            MessageKind.EXPORT_DATA)
        if reply.meta["eof"]:
            break
        fetched += 1

    if path == "data_drop":
        data.close()
    elif path == "control_drop":
        control.close()
    elif path == "node_stop":
        rig.stop()
    wait_until(lambda: JOB not in rig.node._exports)

    assert rig.terminal_events() == [event]
    assert rig.spans("export") == [status]
    rig.assert_released()
