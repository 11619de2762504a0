"""Kill + resume: a feed's watermark makes replays exactly-once.

The chaos injector drops one server→client send mid-run, killing the
client somewhere between a gateway-side batch commit and the client
observing it (the worst window: the gateway has journaled the
watermark, the client has not seen APPLY_RESULT).  A fresh client then
replays the *whole* feed from batch zero.  Exactly-once demands zero
duplicated and zero lost rows, and a final target state identical to a
run that was never interrupted.

Every batch of a feed stages into the feed's one staging table, so the
sweep below kills at *every* server→client send of the feed, and at the
COPY and the apply of every batch; the unit tests at the bottom pin the
rule that makes the shared table safe.
"""

import functools
import json
import os

import pytest

from repro.core.config import HyperQConfig
from repro.errors import ProtocolError, ReproError, TransportClosed
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.legacy.protocol import (
    Message, MessageChannel, MessageKind, layout_to_wire,
)
from repro.stream import StreamRunner, StreamSession
from repro.workloads.streamgen import stream_workload

from tests.conftest import make_node

#: micro-batches in the swept feed.
BATCHES = 9

#: server→client sends of one clean run of the feed over one data
#: session (pinned by ``test_sweep_covers_every_send``): 4 per batch —
#: BEGIN_LOAD_OK, DATA_ACK, APPLY_RESULT, END_LOAD_OK; the data session
#: logs on once for the whole feed and a batch sends no DATA_EOF — plus
#: the control and data sessions' LOGON_OKs, the feed close's
#: END_LOAD_OK and LOGOFF_OK: 4 * 9 + 4.
SENDS = 4 * BATCHES + 4

#: the id names the apply path (two-phase) and the front end (threaded),
#: the only one of each, which keeps the sweep's test ids stable.
ONE_PATH = pytest.mark.parametrize("path", ["twophase-threaded"])


def _workload(date_error_rate=0.0):
    return stream_workload(batches=BATCHES, rows_per_batch=12, drift=True,
                           add_at=2, rename_at=4, seed=21,
                           date_error_rate=date_error_rate)


def _config(chaos=None):
    return HyperQConfig(
        converters=1, filewriters=1, credits=8, chaos_profile=chaos)


def _final_state(engine, table):
    return sorted(engine.query(
        f"SELECT REC_ID, CUST_NAME, JOIN_DATE, SRC_REGION FROM {table}"))


def _outcome(engine, workload):
    """Target, ET and UV contents — what a replay must converge to."""
    return (_final_state(engine, workload.target_table),
            sorted(engine.query(
                f"SELECT SEQNO, ERRCODE, ERRFIELD, ERRMSG "
                f"FROM {workload.et_table}")),
            sorted(engine.query(f"SELECT * FROM {workload.uv_table}")))


def _session(stack, workload, tmp_path):
    return StreamSession(stack.node.connect, feed=workload.feed,
                         target_table=workload.target_table,
                         watermark_dir=str(tmp_path), sessions=1)


@functools.cache
def reference_outcome():
    """The uninterrupted run every kill+resume must converge to."""
    workload = _workload()
    with make_node(config=HyperQConfig(credits=8)) as stack:
        stack.engine.execute(workload.ddl)
        with StreamSession(stack.node.connect, feed=workload.feed,
                           target_table=workload.target_table) as session:
            report = StreamRunner(session, workload).run()
        assert report.committed == BATCHES
        return _final_state(stack.engine, workload.target_table)


@functools.cache
def clean_outcome():
    """``_outcome`` of the uninterrupted dirty-date feed."""
    workload = _workload(date_error_rate=0.1)
    config = _config()
    with make_node(config=config) as stack:
        stack.engine.execute(workload.ddl)
        with StreamSession(stack.node.connect, feed=workload.feed,
                           target_table=workload.target_table,
                           sessions=1) as session:
            report = StreamRunner(session, workload).run()
        assert report.committed == BATCHES and report.et_errors > 0
        return _outcome(stack.engine, workload)


def kill_and_replay(tmp_path, rule):
    """Run the feed into one injected fault, replay it from batch 0 with
    a fresh client, and require the clean run's outcome."""
    workload = _workload(date_error_rate=0.1)
    config = _config([dict(rule, max_fires=1)])
    with make_node(config=config) as stack:
        stack.engine.execute(workload.ddl)
        first = _session(stack, workload, tmp_path).open()
        try:
            StreamRunner(first, workload).run()
            first.close()
        except ReproError:
            pass    # killed partway (or at feed close / LOGOFF)
        assert stack.node.stats()["resilience"]["faults_injected"] == 1

        with _session(stack, workload, tmp_path) as second:
            report = StreamRunner(second, workload).run()
        assert report.skipped + report.committed == BATCHES
        assert _outcome(stack.engine, workload) == clean_outcome()


def test_sweep_covers_every_send():
    workload = _workload(date_error_rate=0.1)
    never = [{"point": "net.send", "at_call": 10 ** 9}]
    with make_node(config=_config(never)) as stack:
        stack.engine.execute(workload.ddl)
        with StreamSession(stack.node.connect, feed=workload.feed,
                           target_table=workload.target_table,
                           sessions=1) as session:
            StreamRunner(session, workload).run()
        assert stack.node.faults.calls("net.send") == SENDS


# call 1 is the control session's LOGON_OK: no session, nothing to replay
@pytest.mark.parametrize("at_call", range(2, SENDS + 1))
def test_killed_client_replays_feed_exactly_once(tmp_path, at_call):
    expected = reference_outcome()
    workload = _workload()
    config = HyperQConfig(
        converters=1, filewriters=1, credits=8,
        chaos_profile=[{"point": "net.send", "at_call": at_call,
                        "max_fires": 1}])
    with make_node(config=config) as stack:
        stack.engine.execute(workload.ddl)
        first = StreamSession(stack.node.connect, feed=workload.feed,
                              target_table=workload.target_table,
                              watermark_dir=str(tmp_path), sessions=1)
        first.open()
        # the dropped send kills the client partway through the feed
        with pytest.raises(ReproError):
            StreamRunner(first, workload).run()
            first.close()   # the last two sends: feed close, LOGOFF
        assert stack.node.stats()["resilience"]["faults_injected"] == 1
        # the failed batch closed the feed's kept data session
        assert first.client._feed_sessions == {}

        # a fresh client replays from batch zero: committed batches
        # fast-skip, the half-done one resumes through its batch journal
        second = StreamSession(stack.node.connect, feed=workload.feed,
                               target_table=workload.target_table,
                               watermark_dir=str(tmp_path), sessions=1)
        with second:
            report = StreamRunner(second, workload).run()
        assert report.skipped + report.committed == BATCHES
        assert report.et_errors == report.uv_errors == 0

        final = _final_state(stack.engine, workload.target_table)
        # zero lost, zero duplicated: identical to the clean run
        assert final == expected


@ONE_PATH
def test_kill_at_every_send_converges(tmp_path, path):
    """The sweep above on a feed with ET rows (one node per kill
    point)."""
    for at_call in range(2, SENDS + 1):
        kill_dir = tmp_path / str(at_call)
        kill_dir.mkdir()
        try:
            kill_and_replay(kill_dir, {"point": "net.send",
                                       "at_call": at_call})
        except BaseException:
            print(f"net.send kill at call {at_call}")
            raise


@ONE_PATH
@pytest.mark.parametrize("point", ["copy.into", "dml.apply"])
@pytest.mark.parametrize("batch", range(1, 7))
def test_kill_between_copy_and_commit_converges(
        tmp_path, point, batch, path):
    """A permanent fault at batch ``batch``'s COPY (files durable,
    nothing landed) or apply (COPY landed in the feed's staging table,
    no commit record) fails the batch; the replay resumes it."""
    kill_and_replay(tmp_path, {"point": point, "at_call": batch,
                               "error": "permanent"})


@pytest.mark.parametrize("retries", [0, 1])
def test_kept_data_session_killed_between_batches(tmp_path, retries):
    """The feed's data session dies while it idles between batches 2
    and 3.  Allowed a reconnect, batch 3 logs a new one on and the feed
    goes on; without one, batch 3 fails and the replay converges."""
    workload = _workload(date_error_rate=0.1)
    endpoints = []
    with make_node(config=_config()) as stack:
        def connect():
            endpoints.append(stack.node.connect())
            return endpoints[-1]

        stack.engine.execute(workload.ddl)
        session = StreamSession(connect, feed=workload.feed,
                                target_table=workload.target_table,
                                watermark_dir=str(tmp_path), sessions=1,
                                retry_attempts=retries)
        with session:
            for batch in workload.batches[:3]:
                assert session.run_batch(batch).committed
            control, data = endpoints
            data.close_both()
            if retries:
                for batch in workload.batches[3:]:
                    assert session.run_batch(batch).committed
            else:
                with pytest.raises(TransportClosed):
                    session.run_batch(workload.batches[3])
                report = StreamRunner(session, workload).run()
                assert (report.skipped, report.committed) == \
                    (3, BATCHES - 3)
        # one new data session, logged on by the batch after the kill
        assert len(endpoints) == 3
        assert _outcome(stack.engine, workload) == clean_outcome()


# -- the shared staging table's resume rule, one step at a time ------------

def _spec(workload, batch, **stream):
    return ImportJobSpec(
        target_table=workload.target_table, et_table=workload.et_table,
        uv_table=workload.uv_table, layout=batch.layout,
        apply_sql=batch.apply_sql, data=batch.data,
        format_spec=batch.format_spec, sessions=1,
        job_id=f"unit_b{batch.seq}", resume=True,
        stream={"feed": "unit", "batch_seq": batch.seq, **stream})


def _staged(stack):
    return stack.engine.table("HQ_STG_FEED_unit").row_count


def test_begin_empties_an_aborted_batch_and_resume_keeps_its_own(
        tmp_path):
    workload = stream_workload(batches=3, rows_per_batch=9, drift=False,
                               feed="unit", seed=23)
    first, second = workload.batches[:2]
    # the apply of batch 0 fails for good once, then of batch 1 once
    chaos = [{"point": "dml.apply", "at_call": call, "max_fires": 1,
              "error": "permanent"} for call in (1, 2)]
    with make_node(config=_config(chaos)) as stack:
        stack.engine.execute(workload.ddl)
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "stream", "")
        watermark = {"watermark_dir": str(tmp_path)}

        with pytest.raises(ReproError, match="injected"):
            client.run_import(_spec(workload, first, **watermark))
        # COPY landed, no commit: batch 0's rows are parked in the table
        assert _staged(stack) == first.rows
        statements = dict(stack.engine.statement_counts)

        # the next batch's BEGIN empties them (and fails at apply too)
        with pytest.raises(ReproError, match="injected"):
            client.run_import(_spec(workload, second, **watermark))
        assert _staged(stack) == second.rows
        assert stack.engine.query(
            f"SELECT COUNT(*) FROM {workload.target_table}") == [(0,)]
        # ... and discards what a resume of batch 0 would start from:
        # its journal claims rows the table no longer has
        node = stack.node
        assert not os.path.exists(os.path.join(node._base_dir, "unit_b0"))
        assert stack.store.list_blobs(
            node.config.container, "unit_b0/") == []

        # resumed, batch 1 finds its own rows landed: no second COPY
        copies = stack.engine.statement_counts["CopyInto"]
        result = client.run_import(_spec(workload, second, **watermark))
        assert result.rows_inserted == second.rows
        assert stack.engine.statement_counts["CopyInto"] == copies
        assert _staged(stack) == 0      # END_LOAD emptied the table
        # ... which was created once and never dropped
        assert stack.engine.statement_counts["CreateTable"] == \
            statements["CreateTable"]
        assert "DropTable" not in stack.engine.statement_counts
        client.end_stream("unit")
        client.logoff()
        assert not stack.engine.catalog.exists("HQ_STG_FEED_unit")


def test_second_batch_in_flight_gets_the_typed_error(tmp_path):
    workload = stream_workload(batches=2, rows_per_batch=5, drift=False,
                               feed="unit", seed=29)
    with make_node(config=_config()) as stack:
        stack.engine.execute(workload.ddl)
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {"user": "stream"}),
                        MessageKind.LOGON_OK)

        def begin(batch):
            return channel.request(Message(MessageKind.BEGIN_LOAD, {
                "job_id": f"unit_b{batch.seq}", "resume": True,
                "target": workload.target_table,
                "et_table": workload.et_table,
                "uv_table": workload.uv_table,
                "layout": {"name": "L", "fields": [
                    [f.name, f.type.render()]
                    for f in batch.layout.fields]},
                "format": batch.format_spec.to_wire(), "sessions": 1,
                "stream": {"feed": "unit", "batch_seq": batch.seq,
                           "watermark_dir": str(tmp_path)},
            }), MessageKind.BEGIN_LOAD_OK)

        begin(workload.batches[0])
        with pytest.raises(ProtocolError, match="one batch per feed"):
            begin(workload.batches[1])
        # the same job id again is a resume, not a second batch
        begin(workload.batches[0])
        channel.request(
            Message(MessageKind.END_LOAD, {"job_id": "unit_b0"}),
            MessageKind.END_LOAD_OK)
        # and with batch 0 gone, batch 1 may begin
        begin(workload.batches[1])
        channel.close()


def test_commit_record_is_fsynced_before_apply_result_leaves(
        tmp_path, monkeypatch):
    """The feed journal stays open and is compacted only now and then,
    so every commit append must be durable by itself before the reply."""
    workload = stream_workload(batches=4, rows_per_batch=5, drift=False,
                               feed="unit", seed=37)
    journal_path = os.path.realpath(tmp_path / "unit.feed.jsonl")
    events = []
    fsync, send = os.fsync, MessageChannel.send

    def noting_fsync(fd):
        fsync(fd)
        if os.path.realpath(f"/proc/self/fd/{fd}") == journal_path:
            events.append("fsync")

    def noting_send(channel, message):
        if message.kind == MessageKind.APPLY_RESULT:
            with open(journal_path, encoding="utf-8") as handle:
                on_disk = [json.loads(line) for line in handle]
            events.append(("reply", message.meta["stream"]["seq"],
                           on_disk[-1]["t"], on_disk[-1]["seq"]))
        send(channel, message)

    monkeypatch.setattr(os, "fsync", noting_fsync)
    monkeypatch.setattr(MessageChannel, "send", noting_send)
    with make_node(config=_config()) as stack:
        stack.engine.execute(workload.ddl)
        with _session(stack, workload, tmp_path) as session:
            StreamRunner(session, workload).run()
            monkeypatch.undo()
    assert events == [
        step for seq in range(4)
        for step in ("fsync", ("reply", seq, "stream_commit", seq))]


def test_feed_close_keeps_a_parked_batch_resumable(tmp_path):
    """A batch that failed after its COPY landed survives the client
    closing the feed: the reopened feed resumes it from the rows in the
    staging table, which goes once the batch is through."""
    workload = stream_workload(batches=1, rows_per_batch=9, drift=False,
                               feed="unit", seed=43)
    (batch,) = workload.batches
    chaos = [{"point": "dml.apply", "at_call": 1, "max_fires": 1,
              "error": "permanent"}]
    with make_node(config=_config(chaos)) as stack:
        stack.engine.execute(workload.ddl)
        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "stream", "")
        spec = _spec(workload, batch, watermark_dir=str(tmp_path))
        with pytest.raises(ReproError, match="injected"):
            client.run_import(spec)
        client.end_stream("unit")
        assert _staged(stack) == batch.rows

        copies = stack.engine.statement_counts["CopyInto"]
        result = client.run_import(spec)
        assert result.rows_inserted == batch.rows
        assert stack.engine.statement_counts["CopyInto"] == copies
        client.end_stream("unit")
        client.logoff()
        assert not stack.engine.catalog.exists("HQ_STG_FEED_unit")


def test_takeover_resume_keeps_the_landed_rows(tmp_path):
    """A batch whose apply failed after its COPY, still held by a live
    control session, is taken over by a resume of the same job id: the
    successor inherits its journal, so the landed rows stay and no
    second COPY runs."""
    workload = stream_workload(batches=1, rows_per_batch=9, drift=False,
                               feed="unit", seed=53)
    (batch,) = workload.batches
    chaos = [{"point": "dml.apply", "at_call": 1, "max_fires": 1,
              "error": "permanent"}]
    with make_node(config=_config(chaos)) as stack:
        stack.engine.execute(workload.ddl)
        spec = _spec(workload, batch, watermark_dir=str(tmp_path))
        channel = MessageChannel(stack.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {"user": "stream"}),
                        MessageKind.LOGON_OK)
        channel.request(Message(MessageKind.BEGIN_LOAD, {
            "job_id": spec.job_id, "resume": True,
            "target": spec.target_table, "et_table": spec.et_table,
            "uv_table": spec.uv_table, "layout": layout_to_wire(spec.layout),
            "format": spec.format_spec.to_wire(), "sessions": 1,
            "stream": spec.stream}), MessageKind.BEGIN_LOAD_OK)
        channel.request(Message(MessageKind.DATA, {
            "job_id": spec.job_id, "seq": 0}, body=batch.data),
            MessageKind.DATA_ACK)
        with pytest.raises(ReproError, match="injected"):
            channel.request(Message(MessageKind.APPLY_DML, {
                "job_id": spec.job_id, "sql": spec.apply_sql}),
                MessageKind.APPLY_RESULT)
        assert _staged(stack) == batch.rows
        copies = stack.engine.statement_counts["CopyInto"]

        client = LegacyEtlClient(stack.node.connect)
        client.logon("h", "stream", "")
        result = client.run_import(spec)
        assert result.rows_inserted == batch.rows
        assert stack.engine.statement_counts["CopyInto"] == copies
        assert stack.engine.query(
            f"SELECT COUNT(*) FROM {workload.target_table}") == \
            [(batch.rows,)]
        client.end_stream("unit")
        client.logoff()
        channel.close()
