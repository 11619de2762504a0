"""Steady-state continuous ingestion: commits, watermark, fast-skip.

A scripted feed runs through one :class:`StreamSession`; every batch
must land exactly once, the gateway must journal a durable per-feed
watermark (compacted every so many commits and at feed close, so the
journal stays O(state)), and a restarted client replaying the whole
feed from batch zero must fast-skip everything at or below the
watermark without creating server-side jobs.
"""

import json
import os

from repro.core.config import HyperQConfig
from repro.stream import StreamRunner, StreamSession
from repro.workloads.streamgen import stream_workload

from tests.conftest import make_node


def _config():
    return HyperQConfig(converters=2, filewriters=2, credits=8)


def test_steady_state_feed_lands_every_row_once(tmp_path):
    workload = stream_workload(batches=5, rows_per_batch=8, drift=False,
                               seed=13)
    with make_node(config=_config()) as stack:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed=workload.feed,
                                target_table=workload.target_table,
                                watermark_dir=str(tmp_path))
        with session:
            report = StreamRunner(session, workload).run()
        assert report.committed == 5
        assert report.skipped == report.routed == 0
        assert report.rows_inserted == workload.rows_total
        assert report.et_errors == report.uv_errors == 0
        rows = stack.engine.query(
            f"SELECT REC_ID FROM {workload.target_table}")
        assert len(rows) == workload.rows_total
        assert len(set(rows)) == workload.rows_total
        batches = stack.node.obs.registry.collect()[
            "hyperq_stream_batches_total"]["samples"]
        committed = [s for s in batches
                     if s["labels"]["outcome"] == "committed"]
        assert committed and committed[0]["value"] == 5


def test_watermark_journal_is_durable_and_compact(tmp_path):
    workload = stream_workload(batches=8, rows_per_batch=6, drift=False,
                               feed="wm_feed", seed=5)
    with make_node(config=_config()) as stack:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed="wm_feed",
                                target_table=workload.target_table,
                                watermark_dir=str(tmp_path))
        with session:
            StreamRunner(session, workload).run()
    path = os.path.join(str(tmp_path), "wm_feed.feed.jsonl")
    assert os.path.exists(path)
    lines = [json.loads(line) for line in
             open(path, encoding="utf-8") if line.strip()]
    # compacted at feed close at the latest: O(state), not O(batches)
    assert len(lines) <= 2
    commit = [r for r in lines if r["t"] == "stream_commit"][-1]
    assert commit["seq"] == 7
    assert commit["total_rows"] == workload.rows_total
    assert commit["cursor"] == workload.batches[-1].cursor


def test_restarted_client_fast_skips_committed_batches(tmp_path):
    workload = stream_workload(batches=6, rows_per_batch=7, drift=False,
                               seed=3)
    with make_node(config=_config()) as stack:
        stack.engine.execute(workload.ddl)
        first = StreamSession(stack.node.connect, feed=workload.feed,
                              target_table=workload.target_table,
                              watermark_dir=str(tmp_path))
        first.open()
        StreamRunner(first, workload).run(batches=4)
        # simulate a crash: the feed stays open on the server
        first.close(end_feed=False)

        second = StreamSession(stack.node.connect, feed=workload.feed,
                               target_table=workload.target_table,
                               watermark_dir=str(tmp_path))
        with second:
            report = StreamRunner(second, workload).run()
        assert report.skipped == 4
        assert report.committed == 2
        rows = stack.engine.query(
            f"SELECT REC_ID FROM {workload.target_table}")
        assert len(rows) == workload.rows_total
        assert len(set(rows)) == workload.rows_total
        skipped = [
            s for s in stack.node.obs.registry.collect()[
                "hyperq_stream_batches_total"]["samples"]
            if s["labels"]["outcome"] == "skipped"]
        assert skipped and skipped[0]["value"] == 4


def test_stats_expose_open_feeds_and_end_stream_closes(tmp_path):
    workload = stream_workload(batches=3, rows_per_batch=5, drift=False,
                               feed="statfeed", seed=9)
    with make_node(config=_config()) as stack:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed="statfeed",
                                target_table=workload.target_table,
                                watermark_dir=str(tmp_path))
        session.open()
        StreamRunner(session, workload).run()
        snapshot = stack.node.stats()["streams"]
        assert "statfeed" in snapshot
        assert snapshot["statfeed"]["committed_seq"] == 2
        assert snapshot["statfeed"]["rows_committed"] == \
            workload.rows_total
        session.close()  # END_LOAD with stream_end closes the feed
        assert stack.node.stats()["streams"] == {}
