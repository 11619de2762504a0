"""A steady-state micro-batch's budget, in host-independent counts.

Once a feed is warm, a batch reuses what the feed holds: its logged-on
data session, the node's pipeline pool, the feed's staging table and
open watermark journal.  Over ``MEASURED`` batches after the warm-up
each one must open no connection, start no thread, create no file under
the node's staging area, make at most two checkpoint-journal appends
(the batch's COPY record, kept in memory, and the feed's commit) and
send the gateway at most four requests (BEGIN_LOAD, DATA, APPLY_DML,
END_LOAD).
"""

import builtins
import os
import threading

from repro.core.config import HyperQConfig
from repro.resilience import CheckpointJournal
from repro.stream import StreamSession
from repro.workloads.streamgen import stream_workload

from tests.conftest import make_node

WARMUP, MEASURED = 5, 25


def _gateway_messages(node) -> int:
    samples = node.obs.registry.collect()["hyperq_messages_total"]["samples"]
    return int(sum(s["value"] for s in samples))


def test_steady_state_batch_stays_within_budget(tmp_path, monkeypatch):
    workload = stream_workload(batches=WARMUP + MEASURED, rows_per_batch=20,
                               drift=False, feed="budget", seed=47)
    with make_node(config=HyperQConfig(credits=8)) as stack:
        node = stack.node
        stack.engine.execute(workload.ddl)
        connects = []

        def connect():
            connects.append(1)
            return node.connect()

        session = StreamSession(connect, feed="budget",
                                target_table=workload.target_table,
                                watermark_dir=str(tmp_path), sessions=1)
        with session:
            for batch in workload.batches[:WARMUP]:
                assert session.run_batch(batch).committed

            staging_area = os.path.realpath(node._base_dir)
            created, appends = [], []

            def under_staging(path) -> bool:
                path = os.path.realpath(os.fspath(path))
                return os.path.commonpath([path, staging_area]) == \
                    staging_area

            real_open, real_makedirs = builtins.open, os.makedirs
            real_append = CheckpointJournal._append

            def noting_open(file, mode="r", *args, **kwargs):
                if isinstance(file, (str, bytes, os.PathLike)) and \
                        set(mode) & set("wax+") and under_staging(file):
                    created.append(file)
                return real_open(file, mode, *args, **kwargs)

            def noting_makedirs(name, *args, **kwargs):
                if under_staging(name):
                    created.append(name)
                return real_makedirs(name, *args, **kwargs)

            def noting_append(journal, record):
                appends.append(record["t"])
                return real_append(journal, record)

            monkeypatch.setattr(builtins, "open", noting_open)
            monkeypatch.setattr(os, "makedirs", noting_makedirs)
            monkeypatch.setattr(CheckpointJournal, "_append", noting_append)

            listing = sorted(os.walk(staging_area))
            threads = {t.ident for t in threading.enumerate()}
            seen = set(threads)
            connects.clear()
            messages = _gateway_messages(node)
            for batch in workload.batches[WARMUP:]:
                assert session.run_batch(batch).committed
                seen |= {t.ident for t in threading.enumerate()}
            messages = _gateway_messages(node) - messages
            monkeypatch.undo()

            assert connects == []
            assert seen == threads
            assert created == []
            assert sorted(os.walk(staging_area)) == listing
            assert len(appends) <= 2 * MEASURED, appends[:8]
            assert appends.count("stream_commit") == MEASURED
            assert messages <= 4 * MEASURED
        rows = stack.engine.query(
            f"SELECT COUNT(*) FROM {workload.target_table}")
        assert rows == [(workload.rows_total,)]
