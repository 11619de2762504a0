"""A feed that runs for a day must not grow the node.

A feed keeps its job context warm — one node-wide pipeline pool, one
staging table, one open journal — so a steady-state micro-batch costs
the node one thread start (the data session's connection handler) and
leaves nothing behind: no thread, no catalog table, no table lock, no
plan-cache entry, no unbounded per-job record.
"""

import re
import threading
import time

import pytest

from repro.core import gateway
from repro.core.config import HyperQConfig
from repro.stream import StreamRunner, StreamSession
from repro.workloads.streamgen import stream_workload

from tests.conftest import make_node

WARMUP, MEASURED, WINDOW = 50, 300, 64


def counting_thread_starts(monkeypatch):
    """Patch ``Thread.start`` to record names; returns (names, undo)."""
    starts = []
    start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return starts, lambda: monkeypatch.setattr(
        threading.Thread, "start", start)


#: a data session's connection handler, as named once it logs on.
DATA_HANDLER = re.compile(r"-job-.+-s\d+$")


def settled_thread_count(timeout_s: float = 5.0) -> int:
    """Live threads once every data-session handler has exited.

    A batch returns when its data session is closed, but the session's
    handler thread may still be unwinding; sampling it then counts a
    thread that is about to go.  One that never goes (a leak) is still
    alive at the timeout and counted.
    """
    deadline = time.monotonic() + timeout_s
    while any(DATA_HANDLER.search(t.name) for t in threading.enumerate()) \
            and time.monotonic() < deadline:
        time.sleep(0.005)
    return threading.active_count()


def footprint(node, engine):
    return {
        "threads": settled_thread_count(),
        "tables": len(engine.catalog.tables),
        "table_locks": len(engine.locks._tables),
        "dml_plans": (len(node.beta.plans), node.beta.plans.misses),
        "parse_plans": (len(engine.plan_cache), engine.plan_cache.misses),
    }


#: the id names the front end, which keeps the test id stable.
@pytest.mark.parametrize("frontend", ["threaded"])
def test_steady_state_batches_add_nothing(tmp_path, monkeypatch,
                                          frontend):
    monkeypatch.setattr(gateway, "_COMPLETED_JOBS_WINDOW", WINDOW)
    workload = stream_workload(batches=WARMUP + MEASURED,
                               rows_per_batch=5, drift=False,
                               feed="dayfeed", seed=41)
    config = HyperQConfig(credits=8)
    with make_node(config=config) as stack:
        node, engine = stack.node, stack.engine
        engine.execute(workload.ddl)
        session = StreamSession(node.connect, feed="dayfeed",
                                target_table=workload.target_table,
                                watermark_dir=str(tmp_path), sessions=1)
        with session:
            rows_total = workload.rows_total
            runner = StreamRunner(session, workload)
            runner.run(batches=WARMUP)
            del workload.batches[:WARMUP]
            before = footprint(node, engine)
            ddl_before = sum(
                count for name, count in engine.statement_counts.items()
                if name in ("CreateTable", "DropTable"))

            starts, undo = counting_thread_starts(monkeypatch)
            report = runner.run()
            undo()

            assert report.committed == MEASURED
            assert footprint(node, engine) == before
            assert sum(
                count for name, count in engine.statement_counts.items()
                if name in ("CreateTable", "DropTable")) == ddl_before
            # one per batch: the data session's connection handler
            assert len(starts) == MEASURED, starts[:16]

            assert len(node.completed_jobs) == WINDOW
            stats = node.stats()
            assert stats["completed_jobs"] == WARMUP + MEASURED
            assert stats["rows_loaded"] == rows_total
            # the journal is compacted every so many commits, not at every one,
            # and stays O(state)
            with open(tmp_path / "dayfeed.feed.jsonl") as journal:
                assert len(journal.readlines()) <= \
                    gateway._FEED_COMPACT_EVERY + 1

