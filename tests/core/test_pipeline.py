"""Acquisition pipeline tests: drain, ordering, back-pressure, failures.

Every pipeline runs on a :class:`PipelineWorkerPool` it is handed and
does not own.  ``TestPipeline`` runs on one with a thread per lane, as
``HyperQNode.start()`` sizes the node-wide pool for a lone job, and
again, as ``TestPipelineOnInjectedPool``, on one with fewer threads
than lanes — what a job sees once it shares the pool.
"""

import os
import sys
import threading
import time

import pytest

from repro.cdw.bulkloader import CloudBulkLoader
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.config import HyperQConfig
from repro.core.converter import DataConverter
from repro.core.credits import CreditManager
from repro.core.metrics import JobMetrics
from repro.core.pipeline import AcquisitionPipeline, PipelineWorkerPool
from repro.errors import GatewayError
from repro.legacy.datafmt import VartextFormat
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.resilience import CheckpointJournal

LAYOUT = Layout("L", [
    FieldDef("A", parse_type("varchar(20)")),
    FieldDef("B", parse_type("varchar(20)")),
])


def build_rig(staging_dir, worker_pool, *, converters=2, cloud=None,
              **pipeline_kwargs):
    """A pipeline over a fresh store + engine, or over ``cloud`` (the
    ``(store, engine)`` of an earlier incarnation of the same job)."""
    if cloud is None:
        store = CloudStore()
        store.create_container("stage")
        engine = CdwEngine(store=store)
        engine.execute(
            "CREATE TABLE STG (A NVARCHAR, B NVARCHAR, __SEQ BIGINT)")
    else:
        store, engine = cloud
    # Two one-row blocks fill a file, so an unflushed writer holds a
    # partial one (test_resume_skips_durable_chunks).
    config = HyperQConfig(converters=converters, filewriters=2, credits=4,
                          file_threshold_bytes=160)
    credits = CreditManager(config.credits, timeout_s=10)
    metrics = JobMetrics(job_id="j1")
    pipeline = AcquisitionPipeline(
        converter=DataConverter(VartextFormat(LAYOUT),
                                seq_stride=config.seq_stride),
        credits=credits,
        loader=CloudBulkLoader(store),
        engine=engine,
        staging_table="STG",
        container="stage",
        prefix="j1/",
        staging_dir=str(staging_dir),
        config=config,
        metrics=metrics,
        worker_pool=worker_pool,
        **pipeline_kwargs,
    )
    return pipeline, engine, store, credits, metrics


@pytest.fixture
def worker_pool():
    """One thread per lane of ``build_rig``'s default pipeline."""
    pool = PipelineWorkerPool(workers=5, name="shared")
    yield pool
    pool.close()


@pytest.fixture
def rig(tmp_path, worker_pool):
    built = build_rig(tmp_path, worker_pool)
    yield built
    built[0].shutdown()


class TestPipeline:
    def test_chunks_reach_staging_table(self, rig):
        pipeline, engine, _store, _credits, metrics = rig
        for seq in range(5):
            pipeline.submit_chunk(seq, f"a{seq}|b{seq}\n".encode())
        pipeline.drain()
        rows = engine.query("SELECT A, __SEQ FROM STG ORDER BY __SEQ")
        assert [r[0] for r in rows] == [f"a{i}" for i in range(5)]
        assert metrics.copy_rows == 5
        assert metrics.records_converted == 5

    def test_out_of_order_chunks_keep_seq_order(self, rig):
        pipeline, engine, _store, _credits, _metrics = rig
        for seq in (3, 0, 2, 1):
            pipeline.submit_chunk(seq, f"v{seq}|x\n".encode())
        pipeline.drain()
        rows = engine.query("SELECT A FROM STG ORDER BY __SEQ")
        assert rows == [("v0",), ("v1",), ("v2",), ("v3",)]

    def test_credits_returned_after_drain(self, rig):
        pipeline, _engine, _store, credits, _metrics = rig
        for seq in range(20):
            pipeline.submit_chunk(seq, b"a|b\n")
        pipeline.drain()
        credits.check_conservation()
        assert credits.available == credits.pool_size

    def test_back_pressure_engages_under_tiny_pool(self, rig):
        pipeline, _engine, _store, credits, _metrics = rig
        for seq in range(50):
            pipeline.submit_chunk(seq, b"a|b\n" * 20)
        pipeline.drain()
        # With 4 credits and 50 chunks, some acquires must have blocked
        # at least momentarily OR all completed fast; conservation holds
        # either way and min_available dipped.
        assert credits.min_available < credits.pool_size

    def test_multiple_files_cut_by_threshold(self, rig):
        pipeline, _engine, store, _credits, metrics = rig
        payload = ("x" * 30 + "|y\n").encode()
        for seq in range(10):
            pipeline.submit_chunk(seq, payload)
        pipeline.drain()
        assert metrics.files_written > 1
        assert len(store.list_blobs("stage", "j1/")) == \
            metrics.files_written

    def test_acquisition_errors_collected(self, rig):
        pipeline, engine, _store, _credits, _metrics = rig
        pipeline.submit_chunk(0, b"good|row\nbad-row\n")
        pipeline.drain()
        assert len(pipeline.acquisition_errors) == 1
        assert pipeline.chunk_records[0] == 2
        assert engine.query("SELECT COUNT(*) FROM STG") == [(1,)]

    def test_drain_is_idempotent(self, rig):
        pipeline, engine, _store, _credits, _metrics = rig
        pipeline.submit_chunk(0, b"a|b\n")
        pipeline.drain()
        pipeline.drain()
        assert engine.query("SELECT COUNT(*) FROM STG") == [(1,)]

    def test_worker_failure_surfaces_on_drain(self, rig):
        pipeline, _engine, _store, _credits, _metrics = rig

        def exploding_convert(chunk_seq, data):
            raise RuntimeError("converter crashed")

        pipeline.converter.convert = exploding_convert
        pipeline.submit_chunk(0, b"a|b\n")
        with pytest.raises(GatewayError, match="converter crashed"):
            pipeline.drain()

    def test_worker_failure_preserves_cause_and_failures(self, rig):
        from repro.errors import PipelineFailure
        pipeline, _engine, _store, _credits, _metrics = rig
        original = RuntimeError("converter crashed")

        def exploding_convert(chunk_seq, data):
            raise original

        pipeline.converter.convert = exploding_convert
        pipeline.submit_chunk(0, b"a|b\n")
        with pytest.raises(PipelineFailure) as info:
            pipeline.drain()
        # The worker-thread exception survives the thread hop intact:
        # as __cause__ (chained traceback) and in the failures list.
        assert info.value.__cause__ is original
        assert info.value.failures == [original]

    def test_staging_files_deleted_after_upload(self, rig, tmp_path):
        pipeline, _engine, _store, _credits, _metrics = rig
        payload = ("x" * 30 + "|y\n").encode()
        for seq in range(10):
            pipeline.submit_chunk(seq, payload)
        pipeline.drain()
        assert os.listdir(str(tmp_path)) == []

    def test_duplicate_chunk_is_processed_once(self, rig):
        pipeline, engine, _store, credits, metrics = rig
        pipeline.submit_chunk(0, b"a|b\n")
        pipeline.submit_chunk(0, b"a|b\n")
        pipeline.drain()
        assert engine.query("SELECT COUNT(*) FROM STG") == [(1,)]
        assert metrics.records_converted == 1
        credits.check_conservation()

    def test_resume_skips_durable_chunks(self, tmp_path, worker_pool):
        """Shut down before drain, rebuild with ``resume=True``: chunks
        in uploaded files are reported durable and a full resend lands
        every row exactly once."""
        journal_path = str(tmp_path / "job.journal")
        chunks = {seq: ("x" * 30 + f"|v{seq}\n").encode()
                  for seq in range(6)}
        first, engine, store, _credits, _metrics = build_rig(
            tmp_path, worker_pool, journal=CheckpointJournal(journal_path))
        for seq, data in chunks.items():
            first.submit_chunk(seq, data)
        first.shutdown()  # no flush: each writer's partial file is lost
        uploaded = store.list_blobs("stage", "j1/")

        resumed, _engine, _store, credits, _metrics = build_rig(
            tmp_path, worker_pool, cloud=(store, engine), resume=True,
            journal=CheckpointJournal(journal_path))
        try:
            assert resumed.resumed_files == len(uploaded) > 0
            assert set() < resumed.resumed_seqs < set(chunks)
            for seq, data in chunks.items():
                resumed.submit_chunk(seq, data)
            resumed.drain()
            rows = engine.query("SELECT B FROM STG ORDER BY __SEQ")
            assert rows == [(f"v{seq}",) for seq in chunks]
            credits.check_conservation()
        finally:
            resumed.shutdown()

    def test_convert_lanes_run_in_parallel_in_lane_order(
            self, tmp_path, worker_pool):
        """``converters=3``: three chunks convert at once (they meet at
        a barrier only concurrent lanes can fill), and chunks sharing a
        lane (``seq % converters``) convert in submit order."""
        pipeline, engine, _store, _credits, _metrics = build_rig(
            tmp_path, worker_pool, converters=3)
        barrier = threading.Barrier(3)
        converted = []
        convert = pipeline.converter.convert

        def meeting_convert(chunk_seq, data):
            if chunk_seq < 3:
                barrier.wait(timeout=5)
            converted.append(chunk_seq)
            return convert(chunk_seq, data)

        pipeline.converter.convert = meeting_convert
        try:
            for seq in range(12):
                pipeline.submit_chunk(seq, f"a{seq}|b\n".encode())
            pipeline.drain()
        finally:
            pipeline.shutdown()
        assert engine.query("SELECT COUNT(*) FROM STG") == [(12,)]
        for lane in range(3):
            assert [s for s in converted if s % 3 == lane] == \
                list(range(lane, 12, 3))


class TestPipelineOnInjectedPool(TestPipeline):
    """Every case above with fewer pool threads than lanes."""

    @pytest.fixture
    def worker_pool(self):
        pool = PipelineWorkerPool(workers=4, name="shared")
        yield pool
        pool.close()


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestPoolOwnership:
    def test_pool_is_required(self, tmp_path):
        with pytest.raises(TypeError, match="worker_pool"):
            AcquisitionPipeline(
                converter=None, credits=None, loader=None, engine=None,
                staging_table="STG", container="stage", prefix="j1/",
                staging_dir=str(tmp_path), config=HyperQConfig(),
                metrics=JobMetrics(job_id="j1"))

    def test_many_pipelines_share_one_pool_concurrently(self, tmp_path):
        """Six live jobs fed from six threads onto a three-thread pool,
        under a shortened switch interval: every job drains, each
        staging table holds exactly its own rows in order, no credit
        is lost, and no thread is started for any of them."""
        jobs = [f"j{i}" for i in range(6)]
        pool = PipelineWorkerPool(workers=3, name="shared")
        before = set(threading.enumerate())
        rigs = {}
        for job in jobs:
            os.makedirs(tmp_path / job)
            rigs[job] = build_rig(tmp_path / job, pool, job_id=job)
        assert set(threading.enumerate()) <= before

        def feed(job):
            pipeline = rigs[job][0]
            for seq in range(25):
                pipeline.submit_chunk(seq, f"{job}-{seq}|x\n".encode())
            pipeline.drain(timeout_s=30)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            feeders = [threading.Thread(target=feed, args=(job,))
                       for job in jobs]
            for thread in feeders:
                thread.start()
            for thread in feeders:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in feeders)
        finally:
            sys.setswitchinterval(interval)
            for pipeline, *_rest in rigs.values():
                pipeline.shutdown()
            pool.close()
        for job, (_pipeline, engine, _store, credits, metrics) in \
                rigs.items():
            assert engine.query("SELECT A FROM STG ORDER BY __SEQ") == \
                [(f"{job}-{seq}",) for seq in range(25)]
            assert metrics.copy_rows == 25
            credits.check_conservation()

    def test_pool_thread_carries_the_job_while_it_drains_a_lane(
            self, tmp_path, worker_pool):
        pipeline, *_ = build_rig(tmp_path, worker_pool, job_id="named")
        entered, release = threading.Event(), threading.Event()
        names = []
        convert = pipeline.converter.convert

        def blocked_convert(chunk_seq, data):
            names.append(threading.current_thread().name)
            entered.set()
            release.wait(timeout=5)
            return convert(chunk_seq, data)

        pipeline.converter.convert = blocked_convert
        try:
            pipeline.submit_chunk(0, b"a|b\n")
            assert entered.wait(timeout=5)
            assert names == ["hyperq-job-named-convert-0"]
            release.set()
            pipeline.drain()
        finally:
            release.set()
            pipeline.shutdown()
        # idle again: every pool thread is back to its pool name
        assert wait_until(lambda: sorted(
            t.name for t in threading.enumerate()
            if "pipeline" in t.name or "named" in t.name) ==
            [f"shared-pipeline-{i}" for i in range(5)])

    def test_injected_pool_starts_no_threads_and_outlives_the_job(
            self, tmp_path):
        pool = PipelineWorkerPool(workers=2, name="shared")
        try:
            before = set(threading.enumerate())
            for job in ("a", "b"):  # b runs after a's shutdown
                os.makedirs(tmp_path / job)
                pipeline, engine, *_ = build_rig(
                    tmp_path / job, pool, job_id=job)
                assert set(threading.enumerate()) <= before
                pipeline.submit_chunk(0, b"a|b\n")
                pipeline.drain()
                pipeline.shutdown()
                assert engine.query("SELECT COUNT(*) FROM STG") == [(1,)]
        finally:
            pool.close()
