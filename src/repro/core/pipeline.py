"""The pipelined data-acquisition path (Sections 4-6, Figures 2-4).

Stage wiring for one load job::

    session handler ──credit──> convert lane ``seq % converters``
         (ack sent immediately after enqueueing; credits provide the only
          back-pressure, exactly as in Section 5)
    DataConverter ──(credit, converted chunk)──> writer lane
         ``seq % filewriters``
    FileWriter: returns the credit *just before* writing to disk (Fig. 4),
         cuts staging files at the size threshold
    finalized file ──> upload lane ──> cloud bulk loader ──> store
    drain(): flush writers, wait for uploads, then one in-cloud COPY INTO
         the staging table

Every stage is a :class:`_SerialLane` — an ordered task stream — on the
:class:`PipelineWorkerPool` the pipeline is handed: the node's one
pool.  A pipeline starts no threads of its own;
concurrent jobs share the pool's threads and nothing else (lanes,
writers, journal and staging directory are per job).

Stage failures are captured and re-raised to the job's control session
as a :class:`~repro.errors.PipelineFailure` whose ``__cause__`` is the
original worker exception (traceback preserved across the thread hop).

Resilience: every finalized staging file and durable upload is recorded
in the job's :class:`~repro.resilience.checkpoint.CheckpointJournal`;
constructing the pipeline with ``resume=True`` replays that journal so a
restarted job re-uploads zero already-durable files and treats every
chunk inside them as already received.  The terminal ``COPY INTO`` runs
under the node's retry policy and circuit breaker, with the
``copy.into`` fault-injection point armed in front of it.
"""

from __future__ import annotations

import os
import queue
import re
import threading
import time
from dataclasses import asdict
from functools import partial

from repro.cdw.bulkloader import CloudBulkLoader
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.config import HyperQConfig
from repro.core.converter import (
    AcquisitionError, ConvertedChunk, DataConverter,
)
from repro.core.filewriter import FileWriter, StagedFile
from repro.core.metrics import JobMetrics
from repro.errors import GatewayError, PipelineFailure
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.obs import NULL_OBS, NULL_SPAN, Observability, get_logger
from repro.resilience import (
    CheckpointJournal, CircuitBreakerRegistry, RetryPolicy, guarded_call,
)
from repro.sqlxc import nodes as n

__all__ = ["AcquisitionPipeline", "PipelineWorkerPool"]

log = get_logger("pipeline")

_STOP = object()
_FLUSH = object()

_PART_NAME = re.compile(r"part-(\d+)-(\d+)\.csv$")


class PipelineWorkerPool:
    """A fixed set of worker threads that run pipelines' stage lanes.

    Every :class:`AcquisitionPipeline` runs its converter/writer/
    uploader stages as :class:`_SerialLane` tasks on one of these.  A
    node owns one pool for all its jobs, so thread count is bounded
    per node however many jobs or micro-batches run.  Stage ordering
    is preserved per lane.  Idle threads are named
    ``<name>-pipeline-<i>``; while one drains a lane it carries the
    lane's job-attributed name instead.
    """

    def __init__(self, workers: int = 4, name: str = "node"):
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"{name}-pipeline-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, fn) -> None:
        """Schedule one callable; runs on some pool thread, FIFO-ish."""
        self._tasks.put(fn)

    def _run(self) -> None:
        while True:
            fn = self._tasks.get()
            if fn is _STOP:
                return
            try:
                fn()
            except BaseException:  # pragma: no cover - lane bug guard
                log.exception("pipeline pool task failed")

    def close(self) -> None:
        """Stop the workers after the queued tasks (idempotent)."""
        for _ in self._threads:
            self._tasks.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []


class _SerialLane:
    """One strictly-ordered task stream multiplexed onto a pool.

    Items submitted to a lane are handled one at a time, in order, but
    the lane only occupies a pool thread while it has items.  A stage
    whose handler must never run concurrently (a FileWriter appending
    to one staging file) gets its own lane; a stage that may (the
    DataConverter) gets several.
    """

    def __init__(self, pool: PipelineWorkerPool, handler, on_error,
                 name: str):
        self._pool = pool
        self._handler = handler
        self._on_error = on_error
        #: what the pool thread is called while it drains this lane, so
        #: a thread dump of a shared pool still says whose work runs.
        self._name = name
        self._lock = threading.Lock()
        self._items: list = []
        self._scheduled = False

    def submit(self, item) -> None:
        with self._lock:
            self._items.append(item)
            if self._scheduled:
                return
            self._scheduled = True
        self._pool.submit(self._drain)

    def _drain(self) -> None:
        thread = threading.current_thread()
        idle_name, thread.name = thread.name, self._name
        try:
            while True:
                with self._lock:
                    if not self._items:
                        self._scheduled = False
                        return
                    item = self._items.pop(0)
                try:
                    self._handler(item)
                except BaseException as exc:
                    self._on_error(exc)
        finally:
            thread.name = idle_name


class AcquisitionPipeline:
    """Runs the converter/filewriter/uploader stages for one load job."""

    def __init__(self, *, converter: DataConverter, credits,
                 loader: CloudBulkLoader, engine: CdwEngine,
                 staging_table: str, container: str, prefix: str,
                 staging_dir: str, config: HyperQConfig,
                 metrics: JobMetrics, worker_pool: PipelineWorkerPool,
                 obs: Observability = NULL_OBS,
                 job_span=NULL_SPAN,
                 faults: FaultInjector = NULL_INJECTOR,
                 retry: RetryPolicy | None = None,
                 breakers: CircuitBreakerRegistry | None = None,
                 journal: CheckpointJournal | None = None,
                 resume: bool = False, job_id: str = ""):
        self.converter = converter
        #: credit source — the node's CreditManager, or a pool-bound
        #: :class:`repro.wlm.PoolCredits` view when workload management
        #: is enabled (same acquire()/release(credit) surface).
        self.credits = credits
        #: owning job id; stamps lane (thread) names and retry events.
        self.job_id = job_id
        self.loader = loader
        self.engine = engine
        self.staging_table = staging_table
        self.container = container
        self.prefix = prefix
        self.staging_dir = staging_dir
        self.config = config
        self.metrics = metrics
        self.obs = obs
        #: the job's root span — tracing parent for uploads and COPY,
        #: whose work aggregates many chunks.
        self.job_span = job_span
        self.faults = faults
        self.retry = retry
        self.breakers = breakers
        self.journal = journal

        #: per-chunk record counts (incl. rejected records), keyed by
        #: chunk seq — the basis for file row-number reconstruction.
        self.chunk_records: dict[int, int] = {}
        #: records rejected during conversion, for Beta to report.
        self.acquisition_errors: list[AcquisitionError] = []

        self._state = threading.Condition()
        self._seen_seqs: set[int] = set()
        self._submitted = 0
        self._written = 0
        self._flushes_done = 0
        self._finalized_files = 0
        self._uploaded_files = 0
        self._failures: list[BaseException] = []
        self._drained = False
        #: chunks/files found durable in the journal on resume.
        self.resumed_chunks = 0
        self.resumed_files = 0
        #: the durable chunk seqs replayed on resume — reported back to
        #: the client in BEGIN_LOAD_OK so it can skip exactly these.
        self.resumed_seqs: set[int] = set()

        # Job-scoped lane names (``hyperq-job-<id>-convert-0``) make
        # thread dumps of a busy multi-tenant node attributable at a
        # glance even though the threads belong to a shared pool.
        label = f"hyperq-job-{job_id}" if job_id else "hyperq"
        resumed_uploads = self._replay_journal() if resume else []

        self._writers = [
            FileWriter(staging_dir, i, config.file_threshold_bytes,
                       obs=obs,
                       start_file_no=self._next_file_no(i, resume))
            for i in range(config.filewriters)
        ]

        self._convert_lanes = [
            _SerialLane(worker_pool, self._convert_item, self._fail,
                        f"{label}-convert-{i}")
            for i in range(config.converters)]
        self._writer_lanes = [
            _SerialLane(worker_pool, partial(self._write_item, i),
                        self._fail, f"{label}-write-{i}")
            for i in range(config.filewriters)]
        self._upload_lane = _SerialLane(
            worker_pool, self._upload_item, self._fail, f"{label}-upload")
        # staged-but-unuploaded survivors go back through the upload lane.
        for staged in resumed_uploads:
            self._enqueue_upload(staged, journaled=True)

    # -- checkpoint replay (restart support) ---------------------------------

    def _replay_journal(self) -> list[StagedFile]:
        """Replay the journal: seed durable chunks, collect re-uploads.

        Chunks whose staging file is durable (uploaded, or still present
        on local disk) are marked seen so a restarted client can resend
        everything and only the lost tail is re-processed.  Staging
        files that were finalized but never uploaded are returned for
        re-enqueueing — already-uploaded files are *not*, which is the
        restart guarantee: zero re-uploads of durable work.
        """
        if self.journal is None:
            return []
        for seq, chunk in sorted(self.journal.durable_chunks().items()):
            self._seen_seqs.add(seq)
            self.resumed_seqs.add(seq)
            self.chunk_records[seq] = chunk["records"]
            self.acquisition_errors.extend(
                AcquisitionError(**e) for e in chunk.get("errors", ()))
            self.resumed_chunks += 1
        self.resumed_files = len(self.journal.uploaded)
        self.obs.checkpoint_skips.labels(kind="chunk").inc(
            self.resumed_chunks)
        self.obs.checkpoint_skips.labels(kind="upload").inc(
            self.resumed_files)
        pending = []
        for rec in self.journal.pending_files():
            if not os.path.exists(rec.get("path", "")):
                continue
            pending.append(StagedFile(
                path=rec["path"], size=rec["size"],
                records=rec["records"],
                chunks=tuple(rec.get("chunks", ()))))
        if self.resumed_chunks or pending:
            log.info("resumed from checkpoint journal", extra={
                "durable_chunks": self.resumed_chunks,
                "uploaded_files": self.resumed_files,
                "requeued_files": len(pending)})
        return pending

    def _next_file_no(self, writer_no: int, resume: bool) -> int:
        """First file number a (possibly resumed) writer may use.

        Journaled staging files keep their names on restart, so new
        files must continue the numbering rather than collide with (and
        silently overwrite) durable ones.
        """
        if not resume or self.journal is None:
            return 0
        highest = -1
        for name in self.journal.staged:
            match = _PART_NAME.search(name)
            if match and int(match.group(1)) == writer_no:
                highest = max(highest, int(match.group(2)))
        return highest + 1

    def _fail(self, exc: BaseException) -> None:
        with self._state:
            self._failures.append(exc)
            self._state.notify_all()

    def _check_failures(self) -> None:
        with self._state:
            failures = list(self._failures)
        if failures:
            raise PipelineFailure(
                f"acquisition pipeline failed: {failures[0]}",
                failures=failures) from failures[0]

    # -- producer side (called from session handler threads) -----------------

    def submit_chunk(self, chunk_seq: int, data: bytes,
                     span=NULL_SPAN) -> None:
        """Hand one raw client chunk to the pipeline.

        Blocks only while acquiring a credit — the back-pressure point.
        The caller sends the client's DATA_ACK right after this returns.
        ``span`` is the chunk's ``receive`` span; downstream stage spans
        nest under it as the chunk hops worker threads.

        Resubmitting an already-seen chunk sequence is a no-op (but still
        acknowledged): that makes client checkpoint/restart idempotent —
        a client whose ack was lost in a connection failure can safely
        resend the chunk, and a restarted job can resend everything
        while only the non-durable tail is re-processed.
        """
        self._check_failures()
        with self._state:
            if chunk_seq in self._seen_seqs:
                return
            self._seen_seqs.add(chunk_seq)
        acquire_span = self.obs.tracer.span(
            "credit.acquire", parent=span, chunk_seq=chunk_seq)
        started = time.perf_counter()
        try:
            credit = self.credits.acquire()
        except BaseException:
            acquire_span.end("error")
            raise
        waited = time.perf_counter() - started
        acquire_span.set_attribute("wait_s", round(waited, 6))
        acquire_span.end()
        with self._state:
            self.metrics.credit_wait_s += waited
            if waited > 0.0005:
                self.metrics.credit_waits += 1
            self._submitted += 1
        self._convert_lanes[chunk_seq % len(self._convert_lanes)].submit(
            (credit, chunk_seq, data, span))

    # -- stage handlers (run on pool threads, one item at a time per lane) ---

    def _convert_item(self, item) -> None:
        """Convert one raw chunk and route it to its FileWriter."""
        credit, chunk_seq, data, rx_span = item
        convert_span = self.obs.tracer.span(
            "convert", parent=rx_span, chunk_seq=chunk_seq,
            bytes=len(data))
        try:
            with self.obs.stage_seconds.labels(
                    stage="convert").time():
                converted = self.converter.convert(chunk_seq, data)
        except BaseException as exc:
            convert_span.end("error")
            self.credits.release(credit)
            self._fail(exc)
            return
        convert_span.set_attribute("records", converted.records)
        convert_span.end()
        self._writer_lanes[chunk_seq % len(self._writer_lanes)].submit(
            (credit, converted, convert_span))

    @staticmethod
    def _manifest_entry(converted: ConvertedChunk) -> dict:
        """The chunk's checkpoint-journal manifest entry."""
        return {
            "seq": converted.chunk_seq,
            "records": converted.total_records,
            "errors": [asdict(e) for e in converted.errors],
        }

    def _write_item(self, writer_no: int, item) -> None:
        """Append one converted chunk (or flush) on its FileWriter."""
        writer = self._writers[writer_no]
        if item is _FLUSH:
            try:
                staged = writer.flush()
            except BaseException as exc:
                self._fail(exc)
                staged = None
            if staged is not None:
                self._enqueue_upload(staged)
            with self._state:
                self._flushes_done += 1
                self._state.notify_all()
            return
        credit, converted, convert_span = item
        # Figure 4: the credit returns to the pool just before the
        # data is written to disk.
        self.credits.release(credit)
        write_span = self.obs.tracer.span(
            "write", parent=convert_span,
            chunk_seq=converted.chunk_seq,
            bytes=len(converted.csv_bytes))
        try:
            with self.obs.stage_seconds.labels(
                    stage="write").time():
                staged = writer.append(
                    converted.csv_bytes, converted.records,
                    chunk=self._manifest_entry(converted))
        except BaseException as exc:
            write_span.end("error")
            self._fail(exc)
            return
        write_span.end()
        if staged is not None:
            self._enqueue_upload(staged)
        with self._state:
            self.chunk_records[converted.chunk_seq] = \
                converted.total_records
            self.acquisition_errors.extend(converted.errors)
            self.metrics.records_converted += converted.records
            self.metrics.bytes_staged += len(converted.csv_bytes)
            self._written += 1
            self._state.notify_all()
        self.obs.bytes_staged.inc(len(converted.csv_bytes))

    def _enqueue_upload(self, staged: StagedFile,
                        journaled: bool = False) -> None:
        if self.journal is not None and not journaled:
            self.journal.record_staged(
                staged.name, path=staged.path, size=staged.size,
                records=staged.records, chunks=list(staged.chunks))
        with self._state:
            self._finalized_files += 1
            self.metrics.files_written += 1
        self._upload_lane.submit(staged)

    def _upload_item(self, staged: StagedFile) -> None:
        """Ship one finalized staging file to the cloud store."""
        upload_span = self.obs.tracer.span(
            "upload", parent=self.job_span, path=staged.path,
            bytes=staged.size, records=staged.records)
        try:
            with self.obs.stage_seconds.labels(
                    stage="upload").time():
                report = self.loader.upload_file(
                    staged.path, self.container, self.prefix,
                    span=upload_span)
            if self.journal is not None:
                self.journal.record_uploaded(staged.name)
            os.unlink(staged.path)
        except BaseException as exc:
            upload_span.end("error")
            self._fail(exc)
            return
        upload_span.set_attribute("uploaded_bytes",
                                  report.uploaded_bytes)
        upload_span.end()
        with self._state:
            self.metrics.bytes_uploaded += report.uploaded_bytes
            self._uploaded_files += 1
            self._state.notify_all()

    # -- drain -----------------------------------------------------------------------

    def drain(self, timeout_s: float = 300.0) -> None:
        """Wait for every submitted chunk to be staged, then COPY.

        Called when the client starts the application phase: "After data
        is completely consumed, Hyper-Q initiates an in-the-cloud COPY
        operation to move data to a staging table in the CDW".
        """
        if self._drained:
            return
        deadline = time.monotonic() + timeout_s

        def wait_for(predicate) -> None:
            if not self._wait(predicate, deadline):
                raise GatewayError("acquisition pipeline drain timed out")

        wait_for(lambda: self._written >= self._submitted)
        self._check_failures()
        # Flush partial files and wait for every writer to acknowledge.
        expected_flushes = self._flushes_done + len(self._writers)
        for lane in self._writer_lanes:
            lane.submit(_FLUSH)
        wait_for(lambda: self._flushes_done >= expected_flushes)
        wait_for(lambda: self._uploaded_files >= self._finalized_files)
        self._check_failures()
        if self.journal is not None and self.journal.copy_rows is not None:
            # A previous incarnation of this job already COPYed: running
            # it again would double-load every staged blob.
            self.obs.checkpoint_skips.labels(kind="copy").inc()
            self.metrics.copy_rows = self.journal.copy_rows
            self._drained = True
            return
        # The in-cloud COPY into the staging table — handed over as a
        # node: the URL carries the job id, so as text it could never
        # hit the engine's parse cache and would only churn it.
        statement = n.CopyInto(
            n.TableRef(self.staging_table),
            CloudStore.make_url(self.container, self.prefix),
            delimiter=self.config.csv_delimiter)

        def attempt():
            # Safe to retry: the engine's set-oriented execution is
            # all-or-nothing, and the injection point fires *before*
            # the statement is dispatched, so an absorbed fault never
            # leaves a partial COPY behind.
            self.faults.fire("copy.into", staging_table=self.staging_table)
            return self.engine.execute(statement)

        with self.obs.tracer.span(
                "copy", parent=self.job_span,
                staging_table=self.staging_table) as copy_span, \
                self.obs.stage_seconds.labels(stage="copy").time():
            result = guarded_call(
                "copy.into", attempt, retry=self.retry,
                breakers=self.breakers, obs=self.obs, parent=copy_span,
                job_id=self.job_id)
            copy_span.set_attribute("rows", result.rows_inserted)
        if self.journal is not None:
            self.journal.record_copy(result.rows_inserted)
        self.metrics.copy_rows = result.rows_inserted
        self.obs.copy_rows.inc(result.rows_inserted)
        log.debug("COPY INTO %s landed %d rows",
                  self.staging_table, result.rows_inserted)
        self._drained = True

    # -- teardown ----------------------------------------------------------------------

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop the job's stage work (idempotent, never raises).

        The one teardown order of a load job: already-queued acquisition
        work finishes, and only then is the journal closed (the worker
        pool outlives the job).  The wait is bounded and comes first
        because credits travel attached to queued items, and a journal
        write after close would fail its lane task and mask the real
        teardown reason.  Unlike :meth:`drain` it never flushes partial
        files and never COPYs; a pipeline that already failed is shut
        down immediately.
        """
        self._wait(lambda: self._written >= self._submitted
                   and self._uploaded_files >= self._finalized_files,
                   time.monotonic() + timeout_s)
        if self.journal is not None:
            self.journal.close()

    def _wait(self, predicate, deadline: float) -> bool:
        """Wait for ``predicate`` (or a stage failure) until
        ``deadline``; False when the deadline passed first."""
        with self._state:
            while not (predicate() or self._failures):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._state.wait(timeout=min(remaining, 1.0))
        return True
