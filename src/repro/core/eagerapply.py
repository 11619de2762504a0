"""Eager apply: pipeline the application phase into acquisition.

The two-phase load of Sections 4-7 runs acquisition to completion, then
COPYs every staged blob, then applies the DML — even though a staged
file is ready for the CDW the moment its upload is durable.  This module
is the pipelined alternative (``HyperQConfig.eager_apply``): an
:class:`~repro.core.pipeline.AcquisitionPipeline` handed the job's
:class:`~repro.core.beta.ApplyRun` builds an :class:`EagerApplyCoordinator`
— two more ordered lanes on the pipeline's worker pool, next to its
convert/write/upload lanes::

    upload lane ──durable file──> eager-copy lane ──nudge──> eager-apply lane

The copy lane COPYs each blob into the staging table as it lands; the
apply lane applies the job's DML over every *chunk-aligned contiguous*
``__SEQ`` prefix that becomes fully copied — while later chunks are
still converting, uploading, or in flight from the client.  A lane only
ever *submits* to the next one, never waits on it, so the pool's
no-deadlock argument (docs/CONCURRENCY.md) holds, and an eager job
starts no thread of its own.

Correctness rests on two invariants:

* **Prefix order.**  DML is only ever applied to the contiguous durable
  prefix of chunk sequence numbers, in ``__SEQ`` order — the same order
  one whole-table pass would use, so the legacy tuple-at-a-time
  semantics (first duplicate wins, later rows see earlier effects) are
  preserved exactly.  Files may *copy* out of order; application never
  does.
* **Shared budget.**  Every prefix extension feeds the same
  :class:`~repro.core.beta.ApplyRun` — one ``max_errors`` budget, one
  merged summary, and row numbers that only depend on the record counts
  of earlier chunks, which the prefix always has.

The client's APPLY message becomes a drain barrier: the gateway drains
the acquisition pipeline (which, knowing the job is eager, skips its
prefix-wide COPY), then :meth:`EagerApplyCoordinator.finish` waits for
both lanes to run dry and returns the merged
:class:`~repro.core.beta.ApplySummary`.  Teardown is the pipeline's:
:meth:`~repro.core.pipeline.AcquisitionPipeline.shutdown` calls
:meth:`EagerApplyCoordinator.stop` — queued eager items become no-ops
and the one in flight finishes — before it closes the journal, so no
caller can get that order wrong.

Restart: each copied blob is journaled (``eager_copy``) and each prefix
advance is journaled (``eager_apply``), so a resumed job re-copies and
re-applies nothing that is already durable.  Acquisition-error rows for
ranges applied right at a crash boundary are at-least-once (the journal
records the advance after the ET writes).  A job whose journal holds
eager records resumes only eagerly — the gateway refuses a resume that
would run it two-phase (it would re-COPY and re-apply the prefix).
"""

from __future__ import annotations

import threading
import time

from repro.cdw.cloudstore import CloudStore
from repro.core.beta import ApplyRun
from repro.core.filewriter import StagedFile
from repro.errors import GatewayError
from repro.obs import get_logger
from repro.resilience import guarded_call
from repro.sqlxc import nodes as n

__all__ = ["EagerApplyCoordinator"]

log = get_logger("eagerapply")


class EagerApplyCoordinator:
    """A job's eager copy + apply lanes, run on its pipeline's pool.

    ``make_lane(handler, on_error, suffix)`` builds one ordered lane on
    the pipeline's worker pool; the pipeline passes it in so this module
    never touches the pool itself.
    """

    def __init__(self, pipeline, run: ApplyRun, make_lane, dq=None):
        self.pipeline = pipeline
        self.run = run
        #: optional :class:`repro.dq.DqPrechecker` — when set, every
        #: prefix is dq-prechecked (violators routed out of staging)
        #: before its ranged DML runs.
        self.dq = dq
        self._lock = threading.Lock()
        self._chunks_copied: set[int] = set()
        #: chunks [0, _applied_below) are applied (the watermark).
        self._applied_below = 0
        #: set by :meth:`stop`: every item still queued is a no-op.
        self._stopped = False
        self._failures: list[BaseException] = []
        #: perf_counter of the first eager range application (None until
        #: one runs) — basis of the job's apply/acquisition overlap.
        self.first_apply_at: float | None = None
        self.run.arm_staging()
        self._copy_lane = make_lane(self._copy_item, self._fail,
                                    "eager-copy")
        self._apply_lane = make_lane(self._apply_item, self._fail,
                                     "eager-apply")

    # -- resume ------------------------------------------------------------

    def resume(self, journal) -> None:
        """Replay eager progress from a resumed job's journal.

        Runs after the pipeline replayed its own acquisition state and
        before it re-enqueues any upload.
        """
        self._applied_below = journal.eager_applied_below or 0
        pipeline = self.pipeline
        stride = pipeline.config.seq_stride
        self.run.mark_acquisition_recorded(
            e.seq for e in pipeline.acquisition_errors
            if e.seq < self._applied_below * stride)
        for rec in journal.durable_files():
            blob = pipeline.loader.blob_name(pipeline.prefix, rec["file"])
            chunks = [c["seq"] for c in rec.get("chunks", ())]
            if blob in journal.eager_copied \
                    or journal.copy_rows is not None:
                # Already in the staging table — just mark it.
                with self._lock:
                    self._chunks_copied.update(chunks)
            else:
                # Durable in the store but never copied; the resumed
                # pipeline will not re-upload it, so queue the copy here
                # (the copy needs only the name and manifest).
                self._copy_lane.submit(StagedFile(
                    path=rec.get("path", rec["file"]),
                    size=rec.get("size", 0),
                    records=rec.get("records", 0),
                    chunks=tuple(rec.get("chunks", ()))))
        # Copied-but-unapplied chunks need no new copy to be applied.
        self._apply_lane.submit(None)

    # -- lane handlers (pool threads, one item at a time per lane) ---------

    def file_durable(self, staged: StagedFile) -> None:
        """Upload-lane hand-off: queue one durable staged file for COPY."""
        self._copy_lane.submit(staged)

    def _fail(self, exc: BaseException) -> None:
        with self._lock:
            self._failures.append(exc)

    def _halted(self) -> bool:
        return self._stopped or bool(self._failures)

    def _copy_item(self, staged) -> None:
        if isinstance(staged, threading.Event):
            # A barrier marker: pass it on behind every nudge this lane
            # has sent so far.
            self._apply_lane.submit(staged)
            return
        if self._halted():
            return
        pipeline = self.pipeline
        journal = pipeline.journal
        blob = pipeline.loader.blob_name(pipeline.prefix, staged.name)
        chunks = [c["seq"] for c in staged.chunks]
        already = journal is not None and blob in journal.eager_copied
        if not already and staged.size > 0:
            # An exact blob name works as its own COPY prefix: the store
            # lists exactly that blob.
            statement = n.CopyInto(
                n.TableRef(pipeline.staging_table),
                CloudStore.make_url(pipeline.container, blob),
                delimiter=pipeline.config.csv_delimiter)
            obs = pipeline.obs
            with obs.tracer.span(
                    "eager.copy", parent=pipeline.job_span, blob=blob,
                    staging_table=pipeline.staging_table) as span, \
                    obs.stage_seconds.labels(stage="copy").time():
                result = pipeline._execute_copy(statement, span)
                span.set_attribute("rows", result.rows_inserted)
            if journal is not None:
                journal.record_eager_copy(blob, result.rows_inserted)
            pipeline.metrics.copy_rows += result.rows_inserted
            obs.copy_rows.inc(result.rows_inserted)
            obs.flight.record(
                pipeline.job_id, "eager_copy", blob=blob,
                rows=result.rows_inserted)
        with self._lock:
            self._chunks_copied.update(chunks)
        self._apply_lane.submit(None)

    def _apply_item(self, marker) -> None:
        if marker is not None:
            marker.set()
            return
        if self._halted():
            return
        k = self._next_prefix()
        if k > self._applied_below:
            self._apply_prefix(k)

    def _next_prefix(self) -> int:
        """Largest k ≥ watermark with chunks [watermark, k) all copied."""
        k = self._applied_below
        with self._lock:
            while k in self._chunks_copied:
                k += 1
        return k

    def _apply_prefix(self, k: int) -> None:
        """Apply chunks [watermark, k): acquisition errors + ranged DML,
        then advance the watermark to ``k``."""
        pipeline = self.pipeline
        obs = pipeline.obs
        stride = pipeline.config.seq_stride
        lo_chunk = self._applied_below
        lo_seq = lo_chunk * stride
        hi_seq = k * stride - 1
        run = self.run
        run.update_chunks(dict(pipeline.chunk_records))
        run.record_acquisition_errors([
            e for e in list(pipeline.acquisition_errors)
            if e.seq <= hi_seq])
        if self.dq is not None:
            self.dq.update_chunks(dict(pipeline.chunk_records))
            self.dq.check_range(lo_seq, hi_seq,
                                parent_span=pipeline.job_span)
        if self.first_apply_at is None:
            self.first_apply_at = time.perf_counter()

        def attempt():
            # The fault fires *before* any DML of the range is
            # dispatched, so an absorbed transient fault never retries
            # a partially applied range.
            pipeline.faults.fire("dml.apply", job_id=pipeline.job_id)
            run.apply_seq_range(lo_seq, hi_seq)

        with obs.tracer.span(
                "eager.apply_range", parent=pipeline.job_span,
                lo_chunk=lo_chunk, hi_chunk=k - 1) as span, \
                obs.stage_seconds.labels(stage="apply").time():
            guarded_call(
                "dml.apply", attempt, retry=pipeline.retry,
                breakers=pipeline.breakers, obs=obs, parent=span,
                job_id=pipeline.job_id)
        obs.flight.record(
            pipeline.job_id, "eager_apply_range", lo_chunk=lo_chunk,
            hi_chunk=k - 1)
        if pipeline.journal is not None:
            pipeline.journal.record_eager_apply(k)
        self._applied_below = k
        log.debug("eagerly applied chunks [%d, %d)", lo_chunk, k)

    # -- barrier and teardown ----------------------------------------------

    def _barrier(self, timeout_s: float) -> bool:
        """True once every eager item queued before this call is done.

        A marker travels the copy lane, then the apply lane — both FIFO
        — so it arrives only after every copy and every nudge ahead of
        it.
        """
        done = threading.Event()
        self._copy_lane.submit(done)
        return done.wait(timeout_s)

    def stop(self, timeout_s: float) -> None:
        """Abandon eager work (job aborted/ended): queued items become
        no-ops and the one in flight finishes within ``timeout_s``.

        A restarted job must not seed its journal watermark while a
        stale range can still finish and journal past it — that would
        double-apply the overlap — so the pipeline calls this before it
        closes the journal.  Idempotent.
        """
        self._stopped = True
        self._barrier(timeout_s)

    def finish(self, timeout_s: float = 300.0):
        """The APPLY barrier: drain both lanes, merge the summary.

        The caller must have drained the acquisition pipeline first, so
        every staged file has already been handed to the copy lane.
        """
        if not self._barrier(timeout_s):
            raise GatewayError("eager-apply drain timed out")
        if self._stopped:
            # Queued items were skipped and the journal may be closed: a
            # tail applied now could not journal its watermark.
            raise GatewayError("eager apply stopped with the job")
        if self._failures:
            raise self._failures[0]
        # Final catch-all under the same run: any acquisition errors in
        # trailing never-staged chunks, plus any staged rows past the
        # watermark (none in a clean run — every chunk is copied by now
        # and the apply lane advanced over all of them).
        pipeline = self.pipeline
        run = self.run
        run.update_chunks(dict(pipeline.chunk_records))
        run.record_acquisition_errors(list(pipeline.acquisition_errors))
        tail_lo = self._applied_below * pipeline.config.seq_stride
        if run.staged_seqs(tail_lo, None):
            self._apply_prefix(1 + max(pipeline.chunk_records, default=0))
        return run.finish()
