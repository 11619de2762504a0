"""Eager apply: pipeline the application phase into acquisition.

The two-phase load of Sections 4-7 runs acquisition to completion, then
COPYs every staged blob, then applies the DML — even though a staged
file is ready for the CDW the moment its upload is durable.  This module
is the pipelined alternative (``HyperQConfig.eager_apply``): a
per-job :class:`EagerApplyCoordinator` listens for durable staged files,
COPYs each blob into the staging table as it lands, and applies the
job's DML over every *chunk-aligned contiguous* ``__SEQ`` prefix that
becomes fully copied — while later chunks are still converting,
uploading, or in flight from the client.

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
the acquisition pipeline (with the prefix-wide COPY suppressed — the
coordinator owns every copy), then :meth:`EagerApplyCoordinator.finish`
waits for the copier and applier workers to run dry and returns the
merged :class:`~repro.core.beta.ApplySummary`.

Restart: each copied blob is journaled (``eager_copy``) and each prefix
advance is journaled (``eager_apply``), so a resumed job re-copies and
re-applies nothing that is already durable.  Acquisition-error rows for
ranges applied right at a crash boundary are at-least-once (the journal
records the advance after the ET writes).  Do not flip ``eager_apply``
across a resume of the same job: the two modes journal different copy
records.
"""

from __future__ import annotations

import threading
import time

from repro.cdw.cloudstore import CloudStore
from repro.core.beta import ApplyRun
from repro.core.filewriter import StagedFile
from repro.errors import GatewayError
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.obs import NULL_OBS, NULL_SPAN, Observability, get_logger
from repro.resilience import guarded_call
from repro.sqlxc import nodes as n

__all__ = ["DurableFileRelay", "EagerApplyCoordinator"]

log = get_logger("eagerapply")


class DurableFileRelay:
    """Buffering forwarder breaking the pipeline↔coordinator cycle.

    The pipeline needs its durable-file hook at construction (a resumed
    pipeline starts re-uploading journaled files inside ``__init__``),
    but the coordinator needs the constructed pipeline.  The relay goes
    into the pipeline first and buffers callbacks until
    :meth:`attach` hands them (and everything thereafter) to the
    coordinator.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._target = None
        self._buffered: list[StagedFile] = []

    def __call__(self, staged: StagedFile) -> None:
        with self._lock:
            if self._target is None:
                self._buffered.append(staged)
                return
            target = self._target
        target(staged)

    def attach(self, target) -> None:
        """Set the forward target and replay everything buffered so far."""
        with self._lock:
            self._target = target
            buffered, self._buffered = self._buffered, []
        for staged in buffered:
            target(staged)


class EagerApplyCoordinator:
    """Per-job copier + applier workers overlapping apply with load."""

    def __init__(self, *, run: ApplyRun, pipeline, loader, engine,
                 config, container: str, prefix: str, staging_table: str,
                 metrics, obs: Observability = NULL_OBS,
                 job_span=NULL_SPAN, journal=None,
                 faults: FaultInjector = NULL_INJECTOR,
                 retry=None, breakers=None, job_id: str = "",
                 dq=None):
        self.run = run
        self.pipeline = pipeline
        self.loader = loader
        self.engine = engine
        self.config = config
        self.container = container
        self.prefix = prefix
        self.staging_table = staging_table
        self.metrics = metrics
        self.obs = obs
        self.job_span = job_span
        self.journal = journal
        self.faults = faults
        self.retry = retry
        self.breakers = breakers
        self.job_id = job_id
        #: optional :class:`repro.dq.DqPrechecker` — when set, every
        #: prefix is dq-prechecked (violators routed out of staging)
        #: before its ranged DML runs.
        self.dq = dq

        self._cond = threading.Condition()
        self._copy_queue: list[StagedFile] = []
        self._chunks_copied: set[int] = set()
        #: chunks [0, _applied_below) are applied (the watermark).
        self._applied_below = 0
        self._finishing = False
        self._copier_done = False
        self._failures: list[BaseException] = []
        #: perf_counter of the first eager range application (None until
        #: one runs) — basis of the job's apply/acquisition overlap.
        self.first_apply_at: float | None = None
        #: eager work counters (stats/bench surfaces).
        self.blobs_copied = 0
        self.ranges_applied = 0

        self._seed_from_journal()
        self.run.arm_staging()
        self._threads = [
            threading.Thread(target=self._copier, daemon=True,
                             name=f"hyperq-job-{job_id}-eager-copier"),
            threading.Thread(target=self._applier, daemon=True,
                             name=f"hyperq-job-{job_id}-eager-applier"),
        ]
        for thread in self._threads:
            thread.start()

    # -- resume ------------------------------------------------------------

    def _seed_from_journal(self) -> None:
        """Replay eager progress from a resumed job's journal."""
        journal = self.journal
        if journal is None:
            return
        self._applied_below = journal.eager_applied_below or 0
        stride = self.config.seq_stride
        self.run.mark_acquisition_recorded(
            e.seq for e in self.pipeline.acquisition_errors
            if e.seq < self._applied_below * stride)
        for rec in journal.durable_files():
            blob = self.loader.blob_name(self.prefix, rec["file"])
            chunks = [c["seq"] for c in rec.get("chunks", ())]
            if blob in journal.eager_copied \
                    or journal.copy_rows is not None:
                # Already in the staging table — just mark it.
                self._chunks_copied.update(chunks)
            else:
                # Durable in the store but never copied; the resumed
                # pipeline will not re-upload it, so re-enqueue the copy
                # here (the copier needs only the name and manifest).
                self._copy_queue.append(StagedFile(
                    path=rec.get("path", rec["file"]),
                    size=rec.get("size", 0),
                    records=rec.get("records", 0),
                    chunks=tuple(rec.get("chunks", ()))))

    # -- pipeline callback -------------------------------------------------

    def file_durable(self, staged: StagedFile) -> None:
        """Uploader hook: queue one durable staged file for COPY."""
        with self._cond:
            self._copy_queue.append(staged)
            self._cond.notify_all()

    def _fail(self, exc: BaseException) -> None:
        with self._cond:
            self._failures.append(exc)
            self._cond.notify_all()

    # -- copier worker -----------------------------------------------------

    def _copier(self) -> None:
        while True:
            with self._cond:
                while not self._copy_queue and not self._finishing \
                        and not self._failures:
                    self._cond.wait()
                if self._failures or (self._finishing
                                      and not self._copy_queue):
                    self._copier_done = True
                    self._cond.notify_all()
                    return
                staged = self._copy_queue.pop(0)
            try:
                self._copy_one(staged)
            except BaseException as exc:
                self._fail(exc)
                with self._cond:
                    self._copier_done = True
                    self._cond.notify_all()
                return

    def _copy_one(self, staged: StagedFile) -> None:
        blob = self.loader.blob_name(self.prefix, staged.name)
        chunks = [c["seq"] for c in staged.chunks]
        already = (self.journal is not None
                   and blob in self.journal.eager_copied)
        if not already and staged.size > 0:
            # An exact blob name works as its own COPY prefix: the store
            # lists exactly that blob.
            statement = n.CopyInto(
                n.TableRef(self.staging_table),
                CloudStore.make_url(self.container, blob),
                delimiter=self.config.csv_delimiter)
            with self.obs.tracer.span(
                    "eager.copy", parent=self.job_span, blob=blob,
                    staging_table=self.staging_table) as span, \
                    self.obs.stage_seconds.labels(stage="copy").time():
                result = self._execute_copy(statement, span)
                span.set_attribute("rows", result.rows_inserted)
            if self.journal is not None:
                self.journal.record_eager_copy(blob, result.rows_inserted)
            self.metrics.copy_rows += result.rows_inserted
            self.obs.copy_rows.inc(result.rows_inserted)
            self.blobs_copied += 1
            self.obs.flight.record(
                self.job_id, "eager_copy", blob=blob,
                rows=result.rows_inserted)
        with self._cond:
            self._chunks_copied.update(chunks)
            self._cond.notify_all()

    def _execute_copy(self, statement: n.CopyInto, copy_span):
        """Per-blob COPY under the ``copy.into`` fault + retry/breaker
        (same guard stack as the two-phase pipeline drain)."""

        def attempt():
            self.faults.fire("copy.into",
                             staging_table=self.staging_table)
            return self.engine.execute(statement)

        return guarded_call(
            "copy.into", attempt, retry=self.retry, breakers=self.breakers,
            obs=self.obs, parent=copy_span, job_id=self.job_id)

    # -- applier worker ----------------------------------------------------

    def _next_prefix(self) -> int:
        """Largest k ≥ watermark with chunks [watermark, k) all copied."""
        k = self._applied_below
        while k in self._chunks_copied:
            k += 1
        return k

    def _applier(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._failures:
                        return
                    k = self._next_prefix()
                    if k > self._applied_below:
                        break
                    if self._finishing and self._copier_done \
                            and not self._copy_queue:
                        return
                    self._cond.wait()
            try:
                self._apply_prefix(k)
            except BaseException as exc:
                self._fail(exc)
                return
            with self._cond:
                self._applied_below = k
                self._cond.notify_all()

    def _apply_prefix(self, k: int) -> None:
        """Apply chunks [watermark, k): acquisition errors + ranged DML."""
        stride = self.config.seq_stride
        lo_chunk = self._applied_below
        lo_seq = lo_chunk * stride
        hi_seq = k * stride - 1
        run = self.run
        run.update_chunks(dict(self.pipeline.chunk_records))
        run.record_acquisition_errors([
            e for e in list(self.pipeline.acquisition_errors)
            if e.seq <= hi_seq])
        if self.dq is not None:
            self.dq.update_chunks(dict(self.pipeline.chunk_records))
            self.dq.check_range(lo_seq, hi_seq,
                                parent_span=self.job_span)
        if self.first_apply_at is None:
            self.first_apply_at = time.perf_counter()
        with self.obs.tracer.span(
                "eager.apply_range", parent=self.job_span,
                lo_chunk=lo_chunk, hi_chunk=k - 1) as span, \
                self.obs.stage_seconds.labels(stage="apply").time():
            self._apply_guarded(lo_seq, hi_seq, span)
        self.ranges_applied += 1
        self.obs.flight.record(
            self.job_id, "eager_apply_range", lo_chunk=lo_chunk,
            hi_chunk=k - 1)
        if self.journal is not None:
            self.journal.record_eager_apply(k)
        log.debug("eagerly applied chunks [%d, %d)", lo_chunk, k)

    def _apply_guarded(self, lo_seq: int, hi_seq: int, span) -> None:
        """One ranged apply under the ``dml.apply`` fault + retry/breaker.

        The fault fires *before* any DML of the batch is dispatched, so
        an absorbed transient fault never retries a partially applied
        range.
        """

        def attempt():
            self.faults.fire("dml.apply", job_id=self.job_id)
            self.run.apply_seq_range(lo_seq, hi_seq)

        guarded_call(
            "dml.apply", attempt, retry=self.retry, breakers=self.breakers,
            obs=self.obs, parent=span, job_id=self.job_id)

    def shutdown(self) -> None:
        """Abandon the workers (job aborted/abandoned): wake both so
        they exit; idempotent, never blocks."""
        with self._cond:
            self._finishing = True
            self._failures.append(
                GatewayError("eager-apply coordinator shut down"))
            self._cond.notify_all()

    def join(self, timeout_s: float = 30.0) -> None:
        """Wait for both workers to exit after :meth:`shutdown`.

        A restarted job must not seed its journal watermark while a
        stale applier can still finish an in-flight range and journal
        past it — that would double-apply the overlap.  An in-flight
        range is bounded work, so the workers exit promptly once woken.
        """
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))

    # -- barrier -----------------------------------------------------------

    def finish(self, timeout_s: float = 300.0):
        """The APPLY barrier: drain both workers, merge the summary.

        The caller must have drained the acquisition pipeline first
        (``drain(copy=False)``), so every staged file has already passed
        through :meth:`_file_durable`.
        """
        with self._cond:
            self._finishing = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.1))
            if thread.is_alive():
                raise GatewayError(
                    "eager-apply coordinator drain timed out")
        if self._failures:
            raise self._failures[0]
        # Final catch-all under the same run: any acquisition errors in
        # trailing never-staged chunks, plus any staged rows past the
        # watermark (none in a clean run — every chunk is copied by now
        # and the applier advanced over all of them).
        run = self.run
        run.update_chunks(dict(self.pipeline.chunk_records))
        run.record_acquisition_errors(
            list(self.pipeline.acquisition_errors))
        tail_lo = self._applied_below * self.config.seq_stride
        if run.staged_seqs(tail_lo, None):
            self._apply_prefix(1 + max(
                self.pipeline.chunk_records, default=0))
        return run.finish()
