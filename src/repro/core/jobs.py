"""Load and export jobs: each owns its state and ends in one place.

Every way a :class:`LoadJob` or :class:`ExportJob` stops — END_LOAD, an
abort, a dropped connection, a resume takeover, node stop — goes
through the job's one end method, which gives back its WLM ticket last
(a feed's counterpart: :meth:`repro.stream.feed.StreamFeed.close`).
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass, field

from repro.cdw.types import cdw_type_from_legacy
from repro.core.beta import SEQ_COLUMN
from repro.core.metrics import JobMetrics, Stopwatch
from repro.core.pipeline import AcquisitionPipeline
from repro.core.tdfcursor import TdfCursor
from repro.dq import DqPrechecker
from repro.legacy.types import Layout
from repro.obs import NULL_SPAN, get_logger
from repro.sqlxc import nodes as n

__all__ = ["ENDINGS", "Ending", "ExportJob", "LoadJob",
           "create_staging_table"]

log = get_logger("gateway")


@dataclass(frozen=True)
class Ending:
    """What one outcome of :meth:`LoadJob.end` does (docs/RESILIENCE.md).

    ``ok``: the span ends ok and the job counts as completed.  ``keep``:
    the staging table, state dir (journal) and uploaded blobs stay for a
    resume.  ``handover``: a resume took the job over and inherits its
    feed claim, SLO sample and post-mortem.
    """

    ok: bool
    keep: bool
    handover: bool


#: the outcomes a load job can end with, the ``hyperq_jobs_total``
#: events and flight events of the same names.
ENDINGS = {
    "completed": Ending(ok=True, keep=False, handover=False),
    "aborted": Ending(ok=False, keep=True, handover=False),
    "abandoned": Ending(ok=False, keep=True, handover=False),
    "restarted": Ending(ok=False, keep=True, handover=True),
}


def staging_columns(layout: Layout) -> list[str]:
    """Column definitions of a staging table for ``layout``."""
    columns = [
        f"{fld.name} NVARCHAR" if fld.type.is_character else
        f"{fld.name} {cdw_type_from_legacy(fld.type).render()}"
        for fld in layout.fields]
    columns.append(f"{SEQ_COLUMN} BIGINT")
    return columns


def create_staging_table(engine, name: str, layout: Layout) -> None:
    """Staging columns are deliberately *unbounded* text for character
    fields: length enforcement belongs to the application phase where
    per-tuple error handling can catch it (Section 6 type mapping +
    Section 7 error handling)."""
    engine.execute(
        f"CREATE TABLE {name} ({', '.join(staging_columns(layout))})")


@dataclass(eq=False)
class LoadJob:
    """One import job on a node, from BEGIN_LOAD to :meth:`end`."""

    node: object
    job_id: str
    target: str
    et_table: str
    uv_table: str
    layout: Layout
    staging_table: str
    staging_dir: str
    pipeline: AcquisitionPipeline
    metrics: JobMetrics
    #: the job's root trace span (parent of every stage span).
    span: object = NULL_SPAN
    #: workload-management admission (None when wlm is disabled, and
    #: for a feed batch, which rides its feed's).
    ticket: object = None
    #: data-quality prechecker (None when no ruleset matched the job).
    dq: DqPrechecker | None = None
    #: the feed batch this job loads (None for a one-shot load).
    batch: object = None
    #: ``acquiring`` takes DATA; ``applied`` once APPLY_DML arrived (a
    #: repeat answers ``applied``); ``ended`` once :meth:`end` ran.
    phase: str = "acquiring"
    #: the APPLY_RESULT meta, once APPLY committed.
    applied: dict | None = None
    #: phase stopwatches (Figure 7 split) — total runs begin→end load,
    #: acquisition from the first DATA chunk until the pipeline drains,
    #: application across Beta's DML run.
    total_watch: Stopwatch = field(default_factory=Stopwatch)
    acquisition_watch: Stopwatch = field(default_factory=Stopwatch)
    application_watch: Stopwatch = field(default_factory=Stopwatch)
    sessions_seen: set[int] = field(default_factory=set)
    #: guards the counters and ``phase``; :meth:`end` holds it.
    lock: threading.Lock = field(default_factory=threading.Lock)

    def end(self, outcome: str) -> None:
        """End the job with one of :data:`ENDINGS` (idempotent; a second
        caller waits for the first).  One order: pipeline (bounded),
        staging table, state dir and blobs, feed claim, telemetry,
        registry, and the WLM ticket last, whatever failed before it."""
        node = self.node
        with self.lock:
            if self.phase == "ended":
                return
            self.phase = "ended"
            try:
                self._release_state(ENDINGS[outcome])
                self._account(outcome)
            finally:
                with node._registry_lock:
                    if node._jobs.get(self.job_id) is self:
                        del node._jobs[self.job_id]
                node.wlm.release(self.ticket)

    def _release_state(self, ending: Ending) -> None:
        """Steps 1-4 of :meth:`end`.  A feed batch already at or below
        the watermark lost only its END_LOAD: whatever the outcome, no
        resume wants its state."""
        batch = self.batch
        self.pipeline.shutdown(30.0)
        if not ending.keep:
            # A feed's staging table outlives its batches: emptied (one
            # O(1) statement) for the next BEGIN.
            self.node.engine.execute(
                f"DROP TABLE IF EXISTS {self.staging_table}"
                if batch is None
                else n.Delete(n.TableRef(self.staging_table)))
        keep = ending.keep and (
            batch is None or batch.seq > batch.feed.committed_seq)
        if not keep:
            self.discard_state()
        if batch is not None and not ending.handover:
            batch.feed.release(batch, parked=self if keep else None)

    def _account(self, outcome: str) -> None:
        """Step 5 of :meth:`end`: watches, metrics, span status, SLO
        sample, flight event and bundle, log."""
        ending, node, metrics = ENDINGS[outcome], self.node, self.metrics
        obs = node.obs
        self.total_watch.stop()
        metrics.total_s = total_s = self.total_watch.elapsed
        if ending.ok:
            for phase, seconds in (("total", total_s),
                                   ("acquisition", metrics.acquisition_s),
                                   ("application", metrics.application_s)):
                obs.job_phase_seconds.labels(phase=phase).observe(seconds)
            with node._registry_lock:
                node.completed_jobs.append(metrics)
                totals = node._completed_totals
                totals["jobs"] += 1
                totals["rows"] += metrics.rows_inserted
                totals["bytes"] += metrics.bytes_received
        obs.jobs_total.labels(event=outcome).inc()
        # The span ends before the post-mortem, which carries it.
        self.span.set_attribute("total_s", round(total_s, 6))
        self.span.end("ok" if ending.ok else "error")
        if not ending.handover:
            obs.slo.record_job(metrics.pool, total_s, ok=ending.ok)
        obs.flight.record(self.job_id, outcome, total_s=round(total_s, 4),
                          rows_inserted=metrics.rows_inserted)
        if not (ending.ok or ending.handover):
            self._dump_flight(outcome)
        log.info("load job %s", outcome, extra={
            "job_id": self.job_id, "target": self.target,
            "total_s": round(total_s, 4),
            "rows_inserted": metrics.rows_inserted,
            "et_errors": metrics.et_errors,
            "uv_errors": metrics.uv_errors})

    def discard_state(self) -> None:
        """Delete what a resume of the job would start from: its
        uploaded blobs and its staging directory (journal included)."""
        self.node.store.delete_prefix(self.node.config.container,
                                      f"{self.job_id}/")
        shutil.rmtree(self.staging_dir, ignore_errors=True)

    def _dump_flight(self, reason: str) -> None:
        """Best-effort post-mortem bundle: the job's flight events, the
        spans of its trace (or with its ``job_id`` attribute) and its
        metrics."""
        obs = self.node.obs
        if not (obs.flight.enabled and obs.flight.dump_dir):
            return
        trace_id = getattr(self.span, "trace_id", 0)
        spans = [r for r in obs.tracer.records()
                 if (trace_id and r.get("trace_id") == trace_id)
                 or r.get("attrs", {}).get("job_id") == self.job_id]
        obs.flight.dump(self.job_id, spans=spans,
                        metrics=self.metrics.as_row(), reason=reason)


@dataclass(eq=False)
class ExportJob:
    """One export job on a node, from BEGIN_EXPORT to :meth:`end`."""

    node: object
    job_id: str
    cursor: TdfCursor
    #: the job's root trace span (continues the client's trace when a
    #: traceparent rode in on BEGIN_EXPORT).
    span: object = NULL_SPAN
    #: workload-management admission (None when wlm is disabled).
    ticket: object = None
    #: data sessions the export serves; it ends once each is done.
    sessions: int = 1
    #: session → whether it reached EOF (False: it closed first).
    done: dict[int, bool] = field(default_factory=dict)
    ended: bool = False

    def session_done(self, session_no: int, eof: bool) -> None:
        """Session ``session_no`` fetched past the last chunk (``eof``)
        or closed its connection first.  Once every session is done the
        export ends: ``ok`` only if each of them reached EOF."""
        with self.node._registry_lock:
            if session_no in self.done:
                return
            self.done[session_no] = eof
            finished = len(self.done) >= self.sessions
        if finished:
            self.end(ok=all(self.done.values()))

    def end(self, ok: bool) -> None:
        """End the export (idempotent): leave the registry, close the
        cursor, whose prefetch thread holds the undelivered rows, set
        the span status, record ``completed`` or ``failed``, and give
        the WLM ticket back last."""
        node = self.node
        with node._registry_lock:
            if self.ended:
                return
            self.ended = True
            if node._exports.get(self.job_id) is self:
                del node._exports[self.job_id]
        self.cursor.close()
        self.span.end("ok" if ok else "error")
        node.obs.flight.record(self.job_id, "completed" if ok else "failed")
        node.wlm.release(self.ticket)
