"""Load and export jobs: each owns its state and ends in one place.

A :class:`LoadJob` is built once admitted and applies itself.  Every
way it or an :class:`ExportJob` stops — END_LOAD, an abort, a dropped
connection, a resume takeover, node stop — goes through the job's one
end method, which gives back its WLM ticket last (a feed's
counterpart: :meth:`repro.stream.feed.StreamFeed.close`).
"""

from __future__ import annotations

import os
import shutil
import threading
from dataclasses import dataclass, field

from repro.cdw.types import cdw_type_from_legacy
from repro.core.beta import SEQ_COLUMN, staging_names
from repro.core.converter import DataConverter
from repro.core.metrics import JobMetrics, Stopwatch
from repro.core.pipeline import AcquisitionPipeline
from repro.core.tdfcursor import TdfCursor
from repro.dq import DqPrechecker
from repro.errors import GatewayError
from repro.legacy.datafmt import make_format
from repro.legacy.protocol import TRACEPARENT_KEY, JobState
from repro.legacy.types import Layout
from repro.obs import NULL_SPAN, get_logger
from repro.resilience import CheckpointJournal, guarded_call

__all__ = ["ENDINGS", "Ending", "ExportJob", "JobStaging", "LoadJob",
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
        f"{name} NVARCHAR" if fld.type.is_character else
        f"{name} {cdw_type_from_legacy(fld.type).render()}"
        for fld, name in zip(layout.fields,
                             staging_names(layout.field_names))]
    columns.append(f"{SEQ_COLUMN} BIGINT")
    return columns


def create_staging_table(engine, name: str, layout: Layout) -> None:
    """Staging columns are deliberately *unbounded* text for character
    fields: length enforcement belongs to the application phase where
    per-tuple error handling can catch it (Section 6 type mapping +
    Section 7 error handling)."""
    engine.execute(
        f"CREATE TABLE {name} ({', '.join(staging_columns(layout))})")


def _ensure_error_tables(engine, et_table: str, uv_table: str,
                         target: str) -> None:
    """Create a job's ET/UV tables unless the catalog has them — a
    lookup, not a statement, for every job after a target's first."""
    # __RULE_ID/__REASON: shared provenance columns — dq-routed and
    # split-routed rows land in one queryable schema (docs/DQ.md).
    if not engine.catalog.exists(et_table):
        engine.execute(
            f"CREATE TABLE IF NOT EXISTS {et_table} ("
            "SEQNO INT, ERRCODE INT, ERRFIELD NVARCHAR(128), "
            "ERRMSG NVARCHAR(512), __RULE_ID NVARCHAR(64), "
            "__REASON NVARCHAR(256))")
    if not engine.catalog.exists(uv_table):
        uv_columns = ", ".join(f"{c.name} {c.ctype.render()}"
                               for c in engine.table(target).columns)
        engine.execute(f"CREATE TABLE IF NOT EXISTS {uv_table} "
                       f"({uv_columns}, SEQNO INT, ERRCODE INT)")


class JobStaging:
    """A one-shot job's staging: its state directory (journal and
    staging files) and its own staging table.  A feed batch's
    counterpart is its :class:`repro.stream.feed.FeedBatch`."""

    route_error = False

    def __init__(self, node, job_id: str, layout: Layout, resume: bool):
        self.dir = os.path.join(node._base_dir, job_id)
        os.makedirs(self.dir, exist_ok=True)
        self.journal = CheckpointJournal(
            os.path.join(self.dir, "checkpoint.jsonl"), fresh=not resume)
        self.table = f"HQ_STG_{job_id}"
        if not (resume and node.engine.catalog.exists(self.table)):
            create_staging_table(node.engine, self.table, layout)

    def dq_rules(self, ruleset, layout: Layout):
        """The rules of ``ruleset`` (or None) the precheck runs: all."""
        return ruleset

    def commit(self, summary, result: dict) -> None:
        """Journal the result (``applied``: a resume's ``committed``)."""
        self.journal.record_applied(result)

    def release(self, job: "LoadJob", ending: Ending) -> None:
        """Unless ``ending`` keeps them for a resume, drop the staging
        table and delete the blobs and the state directory."""
        if not ending.keep:
            job.node.engine.execute(f"DROP TABLE IF EXISTS {self.table}")
            job.discard_state()
            shutil.rmtree(self.dir, ignore_errors=True)


class LoadJob:
    """One import job on a node, from BEGIN_LOAD to :meth:`end`: its
    constructor sets it up, :meth:`apply` runs its APPLY, and ``state``
    (``protocol.TRANSITIONS``) says where it is."""

    def __init__(self, node, request: dict, conn: dict, pool: str,
                 ticket=None, batch=None):
        """Set up the job BEGIN_LOAD ``request`` asks for, once admitted
        into ``pool`` (``ticket``: its WLM admission, None when wlm is
        disabled), or the job of feed ``batch`` (which rides its feed's),
        and register it on the node and on its control connection
        ``conn``.  Its BEGIN_LOAD_OK meta is ``begin_reply``."""
        obs, config = node.obs, node.config
        self.node, self.ticket = node, ticket
        self.job_id = job_id = request["job_id"]
        self.target = target = request["target"]
        self.et_table = et_table = request["et_table"]
        self.uv_table = request["uv_table"]
        self.layout = layout = request["layout"]
        format_spec, resume = request["format"], request["resume"]
        #: guards ``state`` and ``outcome``; :meth:`end` holds it.
        self.lock = threading.Lock()
        #: phase stopwatches (Figure 7 split) — total runs begin→end
        #: load, acquisition from the first DATA chunk until the
        #: pipeline drains, application across Beta's DML run.
        self.total_watch, self.acquisition_watch, self.application_watch \
            = Stopwatch(), Stopwatch(), Stopwatch()
        self.sessions_seen: set[int] = set()
        # A restarted job (same job_id, resume flag) replaces whatever
        # is left of its killed predecessor, whose end waits for its
        # pipeline to go idle: the checkpoint journal carries the
        # durable progress over.
        stale = node._jobs.get(job_id) if resume else None
        if stale is not None:
            stale.end("restarted")
        _ensure_error_tables(node.engine, et_table, self.uv_table, target)
        # The one choice between a one-shot job and a feed batch: what
        # it stages into, commits to and releases at its end.
        self.staging = staging = (
            JobStaging(node, job_id, layout, resume) if batch is None
            else batch.feed.prepare_staging(batch, layout, resume, stale))
        journal = staging.journal
        #: the APPLY_RESULT meta, once APPLY committed.  ``state`` is
        #: ACQUIRING, APPLYING or COMMITTED (a resume of a job that
        #: committed takes no more data), then ENDED with ``outcome``,
        #: one of :data:`ENDINGS`.
        self.result, self.outcome = journal.applied, None
        self.state = (JobState.ACQUIRING if self.result is None
                      else JobState.COMMITTED)
        # Per-pool/target rule resolution mirrors WLM classification:
        # first matching ruleset in declaration order wins.
        ruleset = staging.dq_rules(
            node.dq_profile.resolve(target=target, pool=pool), layout)
        #: data-quality prechecker (None when no ruleset matched).
        self.dq = None
        if ruleset is not None:
            try:
                self.dq = DqPrechecker(
                    ruleset=ruleset, engine=node.engine,
                    staging_table=staging.table, et_table=et_table,
                    target_table=target, layout=layout,
                    seq_stride=config.seq_stride, journal=journal,
                    obs=obs, job_id=job_id)
            except ValueError as exc:
                raise GatewayError(f"dq profile rejected: {exc}") from exc
        self.metrics = metrics = JobMetrics(
            job_id=job_id, sessions=request["sessions"], pool=pool)
        #: the job's root trace span (parent of every stage span): it
        #: continues the client's trace, or roots a local one.
        self.span = obs.tracer.span(
            "job", parent=request[TRACEPARENT_KEY], job_id=job_id,
            target=target, **({"pool": pool} if pool else {}))
        if self.span.trace_id:
            metrics.trace_id = f"{self.span.trace_id:032x}"
        with obs.tracer.span("codec.compile", parent=self.span,
                             job_id=job_id, kind=format_spec.kind):
            record_format = make_format(format_spec, layout)
        obs.codec_compiles.labels(kind=format_spec.kind).inc()
        self.pipeline = AcquisitionPipeline(
            converter=DataConverter(
                record_format, seq_stride=config.seq_stride, obs=obs,
                staging_table=staging.table),
            credits=node.wlm.credit_source(pool), loader=node.loader,
            job_id=job_id, engine=node.engine,
            staging_table=staging.table, container=config.container,
            prefix=f"{job_id}/", staging_dir=staging.dir, config=config,
            metrics=metrics, obs=obs, job_span=self.span,
            faults=node.faults, retry=node.retry, breakers=node.breakers,
            journal=journal, resume=resume,
            worker_pool=node._pipeline_pool)
        self.total_watch.start()
        obs.jobs_total.labels(event="started").inc()
        obs.flight.record(job_id, "started", target=target, pool=pool,
                          resume=resume, trace_id=metrics.trace_id)
        log.info("load job started", extra={
            "job_id": job_id, "target": target, "pool": pool,
            "sessions": request["sessions"]})
        with node._registry_lock:
            node._jobs[job_id] = self
        # This control connection owns the job: if it closes before
        # END_LOAD the job is abandoned and its slot freed.
        conn["loads"][job_id] = self
        self.begin_reply: dict = {"job_id": job_id}
        if resume:
            # The authoritative durable set: with the immediate-ack
            # pipeline an ack is NOT durability, so the client must only
            # skip chunks the gateway confirms it still has.
            self.begin_reply["durable_seqs"] = sorted(
                self.pipeline.resumed_seqs)
            if self.result is not None:     # straight to END_LOAD
                self.begin_reply["committed"] = self.result

    def apply(self, request: dict) -> dict:
        """APPLY_DML ``request``: drain, precheck, Beta (or a
        route-to-error batch's routing), then the staging's commit; the
        APPLY_RESULT meta.  A COMMITTED job answers it and runs nothing."""
        if self.state is JobState.COMMITTED:
            return self.result
        # Acquisition ends once the pipeline has fully drained into the
        # staging table (upload + in-cloud COPY included).
        self.pipeline.drain()
        self.acquisition_watch.stop()
        metrics = self.metrics
        metrics.acquisition_s = self.acquisition_watch.elapsed
        metrics.sessions = max(metrics.sessions, len(self.sessions_seen))
        if self.staging.route_error:
            # A drifted batch under route-to-error never reaches Beta:
            # its DML references columns the target does not have.
            with self.application_watch, self.node.obs.stage_seconds \
                    .labels(stage="apply").time():
                summary = self.staging.route(self)
        else:
            summary = self._apply_dml(request)
        return self._commit(summary)

    def _apply_dml(self, request: dict):
        """The dq precheck, then Beta under the node's retry policy."""
        node, obs, chunks = self.node, self.node.obs, \
            self.pipeline.chunk_records
        # The dq precheck sits between acquisition and APPLY: one
        # aggregated rule pass + violation routing, so Beta's split
        # cascade only ever sees unexpected errors.  Its cost counts
        # toward the application phase.
        if self.dq is not None:
            with self.application_watch:
                self.dq.update_chunks(dict(chunks))
                # the inclusive __SEQ bound of every staged chunk
                self.dq.check_range(
                    0, (1 + max(chunks, default=0))
                    * node.config.seq_stride - 1, parent_span=self.span)
        apply_span = obs.tracer.span("apply", parent=self.span,
                                     job_id=self.job_id, target=self.target)

        def run_apply():
            # The ``dml.apply`` injection point fires *before* Beta
            # dispatches any DML, so an absorbed transient fault never
            # retries a partially applied statement sequence.
            node.faults.fire("dml.apply", job_id=self.job_id)
            return node.beta.apply_dml(
                sql=request["sql"], layout=self.layout,
                staging_table=self.staging.table, target_table=self.target,
                et_table=self.et_table, uv_table=self.uv_table,
                chunk_records=chunks,
                acquisition_errors=self.pipeline.acquisition_errors,
                max_errors=request["max_errors"],
                max_retries=request["max_retries"],
                span=apply_span, job_id=self.job_id)

        obs.flight.record(self.job_id, "apply_started")
        try:
            with self.application_watch, \
                    obs.stage_seconds.labels(stage="apply").time():
                summary = guarded_call(
                    "dml.apply", run_apply, retry=node.retry,
                    breakers=node.breakers, obs=obs, parent=apply_span,
                    job_id=self.job_id)
        except BaseException:
            apply_span.end("error")
            raise
        apply_span.set_attribute("rows_inserted", summary.rows_inserted)
        apply_span.end()
        return summary

    def _commit(self, summary) -> dict:
        """Fold an ApplySummary into the job's metrics and commit its
        APPLY_RESULT meta; the job is then COMMITTED."""
        metrics = self.metrics
        result = {key: getattr(summary, key) for key in (
            "rows_inserted", "rows_updated", "rows_deleted", "et_errors",
            "uv_errors")}
        for key, value in result.items():
            setattr(metrics, key, value)
        metrics.application_s = self.application_watch.elapsed
        metrics.dml_statements = summary.statements
        metrics.chunk_retries = summary.splits
        if self.dq is not None:
            dq = self.dq.summary()
            metrics.dq_checked = dq["checked"]
            metrics.dq_violations = result["dq_violations"] = sum(
                dq["violations"].values())
            metrics.dq_routed_rows = result["dq_routed_rows"] = \
                dq["routed_rows"]
            self.node.dq_profile.note(
                dict(dq, job_id=self.job_id, target=self.target))
        # Exactly-once hinge: the commit record — the feed watermark, or
        # the job journal's ``applied`` record a resume answers with as
        # ``committed`` — is durable BEFORE the reply leaves the node.
        self.staging.commit(summary, result)
        with self.lock:
            self.result = result
            if self.outcome is None:
                self.state = JobState.COMMITTED
        self.node.obs.flight.record(
            self.job_id, "apply_finished",
            rows_inserted=summary.rows_inserted,
            et_errors=summary.et_errors, uv_errors=summary.uv_errors,
            splits=summary.splits, dq_routed=metrics.dq_routed_rows)
        return result

    def end(self, outcome: str) -> None:
        """End the job with one of :data:`ENDINGS` (idempotent; a second
        caller waits for the first).  One order: pipeline (bounded),
        staging table, state dir and blobs, feed claim, telemetry,
        registry, and the WLM ticket last, whatever failed before it."""
        node = self.node
        with self.lock:
            if self.outcome is not None:
                return
            self.state, self.outcome = JobState.ENDED, outcome
            try:
                self.pipeline.shutdown(30.0)
                self.staging.release(self, ENDINGS[outcome])
                self._account(outcome)
            finally:
                with node._registry_lock:
                    if node._jobs.get(self.job_id) is self:
                        del node._jobs[self.job_id]
                node.wlm.release(self.ticket)

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
        """Delete the job's uploaded blobs, which a resume would start
        from."""
        self.node.store.delete_prefix(self.node.config.container,
                                      f"{self.job_id}/")

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
