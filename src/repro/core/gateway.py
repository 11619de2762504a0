"""The Hyper-Q node: Alpha listener, PXC dispatch, and job orchestration.

One :class:`HyperQNode` virtualizes legacy ETL traffic against a CDW
(Figure 2).  Per legacy connection the node runs a handler thread that

- reassembles frames from raw bytes (Alpha + Coalescer),
- decodes each message and reacts (the PXC's role): ad-hoc SQL is cross
  compiled and executed on the CDW; DATA chunks are acknowledged
  *immediately* and pushed to the asynchronous acquisition pipeline
  (Sections 4-5); APPLY runs Beta with adaptive error handling
  (Section 7); exports stream through a TDFCursor.

The node owns exactly one :class:`~repro.core.credits.CreditManager`,
shared by all concurrent jobs — Section 5: "one CreditManager is spawned
per Hyper-Q node, with each CreditManager being shared for all concurrent
ETL jobs on the node."
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro.cdw.bulkloader import CloudBulkLoader
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.cdw.types import cdw_type_from_legacy
from repro.core.beta import SEQ_COLUMN, ApplySummary, Beta
from repro.core.config import HyperQConfig
from repro.core.converter import DataConverter
from repro.core.credits import CreditManager
from repro.core.frontend import ThreadedFrontend
from repro.core.metrics import JobMetrics, Stopwatch
from repro.core.pipeline import AcquisitionPipeline, PipelineWorkerPool
from repro.core.tdfcursor import TdfCursor
from repro.dq import DqPrechecker, DqProfile
from repro.dq.compiler import et_insert, staging_delete
from repro.errors import (
    HYPERQ_SCHEMA_DRIFT, GatewayError, ProtocolError, StreamDriftError,
)
from repro.faults import FaultInjector, FaultyEndpoint
from repro.obs import NULL_SPAN, Observability, configure_logging, get_logger
from repro.resilience import (
    CheckpointJournal, CircuitBreakerRegistry, RetryPolicy, guarded_call,
)
from repro.wlm import WorkloadManager
from repro.legacy.datafmt import FormatSpec, make_format
from repro.legacy.protocol import (
    TRACEPARENT_KEY, Message, MessageChannel, MessageKind, layout_from_wire,
    layout_to_wire, result_reply, serve_request,
)
from repro.legacy.types import Layout
from repro.net import Listener
from repro.sqlxc import nodes as n
from repro.sqlxc import to_cdw, transpile
from repro.sqlxc.parser import parse_statement
from repro.stream.drift import SchemaDriftResolver

__all__ = ["HyperQNode"]

log = get_logger("gateway")

#: a feed's watermark journal is rewritten as consolidated state once
#: this many commits have been appended to it (and at feed close).
#: Any value of this order bounds the file and amortises the rewrite;
#: 56 rather than a rounder one because ``benchmarks/e2e``'s frozen
#: ``--quick`` smoke run (80 batches, traced over commits 51-60 and
#: 71-80) asserts that it sees a compaction.
_FEED_COMPACT_EVERY = 56
#: how many finished jobs' metrics the node keeps (the totals in
#: :meth:`HyperQNode.stats` keep counting past it).
_COMPLETED_JOBS_WINDOW = 1024


@dataclass
class _LoadJob:
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
    #: phase stopwatches (Figure 7 split) — total runs begin→end load,
    #: acquisition from the first DATA chunk until the pipeline drains,
    #: application across Beta's DML run.
    total_watch: Stopwatch = field(default_factory=Stopwatch)
    acquisition_watch: Stopwatch = field(default_factory=Stopwatch)
    application_watch: Stopwatch = field(default_factory=Stopwatch)
    sessions_seen: set[int] = field(default_factory=set)
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: workload-management admission (None when wlm is disabled).
    ticket: object = None
    #: data-quality prechecker (None when no ruleset matched the job).
    dq: DqPrechecker | None = None
    #: owning stream feed (None for one-shot loads), the batch's
    #: checked BEGIN_LOAD ``stream`` object (``batch_seq``, ``cursor``,
    #: ``event_ts`` for the lag gauge), drift accepted at BEGIN (wire
    #: dicts), and whether the whole batch routes to the error table
    #: (route-to-error).
    stream: "_StreamFeed | None" = None
    batch: dict = field(default_factory=dict)
    stream_drift: list = field(default_factory=list)
    stream_route_error: bool = False


@dataclass
class _StreamFeed:
    """Gateway-side state of one continuous-ingestion feed.

    A feed outlives its micro-batch jobs and keeps their job context
    warm: the watermark journal (in a *durable* directory, not the
    node's staging tempdir) stays open across batches and carries the
    highest committed batch sequence, the source cursor, and the
    accepted wire layout across node restarts; the WLM ticket is
    admitted once at feed open and held across cycles, so a streaming
    session occupies exactly one pool slot however many batches it
    runs (per-batch jobs ride with ``ticket=None``); and every batch
    stages into the feed's one ``staging_table``, so the CDW sees no
    DDL and Beta's prepared DML is compiled once per feed.  Sharing
    that table (and the mutable DML template keyed on its name) is
    sound because a feed has at most one batch in flight — ``live``.
    """

    name: str
    target: str
    #: schema-drift policy: ``evolve`` / ``route-to-error`` / ``halt``.
    policy: str
    journal: CheckpointJournal
    #: the wire layout the feed last accepted (drift baseline).
    layout: Layout
    pool: str = ""
    ticket: object = None
    #: ``HQ_STG_FEED_<feed>``: created by the first batch, emptied at
    #: each END_LOAD, dropped at feed close.
    staging_table: str = ""
    #: ``(job id, batch seq)`` of the batch in flight, claimed at BEGIN
    #: and released at END_LOAD or abort.
    live: "tuple[str, int] | None" = None
    #: ``(job id, staging dir)`` of the last batch aborted before its
    #: commit, while its resumable state (journal, uploaded blobs, rows
    #: landed in ``staging_table``) is still around; a resume of the
    #: same job id picks it up, a BEGIN of any other batch discards it.
    parked: "tuple[str, str] | None" = None
    committed_seq: int = -1
    cursor: str | None = None
    batches_committed: int = 0
    batches_skipped: int = 0
    rows_committed: int = 0
    drift_events: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _ExportJob:
    job_id: str
    cursor: TdfCursor
    #: the job's root trace span (continues the client's trace when a
    #: traceparent rode in on BEGIN_EXPORT).
    span: object = NULL_SPAN
    #: workload-management admission (None when wlm is disabled).
    ticket: object = None
    #: data sessions that must see EOF before the job is torn down.
    eof_needed: int = 1
    eof_seen: set[int] = field(default_factory=set)


def _ruleset_for_layout(ruleset, layout: Layout):
    """Drop rules referencing columns absent from a batch's layout.

    Drift × DQ semantics for streaming feeds: a rule is *defined* for a
    micro-batch only once every column it references exists in that
    batch's layout, so a rule written against a column that appears
    mid-stream simply starts applying at the batch that adds it.
    Returns None when nothing survives (the precheck is skipped).
    """
    names = {f.upper() for f in layout.field_names}
    kept = tuple(r for r in ruleset.rules
                 if all(c.upper() in names
                        for c in r.referenced_columns))
    if not kept:
        return None
    if len(kept) == len(ruleset.rules):
        return ruleset
    return replace(ruleset, rules=kept)


class HyperQNode:
    """A Hyper-Q virtualization node in front of one CDW."""

    def __init__(self, engine: CdwEngine, store: CloudStore,
                 config: HyperQConfig | None = None,
                 name: str = "hyperq", listener=None):
        self.engine = engine
        self.store = store
        self.config = config or HyperQConfig()
        self.name = name
        if self.config.log_level is not None:
            configure_logging(self.config.log_level,
                              json_output=self.config.log_json)
        self.obs = Observability.from_config(self.config, node=name)
        if engine.on_statement is None:
            engine.on_statement = (
                lambda stmt, seconds: self.obs.statement_seconds
                .labels(statement=stmt).observe(seconds))
        if engine.on_scan_pruned is None:
            engine.on_scan_pruned = (
                lambda skipped: self.obs.scan_pruned_rows.inc(skipped))
        if engine.on_vector_fallback is None:
            engine.on_vector_fallback = (
                lambda reason: self.obs.engine_vector_fallbacks
                .labels(reason=reason).inc())
            for reason in engine.vector_fallbacks:      # exposed at zero
                self.obs.engine_vector_fallbacks.labels(reason=reason)
        self.credits = CreditManager(
            self.config.credits, self.config.credit_timeout_s,
            obs=self.obs)
        self.beta = Beta(engine, self.config, obs=self.obs)
        #: the resilience trio shared by every cloud-facing call site on
        #: this node: one chaos injector, one retry policy (its counters
        #: are the node's retry telemetry), one breaker per target.
        self.faults = FaultInjector.from_profile(
            self.config.chaos_profile, seed=self.config.chaos_seed,
            obs=self.obs)
        self.retry = RetryPolicy.from_config(self.config)
        #: multi-tenant workload management: classification, per-pool
        #: admission, fair-share credit arbitration.  Disabled (pure
        #: pass-through) unless ``config.wlm_profile`` is set.
        self.wlm = WorkloadManager.from_config(
            self.config, self.credits, obs=self.obs)
        #: declarative data-quality rulesets (repro.dq), resolved per
        #: job against (target table, WLM pool).  Empty profile = the
        #: precheck never runs.
        self.dq_profile = DqProfile.from_profile(self.config.dq_profile)
        #: recent per-job dq summaries + running totals (stats()["dq"],
        #: consumed by the qinsight top-violated-rules report).
        self._dq_jobs: list[dict] = []
        self._dq_totals: dict = {
            "jobs_checked": 0, "checked": 0, "routed_rows": 0,
            "violations": {}}
        self.breakers = CircuitBreakerRegistry.from_config(
            self.config, obs=self.obs)
        self.loader = CloudBulkLoader(
            store, compression=self.config.compression, obs=self.obs,
            faults=self.faults, retry=self.retry, breakers=self.breakers)
        #: any object with accept()/connect()/close() — the in-memory
        #: transport by default, or a repro.net_tcp.TcpListener for a
        #: real socket.
        self.listener = listener if listener is not None else Listener()
        store.create_container(self.config.container)
        self._base_dir = tempfile.mkdtemp(prefix=f"{name}-staging-")
        if self.obs.flight.enabled and self.obs.flight.dump_dir is None:
            # Default bundle location rides the staging area (removed
            # at node stop); set config.flight_dump_dir to keep
            # post-mortems across node restarts.
            self.obs.flight.dump_dir = os.path.join(
                self._base_dir, "flight")
        self._jobs: dict[str, _LoadJob] = {}
        self._exports: dict[str, _ExportJob] = {}
        #: continuous-ingestion feeds by name (repro.stream).
        self._streams: dict[str, _StreamFeed] = {}
        self._registry_lock = threading.Lock()
        #: metrics of the most recently finished jobs, in completion
        #: order (bench harness) — a window, so a feed of micro-batches
        #: cannot grow the node; the totals count every job ever
        #: finished.
        self.completed_jobs: deque[JobMetrics] = deque(
            maxlen=_COMPLETED_JOBS_WINDOW)
        self._completed_totals = {"jobs": 0, "rows": 0, "bytes": 0}
        self._running = False
        #: the connection-handling front end, created at start().
        self.frontend: ThreadedFrontend | None = None
        #: the node's one stage-task pool, shared by every pipeline on
        #: the node.
        self._pipeline_pool: PipelineWorkerPool | None = None

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "HyperQNode":
        """Start the front end; returns self for chaining."""
        self._running = True
        self._pipeline_pool = PipelineWorkerPool(
            workers=self.config.converters + self.config.filewriters + 1,
            name=self.name)
        self.frontend = ThreadedFrontend(
            self, self.listener, name=self.name,
            max_connections=self.config.max_connections,
            obs=self.obs).start()
        return self

    def stop(self) -> None:
        """Stop the node and tear down all job state."""
        self._running = False
        if self.frontend is not None:
            self.frontend.stop()
        self.listener.close()
        with self._registry_lock:
            jobs = list(self._jobs.values())
            self._jobs.clear()
            exports = list(self._exports.values())
            self._exports.clear()
        for job in jobs:
            job.pipeline.shutdown()
            self.wlm.release(job.ticket)
        for export in exports:
            self.wlm.release(export.ticket)
        # Stream feeds quiesce after their in-flight batch jobs (each
        # batch is drained or cleanly abandoned for resume above) and
        # strictly before Observability.close() flushes the trace store
        # — the same teardown ordering a job's pipeline keeps.
        # Compacting and closing the watermark journal here leaves the
        # feed's durable state consolidated; a restarted node reopens
        # it and resumes the feed.
        with self._registry_lock:
            feeds = list(self._streams.values())
            self._streams.clear()
        for feed in feeds:
            self.obs.flight.record(
                f"stream:{feed.name}", "feed_quiesced",
                committed_seq=feed.committed_seq,
                batches=feed.batches_committed)
            self._release_feed(feed)
        # The pipeline pool closes only after the jobs above drained —
        # their pipelines run on it.
        if self._pipeline_pool is not None:
            self._pipeline_pool.close()
        shutil.rmtree(self._base_dir, ignore_errors=True)
        self.obs.close()
        log.info("node stopped", extra={
            "node": self.name, "abandoned_jobs": len(jobs),
            "abandoned_feeds": len(feeds),
            "completed_jobs": self._completed_totals["jobs"]})

    def __enter__(self) -> "HyperQNode":
        """Context-manager support: starts the node."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the node on context exit."""
        self.stop()

    def connect(self):
        """Connection factory handed to legacy clients."""
        return self.listener.connect()

    def stats(self) -> dict:
        """Operational snapshot of the node (monitoring hook)."""
        with self._registry_lock:
            active = len(self._jobs)
            totals = dict(self._completed_totals)
        return {
            "name": self.name,
            "gateway": (self.frontend.snapshot()
                        if self.frontend is not None else {}),
            "active_jobs": active,
            "completed_jobs": totals["jobs"],
            "rows_loaded": totals["rows"],
            "bytes_received": totals["bytes"],
            "credits": {
                "pool_size": self.credits.pool_size,
                "available": self.credits.available,
                "acquires": self.credits.acquires,
                "blocked_acquires": self.credits.blocked_acquires,
                "total_wait_s": round(self.credits.total_wait_s, 6),
                "min_available": self.credits.min_available,
            },
            "engine_statements": dict(self.engine.statement_counts),
            "engine_vector_fallbacks": dict(self.engine.vector_fallbacks),
            "storage": self._storage_snapshot(),
            "plan_cache": {
                "dml": self.beta.plans.stats(),
                "engine_parse": self.engine.plan_cache.stats(),
            },
            "store_bytes_uploaded": self.store.bytes_uploaded,
            "wlm": self.wlm.snapshot(),
            "resilience": {
                "retry_attempts": self.retry.attempts_total,
                "retry_giveups": self.retry.giveups_total,
                "retry": self.retry.snapshot(),
                "breakers": self.breakers.snapshot(),
                "faults_injected": self.faults.total_injected,
                "faults": self.faults.snapshot(),
            },
            "metrics": self.obs.registry.collect(),
            "trace": {
                "enabled": self.obs.tracer.enabled,
                "buffered_spans": len(self.obs.tracer.records()),
                "dropped": self.obs.tracer.dropped,
                "sample_rate": self.obs.tracer.sample_rate,
                "store_segments": (
                    len(self.obs.trace_store.segments())
                    if self.obs.trace_store is not None else 0),
            },
            "dq": self._dq_snapshot(),
            "streams": self._streams_snapshot(),
            "slo": self.obs.slo.snapshot(),
            "flight": {
                "enabled": self.obs.flight.enabled,
                "jobs_recorded": len(self.obs.flight.jobs()),
                "dump_dir": self.obs.flight.dump_dir,
            },
        }

    def _dq_snapshot(self) -> dict:
        """stats()["dq"]: profile shape + totals + recent job summaries."""
        with self._registry_lock:
            totals = {
                "jobs_checked": self._dq_totals["jobs_checked"],
                "checked": self._dq_totals["checked"],
                "routed_rows": self._dq_totals["routed_rows"],
                "violations": dict(self._dq_totals["violations"]),
            }
            jobs = [dict(j) for j in self._dq_jobs]
        return {
            "enabled": self.dq_profile.enabled,
            "rulesets": [rs.name for rs in self.dq_profile.rulesets],
            **totals,
            "jobs": jobs,
        }

    def _streams_snapshot(self) -> dict:
        """stats()["streams"]: per-feed watermark + counters."""
        with self._registry_lock:
            feeds = list(self._streams.values())
        out = {}
        for feed in feeds:
            with feed.lock:
                out[feed.name] = {
                    "target": feed.target,
                    "policy": feed.policy,
                    "pool": feed.pool,
                    "committed_seq": feed.committed_seq,
                    "cursor": feed.cursor,
                    "batches_committed": feed.batches_committed,
                    "batches_skipped": feed.batches_skipped,
                    "rows_committed": feed.rows_committed,
                    "drift_events": feed.drift_events,
                    "layout": [f.name for f in feed.layout.fields],
                }
        return out

    def _storage_snapshot(self) -> dict:
        """stats()["storage"]: per-table rows / bytes / storage mode.

        Refreshes the ``hyperq_table_bytes`` gauge as a side effect so
        scrapes and :meth:`stats` always agree.
        """
        snapshot = self.engine.storage_snapshot()
        for table_name, info in snapshot.items():
            self.obs.table_bytes.labels(table=table_name) \
                .set(info["bytes"])
        return snapshot

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the node's metric registry."""
        self._storage_snapshot()
        return self.obs.registry.render_prometheus()

    # -- connection handling (Alpha/Coalescer + PXC dispatch) --------------------
    #
    # The front end (ThreadedFrontend) owns accept, framing, and
    # connection lifecycle; the node implements the
    # session contract it drives: new_conn / handle_message /
    # connection_closed / wrap_endpoint.

    def new_conn(self) -> dict:
        """Fresh connection-scoped session state.

        Classification attributes (set at LOGON) plus the jobs this
        connection owns — a control connection that vanishes must not
        leave its jobs holding admission slots forever.
        """
        return {"user": "", "loads": {}, "exports": set()}

    def wrap_endpoint(self, endpoint):
        """Chaos hook: armed ``net.send`` rules surface as connection
        drops on the server side of the wire."""
        if self.faults.enabled:
            return FaultyEndpoint(endpoint, self.faults)
        return endpoint

    #: the session contract's per-frame entry point: the request path
    #: both servers share (count, check, dispatch, ERROR reply).
    handle_message = serve_request

    def count_request(self, kind: MessageKind) -> None:
        """Count one served frame (``hyperq_messages_total{kind}``)."""
        self.obs.messages_total.labels(kind=kind.name).inc()

    def connection_closed(self, conn: dict) -> None:
        """Reap whatever this connection was responsible for.

        A dying *data* session counts as drained for its export job
        (the job completes once every other session reaches EOF); jobs
        begun on a dying *control* connection are abandoned — their
        admission slots are freed so the pool cannot be bricked by
        crashed clients, while restartable state (staging table, store
        prefix, checkpoint journal) survives for a ``resume`` restart.
        """
        job_id = conn.get("job_id")
        if job_id:
            self._export_session_drained(job_id,
                                         conn.get("session_no", 0))
        for job in list(conn["loads"].values()):
            self._abort_load_job(job, event="abandoned")
        for job_id in conn["exports"]:
            self._drop_export(job_id)

    # Request handlers: serve_request passes each the checked request.

    def _handle_logon(self, channel: MessageChannel, message: Message,
                      request: dict, conn: dict) -> None:
        """Record the session identity and name the handler thread.

        Data-session LOGONs carry the job they serve, so the handler
        thread is renamed ``<node>-job-<id>-s<n>`` — a hung or
        credit-starved load is then visible directly in a thread dump.
        """
        conn["user"] = request["user"]
        job_id = request["job_id"]
        if job_id:
            # Remember which job/session this data connection serves so
            # its teardown can be attributed (export EOF accounting).
            conn["job_id"] = job_id
            conn["session_no"] = request["session_no"]
            threading.current_thread().name = (
                f"{self.name}-job-{job_id}"
                f"-s{conn['session_no']}")
        channel.send(Message(MessageKind.LOGON_OK))

    def _handle_logoff(self, channel: MessageChannel, message: Message,
                       request: dict, conn: dict) -> None:
        channel.send(Message(MessageKind.LOGOFF_OK))

    # -- ad-hoc SQL: cross compile and execute on the CDW ----------------------------

    def _handle_sql_request(self, channel: MessageChannel,
                            message: Message, request: dict,
                            conn: dict) -> None:
        statement = to_cdw(
            parse_statement(request["sql"], dialect="legacy"))
        channel.send(result_reply(
            self.engine.execute(statement),
            functools.partial(make_format, FormatSpec("binary"))))

    # -- load jobs -----------------------------------------------------------------------

    def _job(self, job_id: str) -> _LoadJob:
        with self._registry_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown load job {job_id!r}")
        return job

    def _classify(self, tenant: str, conn: dict, target: str = "") -> str:
        """Resource pool for one BEGIN_* request.

        Tenancy is declared explicitly (the request's ``tenant``) or
        falls back to the logon user — legacy scripts predate any
        notion of tenancy, so the common case is user-based pooling.
        """
        user = conn.get("user", "")
        return self.wlm.classify(
            tenant=tenant or user, user=user, target=target)

    def _handle_begin_load(self, channel: MessageChannel,
                           message: Message, request: dict,
                           conn: dict) -> None:
        job_id, target = request["job_id"], request["target"]
        threading.current_thread().name = f"{self.name}-job-{job_id}-ctl"
        if not self.engine.catalog.exists(target):
            raise GatewayError(
                f"target table {target!r} does not exist in the CDW")

        # Streaming micro-batches branch off here: admission belongs to
        # the *feed* (one slot across all cycles), the feed's durable
        # watermark decides whether this batch already committed, and
        # schema drift is resolved before any job state exists.
        if request["stream"] is not None:
            self._begin_stream_batch(channel, request, conn)
            return

        # Admission control happens before ANY job state is created, so
        # a shed request leaves nothing behind — the client just sees
        # WLM_THROTTLED and retries the whole BEGIN_LOAD later.  The
        # admission and job spans parent to the client's trace, if any.
        pool = self._classify(request["tenant"], conn, target=target)
        ticket = self.wlm.admit(pool, job_id, kind="load",
                                parent_span=request[TRACEPARENT_KEY])
        try:
            job = self._begin_load_admitted(channel, request, pool, ticket)
        except BaseException:
            self.wlm.release(ticket)
            raise
        # This control connection owns the job: if it closes before
        # END_LOAD the job is abandoned and its slot freed.
        conn["loads"][job_id] = job

    def _begin_load_admitted(self, channel: MessageChannel, request: dict,
                             pool: str, ticket,
                             feed: "_StreamFeed | None" = None) -> _LoadJob:
        """Set up one admitted load job (the pre-wlm BEGIN_LOAD body);
        a feed batch passes its ``feed`` and has its drift resolved."""
        job_id, target = request["job_id"], request["target"]
        layout, format_spec = request["layout"], request["format"]
        et_table, uv_table = request["et_table"], request["uv_table"]
        resume = request["resume"]
        route_error, drift = (False, []) if feed is None else \
            self._stream_resolve_drift(
                feed, request["stream"]["batch_seq"], layout)
        # A restarted job (same job_id, resume flag) replaces whatever
        # is left of its killed predecessor; the checkpoint journal in
        # the job's staging directory carries the durable progress over.
        if resume:
            with self._registry_lock:
                stale = self._jobs.pop(job_id, None)
            if stale is not None:
                # The stale pipeline must be idle before this restart
                # replays the journal — bounded like an abort.
                stale.pipeline.quiesce()
                stale.span.end("error")
                self.wlm.release(stale.ticket)
                self.obs.jobs_total.labels(event="restarted").inc()
                self.obs.flight.record(job_id, "restarted")

        self._ensure_error_tables(et_table, uv_table, target)
        staging_dir = os.path.join(self._base_dir, job_id)
        os.makedirs(staging_dir, exist_ok=True)
        journal = CheckpointJournal(
            os.path.join(staging_dir, "checkpoint.jsonl"),
            fresh=not resume)
        if feed is None:
            staging_table = f"HQ_STG_{job_id}"
            if not (resume and self.engine.catalog.exists(staging_table)):
                self._create_staging_table(staging_table, layout)
        else:
            staging_table = feed.staging_table
            self._prepare_feed_staging(feed, job_id, layout, journal)
        # Per-pool/target rule resolution mirrors WLM classification:
        # first matching ruleset in declaration order wins.
        dq = None
        ruleset = self.dq_profile.resolve(target=target, pool=pool)
        if ruleset is not None and feed is not None:
            if route_error:
                # The whole batch is bound for the error table — the
                # precheck would only route it twice.
                ruleset = None
            else:
                # Drift × DQ: a rule applies to a stream batch only
                # once every column it references exists in the
                # batch's layout — a column added mid-stream is exempt
                # until the profile matches it (docs/STREAMING.md).
                ruleset = _ruleset_for_layout(ruleset, layout)
        if ruleset is not None:
            try:
                dq = DqPrechecker(
                    ruleset=ruleset, engine=self.engine,
                    staging_table=staging_table,
                    et_table=et_table, target_table=target,
                    layout=layout, seq_stride=self.config.seq_stride,
                    journal=journal, obs=self.obs, job_id=job_id)
            except ValueError as exc:
                raise GatewayError(f"dq profile rejected: {exc}") from exc

        metrics = JobMetrics(job_id=job_id, sessions=request["sessions"],
                             pool=pool)
        # With a remote context the job span continues the client's
        # trace; without one it is a locally-rooted trace as before.
        job_span = self.obs.tracer.span(
            "job", parent=request[TRACEPARENT_KEY], job_id=job_id,
            target=target,
            **({"pool": pool} if pool else {}))
        if job_span.trace_id:
            metrics.trace_id = f"{job_span.trace_id:032x}"
        with self.obs.tracer.span(
                "codec.compile", parent=job_span, job_id=job_id,
                kind=format_spec.kind):
            record_format = make_format(format_spec, layout)
        self.obs.codec_compiles.labels(kind=format_spec.kind).inc()
        converter = DataConverter(
            record_format,
            seq_stride=self.config.seq_stride,
            csv_delimiter=self.config.csv_delimiter,
            obs=self.obs,
            staging_table=staging_table)
        pipeline = AcquisitionPipeline(
            converter=converter,
            credits=self.wlm.credit_source(pool),
            loader=self.loader,
            job_id=job_id,
            engine=self.engine,
            staging_table=staging_table,
            container=self.config.container,
            prefix=f"{job_id}/",
            staging_dir=staging_dir,
            config=self.config,
            metrics=metrics,
            obs=self.obs,
            job_span=job_span,
            faults=self.faults,
            retry=self.retry,
            breakers=self.breakers,
            journal=journal,
            resume=resume,
            worker_pool=self._pipeline_pool,
        )
        job = _LoadJob(
            job_id=job_id, target=target,
            et_table=et_table, uv_table=uv_table,
            layout=layout,
            staging_table=staging_table, staging_dir=staging_dir,
            pipeline=pipeline, metrics=metrics,
            span=job_span, ticket=ticket, dq=dq,
        )
        if feed is not None:
            job.stream, job.batch = feed, request["stream"]
            job.stream_drift = drift
            job.stream_route_error = route_error
        job.total_watch.start()
        self.obs.jobs_total.labels(event="started").inc()
        self.obs.flight.record(
            job_id, "started", target=target, pool=pool,
            resume=resume, trace_id=metrics.trace_id)
        log.info("load job started", extra={
            "job_id": job_id, "target": target, "pool": pool,
            "sessions": request["sessions"]})
        with self._registry_lock:
            self._jobs[job_id] = job
        ok_meta: dict = {"job_id": job_id}
        if resume:
            # The authoritative durable set: with the immediate-ack
            # pipeline an ack is NOT durability, so the client must only
            # skip chunks the gateway confirms it still has.
            ok_meta["durable_seqs"] = sorted(pipeline.resumed_seqs)
            if journal.applied is not None:     # straight to END_LOAD
                ok_meta["committed"] = journal.applied
        channel.send(Message(MessageKind.BEGIN_LOAD_OK, ok_meta))
        return job

    # -- continuous ingestion (repro.stream) -------------------------------------

    def _begin_stream_batch(self, channel: MessageChannel, request: dict,
                            conn: dict) -> None:
        """BEGIN_LOAD of one micro-batch on a streaming feed.

        Four outcomes: the batch sequence is at or below the feed's
        durable watermark → a ``committed`` fast-skip reply and no job
        at all (replay after a client crash); the feed already
        has an uncommitted batch in flight under another job id → the
        typed protocol error (batches share the feed's staging table
        and DML template, and the watermark assumes in-order commits);
        the batch layout drifted → resolve it under the feed's policy
        first; otherwise → a normal load job that rides the feed's
        admission ticket and staging table.
        """
        job_id, stream = request["job_id"], request["stream"]
        feed = self._stream_feed(stream, request, conn)
        seq = stream["batch_seq"]
        with feed.lock:
            skip = seq <= feed.committed_seq
            if skip:
                feed.batches_skipped += 1
            else:
                live = feed.live
                # A committed batch whose teardown is still pending (its
                # client died before END_LOAD) no longer owns anything.
                if live is not None and live[0] != job_id \
                        and live[1] > feed.committed_seq:
                    raise ProtocolError(
                        f"stream feed {feed.name!r} already has batch "
                        f"{live[1]} in flight as job {live[0]!r}; one "
                        "batch per feed at a time")
                feed.live = (job_id, seq)
            committed_seq, cursor = feed.committed_seq, feed.cursor
        if skip:
            self.obs.stream_batches.labels(
                feed=feed.name, outcome="skipped").inc()
            self.obs.flight.record(
                f"stream:{feed.name}", "batch_skipped", seq=seq)
            channel.send(Message(MessageKind.BEGIN_LOAD_OK, {
                "job_id": job_id, "committed": {"stream": {
                    "committed_seq": committed_seq, "cursor": cursor}}}))
            return
        try:
            job = self._begin_load_admitted(channel, request, feed.pool,
                                            None, feed=feed)
        except BaseException:
            self._release_live(feed, job_id)
            raise
        conn["loads"][job_id] = job

    def _stream_feed(self, stream: dict, request: dict,
                     conn: dict) -> _StreamFeed:
        """Get or durably open the feed a stream batch belongs to.

        The watermark journal lives outside the node's staging tempdir
        (``config.stream_profile["watermark_dir"]``, then the client's
        ``watermark_dir``, then a staging-area fallback that only
        suits tests), so a feed reopened after a node restart resumes
        from its last committed batch, accepted layout included.
        """
        name, target = stream["feed"], request["target"]
        with self._registry_lock:
            feed = self._streams.get(name)
        if feed is not None:
            if feed.target != target:
                raise GatewayError(
                    f"stream feed {name!r} is bound to "
                    f"{feed.target!r}, not {target!r}")
            return feed
        profile = self.config.stream_profile or {}
        policy = (stream["drift_policy"] or profile.get("drift_policy")
                  or "evolve")
        if policy not in ("evolve", "route-to-error", "halt"):
            raise GatewayError(
                f"unknown stream drift policy {policy!r} "
                "(expected evolve, route-to-error, or halt)")
        watermark_dir = (profile.get("watermark_dir")
                         or stream["watermark_dir"]
                         or os.path.join(self._base_dir, "streams"))
        os.makedirs(watermark_dir, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "-_." else "_"
                       for c in name)
        staging_table = "HQ_STG_FEED_" + "".join(
            c if c.isascii() and c.isalnum() else "_" for c in name)
        # fsync per append: the feed journal stays open across batches
        # and is only compacted now and then, so each stream_commit
        # record must be durable on its own before APPLY_RESULT leaves.
        journal = CheckpointJournal(
            os.path.join(watermark_dir, f"{safe}.feed.jsonl"),
            fsync=True)
        accepted = request["layout"]
        if journal.stream_layout is not None:
            accepted = layout_from_wire(journal.stream_layout)
        pool = self._classify(request["tenant"], conn, target=target)
        # One admission per *feed*, held across every micro-batch
        # cycle: a streaming session is one long-running occupant of
        # its pool, fairly arbitrated against one-shot jobs.
        ticket = self.wlm.admit(pool, f"stream:{name}", kind="stream")
        feed = _StreamFeed(
            name=name, target=target, policy=policy, journal=journal,
            layout=accepted,
            pool=pool, ticket=ticket, staging_table=staging_table,
            committed_seq=(-1 if journal.stream_committed_seq is None
                           else journal.stream_committed_seq),
            cursor=journal.stream_cursor,
            rows_committed=journal.stream_rows)
        if journal.stream_drift:
            # The accepted layout already reflects the journaled
            # history; only the counter needs restoring.
            feed.drift_events = len(journal.stream_drift)
        with self._registry_lock:
            winner = self._streams.get(name)
            # Feed names that differ only in case or punctuation would
            # share one staging table.
            if winner is None and not any(
                    f.staging_table.upper() == staging_table.upper()
                    for f in self._streams.values()):
                winner = self._streams[name] = feed
        if winner is not feed:
            journal.close()
            self.wlm.release(ticket)
            if winner is None:
                raise GatewayError(
                    f"stream feed {name!r} maps to staging table "
                    f"{staging_table}, which another open feed uses")
            return winner       # lost the creation race: keep the first
        self.obs.flight.record(
            f"stream:{name}", "feed_opened", target=target,
            policy=policy, committed_seq=feed.committed_seq)
        log.info("stream feed opened", extra={
            "feed": name, "target": target, "policy": policy,
            "committed_seq": feed.committed_seq})
        return feed

    def _stream_resolve_drift(self, feed: _StreamFeed, seq: int,
                              layout: Layout
                              ) -> "tuple[bool, list[dict]]":
        """Diff a batch layout against the feed; apply the policy.

        Returns ``(route_error, wire_events)``.  Under ``evolve`` the
        target is ALTERed (ADD IF NOT EXISTS / guarded RENAME — both
        replay-safe across the ALTER→journal crash window), the feed's
        accepted layout advances, and the drift is journaled *before*
        any batch data lands.
        Under ``route-to-error`` nothing advances — the batch stages
        under its own layout and APPLY routes it wholesale.  ``halt``
        raises, leaving the watermark untouched for replay.
        """
        with feed.lock:
            resolver = SchemaDriftResolver(feed=feed.name)
            events = resolver.resolve(feed.layout, layout)
            if not events:
                return False, []
            wire = [e.to_wire() for e in events]
            if feed.policy == "halt":
                raise StreamDriftError(
                    f"feed {feed.name}: schema drift under halt "
                    f"policy: {wire}", feed=feed.name, events=wire)
            for event in events:
                self.obs.stream_drift_events.labels(
                    feed=feed.name, kind=event.kind).inc()
            feed.drift_events += len(events)
            if feed.policy == "route-to-error":
                self.obs.flight.record(
                    f"stream:{feed.name}", "drift_routed", seq=seq,
                    events=len(events))
                log.info("stream drift routed to error table", extra={
                    "feed": feed.name, "seq": seq, "events": wire})
                return True, wire
            # evolve: propagate to the target, then journal.  ADD is
            # idempotent; RENAME is guarded so replaying the window
            # between a completed ALTER and the journal write is safe.
            target_table = self.engine.table(feed.target)
            for event in events:
                if event.kind == "added":
                    self.engine.execute(
                        f"ALTER TABLE {feed.target} ADD COLUMN "
                        f"IF NOT EXISTS {event.column} {event.new_type}")
                elif event.kind == "renamed" and \
                        target_table.has_column(event.old_name):
                    self.engine.execute(
                        f"ALTER TABLE {feed.target} RENAME COLUMN "
                        f"{event.old_name} TO {event.column}")
            feed.layout = layout
            feed.journal.record_stream_drift(
                seq, wire, layout=layout_to_wire(layout))
            self.obs.flight.record(
                f"stream:{feed.name}", "drift_evolved", seq=seq,
                events=len(events))
            log.info("stream drift evolved", extra={
                "feed": feed.name, "seq": seq, "events": wire})
            return False, wire

    def _stream_route_batch(self, job: _LoadJob) -> ApplySummary:
        """route-to-error APPLY: the whole staged batch → error table.

        Reuses the dq routing idiom (batched multi-row ET INSERTs +
        zone-map-pruned staging DELETEs) with the drift provenance
        columns ``__RULE_ID='schema_drift'`` and the event list as
        ``__REASON``, so drift-routed and dq-routed rows share one
        queryable schema.  The watermark still advances — the batch is
        *handled*, not lost — and replay after a crash fast-skips it.
        """
        from repro.dq.precheck import _DELETE_BATCH, _INSERT_BATCH
        result = self.engine.execute(
            f"SELECT {SEQ_COLUMN} FROM {job.staging_table}")
        seqs = sorted(row[0] for row in result.rows)
        events = job.stream_drift
        reason = ("; ".join(
            f"{e['kind']}:{e.get('column', '')}" for e in events))[:256]
        column = events[0].get("column", "") if events else ""
        chunk_records = dict(job.pipeline.chunk_records)
        starts: dict[int, int] = {}
        acc = 0
        for chunk in sorted(chunk_records):
            starts[chunk] = acc
            acc += chunk_records[chunk]
        stride = self.config.seq_stride
        rows = []
        for seq in seqs:
            rownum = starts.get(seq // stride, 0) + seq % stride + 1
            rows.append((
                rownum, HYPERQ_SCHEMA_DRIFT, column,
                (f"schema drift on feed {job.stream.name} routed "
                 f"batch {job.batch['batch_seq']} to the error table: "
                 f"{reason}, row number: {rownum}")[:512],
                "schema_drift", reason))
        for i in range(0, len(rows), _INSERT_BATCH):
            self.engine.execute(
                et_insert(job.et_table, rows[i:i + _INSERT_BATCH]))
        for i in range(0, len(seqs), _DELETE_BATCH):
            self.engine.execute(staging_delete(
                job.staging_table, seqs[i:i + _DELETE_BATCH]))
        self.obs.flight.record(
            job.job_id, "stream_batch_routed", rows=len(seqs))
        return ApplySummary(et_errors=len(seqs),
                            statements=(len(rows) + _INSERT_BATCH - 1)
                            // _INSERT_BATCH if rows else 0)

    def _stream_commit(self, job: _LoadJob, summary: ApplySummary,
                       result_meta: dict) -> None:
        """Durably advance the feed watermark, then let the reply go.

        Ordering is the exactly-once crux: the ``stream_commit``
        record reaches the feed journal *before* APPLY_RESULT leaves
        the node.  A client that dies without seeing the reply replays
        the batch and fast-skips on the committed watermark; a node
        that dies before the record lands leaves the batch job's own
        checkpoint journal to resume the cycle mid-batch.  The append
        is flushed and fsynced by the journal itself; every
        ``_FEED_COMPACT_EVERY`` commits (and at feed close) the journal
        is compacted, keeping it O(feed state) instead of O(batch
        history) however long the feed runs.
        """
        feed, batch = job.stream, job.batch
        seq, cursor = batch["batch_seq"], batch["cursor"]
        rows = summary.rows_inserted + summary.rows_updated
        outcome = "routed" if job.stream_route_error else "committed"
        with feed.lock:
            feed.journal.record_stream_commit(seq, cursor=cursor, rows=rows)
            feed.committed_seq = max(feed.committed_seq, seq)
            feed.cursor = cursor
            feed.batches_committed += 1
            if feed.batches_committed % _FEED_COMPACT_EVERY == 0:
                feed.journal.compact()
            feed.rows_committed += rows
            committed_seq = feed.committed_seq
        self.obs.stream_batches.labels(
            feed=feed.name, outcome=outcome).inc()
        stream_result = {
            "feed": feed.name, "seq": seq,
            "committed_seq": committed_seq,
            "routed": job.stream_route_error,
        }
        if batch["event_ts"] is not None:
            lag = max(0.0, time.time() - batch["event_ts"])
            self.obs.stream_lag_seconds.labels(feed=feed.name).set(lag)
            stream_result["lag_s"] = round(lag, 6)
        if job.stream_drift:
            stream_result["drift"] = list(job.stream_drift)
        result_meta["stream"] = stream_result
        self.obs.flight.record(
            f"stream:{feed.name}", "batch_committed",
            seq=seq, rows=rows,
            routed=job.stream_route_error)

    def _close_stream_feed(self, name: str) -> None:
        """END_LOAD(stream_end): release the feed's slot, staging table
        and journal."""
        with self._registry_lock:
            feed = self._streams.pop(name, None)
        if feed is None:
            return
        self._release_feed(feed)
        self.obs.flight.record(
            f"stream:{name}", "feed_closed",
            committed_seq=feed.committed_seq,
            batches=feed.batches_committed)
        log.info("stream feed closed", extra={
            "feed": name, "target": feed.target,
            "committed_seq": feed.committed_seq,
            "batches": feed.batches_committed,
            "rows": feed.rows_committed})

    def _release_feed(self, feed: _StreamFeed) -> None:
        """Give back what a feed holds: journal, staging table, slot.

        The journal is compacted before it closes, so the file a
        restarted node replays is O(state).  The staging table goes
        unless an aborted, still uncommitted batch is parked in it —
        that batch's job journal says its rows already landed, so a
        resume after the feed reopens must find them.
        """
        feed.journal.compact()
        feed.journal.close()
        if feed.parked is None:
            self.engine.execute(
                f"DROP TABLE IF EXISTS {feed.staging_table}")
        self.wlm.release(feed.ticket)

    @staticmethod
    def _release_live(feed: _StreamFeed, job_id: str) -> None:
        """Job ``job_id`` is no longer the feed's batch in flight."""
        with feed.lock:
            if feed.live is not None and feed.live[0] == job_id:
                feed.live = None

    def _prepare_feed_staging(self, feed: _StreamFeed, job_id: str,
                              layout: Layout,
                              journal: CheckpointJournal) -> None:
        """Make the feed's staging table ready for batch ``job_id``.

        The resume rule: the table is emptied unless this batch's own
        job journal replays rows that already landed in it (a COPY or dq
        routing).  Whatever else it holds is a batch that was aborted
        or committed without its END_LOAD, and whose state this BEGIN
        supersedes.  A batch laid out differently
        from the table (drift under ``evolve``, or a ``route-to-error``
        batch staged under its own layout) gets the table recreated.
        """
        with feed.lock:
            parked, feed.parked = feed.parked, None
        if parked is not None and parked[0] != job_id:
            # Its landed rows are about to go; nothing may resume from
            # the journal that still claims them.
            self._discard_job_state(*parked)
        name = feed.staging_table
        if self.engine.catalog.exists(name):
            if journal.copy_rows is not None or journal.dq_routed:
                return
            table = self.engine.table(name)
            have = [f"{c.name} {c.ctype.render()}".upper()
                    for c in table.columns]
            want = [c.upper() for c in self._staging_columns(layout)]
            if have == want:
                if table.row_count:
                    self.engine.execute(n.Delete(n.TableRef(name)))
                return
            self.engine.execute(f"DROP TABLE {name}")
        self._create_staging_table(name, layout)

    def _discard_job_state(self, job_id: str, staging_dir: str) -> None:
        """Delete what a resume of the job would start from: its
        uploaded blobs and its staging directory (journal included)."""
        self.store.delete_prefix(self.config.container, f"{job_id}/")
        shutil.rmtree(staging_dir, ignore_errors=True)

    @staticmethod
    def _staging_columns(layout: Layout) -> list[str]:
        """Column definitions of a staging table for ``layout``."""
        columns = [
            f"{fld.name} NVARCHAR" if fld.type.is_character else
            f"{fld.name} {cdw_type_from_legacy(fld.type).render()}"
            for fld in layout.fields]
        columns.append(f"{SEQ_COLUMN} BIGINT")
        return columns

    def _create_staging_table(self, name: str, layout: Layout) -> None:
        """Staging columns are deliberately *unbounded* text for character
        fields: length enforcement belongs to the application phase where
        per-tuple error handling can catch it (Section 6 type mapping +
        Section 7 error handling)."""
        self.engine.execute(
            f"CREATE TABLE {name} "
            f"({', '.join(self._staging_columns(layout))})")

    def _ensure_error_tables(self, et_table: str, uv_table: str,
                             target: str) -> None:
        """Create the job's ET/UV tables unless the catalog has them —
        a lookup, not a statement, for every job after a target's
        first."""
        # __RULE_ID/__REASON: shared provenance columns — dq-routed and
        # split-routed rows land in one queryable schema (docs/DQ.md).
        if not self.engine.catalog.exists(et_table):
            self.engine.execute(
                f"CREATE TABLE IF NOT EXISTS {et_table} ("
                "SEQNO INT, ERRCODE INT, ERRFIELD NVARCHAR(128), "
                "ERRMSG NVARCHAR(512), __RULE_ID NVARCHAR(64), "
                "__REASON NVARCHAR(256))")
        if not self.engine.catalog.exists(uv_table):
            target_table = self.engine.table(target)
            uv_columns = ", ".join(
                f"{c.name} {c.ctype.render()}"
                for c in target_table.columns)
            self.engine.execute(
                f"CREATE TABLE IF NOT EXISTS {uv_table} "
                f"({uv_columns}, SEQNO INT, ERRCODE INT)")

    def _handle_data(self, channel: MessageChannel, message: Message,
                     request: dict, conn: dict) -> None:
        job = self._job(request["job_id"])
        seq, session_no, body = (request["seq"], request["session_no"],
                                 message.body)
        with job.lock:
            # Stopwatch.start is a no-op while running, so the first
            # chunk starts the acquisition clock and the rest are free.
            job.acquisition_watch.start()
            job.metrics.chunks_received += 1
            job.metrics.bytes_received += len(body)
            job.sessions_seen.add(session_no)
        self.obs.chunks_received.inc()
        self.obs.bytes_received.inc(len(body))
        receive_span = self.obs.tracer.span(
            "receive", parent=job.span, chunk_seq=seq,
            bytes=len(body), session=session_no)
        # Minimal processing, then the immediate acknowledgment: the only
        # thing that can delay the ack is credit back-pressure.
        try:
            with self.obs.stage_seconds.labels(stage="receive").time():
                job.pipeline.submit_chunk(seq, body, span=receive_span)
        except BaseException:
            receive_span.end("error")
            raise
        receive_span.end()
        channel.send(Message(MessageKind.DATA_ACK, {"seq": seq}))

    def _handle_data_eof(self, channel: MessageChannel, message: Message,
                         request: dict, conn: dict) -> None:
        self._job(request["job_id"])  # validate
        channel.send(Message(MessageKind.DATA_ACK, {"seq": -1}))

    def _handle_apply_dml(self, channel: MessageChannel, message: Message,
                          request: dict, conn: dict) -> None:
        job = self._job(request["job_id"])
        applied = job.pipeline.journal.applied
        if applied is not None:
            # Committed before a resume: the DML never runs twice.
            channel.send(Message(MessageKind.APPLY_RESULT, applied))
            return
        # Acquisition ends once the pipeline has fully drained into the
        # staging table (upload + in-cloud COPY included).
        job.pipeline.drain()
        job.acquisition_watch.stop()
        job.metrics.acquisition_s = job.acquisition_watch.elapsed
        job.metrics.sessions = max(
            job.metrics.sessions, len(job.sessions_seen))

        # A drifted batch under route-to-error never reaches Beta: its
        # DML references columns the (un-evolved) target does not have.
        if job.stream_route_error:
            with job.application_watch, \
                    self.obs.stage_seconds.labels(stage="apply").time():
                summary = self._stream_route_batch(job)
            self._record_apply_result(channel, job, summary)
            return

        # The dq precheck sits between acquisition and APPLY: one
        # aggregated rule pass + violation routing, so Beta's split
        # cascade only ever sees unexpected errors.  Its cost counts
        # toward the application phase.
        if job.dq is not None:
            with job.application_watch:
                job.dq.update_chunks(dict(job.pipeline.chunk_records))
                job.dq.check_range(
                    0, self._staging_seq_ceiling(job),
                    parent_span=job.span)

        apply_span = self.obs.tracer.span(
            "apply", parent=job.span, job_id=job.job_id,
            target=job.target)

        def run_apply():
            # The ``dml.apply`` injection point fires *before* Beta
            # dispatches any DML, so an absorbed transient fault never
            # retries a partially applied statement sequence.
            self.faults.fire("dml.apply", job_id=job.job_id)
            return self.beta.apply_dml(
                sql=request["sql"],
                layout=job.layout,
                staging_table=job.staging_table,
                target_table=job.target,
                et_table=job.et_table,
                uv_table=job.uv_table,
                chunk_records=job.pipeline.chunk_records,
                acquisition_errors=job.pipeline.acquisition_errors,
                max_errors=request["max_errors"],
                max_retries=request["max_retries"],
                span=apply_span, job_id=job.job_id,
            )

        self.obs.flight.record(job.job_id, "apply_started")
        try:
            with job.application_watch, \
                    self.obs.stage_seconds.labels(stage="apply").time():
                summary = guarded_call(
                    "dml.apply", run_apply, retry=self.retry,
                    breakers=self.breakers, obs=self.obs,
                    parent=apply_span, job_id=job.job_id)
        except BaseException:
            apply_span.end("error")
            raise
        apply_span.set_attribute("rows_inserted", summary.rows_inserted)
        apply_span.end()
        self._record_apply_result(channel, job, summary)

    def _staging_seq_ceiling(self, job: _LoadJob) -> int:
        """Inclusive ``__SEQ`` upper bound covering every staged chunk."""
        chunks = job.pipeline.chunk_records
        return (1 + max(chunks, default=0)) * self.config.seq_stride - 1

    def _note_dq_job(self, job: _LoadJob) -> None:
        """Fold a finished job's dq summary into the node accumulator."""
        summary = job.dq.summary()
        summary["job_id"] = job.job_id
        summary["target"] = job.target
        with self._registry_lock:
            totals = self._dq_totals
            totals["jobs_checked"] += 1
            totals["checked"] += summary["checked"]
            totals["routed_rows"] += summary["routed_rows"]
            for rule_id, count in summary["violations"].items():
                totals["violations"][rule_id] = \
                    totals["violations"].get(rule_id, 0) + count
            self._dq_jobs.append(summary)
            del self._dq_jobs[:-64]

    def _record_apply_result(self, channel: MessageChannel,
                             job: _LoadJob, summary) -> None:
        """Fold an ApplySummary into job metrics and answer the client."""
        job.metrics.application_s = job.application_watch.elapsed
        job.metrics.rows_inserted = summary.rows_inserted
        job.metrics.rows_updated = summary.rows_updated
        job.metrics.rows_deleted = summary.rows_deleted
        job.metrics.et_errors = summary.et_errors
        job.metrics.uv_errors = summary.uv_errors
        job.metrics.dml_statements = summary.statements
        job.metrics.chunk_retries = summary.splits
        result_meta = {
            "rows_inserted": summary.rows_inserted,
            "rows_updated": summary.rows_updated,
            "rows_deleted": summary.rows_deleted,
            "et_errors": summary.et_errors,
            "uv_errors": summary.uv_errors,
        }
        if job.dq is not None:
            dq_summary = job.dq.summary()
            job.metrics.dq_checked = dq_summary["checked"]
            job.metrics.dq_violations = sum(
                dq_summary["violations"].values())
            job.metrics.dq_routed_rows = dq_summary["routed_rows"]
            result_meta["dq_violations"] = job.metrics.dq_violations
            result_meta["dq_routed_rows"] = job.metrics.dq_routed_rows
            self._note_dq_job(job)
        # Exactly-once hinge: the commit record — the feed watermark, or
        # the job journal's ``applied`` record a resume answers with as
        # ``committed`` — is durable BEFORE the reply leaves the node.
        if job.stream is not None:
            self._stream_commit(job, summary, result_meta)
        else:
            job.pipeline.journal.record_applied(result_meta)
        self.obs.flight.record(
            job.job_id, "apply_finished",
            rows_inserted=summary.rows_inserted,
            et_errors=summary.et_errors, uv_errors=summary.uv_errors,
            splits=summary.splits,
            dq_routed=job.metrics.dq_routed_rows)
        channel.send(Message(MessageKind.APPLY_RESULT, result_meta))

    def _abort_load_job(self, job: _LoadJob,
                        event: str = "aborted") -> None:
        """Tear down a failed/abandoned load and free its pool slot.

        Unlike END_LOAD proper, restartable state survives: the staging
        table, the uploaded store prefix, and the checkpoint journal in
        the staging directory all stay put so a ``resume=True`` restart
        of the same job_id can pick up the durable work.  Idempotent,
        and a no-op when the registered job is not ``job`` (a resume
        restart already replaced it).
        """
        with self._registry_lock:
            if self._jobs.get(job.job_id) is not job:
                return
        # Quiesce *before* unregistering: once the job leaves the
        # registry a resume restart can no longer find (and stop) it,
        # so its lanes must already be idle — the restart replays the
        # journal and must see every record the old pipeline writes.
        # Already-submitted chunks reach durable state first, for a
        # ``resume`` restart.
        job.pipeline.quiesce()
        with self._registry_lock:
            if self._jobs.get(job.job_id) is not job:
                # A resume restart replaced the job while we quiesced —
                # it did its own takeover; nothing left to release.
                return
            self._jobs.pop(job.job_id)
        if job.stream is not None:
            feed = job.stream
            with feed.lock:
                committed = job.batch["batch_seq"] <= feed.committed_seq
                if not committed:
                    feed.parked = (job.job_id, job.staging_dir)
            if committed:
                # Only its END_LOAD was lost: no replay resumes it (the
                # watermark fast-skips the batch), so finish the
                # clean-up here.  The staging table is the next BEGIN's
                # to empty.
                self._discard_job_state(job.job_id, job.staging_dir)
            self._release_live(feed, job.job_id)
        job.span.end("error")
        job.total_watch.stop()
        job.metrics.total_s = job.total_watch.elapsed
        self.obs.jobs_total.labels(event=event).inc()
        self.obs.slo.record_job(job.metrics.pool, job.metrics.total_s,
                                ok=False)
        self.obs.flight.record(job.job_id, event)
        self._dump_flight(job, reason=event)
        self.wlm.release(job.ticket)
        log.info("load job %s", event, extra={
            "job_id": job.job_id, "target": job.target})

    def _dump_flight(self, job: _LoadJob, reason: str) -> None:
        """Write the post-mortem bundle for a dead job, best-effort.

        The bundle pairs the job's flight-recorder events with every
        span of its trace (matched by trace id, falling back to the
        ``job_id`` span attribute when tracing ran unsampled) and a
        metrics snapshot.
        """
        if not (self.obs.flight.enabled and self.obs.flight.dump_dir):
            return
        trace_id = getattr(job.span, "trace_id", 0)
        spans = [r for r in self.obs.tracer.records()
                 if (trace_id and r.get("trace_id") == trace_id)
                 or r.get("attrs", {}).get("job_id") == job.job_id]
        self.obs.flight.dump(job.job_id, spans=spans,
                             metrics=job.metrics.as_row(), reason=reason)

    def _handle_end_load(self, channel: MessageChannel, message: Message,
                         request: dict, conn: dict) -> None:
        job_id = request["job_id"]
        with self._registry_lock:
            job = self._jobs.get(job_id)
        conn["loads"].pop(job_id, None)
        if request["stream_end"]:
            # Feed close rides END_LOAD; its job_id names the feed.
            self._close_stream_feed(job_id)
        elif job is not None and request["abort"]:
            # The client gave up on the job (failed apply, exhausted
            # data-session retries, ...): release the admission slot
            # now, keep the checkpointed state for a restart.
            self._abort_load_job(job)
        elif job is not None:
            self._complete_load_job(job)
        # else nothing is left to end: a feed batch that fast-skipped as
        # ``committed`` made no job, and an ended or aborted one is gone.
        channel.send(Message(MessageKind.END_LOAD_OK))

    def _complete_load_job(self, job: _LoadJob) -> None:
        """END_LOAD proper: tear the job down and account for it."""
        job_id = job.job_id
        job.pipeline.shutdown()
        if job.stream is None:
            self.engine.execute(
                f"DROP TABLE IF EXISTS {job.staging_table}")
        else:
            # The feed's staging table outlives the batch: empty it (one
            # O(1) statement) and hand it to the next BEGIN.
            self.engine.execute(n.Delete(n.TableRef(job.staging_table)))
            self._release_live(job.stream, job_id)
        self._discard_job_state(job_id, job.staging_dir)
        job.total_watch.stop()
        job.metrics.total_s = job.total_watch.elapsed
        metrics = job.metrics
        self.obs.job_phase_seconds.labels(phase="total").observe(
            metrics.total_s)
        self.obs.job_phase_seconds.labels(phase="acquisition").observe(
            metrics.acquisition_s)
        self.obs.job_phase_seconds.labels(phase="application").observe(
            metrics.application_s)
        self.obs.jobs_total.labels(event="completed").inc()
        self.obs.slo.record_job(metrics.pool, metrics.total_s, ok=True)
        self.obs.flight.record(
            job_id, "completed", total_s=round(metrics.total_s, 4),
            rows_inserted=metrics.rows_inserted)
        job.span.set_attribute("total_s", round(metrics.total_s, 6))
        job.span.end()
        log.info("load job completed", extra={
            "job_id": job_id, "target": job.target,
            "total_s": round(metrics.total_s, 4),
            "rows_inserted": metrics.rows_inserted,
            "et_errors": metrics.et_errors,
            "uv_errors": metrics.uv_errors})
        with self._registry_lock:
            self._jobs.pop(job_id, None)
            self.completed_jobs.append(job.metrics)
            totals = self._completed_totals
            totals["jobs"] += 1
            totals["rows"] += job.metrics.rows_inserted
            totals["bytes"] += job.metrics.bytes_received
        # The pool slot frees only after every trace of the job is gone,
        # so admission really does bound concurrent resource footprints.
        self.wlm.release(job.ticket)

    # -- export jobs ------------------------------------------------------------------------

    def _handle_begin_export(self, channel: MessageChannel,
                             message: Message, request: dict,
                             conn: dict) -> None:
        job_id, sessions = request["job_id"], request["sessions"]
        threading.current_thread().name = f"{self.name}-job-{job_id}-ctl"
        pool = self._classify(request["tenant"], conn)
        remote_ctx = request[TRACEPARENT_KEY]
        ticket = self.wlm.admit(pool, job_id, kind="export",
                                parent_span=remote_ctx)
        export_span = self.obs.tracer.span(
            "export", parent=remote_ctx, job_id=job_id,
            **({"pool": pool} if pool else {}))
        try:
            cdw_sql = transpile(request["sql"], "legacy", "cdw")
            # The job's output format is the EXPORT_DATA body encoding.
            cursor = TdfCursor(
                self.engine, cdw_sql,
                chunk_rows=self.config.export_chunk_rows,
                prefetch=max(self.config.prefetch_packets, sessions),
                format_spec=request["format"])
        except BaseException:
            export_span.end("error")
            self.wlm.release(ticket)
            raise
        job = _ExportJob(
            job_id=job_id, cursor=cursor, span=export_span, ticket=ticket,
            eof_needed=sessions)
        with self._registry_lock:
            self._exports[job_id] = job
        # This control connection owns the export: if it closes before
        # every data session drains, the job is dropped and its
        # admission slot freed.  Only the id is kept — the job (cursor
        # + materialized rows) must die when its last session drains.
        conn["exports"].add(job_id)
        channel.send(Message(MessageKind.BEGIN_EXPORT_OK, {
            "columns": layout_to_wire(cursor.layout)["fields"]}))

    def _export_session_drained(self, job_id: str,
                                session_no: int) -> None:
        """One data session is done with ``job_id`` (EOF or teardown).

        Once every session either saw EOF or closed its connection the
        export is complete: drop it from the registry and free its
        admission slot.  Idempotent per session, no-op for unknown (or
        load) jobs.
        """
        with self._registry_lock:
            job = self._exports.get(job_id)
            if job is None:
                return
            job.eof_seen.add(session_no)
            done = len(job.eof_seen) >= job.eof_needed
            if done:
                self._exports.pop(job_id, None)
        if done:
            job.span.end()
            self.wlm.release(job.ticket)

    def _drop_export(self, job_id: str) -> None:
        """Abandon an export whose owning connection vanished (no-op
        for one that already drained)."""
        with self._registry_lock:
            job = self._exports.pop(job_id, None)
        if job is not None:
            # Undrained: the prefetch thread is still holding the rows.
            job.cursor.close()
            job.span.end("error")
            self.wlm.release(job.ticket)

    def _handle_export_fetch(self, channel: MessageChannel,
                             message: Message, request: dict,
                             conn: dict) -> None:
        with self._registry_lock:
            job = self._exports.get(request["job_id"])
        if job is None:
            raise ProtocolError(
                f"unknown export job {request['job_id']!r}")
        cursor, chunk_no = job.cursor, request["chunk_no"]
        block = cursor.packet(chunk_no)
        if block is None:
            self._export_session_drained(job.job_id, request["session_no"])
            channel.send(Message(MessageKind.EXPORT_DATA,
                                 {"chunk_no": chunk_no, "eof": True}))
            return
        # Already the legacy records in the job's format (Section 4).
        records = min(cursor.chunk_rows,
                      cursor.total_rows - chunk_no * cursor.chunk_rows)
        channel.send(Message(
            MessageKind.EXPORT_DATA,
            {"chunk_no": chunk_no, "eof": False, "records": records},
            body=block))
