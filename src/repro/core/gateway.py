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
from collections import deque

from repro.cdw.bulkloader import CloudBulkLoader
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.beta import Beta
from repro.core.config import HyperQConfig
from repro.core.credits import CreditManager
from repro.core.frontend import ThreadedFrontend
from repro.core.jobs import ExportJob, LoadJob
from repro.core.metrics import JobMetrics
from repro.core.pipeline import PipelineWorkerPool
from repro.core.tdfcursor import TdfCursor
from repro.dq import DqProfile
from repro.errors import GatewayError, ProtocolError
from repro.faults import FaultInjector, FaultyEndpoint
from repro.obs import Observability, configure_logging, get_logger
from repro.resilience import CircuitBreakerRegistry, RetryPolicy
from repro.wlm import WorkloadManager
from repro.legacy.datafmt import FormatSpec, make_format
from repro.legacy.protocol import (
    TRACEPARENT_KEY, Message, MessageChannel, MessageKind, layout_to_wire,
    result_reply, serve_request,
)
from repro.net import Listener
from repro.sqlxc import to_cdw, transpile
from repro.sqlxc.parser import parse_statement
# _FEED_COMPACT_EVERY: the feed journal's compaction period, also read
# from here by tests/stream.
from repro.stream.feed import _FEED_COMPACT_EVERY, StreamFeed  # noqa: F401

__all__ = ["HyperQNode"]

log = get_logger("gateway")

#: how many finished jobs' metrics the node keeps (the totals in
#: :meth:`HyperQNode.stats` keep counting past it).
_COMPLETED_JOBS_WINDOW = 1024


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
        if engine.on_kernel_decline is None:
            engine.on_kernel_decline = (
                lambda kernel: self.obs.engine_kernel_declines
                .labels(kernel=kernel).inc())
            for kernel in engine.kernel_declines:       # exposed at zero
                self.obs.engine_kernel_declines.labels(kernel=kernel)
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
        #: job against (target table, WLM pool), and their per-job
        #: accounting (stats()["dq"]).  Empty profile = the precheck
        #: never runs.
        self.dq_profile = DqProfile.from_profile(self.config.dq_profile)
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
        self._jobs: dict[str, LoadJob] = {}
        self._exports: dict[str, ExportJob] = {}
        #: continuous-ingestion feeds by name (repro.stream).
        self._streams: dict[str, StreamFeed] = {}
        #: a closed feed's parked batch, until the feed reopens.
        self._parked_batches: dict[str, LoadJob] = {}
        self._registry_lock = threading.Lock()
        #: metrics of the most recently finished jobs, in completion
        #: order (bench harness) — a window, so a feed of micro-batches
        #: cannot grow the node; the totals count every job ever
        #: finished.
        self.completed_jobs: deque[JobMetrics] = deque(
            maxlen=_COMPLETED_JOBS_WINDOW)
        self._completed_totals = {"jobs": 0, "rows": 0, "bytes": 0}
        #: the connection-handling front end, created at start().
        self.frontend: ThreadedFrontend | None = None
        #: the node's one stage-task pool, shared by every pipeline on
        #: the node.
        self._pipeline_pool: PipelineWorkerPool | None = None

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "HyperQNode":
        """Start the front end; returns self for chaining."""
        self._pipeline_pool = PipelineWorkerPool(
            workers=self.config.converters + self.config.filewriters + 1,
            name=self.name)
        self.frontend = ThreadedFrontend(
            self, self.listener, name=self.name,
            max_connections=self.config.max_connections,
            obs=self.obs).start()
        return self

    def stop(self) -> None:
        """Stop the node: end every load job (``abandoned``), export
        and feed (``feed_quiesced``) through its end method, before the
        pipeline pool they run on and the telemetry they emit close."""
        if self.frontend is not None:
            self.frontend.stop()
        self.listener.close()
        with self._registry_lock:
            jobs = list(self._jobs.values())
            exports = list(self._exports.values())
        for job in jobs:
            job.end("abandoned")
        for export in exports:
            export.end(ok=False)
        with self._registry_lock:
            feeds = list(self._streams.values())
        for feed in feeds:
            feed.close("feed_quiesced")
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
            feeds = list(self._streams.values())
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
            "engine_kernel_declines": dict(self.engine.kernel_declines),
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
            "dq": self.dq_profile.snapshot(),
            "streams": {feed.name: feed.snapshot() for feed in feeds},
            "slo": self.obs.slo.snapshot(),
            "flight": {
                "enabled": self.obs.flight.enabled,
                "jobs_recorded": len(self.obs.flight.jobs()),
                "dump_dir": self.obs.flight.dump_dir,
            },
        }

    def _storage_snapshot(self) -> dict:
        """stats()["storage"]: per-table rows and column-buffer bytes.

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

        A *data* session that closes before its EOF is done with its
        export, which then ends with ``error``; jobs begun on a dying
        *control* connection end — ``abandoned`` loads, failed exports —
        and free their admission slots, so crashed clients cannot brick
        the pool, while a load's restartable state (staging table, store
        prefix, checkpoint journal) survives for a ``resume`` restart.
        """
        export = self._registered(self._exports, conn.get("job_id"))
        if export is not None:
            export.session_done(conn["session_no"], eof=False)
        for job in list(conn["loads"].values()):
            job.end("abandoned")
        for job_id in conn["exports"]:
            export = self._registered(self._exports, job_id)
            if export is not None:
                export.end(ok=False)

    # Request handlers: serve_request passes each the checked request.

    def _handle_logon(self, channel: MessageChannel, message: Message,
                      request: dict, conn: dict) -> None:
        """Record the session identity and name the handler thread.

        Data-session LOGONs carry the job they serve, so the handler
        thread is renamed ``<node>-job-<id>-s<n>`` — a hung or
        credit-starved load is then visible directly in a thread dump;
        a feed's kept data session is ``<node>-feed-<name>-s<n>``.
        """
        conn["user"] = request["user"]
        job_id, feed = request["job_id"], request["feed"]
        if job_id:
            # Remember which job/session this data connection serves so
            # its teardown can be attributed (export EOF accounting).
            conn["job_id"] = job_id
            conn["session_no"] = request["session_no"]
            threading.current_thread().name = (
                f"{self.name}-job-{job_id}"
                f"-s{conn['session_no']}")
        elif feed:
            # A feed's data session serves each of its batches in turn.
            threading.current_thread().name = (
                f"{self.name}-feed-{feed}-s{request['session_no']}")
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

    def _registered(self, registry: dict, key: str):
        """``registry[key]`` (an export or a feed), or None."""
        with self._registry_lock:
            return registry.get(key)

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
        if request["stream"] is None:
            # Admission control happens before ANY job state is
            # created, so a shed request leaves nothing behind — the
            # client just sees WLM_THROTTLED and retries the whole
            # BEGIN_LOAD later.  The admission and job spans parent to
            # the client's trace, if any.
            pool = self._classify(request["tenant"], conn, target=target)
            ticket = self.wlm.admit(pool, job_id, kind="load",
                                    parent_span=request[TRACEPARENT_KEY])
            try:
                reply = LoadJob(self, request, conn, pool,
                                ticket).begin_reply
            except BaseException:
                self.wlm.release(ticket)
                raise
        else:
            # A micro-batch rides its feed's admission (one slot across
            # all cycles), and the feed's durable watermark decides
            # whether it already committed.
            reply = self._stream_feed(request, conn).begin_batch(
                request, conn)
        channel.send(Message(MessageKind.BEGIN_LOAD_OK, reply))

    def _stream_feed(self, request: dict, conn: dict) -> StreamFeed:
        """Get or open the feed of a stream batch.  Its watermark dir:
        ``config.stream_profile``'s, then the client's, then (tests
        only) one in the node's staging area."""
        stream, target = request["stream"], request["target"]
        name = stream["feed"]
        feed = self._registered(self._streams, name)
        if feed is None:
            profile = self.config.stream_profile or {}
            return StreamFeed.open(
                self, name, target,
                policy=(stream["drift_policy"]
                        or profile.get("drift_policy") or "evolve"),
                watermark_dir=(profile.get("watermark_dir")
                               or stream["watermark_dir"]
                               or os.path.join(self._base_dir, "streams")),
                layout=request["layout"],
                pool=self._classify(request["tenant"], conn, target=target))
        if feed.target != target:
            raise GatewayError(
                f"stream feed {name!r} is bound to "
                f"{feed.target!r}, not {target!r}")
        return feed

    # Job-bound handlers: serve_request passes each the job whose state
    # took the request (protocol.TRANSITIONS).

    def _handle_data(self, channel: MessageChannel, message: Message,
                     request: dict, conn: dict, job: LoadJob) -> None:
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
                         request: dict, conn: dict, job: LoadJob) -> None:
        channel.send(Message(MessageKind.DATA_ACK, {"seq": -1}))

    def _handle_apply_dml(self, channel: MessageChannel, message: Message,
                          request: dict, conn: dict, job: LoadJob) -> None:
        channel.send(Message(MessageKind.APPLY_RESULT, job.apply(request)))

    def _handle_end_load(self, channel: MessageChannel, message: Message,
                         request: dict, conn: dict,
                         job: LoadJob | None) -> None:
        job_id = request["job_id"]
        conn["loads"].pop(job_id, None)
        if request["stream_end"]:
            # Feed close rides END_LOAD; its job_id names the feed.
            feed = self._registered(self._streams, job_id)
            if feed is not None:
                feed.close("feed_closed")
        elif job is not None:
            # No job is left for a feed batch that fast-skipped as
            # ``committed``, nor for one that already ended.
            job.end("aborted" if request["abort"] else "completed")
        channel.send(Message(MessageKind.END_LOAD_OK))

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
        job = ExportJob(
            node=self, job_id=job_id, cursor=cursor, span=export_span,
            ticket=ticket, sessions=sessions)
        with self._registry_lock:
            self._exports[job_id] = job
        # This control connection owns the export.  Only the id is
        # kept: the job (cursor + rows) dies when its last session does.
        conn["exports"].add(job_id)
        channel.send(Message(MessageKind.BEGIN_EXPORT_OK, {
            "columns": layout_to_wire(cursor.layout)["fields"]}))

    def _handle_export_fetch(self, channel: MessageChannel,
                             message: Message, request: dict,
                             conn: dict) -> None:
        job = self._registered(self._exports, request["job_id"])
        if job is None:
            raise ProtocolError(
                f"unknown export job {request['job_id']!r}")
        cursor, chunk_no = job.cursor, request["chunk_no"]
        block = cursor.packet(chunk_no)
        if block is None:
            job.session_done(request["session_no"], eof=True)
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
