"""The legacy ETL client utility.

This module is the stand-in for the proprietary load/export tools of the
legacy EDW (the FastLoad/MultiLoad-style utilities of Section 2).  It is
deliberately *dumb about the backend*: it speaks only the legacy wire
protocol of :mod:`repro.legacy.protocol`, chunks input files on record
boundaries, pumps chunks through parallel data sessions with synchronous
per-chunk acknowledgements, and interprets responses in legacy formats.

Because of that, the exact same client (and therefore the exact same job
script) runs against the reference legacy server and against Hyper-Q — the
transparency property the paper's virtualization approach provides.
"""

from __future__ import annotations

import random
import struct
import threading
import time
import uuid
from dataclasses import dataclass, field

from repro.errors import ProtocolError, TransportClosed, WlmThrottled
from repro.legacy.datafmt import FormatSpec, make_format
from repro.legacy.protocol import (
    Message, MessageChannel, MessageKind, layout_to_wire,
)
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience import (
    CheckpointJournal, RetryPolicy, full_jitter_delay,
)

__all__ = [
    "LegacyEtlClient", "ImportJobSpec", "ExportJobSpec",
    "ImportJobResult", "ExportJobResult", "StatementResult",
    "split_into_chunks",
]


@dataclass
class StatementResult:
    """Outcome of an ad-hoc SQL request."""

    activity_count: int = 0
    columns: list[tuple[str, str]] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)

    @property
    def is_result_set(self) -> bool:
        return bool(self.columns)


@dataclass
class ImportJobSpec:
    """Everything one ``.begin import`` … ``.end load`` block describes."""

    target_table: str
    et_table: str
    uv_table: str
    layout: Layout
    apply_sql: str
    data: bytes
    format_spec: FormatSpec = field(
        default_factory=lambda: FormatSpec("vartext", "|"))
    sessions: int = 2
    chunk_bytes: int = 64 * 1024
    max_errors: int | None = None
    max_retries: int | None = None
    #: data-session checkpoint/restart: how many times a failed session
    #: reconnects and resumes from its last unacknowledged chunk.  The
    #: server side is idempotent, so resending a chunk whose ack was
    #: lost is safe.
    retry_attempts: int = 0
    #: base delay before a session reconnects (full jitter, doubling per
    #: attempt, capped at 32x the base); 0 reconnects immediately.
    reconnect_backoff_s: float = 0.0
    #: stable job identifier — required to restart an interrupted job
    #: against its server-side checkpoint state (default: random).
    job_id: str | None = None
    #: restart an earlier run of ``job_id``: the gateway replays its
    #: checkpoint journal so durable work is not re-done, and this
    #: client skips the chunks the gateway confirms durable (further
    #: narrowed to acks recorded in ``journal_path``, when set).
    resume: bool = False
    #: path of the client-side ack journal (records per-chunk acks so a
    #: whole-process restart knows what this client already sent).
    journal_path: str | None = None
    #: tenant this job runs on behalf of — a workload-managed gateway
    #: classifies the job into a resource pool by it (falls back to the
    #: logon user when empty).
    tenant: str = ""
    #: how many times a WLM_THROTTLED BEGIN is retried before the
    #: throttle propagates to the caller (0 = no admission retry).
    admission_retry_attempts: int = 0
    #: base backoff between admission retries; the server's
    #: retry-after hint floors each delay.
    admission_backoff_s: float = 0.05
    #: continuous-ingestion metadata (repro.stream): a dict with at
    #: least ``feed`` and ``batch_seq``, optionally ``cursor``,
    #: ``event_ts``, ``drift_policy``, and ``watermark_dir``.  When set
    #: the job is one micro-batch of a streaming feed — the gateway may
    #: answer BEGIN_LOAD as ``committed`` (the batch is below the feed's
    #: durable watermark; see :attr:`ImportJobResult.committed`).
    stream: dict | None = None


@dataclass
class ImportJobResult:
    """Job status the server reports after the application phase."""

    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    et_errors: int = 0
    uv_errors: int = 0
    #: rows the declarative data-quality precheck routed to the error
    #: table before application (not counted in ``et_errors``).
    dq_routed_rows: int = 0
    chunks_sent: int = 0
    bytes_sent: int = 0
    #: True when BEGIN_LOAD answered ``committed`` (a replayed job whose
    #: APPLY ran: the counters are its stored result; or a feed batch
    #: below the watermark): no data was sent, no DML ran.
    committed: bool = False
    #: stream info from the server (watermark, accepted drift, lag).
    stream: dict = field(default_factory=dict)

    @property
    def total_errors(self) -> int:
        return self.et_errors + self.uv_errors


@dataclass
class ExportJobSpec:
    """An export job: run a SELECT and dump the result in legacy format."""

    select_sql: str
    format_spec: FormatSpec = field(
        default_factory=lambda: FormatSpec("vartext", "|"))
    sessions: int = 2
    #: tenant this job runs on behalf of (see ImportJobSpec.tenant).
    tenant: str = ""
    #: admission retries for a WLM_THROTTLED BEGIN_EXPORT.
    admission_retry_attempts: int = 0
    #: base backoff between admission retries (server hint floors it).
    admission_backoff_s: float = 0.05


@dataclass
class ExportJobResult:
    """An export's file, exactly as the server encoded it.

    ``data`` is the EXPORT_DATA bodies in chunk order — records in the
    job's ``format_spec`` — and ``rows_exported`` the sum of their
    ``records`` counts; ``columns`` is the result layout as
    ``(name, type)`` pairs.
    """

    data: bytes = b""
    rows_exported: int = 0
    chunks_fetched: int = 0
    columns: list[tuple[str, str]] = field(default_factory=list)


def split_into_chunks(data: bytes, format_spec: FormatSpec,
                      chunk_bytes: int) -> list[bytes]:
    """Split encoded records into chunks on record boundaries."""
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    if format_spec.kind == "vartext":
        return _split_vartext(data, chunk_bytes)
    if format_spec.kind == "binary":
        return _split_binary(data, chunk_bytes)
    raise ProtocolError(f"unknown format {format_spec.kind!r}")


def _split_vartext(data: bytes, chunk_bytes: int) -> list[bytes]:
    chunks: list[bytes] = []
    start = 0
    while start < len(data):
        end = min(start + chunk_bytes, len(data))
        if end < len(data):
            newline = data.rfind(b"\n", start, end)
            if newline < 0:
                # A single record longer than chunk_bytes: extend forward.
                newline = data.find(b"\n", end)
                if newline < 0:
                    newline = len(data) - 1
            end = newline + 1
        chunks.append(data[start:end])
        start = end
    return chunks


def _split_binary(data: bytes, chunk_bytes: int) -> list[bytes]:
    chunks: list[bytes] = []
    start = 0
    pos = 0
    while pos < len(data):
        if pos + 2 > len(data):
            raise ProtocolError("truncated binary record header in input")
        (body_len,) = struct.unpack_from("<H", data, pos)
        record_end = pos + 2 + body_len
        if record_end > len(data):
            raise ProtocolError("truncated binary record in input")
        if record_end - start >= chunk_bytes:
            chunks.append(data[start:record_end])
            start = record_end
        pos = record_end
    if start < len(data):
        chunks.append(data[start:])
    return chunks


def _columns_layout(columns: list[tuple[str, str]]) -> Layout:
    return Layout("__resultset__", [
        FieldDef(name, parse_type(type_text)) for name, type_text in columns
    ])


class LegacyEtlClient:
    """Drives legacy load/export jobs over the legacy wire protocol.

    ``connect`` is any zero-argument callable returning a fresh
    :class:`~repro.net.Endpoint` — typically ``listener.connect`` where the
    listener belongs to either the reference server or a Hyper-Q node.

    Given a ``tracer``, the client opens one ``client.job`` /
    ``client.export`` root span per job and propagates its trace
    context in BEGIN_LOAD / APPLY_DML / BEGIN_EXPORT metadata, so a
    trace-enabled gateway parents its whole span tree under the
    client's — one end-to-end trace across the process boundary.
    """

    def __init__(self, connect, timeout: float | None = 30.0,
                 tracer: Tracer = NULL_TRACER):
        self._connect = connect
        self._timeout = timeout
        self._tracer = tracer
        self._control: MessageChannel | None = None
        self._credentials: tuple[str, str, str] | None = None
        #: a feed's data sessions, logged on at its first batch and kept
        #: for the next: ``(feed, session_no)`` -> channel.
        self._feed_sessions: dict[tuple[str, int], MessageChannel] = {}
        #: jitter source for data-session reconnect backoff.
        self._backoff_rng = random.Random()

    # -- session management --------------------------------------------------

    def logon(self, host: str, user: str, password: str) -> None:
        """Open the control session and authenticate."""
        if self._control is not None:
            raise ProtocolError("already logged on")
        self._credentials = (host, user, password)
        self._control = self._session()

    def logoff(self) -> None:
        """Close every kept feed data session, then the control session
        (idempotent)."""
        self._close_feed_sessions(None)
        if self._control is None:
            return
        try:
            self._control.request(
                Message(MessageKind.LOGOFF), MessageKind.LOGOFF_OK)
        finally:
            self._control.close_both()
            self._control = None

    def _close_feed_sessions(self, feed: str | None) -> None:
        """Close the kept data sessions of ``feed`` (None: of all)."""
        for key in [k for k in self._feed_sessions
                    if feed is None or k[0] == feed]:
            self._feed_sessions.pop(key).close_both()

    def _require_control(self) -> MessageChannel:
        if self._control is None:
            raise ProtocolError("not logged on")
        return self._control

    def _session(self, **data_session) -> MessageChannel:
        """A new connection logged on with this client's credentials;
        a data session adds the ``job_id`` (or ``feed``) and
        ``session_no`` it serves."""
        host, user, password = self._credentials or ("", "", "")
        channel = MessageChannel(self._connect(), timeout=self._timeout)
        try:
            channel.request(
                Message(MessageKind.LOGON, {"host": host, "user": user,
                                            "password": password,
                                            **data_session}),
                MessageKind.LOGON_OK)
        except BaseException:
            channel.close_both()
            raise
        return channel

    # -- ad-hoc SQL ------------------------------------------------------------

    def execute_sql(self, sql: str) -> StatementResult:
        """Run one SQL statement; decode a result set when one comes back."""
        control = self._require_control()
        control.send(Message(MessageKind.SQL_REQUEST, {"sql": sql}))
        response = control.recv()
        if response.kind == MessageKind.STMT_OK:
            return StatementResult(
                activity_count=response.meta.get("activity_count", 0))
        response.expect(MessageKind.RESULT_SET)
        columns = [tuple(c) for c in response.meta["columns"]]
        fmt = make_format(FormatSpec("binary"), _columns_layout(columns))
        rows = fmt.decode_records(response.body)
        return StatementResult(
            activity_count=len(rows), columns=columns, rows=rows)

    # -- import jobs -------------------------------------------------------------

    def _request_admitted(self, control: MessageChannel, message: Message,
                          expect: MessageKind, attempts: int,
                          backoff_s: float) -> Message:
        """Send a BEGIN request, absorbing WLM_THROTTLED with backoff.

        A workload-managed gateway sheds BEGIN requests when the job's
        resource pool is saturated; the shed carries a retry-after hint
        which floors each backoff delay.  Only throttles are retried —
        any other error still surfaces immediately.  The legacy
        utilities behaved exactly this way against a busy EDW: wait,
        retry the logon/begin, eventually give up.
        """
        if attempts <= 0:
            return control.request(message, expect)
        policy = RetryPolicy(
            max_attempts=attempts + 1,
            base_delay_s=backoff_s,
            max_delay_s=max(backoff_s * 32, backoff_s),
            # Size the sleep budget for the worst case of every retry
            # being floored by the server's largest possible hint —
            # otherwise a deeply queued pool could exhaust the budget
            # in a single hinted delay and void the configured retries.
            budget_s=max(attempts * WlmThrottled.MAX_RETRY_AFTER_S,
                         attempts * backoff_s * 32),
            classify=lambda exc: isinstance(exc, WlmThrottled))
        return policy.call(lambda: control.request(message, expect),
                           target="wlm.admit")

    def run_import(self, spec: ImportJobSpec) -> ImportJobResult:
        """Execute a full import job: acquisition then DML application."""
        control = self._require_control()
        job_id = spec.job_id or uuid.uuid4().hex[:12]
        begin_meta = {
            "job_id": job_id,
            "target": spec.target_table,
            "et_table": spec.et_table,
            "uv_table": spec.uv_table,
            "layout": layout_to_wire(spec.layout),
            "format": spec.format_spec.to_wire(),
            "sessions": spec.sessions,
            "tenant": spec.tenant,
            "resume": spec.resume,
            "stream": spec.stream,      # null: a one-shot job
        }
        job_span = self._tracer.span(
            "client.job", job_id=job_id, target=spec.target_table)
        try:
            begun = self._request_admitted(
                control,
                Message(MessageKind.BEGIN_LOAD, begin_meta)
                .set_trace_context(job_span),
                MessageKind.BEGIN_LOAD_OK,
                spec.admission_retry_attempts, spec.admission_backoff_s)

            # ``committed``: the job already committed — a replayed
            # one-shot job whose APPLY ran, or a feed batch below the
            # feed's watermark.  The reply carries the result; there is
            # nothing to pump or apply, only the END_LOAD.
            outcome = begun.meta.get("committed")
            result = ImportJobResult(committed=outcome is not None)
            if outcome is None:
                outcome = self._acquire_and_apply(
                    control, job_id, spec,
                    begun.meta.get("durable_seqs", ()), job_span, result)
            else:
                job_span.set_attribute("committed", True)
            result.rows_inserted = outcome.get("rows_inserted", 0)
            result.rows_updated = outcome.get("rows_updated", 0)
            result.rows_deleted = outcome.get("rows_deleted", 0)
            result.et_errors = outcome.get("et_errors", 0)
            result.uv_errors = outcome.get("uv_errors", 0)
            result.dq_routed_rows = outcome.get("dq_routed_rows", 0)
            result.stream = outcome.get("stream", {})

            control.request(
                Message(MessageKind.END_LOAD, {"job_id": job_id}),
                MessageKind.END_LOAD_OK)
        except BaseException:
            job_span.end("error")
            if spec.stream:
                # A failed batch keeps nothing: the next one logs on anew.
                self._close_feed_sessions(spec.stream["feed"])
            raise
        job_span.end()
        return result

    def _acquire_and_apply(self, control: MessageChannel, job_id: str,
                           spec: ImportJobSpec, durable_seqs, job_span,
                           result: ImportJobResult) -> dict:
        """Pump the job's chunks, then APPLY; the APPLY_RESULT meta.

        On any failure the job is aborted on the server first, so its
        admission slot frees now; checkpointed server state survives
        the abort, so a resume restart still works.  The abort is best
        effort: the failure that got us here is the one the caller must
        see, and a gone control connection releases the slot anyway.
        """
        journal = None
        if spec.journal_path is not None:
            journal = CheckpointJournal(spec.journal_path,
                                        fresh=not spec.resume)
        # Chunks safe to skip on a restarted job: the gateway's reply
        # lists the chunk seqs whose staged data survived (an ack alone
        # is NOT durability under the immediate-ack pipeline).  The
        # local journal narrows that to chunks this client actually saw
        # acknowledged; anything resent unnecessarily is deduplicated
        # server-side, so skipping conservatively is always safe.
        skip_seqs: set[int] = set()
        if spec.resume:
            skip_seqs = set(durable_seqs)
            if journal is not None and journal.acked:
                skip_seqs &= journal.acked
        chunks = split_into_chunks(
            spec.data, spec.format_spec, spec.chunk_bytes)
        result.chunks_sent = len(chunks)
        result.bytes_sent = sum(len(c) for c in chunks)
        try:
            try:
                self._pump_data(
                    job_id, spec.sessions, chunks,
                    retry_attempts=spec.retry_attempts,
                    reconnect_backoff_s=spec.reconnect_backoff_s,
                    journal=journal, skip_seqs=skip_seqs,
                    feed=spec.stream["feed"] if spec.stream else None)
            finally:
                if journal is not None:
                    journal.close()
            # A null limit takes the server's configured default.
            apply_meta = {"job_id": job_id, "sql": spec.apply_sql,
                          "max_errors": spec.max_errors,
                          "max_retries": spec.max_retries}
            return control.request(
                Message(MessageKind.APPLY_DML, apply_meta)
                .set_trace_context(job_span),
                MessageKind.APPLY_RESULT).meta
        except BaseException:
            try:
                control.request(
                    Message(MessageKind.END_LOAD,
                            {"job_id": job_id, "abort": True}),
                    MessageKind.END_LOAD_OK)
            except Exception:
                pass
            raise

    def end_stream(self, feed: str) -> None:
        """Close a streaming feed on the server.

        Rides END_LOAD with ``stream_end`` — the server releases the
        feed's admission slot and closes its watermark journal.  The
        journal itself is durable: reopening the feed later resumes
        from the committed watermark.  The feed's kept data sessions
        close first.
        """
        control = self._require_control()
        self._close_feed_sessions(feed)
        control.request(
            Message(MessageKind.END_LOAD,
                    {"job_id": feed, "stream_end": True}),
            MessageKind.END_LOAD_OK)

    def _pump_data(self, job_id: str, sessions: int,
                   chunks: list[bytes], retry_attempts: int = 0,
                   reconnect_backoff_s: float = 0.0,
                   journal: CheckpointJournal | None = None,
                   skip_seqs: set[int] | None = None,
                   feed: str | None = None) -> None:
        """Send chunks through parallel sessions, one thread per session
        (the first on the calling thread).

        Each session is strictly synchronous (send one DATA, wait for the
        DATA_ACK) exactly like the legacy utilities; parallelism comes only
        from running several sessions at once.  With ``retry_attempts``
        a failed session reconnects — after a jittered exponential
        backoff when ``reconnect_backoff_s`` is set — and *resumes* from
        the first chunk whose acknowledgment it never saw
        (checkpoint/restart).  A ``journal`` records acked chunk seqs as
        they arrive, extending the checkpoint across whole-process
        restarts; ``skip_seqs`` (the server-confirmed durable chunks of
        a resumed job) are not sent at all.

        A ``feed``'s batch sends its chunks on the feed's kept sessions
        (logged on at its first batch) and no DATA_EOF: APPLY_DML is the
        barrier.  A session that fails is closed, not kept, and a
        ``TransportClosed`` on a kept one reconnects under the same
        ``retry_attempts``.
        """
        session_count = max(1, min(sessions, len(chunks)) or 1)
        failures: list[BaseException] = []
        skip = skip_seqs or set()

        def run_session(session_no: int) -> None:
            pending = [seq
                       for seq in range(session_no, len(chunks),
                                        session_count)
                       if seq not in skip]
            attempts_left = retry_attempts
            attempt_no = 0
            position = 0
            while True:
                channel = None
                try:
                    if feed is not None:
                        channel = self._feed_sessions.pop(
                            (feed, session_no), None) or self._session(
                                feed=feed, session_no=session_no)
                    else:
                        channel = self._session(job_id=job_id,
                                                session_no=session_no)
                    while position < len(pending):
                        seq = pending[position]
                        channel.request(
                            Message(MessageKind.DATA,
                                    {"job_id": job_id,
                                     "session_no": session_no,
                                     "seq": seq},
                                    body=chunks[seq]),
                            MessageKind.DATA_ACK)
                        position += 1  # checkpoint: this chunk is acked
                        if journal is not None:
                            journal.record_ack(seq)
                    if feed is not None:
                        # Kept for the feed's next batch.
                        self._feed_sessions[feed, session_no] = channel
                        channel = None
                        return
                    channel.request(
                        Message(MessageKind.DATA_EOF,
                                {"job_id": job_id,
                                 "session_no": session_no}),
                        MessageKind.DATA_ACK)
                    return
                except TransportClosed as exc:
                    if attempts_left <= 0:
                        failures.append(exc)
                        return
                    attempts_left -= 1
                    attempt_no += 1
                    if reconnect_backoff_s > 0:
                        time.sleep(full_jitter_delay(
                            attempt_no, reconnect_backoff_s,
                            reconnect_backoff_s * 32, self._backoff_rng))
                    # reconnect and resend from the unacked chunk
                except BaseException as exc:
                    failures.append(exc)
                    return
                finally:
                    if channel is not None:
                        channel.close_both()

        # Session 0 runs on the calling thread (same failure capture):
        # a single-session micro-batch pays for no thread start and join.
        threads = [
            threading.Thread(target=run_session, args=(i,), daemon=True)
            for i in range(1, session_count)
        ]
        for thread in threads:
            thread.start()
        run_session(0)
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]

    # -- export jobs -------------------------------------------------------------

    def run_export(self, spec: ExportJobSpec) -> ExportJobResult:
        """Execute an export job: SELECT on the server, fetch chunks."""
        control = self._require_control()
        job_id = uuid.uuid4().hex[:12]
        session_count = max(1, spec.sessions)
        begin_meta = {
            "job_id": job_id,
            "sql": spec.select_sql,
            "format": spec.format_spec.to_wire(),
            "sessions": session_count,
        }
        if spec.tenant:
            begin_meta["tenant"] = spec.tenant
        export_span = self._tracer.span("client.export", job_id=job_id)
        try:
            begun = self._request_admitted(
                control,
                Message(MessageKind.BEGIN_EXPORT, begin_meta)
                .set_trace_context(export_span),
                MessageKind.BEGIN_EXPORT_OK,
                spec.admission_retry_attempts, spec.admission_backoff_s)
        except BaseException:
            export_span.end("error")
            raise
        columns = [tuple(c) for c in begun.meta["columns"]]

        # chunk_no -> (records, body in the job's output format).
        collected: dict[int, tuple[int, bytes]] = {}
        lock = threading.Lock()
        failures: list[BaseException] = []

        def run_session(session_no: int) -> None:
            try:
                channel = self._session(job_id=job_id,
                                        session_no=session_no)
                try:
                    chunk_no = session_no
                    while True:
                        response = channel.request(
                            Message(MessageKind.EXPORT_FETCH,
                                    {"job_id": job_id,
                                     "session_no": session_no,
                                     "chunk_no": chunk_no}),
                            MessageKind.EXPORT_DATA)
                        if response.meta.get("eof"):
                            break
                        with lock:
                            collected[chunk_no] = (response.meta["records"],
                                                   response.body)
                        chunk_no += session_count
                finally:
                    channel.close_both()
            except BaseException as exc:
                failures.append(exc)

        threads = [
            threading.Thread(target=run_session, args=(i,), daemon=True)
            for i in range(session_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            export_span.end("error")
            raise failures[0]
        export_span.end()

        # Each body is already records in the job's output format: the
        # file is the bodies in chunk order.
        chunks = [collected[chunk_no] for chunk_no in sorted(collected)]
        return ExportJobResult(
            data=b"".join(body for _, body in chunks),
            rows_exported=sum(records for records, _ in chunks),
            chunks_fetched=len(collected), columns=columns)
