"""The reference legacy EDW server.

This is the ground-truth implementation of the *legacy* system's observable
behaviour, used in parity tests against Hyper-Q:

- it speaks the legacy wire protocol natively;
- load jobs are processed **tuple-at-a-time**: each staged record is bound
  into the job's DML and applied individually; a record that fails data
  conversion goes to the transformation error table (``_ET``, code 2666 —
  Figure 5b) and a record that violates a uniqueness constraint goes to
  the uniqueness-violation table (``_UV``, code 2794 — Figure 5c), after
  which the job simply proceeds (Section 7: "errors in ETL jobs do not
  result in suspending the job");
- export jobs run the SELECT and serve ordered result chunks.

Internally the server reuses the generic relational machinery (catalog,
expression evaluator) — what defines "legacy" is the wire protocol, the
SQL dialect, and the per-tuple error semantics, all of which live here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cdw.columns import ColumnBlock
from repro.cdw.engine import CdwEngine
from repro.core.frontend import ThreadedFrontend
from repro.errors import (
    BulkExecutionError, CdwError, DataFormatError, ProtocolError, SqlError,
)
from repro.legacy.datafmt import (
    BinaryFormat, FormatSpec, RecordFormat, VartextFormat, make_format,
)
from repro.legacy.infer import infer_column_layout
from repro.legacy.protocol import (
    JobState, Message, MessageChannel, MessageKind, layout_to_wire,
    result_reply, serve_request,
)
from repro.legacy.types import Layout
from repro.net import Listener
from repro.obs import get_logger
from repro.sqlxc.nodes import Insert, Select, Statement
from repro.sqlxc.parser import parse_statement
from repro.sqlxc.rewrites import bind_params_to_values

__all__ = ["LegacyServer", "ET_COLUMNS_SQL", "UV_EXTRA_COLUMNS_SQL"]

log = get_logger("legacy.server")

#: schema of a transformation error table (Figure 5b, plus a message).
ET_COLUMNS_SQL = (
    "SEQNO INT, ERRCODE INT, ERRFIELD VARCHAR(128), ERRMSG VARCHAR(512)")
#: columns appended to the target schema for a UV table (Figure 5c).
UV_EXTRA_COLUMNS_SQL = "SEQNO INT, ERRCODE INT"

_UV_CODE = 2794
_ET_CODE = 2666


@dataclass
class _LoadJob:
    job_id: str
    target: str
    et_table: str
    uv_table: str
    layout: Layout
    format_spec: FormatSpec
    chunks: dict[int, bytes] = field(default_factory=dict)
    #: where the job is in its lifecycle (``protocol.TRANSITIONS``).
    state: JobState = JobState.ACQUIRING
    #: the APPLY_RESULT meta a repeat APPLY_DML answers.
    result: dict | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _ExportJob:
    job_id: str
    #: the result's rows, a block per EXPORT_DATA body.
    chunks: list[ColumnBlock]
    #: the job's output format: encodes every EXPORT_DATA body.
    record_format: RecordFormat


class LegacyServer:
    """A reference legacy EDW node: listener plus native ETL semantics."""

    def __init__(self, chunk_rows: int = 1000, mtu: int | None = None,
                 listener=None):
        self.engine = CdwEngine(native_unique=True)
        self.listener = listener if listener is not None \
            else Listener(mtu=mtu)
        self.chunk_rows = chunk_rows
        self._jobs: dict[str, _LoadJob] = {}
        self._exports: dict[str, _ExportJob] = {}
        self._jobs_lock = threading.Lock()
        self.frontend: ThreadedFrontend | None = None
        #: dispatch counters by message kind (monitoring parity with
        #: ``HyperQNode.stats()``).
        self._message_counts: dict[str, int] = {}
        self._connections = 0
        self._jobs_completed = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "LegacyServer":
        """Start the front end; returns self for chaining."""
        self.frontend = ThreadedFrontend(
            self, self.listener, name="legacy-server")
        self.frontend.start()
        return self

    def stop(self) -> None:
        """Stop accepting connections."""
        if self.frontend is not None:
            self.frontend.stop()
        self.listener.close()

    def __enter__(self) -> "LegacyServer":
        """Context-manager support: starts the server."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the server on context exit."""
        self.stop()

    def connect(self):
        """Client-side connection factory (pass to the ETL client)."""
        return self.listener.connect()

    def stats(self) -> dict:
        """Operational snapshot (monitoring parity with Hyper-Q)."""
        with self._jobs_lock:
            return {
                "active_jobs": len(self._jobs),
                "active_exports": len(self._exports),
                "completed_jobs": self._jobs_completed,
                "connections": self._connections,
                "messages": dict(self._message_counts),
            }

    # -- connection handling (driven by ThreadedFrontend) -------------------------

    def new_conn(self) -> dict:
        """Session contract: per-connection state (none needed here
        beyond the running total the stats snapshot reports)."""
        with self._jobs_lock:
            self._connections += 1
        log.debug("legacy connection opened")
        return {}

    def wrap_endpoint(self, endpoint):
        """Session contract: no chaos instrumentation on the reference."""
        return endpoint

    def connection_closed(self, conn: dict) -> None:
        """Session contract: jobs survive their connection here (the
        reference node has no admission slots to reclaim)."""
        log.debug("legacy connection closed")

    #: the session contract's per-frame entry point, the gateway's own.
    handle_message = serve_request

    def count_request(self, kind: MessageKind) -> None:
        """Count one served frame (``stats()["messages"]``)."""
        with self._jobs_lock:
            self._message_counts[kind.name] = \
                self._message_counts.get(kind.name, 0) + 1

    # Request handlers: serve_request passes each the checked request.

    def _handle_logon(self, channel: MessageChannel, message: Message,
                      request: dict, conn: dict) -> None:
        channel.send(Message(MessageKind.LOGON_OK))

    def _handle_logoff(self, channel: MessageChannel, message: Message,
                       request: dict, conn: dict) -> None:
        channel.send(Message(MessageKind.LOGOFF_OK))

    # -- ad-hoc SQL --------------------------------------------------------------------

    def _handle_sql_request(self, channel: MessageChannel,
                            message: Message, request: dict,
                            conn: dict) -> None:
        channel.send(result_reply(self.engine.execute(
            parse_statement(request["sql"], dialect="legacy"))))

    # -- load jobs -------------------------------------------------------------------------

    def _handle_begin_load(self, channel: MessageChannel,
                           message: Message, request: dict,
                           conn: dict) -> None:
        job = _LoadJob(
            job_id=request["job_id"],
            target=request["target"],
            et_table=request["et_table"],
            uv_table=request["uv_table"],
            layout=request["layout"],
            format_spec=request["format"],
        )
        self._create_error_tables(job)
        with self._jobs_lock:
            self._jobs[job.job_id] = job
        log.info("legacy load job started", extra={
            "job_id": job.job_id, "target": job.target})
        channel.send(Message(MessageKind.BEGIN_LOAD_OK,
                             {"job_id": job.job_id}))

    def _create_error_tables(self, job: _LoadJob) -> None:
        self.engine.execute(
            f"CREATE TABLE IF NOT EXISTS {job.et_table} "
            f"({ET_COLUMNS_SQL})")
        target = self.engine.table(job.target)
        uv_columns = ", ".join(
            f"{c.name} {c.ctype.render()}" for c in target.columns)
        self.engine.execute(
            f"CREATE TABLE IF NOT EXISTS {job.uv_table} "
            f"({uv_columns}, {UV_EXTRA_COLUMNS_SQL})")

    def _handle_data(self, channel: MessageChannel, message: Message,
                     request: dict, conn: dict, job: _LoadJob) -> None:
        with job.lock:
            job.chunks[request["seq"]] = message.body
        channel.send(Message(MessageKind.DATA_ACK, {"seq": request["seq"]}))

    def _handle_data_eof(self, channel: MessageChannel, message: Message,
                         request: dict, conn: dict, job: _LoadJob) -> None:
        channel.send(Message(MessageKind.DATA_ACK, {"seq": -1}))

    # Tuple-at-a-time application: the defining legacy behaviour. ----------

    def _handle_apply_dml(self, channel: MessageChannel, message: Message,
                          request: dict, conn: dict, job: _LoadJob) -> None:
        with job.lock:
            ordered = [job.chunks[k] for k in sorted(job.chunks)]
        if job.state is JobState.COMMITTED:     # a repeat: the DML ran once
            channel.send(Message(MessageKind.APPLY_RESULT, job.result))
            return
        template = parse_statement(request["sql"], dialect="legacy")
        fmt = make_format(job.format_spec, job.layout)
        field_names = job.layout.field_names

        inserted = updated = deleted = 0
        et_errors = uv_errors = 0
        rownum = 0
        for chunk in ordered:
            for item in fmt.iter_decode(chunk):
                rownum += 1
                if isinstance(item, DataFormatError):
                    self._record_et(job, rownum, item.code,
                                    item.field, str(item))
                    et_errors += 1
                    continue
                bindings = dict(zip(field_names, item))
                bound = bind_params_to_values(template, bindings)
                try:
                    result = self.engine.execute(bound)
                except BulkExecutionError as exc:
                    if exc.kind == "uniqueness":
                        self._record_uv(job, bound, item, rownum)
                        uv_errors += 1
                    else:
                        self._record_et(job, rownum, _ET_CODE,
                                        exc.field, str(exc))
                        et_errors += 1
                    continue
                except (SqlError, CdwError) as exc:
                    self._record_et(job, rownum, _ET_CODE,
                                    getattr(exc, "field", None), str(exc))
                    et_errors += 1
                    continue
                inserted += result.rows_inserted
                updated += result.rows_updated
                deleted += result.rows_deleted
        log.debug("legacy apply done", extra={
            "job_id": job.job_id, "rows_inserted": inserted,
            "et_errors": et_errors, "uv_errors": uv_errors})
        job.result = {
            "rows_inserted": inserted,
            "rows_updated": updated,
            "rows_deleted": deleted,
            "et_errors": et_errors,
            "uv_errors": uv_errors,
        }
        job.state = JobState.COMMITTED
        channel.send(Message(MessageKind.APPLY_RESULT, job.result))

    def _record_et(self, job: _LoadJob, rownum: int, code: int,
                   field_name: str | None, message: str) -> None:
        table = self.engine.table(job.et_table)
        table.append_rows([table.coerce_row(
            (rownum, code, field_name, message[:512]))])

    def _record_uv(self, job: _LoadJob, bound_stmt: Statement,
                   raw_item: tuple, rownum: int) -> None:
        """Record the *converted* violating tuple, like Figure 5c."""
        table = self.engine.table(job.uv_table)
        target = self.engine.table(job.target)
        tuple_values: tuple
        if isinstance(bound_stmt, Insert) and bound_stmt.source is not None:
            # Evaluate the insert's expressions to get the converted tuple
            # (conversion already succeeded — only uniqueness failed).
            from repro.cdw.expressions import RowContext, evaluate
            rows = getattr(bound_stmt.source, "rows", None)
            if rows:
                ctx = RowContext()
                raw = tuple(evaluate(e, ctx) for e in rows[0])
                shaped = self.engine._shape_insert_row(
                    target, bound_stmt.columns, raw)
                tuple_values = target.coerce_row(shaped)
            else:
                tuple_values = tuple([None] * target.arity)
        else:
            tuple_values = tuple([None] * target.arity)
        table.append_rows([table.coerce_row(
            tuple_values + (rownum, _UV_CODE))])

    def _handle_end_load(self, channel: MessageChannel, message: Message,
                         request: dict, conn: dict,
                         job: _LoadJob | None) -> None:
        with self._jobs_lock:
            self._jobs.pop(request["job_id"], None)
            self._jobs_completed += 1
        log.info("legacy load job completed",
                 extra={"job_id": request["job_id"]})
        channel.send(Message(MessageKind.END_LOAD_OK))

    # -- export jobs ---------------------------------------------------------------------------

    def _handle_begin_export(self, channel: MessageChannel,
                             message: Message, request: dict,
                             conn: dict) -> None:
        # The job's output format is the EXPORT_DATA body encoding.
        spec = request["format"]
        statement = parse_statement(request["sql"], dialect="legacy")
        if not isinstance(statement, Select):
            raise ProtocolError("export job needs a SELECT statement")
        result = self.engine.execute(statement)
        block = result.block()
        layout = infer_column_layout(result.columns, block.columns)
        record_format = (VartextFormat(layout, spec.delimiter)
                         if spec.kind == "vartext" else BinaryFormat(layout))
        chunks = [
            block.sub(i, i + self.chunk_rows)
            for i in range(0, len(block), self.chunk_rows)
        ] or [block]
        job = _ExportJob(
            job_id=request["job_id"],
            chunks=chunks,
            record_format=record_format,
        )
        with self._jobs_lock:
            self._exports[job.job_id] = job
        channel.send(Message(MessageKind.BEGIN_EXPORT_OK, {
            "columns": layout_to_wire(layout)["fields"]}))

    def _handle_export_fetch(self, channel: MessageChannel,
                             message: Message, request: dict,
                             conn: dict) -> None:
        with self._jobs_lock:
            job = self._exports.get(request["job_id"])
        if job is None:
            raise ProtocolError(
                f"unknown export job {request['job_id']!r}")
        chunk_no = request["chunk_no"]
        if chunk_no >= len(job.chunks) or (
                chunk_no > 0 and not job.chunks[chunk_no]):
            channel.send(Message(MessageKind.EXPORT_DATA,
                                 {"chunk_no": chunk_no, "eof": True}))
            return
        body = job.record_format.encode_records(job.chunks[chunk_no])
        channel.send(Message(
            MessageKind.EXPORT_DATA,
            {"chunk_no": chunk_no, "eof": False,
             "records": len(job.chunks[chunk_no])},
            body=body))
