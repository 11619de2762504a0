"""The legacy EDW wire protocol: frame format, message kinds, Coalescer.

The protocol is *synchronous and chunked*: the client sends one request and
waits for the matching response; during data acquisition each DATA message
must be acknowledged before the next is sent (Section 5: "ETL clients
typically use a synchronous protocol requiring an acknowledgment of one
chunk before sending the next").

Frame layout (little-endian)::

    u16  magic  (0x4C50, "LP")
    u16  kind   (MessageKind)
    u32  meta length
    u32  body length
    ...  meta  — UTF-8 JSON object with the structured fields
    ...  body  — raw bytes (encoded records for DATA / RESULT_SET / ...)

The :class:`Coalescer` reassembles complete frames from the arbitrary byte
chunks a transport delivers — it is the component of the same name in
Figure 2(a), and is used both by the reference legacy server and by
Hyper-Q's Alpha listener.

The protocol is also data: :data:`REQUESTS` has one row per request
kind and :data:`REPLY_KEYS` the keys of each reply.  Both servers serve
every frame through :func:`serve_request`, which checks it against its
row once, before any job state exists, then calls ``_handle_<kind>``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator

from repro.errors import (
    ConnectionLimited, ProtocolError, ReproError, TransportClosed,
    WlmThrottled,
)
from repro.legacy.datafmt import BinaryFormat, FormatSpec
from repro.legacy.infer import infer_result_layout
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.net import Endpoint
from repro.obs import get_logger
from repro.obs.trace import SpanContext

__all__ = ["MessageKind", "Message", "Coalescer", "MessageChannel",
           "TRACEPARENT_KEY", "REQUESTS", "REPLY_KEYS", "STREAM", "Request",
           "serve_request", "error_reply", "result_reply", "expect_data",
           "layout_from_wire", "layout_to_wire"]

log = get_logger("legacy.protocol")

#: metadata key carrying the W3C-traceparent-style trace context on
#: BEGIN_LOAD / APPLY_DML / BEGIN_EXPORT requests (and echoed on WLM
#: throttle replies), stitching client and gateway spans into one
#: end-to-end trace.
TRACEPARENT_KEY = "traceparent"

_MAGIC = 0x4C50
_HEADER = struct.Struct("<HHII")


class MessageKind(IntEnum):
    """Every request/response the legacy protocol knows."""

    LOGON = 1
    LOGON_OK = 2
    LOGOFF = 3
    LOGOFF_OK = 4

    SQL_REQUEST = 10       # ad-hoc SQL (DDL, SELECT, singleton DML)
    STMT_OK = 11           # statement succeeded, meta carries row counts
    RESULT_SET = 12        # meta: columns; body: binary-encoded rows
    ERROR = 13             # meta: code + message

    BEGIN_LOAD = 20        # meta: job, target, error tables, layout, format
    BEGIN_LOAD_OK = 21
    DATA = 22              # body: encoded records; meta: session/seq
    DATA_ACK = 23
    DATA_EOF = 24          # a data session finished sending
    APPLY_DML = 25         # meta: sql, label, max_errors/max_retries
    APPLY_RESULT = 26      # meta: activity counts + error counts
    END_LOAD = 27
    END_LOAD_OK = 28

    BEGIN_EXPORT = 30      # meta: select sql, format, sessions
    BEGIN_EXPORT_OK = 31   # meta: columns of the result
    EXPORT_FETCH = 32      # meta: chunk_no requested
    EXPORT_DATA = 33       # body: encoded records; meta: chunk_no, eof


@dataclass
class Message:
    """One protocol frame: a kind, JSON-able metadata, and a raw body."""

    kind: MessageKind
    meta: dict = field(default_factory=dict)
    body: bytes = b""

    def to_bytes(self) -> bytes:
        """Serialize the message as one wire frame."""
        meta_raw = json.dumps(self.meta, separators=(",", ":")).encode()
        header = _HEADER.pack(_MAGIC, int(self.kind),
                              len(meta_raw), len(self.body))
        return header + meta_raw + self.body

    def expect(self, kind: MessageKind) -> "Message":
        """Assert this message has the given kind; raise the peer's error."""
        if self.kind == MessageKind.ERROR and kind != MessageKind.ERROR:
            # WLM shedding and the connection cap are *typed*, transient
            # peer errors: the client's retry loops back off on the
            # server's retry-after hint instead of failing the job.
            meta = self.meta
            code, text = meta.get("code"), str(meta.get("message"))
            if code == WlmThrottled.code:
                raise WlmThrottled(
                    text, pool=meta.get("pool", ""),
                    reason=meta.get("reason", "queue_full"),
                    retry_after_s=float(meta.get("retry_after_s", 0.0)))
            if code == ConnectionLimited.code:
                raise ConnectionLimited(
                    text, limit=int(meta.get("limit", 0)),
                    retry_after_s=float(meta.get("retry_after_s", 1.0)))
            raise ProtocolError(f"peer error {code}: {text}")
        if self.kind != kind:
            raise ProtocolError(
                f"expected {kind.name}, got {self.kind.name}")
        return self

    def set_trace_context(self, span) -> "Message":
        """Stamp a span's context into the metadata (chainable).

        Accepts anything with a ``context`` attribute (a ``Span``, a
        null span, or an existing :class:`SpanContext`); no-ops when
        there is no real context to propagate.
        """
        context = getattr(span, "context", span)
        if isinstance(context, SpanContext) and context.trace_id:
            self.meta[TRACEPARENT_KEY] = context.to_traceparent()
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message({self.kind.name}, meta={self.meta}, "
                f"body={len(self.body)}B)")


class Coalescer:
    """Reassembles complete frames from raw byte chunks.

    Feed it whatever the transport delivers; it buffers partial frames and
    yields :class:`Message` objects as soon as they are complete.
    """

    def __init__(self):
        self._buffer = bytearray()
        #: total raw bytes ever fed (acquisition-rate accounting).
        self.bytes_seen = 0

    def feed(self, data: bytes) -> Iterator[Message]:
        """Consume raw bytes; yield every completed message."""
        self._buffer += data
        self.bytes_seen += len(data)
        while True:
            message = self._try_extract()
            if message is None:
                return
            yield message

    def _try_extract(self) -> Message | None:
        if len(self._buffer) < _HEADER.size:
            return None
        magic, kind, meta_len, body_len = _HEADER.unpack_from(self._buffer)
        if magic != _MAGIC:
            raise ProtocolError(f"bad frame magic 0x{magic:04x}")
        total = _HEADER.size + meta_len + body_len
        if len(self._buffer) < total:
            return None
        meta_raw = bytes(self._buffer[_HEADER.size:_HEADER.size + meta_len])
        body = bytes(self._buffer[_HEADER.size + meta_len:total])
        del self._buffer[:total]
        try:
            meta = json.loads(meta_raw) if meta_raw else {}
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"bad frame metadata: {exc}") from exc
        try:
            message_kind = MessageKind(kind)
        except ValueError as exc:
            raise ProtocolError(f"unknown message kind {kind}") from exc
        return Message(message_kind, meta, body)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


class MessageChannel:
    """A message-granular view over a byte endpoint.

    Wraps an :class:`~repro.net.Endpoint` with a :class:`Coalescer` so
    callers can ``send``/``recv`` whole messages.  Both the legacy client
    and the reference server use it; Hyper-Q's Alpha process uses the
    Coalescer directly so it can also account for raw acquisition bytes.
    """

    def __init__(self, endpoint: Endpoint, timeout: float | None = 30.0):
        self._endpoint = endpoint
        self._coalescer = Coalescer()
        self._ready: list[Message] = []
        self.timeout = timeout

    def send(self, message: Message) -> None:
        """Send one message over the endpoint."""
        self._endpoint.send_bytes(message.to_bytes())

    def recv(self) -> Message:
        """Block until the next complete message arrives."""
        message = self.recv_or_eof()
        if message is None:
            raise TransportClosed("connection closed mid-message")
        return message

    def recv_or_eof(self) -> Message | None:
        """Like :meth:`recv` but returns ``None`` on a clean EOF."""
        while not self._ready:
            chunk = self._endpoint.recv_bytes(timeout=self.timeout)
            if chunk is None:
                if self._coalescer.pending_bytes:
                    raise TransportClosed("connection closed mid-frame")
                return None
            self._ready.extend(self._coalescer.feed(chunk))
        return self._ready.pop(0)

    def request(self, message: Message, expect: MessageKind) -> Message:
        """Send a request and wait for its (typed) response."""
        self.send(message)
        return self.recv().expect(expect)

    def close(self) -> None:
        """Close the underlying endpoint."""
        self._endpoint.close()


# -- the protocol as data ----------------------------------------------------

def layout_to_wire(layout: Layout) -> dict:
    """A layout as BEGIN_LOAD carries it: ``{name, fields: [[n, t]…]}``."""
    return {"name": layout.name,
            "fields": [[f.name, f.type.render()] for f in layout.fields]}


def layout_from_wire(payload: dict) -> Layout:
    """Inverse of :func:`layout_to_wire`."""
    return Layout(payload["name"], [FieldDef(name, parse_type(type_text))
                                    for name, type_text in payload["fields"]])


def _check(test, expected: str):
    """A per-key check: the value itself if ``test`` holds, else raise."""
    def check(value):
        if not test(value):
            raise TypeError(f"expected {expected}")
        return value
    return check


# ``type(v) is int`` keeps JSON true/false out of the integer keys.
_text = _check(lambda v: type(v) is str, "a string")
_name = _check(lambda v: type(v) is str and v, "a non-empty string")
_count = _check(lambda v: type(v) is int and v >= 0, "an integer >= 0")
_positive = _check(lambda v: type(v) is int and v > 0, "an integer >= 1")
_flag = _check(lambda v: type(v) is bool, "true or false")
_number = _check(lambda v: type(v) in (int, float), "a number")
_trace = SpanContext.from_traceparent     # malformed → None, never fails


def _format(value) -> FormatSpec:
    return FormatSpec.from_wire(_text(value)).validate()


class Request:
    """One row of the table: a kind's keys, their checks, its body.

    Each keyword names a key: a bare check makes it required, a
    ``(check, default)`` pair optional.  :attr:`check` is the row
    compiled once: given a frame's meta and body it returns the checked
    request (every declared key, checked or defaulted, nothing else) or
    raises a ``ProtocolError``.
    """

    def __init__(self, name: str, body: bool = False, **keys):
        self.name = name
        self.body = body
        self.required = {k: c for k, c in keys.items()
                         if not isinstance(c, tuple)}
        self.optional = {k: c for k, c in keys.items()
                         if isinstance(c, tuple)}
        required = tuple(self.required.items())
        optional = tuple((k, c, d) for k, (c, d) in self.optional.items())

        def check(meta, frame_body=b"") -> dict:
            if type(meta) is not dict:
                raise ProtocolError(f"{name} metadata must be an object")
            if frame_body and not body:
                raise ProtocolError(f"{name} carries no body")
            request, key = {}, None
            try:
                for key, convert in required:
                    request[key] = convert(meta[key])
                for key, convert, default in optional:
                    value = meta.get(key)
                    request[key] = default if value is None \
                        else convert(value)
            except Exception as exc:
                if key not in meta:
                    raise ProtocolError(
                        f"{name} lacks required key {key!r}") from None
                raise ProtocolError(f"{name} key {key!r}: {exc}") from exc
            return request

        self.check = check


#: BEGIN_LOAD's nested ``stream`` object: one micro-batch of a feed.
STREAM = Request("stream", feed=_name, batch_seq=_count,
                 cursor=(_text, None), event_ts=(_number, None),
                 drift_policy=(_text, None), watermark_dir=(_text, None))

#: every request kind the servers serve, with its metadata schema
#: (``traceparent`` is :data:`TRACEPARENT_KEY`).
REQUESTS: dict[MessageKind, Request] = {
    MessageKind[row.name]: row for row in (
        Request("LOGON", host=(_text, ""), user=(_text, ""),
                password=(_text, ""), job_id=(_name, None),
                session_no=(_count, 0)),
        Request("LOGOFF"),
        Request("SQL_REQUEST", sql=_text),
        Request("BEGIN_LOAD", job_id=_name, target=_name, et_table=_name,
                uv_table=_name, layout=layout_from_wire, format=_format,
                sessions=(_count, 0), tenant=(_text, ""),
                resume=(_flag, False), stream=(STREAM.check, None),
                traceparent=(_trace, None)),
        Request("DATA", body=True, job_id=_name, seq=_count,
                session_no=(_count, 0)),
        Request("DATA_EOF", job_id=_name, session_no=(_count, 0)),
        Request("APPLY_DML", job_id=_name, sql=_text,
                max_errors=(_count, None), max_retries=(_count, None),
                traceparent=(_trace, None)),
        Request("END_LOAD", job_id=_name, abort=(_flag, False),
                stream_end=(_flag, False)),
        Request("BEGIN_EXPORT", job_id=_name, sql=_text,
                format=(_format, FormatSpec("binary")),
                sessions=(_positive, 1), tenant=(_text, ""),
                traceparent=(_trace, None)),
        Request("EXPORT_FETCH", job_id=_name, session_no=_count,
                chunk_no=_count),
    )}
_HANDLERS = {kind: f"_handle_{kind.name.lower()}" for kind in REQUESTS}

#: the keys each reply kind carries — declared, not checked at run time.
#: BEGIN_LOAD_OK's ``committed`` is an APPLY_RESULT meta: the job or
#: feed batch already committed, so the client sends no DATA and no
#: APPLY and goes straight to END_LOAD.
REPLY_KEYS: dict[MessageKind, tuple[str, ...]] = {
    MessageKind[name]: keys for name, keys in dict(
        LOGON_OK=(), LOGOFF_OK=(), END_LOAD_OK=(),
        STMT_OK=("activity_count",), RESULT_SET=("columns",),
        BEGIN_EXPORT_OK=("columns",), DATA_ACK=("seq",),
        ERROR=("code", "message", "retry_after_s", "pool", "reason",
               "limit", TRACEPARENT_KEY),
        BEGIN_LOAD_OK=("job_id", "durable_seqs", "committed"),
        APPLY_RESULT=("rows_inserted", "rows_updated", "rows_deleted",
                      "et_errors", "uv_errors", "dq_violations",
                      "dq_routed_rows", "stream"),
        EXPORT_DATA=("chunk_no", "eof", "records"),
    ).items()}


def result_reply(result, binary=BinaryFormat) -> Message:
    """The reply to an SQL_REQUEST: a RESULT_SET of the rows in the
    BINARY record encoding (``binary(layout)`` is the codec), or a
    STMT_OK with the activity count."""
    if result.kind != "rows":
        return Message(MessageKind.STMT_OK,
                       {"activity_count": result.activity_count})
    layout = infer_result_layout(result.columns, result.rows)
    return Message(MessageKind.RESULT_SET,
                   {"columns": layout_to_wire(layout)["fields"]},
                   body=binary(layout).encode_records(result.rows))


def error_reply(exc: ReproError, traceparent=None) -> Message:
    """The one ERROR frame builder: the error's ``code`` (0 when
    untyped) and text, a transient refusal's backoff guidance, and the
    request's ``traceparent`` echoed so the reply stays in its trace."""
    meta = {"code": getattr(exc, "code", 0), "message": str(exc)}
    for key in ("retry_after_s", "pool", "reason", "limit"):
        value = getattr(exc, key, None)
        if value:
            meta[key] = value
    if traceparent and isinstance(traceparent, str):
        meta[TRACEPARENT_KEY] = traceparent
    return Message(MessageKind.ERROR, meta)


def expect_data(job) -> None:
    """The sequence rule both servers keep: a load job takes DATA and
    DATA_EOF only before its APPLY_DML (``job.phase`` ``acquiring``)."""
    if job.phase != "acquiring":
        raise ProtocolError(f"load job {job.job_id!r} is {job.phase}: "
                            "DATA and DATA_EOF come before APPLY_DML")


def serve_request(server, channel, message: Message, conn) -> None:
    """Serve one request frame, for ``HyperQNode`` and ``LegacyServer``.

    Counts it (``server.count_request(kind)``), checks it against its
    :data:`REQUESTS` row and calls ``server._handle_<kind>(channel,
    message, request, conn)`` with the checked request.  Any typed
    failure, the table's or the handler's, becomes one ERROR reply and
    the connection goes on; a dead transport propagates.
    """
    kind = message.kind
    server.count_request(kind)
    try:
        row = REQUESTS.get(kind)
        if row is None:
            raise ProtocolError(f"unexpected message {kind.name}")
        request = row.check(message.meta, message.body)
        getattr(server, _HANDLERS[kind])(channel, message, request, conn)
    except ReproError as exc:
        log.debug("request failed: %s", exc, extra={"kind": kind.name})
        meta = message.meta
        channel.send(error_reply(exc, meta.get(TRACEPARENT_KEY)
                                 if type(meta) is dict else None))
