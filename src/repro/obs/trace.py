"""Span-based structured tracing of the virtualization pipeline.

Every unit of work flowing through a Hyper-Q node — a protocol chunk, a
staging file, a DML range — can be wrapped in a :class:`Span`.  Spans
nest: within one thread the tracer keeps an implicit current-span stack,
and across threads (the acquisition pipeline hops session handler →
converter → filewriter → uploader) the parent is passed explicitly, so
one load job yields a tree like::

    job
    ├── receive (chunk 0)          [session handler thread]
    │   ├── credit.acquire
    │   └── convert                [convert lane]
    │       └── write              [writer lane]
    ├── upload (part-00-00000.csv) [upload lane]
    ├── copy
    └── apply
        ├── apply.locate           (located apply: the locate pass)
        └── apply.split …          (adaptive error handler events)

Traces also cross *process* boundaries: a span's :class:`SpanContext`
serializes to a W3C-traceparent-style header
(``00-<trace_id>-<span_id>-<flags>``) that the legacy protocol carries
in BEGIN_LOAD / APPLY_DML / BEGIN_EXPORT metadata, and a tracer given a
``SpanContext`` as ``parent`` continues the remote trace instead of
starting a new root — the client's ``client.job`` span and the
gateway's whole span tree stitch into one end-to-end trace.

Finished spans land in a bounded in-memory ring buffer (oldest dropped
first) and can be exported as JSONL — one object per span with
``trace_id``/``span_id``/``parent_id`` for reconstruction.  An optional
``sink`` callback (see :class:`repro.obs.tracestore.TraceStore`) sees
every record as it closes, and ``on_drop`` fires once per ring-buffer
eviction so drops can be surfaced as a metric.  A disabled tracer hands
out a shared null span; tracing points cost one method call and nothing
else.  ``sample_rate`` < 1.0 drops that fraction of *new roots* (spans
continuing an existing trace or remote context are always kept, so
sampling decisions are made once, at the trace root).
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time

__all__ = [
    "Span", "SpanContext", "Tracer", "NULL_SPAN", "NULL_TRACER",
    "current_span",
]

#: Span/trace ids are drawn from one process-wide counter seeded at a
#: random offset, so ids minted by different processes (the legacy
#: client on one side of the wire, the gateway on the other) do not
#: collide when their spans merge into a single trace.
_ids = itertools.count((random.getrandbits(44) << 18) + 1)


def _next_id() -> int:
    return next(_ids)


#: module-level current-span stack shared by every tracer in the
#: process: log records emitted inside a ``with span:`` block pick up
#: the innermost span's ids regardless of which tracer minted it.
_active = threading.local()


def _active_stack() -> list:
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = _active.stack = []
    return stack


def current_span() -> "Span | None":
    """The calling thread's innermost open span, if any.

    The hook :mod:`repro.obs.logging` uses to stamp ``trace_id`` /
    ``span_id`` onto records emitted inside an active span.
    """
    stack = _active_stack()
    return stack[-1] if stack else None


class SpanContext:
    """The propagatable identity of a span: trace, span, sampling flag.

    Serializes to/from a W3C-traceparent-style header so the legacy
    wire protocol can carry it in message metadata::

        00-<32 hex trace_id>-<16 hex span_id>-<2 hex flags>
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: int, span_id: int,
                 sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_traceparent(self) -> str:
        """Render the context as a traceparent header value."""
        flags = 0x01 if self.sampled else 0x00
        return (f"00-{self.trace_id:032x}-{self.span_id:016x}"
                f"-{flags:02x}")

    @classmethod
    def from_traceparent(cls, header) -> "SpanContext | None":
        """Parse a traceparent header; ``None`` for anything malformed.

        Propagation is best-effort by design: a peer sending garbage
        (or nothing) must never fail the protocol message it rode in
        on — the receiver just starts a fresh root trace.
        """
        if not isinstance(header, str):
            return None
        parts = header.split("-")
        if len(parts) != 4 or parts[0] != "00":
            return None
        version, trace_hex, span_hex, flags_hex = parts
        if len(trace_hex) != 32 or len(span_hex) != 16 \
                or len(flags_hex) != 2:
            return None
        try:
            trace_id = int(trace_hex, 16)
            span_id = int(span_hex, 16)
            flags = int(flags_hex, 16)
        except ValueError:
            return None
        if trace_id == 0 or span_id == 0:
            return None
        return cls(trace_id, span_id, sampled=bool(flags & 0x01))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext({self.to_traceparent()})"


class Span:
    """One traced unit of work; record it by closing (``end()``)."""

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "attrs", "status", "started_at", "_t0", "duration_s",
                 "_ended")

    def __init__(self, tracer: "Tracer", name: str,
                 trace_id: int, parent_id: int | None, attrs: dict):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = _next_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.status = "ok"
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.duration_s = 0.0
        self._ended = False

    @property
    def context(self) -> SpanContext:
        """The span's propagatable :class:`SpanContext`."""
        return SpanContext(self.trace_id, self.span_id, sampled=True)

    def set_attribute(self, key: str, value) -> None:
        """Attach one key/value to the span."""
        self.attrs[key] = value

    def end(self, status: str | None = None) -> None:
        """Close the span and push its record to the ring buffer."""
        if self._ended:
            return
        self._ended = True
        if status is not None:
            self.status = status
        self.duration_s = time.perf_counter() - self._t0
        self._tracer._record(self)

    # -- context-manager protocol (same-thread nesting) -----------------------

    def __enter__(self) -> "Span":
        """Make this the creating thread's current (innermost) span."""
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Pop the stack and end, with ``"error"`` status on exception."""
        self._tracer._pop(self)
        self.end("error" if exc_type is not None else None)

    def to_dict(self) -> dict:
        """The span's JSONL-exportable record."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ts": round(self.started_at, 6),
            "duration_s": round(self.duration_s, 9),
            "status": self.status,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()
    trace_id = 0
    span_id = 0
    parent_id = None
    name = ""
    status = "ok"
    attrs: dict = {}
    #: no identity to propagate — callers guard on ``ctx is None``.
    context = None

    def set_attribute(self, key: str, value) -> None:
        pass

    def end(self, status: str | None = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Producer and ring buffer of span records for one node."""

    def __init__(self, enabled: bool = False, max_events: int = 4096,
                 sample_rate: float = 1.0, sink=None, on_drop=None,
                 rng: random.Random | None = None):
        if max_events < 1:
            raise ValueError("trace buffer needs at least one slot")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.enabled = enabled
        self.max_events = max_events
        #: fraction of *new roots* kept; continuations are always kept.
        self.sample_rate = sample_rate
        #: ``sink(record)`` sees every closed span (trace-store spill).
        self.sink = sink
        #: ``on_drop()`` fires once per ring-buffer eviction batch.
        self.on_drop = on_drop
        self._rng = rng or random.Random()
        self._lock = threading.Lock()
        self._buffer: list[dict] = []
        self._dropped = 0
        self._local = threading.local()

    # -- span creation ----------------------------------------------------------

    def span(self, name: str,
             parent: "Span | SpanContext | _NullSpan | None" = None,
             **attrs) -> "Span | _NullSpan":
        """Create a span (use as a context manager, or ``end()`` it).

        ``parent`` pins the span into an explicit tree — required when
        work hops threads — and may be a :class:`SpanContext` received
        from a remote peer, in which case the span continues the
        remote trace.  Without it, the creating thread's innermost open
        span (entered via ``with``) is the parent; with no such span
        either, a new trace is started (subject to ``sample_rate``).
        """
        if not self.enabled:
            return NULL_SPAN
        if isinstance(parent, SpanContext):
            if not parent.sampled:
                return NULL_SPAN
            return Span(self, name, trace_id=parent.trace_id,
                        parent_id=parent.span_id, attrs=attrs)
        if parent is None or parent is NULL_SPAN:
            parent = self._current()
        if parent is None:
            if self.sample_rate < 1.0 \
                    and self._rng.random() >= self.sample_rate:
                return NULL_SPAN
            return Span(self, name, trace_id=_next_id(),
                        parent_id=None, attrs=attrs)
        return Span(self, name, trace_id=parent.trace_id,
                    parent_id=parent.span_id, attrs=attrs)

    def event(self, name: str,
              parent: "Span | SpanContext | None" = None,
              **attrs) -> None:
        """Record a point-in-time event (a zero-duration span)."""
        if not self.enabled:
            return
        self.span(name, parent=parent, **attrs).end()

    # -- thread-local current-span stack ---------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)
        _active_stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        active = _active_stack()
        if active and active[-1] is span:
            active.pop()

    # -- ring buffer -------------------------------------------------------------

    def _record(self, span: Span) -> None:
        record = span.to_dict()
        dropped = False
        with self._lock:
            self._buffer.append(record)
            if len(self._buffer) > self.max_events:
                del self._buffer[:len(self._buffer) - self.max_events]
                self._dropped += 1
                dropped = True
        # Callbacks run outside the lock: a sink that flushes to disk
        # (or a drop hook that logs) must not serialize the hot path.
        if self.sink is not None:
            self.sink(record)
        if dropped and self.on_drop is not None:
            self.on_drop()

    def records(self) -> list[dict]:
        """Snapshot of the buffered span records (oldest first)."""
        with self._lock:
            return list(self._buffer)

    def spans(self, name: str | None = None) -> list[dict]:
        """Buffered records, optionally filtered by span name."""
        records = self.records()
        if name is None:
            return records
        return [r for r in records if r["name"] == name]

    @property
    def dropped(self) -> int:
        """How many times the ring buffer evicted old spans."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        """Empty the ring buffer and reset the dropped count."""
        with self._lock:
            self._buffer.clear()
            self._dropped = 0

    # -- export ------------------------------------------------------------------

    def export_jsonl(self, destination) -> int:
        """Write buffered spans as JSON lines; returns the span count.

        ``destination`` is a path or a writable text file object.
        """
        records = self.records()
        if hasattr(destination, "write"):
            for record in records:
                destination.write(json.dumps(record) + "\n")
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record) + "\n")
        return len(records)


#: a shared disabled tracer for components instantiated without one.
NULL_TRACER = Tracer(enabled=False)
