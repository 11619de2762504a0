"""Client-side driver of one continuous-ingestion feed.

A :class:`StreamSession` owns a :class:`~repro.legacy.client.
LegacyEtlClient` and replays the classic BEGIN_LOAD → acquire → APPLY →
END_LOAD cycle once per micro-batch, stamping each cycle with the
feed's stream metadata (feed name, batch sequence, source cursor,
drift policy).  Exactly-once across restarts falls out of two rules:

- every batch job is sent with ``resume=True`` under the deterministic
  job id ``<feed>_b<seq>`` — a redelivered chunk of a half-done batch
  dedups against the gateway's per-job checkpoint journal;
- a restarted client replays from *any* earlier sequence — batches at
  or below the feed's durable watermark come back ``committed`` from
  BEGIN_LOAD and the cycle goes straight to END_LOAD without sending a
  byte of data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["StreamSession", "StreamBatchResult"]


@dataclass
class StreamBatchResult:
    """Outcome of one micro-batch cycle."""

    seq: int
    #: the batch ran the full load path this cycle.
    committed: bool = False
    #: the gateway fast-skipped it (already below the watermark).
    skipped: bool = False
    #: the whole batch was routed to the error table (drift policy).
    routed: bool = False
    rows_inserted: int = 0
    et_errors: int = 0
    uv_errors: int = 0
    #: rows the dq precheck routed to the error table this batch.
    dq_routed_rows: int = 0
    bytes_sent: int = 0
    #: wall-clock seconds of the whole cycle, client-observed.
    latency_s: float = 0.0
    #: drift events the gateway accepted at this batch (wire dicts).
    drift: list = field(default_factory=list)
    #: source-to-commit lag the gateway reported, when known.
    lag_s: float | None = None


class StreamSession:
    """One long-running feed: repeated micro-batches, one watermark."""

    def __init__(self, connect, *, feed: str, target_table: str,
                 et_table: str | None = None,
                 uv_table: str | None = None,
                 policy: str = "evolve",
                 watermark_dir: str | None = None,
                 tenant: str = "", sessions: int = 2,
                 chunk_bytes: int = 64 * 1024,
                 timeout: float | None = 30.0,
                 user: str = "stream",
                 retry_attempts: int = 0,
                 admission_retry_attempts: int = 0,
                 tracer: Tracer = NULL_TRACER):
        self.feed = feed
        self.target_table = target_table
        self.et_table = et_table or f"{target_table}_ET"
        self.uv_table = uv_table or f"{target_table}_UV"
        self.policy = policy
        self.watermark_dir = watermark_dir
        self.tenant = tenant
        self.sessions = sessions
        self.chunk_bytes = chunk_bytes
        self.user = user
        self.retry_attempts = retry_attempts
        self.admission_retry_attempts = admission_retry_attempts
        self.client = LegacyEtlClient(connect, timeout=timeout,
                                      tracer=tracer)
        self._safe_feed = "".join(
            c if c.isalnum() or c in "-_" else "_" for c in feed)
        #: per-session counters (the server holds the authoritative
        #: watermark; these describe what *this* process observed).
        self.batches_committed = 0
        self.batches_skipped = 0
        self.rows_inserted = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "StreamSession":
        """Log the control session on; returns self for chaining."""
        self.client.logon("hyperq", self.user, "")
        return self

    def close(self, end_feed: bool = True) -> None:
        """Log off; optionally close the feed on the server first.

        ``end_feed=False`` leaves the feed (and its pool slot) open on
        the server — the shape of a client that intends to reconnect.
        """
        try:
            if end_feed:
                self.client.end_stream(self.feed)
        finally:
            self.client.logoff()

    def __enter__(self) -> "StreamSession":
        """Context-manager support: opens the session."""
        return self.open()

    def __exit__(self, *exc_info) -> None:
        """Close (feed included) on context exit, best-effort."""
        try:
            self.close()
        except Exception:
            pass

    # -- the cycle ---------------------------------------------------------

    def job_id_for(self, seq: int) -> str:
        """Deterministic per-batch job id — the resume/replay anchor."""
        return f"{self._safe_feed}_b{seq:06d}"

    def run_batch(self, batch) -> StreamBatchResult:
        """Run one micro-batch cycle; fast-skips below the watermark.

        ``batch`` is duck-typed: it needs ``seq``, ``layout``,
        ``data``, and ``apply_sql``; ``cursor``, ``event_ts``, and
        ``format_spec`` ride along when present (e.g.
        :class:`repro.workloads.streamgen.StreamBatch`).
        """
        seq = int(batch.seq)
        stream_meta: dict = {
            "feed": self.feed,
            "batch_seq": seq,
            "drift_policy": self.policy,
        }
        cursor = getattr(batch, "cursor", None)
        if cursor is not None:
            stream_meta["cursor"] = cursor
        event_ts = getattr(batch, "event_ts", None)
        if event_ts is not None:
            stream_meta["event_ts"] = event_ts
        if self.watermark_dir:
            stream_meta["watermark_dir"] = self.watermark_dir
        spec = ImportJobSpec(
            target_table=self.target_table,
            et_table=self.et_table,
            uv_table=self.uv_table,
            layout=batch.layout,
            apply_sql=batch.apply_sql,
            data=batch.data,
            format_spec=getattr(batch, "format_spec", None)
            or FormatSpec("vartext", "|"),
            sessions=self.sessions,
            chunk_bytes=self.chunk_bytes,
            job_id=self.job_id_for(seq),
            # Always resume: harmless on a fresh batch job, and the
            # only correct mode when replaying a half-done one.
            resume=True,
            tenant=self.tenant,
            retry_attempts=self.retry_attempts,
            admission_retry_attempts=self.admission_retry_attempts,
            stream=stream_meta,
        )
        started = time.perf_counter()
        result = self.client.run_import(spec)
        latency = time.perf_counter() - started
        if result.committed:
            self.batches_skipped += 1
            return StreamBatchResult(seq=seq, skipped=True,
                                     latency_s=latency)
        self.batches_committed += 1
        self.rows_inserted += result.rows_inserted
        info = result.stream or {}
        return StreamBatchResult(
            seq=seq, committed=True,
            routed=bool(info.get("routed")),
            rows_inserted=result.rows_inserted,
            et_errors=result.et_errors,
            uv_errors=result.uv_errors,
            dq_routed_rows=result.dq_routed_rows,
            bytes_sent=result.bytes_sent,
            latency_s=latency,
            drift=list(info.get("drift", ())),
            lag_s=info.get("lag_s"),
        )
