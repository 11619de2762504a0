"""The gateway side of one continuous-ingestion feed.

A :class:`StreamFeed` outlives its micro-batch jobs and keeps their job
context warm: the watermark journal (in a *durable* directory) stays
open across batches and carries the highest committed batch sequence,
the source cursor, and the accepted wire layout across node restarts;
the WLM ticket is admitted once at feed open, so a feed occupies one
pool slot however many batches it runs; and every batch stages into the
feed's one ``staging_table``, so the CDW sees no DDL and Beta's
prepared DML is compiled once per feed.  That is sound because a feed
has at most one batch in flight, its ``live`` :class:`FeedBatch`.  The
feed ends through :meth:`StreamFeed.close`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace

from repro.core.beta import SEQ_COLUMN, ApplySummary
from repro.core.jobs import LoadJob, create_staging_table, staging_columns
from repro.dq.compiler import et_insert, staging_delete
from repro.dq.precheck import _DELETE_BATCH, _INSERT_BATCH
from repro.errors import (
    HYPERQ_SCHEMA_DRIFT, GatewayError, ProtocolError, StreamDriftError,
)
from repro.legacy.protocol import layout_from_wire, layout_to_wire
from repro.legacy.types import Layout
from repro.obs import get_logger
from repro.resilience import CheckpointJournal
from repro.sqlxc import nodes as n
from repro.stream.drift import SchemaDriftResolver

__all__ = ["FeedBatch", "StreamFeed"]

log = get_logger("gateway")

#: a feed's watermark journal is rewritten as consolidated state once
#: this many commits have been appended to it (and at feed close).
#: Any value of this order bounds the file and amortises the rewrite;
#: 56 rather than a rounder one because ``benchmarks/e2e``'s frozen
#: ``--quick`` smoke run (80 batches, traced over commits 51-60 and
#: 71-80) asserts that it sees a compaction.
_FEED_COMPACT_EVERY = 56


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


@dataclass(eq=False)
class FeedBatch:
    """The feed's batch in flight, claimed at BEGIN_LOAD and released
    when its job ends, and the staging that job runs on: the feed's
    table, no directory (each chunk's block uploads from memory) and an
    in-memory journal."""

    feed: "StreamFeed"
    job_id: str
    seq: int
    #: the source cursor and event time (lag gauge) BEGIN_LOAD sent.
    cursor: str | None
    event_ts: float | None
    #: drift accepted at BEGIN (wire dicts), and whether the whole
    #: batch routes to the error table (route-to-error).
    drift: list = ()
    route_error: bool = False
    #: the feed's staging table, and the batch's checkpoint journal
    #: (:meth:`StreamFeed.prepare_staging`).
    table: str = ""
    journal: CheckpointJournal | None = None
    #: no staging directory: the pipeline writes no file.
    dir = None

    def dq_rules(self, ruleset, layout: Layout):
        """The rules of ``ruleset`` (or None) the batch's precheck runs.
        A route-to-error batch is bound for the error table whole, so
        the precheck would only route it twice.  Drift × DQ: a rule
        applies to a batch only once every column it references exists
        in the batch's layout — a column added mid-stream is exempt
        until the profile matches it (docs/STREAMING.md)."""
        if ruleset is None or self.route_error:
            return None
        return _ruleset_for_layout(ruleset, layout)

    def route(self, job) -> ApplySummary:
        """route-to-error APPLY: the whole staged batch → error table,
        by the dq routing idiom (``__RULE_ID='schema_drift'``, the
        events as ``__REASON``).  The watermark still advances."""
        feed, node = self.feed, self.feed.node
        engine = node.engine
        result = engine.execute(f"SELECT {SEQ_COLUMN} FROM {self.table}")
        seqs = sorted(row[0] for row in result.rows)
        events = self.drift
        reason = ("; ".join(
            f"{e['kind']}:{e.get('column', '')}" for e in events))[:256]
        column = events[0].get("column", "") if events else ""
        rownum_of = node.beta.rownum_mapper(
            dict(job.pipeline.chunk_records))
        rows = []
        for seq in seqs:
            rownum = rownum_of(seq)
            rows.append((
                rownum, HYPERQ_SCHEMA_DRIFT, column,
                (f"schema drift on feed {feed.name} routed "
                 f"batch {self.seq} to the error table: "
                 f"{reason}, row number: {rownum}")[:512],
                "schema_drift", reason))
        for i in range(0, len(rows), _INSERT_BATCH):
            engine.execute(
                et_insert(job.et_table, rows[i:i + _INSERT_BATCH]))
        for i in range(0, len(seqs), _DELETE_BATCH):
            engine.execute(staging_delete(
                self.table, seqs[i:i + _DELETE_BATCH]))
        node.obs.flight.record(
            job.job_id, "stream_batch_routed", rows=len(seqs))
        return ApplySummary(et_errors=len(seqs),
                            statements=(len(rows) + _INSERT_BATCH - 1)
                            // _INSERT_BATCH if rows else 0)

    def commit(self, summary: ApplySummary, result_meta: dict) -> None:
        """Durably advance the feed's watermark before APPLY_RESULT
        leaves — the exactly-once crux: a client that never saw the
        reply replays the batch into a fast-skip.  Every
        ``_FEED_COMPACT_EVERY`` commits (and at close) the watermark
        journal is compacted, so it stays O(feed state)."""
        feed, seq = self.feed, self.seq
        obs = feed.node.obs
        rows = summary.rows_inserted + summary.rows_updated
        with feed.lock:
            feed.journal.record_stream_commit(seq, cursor=self.cursor,
                                              rows=rows)
            feed.committed_seq = max(feed.committed_seq, seq)
            feed.cursor = self.cursor
            feed.batches_committed += 1
            if feed.batches_committed % _FEED_COMPACT_EVERY == 0:
                feed.journal.compact()
            feed.rows_committed += rows
            committed_seq = feed.committed_seq
        obs.stream_batches.labels(
            feed=feed.name,
            outcome="routed" if self.route_error else "committed").inc()
        stream_result = {
            "feed": feed.name, "seq": seq,
            "committed_seq": committed_seq,
            "routed": self.route_error,
        }
        if self.event_ts is not None:
            lag = max(0.0, time.time() - self.event_ts)
            obs.stream_lag_seconds.labels(feed=feed.name).set(lag)
            stream_result["lag_s"] = round(lag, 6)
        if self.drift:
            stream_result["drift"] = list(self.drift)
        result_meta["stream"] = stream_result
        obs.flight.record(
            f"stream:{feed.name}", "batch_committed",
            seq=seq, rows=rows, routed=self.route_error)

    def release(self, job, ending) -> None:
        """The staging steps of the job's end: unless ``ending`` keeps
        it, the feed's table is emptied (one O(1) statement) for the
        next BEGIN; a batch at or below the watermark lost only its
        END_LOAD, so no resume wants its state; a kept one parks on the
        feed unless a resume took it over."""
        feed = self.feed
        if not ending.keep:
            job.node.engine.execute(n.Delete(n.TableRef(self.table)))
        keep = ending.keep and self.seq > feed.committed_seq
        if not keep:
            job.discard_state()
        if not ending.handover:
            with feed.lock:
                if keep:
                    feed.parked = job
                if feed.live is self:
                    feed.live = None


@dataclass(eq=False)
class StreamFeed:
    """Gateway-side state of one continuous-ingestion feed."""

    node: object
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
    live: FeedBatch | None = None
    #: the last batch job that ended before its commit, while its
    #: resumable state (in-memory journal, uploaded blobs, rows landed
    #: in ``staging_table``) is still around; a resume of the same job
    #: id picks it up, a BEGIN of any other batch discards it.  It
    #: outlives a feed close (the node holds it until the feed reopens).
    parked: object = None
    committed_seq: int = -1
    cursor: str | None = None
    batches_committed: int = 0
    batches_skipped: int = 0
    rows_committed: int = 0
    drift_events: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def open(cls, node, name: str, target: str, *, policy: str,
             watermark_dir: str, layout: Layout, pool: str
             ) -> "StreamFeed":
        """Open feed ``name`` from its journal in ``watermark_dir``
        (a reopened feed resumes from its last commit) and register it
        on ``node``; losing an open race returns the feed that won."""
        if policy not in ("evolve", "route-to-error", "halt"):
            raise GatewayError(
                f"unknown stream drift policy {policy!r} "
                "(expected evolve, route-to-error, or halt)")
        os.makedirs(watermark_dir, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "-_." else "_"
                       for c in name)
        staging_table = "HQ_STG_FEED_" + "".join(
            c if c.isascii() and c.isalnum() else "_" for c in name)
        # fsync per append: each stream_commit record must be durable
        # on its own before APPLY_RESULT leaves.
        journal = CheckpointJournal(
            os.path.join(watermark_dir, f"{safe}.feed.jsonl"),
            fsync=True)
        if journal.stream_layout is not None:
            layout = layout_from_wire(journal.stream_layout)
        # One admission per feed, held across every micro-batch cycle.
        ticket = node.wlm.admit(pool, f"stream:{name}", kind="stream")
        feed = cls(
            node=node, name=name, target=target, policy=policy,
            journal=journal, layout=layout, pool=pool, ticket=ticket,
            staging_table=staging_table,
            committed_seq=(-1 if journal.stream_committed_seq is None
                           else journal.stream_committed_seq),
            cursor=journal.stream_cursor,
            rows_committed=journal.stream_rows,
            drift_events=len(journal.stream_drift))
        with node._registry_lock:
            winner = node._streams.get(name)
            # Feed names that differ only in case or punctuation would
            # share one staging table.
            if winner is None and not any(
                    f.staging_table.upper() == staging_table.upper()
                    for f in node._streams.values()):
                winner = node._streams[name] = feed
                feed.parked = node._parked_batches.pop(name, None)
        if winner is not feed:
            journal.close()
            node.wlm.release(ticket)
            if winner is None:
                raise GatewayError(
                    f"stream feed {name!r} maps to staging table "
                    f"{staging_table}, which another open feed uses")
            return winner       # lost the creation race: keep the first
        node.obs.flight.record(
            f"stream:{name}", "feed_opened", target=target,
            policy=policy, committed_seq=feed.committed_seq)
        log.info("stream feed opened", extra={
            "feed": name, "target": target, "policy": policy,
            "committed_seq": feed.committed_seq})
        return feed

    def resolve_drift(self, batch: FeedBatch, layout: Layout) -> None:
        """Diff a batch layout against the feed's; apply the policy,
        setting ``batch.drift`` (wire events) and ``route_error``.

        ``evolve`` ALTERs the target (replay-safe ADD IF NOT EXISTS /
        guarded RENAME), advances the accepted layout and journals the
        drift before any batch data lands; ``route-to-error`` advances
        nothing and APPLY routes the batch wholesale; ``halt`` raises.
        """
        obs, engine, seq = self.node.obs, self.node.engine, batch.seq
        with self.lock:
            events = SchemaDriftResolver(feed=self.name).resolve(
                self.layout, layout)
            if not events:
                return
            wire = [e.to_wire() for e in events]
            if self.policy == "halt":
                raise StreamDriftError(
                    f"feed {self.name}: schema drift under halt "
                    f"policy: {wire}", feed=self.name, events=wire)
            for event in events:
                obs.stream_drift_events.labels(
                    feed=self.name, kind=event.kind).inc()
            self.drift_events += len(events)
            batch.drift = wire
            if self.policy == "route-to-error":
                batch.route_error = True
                obs.flight.record(
                    f"stream:{self.name}", "drift_routed", seq=seq,
                    events=len(events))
                log.info("stream drift routed to error table", extra={
                    "feed": self.name, "seq": seq, "events": wire})
                return
            target_table = engine.table(self.target)
            for event in events:
                if event.kind == "added":
                    engine.execute(
                        f"ALTER TABLE {self.target} ADD COLUMN "
                        f"IF NOT EXISTS {event.column} {event.new_type}")
                elif event.kind == "renamed" and \
                        target_table.has_column(event.old_name):
                    engine.execute(
                        f"ALTER TABLE {self.target} RENAME COLUMN "
                        f"{event.old_name} TO {event.column}")
            self.layout = layout
            self.journal.record_stream_drift(
                seq, wire, layout=layout_to_wire(layout))
            obs.flight.record(
                f"stream:{self.name}", "drift_evolved", seq=seq,
                events=len(events))
            log.info("stream drift evolved", extra={
                "feed": self.name, "seq": seq, "events": wire})

    def begin_batch(self, request: dict, conn: dict) -> dict:
        """BEGIN_LOAD of one batch: its BEGIN_LOAD_OK meta.  A replay at
        or below the durable watermark fast-skips (``committed``, no
        job); any other becomes the one batch in flight — batches share
        the staging table and DML template, and the watermark assumes
        in-order commits — and its job is built on it."""
        job_id, stream = request["job_id"], request["stream"]
        seq, obs = stream["batch_seq"], self.node.obs
        with self.lock:
            skipped = seq <= self.committed_seq
            if skipped:
                self.batches_skipped += 1
                watermark = {"committed_seq": self.committed_seq,
                             "cursor": self.cursor}
            else:
                live = self.live
                # A committed batch whose teardown is still pending (its
                # client died before END_LOAD) no longer owns anything.
                if live is not None and live.job_id != job_id \
                        and live.seq > self.committed_seq:
                    raise ProtocolError(
                        f"stream feed {self.name!r} already has batch "
                        f"{live.seq} in flight as job {live.job_id!r}; "
                        "one batch per feed at a time")
                batch = self.live = FeedBatch(
                    self, job_id, seq, stream["cursor"], stream["event_ts"],
                    table=self.staging_table)
        if skipped:
            obs.stream_batches.labels(
                feed=self.name, outcome="skipped").inc()
            obs.flight.record(
                f"stream:{self.name}", "batch_skipped", seq=seq)
            return {"job_id": job_id, "committed": {"stream": watermark}}
        try:
            self.resolve_drift(batch, request["layout"])
            return LoadJob(self.node, request, conn, self.pool,
                           batch=batch).begin_reply
        except BaseException:
            with self.lock:
                if self.live is batch:
                    self.live = None
            raise

    def prepare_staging(self, batch: FeedBatch, layout: Layout,
                        resume: bool, stale=None) -> FeedBatch:
        """Make the staging table ready for ``batch``, give it its
        in-memory checkpoint journal, and return it: the staging of the
        batch's job.

        A resume carries its predecessor's journal over: ``stale`` (the
        job it just took over), else the parked job of the same id.
        The table is emptied unless that journal replays rows that
        landed in it (a COPY or dq routing), and recreated for a batch
        laid out differently.  Any other parked batch is superseded."""
        with self.lock:
            parked, self.parked = self.parked, None
        prior = stale
        if parked is not None:
            if prior is None and resume and parked.job_id == batch.job_id:
                prior = parked
            else:
                # Its landed rows are about to go; nothing may resume
                # from the journal that still claims them.
                parked.discard_state()
        journal = batch.journal = (
            prior.pipeline.journal if prior is not None
            else CheckpointJournal(None))
        engine, name = self.node.engine, self.staging_table
        if engine.catalog.exists(name):
            if journal.copy_rows is not None or journal.dq_routed:
                return batch
            table = engine.table(name)
            have = [f"{c.name} {c.ctype.render()}".upper()
                    for c in table.columns]
            if have == [c.upper() for c in staging_columns(layout)]:
                if table.row_count:
                    engine.execute(n.Delete(n.TableRef(name)))
                return batch
            engine.execute(f"DROP TABLE {name}")
        create_staging_table(engine, name, layout)
        return batch

    def close(self, event: str) -> None:
        """Close the feed (idempotent): ``feed_closed`` (END_LOAD
        ``stream_end``) or ``feed_quiesced`` (node stop).  Compacts and
        closes the journal, drops the staging table unless a batch is
        parked in it (the node keeps the batch for the feed's reopen),
        gives the WLM slot back last."""
        node = self.node
        with node._registry_lock:
            if node._streams.get(self.name) is not self:
                return
            del node._streams[self.name]
            with self.lock:
                parked = self.parked
            if parked is not None:
                node._parked_batches[self.name] = parked
        self.journal.compact()
        self.journal.close()
        if parked is None:
            node.engine.execute(
                f"DROP TABLE IF EXISTS {self.staging_table}")
        node.obs.flight.record(
            f"stream:{self.name}", event,
            committed_seq=self.committed_seq,
            batches=self.batches_committed)
        log.info("stream %s", event.replace("_", " "), extra={
            "feed": self.name, "target": self.target,
            "committed_seq": self.committed_seq,
            "batches": self.batches_committed,
            "rows": self.rows_committed})
        node.wlm.release(self.ticket)

    def snapshot(self) -> dict:
        """``stats()["streams"][name]``: watermark and counters."""
        with self.lock:
            return {
                "target": self.target,
                "policy": self.policy,
                "pool": self.pool,
                "committed_seq": self.committed_seq,
                "cursor": self.cursor,
                "batches_committed": self.batches_committed,
                "batches_skipped": self.batches_skipped,
                "rows_committed": self.rows_committed,
                "drift_events": self.drift_events,
                "layout": [f.name for f in self.layout.fields],
            }
