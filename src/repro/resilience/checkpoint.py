"""Chunk-level checkpoint journal for restartable load jobs.

The legacy utilities the paper virtualizes (FastLoad/MultiLoad, Section
2) write checkpoint records so an interrupted load restarts *from the
checkpoint* instead of from scratch.  The reproduction mirrors that at
both ends of the wire with one append-only JSONL journal:

- **client side** — every acknowledged chunk sequence number is recorded
  (``ack`` records); on restart these narrow the set of chunks the
  client skips (an ack alone is *not* durability under the
  immediate-ack pipeline — the gateway's BEGIN_LOAD_OK reply carries
  the authoritative durable set);
- **gateway side** — each finalized staging file is recorded with the
  chunk manifest it contains (``staged``), each durable upload
  (``uploaded``), the terminal ``COPY INTO`` (``copy``), the APPLY
  result of a one-shot job before it is sent (``applied``); a resumed
  :class:`~repro.core.pipeline.AcquisitionPipeline` re-uploads *zero*
  already-durable files, re-enqueues staged-but-unuploaded local files,
  and treats every chunk inside a durable file as already seen.

Records are single-line JSON objects with a ``t`` type tag; a record
counts only once its newline is on disk.  A final line without one (the
process died mid-append) is ignored on load and truncated, even when it
parses, so a journal is always readable after a crash and a reopen sees
what the first open saw.

Crash model (docs/RESILIENCE.md): every append is flushed, so any
journal survives a process kill.  Only a journal opened ``fsync=True``
— the feed watermark journal — survives power loss: it fsyncs each
append, and its directory after creating the file and after each
compaction's rename.
"""

from __future__ import annotations

import json
import os
import threading

__all__ = ["CheckpointJournal"]


def _fsync_dir(path: str) -> None:
    """Make ``path``'s directory entry durable (a create or rename)."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class CheckpointJournal:
    """Append-only JSONL journal of load-job progress (thread-safe)."""

    def __init__(self, path: str, fresh: bool = False,
                 fsync: bool = False):
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        #: chunk seqs the server acknowledged (client-side records).
        self.acked: set[int] = set()
        #: finalized staging files: name -> its ``staged`` record.
        self.staged: dict[str, dict] = {}
        #: staging files durably uploaded to the cloud store.
        self.uploaded: set[str] = set()
        #: rows landed by a completed COPY INTO (None = not yet run).
        self.copy_rows: int | None = None
        #: a one-shot job's committed APPLY_RESULT meta (None = not yet).
        self.applied: dict | None = None
        #: staging ``__SEQ``\ s the dq precheck already routed to the
        #: error table — resume re-deletes but never re-records them.
        self.dq_routed: set[int] = set()
        #: highest committed micro-batch sequence of a streaming feed
        #: (None = no stream commit journaled); with its source cursor,
        #: total rows, and the accepted wire layout it forms the feed's
        #: durable watermark (repro.stream).
        self.stream_committed_seq: int | None = None
        self.stream_cursor: str | None = None
        self.stream_rows: int = 0
        self.stream_layout: dict | None = None
        #: schema-drift events accepted so far (wire dicts, in order).
        self.stream_drift: list[dict] = []
        #: how many records were replayed from an existing journal.
        self.replayed = 0
        if fresh and os.path.exists(path):
            os.unlink(path)
        elif os.path.exists(path):
            self._load()
        created = not os.path.exists(path)
        self._handle = open(path, "a", encoding="utf-8")
        if fsync and created:
            _fsync_dir(path)  # a new file's name is a directory entry

    # -- load / replay ---------------------------------------------------------

    def _load(self) -> None:
        valid_bytes = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    # Unterminated tail, even if it parses: the append
                    # never finished, and it is truncated below — acting
                    # on it would act on a record the disk drops.
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        break  # torn tail write from a crash — stop
                    self._apply(record)
                    self.replayed += 1
                valid_bytes += len(raw)
        if valid_bytes < os.path.getsize(self.path):
            # Drop the torn tail so future appends start a fresh line.
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)

    def _apply(self, record: dict) -> None:
        kind = record.get("t")
        if kind == "ack":
            self.acked.add(record["seq"])
        elif kind == "staged":
            self.staged[record["file"]] = record
        elif kind == "uploaded":
            self.uploaded.add(record["file"])
        elif kind == "copy":
            self.copy_rows = record["rows"]
        elif kind == "applied":
            self.applied = record["result"]
        elif kind == "dq_route":
            self.dq_routed.update(record["seqs"])
        elif kind == "stream_commit":
            seq = record["seq"]
            if self.stream_committed_seq is None \
                    or seq > self.stream_committed_seq:
                self.stream_committed_seq = seq
                self.stream_cursor = record.get("cursor")
            self.stream_rows = record.get(
                "total_rows", self.stream_rows + record.get("rows", 0))
            if record.get("layout") is not None:
                self.stream_layout = record["layout"]
        elif kind == "stream_drift":
            self.stream_drift.extend(record.get("events", ()))
            if record.get("layout") is not None:
                self.stream_layout = record["layout"]
        # unknown record types are skipped: forward compatibility

    # -- appends ----------------------------------------------------------------

    def _append(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            self._apply(record)
            self._handle.write(line + "\n")
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())

    def record_ack(self, seq: int) -> None:
        """Client side: the server acknowledged chunk ``seq``."""
        self._append({"t": "ack", "seq": seq})

    def record_staged(self, name: str, *, path: str, size: int,
                      records: int, chunks: list[dict]) -> None:
        """Gateway side: staging file finalized with this chunk manifest.

        ``chunks`` entries are ``{"seq": int, "records": int,
        "errors": [...]}`` — enough to reconstruct
        ``pipeline.chunk_records`` and the acquisition-error list for
        every chunk the file contains.
        """
        self._append({"t": "staged", "file": name, "path": path,
                      "size": size, "records": records, "chunks": chunks})

    def record_uploaded(self, name: str) -> None:
        """Gateway side: the staging file is durable in the cloud store."""
        self._append({"t": "uploaded", "file": name})

    def record_copy(self, rows: int) -> None:
        """Gateway side: COPY INTO the staging table completed."""
        self._append({"t": "copy", "rows": rows})

    def record_applied(self, result: dict) -> None:
        """Gateway side: a one-shot job's APPLY committed with this
        result (journaled before the reply leaves: a resume gets it)."""
        self._append({"t": "applied", "result": result})

    def record_dq_route(self, seqs) -> None:
        """Gateway side: the dq precheck routed these staging seqs to
        the error table and deleted them from staging."""
        self._append({"t": "dq_route", "seqs": sorted(seqs)})

    def record_stream_commit(self, seq: int, *, cursor: str | None = None,
                             rows: int = 0,
                             layout: dict | None = None) -> None:
        """Stream feed: micro-batch ``seq`` is fully applied.

        Journaled *before* the APPLY_RESULT reply leaves the gateway, so
        a feed resumed after any crash either skips the batch (commit
        record present) or redoes it through the normal per-batch resume
        path (commit record absent) — never both.
        """
        self._append({"t": "stream_commit", "seq": seq, "cursor": cursor,
                      "rows": rows, "layout": layout})

    def record_stream_drift(self, seq: int, events: list[dict],
                            layout: dict | None = None) -> None:
        """Stream feed: schema drift accepted while opening batch ``seq``.

        ``events`` are wire-shaped drift descriptions; ``layout`` is the
        feed's accepted wire layout *after* applying them.
        """
        self._append({"t": "stream_drift", "seq": seq, "events": events,
                      "layout": layout})

    # -- compaction --------------------------------------------------------------

    def compact(self) -> int:
        """Rewrite the journal as consolidated state; return bytes saved.

        Called at micro-batch commit boundaries so a long-running feed's
        watermark journal stays O(state) instead of O(history): the
        per-batch ``stream_commit`` records collapse into one carrying
        the accumulated row total, drift events collapse into a single
        record, and load-job records are re-emitted in replay order.
        The rewrite goes to a temp file that replaces the journal with
        ``os.replace`` — a crash mid-compaction leaves either the old
        journal or the new one, both fully valid, and the torn-tail
        rules of :meth:`_load` still cover any interrupted append that
        follows.
        """
        with self._lock:
            records: list[dict] = []
            for seq in sorted(self.acked):
                records.append({"t": "ack", "seq": seq})
            for name in sorted(self.staged):
                records.append(self.staged[name])
            for name in sorted(self.uploaded):
                records.append({"t": "uploaded", "file": name})
            if self.copy_rows is not None:
                records.append({"t": "copy", "rows": self.copy_rows})
            if self.dq_routed:
                records.append({"t": "dq_route",
                                "seqs": sorted(self.dq_routed)})
            if self.applied is not None:
                records.append({"t": "applied", "result": self.applied})
            if self.stream_drift:
                records.append({"t": "stream_drift", "seq": -1,
                                "events": list(self.stream_drift),
                                "layout": self.stream_layout})
            if self.stream_committed_seq is not None:
                records.append({"t": "stream_commit",
                                "seq": self.stream_committed_seq,
                                "cursor": self.stream_cursor,
                                "total_rows": self.stream_rows,
                                "layout": self.stream_layout})
            before = os.path.getsize(self.path) \
                if os.path.exists(self.path) else 0
            tmp_path = self.path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as tmp:
                for record in records:
                    tmp.write(json.dumps(record, separators=(",", ":"))
                              + "\n")
                tmp.flush()
                os.fsync(tmp.fileno())
            if not self._handle.closed:
                self._handle.close()
            os.replace(tmp_path, self.path)
            if self.fsync:
                # The rename is durable only once its directory is.
                _fsync_dir(self.path)
            self._handle = open(self.path, "a", encoding="utf-8")
            return max(0, before - os.path.getsize(self.path))

    # -- resume queries ----------------------------------------------------------

    def is_uploaded(self, name: str) -> bool:
        """Is the named staging file already durable in the store?"""
        with self._lock:
            return name in self.uploaded

    def pending_files(self) -> list[dict]:
        """``staged`` records finalized locally but never uploaded."""
        with self._lock:
            return [rec for name, rec in sorted(self.staged.items())
                    if name not in self.uploaded]

    def durable_chunks(self) -> dict[int, dict]:
        """Chunks that need not be resent: seq -> manifest entry.

        A chunk is durable once the staging file containing it is either
        uploaded or still present on local disk (the resumed pipeline
        re-enqueues such files for upload itself).
        """
        out: dict[int, dict] = {}
        with self._lock:
            for name, rec in self.staged.items():
                if name not in self.uploaded and \
                        not os.path.exists(rec.get("path", "")):
                    continue  # lost with the local disk state
                for chunk in rec.get("chunks", ()):
                    out[chunk["seq"]] = chunk
        return out

    def snapshot(self) -> dict:
        """Stats-friendly summary for ``HyperQNode.stats()``."""
        with self._lock:
            return {
                "path": self.path,
                "acked_chunks": len(self.acked),
                "staged_files": len(self.staged),
                "uploaded_files": len(self.uploaded),
                "copy_rows": self.copy_rows,
                "replayed_records": self.replayed,
                "stream_committed_seq": self.stream_committed_seq,
                "stream_rows": self.stream_rows,
                "stream_drift_events": len(self.stream_drift),
            }

    def close(self) -> None:
        """Close the journal file (idempotent)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        """Context-manager support: returns the journal."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on context exit."""
        self.close()
