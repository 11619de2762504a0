"""Per-job flight recorder: bounded event logs and post-mortem bundles.

When a load job dies — aborted by the client, abandoned on a dropped
connection, failed in apply — the interesting evidence is everything
that happened *before* the failure: admission throttles, retry loops,
breaker trips, dq routing, adaptive DML splits.  Metrics
aggregate that history away and the span buffer may have rotated past
it, so the recorder keeps a small bounded event deque per live job
(plus one node-wide deque for events with no job context, like breaker
transitions) that costs a dict append per event.

On failure the gateway calls :meth:`dump`, which freezes the job's
events together with its spans and a metrics snapshot into one JSON
bundle on disk — the post-mortem the CLI ``flight <job_id>`` command
reads back.  Job slots are LRU-bounded: only the most recently active
``max_jobs`` jobs retain events, so a long-lived node serving millions
of sessions cannot leak memory into the recorder.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict, deque

__all__ = ["FlightRecorder", "NULL_FLIGHT_RECORDER"]

BUNDLE_VERSION = 1


class FlightRecorder:
    """Bounded in-memory event logs, dumpable as post-mortem bundles."""

    def __init__(self, enabled: bool = False,
                 max_events_per_job: int = 256, max_jobs: int = 64,
                 dump_dir: str | None = None):
        if max_events_per_job < 1:
            raise ValueError("max_events_per_job must be >= 1")
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.enabled = enabled
        self.max_events_per_job = max_events_per_job
        self.max_jobs = max_jobs
        #: where :meth:`dump` writes bundles; the gateway points this
        #: at its staging directory unless configured explicitly.
        self.dump_dir = dump_dir
        self._lock = threading.Lock()
        self._jobs: OrderedDict[str, deque] = OrderedDict()
        self._node_events: deque = deque(maxlen=max_events_per_job)

    # -- recording ---------------------------------------------------------------

    def record(self, job_id: str, event: str, **fields) -> None:
        """Append one event to a job's log (no-op when disabled)."""
        if not self.enabled or not job_id:
            return
        entry = {"ts": round(time.time(), 6), "event": event, **fields}
        with self._lock:
            log = self._jobs.get(job_id)
            if log is None:
                log = deque(maxlen=self.max_events_per_job)
                self._jobs[job_id] = log
                while len(self._jobs) > self.max_jobs:
                    self._jobs.popitem(last=False)
            else:
                self._jobs.move_to_end(job_id)
            log.append(entry)

    def record_node(self, event: str, **fields) -> None:
        """Append a node-wide event (no job context, e.g. breaker trips)."""
        if not self.enabled:
            return
        entry = {"ts": round(time.time(), 6), "event": event, **fields}
        with self._lock:
            self._node_events.append(entry)

    # -- retrieval ---------------------------------------------------------------

    def events(self, job_id: str) -> list[dict]:
        """The recorded events of one job, oldest first."""
        with self._lock:
            log = self._jobs.get(job_id)
            return list(log) if log is not None else []

    def node_events(self) -> list[dict]:
        """Node-wide events, oldest first."""
        with self._lock:
            return list(self._node_events)

    def jobs(self) -> list[str]:
        """Job ids currently holding an event log (LRU order)."""
        with self._lock:
            return list(self._jobs)

    def forget(self, job_id: str) -> None:
        """Drop a job's event log (after a clean completion)."""
        with self._lock:
            self._jobs.pop(job_id, None)

    # -- bundles -----------------------------------------------------------------

    def bundle(self, job_id: str, spans: list[dict] | None = None,
               metrics: dict | None = None,
               reason: str = "") -> dict:
        """Freeze a job's history into a post-mortem bundle dict."""
        return {
            "version": BUNDLE_VERSION,
            "job_id": job_id,
            "reason": reason,
            "dumped_at": round(time.time(), 6),
            "events": self.events(job_id),
            "node_events": self.node_events(),
            "spans": spans or [],
            "metrics": metrics or {},
        }

    def dump(self, job_id: str, spans: list[dict] | None = None,
             metrics: dict | None = None,
             reason: str = "") -> str | None:
        """Write the bundle to ``<dump_dir>/<job_id>.json``.

        Returns the bundle path, or ``None`` when the recorder is
        disabled or has nowhere to write.  Dump failures are swallowed:
        a full disk must not turn a job abort into a node crash.
        """
        if not self.enabled or not self.dump_dir:
            return None
        payload = self.bundle(job_id, spans=spans, metrics=metrics,
                              reason=reason)
        path = os.path.join(self.dump_dir, f"{job_id}.json")
        try:
            os.makedirs(self.dump_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, default=str)
        except OSError:  # pragma: no cover - disk trouble
            return None
        return path

    @staticmethod
    def load_bundle(path: str) -> dict:
        """Read back a bundle written by :meth:`dump`."""
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


#: shared disabled recorder for components wired without one.
NULL_FLIGHT_RECORDER = FlightRecorder(enabled=False)
