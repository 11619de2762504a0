"""Continuous ingestion: micro-batch/CDC session mode for Hyper-Q.

The batch path loads a table once and disconnects.  This package keeps
the pipe open: a *feed* drives repeated micro-batch BEGIN_LOAD →
acquire → DQ → APPLY cycles against one target table, with a per-feed
watermark journaled durably on the gateway so a killed client (or
node) resumes exactly-once across batch boundaries — committed batches
fast-skip, half-done batches replay through the ordinary per-job
checkpoint journal.

Pieces:

- :class:`~repro.stream.session.StreamSession` — client-side feed
  driver (one control connection, one batch cycle per call);
- :class:`~repro.stream.runner.StreamRunner` /
  :class:`~repro.stream.runner.StreamReport` — batch loop + rollup;
- :class:`~repro.stream.drift.SchemaDriftResolver` /
  :class:`~repro.stream.drift.DriftEvent` — mid-stream schema-change
  detection and the ``evolve`` ALTER propagation (policies:
  ``evolve`` / ``route-to-error`` / ``halt``).

See docs/STREAMING.md for the protocol extension and recovery rules.
"""

from repro.stream.drift import DriftEvent, SchemaDriftResolver
from repro.stream.runner import StreamReport, StreamRunner
from repro.stream.session import StreamBatchResult, StreamSession

__all__ = [
    "DriftEvent",
    "SchemaDriftResolver",
    "StreamBatchResult",
    "StreamReport",
    "StreamRunner",
    "StreamSession",
]
