"""Per-job phase timing and throughput accounting.

The paper's Figure 7 splits job time into *data acquisition* (receive +
convert + serialize + upload + COPY), *DML application*, and *other*
(startup/teardown).  :class:`JobMetrics` records exactly that split plus the
counters the other figures need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["JobMetrics", "Stopwatch"]


class Stopwatch:
    """Accumulating wall-clock stopwatch."""

    def __init__(self):
        self.elapsed = 0.0
        self._started_at: float | None = None

    def start(self) -> None:
        """Start (or resume) timing; no-op if already running."""
        if self._started_at is None:
            self._started_at = time.perf_counter()

    def stop(self) -> None:
        """Stop timing and accumulate; no-op if not running."""
        if self._started_at is not None:
            self.elapsed += time.perf_counter() - self._started_at
            self._started_at = None

    @property
    def running(self) -> bool:
        return self._started_at is not None

    def __enter__(self) -> "Stopwatch":
        """Context-manager support: starts the stopwatch."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the stopwatch on context exit."""
        self.stop()


@dataclass
class JobMetrics:
    """Everything measured for one virtualized ETL job."""

    job_id: str = ""
    # -- phase durations (seconds) --
    total_s: float = 0.0
    acquisition_s: float = 0.0
    application_s: float = 0.0

    # -- acquisition counters --
    chunks_received: int = 0
    bytes_received: int = 0
    records_converted: int = 0
    bytes_staged: int = 0
    files_written: int = 0
    bytes_uploaded: int = 0
    copy_rows: int = 0

    # -- application counters --
    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    et_errors: int = 0
    uv_errors: int = 0
    dml_statements: int = 0
    chunk_retries: int = 0

    # -- data-quality precheck (repro.dq) --
    dq_checked: int = 0
    dq_violations: int = 0
    dq_routed_rows: int = 0

    # -- back-pressure --
    credit_waits: int = 0
    credit_wait_s: float = 0.0

    sessions: int = 0

    # -- observability correlation --
    #: hex trace id of the job's span tree ("" when tracing is off).
    trace_id: str = ""
    #: WLM pool the job was admitted into ("" without a WLM profile).
    pool: str = ""

    @property
    def other_s(self) -> float:
        """Startup/teardown time: total minus the two measured phases."""
        return max(self.total_s - self.acquisition_s - self.application_s,
                   0.0)

    @property
    def acquisition_rate_mb_s(self) -> float:
        if self.acquisition_s <= 0:
            return 0.0
        return self.bytes_received / self.acquisition_s / (1024 * 1024)

    def as_row(self) -> dict:
        """Flat dict for bench-harness reporting (every counter)."""
        return {
            "job_id": self.job_id,
            "trace_id": self.trace_id,
            "pool": self.pool,
            "total_s": round(self.total_s, 4),
            "acquisition_s": round(self.acquisition_s, 4),
            "application_s": round(self.application_s, 4),
            "other_s": round(self.other_s, 4),
            "records": self.records_converted,
            "bytes_in": self.bytes_received,
            "bytes_staged": self.bytes_staged,
            "files_written": self.files_written,
            "bytes_uploaded": self.bytes_uploaded,
            "copy_rows": self.copy_rows,
            "rows_inserted": self.rows_inserted,
            "et_errors": self.et_errors,
            "uv_errors": self.uv_errors,
            "dml_statements": self.dml_statements,
            "chunk_retries": self.chunk_retries,
            "dq_checked": self.dq_checked,
            "dq_violations": self.dq_violations,
            "dq_routed_rows": self.dq_routed_rows,
            "credit_waits": self.credit_waits,
            "credit_wait_s": round(self.credit_wait_s, 4),
        }
