"""Adaptive error handling (Section 7, Figure 6).

Modern CDW DML is set-oriented: one bad tuple aborts the whole statement
and the error is only observable at chunk granularity.  To recover the
legacy per-tuple error semantics, Hyper-Q "recursively repeat[s] the
application step on smaller data chunks": a failing chunk is split in two
and each half retried, down to individual tuples, which are then recorded
in the appropriate error table.

Two control parameters bound the work:

- ``max_errors`` — the maximum number of *individual* errors to record
  before the retry logic is aborted; once exhausted, a failing chunk is
  recorded as a row-number *range* (code 9057) and skipped without
  further splitting (Figure 6's last row);
- ``max_retries`` — the maximum number of times any input chunk is split;
  a chunk failing at that depth is likewise recorded as a range.

The handler is deliberately independent of SQL: it works on a sorted list
of staging sequence numbers and calls back into Beta to execute ranges
and record errors — which keeps it unit-testable with a scripted fake
executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import BulkExecutionError
from repro.obs import get_logger

__all__ = ["ApplyOutcome", "AdaptiveErrorHandler"]

log = get_logger("errorhandler")


@dataclass
class ApplyOutcome:
    """Aggregated result of applying the DML with adaptive splitting."""

    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    tuple_errors: int = 0
    range_errors: int = 0
    #: number of DML executions attempted (successful or not).
    statements: int = 0
    #: number of chunk splits performed.
    splits: int = 0
    budget_exhausted: bool = False

    @property
    def total_errors(self) -> int:
        return self.tuple_errors + self.range_errors


#: executes the DML over staging rows with seq in [lo, hi]; returns
#: (inserted, updated, deleted); raises BulkExecutionError on failure.
RangeExecutor = Callable[[int, int], tuple[int, int, int]]
#: records one bad tuple (seq, error).
TupleErrorSink = Callable[[int, BulkExecutionError], None]
#: records a skipped range (lo seq, hi seq, error, reason).
RangeErrorSink = Callable[[int, int, BulkExecutionError, str], None]
#: observability hook ``(event, details)`` with events ``"split"``,
#: ``"tuple_error"``, and ``"range_skip"`` — keeps the handler free of
#: any tracing dependency while letting Beta emit structured events.
SplitObserver = Callable[[str, dict], None]


@dataclass
class AdaptiveErrorHandler:
    execute_range: RangeExecutor
    record_tuple_error: TupleErrorSink
    record_range_error: RangeErrorSink
    max_errors: int = 1000
    max_retries: int = 64
    observer: SplitObserver | None = None

    def _observe(self, event: str, **details) -> None:
        if self.observer is not None:
            self.observer(event, details)

    def apply(self, seqs: list[int],
              outcome: ApplyOutcome | None = None) -> ApplyOutcome:
        """Apply the DML over all of ``seqs`` (sorted staging sequence
        numbers), splitting adaptively on failure.

        Pass ``outcome`` to continue accumulating into a prior call's
        result: an :class:`~repro.core.beta.ApplyRun` passes its own, so
        every range it applies shares one ``max_errors`` budget (and
        one set of counters).
        """
        if outcome is None:
            outcome = ApplyOutcome()
        if not seqs:
            return outcome
        # Explicit stack, pushed right-half first so processing stays in
        # input-file order — required so that, e.g., the first occurrence
        # of a duplicate key wins exactly as on the legacy system.
        stack: list[tuple[int, int, int]] = [(0, len(seqs) - 1, 0)]
        while stack:
            lo, hi, depth = stack.pop()
            outcome.statements += 1
            try:
                inserted, updated, deleted = self.execute_range(
                    seqs[lo], seqs[hi])
            except BulkExecutionError as exc:
                self._handle_failure(outcome, stack, seqs, lo, hi,
                                     depth, exc)
                continue
            outcome.rows_inserted += inserted
            outcome.rows_updated += updated
            outcome.rows_deleted += deleted
        return outcome

    def _handle_failure(self, outcome: ApplyOutcome,
                        stack: list[tuple[int, int, int]],
                        seqs: list[int], lo: int, hi: int, depth: int,
                        exc: BulkExecutionError) -> None:
        if lo == hi:
            self.record_tuple_error(seqs[lo], exc)
            outcome.tuple_errors += 1
            self._observe("tuple_error", seq=seqs[lo],
                          kind=getattr(exc, "kind", None))
            if outcome.tuple_errors >= self.max_errors:
                outcome.budget_exhausted = True
                log.debug("error budget exhausted after %d tuple errors",
                          outcome.tuple_errors)
            return
        if outcome.budget_exhausted:
            self.record_range_error(seqs[lo], seqs[hi], exc, "max_errors")
            outcome.range_errors += 1
            self._observe("range_skip", lo=seqs[lo], hi=seqs[hi],
                          reason="max_errors")
            return
        if depth >= self.max_retries:
            self.record_range_error(seqs[lo], seqs[hi], exc, "max_retries")
            outcome.range_errors += 1
            self._observe("range_skip", lo=seqs[lo], hi=seqs[hi],
                          reason="max_retries")
            return
        mid = (lo + hi) // 2
        outcome.splits += 1
        self._observe("split", lo=seqs[lo], hi=seqs[hi], depth=depth)
        stack.append((mid + 1, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
