"""Adaptive error handling (Section 7, Figure 6).

Modern CDW DML is set-oriented: one bad tuple aborts the whole statement
and the error is only observable at chunk granularity.  The legacy
per-tuple semantics are: a row lands in the error tables iff its own
single-row statement fails at its turn, in input order.  Two algorithms
reach them in this handler:

- *Verdict route* (the default path).  When the first statement over a
  whole range fails, the optional ``locate`` callback runs one
  set-oriented pass inside the warehouse (Beta derives it from the
  DML's own IR).  When it can decide the range it returns every row
  that fails, each with the error its own single-row statement raises.
  The route replays halving on those verdicts: each verdict is
  recorded in seq order until one exhausts ``max_errors``; past it, the
  ranges halving would still hold are taken left to right — one with no
  verdict is clean, a one-row one records its verdict, any other is one
  9057 range.  The range is then one statement over its clean rows
  (``execute_clean``) and the errors are recorded in that order: a
  handful of statements, whatever the error count or budget.
- *Recursive halving* (the paper's algorithm and the reference, for
  everything the verdicts do not decide): a failing chunk is split in
  two and each half retried, down to individual tuples, which are then
  recorded in the appropriate error table.

Two control parameters bound the work:

- ``max_errors`` — the maximum number of *individual* errors to record
  before the retry logic is aborted; once exhausted, a failing chunk is
  recorded as a row-number *range* (code 9057) and skipped without
  further splitting (Figure 6's last row);
- ``max_retries`` — the maximum number of times any input chunk is split;
  a chunk failing at that depth is likewise recorded as a range.

The verdict route runs only where it provably ends as halving would:
the budget is not exhausted yet, the range is small enough (``<=
2**max_retries`` rows) that halving never hits ``max_retries``, no
uniqueness loser's winner falls in a skipped range the loser is not in
(halving would find the loser clean), and the clean statement succeeds
(it fails, say, on a key the target already holds).  Anything else
halves.

The handler is deliberately independent of SQL: it works on a sorted list
of staging sequence numbers and calls back into Beta to execute ranges,
locate failing rows and record errors — which keeps it unit-testable
with a scripted fake executor.
"""

from __future__ import annotations

from bisect import bisect_left
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
#: the verdicts on the rows of [lo, hi]: each failing row's seq mapped
#: to the error its own single-row statement raises — a uniqueness
#: loser's error names in ``winner`` the seq of the earlier row holding
#: its key — or None when the rows cannot be decided.
Locator = Callable[[int, int], "dict[int, BulkExecutionError] | None"]
#: executes the DML over the rows of [lo, hi] whose seqs are not in the
#: sorted list; returns and raises like :data:`RangeExecutor`.
CleanExecutor = Callable[[int, int, list[int]], tuple[int, int, int]]

#: one pending range of the halving cascade: (lo index, hi index, depth).
_Pending = tuple[int, int, int]


@dataclass
class AdaptiveErrorHandler:
    execute_range: RangeExecutor
    record_tuple_error: TupleErrorSink
    record_range_error: RangeErrorSink
    max_errors: int = 1000
    max_retries: int = 64
    observer: SplitObserver | None = None
    locate: Locator | None = None
    execute_clean: CleanExecutor | None = None

    def _observe(self, event: str, **details) -> None:
        if self.observer is not None:
            self.observer(event, details)

    def apply(self, seqs: list[int],
              outcome: ApplyOutcome | None = None) -> ApplyOutcome:
        """Apply the DML over all of ``seqs`` (sorted staging sequence
        numbers), routing or splitting adaptively on failure.

        Pass ``outcome`` to continue accumulating into a prior call's
        result: an :class:`~repro.core.beta.ApplyRun` passes its own, so
        every range it applies shares one ``max_errors`` budget (and
        one set of counters).
        """
        if outcome is None:
            outcome = ApplyOutcome()
        if not seqs:
            return outcome
        last = len(seqs) - 1
        stack: list[_Pending] = []
        try:
            self._execute(outcome, seqs, 0, last)
            return outcome
        except BulkExecutionError as exc:
            routing = self._may_route(outcome, len(seqs))
            if not routing:
                self._handle_failure(outcome, stack, seqs, 0, last, 0, exc)
        # Past the except block, the failure's traceback — which pins
        # the failed statement's column data — is freed before the rest
        # of the range runs.
        if routing:
            verdicts = self.locate(seqs[0], seqs[-1])
            if verdicts and self._route(outcome, seqs, verdicts):
                return outcome
            self._split(outcome, stack, seqs, 0, last, 0)
        self._halve(outcome, seqs, stack)
        return outcome

    def _execute(self, outcome: ApplyOutcome, seqs: list[int],
                 lo: int, hi: int, skip: "list[int] | None" = None) -> None:
        """One DML statement over ``seqs[lo..hi]`` (but the rows of
        ``skip``, when given); raises on failure."""
        outcome.statements += 1
        inserted, updated, deleted = \
            self.execute_range(seqs[lo], seqs[hi]) if skip is None \
            else self.execute_clean(seqs[lo], seqs[hi], skip)
        outcome.rows_inserted += inserted
        outcome.rows_updated += updated
        outcome.rows_deleted += deleted

    # -- recursive halving -------------------------------------------------

    def _halve(self, outcome: ApplyOutcome, seqs: list[int],
               stack: list[_Pending]) -> None:
        """Run the pending ranges, splitting each failure in two.

        The stack is popped left half first, so processing stays in
        input-file order — required so that, e.g., the first occurrence
        of a duplicate key wins exactly as on the legacy system.
        """
        while stack:
            lo, hi, depth = stack.pop()
            try:
                self._execute(outcome, seqs, lo, hi)
            except BulkExecutionError as exc:
                self._handle_failure(outcome, stack, seqs, lo, hi,
                                     depth, exc)

    def _record_tuple(self, outcome: ApplyOutcome, seq: int,
                      exc: BulkExecutionError) -> None:
        self.record_tuple_error(seq, exc)
        outcome.tuple_errors += 1
        self._observe("tuple_error", seq=seq,
                      kind=getattr(exc, "kind", None))
        if outcome.tuple_errors >= self.max_errors:
            outcome.budget_exhausted = True
            log.debug("error budget exhausted after %d tuple errors",
                      outcome.tuple_errors)

    def _record_range(self, outcome: ApplyOutcome, lo: int, hi: int,
                      exc: BulkExecutionError, reason: str) -> None:
        self.record_range_error(lo, hi, exc, reason)
        outcome.range_errors += 1
        self._observe("range_skip", lo=lo, hi=hi, reason=reason)

    def _handle_failure(self, outcome: ApplyOutcome,
                        stack: list[_Pending],
                        seqs: list[int], lo: int, hi: int, depth: int,
                        exc: BulkExecutionError) -> None:
        if lo == hi:
            self._record_tuple(outcome, seqs[lo], exc)
        elif outcome.budget_exhausted:
            self._record_range(outcome, seqs[lo], seqs[hi], exc,
                               "max_errors")
        elif depth >= self.max_retries:
            self._record_range(outcome, seqs[lo], seqs[hi], exc,
                               "max_retries")
        else:
            self._split(outcome, stack, seqs, lo, hi, depth)

    def _split(self, outcome: ApplyOutcome, stack: list[_Pending],
               seqs: list[int], lo: int, hi: int, depth: int) -> None:
        mid = (lo + hi) // 2
        outcome.splits += 1
        self._observe("split", lo=seqs[lo], hi=seqs[hi], depth=depth)
        stack.append((mid + 1, hi, depth + 1))
        stack.append((lo, mid, depth + 1))

    # -- the verdict route -------------------------------------------------

    def _may_route(self, outcome: ApplyOutcome, n: int) -> bool:
        """Whether a failed ``n``-row range may take the verdict route:
        there is a locator, halving's first step would be a split (more
        than one row, budget not yet exhausted), and halving would not
        hit ``max_retries`` before reaching each row."""
        return (self.locate is not None and self.execute_clean is not None
                and n >= 2 and not outcome.budget_exhausted
                and n <= 2 ** self.max_retries)

    def _route(self, outcome: ApplyOutcome, seqs: list[int],
               verdicts: "dict[int, BulkExecutionError]") -> bool:
        """Apply a failed range its verdicts decide as halving would:
        one statement over the rows halving loads, then the errors it
        records, in its order.  False, with nothing recorded, when a
        uniqueness loser's winner falls in a skipped range the loser is
        not in (halving would find the loser clean), or when the clean
        statement fails."""
        order = sorted(verdicts)
        room = self.max_errors - outcome.tuple_errors
        # (lo index, hi index, its first verdict's seq) per record
        records = []
        for seq in order[:room]:
            i = bisect_left(seqs, seq)
            records.append((i, i, seq))
        skipped: dict = {}      # seq -> the start of its skipped range
        if len(order) >= room:
            rest = order[room:]
            for lo, hi, _ in reversed(
                    self._halving_after(len(seqs), records[-1][0])):
                first = bisect_left(rest, seqs[lo])
                if first < len(rest) and rest[first] <= seqs[hi]:
                    records.append((lo, hi, rest[first]))
                    if lo < hi:
                        skipped.update(dict.fromkeys(seqs[lo:hi + 1], lo))
        for seq, error in verdicts.items():
            # a loser whose winner is skipped wins unless skipped with it
            winner = getattr(error, "winner", None)
            if winner in skipped and skipped.get(seq) != skipped[winner]:
                return False
        skip = [s for lo, hi, _ in records for s in seqs[lo:hi + 1]]
        try:
            self._execute(outcome, seqs, 0, len(seqs) - 1, skip)
        except BulkExecutionError:
            return False
        for lo, hi, seq in records:
            if lo == hi:
                self._record_tuple(outcome, seq, verdicts[seq])
            else:
                self._record_range(outcome, seqs[lo], seqs[hi],
                                   verdicts[seq], "max_errors")
        return True

    @staticmethod
    def _halving_after(n: int, i: int) -> list[_Pending]:
        """The halving stack of a failed ``[0, n)`` range just after it
        recorded row ``i``: the right siblings along the path down to
        ``i``, deepest on top."""
        stack: list[_Pending] = []
        lo, hi, depth = 0, n - 1, 0
        while lo < hi:
            mid = (lo + hi) // 2
            depth += 1
            if i <= mid:
                stack.append((mid + 1, hi, depth))
                hi = mid
            else:
                lo = mid + 1
        return stack
