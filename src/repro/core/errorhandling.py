"""Adaptive error handling (Section 7, Figure 6).

Modern CDW DML is set-oriented: one bad tuple aborts the whole statement
and the error is only observable at chunk granularity.  The legacy
per-tuple semantics are: a row lands in the error tables iff its own
single-row statement fails at its turn, in input order.  Three ways to
reach them share this handler, tried in this order:

- *Verdict route* (the default path).  When the first statement over a
  whole range fails, the optional ``locate`` callback runs one
  set-oriented pass inside the warehouse (Beta derives it from the
  DML's own IR).  When it can decide the range it returns
  :class:`Verdicts`: every row that fails, each with the error its own
  single-row statement raises.  The range is then one statement over
  its clean rows (``execute_clean``) and each verdict is recorded in
  seq order — a handful of statements, whatever the error count.
- *Located apply* (the fallback when the verdicts are not usable: they
  would exhaust ``max_errors``, or the clean statement fails after all,
  say on a key the target already holds; and the path for a locator
  that returns a plain list, a hint).  The range is applied in order:
  each clean segment between suspects as one ranged statement, each
  suspect as its own single-row statement.  Each error comes from the
  engine's own exception, a wrong suspect costs one extra statement,
  and a missed one fails its segment, which is halved as below.
- *Recursive halving* (the paper's algorithm, the last resort and the
  reference): a failing chunk is split in two and each half retried,
  down to individual tuples, which are then recorded in the
  appropriate error table.

Two control parameters bound the work:

- ``max_errors`` — the maximum number of *individual* errors to record
  before the retry logic is aborted; once exhausted, a failing chunk is
  recorded as a row-number *range* (code 9057) and skipped without
  further splitting (Figure 6's last row);
- ``max_retries`` — the maximum number of times any input chunk is split;
  a chunk failing at that depth is likewise recorded as a range.

The verdict route and located apply run only where they provably end
as halving would: when the range is small enough (``<= 2**max_retries``
rows) that halving never hits ``max_retries``.  The verdict route runs
only when its errors leave the ``max_errors`` budget unexhausted; in
located apply, whichever recorded error exhausts it — a suspect or a
missed one — the handler resumes exactly the ranges halving would
still hold at that row, so ``max_errors`` outcomes (9057 ranges) stay
those of Figure 6.

The handler is deliberately independent of SQL: it works on a sorted list
of staging sequence numbers and calls back into Beta to execute ranges,
locate suspects and record errors — which keeps it unit-testable with a
scripted fake executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import BulkExecutionError
from repro.obs import get_logger

__all__ = ["ApplyOutcome", "AdaptiveErrorHandler", "Verdicts"]

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
#: lists the seqs in [lo, hi] the DML is expected to fail on: a hint
#: (sorted or not, members of the range or not, right or wrong), or
#: :class:`Verdicts` that decide the range.
Locator = Callable[[int, int], list[int]]
#: executes the DML over the rows of [lo, hi] whose seqs are not in the
#: sorted list; returns and raises like :data:`RangeExecutor`.
CleanExecutor = Callable[[int, int, list[int]], tuple[int, int, int]]


class Verdicts(list):
    """A locator's answer that decides its range: the sorted seqs of
    every row that fails (the list itself, so it is also a hint) and
    ``errors``, each one's own error as its single-row statement raises
    it.  The seqs must be members of the range."""

    def __init__(self, errors: "dict[int, BulkExecutionError]"):
        super().__init__(sorted(errors))
        self.errors = errors

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
        numbers), locating or splitting adaptively on failure.

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
            locating = self._may_locate(outcome, len(seqs))
            if not locating:
                self._handle_failure(outcome, stack, seqs, 0, last, 0, exc)
        # Past the except block, the failure's traceback — which pins
        # the failed statement's column data — is freed before the rest
        # of the range runs.
        hint = self.locate(seqs[0], seqs[-1]) if locating else []
        if isinstance(hint, Verdicts) and self._route(outcome, seqs, hint):
            return outcome
        suspects = self._indexes(seqs, hint)
        if suspects:
            self._halve(outcome, seqs,
                        self._located_plan(len(seqs), suspects),
                        located=True)
            return outcome
        if locating:
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
               stack: list[_Pending], located: bool = False) -> None:
        """Run the pending ranges, splitting each failure in two.

        The stack is popped left half first, so processing stays in
        input-file order — required so that, e.g., the first occurrence
        of a duplicate key wins exactly as on the legacy system.  A
        ``located`` stack is a plan of the whole range: once a recorded
        error exhausts the budget, the rest of the range is run as
        halving the whole range would have run it
        (:meth:`_halving_after`), so 9057 ranges stay Figure 6's.
        """
        while stack:
            lo, hi, depth = stack.pop()
            try:
                self._execute(outcome, seqs, lo, hi)
            except BulkExecutionError as exc:
                self._handle_failure(outcome, stack, seqs, lo, hi,
                                     depth, exc)
                if located and outcome.budget_exhausted:
                    stack = self._halving_after(len(seqs), lo)
                    located = False

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

    def _handle_failure(self, outcome: ApplyOutcome,
                        stack: list[_Pending],
                        seqs: list[int], lo: int, hi: int, depth: int,
                        exc: BulkExecutionError) -> None:
        if lo == hi:
            self._record_tuple(outcome, seqs[lo], exc)
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
        self._split(outcome, stack, seqs, lo, hi, depth)

    def _split(self, outcome: ApplyOutcome, stack: list[_Pending],
               seqs: list[int], lo: int, hi: int, depth: int) -> None:
        mid = (lo + hi) // 2
        outcome.splits += 1
        self._observe("split", lo=seqs[lo], hi=seqs[hi], depth=depth)
        stack.append((mid + 1, hi, depth + 1))
        stack.append((lo, mid, depth + 1))

    # -- the verdict route -------------------------------------------------

    def _route(self, outcome: ApplyOutcome, seqs: list[int],
               verdicts: Verdicts) -> bool:
        """Apply a failed range its verdicts decide: one statement over
        its clean rows, then each verdict's error in seq order.  False,
        with nothing applied or recorded, when there is no verdict (the
        range failed on rows the pass does not see), when the verdicts
        would exhaust the ``max_errors`` budget (halving then records a
        9057 range the route cannot know), or when the clean statement
        fails."""
        if not verdicts or self.execute_clean is None \
                or outcome.tuple_errors + len(verdicts) >= self.max_errors:
            return False
        try:
            self._execute(outcome, seqs, 0, len(seqs) - 1, list(verdicts))
        except BulkExecutionError:
            return False
        for seq in verdicts:
            self._record_tuple(outcome, seq, verdicts.errors[seq])
        return True

    # -- located apply -----------------------------------------------------

    def _may_locate(self, outcome: ApplyOutcome, n: int) -> bool:
        """Whether a failed ``n``-row range may run in located order:
        there is a locator, halving's first step would be a split (more
        than one row, budget not yet exhausted), and halving would not
        hit ``max_retries`` before reaching each row."""
        return (self.locate is not None and n >= 2
                and not outcome.budget_exhausted
                and n <= 2 ** self.max_retries)

    @staticmethod
    def _indexes(seqs: list[int], hint: list[int]) -> list[int]:
        """Indexes into ``seqs`` of the hinted suspects, in order."""
        wanted = set(hint)
        return [i for i, seq in enumerate(seqs) if seq in wanted]

    @staticmethod
    def _located_plan(n: int, suspects: list[int]) -> list[_Pending]:
        """The located order of a failed ``[0, n)`` range as a stack:
        each clean segment between suspects as one range, each suspect
        as its own, first on top.  A segment that fails after all is
        halved; it never reaches ``max_retries``, as ``n <=
        2**max_retries``."""
        plan: list[_Pending] = []
        start = 0
        for i in suspects:
            if start < i:
                plan.append((start, i - 1, 0))
            plan.append((i, i, 0))
            start = i + 1
        if start < n:
            plan.append((start, n - 1, 0))
        plan.reverse()
        return plan

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
