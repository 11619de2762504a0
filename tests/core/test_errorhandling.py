"""Adaptive error handler tests, driven by a scripted fake executor.

The handler is exercised against an in-memory oracle: a set of "bad"
sequence numbers.  Executing a range succeeds iff it contains no bad
seq — exactly the observable behaviour of set-oriented CDW DML.
"""

from hypothesis import given, strategies as st

from repro.core.errorhandling import AdaptiveErrorHandler
from repro.errors import BulkExecutionError


class Oracle:
    """Fake Beta: knows which seqs are bad, records everything."""

    def __init__(self, seqs, bad, uniqueness=()):
        self.seqs = list(seqs)
        self.bad = set(bad)
        self.uniqueness = set(uniqueness)
        self.loaded: list[int] = []
        self.tuple_errors: list[tuple[int, str]] = []
        self.range_errors: list[tuple[int, int, str]] = []
        self.executions = 0

    def _error(self, seq):
        kind = "uniqueness" if seq in self.uniqueness else "conversion"
        return BulkExecutionError("bad seq in chunk", kind=kind)

    def execute_range(self, lo, hi):
        return self.execute_clean(lo, hi, [])

    def execute_clean(self, lo, hi, skip):
        self.executions += 1
        skip = set(skip)
        covered = [s for s in self.seqs if lo <= s <= hi and s not in skip]
        for seq in covered:
            if seq in self.bad:
                raise self._error(seq)
        self.loaded.extend(covered)
        return (len(covered), 0, 0)

    def verdicts(self, lo, hi):
        """The exact verdicts on ``[lo, hi]``: each bad seq's error."""
        return {seq: self._error(seq) for seq in self.seqs
                if lo <= seq <= hi and seq in self.bad}

    def record_tuple_error(self, seq, exc):
        self.tuple_errors.append((seq, exc.kind))

    def record_range_error(self, lo, hi, exc, reason):
        self.range_errors.append((lo, hi, reason))

    def handler(self, max_errors=10**9, max_retries=64):
        return AdaptiveErrorHandler(
            execute_range=self.execute_range,
            record_tuple_error=self.record_tuple_error,
            record_range_error=self.record_range_error,
            max_errors=max_errors,
            max_retries=max_retries)


class TestBasics:
    def test_clean_data_single_statement(self):
        oracle = Oracle(range(100), bad=())
        outcome = oracle.handler().apply(list(range(100)))
        assert outcome.statements == 1
        assert outcome.rows_inserted == 100
        assert oracle.loaded == list(range(100))

    def test_empty_input(self):
        oracle = Oracle([], bad=())
        outcome = oracle.handler().apply([])
        assert outcome.statements == 0

    def test_single_bad_tuple_isolated(self):
        oracle = Oracle(range(8), bad={5})
        outcome = oracle.handler().apply(list(range(8)))
        assert outcome.tuple_errors == 1
        assert sorted(oracle.loaded) == [0, 1, 2, 3, 4, 6, 7]
        assert oracle.tuple_errors == [(5, "conversion")]

    def test_all_bad(self):
        oracle = Oracle(range(4), bad=set(range(4)))
        outcome = oracle.handler().apply(list(range(4)))
        assert outcome.tuple_errors == 4
        assert oracle.loaded == []

    def test_uniqueness_kind_preserved(self):
        oracle = Oracle(range(4), bad={2}, uniqueness={2})
        oracle.handler().apply(list(range(4)))
        assert oracle.tuple_errors == [(2, "uniqueness")]

    def test_processing_order_is_input_order(self):
        oracle = Oracle(range(16), bad={3, 9})
        oracle.handler().apply(list(range(16)))
        assert oracle.loaded == sorted(oracle.loaded)


class TestFigure6Trace:
    """The exact paper scenario: 5 rows, rows 2-3 bad, row 4 bad (dup),
    max_errors=2."""

    def test_max_errors_2(self):
        seqs = [1, 2, 3, 4, 5]
        oracle = Oracle(seqs, bad={2, 3, 4}, uniqueness={4})
        outcome = oracle.handler(max_errors=2).apply(seqs)
        # Rows 2 and 3 recorded individually; range (4, 5) recorded as
        # one error and NOT split, so row 5 is skipped despite being good.
        assert oracle.tuple_errors == [(2, "conversion"),
                                       (3, "conversion")]
        assert oracle.range_errors == [(4, 5, "max_errors")]
        assert oracle.loaded == [1]
        assert outcome.budget_exhausted


class TestLimits:
    def test_max_retries_records_range(self):
        seqs = list(range(16))
        oracle = Oracle(seqs, bad={7})
        outcome = oracle.handler(max_retries=1).apply(seqs)
        # Only one split allowed: the failing half is reported as a range.
        assert outcome.range_errors >= 1
        assert all(reason == "max_retries"
                   for _, _, reason in oracle.range_errors)
        # The clean half still loaded.
        assert set(oracle.loaded) >= set(range(8, 16))

    def test_max_retries_zero_records_whole_input(self):
        seqs = list(range(8))
        oracle = Oracle(seqs, bad={0})
        oracle.handler(max_retries=0).apply(seqs)
        assert oracle.range_errors == [(0, 7, "max_retries")]
        assert oracle.loaded == []

    def test_chunks_after_budget_still_attempted(self):
        """Budget exhaustion stops *splitting*, not execution: later
        clean chunks still load wholesale."""
        seqs = list(range(64))
        oracle = Oracle(seqs, bad={1})
        outcome = oracle.handler(max_errors=1).apply(seqs)
        assert outcome.budget_exhausted
        assert set(oracle.loaded) == set(range(64)) - {1}


@given(
    st.integers(min_value=1, max_value=60).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(0, n - 1), max_size=n))))
def test_exhaustive_splitting_property(case):
    """With no limits: every good tuple loads exactly once, every bad
    tuple is recorded exactly once, regardless of error placement."""
    n, bad = case
    seqs = list(range(n))
    oracle = Oracle(seqs, bad=bad)
    outcome = oracle.handler().apply(seqs)
    assert sorted(oracle.loaded) == sorted(set(seqs) - bad)
    assert len(oracle.loaded) == len(set(oracle.loaded))
    assert {s for s, _ in oracle.tuple_errors} == bad
    assert outcome.range_errors == 0
    # At most O(k log n + n/k)-ish executions; loose sanity bound.
    assert oracle.executions <= 4 * max(len(bad), 1) * (n.bit_length() + 1)
