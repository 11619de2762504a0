"""The verdict route is halving's outcome, reached with fewer
statements.

A failed apply statement's bad rows are decided by one set-oriented
pass (:class:`repro.dq.compiler.ApplyLocatePass`): the range is then one
INSERT over the rows halving would load plus one write per error table
(the verdict route), under any ``max_errors`` budget.  The oracle is the
same job with no ``locate``: the recursive halving of paper Section 7,
which also runs whatever the verdicts do not decide.  Target, ET, UV
and every :class:`ApplySummary` counter but ``statements``/``splits``
must match, whatever the faults, the ``max_errors``/``max_retries``
bounds, the uniqueness mode or the evaluator (the vector engine or one
forced onto its row interpreter).
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.beta import SEQ_COLUMN, ApplyRun, Beta
from repro.core.config import HyperQConfig
from repro.core.jobs import create_staging_table
from repro.dq.compiler import ApplyLocatePass
from repro.errors import (HYPERQ_MAX_ERRORS_REACHED, HYPERQ_UNIQUENESS_ERROR,
                          CdwError)
from repro.legacy.types import FieldDef, Layout, parse_type

from tests.cdw.oracles import row_interpreter
from tests.core.test_errorhandling import Oracle

LAYOUT = Layout("L", [
    FieldDef("K", parse_type("varchar(8)")),
    FieldDef("N", parse_type("varchar(12)")),
    FieldDef("D", parse_type("varchar(10)")),
    FieldDef("A", parse_type("varchar(6)")),
])
INSERT_SQL = ("insert into TGT values (trim(:K), trim(:N), "
              "cast(:D as DATE format 'YYYY-MM-DD'), cast(:A as INT))")
STRIDE = HyperQConfig().seq_stride
#: records per staged chunk: seqs have gaps, as in a real job.
CHUNK = 7
#: keys already in the target before the job runs.
TARGET_KEYS = ("T1", "T2")

FAULTS = ("clean", "clean", "clean", "bad_date", "bad_int", "null_name",
          "long_name", "dup", "dup_target", "null_key", "padded_dup",
          # messages the ET quotes: a ':' inside the value, which
          # ``_first_clause`` cuts at, and the '...' form past 24 chars
          "colon_name", "colon_date", "longer_name",
          # two flaws: the first in evaluation order wins
          "dup_bad_date", "null_name_long_key", "bad_date_bad_int",
          # the second unique key (``two_keys``): a row that loses on
          # one key claims neither
          "dup_amount")


def make_rows(faults: list, picks: list) -> list:
    """Staged rows for a fault list; ``picks`` choose which earlier row
    a duplicate copies (any row, a bad one included)."""
    rows = []
    for i, (fault, pick) in enumerate(zip(faults, picks)):
        key = f"K{i}"
        name, date, amount = "n", "2020-01-02", str(i)
        if fault == "bad_date":
            date = "2020-13-45"
        elif fault == "bad_int":
            amount = "1x2"
        elif fault == "null_name":
            name = None
        elif fault == "long_name":
            name = "x" * 12
        elif fault in ("dup", "padded_dup") and i:
            key = rows[pick % i][0]
            if fault == "padded_dup" and key is not None:
                key = f" {key.strip()} "
        elif fault == "dup_target":
            key = TARGET_KEYS[pick % len(TARGET_KEYS)]
        elif fault == "null_key":
            key = None
        elif fault == "colon_name":
            name = "ab:cd:efghij"
        elif fault == "colon_date":
            date = "2020:01:02"
        elif fault == "longer_name":
            name = "y" * 30
        elif fault == "dup_bad_date" and i:
            key, date = rows[pick % i][0], "2020-13-45"
        elif fault == "null_name_long_key":
            key, name = f"LONG{i:04d}", None
        elif fault == "bad_date_bad_int":
            date, amount = "2020-13-45", "1x2"
        elif fault == "dup_amount" and i:
            amount = rows[pick % i][3]
        rows.append((key, name, date, amount))
    return rows


def seq_of(i: int) -> int:
    return (i // CHUNK) * STRIDE + i % CHUNK


def build(rows, *, interpreter, native_unique, two_keys):
    engine = CdwEngine(store=CloudStore(), native_unique=native_unique)
    if interpreter:
        row_interpreter(engine)
    engine.execute(
        "CREATE TABLE TGT (K NVARCHAR(6), N NVARCHAR(8) NOT NULL, "
        "D DATE, A INT, UNIQUE (K)"
        + (", UNIQUE (A))" if two_keys else ")"))
    for i, key in enumerate(TARGET_KEYS):
        engine.execute(f"INSERT INTO TGT VALUES ('{key}', 'old', NULL, "
                       f"{-1 - i})")
    create_staging_table(engine, "STG", LAYOUT)
    engine.table("STG").rows = [
        row + (seq_of(i),) for i, row in enumerate(rows)]
    engine.execute("CREATE TABLE ET (SEQNO INT, ERRCODE INT, "
                   "ERRFIELD NVARCHAR(128), ERRMSG NVARCHAR(512), "
                   "__RULE_ID NVARCHAR(64), __REASON NVARCHAR(256))")
    engine.execute("CREATE TABLE UV (K NVARCHAR(6), N NVARCHAR(8), "
                   "D DATE, A INT, SEQNO INT, ERRCODE INT)")
    return engine


def run_job(rows, *, locate=True, max_errors=10**9, max_retries=64,
            interpreter=False, native_unique=True, two_keys=False):
    """Apply the staged rows with the compiled pass (its verdicts are
    returned as ``hints``), or by halving alone when ``locate`` is
    false."""
    engine = build(rows, interpreter=interpreter,
                   native_unique=native_unique, two_keys=two_keys)
    beta = Beta(engine, HyperQConfig())
    engine.table("STG").set_sorted(SEQ_COLUMN)
    chunks = {c: min(CHUNK, len(rows) - c * CHUNK)
              for c in range((len(rows) + CHUNK - 1) // CHUNK)}
    run = ApplyRun(beta, sql=INSERT_SQL, layout=LAYOUT,
                   staging_table="STG", target_table="TGT",
                   et_table="ET", uv_table="UV", chunk_records=chunks,
                   max_errors=max_errors, max_retries=max_retries)
    hints = []
    real = run._handler.locate
    run._handler.locate = (lambda lo, hi: hints.append(
        real(lo, hi)) or hints[-1]) if locate else None
    run.apply_seq_range(None, None)
    summary = run.finish()
    tables = {name: list(engine.table(name).rows)
              for name in ("TGT", "ET", "UV")}
    return tables, summary, run.outcome, hints


def counters(summary, outcome) -> dict:
    keep = {k: v for k, v in vars(summary).items()
            if k not in ("statements", "splits")}
    keep.update(tuple_errors=outcome.tuple_errors,
                range_errors=outcome.range_errors,
                budget_exhausted=outcome.budget_exhausted)
    return keep


def skipped_ranges(et_rows) -> "list[range]":
    """The row numbers of each 9057 range in the ET rows."""
    return [range(int(lo), int(hi) + 1) for row in et_rows
            if row[1] == HYPERQ_MAX_ERRORS_REACHED
            for lo, hi in re.findall(r"\((\d+), (\d+)\)", row[3])]


def winner_skipped(verdicts, et_rows) -> bool:
    """Whether a uniqueness loser's winner lies in a 9057 range of the
    halving outcome that the loser is not in: halving finds the loser
    clean then, and the verdict route falls back to it."""
    ranges = skipped_ranges(et_rows)

    def holder(seq):
        rownum = seq // STRIDE * CHUNK + seq % STRIDE + 1
        return next((r for r in ranges if rownum in r), None)

    for seq, error in verdicts.items():
        winner = getattr(error, "winner", None)
        if winner is not None and holder(winner) not in (None, holder(seq)):
            return True
    return False


@st.composite
def jobs(draw):
    n = draw(st.integers(1, 40))
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=n,
                           max_size=n))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    bad = sum(f != "clean" for f in faults)
    return {
        "rows": make_rows(faults, picks),
        "max_errors": draw(st.one_of(
            st.sampled_from((1, 2, 3, 10**9)), st.integers(1, bad + 2))),
        "max_retries": draw(st.one_of(st.just(64), st.integers(0, 6))),
        "interpreter": draw(st.booleans()),
        "native_unique": draw(st.booleans()),
        "two_keys": draw(st.booleans()),
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jobs())
def test_verdict_route_matches_halving(job):
    options = {k: job[k] for k in ("max_errors", "max_retries",
                                   "interpreter", "native_unique",
                                   "two_keys")}
    rows = job["rows"]
    want, want_summary, want_outcome, _ = run_job(
        rows, locate=False, **options)
    got, summary, outcome, hints = run_job(rows, **options)
    assert got == want
    assert counters(summary, outcome) == \
        counters(want_summary, want_outcome)

    # A range is located only when its first statement fails and
    # halving would not cut it at ``max_retries``.  Where no fallback
    # condition holds — no key the target holds (those are left to
    # halving), no loser whose winner halving skips — the verdict route
    # ran: the failed statement and the clean rows' INSERT, whatever the
    # number of bad rows or the budget.  Within the budget, the verdicts
    # name exactly the rows halving records.
    n = len(rows)
    routable = 2 <= n <= 2 ** options["max_retries"]
    in_target = any(r[0] is not None and r[0].strip() in TARGET_KEYS
                    for r in rows)
    if not hints:
        assert not routable or summary.statements == 1
        return
    assert routable and len(hints) == 1
    if in_target or winner_skipped(hints[0], want["ET"]):
        return
    assert (summary.statements, summary.splits) == (2, 0)
    if len(hints[0]) < options["max_errors"]:
        failed = {r[0] for r in want["ET"]} | {r[-2] for r in want["UV"]}
        rownum = {seq_of(i): i + 1 for i in range(n)}
        assert {rownum[s] for s in hints[0]} == failed


def test_clean_job_never_locates():
    rows = make_rows(["clean"] * 20, [0] * 20)
    tables, summary, _, hints = run_job(rows)
    assert hints == [] and summary.statements == 1
    assert len(tables["TGT"]) == 20 + len(TARGET_KEYS)


def _dirty_rows(dups=(10,), picks=None):
    faults = ["clean"] * 30
    for i in (3, 4, 17, 29):
        faults[i] = "bad_date"
    for i in dups:
        faults[i] = "dup"
    return make_rows(faults, picks or [0] * 30)


def test_dirty_job_takes_the_verdict_route():
    """The pass decides the range: the failed INSERT, one INSERT of the
    clean rows, one write per error table and three SELECTs (verdicts,
    keys, the UV tuples) — whatever the number of bad rows."""
    picks = [0] * 30
    picks[21], picks[25] = 5, 14
    rows = _dirty_rows(dups=(10, 21, 25), picks=picks)
    engine = build(rows, interpreter=False, native_unique=True,
                   two_keys=False)
    engine.table("STG").set_sorted(SEQ_COLUMN)
    run = ApplyRun(Beta(engine, HyperQConfig()), sql=INSERT_SQL,
                   layout=LAYOUT, staging_table="STG", target_table="TGT",
                   et_table="ET", uv_table="UV",
                   chunk_records={c: CHUNK for c in range(5)},
                   max_errors=10, max_retries=8)
    before = dict(engine.statement_counts)
    run.apply_seq_range(None, None)
    summary = run.finish()
    ran = {kind: count - before.get(kind, 0)
           for kind, count in engine.statement_counts.items()
           if count > before.get(kind, 0)}
    assert (summary.statements, summary.splits) == (2, 0)
    assert ran == {"Insert": 2 + 2, "Select": 3}
    assert (summary.et_errors, summary.uv_errors) == (4, 3)
    assert [row[0] for row in engine.table("ET").rows] == [4, 5, 18, 30]
    # UV rows in seq order, each with its own row's converted tuple
    assert [row[-2:] for row in engine.table("UV").rows] == [
        (11, HYPERQ_UNIQUENESS_ERROR), (22, HYPERQ_UNIQUENESS_ERROR),
        (26, HYPERQ_UNIQUENESS_ERROR)]
    assert [row[0] for row in engine.table("UV").rows] == \
        [rows[i][0] for i in (10, 21, 25)] == ["K0", "K5", "K14"]
    assert [row[3] for row in engine.table("UV").rows] == [10, 21, 25]


@pytest.mark.parametrize("write_fails", [False, True])
def test_an_apply_fault_is_not_masked(write_fails):
    """A fault that ends a range (an engine or lock error, not a row's
    data error) propagates as itself: the error rows found before it
    are written, and when that write fails too, its error is a note on
    the fault, never the exception raised."""
    engine = build(_dirty_rows(), interpreter=False, native_unique=True,
                   two_keys=False)
    engine.table("STG").set_sorted(SEQ_COLUMN)
    run = ApplyRun(Beta(engine, HyperQConfig()), sql=INSERT_SQL,
                   layout=LAYOUT, staging_table="STG", target_table="TGT",
                   et_table="ET", uv_table="UV",
                   chunk_records={c: CHUNK for c in range(5)},
                   max_errors=10**9, max_retries=8)
    run._handler.locate = None      # halving records errors as it goes
    execute = run._handler.execute_range

    def faulty(lo, hi):
        if run.outcome.tuple_errors:
            raise CdwError("staging lock lost")
        return execute(lo, hi)

    run._handler.execute_range = faulty
    if write_fails:
        engine.execute("DROP TABLE ET")
    with pytest.raises(CdwError, match="staging lock lost") as info:
        run.apply_seq_range(None, None)
    if write_fails:
        assert any("error-table write also failed" in note
                   for note in info.value.__notes__)
    else:
        assert [row[0] for row in engine.table("ET").rows] == [4]


def test_a_row_that_loses_one_key_claims_no_other():
    """With two unique keys, a row losing on K is not inserted, so a
    later row holding its A wins A — and the verdicts say so."""
    faults = ["clean"] * 8
    faults[3], faults[6] = "dup", "dup_amount"
    rows = make_rows(faults, [0, 0, 0, 1, 0, 0, 3, 0])
    assert rows[3][0] == rows[1][0] and rows[6][3] == rows[3][3]
    tables, summary, _, hints = run_job(rows, two_keys=True)
    assert [list(h) for h in hints] == [[seq_of(3)]]
    assert hints[0][seq_of(3)].winner == seq_of(1)
    assert summary.statements == 2
    assert [row[-2] for row in tables["UV"]] == [4]
    assert tables == run_job(rows, locate=False, two_keys=True)[0]


def test_a_key_the_target_holds_is_left_to_halving():
    faults = ["clean"] * 16
    faults[5] = "dup_target"
    faults[11] = "bad_date"
    rows = make_rows(faults, [0] * 16)
    tables, summary, _, hints = run_job(rows)
    assert [len(h) for h in hints] == [1]
    assert summary.splits > 0
    assert (summary.et_errors, summary.uv_errors) == (1, 1)
    assert tables == run_job(rows, locate=False)[0]


def test_an_insert_the_pass_cannot_cover_compiles_once(monkeypatch):
    compiled = []

    def uncoverable(statement, target, staging):
        compiled.append(statement)
        return None

    monkeypatch.setattr(ApplyLocatePass, "compile",
                        staticmethod(uncoverable))
    faults = ["clean"] * 21
    faults[2] = faults[16] = "bad_date"
    rows = make_rows(faults, [0] * 21)
    engine = build(rows, interpreter=False, native_unique=True,
                   two_keys=False)
    engine.table("STG").set_sorted(SEQ_COLUMN)
    run = ApplyRun(Beta(engine, HyperQConfig()), sql=INSERT_SQL,
                   layout=LAYOUT, staging_table="STG", target_table="TGT",
                   et_table="ET", uv_table="UV",
                   chunk_records={0: 7, 1: 7, 2: 7},
                   max_errors=10, max_retries=8)
    for chunk in range(3):
        run.apply_seq_range(seq_of(chunk * CHUNK),
                            seq_of(chunk * CHUNK + CHUNK - 1))
    summary = run.finish()
    assert len(compiled) == 1
    assert summary.et_errors == 2 and summary.splits > 0


@pytest.mark.parametrize("sql", [
    "update TGT set N = :N where TGT.K = :K",
    "delete from TGT where TGT.K = :K",
    "update TGT set N = :N where TGT.K = :K "
    "else insert into TGT values (:K, :N, NULL, NULL)",
])
def test_other_dml_kinds_only_halve(sql):
    engine = build(make_rows(["clean"], [0]), interpreter=False,
                   native_unique=True, two_keys=False)
    run = ApplyRun(Beta(engine, HyperQConfig()), sql=sql, layout=LAYOUT,
                   staging_table="STG", target_table="TGT",
                   et_table="ET", uv_table="UV", chunk_records={0: 1},
                   max_errors=10, max_retries=8)
    assert run._handler.locate is None


def _handler_run(n, bad, max_errors, max_retries, route):
    """The handler alone on a scripted executor: halving, or the verdict
    route with the oracle's exact verdicts."""
    oracle = Oracle(range(n), bad=bad)
    handler = oracle.handler(max_errors=max_errors, max_retries=max_retries)
    if route:
        handler.locate = oracle.verdicts
        handler.execute_clean = oracle.execute_clean
    outcome = handler.apply(list(range(n)))
    return oracle, outcome


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 80), st.data())
def test_handler_matches_halving_under_any_budget(n, data):
    """Any bad rows, any bounds: the same loads and the same tuple and
    range errors, in the same order, as halving — in two statements
    whenever halving would split the whole range without reaching
    ``max_retries``."""
    bad = data.draw(st.sets(st.integers(0, n - 1)))
    max_errors = data.draw(st.one_of(st.sampled_from((1, 2, 3, 10**9)),
                                     st.integers(1, len(bad) + 3)))
    max_retries = data.draw(st.integers(0, 8))

    def run(route):
        oracle, outcome = _handler_run(n, bad, max_errors, max_retries,
                                       route)
        return oracle, outcome, (
            oracle.loaded, oracle.tuple_errors, oracle.range_errors,
            outcome.rows_inserted, outcome.tuple_errors,
            outcome.range_errors, outcome.budget_exhausted)

    _, _, want = run(False)
    _, outcome, got = run(True)
    assert got == want
    if bad and 2 <= n <= 2 ** max_retries:
        assert (outcome.statements, outcome.splits) == (2, 0)


def test_verdicts_past_the_budget_take_the_route():
    """More verdicts than ``max_errors`` allows: the route records them
    up to the one that exhausts the budget, then a 9057 range for each
    range halving would still hold that holds a verdict, with no split
    and halving's outcome."""
    bad = {3, 9, 20, 21, 40, 55}
    want, halved = _handler_run(64, bad, 3, 8, route=False)
    got, routed = _handler_run(64, bad, 3, 8, route=True)
    assert (got.loaded, got.tuple_errors, got.range_errors) == \
        (want.loaded, want.tuple_errors, want.range_errors)
    assert routed.budget_exhausted
    assert (routed.statements, routed.splits) == (2, 0)
    assert halved.statements > 2


def test_a_one_row_range_past_the_budget_records_its_verdict():
    """Halving checks ``lo == hi`` before the budget: a one-row range
    it still holds records its row's error, not a 9057 range — Figure
    6's shape, where the route keeps the same record order."""
    faults = ["bad_date", "bad_int", "clean", "bad_date"]
    rows = make_rows(faults, [0] * 4)
    tables, summary, _, _ = run_job(rows, max_errors=1)
    assert (summary.statements, summary.splits) == (2, 0)
    assert [(row[0], row[1]) for row in tables["ET"]] == [
        (1, 3103), (2, 3103), (None, HYPERQ_MAX_ERRORS_REACHED)]
    assert "row numbers: (3, 4)" in tables["ET"][2][3]
    assert tables == run_job(rows, locate=False, max_errors=1)[0]


def test_a_loser_whose_winner_is_skipped_is_left_to_halving():
    """Past the budget, halving skips the range holding row 2 (index 2),
    so row 6, its duplicate, is no loser: halving inserts it with the
    rest of its range.  The verdicts call it a loser, so a cut on them
    would skip rows 5-8; the route falls back to halving instead."""
    faults = ["clean"] * 8
    faults[1] = faults[3] = "bad_date"
    faults[5] = "dup"
    rows = make_rows(faults, [0, 0, 0, 0, 0, 2, 0, 0])
    assert rows[5][0] == rows[2][0] == "K2"
    tables, summary, _, hints = run_job(rows, max_errors=1)
    assert hints[0][seq_of(5)].winner == seq_of(2)
    want = run_job(rows, locate=False, max_errors=1)[0]
    assert tables == want
    assert [(row[0], row[1]) for row in want["ET"]] == [
        (2, 3103), (None, HYPERQ_MAX_ERRORS_REACHED)]
    assert "row numbers: (3, 4)" in want["ET"][1][3]
    assert ("K2", "n", 5) in [(r[0], r[1], r[3]) for r in want["TGT"]]
    assert summary.splits > 0
