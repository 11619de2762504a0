"""The verdict route and located apply are halving's outcome, reached
with fewer statements.

A failed apply statement's bad rows are decided by one set-oriented
pass (:class:`repro.dq.compiler.ApplyLocatePass`): the range is then one
INSERT over its clean rows plus one write per error table (the verdict
route), or — when the verdicts are not usable, or the locator only
hints — applied around the suspects (located apply).  The oracle is the
same job with no ``locate``: the recursive halving of paper Section 7.
Target, ET, UV and every :class:`ApplySummary` counter but
``statements``/``splits`` must match, whatever the faults, the
``max_errors``/``max_retries`` bounds, the evaluator (the vector engine
or one forced onto its row interpreter) — and whatever the locate pass
says: a lying hint may cost statements, never a different table.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.beta import SEQ_COLUMN, ApplyRun, Beta
from repro.core.config import HyperQConfig
from repro.core.errorhandling import Verdicts
from repro.core.jobs import create_staging_table
from repro.dq.compiler import ApplyLocatePass
from repro.errors import HYPERQ_UNIQUENESS_ERROR, CdwError
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


def run_job(rows, *, locate="real", max_errors=10**9, max_retries=64,
            interpreter=False, native_unique=True, two_keys=False):
    """Apply the staged rows; ``locate`` is ``"real"`` (the compiled
    pass), None (halving only) or ``fn(real_suspects) -> hint``."""
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
    if locate is None:
        run._handler.locate = None
    elif locate != "real":
        real = run._handler.locate
        run._handler.locate = lambda lo, hi: locate(real(lo, hi))
    else:
        real = run._handler.locate
        run._handler.locate = lambda lo, hi: hints.append(
            real(lo, hi)) or hints[-1]
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
            st.just(10**9), st.integers(1, bad + 2))),
        "max_retries": draw(st.one_of(st.just(64), st.integers(0, 6))),
        "interpreter": draw(st.booleans()),
        "native_unique": draw(st.booleans()),
        "two_keys": draw(st.booleans()),
        "lie_seed": draw(st.integers(0, 10**6)),
    }


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jobs())
def test_located_apply_matches_halving(job):
    options = {k: job[k] for k in ("max_errors", "max_retries",
                                   "interpreter", "native_unique",
                                   "two_keys")}
    rows = job["rows"]
    want, want_summary, want_outcome, _ = run_job(
        rows, locate=None, **options)
    got, summary, outcome, hints = run_job(rows, **options)
    assert got == want
    assert counters(summary, outcome) == \
        counters(want_summary, want_outcome)

    # With one unique key and no key the target already holds (those
    # are left to halving), the pass is exact: when the located order
    # ran it split nothing, even past the error budget, and when every
    # suspect fit in the budget it named exactly the rows halving
    # records.
    n = len(rows)
    in_target = any(r[0] is not None and r[0].strip() in TARGET_KEYS
                    for r in rows)
    if hints and not options["two_keys"] and not in_target \
            and n <= 2 ** options["max_retries"]:
        assert summary.splits == 0
        if len(hints[0]) < options["max_errors"]:
            failed = {r[0] for r in want["ET"]} | \
                {r[-2] for r in want["UV"]}
            rownum = {seq_of(i): i + 1 for i in range(n)}
            assert {rownum[s] for s in hints[0]} == failed

    # A lying hint: drop some true suspects, add some clean rows.
    rng = random.Random(job["lie_seed"])
    seqs = [seq_of(i) for i in range(n)]

    def lie(real):
        kept = [s for s in real if rng.random() < 0.6]
        return kept + rng.sample(seqs, rng.randint(0, min(3, n)))

    lied, lied_summary, lied_outcome, _ = run_job(
        rows, locate=lie, **options)
    assert lied == want
    assert counters(lied_summary, lied_outcome) == \
        counters(want_summary, want_outcome)

    # Where no fallback condition holds — no key the target holds, a
    # range halving would not cut at ``max_retries``, verdicts within the
    # error budget — the verdict route ran: the failed statement and the
    # clean rows' INSERT, whatever the number of bad rows.
    if not in_target and n <= 2 ** options["max_retries"] \
            and (not hints or len(hints[0]) < options["max_errors"]):
        assert summary.statements == (2 if hints else 1)
        assert not hints or isinstance(hints[0], Verdicts)


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


def test_dirty_job_runs_one_statement_per_segment_and_suspect():
    """Located apply, the path of a locator that only hints: a plain
    list of the pass's suspects."""
    rows = _dirty_rows()
    tables, summary, _, hints = run_job(rows, locate=list)
    # the failed whole range, then segments [0-2] [5-9] [11-16] [18-28]
    # and one statement per suspect; ET/UV record inserts are not DML
    # statements of the handler
    assert summary.statements == 1 + 4 + 5
    assert summary.splits == 0
    assert (summary.et_errors, summary.uv_errors) == (4, 1)
    assert tables == run_job(rows)[0]


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
    assert isinstance(hints[0], Verdicts) and summary.statements == 2
    assert [row[-2] for row in tables["UV"]] == [4]
    assert tables == run_job(rows, locate=None, two_keys=True)[0]


def test_a_key_the_target_holds_is_left_to_halving():
    faults = ["clean"] * 16
    faults[5] = "dup_target"
    faults[11] = "bad_date"
    rows = make_rows(faults, [0] * 16)
    tables, summary, _, hints = run_job(rows)
    assert [len(h) for h in hints] == [1]
    assert summary.splits > 0
    assert (summary.et_errors, summary.uv_errors) == (1, 1)
    assert tables == run_job(rows, locate=None)[0]


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


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 80), st.data())
def test_handler_matches_halving_under_any_hint(n, data):
    """The handler alone, on a scripted executor: any hint, any bounds,
    the same loads and the same tuple and range errors as halving."""
    bad = data.draw(st.sets(st.integers(0, n - 1)))
    max_errors = data.draw(st.integers(1, len(bad) + 3))
    max_retries = data.draw(st.integers(0, 8))
    hint = sorted(data.draw(st.sets(st.integers(0, n - 1))))

    def run(locate):
        oracle = Oracle(range(n), bad=bad)
        handler = oracle.handler(max_errors=max_errors,
                                 max_retries=max_retries)
        handler.locate = locate
        outcome = handler.apply(list(range(n)))
        return (oracle.loaded, oracle.tuple_errors, oracle.range_errors,
                outcome.rows_inserted, outcome.tuple_errors,
                outcome.range_errors, outcome.budget_exhausted)

    want = run(None)
    assert run(lambda lo, hi: hint) == want
    assert run(lambda lo, hi: sorted(bad)) == want


def test_suspects_past_the_budget_still_run_located():
    """More suspects than ``max_errors`` allows: the located order runs
    up to the suspect that exhausts the budget and then skips the ranges
    halving would still hold, with no split and halving's outcome."""
    bad = {3, 9, 20, 21, 40, 55}

    def run(locate):
        oracle = Oracle(range(64), bad=bad)
        handler = oracle.handler(max_errors=3, max_retries=8)
        handler.locate = locate
        outcome = handler.apply(list(range(64)))
        return oracle, outcome

    want, halved = run(None)
    got, located = run(lambda lo, hi: sorted(bad))
    assert (got.loaded, got.tuple_errors, got.range_errors) == \
        (want.loaded, want.tuple_errors, want.range_errors)
    assert located.budget_exhausted and located.splits == 0
    assert located.statements < halved.statements
