"""The vector path raises the row path's error itself, once.

A failed set-oriented statement must report exactly what the per-row
interpreter would — the first bad row in the row path's own phase
order (residual WHERE over the whole range, then the select list, then
coercion / NOT NULL), ``BulkExecutionError`` message, ``kind`` and
``field`` included — without re-running the range on rows, and it must
fail *only* where the interpreter does: the vector closures
short-circuit ``AND``/``OR``/``CASE`` like it, so no statement needs a
second run.  Every case runs on a vector engine and on
``CdwEngine(columnar=False)`` (the oracle) and diffs the outcome and the
table state; the work-bound test counts what a failing range costs.
"""

import pytest

from repro.cdw import engine as engine_module
from repro.cdw import stagefile
from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.errors import CdwError

#: ``vector_fallbacks`` of an engine whose every statement ran on vectors
NO_FALLBACKS = {"out_of_scope": 0}

DDL = (
    "CREATE TABLE S (A NVARCHAR(10), B NVARCHAR(10), C NVARCHAR(10), "
    "__SEQ BIGINT)",
    "CREATE TABLE T (X INT, Y INT NOT NULL, Z DATE)",
)


def staged(count=10, **cells):
    """``count`` clean staging rows; ``cells`` overrides single cells,
    e.g. ``a5="bad"`` puts ``'bad'`` in column A of row 5 (``None`` for
    SQL NULL)."""
    rows = [[str(i), str(i), "2020-01-01", i] for i in range(count)]
    for cell, value in cells.items():
        rows[int(cell[1:])]["abc".index(cell[0])] = value
    return [tuple(row) for row in rows]


def make_pair(rows, armed):
    """(vector engine, row-mode oracle) holding the same staging rows."""
    engines = []
    for columnar in (True, False):
        engine = CdwEngine(store=CloudStore(), columnar=columnar)
        for ddl in DDL:
            engine.execute(ddl)
        engine.table("S").append_rows(rows)
        if armed:
            engine.table("S").set_sorted("__SEQ")
        engines.append(engine)
    return engines


def forbid_row_paths(monkeypatch, engine):
    """Make ``engine`` fail any statement that enters a row-interpreter
    executor (the oracle engine keeps its own, unpatched)."""
    for name in ("_select_rows", "_row_insert", "_row_delete"):
        def entered(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} entered")
        monkeypatch.setattr(engine, name, entered)


def outcome(engine, sql):
    """Everything observable about one execution."""
    try:
        result = engine.execute(sql)
    except Exception as exc:  # noqa: BLE001 - diffing error identity
        return (type(exc).__name__, str(exc),
                getattr(exc, "kind", None), getattr(exc, "field", None))
    return ("ok", result.rows, result.rows_inserted, result.rows_deleted)


def assert_same(engines, sql):
    """Both engines agree on ``sql``; returns the shared outcome."""
    vector, oracle = (outcome(engine, sql) for engine in engines)
    assert vector == oracle, f"divergence on: {sql}"
    for table in ("S", "T"):
        state = [list(engine.table(table).rows) for engine in engines]
        assert state[0] == state[1], f"{table} diverged after: {sql}"
    return vector


ARMED = pytest.mark.parametrize(
    "armed", [False, True], ids=["zone-map-off", "zone-map-armed"])

CASTS = ("INSERT INTO T SELECT CAST(A AS INT), CAST(B AS INT), "
         "CAST(C AS DATE) FROM S WHERE __SEQ BETWEEN 0 AND 9")
PLAIN = "INSERT INTO T SELECT A, B, C FROM S WHERE __SEQ BETWEEN 0 AND 9"

#: (case id, staging cells, statement, text the error must contain)
ERROR_CASES = [
    # The vector path evaluates column by column and meets A5 first;
    # the row path goes row by row and meets C2.
    ("later-row-earlier-column", {"a5": "badA5", "c2": "badC2"},
     CASTS, "badC2"),
    ("earlier-row-later-column", {"a2": "badA2", "c5": "badC5"},
     CASTS, "badA2"),
    ("same-row-first-item-wins", {"a4": "badA4", "c4": "badC4"},
     CASTS, "badA4"),
    # WHERE runs over the whole range before any projection.
    ("where-beats-projection-in-lower-row", {"a1": "badA1", "b6": "badB6"},
     "INSERT INTO T SELECT CAST(A AS INT), 1, NULL FROM S "
     "WHERE __SEQ BETWEEN 0 AND 9 AND CAST(B AS INT) >= 0", "badB6"),
    # ...and every projection before any coercion.
    ("projection-beats-coercion-in-lower-row", {"a7": "badA7", "c1": "badC1"},
     "INSERT INTO T SELECT CAST(A AS INT), B, C FROM S "
     "WHERE __SEQ BETWEEN 0 AND 9", "badA7"),
    ("coercion-first-row-wins", {"a6": "badA6", "c3": "badC3"},
     PLAIN, "badC3"),
    ("not-null-vs-coercion-same-row", {"b3": None, "c3": "badC3"},
     PLAIN, "NULL in NOT NULL column Y"),
    ("coercion-vs-not-null-same-row", {"a3": "badA3", "b3": None},
     PLAIN, "badA3"),
    ("coercion-row-before-not-null-row", {"b4": None, "c2": "badC2"},
     PLAIN, "badC2"),
    ("not-null-row-before-coercion-row", {"b2": None, "c4": "badC4"},
     PLAIN, "NULL in NOT NULL column Y"),
    ("one-row-range", {"c3": "badC3"},
     "INSERT INTO T SELECT A, B, C FROM S WHERE __SEQ BETWEEN 3 AND 3",
     "badC3"),
    # A residual WHERE hands the projection a GatherBatch: the bad cell
    # of a filtered-out row must not surface, a kept row's must.
    ("gathered-input", {"b2": "drop", "c2": "badC2", "c6": "badC6"},
     "INSERT INTO T SELECT CAST(A AS INT), 1, CAST(C AS DATE) FROM S "
     "WHERE __SEQ BETWEEN 0 AND 9 AND B <> 'drop'", "badC6"),
    ("delete-mask", {"a2": "badA2", "a7": "badA7"},
     "DELETE FROM S WHERE __SEQ BETWEEN 1 AND 8 AND CAST(A AS INT) > 4",
     "badA2"),
    ("column-list", {"a5": "badA5", "c2": "badC2"},
     "INSERT INTO T (Z, Y, X) SELECT C, B, A FROM S "
     "WHERE __SEQ BETWEEN 0 AND 9", "badC2"),
]


@ARMED
@pytest.mark.parametrize(
    "cells,sql,expected", [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES])
def test_failed_statement_raises_the_row_paths_error(
        cells, sql, expected, armed):
    engines = make_pair(staged(**cells), armed)
    kind, message, error_kind, _field = assert_same(engines, sql)
    assert kind == "BulkExecutionError" and expected in message
    assert error_kind == "conversion"
    assert engines[0].vector_fallbacks == NO_FALLBACKS


#: (case id, staging cells, statement) — nothing may fail
CLEAN_CASES = [
    ("filtered-out-bad-row", {"b2": "drop", "c2": "badC2"},
     "INSERT INTO T SELECT CAST(A AS INT), 1, CAST(C AS DATE) FROM S "
     "WHERE __SEQ BETWEEN 0 AND 9 AND B <> 'drop'"),
    ("one-row-range-beside-bad-row", {"c3": "badC3"},
     "INSERT INTO T SELECT A, B, C FROM S WHERE __SEQ BETWEEN 4 AND 4"),
    ("empty-range", {"c3": "badC3"},
     "INSERT INTO T SELECT A, B, C FROM S WHERE __SEQ BETWEEN 50 AND 60"),
    # A constant that cannot be cast raises for every row — and for
    # none when there is no row.
    ("empty-range-bad-constant", {},
     "INSERT INTO T SELECT CAST('q' AS INT), 1, NULL FROM S "
     "WHERE __SEQ BETWEEN 50 AND 60"),
]


@ARMED
@pytest.mark.parametrize(
    "cells,sql", [case[1:] for case in CLEAN_CASES],
    ids=[case[0] for case in CLEAN_CASES])
def test_rows_outside_the_statement_do_not_fail_it(cells, sql, armed):
    engines = make_pair(staged(**cells), armed)
    assert assert_same(engines, sql)[0] == "ok"
    assert engines[0].vector_fallbacks == NO_FALLBACKS


@ARMED
def test_empty_range_delete(armed, monkeypatch):
    """Armed, the zone map slices the range away and nothing is
    evaluated; disarmed, ``__SEQ BETWEEN`` is just the left side of an
    ``AND`` whose right side no row reaches."""
    engines = make_pair(staged(a2="badA2"), armed)
    forbid_row_paths(monkeypatch, engines[0])
    assert assert_same(
        engines, "DELETE FROM S WHERE __SEQ BETWEEN 50 AND 60 "
                 "AND CAST(A AS INT) > 4")[0] == "ok"
    assert engines[0].vector_fallbacks == NO_FALLBACKS


@ARMED
@pytest.mark.parametrize("sql", [
    "SELECT A FROM S WHERE A <> 'x' AND CAST(A AS INTEGER) > 0",
    # (one conjunct: the zone-map rewrite reorders top-level ANDs)
    "INSERT INTO T SELECT __SEQ, 1, NULL FROM S WHERE __SEQ BETWEEN 0 "
    "AND 9 AND (A = 'x' OR CAST(A AS INTEGER) > 0)",
    "DELETE FROM S WHERE A <> 'x' AND CAST(A AS INTEGER) > 4",
    "SELECT CASE WHEN A = 'x' THEN 0 ELSE CAST(A AS INT) END FROM S",
    # The inner AND reaches every row and raises; the outer OR must
    # recover by asking it again without row 3.
    "SELECT A FROM S WHERE A = 'x' OR (A <> 'y' AND CAST(A AS INTEGER) >= 0)",
    # ...and here each side of the OR guards its own cast.
    "SELECT A FROM S WHERE (A <> 'x' AND CAST(A AS INTEGER) >= 0) "
    "OR (A = 'x' OR CAST(A AS INTEGER) < 0)",
    "SELECT CASE WHEN A = 'x' THEN -1 WHEN CAST(A AS INT) > 4 THEN 1 "
    "ELSE 0 END FROM S",
    "SELECT CASE WHEN __SEQ >= 0 THEN 1 ELSE CAST(A AS INT) END FROM S",
    "SELECT A FROM S WHERE 1 = 1 OR CAST(A AS INTEGER) > 0",
    "DELETE FROM S WHERE 1 = 0 AND CAST(A AS INTEGER) > 0",
    # No row needs the right operand, so its uncastable constant is
    # never evaluated.
    "SELECT A FROM S WHERE __SEQ >= 0 OR CAST('q' AS INT) > 0",
    "SELECT CASE WHEN __SEQ >= 0 THEN 1 ELSE CAST('q' AS INT) END FROM S",
], ids=["select", "insert", "delete", "case-arm", "and-inside-or",
        "guard-on-each-side", "case-condition", "case-else-unreached",
        "constant-left-or", "constant-left-and", "constant-operand-no-rows",
        "constant-else-unreached"])
def test_spurious_eager_error_succeeds_and_is_counted(
        sql, armed, monkeypatch):
    """Eager evaluation would cast the ``'x'`` the interpreter
    short-circuits past; the statement must succeed, on vectors — the
    count of statements re-run on rows stays zero."""
    engines = make_pair(staged(a3="x"), armed)
    forbid_row_paths(monkeypatch, engines[0])
    assert assert_same(engines, sql)[0] == "ok"
    assert engines[0].vector_fallbacks == NO_FALLBACKS


@ARMED
def test_spurious_row_before_a_real_error(armed, monkeypatch):
    """Row 3 would only fail eagerly; row 6 fails for the interpreter
    too."""
    engines = make_pair(staged(a3="x", a6="badA6"), armed)
    forbid_row_paths(monkeypatch, engines[0])
    result = assert_same(
        engines,
        "INSERT INTO T SELECT __SEQ, 1, NULL FROM S WHERE __SEQ BETWEEN 0 "
        "AND 9 AND (A = 'x' OR CAST(A AS INTEGER) > 0)")
    assert result[0] == "BulkExecutionError" and "badA6" in result[1]
    assert engines[0].vector_fallbacks == NO_FALLBACKS


@ARMED
@pytest.mark.parametrize("sql,expected", [
    ("SELECT CASE WHEN A = 'x' THEN -1 WHEN CAST(A AS INT) > 4 THEN 1 "
     "END FROM S", "badA6"),
    ("SELECT CASE WHEN A = 'x' THEN 0 ELSE CAST(A AS INT) END FROM S",
     "badA6"),
    ("SELECT A FROM S WHERE A = 'x' OR (A <> 'y' AND CAST(A AS INT) >= 0)",
     "badA6"),
    # Rows 0-4 need the constant operand: it fails the statement.
    ("SELECT A FROM S WHERE __SEQ >= 5 OR CAST('q' AS INT) > 0", "'q'"),
], ids=["case-condition", "case-else", "and-inside-or", "constant-operand"])
def test_guarded_operand_still_fails_on_the_rows_that_reach_it(
        sql, expected, armed, monkeypatch):
    engines = make_pair(staged(a3="x", a6="badA6"), armed)
    forbid_row_paths(monkeypatch, engines[0])
    kind, message, _, _ = assert_same(engines, sql)
    assert kind == "ExpressionError" and expected in message
    assert engines[0].vector_fallbacks == NO_FALLBACKS


@ARMED
@pytest.mark.parametrize("cells,sql,expected", [
    ({"a5": "badA5", "c2": "badC2"},
     "SELECT CAST(A AS INT), CAST(C AS DATE) FROM S", "badC2"),
    ({"a2": "badA2", "b6": "badB6"},
     "SELECT CAST(A AS INT) FROM S WHERE CAST(B AS INT) >= 0", "badB6"),
    ({"a2": "badA2", "b6": "badB6"},
     "SELECT B FROM S ORDER BY CAST(B AS INT), CAST(A AS INT)", "badA2"),
    ({"a2": "badA2", "b6": "badB6"},
     "SELECT COUNT(*) FROM S GROUP BY CAST(A AS INT), CAST(B AS INT)",
     "badA2"),
    # Groups are visited in key order: C = '1999…' sorts before the
    # rest, so row 7's error comes before row 1's.
    ({"a1": "badA1", "a7": "badA7", "c7": "1999-01-01"},
     "SELECT C, SUM(CAST(A AS INT)) FROM S GROUP BY C", "badA7"),
    ({"a5": "badA5", "b2": "badB2"},
     "SELECT SUM(CAST(A AS INT)), SUM(CAST(B AS INT)) FROM S", "badA5"),
], ids=["projection", "where-first", "order-by", "group-keys",
        "aggregate-group-order", "aggregate-item-order"])
def test_failed_select_raises_the_row_paths_error(
        cells, sql, expected, armed):
    engines = make_pair(staged(**cells), armed)
    kind, message, _, _ = assert_same(engines, sql)
    assert kind == "ExpressionError" and expected in message
    assert engines[0].vector_fallbacks == NO_FALLBACKS


def test_plain_group_item_only_sees_the_first_row_of_its_group(monkeypatch):
    """``CAST(A AS INT)`` beside an aggregate is evaluated on a group's
    first row only; a bad cell further down fails nothing."""
    rows = staged(a6="badA6", b6="5", b7="5", a7="badA7")
    engines = make_pair(rows, armed=False)
    forbid_row_paths(monkeypatch, engines[0])
    for sql in ("SELECT CAST(A AS INT), COUNT(*) FROM S",
                "SELECT B, CAST(A AS INT), SUM(__SEQ) FROM S GROUP BY B"):
        assert assert_same(engines, sql)[0] == "ok"
    assert engines[0].vector_fallbacks == NO_FALLBACKS


def test_bad_first_row_of_a_later_group_fails_the_select(monkeypatch):
    engines = make_pair(staged(a6="badA6", b7="6", a2="badA2", b2="1"),
                        armed=False)
    forbid_row_paths(monkeypatch, engines[0])
    kind, message, _, _ = assert_same(
        engines, "SELECT B, CAST(A AS INT), SUM(__SEQ) FROM S GROUP BY B")
    assert kind == "ExpressionError" and "badA6" in message


@pytest.mark.parametrize("rows,expected", [
    ([("1", "2", "2020-01-01"), ("2", "3", "badZ1"),
      ("badX2", "4", "2020-01-01")], "badZ1"),
    ([("1", "2", "2020-01-01"), ("badX1", None, "2020-01-01"),
      ("3", None, "2020-01-01")], "badX1"),
    ([("1", "2", "2020-01-01"), ("2", None, "badZ1")],
     "NULL in NOT NULL column Y"),
], ids=["first-row-wins", "coercion-before-not-null", "not-null"])
def test_copy_raises_the_row_paths_error(rows, expected):
    engines = make_pair([], armed=False)
    data = stagefile.compress(stagefile.encode_csv_rows(rows))
    for engine in engines:
        engine.store.create_container("stage")
        engine.store.put_blob("stage", "job/p0.csv.gz", data)
    kind, message, _, _ = assert_same(
        engines, "COPY INTO T FROM 'store://stage/job/' FORMAT csv")
    assert kind == "BulkExecutionError" and expected in message
    assert engines[0].vector_fallbacks == NO_FALLBACKS


def test_failing_range_binds_one_row_context(monkeypatch):
    """The Fig 11 cost model: a failing ranged INSERT..SELECT over 4 096
    staged rows is one vector pass plus one interpreted row."""
    rows = staged(4096, c3000="badC3000")
    vector, oracle = make_pair(rows, armed=True)
    sql = ("INSERT INTO T SELECT CAST(A AS INT), CAST(B AS INT), "
           "TO_DATE(C, 'YYYY-MM-DD') FROM S "
           "WHERE __SEQ BETWEEN 0 AND 4095")
    expected = outcome(oracle, sql)
    assert expected[0] == "BulkExecutionError" and "badC3000" in expected[1]

    contexts = []
    selects = []

    class CountingContext(engine_module.RowContext):
        def __init__(self, *args, **kwargs):
            contexts.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_module, "RowContext", CountingContext)
    for name in ("_run_select", "_select_rows"):
        original = getattr(CdwEngine, name)
        monkeypatch.setattr(
            CdwEngine, name,
            lambda self, *args, _original=original, _name=name:
            selects.append(_name) or _original(self, *args))

    assert outcome(vector, sql) == expected
    assert len(contexts) <= 1
    assert selects == []
    assert vector.vector_fallbacks == NO_FALLBACKS
    assert vector.table("T").row_count == 0


def test_a_located_row_the_interpreter_accepts_is_a_loud_error(monkeypatch):
    """The closures raise only where the interpreter does.  Break that
    (a closure that rejects every batch) and the statement must fail
    naming the disagreement, not quietly succeed some other way."""
    vector, _ = make_pair(staged(), armed=False)

    def always_raises(expr, layout, binding_upper):
        def closure(batch):
            raise engine_module.ExpressionError("eager only")
        return closure

    monkeypatch.setattr(engine_module, "compile_vector", always_raises)
    with pytest.raises(CdwError, match="vector evaluation raised .*eager "
                                       "only.* interpreter accepts"):
        vector.execute("SELECT A FROM S WHERE __SEQ >= 0")
    assert vector.vector_fallbacks == NO_FALLBACKS
