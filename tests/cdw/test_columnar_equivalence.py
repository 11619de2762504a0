"""Vector execution vs the row interpreter: observational equivalence.

Vectorized execution is a pure performance change: for every statement
the vector engine must produce exactly the rows, counts, table states,
*and errors* the row interpreter produces.  These tests drive randomized
statement streams (NULL-heavy data, zone map armed and disarmed)
through a vector engine and one forced onto its row interpreter
(``tests/cdw/oracles.py``), diff everything observable, and hold every
statement of a covered family to stdlib ``sqlite3`` as well.

The streams include guarded casts — ``CAST(AMT AS INT)`` behind an
``OR``/``AND``/``CASE`` guard, or beside an aggregate — where the
interpreter only fails on the rows the guard lets through: the vector
closures must fail on exactly those, and every statement of a stream
must run on vectors whenever its shape is in scope.
"""

import datetime
import random

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from tests.cdw.oracles import SqliteOracle, row_interpreter, run

DDL = (
    "CREATE TABLE T (ID INT, GRP INT, AMT DOUBLE, "
    "NAME NVARCHAR(20), FLAG BOOLEAN, __SEQ BIGINT)",
    "CREATE TABLE SRC (ID INT, GRP INT, AMT DOUBLE, "
    "NAME NVARCHAR(20), FLAG BOOLEAN, __SEQ BIGINT)",
)

NUM_COLS = ("ID", "GRP", "AMT", "__SEQ")
CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")


def _random_rows(rng, count, seq_base=0):
    """NULL-heavy rows: every nullable column is None ~25% of the time."""
    def maybe(value):
        return None if rng.random() < 0.25 else value
    return [
        (maybe(rng.randrange(0, 200)),
         maybe(rng.randrange(0, 12)),
         maybe(round(rng.uniform(-50, 50), 2)),
         maybe(f"n{rng.randrange(0, 40)}"),
         maybe(rng.random() < 0.5),
         seq_base + i)
        for i in range(count)
    ]


def make_pair(seed, rows=250, arm_zone_map=False):
    """A vector engine and a forced row interpreter with identical
    contents."""
    engines = []
    for interpreter in (False, True):
        engine = CdwEngine(store=CloudStore())
        if interpreter:
            row_interpreter(engine)
        for ddl in DDL:
            engine.execute(ddl)
        rng = random.Random(seed)
        engine.table("T").append_rows(_random_rows(rng, rows))
        engine.table("SRC").append_rows(
            _random_rows(rng, rows // 3, seq_base=rows))
        if arm_zone_map:
            engine.table("T").set_sorted("__SEQ")
        engines.append(engine)
    return engines


def _cast_guard(rng):
    """A predicate over the rows ``CAST(AMT AS INT)`` fails on (the
    non-integral ones): true for all of them, or only for those below a
    random threshold — so a guarded cast sometimes fails the statement
    and sometimes does not."""
    if rng.random() < 0.5:
        return "AMT <> ROUND(AMT)"
    return f"AMT < {rng.randrange(-60, 70)}"


def _guarded_cast(rng):
    """``CAST(AMT AS INT)`` as a value only unguarded rows compute."""
    return f"CASE WHEN {_cast_guard(rng)} THEN 0 ELSE CAST(AMT AS INT) END"


def _predicate(rng, depth=0):
    """A random WHERE-clause fragment in the supported dialect."""
    roll = rng.random()
    if depth < 2 and roll < 0.25:
        left = _predicate(rng, depth + 1)
        right = _predicate(rng, depth + 1)
        junction = rng.choice(("AND", "OR"))
        text = f"({left} {junction} {right})"
        return f"NOT {text}" if rng.random() < 0.2 else text
    col = rng.choice(NUM_COLS)
    choice = rng.randrange(12)
    if choice == 0:
        return f"{col} {rng.choice(CMP_OPS)} {rng.randrange(-5, 205)}"
    if choice == 1:
        lo = rng.randrange(-5, 200)
        maybe_not = "NOT " if rng.random() < 0.3 else ""
        return f"{col} {maybe_not}BETWEEN {lo} AND " \
               f"{lo + rng.randrange(0, 60)}"
    if choice == 2:
        items = ", ".join(str(rng.randrange(0, 15)) for _ in range(3))
        if rng.random() < 0.3:
            items += ", NULL"
        maybe_not = "NOT " if rng.random() < 0.3 else ""
        return f"GRP {maybe_not}IN ({items})"
    if choice == 3:
        return f"NAME LIKE 'n{rng.randrange(0, 4)}%'"
    if choice == 4:
        col = rng.choice(("GRP", "AMT", "NAME", "FLAG"))
        maybe_not = "NOT " if rng.random() < 0.5 else ""
        return f"{col} IS {maybe_not}NULL"
    if choice == 5:
        return f"AMT * 2 > GRP + {rng.randrange(0, 20)}"
    if choice == 6:
        return ("CASE WHEN GRP > 5 THEN 1 WHEN GRP IS NULL THEN 2 "
                "ELSE 0 END = %d" % rng.randrange(0, 3))
    if choice == 7:
        return f"SUBSTR(NAME, 1, 2) = 'n{rng.randrange(0, 4)}'"
    # CAST of a DOUBLE to INT errors on non-integral values: both
    # engines must raise the same statement error for it — and none
    # when a short-circuit keeps every such row away from the cast.
    cast = f"CAST(AMT AS INT) = {rng.randrange(0, 50)}"
    if choice == 8:
        return cast
    if choice == 9:
        return f"(AMT IS NULL OR {_cast_guard(rng)} OR {cast})"
    if choice == 10:
        return f"(NOT ({_cast_guard(rng)}) AND {cast})"
    return f"{_guarded_cast(rng)} = {rng.randrange(0, 50)}"


def _select(rng):
    roll = rng.random()
    where = f" WHERE {_predicate(rng)}" if rng.random() < 0.8 else ""
    if roll < 0.35:
        agg = rng.choice((
            "COUNT(*)", "COUNT(GRP)", "COUNT(DISTINCT GRP)",
            "SUM(AMT)", "MIN(ID)", "MAX(NAME)", "AVG(AMT)"))
        if rng.random() < 0.5:
            return (f"SELECT GRP, {agg} FROM T{where} "
                    f"GROUP BY GRP ORDER BY GRP")
        if rng.random() < 0.3:
            # A plain item beside an aggregate sees the first row only.
            return f"SELECT CAST(AMT AS INT), {agg} FROM T{where}"
        if rng.random() < 0.3:
            return f"SELECT {agg}, SUM({_guarded_cast(rng)}) FROM T{where}"
        return f"SELECT {agg} FROM T{where}"
    items = "ID, NAME, AMT * 2, COALESCE(GRP, -1)"
    if rng.random() < 0.25:
        items += f", {_guarded_cast(rng)}"
    order = " ORDER BY __SEQ" if rng.random() < 0.5 else ""
    limit = f" LIMIT {rng.randrange(1, 40)}" \
        if rng.random() < 0.3 else ""
    distinct = "DISTINCT " if rng.random() < 0.15 and order == "" else ""
    return f"SELECT {distinct}{items} FROM T{where}{order}{limit}"


def _dml(rng):
    roll = rng.randrange(5)
    if roll == 0:
        return f"DELETE FROM T WHERE {_predicate(rng)}"
    if roll == 1:
        return ("UPDATE T SET AMT = COALESCE(AMT, 0) + 1, "
                f"NAME = 'u{rng.randrange(0, 9)}' "
                f"WHERE {_predicate(rng)}")
    if roll == 2:
        seq = 100_000 + rng.randrange(0, 100_000)
        return ("INSERT INTO T SELECT ID, GRP, AMT, NAME, FLAG, "
                f"__SEQ + {seq} FROM SRC WHERE {_predicate(rng)}")
    if roll == 3:
        return (f"INSERT INTO T VALUES ({rng.randrange(0, 99)}, NULL, "
                f"{rng.randrange(0, 9)}.5, 'ins', TRUE, "
                f"{500_000 + rng.randrange(0, 100_000)})")
    return ("MERGE INTO T USING SRC ON T.ID = SRC.ID "
            "WHEN MATCHED THEN UPDATE SET AMT = SRC.AMT "
            "WHEN NOT MATCHED THEN INSERT VALUES (SRC.ID, SRC.GRP, "
            "SRC.AMT, SRC.NAME, SRC.FLAG, SRC.__SEQ + "
            f"{900_000 + rng.randrange(0, 100_000)})")


def _outcome(ran):
    """(tag, payload) of one :func:`~tests.cdw.oracles.run` — errors
    are part of the observable behaviour and must match across
    engines."""
    if ran[0] == "error":
        return type(ran[1]).__name__, str(ran[1])
    result = ran[1]
    if result.kind == "rows":
        return "rows", result.rows
    return "count", (result.rows_inserted, result.rows_updated,
                     result.rows_deleted)


def _assert_equivalent(engines, sql, oracle=None):
    """Both engines agree on ``sql`` (and ``oracle``, a
    :class:`SqliteOracle` over the vector engine, on whatever it
    covers); returns the vector engine's outcome."""
    ran = [run(e, sql) for e in engines]
    vector, interpreted = map(_outcome, ran)
    assert vector == interpreted, f"divergence on: {sql}"
    state = [sorted(e.query("SELECT * FROM T"), key=repr)
             for e in engines]
    assert state[0] == state[1], f"table state diverged after: {sql}"
    if oracle is not None:
        oracle.check(sql, ran[0])
    return vector


@pytest.mark.parametrize("seed", [11, 23, 37])
@pytest.mark.parametrize("armed", [False, True],
                         ids=["zone-map-off", "zone-map-armed"])
def test_random_statement_streams_agree(seed, armed):
    engines = make_pair(seed, arm_zone_map=armed)
    oracle = SqliteOracle(engines[0])
    rng = random.Random(seed * 7 + int(armed))
    fallbacks = engines[0].vector_fallbacks
    for step in range(120):
        sql = _select(rng) if rng.random() < 0.6 else _dml(rng)
        before = fallbacks["out_of_scope"]
        outcome = _assert_equivalent(engines, sql, oracle)
        if fallbacks["out_of_scope"] != before:
            # The one generated shape left to the interpreter: a plain
            # item beside an aggregate over no rows, which it resolves
            # against an empty context.  Nothing else may leave vectors
            # (UPDATE, MERGE and VALUES were never on them).
            assert outcome == ("ExpressionError",
                               "unknown column 'AMT'"), sql
    assert oracle.verdicts["compared"] > 0


def test_seq_range_scans_agree_while_zone_map_armed():
    """The ranged-apply shape: __SEQ BETWEEN conjunct + residual."""
    engines = make_pair(99, arm_zone_map=True)
    oracle = SqliteOracle(engines[0])
    rng = random.Random(99)
    for _ in range(60):
        lo = rng.randrange(0, 260)
        hi = lo + rng.randrange(0, 120)
        residual = _predicate(rng)
        for sql in (
                f"SELECT ID, NAME FROM T WHERE __SEQ BETWEEN {lo} "
                f"AND {hi} AND {residual}",
                f"DELETE FROM T WHERE __SEQ BETWEEN {lo} AND {hi} "
                f"AND {residual}",
        ):
            _assert_equivalent(engines, sql, oracle)
    assert engines[0].vector_fallbacks == {"out_of_scope": 0}


def test_copy_into_agrees():
    """Staged bytes land identically through both COPY paths."""
    from repro.cdw import stagefile

    engines = make_pair(5, rows=0)
    rng = random.Random(5)
    rows = _random_rows(rng, 400)
    data = stagefile.compress(stagefile.encode_csv_rows(rows))
    for index, engine in enumerate(engines):
        engine.store.create_container("stage")
        engine.store.put_blob("stage", f"j{index}/p0.csv.gz", data)
        engine.execute(
            f"COPY INTO T FROM 'store://stage/j{index}/' FORMAT csv")
    state = [sorted(e.query("SELECT * FROM T"), key=repr)
             for e in engines]
    assert state[0] == state[1]
    assert len(state[0]) == 400


def test_try_forms_agree_and_stay_on_vectors():
    """TRY_CAST / TRY_TO_DATE / TRY_TO_TIMESTAMP read NULL where the
    strict form raises, on vectors as on rows — bulk coercion included,
    both when every value fits and when one does not."""
    sql = ("SELECT __SEQ, TRY_CAST(V AS INT), TRY_CAST(V AS NVARCHAR(2)), "
           "TRY_TO_DATE(V, 'YYYY-MM-DD'), TRY_TO_TIMESTAMP(V) FROM S "
           "WHERE TRY_CAST(V AS INT) IS NULL OR __SEQ < 3")
    values = ["12", "1x2", None, "2020-01-02", "2020-13-45",
              "2020-01-02 03:04:05", "abc"]
    results = []
    for interpreter in (False, True):
        engine = CdwEngine(store=CloudStore())
        if interpreter:
            row_interpreter(engine)
        engine.execute("CREATE TABLE S (V NVARCHAR, __SEQ BIGINT)")
        engine.table("S").append_rows(
            [(v, i) for i, v in enumerate(values)])
        results.append(engine.query(sql))
        if not interpreter:
            assert engine.vector_fallbacks == {"out_of_scope": 0}
        assert engine.query("SELECT TRY_CAST(V AS NVARCHAR(20)) FROM S "
                            "WHERE __SEQ < 2") == [("12",), ("1x2",)]
    assert results[0] == results[1]
    assert results[0][0] == (0, 12, "12", None, None)
    assert results[0][1] == (1, None, None, None, None)
    assert results[0][3][3] == datetime.date(2020, 1, 2)
