"""Differential test: the apply's buffer route against the row oracle.

The *buffer route* is the vector engine: the staging table's text
columns reach the vector compiler as ``TextSlice`` buffers, the TRIM
and TO_DATE kernels decide whole slices, and the target's VARCHAR(n),
NOT NULL and unique checks run on the buffers.  The *oracle* is the
same statement on an engine forced onto its row interpreter
(``tests/cdw/oracles.py``), row by row.  For the same staging rows both
must leave the same target rows, or raise the same error (type, message
and ``field``) and leave the target as it was.  The one apply without a
date (the last of :data:`APPLIES`) is also held to stdlib ``sqlite3``:
TRIM over Unicode whitespace, ``VARCHAR(n)`` in characters, NOT NULL
and the unique key.

Residual WHERE clauses come from ``test_columnar_equivalence``'s
predicate generator, so gathered slices are covered too.  On clean
input a kernel must *decide*: a silent decline would still compare
equal, so the decline counters are checked against what the input
allows.
"""

from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdw.columns import TextSlice
from repro.cdw.engine import CdwEngine
from repro.cdw.expressions import ColumnBatch, compile_vector, prepare_layout
from repro.errors import ExpressionError
from repro.sqlxc.parser import parse_expression, parse_statement
from tests.cdw.oracles import SqliteOracle, row_interpreter, run
from tests.cdw.test_columnar_equivalence import _predicate, _random_rows

STAGING = ("CREATE TABLE S (ID INT, GRP INT, AMT DOUBLE, NAME NVARCHAR(20), "
           "FLAG BOOLEAN, A NVARCHAR, B NVARCHAR, D NVARCHAR, E NVARCHAR, "
           "__SEQ BIGINT)")
TARGET = ("CREATE TABLE T (K VARCHAR(4) NOT NULL, NM VARCHAR(3), J DATE, "
          "P NVARCHAR, UNIQUE (K))")

#: the apply statements; ``{where}`` is a __SEQ range and residual.
APPLIES = [
    "INSERT INTO T SELECT TRIM(s.A), TRIM(s.B), TO_DATE(s.D, 'YYYY-MM-DD'), "
    "s.B FROM S AS s WHERE {where}",
    "INSERT INTO T SELECT LTRIM(A), RTRIM(B), TRY_TO_DATE(D, 'YYYY-MM-DD'), "
    "A FROM S WHERE {where}",
    "INSERT INTO T SELECT A, B, TO_DATE(E, 'DD/MM/YYYY'), D FROM S "
    "WHERE {where}",
    "INSERT INTO T (K, J) SELECT TRIM(A), TO_DATE(D) FROM S WHERE {where}",
    "INSERT INTO T SELECT CAST(TRIM(A) AS VARCHAR(4)), TRY_CAST(B AS "
    "VARCHAR(3)), TRY_TO_DATE(E, 'DD/MM/YYYY'), TRY_CAST(D AS NVARCHAR) "
    "FROM S WHERE {where}",
    "INSERT INTO T (K, NM, P) SELECT TRIM(A), RTRIM(B), LTRIM(A) FROM S "
    "WHERE {where}",
]

#: whitespace ``str.strip()`` removes, ASCII and not.
SPACES = [" ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e",
          "\x1f", "\x85", "\xa0", "\u2000", "\u3000"]
#: multibyte characters: a value can be short in characters and long in
#: bytes.
WIDE = ["é", "€", "😀", "ß"]
GOOD_DATES = st.dates(datetime.date(1, 1, 1), datetime.date(9999, 12, 31))
BAD_DATES = st.sampled_from([
    "2014-02-30", "2014-3-9", "20140309", "2014-W10-1", "0000-01-01",
    "2014-13-01", " 2014-03-09", "2014-03-09 ", "2014-03-09\x1c",
    "٢٠١٤-03-09", "2014/03/09", "2014-03-0", "x", "２０１４-03-09",
    "2014-03-09T00"])


def _iso(day):
    return f"{day.year:04d}-{day.month:02d}-{day.day:02d}"


def _dmy(day):
    return f"{day.day:02d}/{day.month:02d}/{day.year:04d}"


@st.composite
def apply_case(draw):
    """Staging rows, existing target keys, one statement and its ranges.

    Rows start clean — every value fits its kernel — and up to three
    flaws land at drawn places: whitespace at an edge or inside a key
    or name, a bad date, two dates shifted by a byte across a value
    boundary, a key repeated in the range or already in the target."""
    alphabet = list("abc12") + (WIDE if draw(st.booleans()) else [])
    key = st.text(alphabet=st.sampled_from(alphabet), min_size=1,
                  max_size=5)
    nulls = draw(st.booleans())

    def maybe_null(strategy):
        return st.none() | strategy if nulls else strategy

    count = draw(st.integers(0, 24))
    rows = [[draw(key), draw(maybe_null(key)),
             draw(maybe_null(GOOD_DATES.map(_iso))),
             draw(maybe_null(GOOD_DATES.map(_dmy)))]
            for _ in range(count)]
    existing = draw(st.lists(key, max_size=3, unique=True))
    for _ in range(draw(st.integers(0, 3)) if count else 0):
        j = draw(st.integers(0, count - 1))
        flaw = draw(st.sampled_from(
            ["space", "date", "shift", "dup", "existing", "null"]))
        if flaw == "space":
            col = draw(st.sampled_from([0, 1]))
            text, space = rows[j][col] or "a", draw(st.sampled_from(SPACES))
            cut = draw(st.sampled_from([0, len(text) // 2, len(text)]))
            rows[j][col] = text[:cut] + space + text[cut:]
        elif flaw == "date":
            rows[j][draw(st.sampled_from([2, 3]))] = draw(BAD_DATES)
        elif flaw == "shift" and j + 1 < count:
            first, second = (_iso(draw(GOOD_DATES)) for _ in range(2))
            rows[j][2], rows[j + 1][2] = first + second[0], second[1:]
        elif flaw == "dup":
            rows[j][0] = rows[draw(st.integers(0, count - 1))][0]
        elif flaw == "null":
            rows[j][0] = None
        elif rows[j][0] not in existing:
            existing.append(rows[j][0])
    return {
        "texts": [tuple(row) for row in rows],
        "existing": existing,
        "sql": draw(st.sampled_from(APPLIES)),
        "cut": draw(st.integers(0, count)),
        "residual": draw(st.integers(0, 2 ** 32)) if draw(st.booleans())
        else None,
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _engines(case):
    """(vector engine, forced row interpreter) holding the case."""
    engines = []
    for interpreter in (False, True):
        engine = CdwEngine()
        if interpreter:
            row_interpreter(engine)
        engine.execute(STAGING)
        engine.execute(TARGET)
        numeric = _random_rows(random.Random(case["seed"]),
                               len(case["texts"]))
        engine.table("S").append_rows([
            num[:5] + text + (seq,)
            for seq, (num, text) in enumerate(zip(numeric, case["texts"]))])
        engine.table("S").set_sorted("__SEQ")
        engine.table("T").append_rows(
            [(k, None, None, None) for k in case["existing"]])
        engines.append(engine)
    return engines


def _described(ran):
    if ran[0] == "error":
        exc = ran[1]
        return type(exc).__name__, str(exc), getattr(exc, "field", None)
    return "count", ran[1].rows_inserted


def _outcome(engine, sql):
    return _described(run(engine, sql))


def _statements(case):
    """The case's statement over its two consecutive ``__SEQ`` ranges."""
    ranges = [(0, case["cut"] - 1), (case["cut"], len(case["texts"]))]
    residual = ""
    if case["residual"] is not None:
        residual = f" AND {_predicate(random.Random(case['residual']))}"
    return [case["sql"].format(
        where=f"__SEQ BETWEEN {lo} AND {hi}{residual}")
        for lo, hi in ranges]


def _case(texts, sql=APPLIES[0], existing=()):
    """A pinned case: one range, no residual."""
    return {"texts": texts, "existing": list(existing), "sql": sql,
            "cut": 0, "residual": None, "seed": 0}


#: flaws a kernel must not miss, pinned whatever the generator draws.
PINNED = [
    _case([("\x1cab", "b", "2014-03-09", None), ("cd", None, None, None)]),
    _case([("ab", "b\x1f", "2014-03-09", None)]),
    _case([("ab", "b", "2014-W10-1", None), ("cd", "e", "2014-03-09", None)]),
    _case([("ab", "b", "2014-03-092", None), ("cd", "e", "014-03-09", None)]),
    _case([("ab", "b", "2014-03-09", None), (None, "e", None, None)]),
    _case([("ab", "b", None, None), ("cd", "e", None, None)],
          existing=["cd"]),
    _case([("ab", "éé€", None, None), ("cd", "e", None, None)]),
    _case([("ab", "b", None, "09/03/2014"), ("cd", "e", None, "9/03/2014")],
          sql=APPLIES[2]),
]


@settings(max_examples=300, deadline=None)
@given(apply_case())
def test_buffer_route_matches_the_row_oracle(case):
    _assert_routes_agree(case)


@pytest.mark.parametrize("case", PINNED)
def test_pinned_flaws_match_the_row_oracle(case):
    _assert_routes_agree(case)


def _assert_routes_agree(case):
    engines = _engines(case)
    sqlite = SqliteOracle(engines[0])
    for sql in _statements(case):
        ran = [run(engine, sql) for engine in engines]
        outcomes = [_described(r) for r in ran]
        assert outcomes[0] == outcomes[1], sql
        sqlite.check(sql, ran[0])
        targets = [list(engine.table("T").rows) for engine in engines]
        assert targets[0] == targets[1], sql
    staged = [list(engine.table("S").rows) for engine in engines]
    assert staged[0] == staged[1]
    assert engines[0].vector_fallbacks == {"out_of_scope": 0}


def _trim_decides(values):
    return all(v is None or (v.isascii() and v == "".join(v.split()))
               for v in values)


def _iso_decides(values):
    for v in values:
        if v is None:
            continue
        if len(v) != 10 or not v.isascii() or v[4] != "-" or v[7] != "-" \
                or not (v[:4] + v[5:7] + v[8:]).isdigit():
            return False
        try:
            datetime.date.fromisoformat(v)
        except ValueError:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(apply_case())
def test_kernels_decide_whatever_their_input_allows(case):
    """The first statement, one range, no residual: TRIM declines iff a
    value holds whitespace or non-ASCII text, TO_DATE iff a value is
    not a real date in the format's exact shape."""
    sql = APPLIES[0].format(where="__SEQ BETWEEN 0 AND 100")
    engine = _engines(case)[0]
    if _outcome(engine, sql)[0] != "count":
        return          # a failed statement bisects: declines then vary
    a, b, d = ([row[i] for row in case["texts"]] for i in range(3))
    expected_trim = (not _trim_decides(a)) + (not _trim_decides(b))
    expected_date = int(not _iso_decides(d))
    assert engine.kernel_declines == {
        "trim": expected_trim if case["texts"] else 0,
        "to_date": expected_date if case["texts"] else 0}


def test_cast_format_shares_the_date_kernel():
    """The legacy ``CAST .. AS DATE FORMAT`` (the reference server's
    dialect) decides through TO_DATE's kernel, and declines the same
    values to the per-value path."""
    sql = parse_statement("INSERT INTO T (K, J) SELECT A, CAST(D AS DATE "
                          "FORMAT 'YYYY-MM-DD') FROM S", dialect="legacy")
    for days, declines in ((["2014-03-09", None, "1999-12-31"], 0),
                           (["2014-03-09", "2014-3-9"], 1)):
        case = {"texts": [(f"k{i}", None, day, None)
                          for i, day in enumerate(days)],
                "existing": [], "seed": 1}
        vector, oracle = _engines(case)
        for engine in (vector, oracle):
            engine.execute(sql)
        assert list(vector.table("T").rows) == list(oracle.table("T").rows)
        assert vector.table("T").rows[0][2] == datetime.date(2014, 3, 9)
        assert vector.kernel_declines["to_date"] == declines


def test_bulk_load_shape_declines_nothing():
    """Example 2.1's DML over Fig 7-shaped staging rows runs every
    column on its kernel and lands the oracle's rows."""
    rng = random.Random(7)
    staged = [(f"R{i:07d}", f"name-{rng.randrange(10 ** 5):05d}",
               f"{rng.randrange(1990, 2030)}-{rng.randrange(1, 13):02d}-"
               f"{rng.randrange(1, 29):02d}", "x" * rng.randrange(400, 500),
               i) for i in range(2000)]
    sql = ("INSERT INTO PROD.FACT SELECT TRIM(s.A), TRIM(s.B), "
           "TO_DATE(s.D, 'YYYY-MM-DD'), s.E FROM S AS s "
           "WHERE (s.__SEQ BETWEEN 0 AND 1999)")
    results = []
    for interpreter in (False, True):
        engine = CdwEngine()
        if interpreter:
            row_interpreter(engine)
        engine.execute("CREATE TABLE S (A NVARCHAR, B NVARCHAR, "
                       "D NVARCHAR, E NVARCHAR, __SEQ BIGINT)")
        engine.execute("CREATE TABLE PROD.FACT (REC_ID VARCHAR(12) NOT "
                       "NULL, REC_NAME VARCHAR(40), JOIN_DATE DATE, "
                       "PAYLOAD VARCHAR(508), UNIQUE (REC_ID))")
        engine.table("S").append_rows(staged)
        engine.table("S").set_sorted("__SEQ")
        assert engine.execute(sql).rows_inserted == 2000
        results.append(list(engine.table("PROD.FACT").rows))
        if not interpreter:
            assert engine.kernel_declines == {"trim": 0, "to_date": 0}
            assert engine.vector_fallbacks == {"out_of_scope": 0}
    assert results[0] == results[1]


def _applied():
    """Three staged rows applied into two target columns from one
    staging column, three more staged rows left for a later range."""
    engine = CdwEngine()
    engine.execute("CREATE TABLE S (A NVARCHAR, __SEQ BIGINT)")
    engine.execute("CREATE TABLE T (A NVARCHAR, Q NVARCHAR(9))")
    engine.table("S").append_rows([(f"v{i}", i) for i in range(6)])
    engine.table("S").set_sorted("__SEQ")
    engine.execute("INSERT INTO T SELECT TRIM(A), A FROM S "
                   "WHERE __SEQ BETWEEN 0 AND 2")
    staging = engine.table("S")._store.cols[0]
    for column in engine.table("T")._store.cols:
        assert column.blob is not staging.blob
        assert column.valid is not staging.valid
    return engine


def test_a_target_rollback_leaves_staging_intact():
    engine = _applied()
    engine.table("T").truncate_rows(1)          # Beta's emulation rollback
    assert engine.query("SELECT A FROM S") == [(f"v{i}",) for i in range(6)]
    engine.execute("INSERT INTO T SELECT A, A FROM S "
                   "WHERE __SEQ BETWEEN 3 AND 5")
    assert engine.query("SELECT A, Q FROM T") == [
        ("v0", "v0"), ("v3", "v3"), ("v4", "v4"), ("v5", "v5")]


def test_a_staging_delete_leaves_the_target_intact():
    engine = _applied()
    engine.execute("DELETE FROM S WHERE __SEQ < 2")
    engine.table("S").truncate_rows(0)
    assert engine.query("SELECT A, Q FROM T") == [
        ("v0", "v0"), ("v1", "v1"), ("v2", "v2")]


def test_a_partly_decided_date_column_keeps_row_order():
    """One value the date kernel cannot prove does not send the column
    back to the per-value path: the kernel proves the rest, the closure
    runs on the undecided values in row order — so TO_DATE raises the
    first bad row's error and TRY_TO_DATE reads NULL there — and the
    column counts one decline."""
    days = ["2014-03-09", "1999-12-31", None, "bad-1", "2014-03-10",
            "2014-02-30", "bad-2", "2014-3-9", "2000-01-01"]
    case = {"texts": [(f"k{i}", None, day, None)
                      for i, day in enumerate(days)],
            "existing": [], "seed": 3}
    vector, oracle = _engines(case)
    table = vector.table("S")
    layout = prepare_layout(table.column_names)
    strict = compile_vector(parse_expression("TO_DATE(D, 'YYYY-MM-DD')"),
                            layout, "S")
    with pytest.raises(ExpressionError, match="bad-1"):
        strict(ColumnBatch(table, 0, len(days)))
    with pytest.raises(ExpressionError, match="2014-02-30"):
        strict(ColumnBatch(table, 4, len(days)))
    sql = ("INSERT INTO T (K, J) SELECT A, TRY_TO_DATE(D, 'YYYY-MM-DD') "
           "FROM S")
    assert _outcome(vector, sql) == _outcome(oracle, sql)
    assert list(vector.table("T").rows) == list(oracle.table("T").rows)
    assert [row[2] for row in vector.table("T").rows] == [
        datetime.date(2014, 3, 9), datetime.date(1999, 12, 31), None, None,
        datetime.date(2014, 3, 10), None, None, datetime.date(2014, 3, 9),
        datetime.date(2000, 1, 1)]
    assert vector.kernel_declines["to_date"] == 1


def test_try_cast_to_varchar_is_the_slice_when_every_value_fits():
    """``TRY_CAST(text AS VARCHAR(n))`` reads its operand's buffers when
    the widest value fits ``n`` bytes, and its ``IS NULL`` reads their
    validity; past the bound it casts value by value."""
    case = {"texts": [("ab", "é", None, None), ("cd", None, None, None),
                      ("ef", "xyz", None, None)], "existing": [], "seed": 4}
    table = _engines(case)[0].table("S")
    layout = prepare_layout(table.column_names)
    batch = ColumnBatch(table, 0, 3)
    fits = compile_vector(parse_expression("TRY_CAST(B AS VARCHAR(3))"),
                          layout, "S")(batch)
    assert type(fits[1]) is TextSlice and fits[1].to_list() == [
        "é", None, "xyz"]
    assert compile_vector(parse_expression(
        "TRY_CAST(B AS VARCHAR(3)) IS NULL"), layout, "S")(batch) == (
            False, [False, True, False])
    short = compile_vector(parse_expression("TRY_CAST(B AS VARCHAR(2))"),
                           layout, "S")(batch)
    assert short == (False, ["é", None, None])


def test_items_reading_one_gathered_column_get_independent_buffers():
    """A residual WHERE gathers the kept rows into one column that every
    item reading it shares; each target column is a copy, so no two
    target columns (and no target column and staging) share a buffer."""
    engine = CdwEngine()
    engine.execute("CREATE TABLE S (A NVARCHAR, __SEQ BIGINT)")
    engine.execute("CREATE TABLE T (A NVARCHAR, Q NVARCHAR(9))")
    engine.table("S").append_rows([(f"v{i}", i) for i in range(8)])
    engine.table("S").set_sorted("__SEQ")
    engine.execute("INSERT INTO T SELECT TRIM(A), A FROM S WHERE __SEQ "
                   "BETWEEN 0 AND 7 AND __SEQ NOT IN (2, 5)")
    staging = engine.table("S")._store.cols[0]
    first, second = engine.table("T")._store.cols
    for one, other in ((first, second), (first, staging),
                       (second, staging)):
        assert one.blob is not other.blob
        assert one.offsets is not other.offsets
        assert one.valid is not other.valid
    engine.table("T").truncate_rows(3)              # a Beta rollback
    assert engine.query("SELECT A, Q FROM T") == [
        ("v0", "v0"), ("v1", "v1"), ("v3", "v3")]
    assert engine.query("SELECT A FROM S") == [(f"v{i}",) for i in range(8)]
