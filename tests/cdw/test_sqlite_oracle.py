"""The CDW engine against an independent engine: stdlib ``sqlite3``.

Each seeded stream mirrors a vector engine's tables into SQLite
(``tests/cdw/oracles.py``) and runs the same statements on both.  The
covered families are SELECT with WHERE, projection, GROUP BY and
aggregates, DISTINCT and LIMIT; INSERT … SELECT with CAST, TRIM,
COALESCE and CASE into a target with NOT NULL, UNIQUE and ``VARCHAR(n)``
columns; and DELETE by a ``__SEQ`` range.  For each statement the two
must agree on success versus error and, on success, on the result
multiset (the sequence under a total ORDER BY) and on every written
table afterwards.

The generated text stays in the domain where the CDW's casts and
SQLite's UDFs are specified alike: ASCII, no ``_`` digit separators, no
``inf``/``nan``, and no trailing blanks where text is compared (the CDW
compares text with CHAR semantics).
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter

import pytest

from repro.cdw.engine import CdwEngine
from tests.cdw.oracles import (EXCLUSIONS, OUT_OF_SCOPE, SqliteOracle,
                               row_interpreter, run)
from tests.cdw.test_columnar_equivalence import (DDL, _guarded_cast,
                                                 _predicate, _random_rows)

STAGING = "CREATE TABLE S (A NVARCHAR, B NVARCHAR, C NVARCHAR, D NVARCHAR, " \
          "__SEQ BIGINT)"
TARGET = ("CREATE TABLE U (K VARCHAR(4) NOT NULL, V INT NOT NULL, "
          "W DOUBLE, N NVARCHAR(6), J DATE, UNIQUE (K))")

#: staging text: numbers, near-numbers, blanks inside and around, a
#: date, wide characters, values one character past a bound.
TEXTS = ["12", " 7 ", "-3", "+4", "1x", "", "abc", "2.5", "1e3", " 8",
         "99999", "hello", "sixsix7", "2020-01-02", "ab\tc", "é", "a",
         "ok", None]

AGGREGATES = ("COUNT(*)", "COUNT(GRP)", "COUNT(DISTINCT GRP)", "SUM(AMT)",
              "MIN(ID)", "MAX(NAME)", "AVG(AMT)", "SUM(ID)", "MIN(NAME)")


def make_stack(seed: int):
    """A vector engine holding T, SRC, S and U, and its sqlite mirror."""
    engine = CdwEngine()
    rng = random.Random(seed)
    for ddl in (*DDL, STAGING, TARGET):
        engine.execute(ddl)
    engine.table("T").append_rows(_random_rows(rng, 120))
    engine.table("SRC").append_rows(_random_rows(rng, 40, seq_base=120))
    engine.table("S").append_rows([
        tuple(rng.choice(TEXTS) for _ in range(4)) + (seq,)
        for seq in range(80)])
    engine.table("S").set_sorted("__SEQ")
    engine.execute("INSERT INTO U VALUES ('ok', 1, 1.5, 'x', NULL)")
    return engine, SqliteOracle(engine)


def _where(rng, p=0.8):
    return f" WHERE {_predicate(rng)}" if rng.random() < p else ""


def _select(rng):
    items = rng.sample(["ID", "NAME", "AMT * 2", "COALESCE(GRP, -1)",
                        "GRP + 3", "FLAG", "SUBSTR(NAME, 1, 2)",
                        "CASE WHEN GRP > 5 THEN 'hi' ELSE NAME END",
                        "CASE WHEN NOT (GRP > 5 AND AMT > 0) THEN 1 END",
                        "CASE WHEN NOT (GRP > 5 OR AMT > 0) THEN 1 END",
                        _guarded_cast(rng), "CAST(AMT AS INT)",
                        "CAST(ID AS NVARCHAR(2))"], rng.randrange(1, 4))
    return f"SELECT {', '.join(items)} FROM T{_where(rng)}"


def _grouped(rng):
    agg = rng.choice(AGGREGATES)
    roll = rng.random()
    if roll < 0.35:
        having = f" HAVING COUNT(*) > {rng.randrange(0, 12)}" \
            if rng.random() < 0.3 else ""
        return (f"SELECT GRP, {agg} FROM T{_where(rng)} GROUP BY GRP"
                f"{having} ORDER BY GRP")
    if roll < 0.55:
        return f"SELECT {agg}, SUM({_guarded_cast(rng)}) FROM T{_where(rng)}"
    if roll < 0.7:
        return f"SELECT {agg}, SUM(CAST(AMT AS INT)) FROM T{_where(rng)}"
    if roll < 0.8:
        return f"SELECT FLAG, {agg} FROM T{_where(rng)} GROUP BY FLAG"
    return f"SELECT {agg} FROM T{_where(rng)}"


def _distinct(rng):
    items = rng.choice(["GRP", "GRP, FLAG", "SUBSTR(NAME, 1, 2)",
                        "CAST(AMT AS INT)", _guarded_cast(rng)])
    return f"SELECT DISTINCT {items} FROM T{_where(rng)}"


def _limit(rng):
    order = rng.choice([" ORDER BY __SEQ", " ORDER BY __SEQ DESC",
                        " ORDER BY GRP", " ORDER BY ID DESC, __SEQ"])
    items = rng.choice(["ID, NAME", "__SEQ, AMT", "ID, CAST(AMT AS INT)"])
    return (f"SELECT {items} FROM T{_where(rng)}{order} "
            f"LIMIT {rng.randrange(1, 30)}")


def _seq_range(rng, count=80):
    lo = rng.randrange(0, count)
    return f"__SEQ BETWEEN {lo} AND {lo + rng.randrange(0, 6)}"


def _staging_residual(rng):
    return rng.choice(["B IS NOT NULL", "TRY_CAST(B AS INT) > 0",
                       "CAST(B AS INT) > 0", "A LIKE 'a%'",
                       "TRIM(D) IN ('12', 'abc', 'ok')", "TRIM(A) <> ''",
                       "COALESCE(C, 'x') <> 'abc'"])


def _insert(rng):
    if rng.random() < 0.25:
        return ("INSERT INTO T SELECT ID, GRP, AMT, NAME, FLAG, "
                f"__SEQ + {1000 + rng.randrange(0, 9000)} FROM SRC"
                f"{_where(rng)}")
    seq_key = f"CAST(__SEQ + {rng.randrange(100, 9900)} AS VARCHAR(4))"
    k = rng.choice([seq_key, seq_key, "TRIM(A)", "A", "COALESCE(A, 'z')",
                    "CASE WHEN A IS NULL THEN 'n' ELSE TRIM(A) END"])
    v = rng.choice(["CAST(B AS INT)", "TRY_CAST(B AS INT)", "B", "__SEQ",
                    "COALESCE(TRY_CAST(B AS INT), -1)",
                    "CASE WHEN TRY_CAST(B AS INT) IS NULL THEN 0 "
                    "ELSE CAST(B AS INT) END"])
    w = rng.choice(["CAST(C AS DOUBLE)", "TRY_CAST(C AS DOUBLE)", "C",
                    "NULL", "__SEQ * 2", "CAST(C AS DECIMAL(6,2))"])
    n = rng.choice(["D", "TRIM(D)", "CAST(D AS NVARCHAR(6))",
                    "COALESCE(D, A)", "SUBSTR(D, 1, 3)", "NULL"])
    j = rng.choice(["NULL"] * 6 + ["TO_DATE(D, 'YYYY-MM-DD')",
                                   "CAST(D AS DATE)"])
    residual = f" AND {_staging_residual(rng)}" if rng.random() < 0.4 else ""
    if rng.random() < 0.2:
        return (f"INSERT INTO U (K, V) SELECT {k}, {v} FROM S "
                f"WHERE {_seq_range(rng)}{residual}")
    return (f"INSERT INTO U SELECT {k}, {v}, {w}, {n}, {j} FROM S "
            f"WHERE {_seq_range(rng)}{residual}")


def _delete(rng):
    if rng.random() < 0.5:
        residual = f" AND {_staging_residual(rng)}" \
            if rng.random() < 0.6 else ""
        return f"DELETE FROM S WHERE {_seq_range(rng)}{residual}"
    lo = rng.randrange(0, 120)
    return (f"DELETE FROM T WHERE __SEQ BETWEEN {lo} AND "
            f"{lo + rng.randrange(0, 8)} AND {_predicate(rng)}")


#: family -> (share of the stream, generator)
FAMILIES = {
    "select": (0.2, _select),
    "grouped": (0.2, _grouped),
    "distinct": (0.1, _distinct),
    "limit": (0.1, _limit),
    "insert_select": (0.3, _insert),
    "delete_range": (0.1, _delete),
}

SEEDS = (3, 17, 41)
STEPS = 150

#: verdicts of the seeded streams: how many statements each exclusion
#: took, how many were compared in full, and that none of them fell out
#: of scope.  A change to the engine's behaviour or to the oracle's
#: reach moves these numbers.
PINNED_VERDICTS = {
    "compared": 265,
    "first_error_identity": 150,
    "order_by_ties": 9,
    "date_format": 13,
    "decimal_scale": 13,
}


def _stream(seed):
    """(family, sql) pairs of one seeded stream."""
    rng = random.Random(seed * 31)
    names = list(FAMILIES)
    weights = [FAMILIES[name][0] for name in names]
    for _ in range(STEPS):
        family = rng.choices(names, weights)[0]
        yield family, FAMILIES[family][1](rng)


def _run_streams():
    """The verdicts of every seeded stream, and the compared statements'
    outcomes (``ok``/``error``) by family."""
    verdicts = Counter()
    by_family = Counter()
    for seed in SEEDS:
        engine, oracle = make_stack(seed)
        for family, sql in _stream(seed):
            ran = run(engine, sql)
            if oracle.check(sql, ran) in ("compared", "first_error_identity",
                                          "order_by_ties"):
                by_family[family, ran[0]] += 1
        verdicts += oracle.verdicts
    return verdicts, by_family


@pytest.fixture(scope="module")
def streams():
    return _run_streams()


def test_engine_agrees_with_sqlite(streams):
    verdicts, _ = streams
    assert verdicts["compared"] > 0


def test_every_family_compares_an_error_and_a_success(streams):
    _, by_family = streams
    for family in FAMILIES:
        assert by_family[family, "ok"] > 0, family
        assert by_family[family, "error"] > 0, family


def test_exclusions_are_pinned(streams):
    """The exclusion list is one constant, and the seeded streams pin
    how many statements each entry takes; nothing is out of scope."""
    verdicts, _ = streams
    assert set(EXCLUSIONS) == {"date_format", "decimal_scale",
                               "first_error_identity", "order_by_ties"}
    assert dict(verdicts) == PINNED_VERDICTS
    assert not any(v.startswith("out_of_scope") for v in verdicts)
    assert OUT_OF_SCOPE == ("statement", "from", "subquery", "bare_column",
                            "expression")


def test_forced_interpreter_agrees_with_sqlite():
    """The row interpreter is held to the same independent reference."""
    engine, oracle = make_stack(5)
    row_interpreter(engine)
    for _, sql in _stream(5):
        oracle.check(sql, run(engine, sql))


def test_all_or_nothing_on_both_sides():
    """A range with one bad row inserts nothing, on either engine."""
    engine, oracle = make_stack(1)
    engine.table("S").rows = [("k1", "1", None, None, 0),
                              ("k2", "x", None, None, 1),
                              ("k3", "3", None, None, 2)]
    oracle.mirror("S")
    sql = "INSERT INTO U (K, V) SELECT A, B FROM S WHERE __SEQ BETWEEN 0 AND 2"
    ran = run(engine, sql)
    assert ran[0] == "error"
    assert oracle.check(sql, ran) == "first_error_identity"
    assert engine.table("U").row_count == 1


@pytest.mark.parametrize("sql,verdict", [
    ("SELECT GRP FROM T ORDER BY GRP LIMIT 3", "order_by_ties"),
    ("SELECT GRP, COUNT(*) FROM T GROUP BY GRP ORDER BY 1", "compared"),
    ("SELECT CAST(AMT AS DECIMAL(6,1)) FROM T", "decimal_scale"),
    ("SELECT AMT * 1.5 FROM T", "decimal_scale"),
    ("INSERT INTO U (K, J) SELECT A, CAST(C AS DATE) FROM S "
     "WHERE __SEQ BETWEEN 0 AND 0", "date_format"),
    ("SELECT ID, COUNT(*) FROM T", "out_of_scope:bare_column"),
    ("UPDATE T SET GRP = 1 WHERE ID = 3", "out_of_scope:statement"),
    ("SELECT ID FROM T WHERE GRP IN (SELECT GRP FROM SRC)",
     "out_of_scope:subquery"),
    ("SELECT ID / 2 FROM T", "out_of_scope:expression"),
])
def test_verdicts(sql, verdict):
    engine, oracle = make_stack(2)
    got = oracle.check(sql, run(engine, sql))
    assert got == verdict or (verdict == "compared"
                              and got == "first_error_identity")


#: engine faults the oracle shows outside the generated domain, which
#: keeps clear of them so the pinned streams stay green.  Each must
#: fail here until the engine is mended (then drop its entry).
def _mended_stack(interpreter: bool):
    engine = CdwEngine()
    if interpreter:
        row_interpreter(engine)
    engine.execute("CREATE TABLE X (NAME NVARCHAR, G INT, AMT DOUBLE, "
                   "__SEQ BIGINT)")
    engine.table("X").append_rows([
        ("n1", 1, 2.5, 0), ("n10", None, 0.5, 1), ("n2", 2, -2.5, 2),
        (None, 1, -0.5, 3), ("n", 2, 1.5, 4), ("n10", 1, 3.5, 5),
        ("n1", None, -1.5, 6), (None, None, None, 7), ("m9", 2, 0.0, 8)])
    return engine


@pytest.mark.parametrize("interpreter", [False, True],
                         ids=["vector", "interpreter"])
@pytest.mark.parametrize("sql", [
    "SELECT NAME FROM X ORDER BY NAME DESC, __SEQ",
    "SELECT NAME, G FROM X ORDER BY NAME DESC, G, __SEQ",
    "SELECT NAME, G FROM X ORDER BY G DESC, NAME, __SEQ DESC",
    "SELECT NAME, G FROM X ORDER BY NAME, G DESC, __SEQ",
    "SELECT G, NAME FROM X ORDER BY 1 DESC, 2 DESC, __SEQ",
])
def test_text_order_by_desc(sql, interpreter):
    """DESC sorts text truly descending — a prefix after its extensions
    (``n2, n10, n1, n``) — with NULLs last, beside ASC keys, on both
    evaluators."""
    engine = _mended_stack(interpreter)
    assert SqliteOracle(engine).check(sql, run(engine, sql)) == "compared"


@pytest.mark.parametrize("interpreter", [False, True],
                         ids=["vector", "interpreter"])
@pytest.mark.parametrize("sql,verdict", [
    ("SELECT COALESCE(G, CAST(AMT AS INT)) FROM X WHERE G IS NOT NULL",
     "compared"),
    ("SELECT COALESCE(G, CAST(AMT AS INT), 7) FROM X "
     "WHERE G IS NOT NULL OR AMT IS NULL", "compared"),
    # both sides fail: (n10, NULL, 0.5) reaches the CAST
    ("SELECT COALESCE(G, CAST(AMT AS INT)) FROM X",
     "first_error_identity"),
])
def test_coalesce_reaches_an_argument_past_nulls_only(sql, verdict,
                                                      interpreter):
    """COALESCE is a CASE: ``CAST(AMT AS INT)`` raises on a fractional
    AMT, but only a row whose G is NULL evaluates it, on both
    evaluators."""
    engine = _mended_stack(interpreter)
    assert SqliteOracle(engine).check(sql, run(engine, sql)) == verdict


@pytest.mark.parametrize("interpreter", [False, True],
                         ids=["vector", "interpreter"])
def test_round_half_away_from_zero(interpreter):
    """ROUND(2.5), ROUND(-2.5) and ROUND(0.5) round away from zero, as
    in SQLite; so does a DECIMAL, which the oracle does not compare, so
    it is pinned against SQLite's value directly."""
    engine = _mended_stack(interpreter)
    sql = "SELECT ROUND(AMT) FROM X ORDER BY __SEQ"
    assert SqliteOracle(engine).check(sql, run(engine, sql)) == "compared"
    assert [row[0] for row in engine.query(sql)[:3]] == [3.0, 1.0, -3.0]
    want = sqlite3.connect(":memory:").execute(
        "SELECT ROUND(2.345, 2), ROUND(-2.345, 2)").fetchone()
    assert want == (2.35, -2.35)
    engine.execute("INSERT INTO X VALUES ('2.345', 0, 0, 100), "
                   "('-2.345', 0, 0, 101)")
    got = engine.query("SELECT ROUND(CAST(NAME AS DECIMAL(6,3)), 2) "
                       "FROM X WHERE __SEQ >= 100 ORDER BY __SEQ")
    assert [float(v) for v, in got] == list(want)
    assert [str(v) for v, in got] == ["2.35", "-2.35"]
