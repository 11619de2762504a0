"""The keyed DML executor against the nested loop it replaced.

UPDATE … FROM, DELETE … USING and MERGE share one matcher: an index over
the predicate's equi-key columns picks candidate rows, and the whole
predicate is evaluated on each.  Three checks hold it to that:

- its key is coarser than the engine's ``=``: any two values ``=``
  calls equal share a key, so the index can only prune;
- on generated tables and statements it does what
  :func:`~tests.cdw.oracles.nested_loop_dml` does (same rows, in the
  same order, same counts, same success), except that a predicate which
  raises only on rows the key rules out no longer fails the statement;
- the number of predicate evaluations grows linearly with the rows.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdw.engine import CdwEngine, _match_key
from repro.cdw.expressions import _Evaluator, evaluate
from repro.errors import ExpressionError
from repro.sqlxc.parser import parse_expression, parse_statement
from tests.cdw.oracles import nested_loop_dml, run

# -- the key is coarser than ``=`` -------------------------------------------


def _alike(value) -> list:
    """``value`` and the values of other types ``=`` may call equal
    to it (and a few it must not)."""
    out = [value]
    if isinstance(value, str):
        out += [value + " ", value + "  ", value + "\t", value.rstrip(),
                value + "x"]
    elif isinstance(value, datetime.datetime):
        out.append(value.date())
    elif isinstance(value, datetime.date):
        out.append(datetime.datetime(value.year, value.month, value.day))
    elif isinstance(value, (int, float, Decimal)):
        for convert in (float, Decimal, int, bool):
            try:
                out.append(convert(value))
            except (OverflowError, ValueError):
                pass
        if isinstance(value, int):
            out.append(value + 1)
    return out


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**53 - 2, 2**53 + 2), st.just(10**400),
    st.floats(), st.decimals(allow_nan=False),
    st.text(alphabet="ab \t", max_size=4), st.dates(), st.datetimes())


@settings(max_examples=400, deadline=None)
@given(st.lists(SCALARS, min_size=1, max_size=3))
def test_values_equals_calls_equal_share_a_key(bases):
    values = [v for base in bases for v in _alike(base)]
    compare = _Evaluator(None, None)._compare
    for left in values:
        for right in values:
            if compare("=", left, right) is True:
                assert _match_key(left) == _match_key(right), (left, right)


def test_null_has_no_key():
    assert _match_key(None) is None


# -- the differential --------------------------------------------------------

TEXT_KEYS = ["a", "a ", "a  ", "b", "b ", "A", None]
INT_KEYS = [2**53 - 1, 2**53, 2**53 + 1, 1, 0, None]
#: ``W`` values; ``'x'`` does not CAST AS INT.
W_VALUES = ["1", "7", "x", None]
RESIDUALS = ["T.V < S.V", "T.V <> 2", "CAST(T.W AS INT) > 0"]


def _sql_literal(value) -> str:
    return "NULL" if value is None else repr(value)


@st.composite
def dml_case(draw, kind: str):
    """Tables ``T (K, V, W)`` and ``S (K, NK, V)`` of 0–30 rows keyed by
    text (with and without trailing blanks) or by BIGINTs near 2**53,
    and one statement of ``kind`` (``update`` is UPDATE … FROM,
    ``delete`` DELETE … USING, ``merge`` MERGE) over them.  Returns
    ``(setup, statement, key_sides)``: ``key_sides`` are the
    ``(target, source)`` sides of the conjuncts the executor keys on."""
    text = draw(st.booleans())
    key_type = "VARCHAR(4)" if text else "BIGINT"
    # A few keys per case, so that rows share keys and re-keyed rows
    # meet later source rows.
    keys = st.sampled_from(draw(st.lists(
        st.sampled_from(TEXT_KEYS if text else INT_KEYS),
        min_size=1, max_size=3, unique=True)))
    small = st.one_of(st.none(), st.integers(0, 4))
    sizes = st.integers(0, 30)
    target = [draw(st.tuples(keys, small, st.sampled_from(W_VALUES)))
              for _ in range(draw(sizes))]
    source = [draw(st.tuples(keys, keys, small))
              for _ in range(draw(sizes))]
    setup = [f"CREATE TABLE T (K {key_type}, V INT, W VARCHAR(4))",
             f"CREATE TABLE S (K {key_type}, NK {key_type}, V INT)"]
    for table, rows in (("T", target), ("S", source)):
        if rows:
            setup.append(f"INSERT INTO {table} VALUES " + ", ".join(
                "(" + ", ".join(map(_sql_literal, row)) + ")"
                for row in rows))

    source_side = draw(st.sampled_from(
        ["S.K", "S.NK", _sql_literal(draw(keys.filter(bool)))]
        + (["TRIM(S.K)"] if text else [])))
    key = f"T.K = {source_side}" if draw(st.booleans()) \
        else f"{source_side} = T.K"
    key_sides = [("T.K", source_side)]
    shape = draw(st.sampled_from(
        ["key", "key_residual", "residual_key", "two_keys", "or",
         "residual"]))
    residual = draw(st.sampled_from(RESIDUALS))
    if shape == "key":
        predicate = key
    elif shape == "key_residual":
        predicate = f"{key} AND {residual}"
    elif shape == "residual_key":
        predicate = f"{residual} AND {key}"
    elif shape == "two_keys":
        predicate = f"{key} AND T.V = S.V"
        key_sides.append(("T.V", "S.V"))
    elif shape == "or":
        predicate = f"(T.K = S.K OR T.V = S.V)"
        key_sides = []
    else:
        predicate = residual
        key_sides = []

    assignments = ", ".join(draw(st.lists(
        st.sampled_from(["V = S.V", "K = S.NK", "V = T.V + 1", "W = S.K"]),
        min_size=1, max_size=2, unique=True)))
    if kind == "update":
        sql = f"UPDATE T SET {assignments} FROM S WHERE {predicate}"
    elif kind == "delete":
        sql = f"DELETE FROM T USING S WHERE {predicate}"
    else:
        clauses = []
        if draw(st.booleans()):
            condition = draw(st.sampled_from(["", " AND S.V > 1"]))
            action = draw(st.sampled_from(
                [f"UPDATE SET {assignments}", "DELETE"]))
            clauses.append(f"WHEN MATCHED{condition} THEN {action}")
        if draw(st.booleans()) or not clauses:
            condition = draw(st.sampled_from(["", " AND S.V < 3"]))
            clauses.append(f"WHEN NOT MATCHED{condition} THEN INSERT "
                           "VALUES (S.K, S.V, 'n')")
        sql = f"MERGE INTO T USING S ON {predicate} " + " ".join(clauses)
    return setup, sql, key_sides


def _ruled_out(key_sides):
    """Whether the key rules out the (target, source) pair a context
    binds: some key side is NULL, or the two sides' keys differ."""
    sides = [(parse_expression(t, dialect="cdw"),
              parse_expression(s, dialect="cdw")) for t, s in key_sides]

    def ruled_out(ctx) -> bool:
        for target_side, source_side in sides:
            try:
                left = _match_key(evaluate(target_side, ctx))
                right = _match_key(evaluate(source_side, ctx))
            except ExpressionError:
                continue
            if left is None or right is None or left != right:
                return True
        return False
    return ruled_out


def _outcome(engine: CdwEngine, setup: list[str], sql: str):
    """What a statement did: ``("ok", counts)`` or ``("error", type,
    kind)`` (the first error's message may differ), and ``T`` after it
    in storage order."""
    for statement in setup:
        engine.execute(statement)
    ran = run(engine, sql)
    if ran[0] == "error":
        what = ("error", type(ran[1]).__name__,
                getattr(ran[1], "kind", None))
    else:
        what = ("ok", ran[1].rows_inserted, ran[1].rows_updated,
                ran[1].rows_deleted)
    return what, engine.query("SELECT * FROM T")


@pytest.mark.parametrize("kind", ["update", "delete", "merge"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_keyed_executor_matches_the_nested_loop(kind, data):
    setup, sql, key_sides = data.draw(dml_case(kind))
    keyed = _outcome(CdwEngine(), setup, sql)
    nested = _outcome(nested_loop_dml(CdwEngine()), setup, sql)
    if keyed == nested:
        return
    # The one allowed difference: the nested loop raised on a pair the
    # key rules out, which the keyed executor never evaluates.
    assert (keyed[0][0], nested[0][0]) == ("ok", "error"), sql
    tolerant = nested_loop_dml(CdwEngine(), _ruled_out(key_sides))
    assert keyed == _outcome(tolerant, setup, sql), sql


# -- linear work -------------------------------------------------------------

#: Beta's apply shapes: the staging row's key is trimmed, and a
#: ``__SEQ`` range bounds the source.
APPLY_SQL = {
    "update": "UPDATE T SET V = STG.V FROM STG_T AS STG "
              "WHERE T.K = TRIM(STG.K) AND STG.__SEQ BETWEEN 0 AND {hi}",
    "delete": "DELETE FROM T USING STG_T AS STG "
              "WHERE T.K = TRIM(STG.K) AND STG.__SEQ BETWEEN 0 AND {hi}",
    "merge": "MERGE INTO T USING (SELECT STG.K AS K, STG.V AS V "
             "FROM STG_T AS STG WHERE STG.__SEQ BETWEEN 0 AND {hi}) AS STG "
             "ON T.K = TRIM(STG.K) WHEN MATCHED THEN UPDATE SET V = STG.V "
             "WHEN NOT MATCHED THEN INSERT VALUES (TRIM(STG.K), STG.V)",
}


def _apply_engine(rows: int) -> CdwEngine:
    """An ``rows``-row target and ``rows`` staging records, each
    hitting one target key (in a shuffled order, padded with blanks)."""
    engine = CdwEngine()
    engine.execute("CREATE TABLE T (K VARCHAR(12) NOT NULL, V VARCHAR(16), "
                   "UNIQUE (K))")
    engine.execute("CREATE TABLE STG_T (K VARCHAR(12), V VARCHAR(16), "
                   "__SEQ BIGINT)")
    for lo in range(0, rows, 400):
        batch = range(lo, min(rows, lo + 400))
        engine.execute("INSERT INTO T VALUES " + ", ".join(
            f"('k{i}', 'v{i}')" for i in batch))
        engine.execute("INSERT INTO STG_T VALUES " + ", ".join(
            f"(' k{(i * 7) % rows} ', 'u{i}', {i})" for i in batch))
    return engine


def _predicate_evaluations(monkeypatch, kind: str, rows: int) -> int:
    """How many times one apply statement evaluates its predicate on a
    (target, source) pair."""
    engine = _apply_engine(rows)
    stmt = parse_statement(APPLY_SQL[kind].format(hi=rows), dialect="cdw")
    predicate = stmt.on if kind == "merge" else stmt.where
    count = 0
    real = _Evaluator.eval

    def counting(self, expr):
        nonlocal count
        count += expr is predicate
        return real(self, expr)

    with monkeypatch.context() as patch:
        patch.setattr(_Evaluator, "eval", counting)
        result = engine.execute(stmt)
    assert result.activity_count == rows
    return count


@pytest.mark.parametrize("kind", sorted(APPLY_SQL))
def test_predicate_evaluations_grow_linearly(monkeypatch, kind):
    small = _predicate_evaluations(monkeypatch, kind, 200)
    large = _predicate_evaluations(monkeypatch, kind, 800)
    # Every match is decided by the predicate, never by the index ...
    assert small >= 200 and large >= 800
    # ... and 4x the rows cost about 4x the evaluations (a nested loop
    # costs 16x).
    assert large <= 4.5 * small, (small, large)
