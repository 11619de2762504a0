"""Differential export parity: Hyper-Q against the reference legacy server.

The same unmodified client runs the same export against both backends and
must get the same file: identical ``data`` bytes, ``rows_exported`` and
``columns``.  The table mixes every type family the export path encodes
(integers, DECIMAL, FLOAT, DATE, TIMESTAMP, VARCHAR with the VARTEXT
delimiter and quotes in it, CHAR) with NULLs in every column, and the
matrix crosses session striping, chunk sizes and both output formats.
"""

import pytest

from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import ExportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec
from repro.legacy.server import LegacyServer

DDL = ("create table PX (I integer, B bigint, D decimal(10,2), F float, "
       "DT date, TS timestamp, V varchar(20), C char(4))")

#: VARCHAR values that stress VARTEXT: the delimiter, quotes, empty.
_TEXTS = ["plain", "a|b", "it''s", "''", "x|y|z", "", "q''|''q"]


def _row_literals(i: int) -> list[str]:
    literals = [
        str(i),
        str(4_000_000_000 + i * 7),
        f"{i * 3}.{i % 100:02d}",
        f"{i * 1.25}",
        f"DATE '2020-{i % 12 + 1:02d}-{i % 28 + 1:02d}'",
        f"TIMESTAMP '2021-03-{i % 28 + 1:02d} {i % 24:02d}:{i % 60:02d}:05'",
        f"'{_TEXTS[i % len(_TEXTS)]}'",
        f"'c{i % 10}'",
    ]
    # Row i nulls column i mod 9, so every column holds NULLs (the
    # ninth pattern keeps some rows NULL-free).
    if i % 9 < len(literals):
        literals[i % 9] = "NULL"
    return literals


ROW_COUNT = 23
INSERTS = [f"insert into PX values ({', '.join(_row_literals(i))})"
           for i in range(ROW_COUNT)]
SELECT = "sel * from PX order by B, I"
EMPTY_SELECT = "sel * from PX where I < 0"


def _populate(connect) -> None:
    client = LegacyEtlClient(connect)
    client.logon("h", "u", "p")
    client.execute_sql(DDL)
    for statement in INSERTS:
        client.execute_sql(statement)
    client.logoff()


def _export(connect, sql: str, sessions: int, fmt: str):
    client = LegacyEtlClient(connect, timeout=30)
    client.logon("h", "u", "p")
    try:
        result = client.run_export(ExportJobSpec(
            sql, format_spec=FormatSpec(fmt), sessions=sessions))
    finally:
        client.logoff()
    return result.data, result.rows_exported, result.columns


@pytest.fixture(scope="module")
def legacy():
    server = LegacyServer().start()
    _populate(server.connect)
    yield server
    server.stop()


#: the param names the front end, which keeps the test ids stable.
@pytest.fixture(scope="module", params=["threaded"])
def hyperq():
    stack = build_stack(config=HyperQConfig(
        converters=1, filewriters=1, credits=4))
    _populate(stack.node.connect)
    yield stack
    stack.close()


def _both(legacy, hyperq, sql, sessions, chunk_rows, fmt):
    legacy.chunk_rows = chunk_rows
    hyperq.node.config.export_chunk_rows = chunk_rows
    return (_export(legacy.connect, sql, sessions, fmt),
            _export(hyperq.node.connect, sql, sessions, fmt))


@pytest.mark.parametrize("sessions,chunk_rows,fmt", [
    (1, 1000, "vartext"),
    (2, 7, "vartext"),
    (3, 1, "vartext"),
    (1, 7, "binary"),
    (2, 1, "binary"),
    (3, 1000, "binary"),
])
def test_export_matches_legacy(legacy, hyperq, sessions, chunk_rows, fmt):
    reference, ours = _both(legacy, hyperq, SELECT, sessions, chunk_rows,
                            fmt)
    assert reference[1] == ROW_COUNT
    assert ours == reference
    assert hyperq.node._exports == {}


@pytest.mark.parametrize("fmt", ["vartext", "binary"])
def test_empty_export_matches_legacy(legacy, hyperq, fmt):
    reference, ours = _both(legacy, hyperq, EMPTY_SELECT, 2, 7, fmt)
    assert reference[:2] == (b"", 0)
    assert ours == reference
