"""DATE text kept across exports: the renderers' shared memo.

The compiled VARTEXT renderers are kept across exports, one per field
type, and a DATE column's text comes from one memo of each date's ISO
bytes that every export shares (``repro.legacy.codec._DATE_TEXT``,
bounded by ``_DATE_TEXT_MAX``).  Exports through Hyper-Q must still be
byte for byte what the reference legacy server (which encodes with the
reference :class:`~repro.legacy.datafmt.VartextFormat`) sends, with the
same BEGIN_EXPORT_OK columns:

- two concurrent exports of tables with disjoint dates, with the
  memo at its bound and at a bound small enough that their fills clear
  each other's dates;
- exports whose dates fill the memo past its bound, in chunks of fewer
  and of more distinct dates than it keeps;
- a table with a DATE and a TIMESTAMP column, and a DATE field handed a
  ``Timestamp``, which must never take a date's text.
"""

from __future__ import annotations

import datetime
import threading

import pytest

from repro.bench.harness import build_stack
from repro.cdw.columns import ColumnBlock
from repro.core.config import HyperQConfig
from repro.legacy import codec
from repro.legacy.client import ExportJobSpec, LegacyEtlClient
from repro.legacy.datafmt import FormatSpec, VartextFormat
from repro.legacy.server import LegacyServer
from repro.legacy.types import FieldDef, Layout, parse_type

ROWS = 300

#: table -> (DDL, rows): D1 and D2 hold disjoint dates, one per day.
TABLES = {
    "D1": ("create table D1 (K integer, D date)",
           [(i, datetime.date(1990, 1, 1) + datetime.timedelta(days=i))
            for i in range(ROWS)]),
    "D2": ("create table D2 (K integer, D date)",
           [(i, None if i % 7 == 0 else
             datetime.date(2010, 6, 1) + datetime.timedelta(days=3 * i))
            for i in range(ROWS)]),
    "MIX": ("create table MIX (D date, TS timestamp, V varchar(8))",
            [(datetime.date(2021, 1, 1 + i % 28),
              datetime.datetime(2021, 1, 1 + i % 28, i % 24, 0, 5),
              f"v{i}") for i in range(ROWS)]),
}


def _populate(engine) -> None:
    for name, (ddl, rows) in TABLES.items():
        engine.execute(ddl)
        engine.table(name).append_rows(rows)


def _export(connect, sql: str):
    client = LegacyEtlClient(connect, timeout=30)
    client.logon("h", "u", "p")
    try:
        result = client.run_export(ExportJobSpec(
            sql, format_spec=FormatSpec("vartext"), sessions=2))
    finally:
        client.logoff()
    return result.data, result.rows_exported, result.columns


@pytest.fixture(scope="module")
def servers():
    """The reference server and Hyper-Q, both in chunks of 40 rows."""
    legacy = LegacyServer(chunk_rows=40).start()
    _populate(legacy.engine)
    stack = build_stack(config=HyperQConfig(export_chunk_rows=40))
    _populate(stack.engine)
    yield legacy, stack
    legacy.stop()
    stack.close()


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each test starts from an empty memo (and leaves the real one)."""
    monkeypatch.setattr(codec, "_DATE_TEXT", {None: b""})


def _reference(legacy, sql: str):
    reference = _export(legacy.connect, sql)
    assert reference[1] == ROWS
    return reference


@pytest.mark.parametrize("bound", [codec._DATE_TEXT_MAX, 50])
def test_concurrent_exports_with_disjoint_dates(servers, monkeypatch,
                                                bound):
    legacy, stack = servers
    monkeypatch.setattr(codec, "_DATE_TEXT_MAX", bound)
    sqls = ["sel * from D1", "sel * from D2"]
    want = {sql: _reference(legacy, sql) for sql in sqls}
    got: dict = {sql: [] for sql in sqls}
    failures: list = []

    def exports(sql: str) -> None:
        try:
            for _ in range(4):
                got[sql].append(_export(stack.node.connect, sql))
        except BaseException as exc:    # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [threading.Thread(target=exports, args=(sql,))
               for sql in sqls]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    for sql in sqls:
        assert got[sql] == [want[sql]] * 4
    assert len(codec._DATE_TEXT) <= bound


@pytest.mark.parametrize("chunk_rows", [40, 7])
def test_a_fill_past_the_bound(servers, monkeypatch, chunk_rows):
    """With a bound of 30 a 40-row chunk holds more dates than the memo
    keeps (its own texts), and 7-row chunks fill it past its bound
    again and again (it starts over)."""
    legacy, stack = servers
    monkeypatch.setattr(codec, "_DATE_TEXT_MAX", 30)
    monkeypatch.setattr(stack.node.config, "export_chunk_rows", chunk_rows)
    for sql in ("sel * from D1", "sel * from D2", "sel * from D1"):
        assert _export(stack.node.connect, sql) == _reference(legacy, sql)
        assert len(codec._DATE_TEXT) <= 30


def test_dates_beside_timestamps(servers):
    legacy, stack = servers
    for sql in ("sel * from MIX", "sel TS, D from MIX order by V"):
        reference = _reference(legacy, sql)
        assert _export(stack.node.connect, sql) == reference
    assert all(type(day) is datetime.date
               for day in codec._DATE_TEXT if day is not None)


def test_a_timestamp_in_a_date_field_never_takes_a_dates_text():
    """A DATE field handed a block whose column holds a ``Timestamp``
    on a date the memo knows: the chunk renders as the reference
    renders its rows, or fails as it does."""
    layout = Layout("L", [FieldDef("D", parse_type("date"))])
    day = datetime.date(2021, 3, 4)
    compiled = codec.compile_format(FormatSpec("vartext"), layout)
    assert compiled.encode_records(ColumnBlock([[day, None]], 2)) == \
        b"2021-03-04\n\n"
    mixed = [day, datetime.datetime(2021, 3, 4, 5, 6, 7), None]

    def outcome(encode):
        try:
            return encode()
        except Exception as exc:    # noqa: BLE001 - outcomes are diffed
            return type(exc).__name__, str(exc)

    assert outcome(lambda: compiled.encode_records(
        ColumnBlock([mixed], 3))) == outcome(
        lambda: VartextFormat(layout).encode_records(
            [(value,) for value in mixed]))
    assert datetime.datetime(2021, 3, 4, 5, 6, 7) not in codec._DATE_TEXT


def test_racing_fills_give_every_chunk_its_own_dates(monkeypatch):
    """Threads rendering disjoint dates through a memo small enough
    that each fill clears the others': every chunk's text is its own."""
    monkeypatch.setattr(codec, "_DATE_TEXT_MAX", 24)
    failures: list = []

    def render(year: int) -> None:
        days = [datetime.date(year, 1, 1) + datetime.timedelta(days=i)
                for i in range(20)]
        want = [day.isoformat().encode() for day in days]
        for _ in range(300):
            if codec._date_texts(days) != want:
                failures.append(year)
                return

    threads = [threading.Thread(target=render, args=(year,))
               for year in (1980, 1990, 2000, 2010)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert len(codec._DATE_TEXT) <= 24
