"""TDFCursor tests: ordered chunk serving with bounded prefetch."""

import sys
import threading
import time

import pytest

from repro.cdw.columns import ColumnBlock, ColumnStore
from repro.cdw.engine import CdwEngine
from repro.cdw.table import RowsView
from repro.core.tdfcursor import TdfCursor
from repro.errors import GatewayError
from repro.legacy.datafmt import (BinaryFormat, FormatSpec, VartextFormat,
                                  make_format)
from repro.legacy.infer import infer_column_layout


@pytest.fixture
def engine():
    eng = CdwEngine()
    eng.execute("CREATE TABLE t (A INT, B NVARCHAR(10))")
    rows = ", ".join(f"({i}, 'v{i}')" for i in range(25))
    eng.execute(f"INSERT INTO t VALUES {rows}")
    return eng


class TestCursor:
    def test_chunking(self, engine):
        cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                           chunk_rows=10)
        assert cursor.total_rows == 25
        assert cursor.num_chunks == 3
        cursor.close()

    def test_packets_in_order(self, engine):
        cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                           chunk_rows=10, prefetch=2)
        binary = make_format(FormatSpec("binary"), cursor.layout)
        seen = []
        for chunk_no in range(cursor.num_chunks):
            rows = binary.decode_records(cursor.packet(chunk_no))
            assert len(rows) == (10 if chunk_no < 2 else 5)
            seen.extend(row[0] for row in rows)
        assert seen == list(range(25))
        assert cursor.packet(cursor.num_chunks) is None
        cursor.close()

    def test_out_of_order_requests(self, engine):
        """Sessions request interleaved chunk numbers (Section 3)."""
        cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                           chunk_rows=5, prefetch=5)
        binary = make_format(FormatSpec("binary"), cursor.layout)
        results = {}

        def fetch(session_no, session_count):
            chunk_no = session_no
            while chunk_no < cursor.num_chunks:
                rows = binary.decode_records(cursor.packet(chunk_no))
                results[chunk_no] = [r[0] for r in rows]
                chunk_no += session_count

        threads = [threading.Thread(target=fetch, args=(i, 3))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ordered = [v for _, vs in sorted(results.items()) for v in vs]
        assert ordered == list(range(25))
        cursor.close()

    def test_empty_result(self, engine):
        cursor = TdfCursor(engine, "SELECT A FROM t WHERE A < 0")
        assert cursor.num_chunks == 0
        assert cursor.packet(0) is None
        cursor.close()

    def test_non_select_rejected(self, engine):
        with pytest.raises(GatewayError):
            TdfCursor(engine, "INSERT INTO t VALUES (99, 'x')")

    def test_prefetch_bounded(self, engine):
        cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                           chunk_rows=1, prefetch=3)
        import time
        deadline = time.monotonic() + 2
        while cursor._next_to_encode < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        # Encoder must stall at the prefetch window, not race ahead.
        assert cursor._next_to_encode <= 3 + 1
        cursor.close()

    def test_packets_are_reference_binary_blocks(self, engine):
        """Every block is byte-identical to the uncompiled reference
        BINARY encoding of its row slice."""
        cursor = TdfCursor(engine, "SELECT A, B FROM t ORDER BY A",
                           chunk_rows=7, prefetch=2)
        rows = engine.query("SELECT A, B FROM t ORDER BY A")
        reference = BinaryFormat(cursor.layout)
        for chunk_no in range(cursor.num_chunks):
            start = chunk_no * 7
            assert cursor.packet(chunk_no) == \
                reference.encode_records(rows[start:start + 7])
        cursor.close()

    def test_layout_is_inferred_from_the_result(self, engine):
        cursor = TdfCursor(engine, "SELECT A, B FROM t ORDER BY A")
        rows = engine.query("SELECT A, B FROM t ORDER BY A")
        assert cursor.layout == infer_column_layout(
            cursor.columns, ColumnBlock.from_rows(rows, 2).columns)
        cursor.close()

    def test_rows_dropped_after_last_chunk_encoded(self, engine):
        """Once the last chunk is encoded the cursor drops its
        columns: only the undelivered blocks stay."""
        cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                           chunk_rows=10, prefetch=1)
        assert cursor._block is not None
        cursor.packet(0)
        cursor.packet(1)
        cursor._encoder.join(timeout=5.0)
        assert cursor._block is None
        # The last block is still buffered for its session.
        assert cursor.packet(2) is not None
        cursor.close()


class TestCursorErrors:
    @pytest.fixture
    def overflowing(self):
        """A result whose first column overflows BIGINT's ``<q``."""
        eng = CdwEngine()
        eng.execute("CREATE TABLE t (A BIGINT, B INT)")
        eng.execute("INSERT INTO t VALUES (4000000000, 1), (2, 2)")
        return eng

    def test_encode_error_raised_at_once(self, overflowing):
        cursor = TdfCursor(overflowing, "SELECT A * A * A AS P, B FROM t",
                           chunk_rows=1)
        started = time.monotonic()
        for chunk_no in (0, 1):
            with pytest.raises(GatewayError, match="chunk 0") as caught:
                cursor.packet(chunk_no, timeout_s=30.0)
            assert "64000000000000000000000000000" in str(caught.value)
        assert time.monotonic() - started < 2.0
        assert cursor._block is None
        cursor.close()

    def test_served_and_negative_chunks_raise_at_once(self, engine):
        cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                           chunk_rows=10)
        assert cursor.packet(0) is not None
        started = time.monotonic()
        with pytest.raises(GatewayError, match="already served"):
            cursor.packet(0, timeout_s=30.0)
        with pytest.raises(GatewayError, match="-1 was already served"):
            cursor.packet(-1, timeout_s=30.0)
        assert time.monotonic() - started < 2.0
        cursor.close()


def test_striped_sessions_stress(engine):
    """More sessions than cores, tiny chunks and a short switch interval:
    every row arrives exactly once and no session errors or stalls."""
    sessions = 6
    cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                       chunk_rows=1, prefetch=sessions)
    binary = make_format(FormatSpec("binary"), cursor.layout)
    seen, failures = [], []

    def fetch(session_no):
        try:
            for chunk_no in range(session_no, cursor.num_chunks, sessions):
                seen.extend(r[0] for r in binary.decode_records(
                    cursor.packet(chunk_no, timeout_s=5.0)))
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch, args=(i,))
                   for i in range(sessions)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert sorted(seen) == list(range(25))
    cursor.close()


# -- the export reads a snapshot ---------------------------------------------

def _rows(count: int, tag: str) -> list[tuple]:
    return [(i, f"{tag}{i:03d}", f"{tag}-text-{i:03d}") for i in range(count)]


def _append(engine, rows) -> None:
    values = ", ".join(f"({k}, '{a}', '{b}')" for k, a, b in rows)
    engine.execute(f"INSERT INTO s VALUES {values}")


def _truncate_and_rerun(engine) -> None:
    """An apply rolled back by truncating the target in place (as the
    uniqueness emulation does), then run again with other rows: the
    table's text buffers are cut and refilled where the exported rows
    were."""
    with engine.locks.table_lock("s").write():
        engine.table("s").truncate_rows(3)
    _append(engine, [(k, f"z{k:03d}", f"z-text-{k:03d}")
                     for k in range(3, 12)])


#: what changes the table while its export is open.
CHANGES = {
    "insert": lambda engine: _append(engine, _rows(5, "new")),
    "delete": lambda engine: engine.execute("DELETE FROM s WHERE K < 6"),
    "update": lambda engine: engine.execute(
        "UPDATE s SET A = 'changed', B = NULL WHERE K >= 2"),
    "truncate": _truncate_and_rerun,
}

QUERIES = ["SELECT * FROM s", "SELECT K, B FROM s WHERE K >= 2",
           "SELECT B, A FROM s ORDER BY K DESC"]


@pytest.mark.parametrize("fmt", ["vartext", "binary"])
@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("change", sorted(CHANGES))
def test_export_reads_the_rows_at_begin_export(change, sql, fmt):
    """A change to the table after BEGIN_EXPORT (the cursor's SELECT)
    never reaches the export: every block encodes the rows the SELECT
    saw, however far the prefetch thread had got."""
    engine = CdwEngine()
    engine.execute("CREATE TABLE s (K INT, A VARCHAR(20), B VARCHAR(20))")
    _append(engine, _rows(12, "old"))
    before = engine.query(sql)
    spec = FormatSpec("vartext") if fmt == "vartext" \
        else FormatSpec("binary")
    cursor = TdfCursor(engine, sql, chunk_rows=2, prefetch=1,
                       format_spec=spec)
    CHANGES[change](engine)
    assert engine.query(sql) != before
    blocks = [cursor.packet(chunk_no)
              for chunk_no in range(cursor.num_chunks)]
    cursor.close()
    reference = (VartextFormat(cursor.layout) if fmt == "vartext"
                 else BinaryFormat(cursor.layout))
    assert b"".join(blocks) == reference.encode_records(before)
    assert cursor.total_rows == len(before)


class TestRowCount:
    def test_vector_select_counts_rows_without_tuples(self, engine,
                                                      monkeypatch):
        """``len(result.rows)`` and ``activity_count`` of a vector SELECT
        read the snapshot's length: no tuple is built."""
        built = []
        original = ColumnStore.tuples
        monkeypatch.setattr(
            ColumnStore, "tuples",
            lambda self, lo, hi: built.append((lo, hi))
            or original(self, lo, hi))
        result = engine.execute("SELECT A, B FROM t WHERE A >= 5")
        assert isinstance(result.rows, RowsView)
        assert len(result.rows) == 20
        assert result.activity_count == 20
        assert built == []
        assert result.rows[0] == (5, "v5")
        assert engine.vector_fallbacks == {"out_of_scope": 0}

    def test_query_returns_a_list(self, engine):
        rows = engine.query("SELECT A FROM t WHERE A < 3")
        assert type(rows) is list
        assert rows == [(0,), (1,), (2,)]
