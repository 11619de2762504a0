"""TDFCursor tests: ordered chunk serving with bounded prefetch."""

import sys
import threading
import time

import pytest

from repro.cdw.engine import CdwEngine
from repro.core.tdfcursor import TdfCursor
from repro.errors import GatewayError
from repro.legacy.datafmt import BinaryFormat, FormatSpec, make_format
from repro.legacy.infer import infer_result_layout


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
        assert cursor.layout == infer_result_layout(cursor.columns, rows)
        cursor.close()

    def test_rows_dropped_after_last_chunk_encoded(self, engine):
        cursor = TdfCursor(engine, "SELECT A FROM t ORDER BY A",
                           chunk_rows=10, prefetch=1)
        cursor.packet(0)
        cursor.packet(1)
        cursor._encoder.join(timeout=5.0)
        assert cursor._rows is None
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
        assert cursor._rows is None
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
