"""TDFCursor: on-demand retrieval and buffering of result chunks.

Section 3: "Hyper-Q uses a TDFCursor process which allows on-demand
retrieval and buffering of result chunks received from the CDW system ...
Hyper-Q buffers chunks received by the TDFCursor process in advance and
associates each chunk with its order to serve client sessions requesting
different chunks."

A background thread encodes TDF packets ahead of the clients into a
bounded buffer; parallel export sessions each request their own chunk
numbers and block until theirs is ready.
"""

from __future__ import annotations

import threading
import time

from repro.cdw.engine import CdwEngine
from repro.core import tdf
from repro.errors import GatewayError
from repro.sqlxc import nodes as n

__all__ = ["TdfCursor"]


class TdfCursor:
    """Buffers a query's result as ordered TDF packets."""

    def __init__(self, engine: CdwEngine, select: "n.Select | str",
                 chunk_rows: int = 1000, prefetch: int = 4):
        if chunk_rows < 1:
            raise GatewayError("chunk_rows must be positive")
        result = engine.execute(select)
        if result.kind != "rows":
            raise GatewayError("TDFCursor needs a SELECT statement")
        self.columns: list[str] = result.columns
        self.total_rows = len(result.rows)
        self._rows = result.rows
        self.chunk_rows = chunk_rows
        self.num_chunks = max(
            (self.total_rows + chunk_rows - 1) // chunk_rows, 0)
        self.prefetch = max(prefetch, 1)

        self._buffer: dict[int, bytes] = {}
        self._next_to_encode = 0
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._closed = False
        self._encoder = threading.Thread(
            target=self._encode_ahead, daemon=True, name="tdf-cursor")
        self._encoder.start()

    # -- background encoding ---------------------------------------------------

    def _encode_ahead(self) -> None:
        while True:
            with self._ready:
                while (len(self._buffer) >= self.prefetch
                       and not self._closed):
                    self._ready.wait(timeout=0.5)
                if self._closed or self._next_to_encode >= self.num_chunks:
                    return
                chunk_no = self._next_to_encode
                self._next_to_encode += 1
            start = chunk_no * self.chunk_rows
            packet = tdf.encode_packet(
                chunk_no, self.columns,
                self._rows[start:start + self.chunk_rows])
            with self._ready:
                self._buffer[chunk_no] = packet
                self._ready.notify_all()

    # -- serving ------------------------------------------------------------------

    def packet(self, chunk_no: int,
               timeout_s: float = 30.0) -> bytes | None:
        """The TDF packet for ``chunk_no`` (``None`` past end of data).

        Each packet is served exactly once; serving frees its buffer slot
        so the encoder can run ahead.
        """
        if chunk_no >= self.num_chunks:
            return None
        with self._ready:
            deadline = time.monotonic() + timeout_s
            while chunk_no not in self._buffer:
                if self._closed:
                    raise GatewayError("TDFCursor is closed")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise GatewayError(
                        f"timed out waiting for export chunk {chunk_no}")
                self._ready.wait(timeout=min(remaining, 0.5))
            packet = self._buffer.pop(chunk_no)
            self._ready.notify_all()
            return packet

    def close(self) -> None:
        """Stop the prefetch thread and drop the buffer."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()
        self._encoder.join(timeout=5.0)
