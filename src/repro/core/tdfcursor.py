"""TDFCursor: on-demand retrieval and buffering of result chunks.

Section 3: "Hyper-Q uses a TDFCursor process which allows on-demand
retrieval and buffering of result chunks received from the CDW system ...
Hyper-Q buffers chunks received by the TDFCursor process in advance and
associates each chunk with its order to serve client sessions requesting
different chunks."

A background thread encodes each chunk once, as the block of legacy
records in the job's output format (VARTEXT or BINARY), into a bounded
buffer ahead of the parallel export sessions, which each request their
own chunks and block until ready.  The client writes the blocks to its
file in chunk order; no record is decoded or re-encoded after this.
"""

from __future__ import annotations

import threading

from repro.cdw.engine import CdwEngine
from repro.errors import GatewayError
from repro.legacy.datafmt import FormatSpec, make_format
from repro.legacy.infer import infer_result_layout
from repro.sqlxc import nodes as n

__all__ = ["TdfCursor"]


class TdfCursor:
    """Buffers a query's result as ordered blocks of legacy records.

    ``format_spec`` names the record format of every block (the export
    job's output format); BINARY unless given.
    """

    def __init__(self, engine: CdwEngine, select: "n.Select | str",
                 chunk_rows: int = 1000, prefetch: int = 4,
                 format_spec: FormatSpec = FormatSpec("binary")):
        if chunk_rows < 1:
            raise GatewayError("chunk_rows must be positive")
        result = engine.execute(select)
        if result.kind != "rows":
            raise GatewayError("TDFCursor needs a SELECT statement")
        self.columns: list[str] = result.columns
        self.total_rows = len(result.rows)
        # Inferred from the whole result so every chunk is encoded alike.
        self.layout = infer_result_layout(result.columns, result.rows)
        self._format = make_format(format_spec, self.layout)
        self._rows: list[tuple] | None = result.rows
        self.chunk_rows = chunk_rows
        self.num_chunks = (self.total_rows + chunk_rows - 1) // chunk_rows
        self.prefetch = max(prefetch, 1)

        self._buffer: dict[int, bytes] = {}
        #: every chunk below this one has been encoded.
        self._next_to_encode = 0
        #: why the encoder stopped early (closed, or a chunk failed).
        self._stopped: str | None = None
        self._ready = threading.Condition()
        self._encoder = threading.Thread(
            target=self._encode_ahead, daemon=True, name="tdf-cursor")
        self._encoder.start()

    # -- background encoding ---------------------------------------------------

    def _encode_ahead(self) -> None:
        try:
            for chunk_no in range(self.num_chunks):
                with self._ready:
                    self._ready.wait_for(lambda: self._stopped
                                         or len(self._buffer) < self.prefetch)
                    if self._stopped:
                        return
                start = chunk_no * self.chunk_rows
                block = self._format.encode_records(
                    self._rows[start:start + self.chunk_rows])
                with self._ready:
                    self._buffer[chunk_no] = block
                    self._next_to_encode = chunk_no + 1
                    self._ready.notify_all()
        except Exception as exc:
            with self._ready:
                self._stopped = (f"export chunk {self._next_to_encode} "
                                 f"could not be encoded: {exc}")
                self._ready.notify_all()
        finally:
            self._rows = None

    # -- serving ------------------------------------------------------------------

    def packet(self, chunk_no: int,
               timeout_s: float = 30.0) -> bytes | None:
        """The record block (EXPORT_DATA body) for ``chunk_no``.

        ``None`` past end of data.  Each block is served once, freeing its
        slot for the encoder; a chunk already served, that does not exist
        or that will never be encoded raises at once.
        """
        if chunk_no >= self.num_chunks:
            return None
        with self._ready:
            self._ready.wait_for(
                lambda: chunk_no in self._buffer or self._stopped
                or chunk_no < self._next_to_encode, timeout_s)
            if chunk_no in self._buffer:
                block = self._buffer.pop(chunk_no)
                self._ready.notify_all()
                return block
            if chunk_no < self._next_to_encode:
                raise GatewayError(f"export chunk {chunk_no} was already "
                                   f"served or does not exist")
            raise GatewayError(self._stopped or f"timed out waiting for "
                               f"export chunk {chunk_no}")

    def close(self) -> None:
        """Stop the prefetch thread and drop the buffer."""
        with self._ready:
            self._stopped = self._stopped or "TDFCursor is closed"
            self._ready.notify_all()
        self._encoder.join(timeout=5.0)
