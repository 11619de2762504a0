"""Single-threaded drives of the row-granular kernels.

The codecs decode through generators and render a row at a time, so a
span per call would cost more than the call.  Each drive instead runs one
kernel alone over the first 20 000 records of the workload's own input
and reports rows per second (median of :data:`REPEATS` passes).
"""

from __future__ import annotations

import statistics
import time

from repro.cdw.stagefile import CsvKernel, decode_csv_columns
from repro.core.tdf import encode_packet
from repro.legacy.datafmt import FormatSpec, make_format

ROWS = 20_000
REPEATS = 5
_PACKET_ROWS = 1000


def _rate(rows: int, operation) -> float:
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        operation()
        walls.append(time.perf_counter() - start)
    return rows / statistics.median(walls)


def run(layout, data: bytes) -> dict[str, float]:
    """Drive every kernel over the head of ``data`` (VARTEXT records)."""
    head = b"".join(data.splitlines(keepends=True)[:ROWS])
    vartext = make_format(FormatSpec("vartext", "|"), layout)
    binary = make_format(FormatSpec("binary"), layout)
    # Records the decoder rejects (short rows of dirty_load) stop at
    # the converter in the real pipeline, so later kernels skip them.
    rows = [r for r in vartext.iter_decode(head) if isinstance(r, tuple)]
    encoded = binary.encode_records(rows)
    kernel = CsvKernel(",")
    csv = "".join(kernel.render_row(row, seq)
                  for seq, row in enumerate(rows)).encode("utf-8")
    columns = [f.name for f in layout.fields]
    arity = len(columns) + 1
    if decode_csv_columns(csv, ",", arity) is None:
        raise RuntimeError("stagefile fast path refused the drive's CSV")

    def render():
        for seq, row in enumerate(rows):
            kernel.render_row(row, seq)

    def packets():
        for start in range(0, len(rows), _PACKET_ROWS):
            encode_packet(start // _PACKET_ROWS, columns,
                          rows[start:start + _PACKET_ROWS])

    records = head.count(b"\n")
    return {
        "legacy.codec.vartext_decode_rows_per_s": _rate(
            records, lambda: sum(1 for _ in vartext.iter_decode(head))),
        "legacy.codec.binary_encode_rows_per_s": _rate(
            len(rows), lambda: binary.encode_records(rows)),
        "legacy.codec.binary_decode_rows_per_s": _rate(
            len(rows), lambda: sum(1 for _ in binary.iter_decode(encoded))),
        "cdw.stagefile.render_rows_per_s": _rate(len(rows), render),
        "cdw.stagefile.decode_rows_per_s": _rate(
            len(rows), lambda: decode_csv_columns(csv, ",", arity)),
        "core.tdf.encode_rows_per_s": _rate(len(rows), packets),
    }
