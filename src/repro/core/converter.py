"""DataConverter: legacy wire chunks → CDW staging-file chunks (Section 4).

One conversion turns a chunk of legacy-encoded records (VARTEXT or BINARY)
into CSV bytes the CDW's ``COPY INTO`` understands, handling exactly the
discrepancies the paper lists: binary value decoding, *null detection*
(legacy empty VARTEXT field = NULL, CDW distinguishes ``\\N`` from ``""``),
and escaping of special characters (the CSV quoting rules).

Each record receives a synthetic ``__SEQ`` value ``chunk_seq * stride +
index`` so the staging table preserves the input-file order across
out-of-order parallel conversion — the basis for the adaptive error
handler's range splitting and row-number reporting.

Records that cannot be decoded at all (wrong field count, truncated
binary) are *acquisition errors*: they are excluded from the staging data
and reported with their legacy error code so Beta can record them in the
transformation error table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cdw import stagefile
from repro.errors import DataFormatError
from repro.legacy.datafmt import RecordFormat
from repro.obs import NULL_OBS, Observability, get_logger

__all__ = ["ConvertedChunk", "AcquisitionError", "DataConverter"]

log = get_logger("converter")


@dataclass(frozen=True)
class AcquisitionError:
    """A record rejected during conversion (before it ever reaches SQL)."""

    seq: int                  # synthetic __SEQ of the bad record
    code: int
    field: str | None
    message: str


@dataclass
class ConvertedChunk:
    """The output of one DataConverter invocation."""

    chunk_seq: int
    csv_bytes: bytes
    records: int
    errors: list[AcquisitionError] = field(default_factory=list)

    @property
    def total_records(self) -> int:
        """Input records including rejected ones (for row numbering)."""
        return self.records + len(self.errors)


class DataConverter:
    """Stateless conversion logic; instantiated once per load job.

    The pipeline runs many invocations concurrently on worker threads —
    safe because conversion only reads shared state.
    """

    def __init__(self, record_format: RecordFormat, seq_stride: int,
                 csv_delimiter: str = ",",
                 obs: Observability = NULL_OBS,
                 staging_table: str | None = None):
        self.record_format = record_format
        self.seq_stride = seq_stride
        self.csv_delimiter = csv_delimiter
        self.obs = obs
        self.staging_table = staging_table
        self.kernel = stagefile.CsvKernel(csv_delimiter)
        # Each pool thread running convert lanes reuses one scratch buffer
        # instead of growing a fresh list per chunk.
        self._scratch = threading.local()

    def convert(self, chunk_seq: int, data: bytes) -> ConvertedChunk:
        """Convert one legacy chunk into CSV staging bytes."""
        total = self.record_format.count_records(data)
        if total > self.seq_stride:
            where = (f" of staging table {self.staging_table}"
                     if self.staging_table else "")
            raise DataFormatError(
                f"chunk {chunk_seq}{where} holds {total} records, more "
                f"than the configured seq_stride of {self.seq_stride}; "
                f"raise seq_stride")
        base = chunk_seq * self.seq_stride
        out = getattr(self._scratch, "lines", None)
        if out is None:
            out = self._scratch.lines = []
        else:
            out.clear()
        errors: list[AcquisitionError] = []
        index = 0
        render_row = self.kernel.render_row
        append = out.append
        for item in self.record_format.iter_decode(data):
            seq = base + index
            index += 1
            if isinstance(item, DataFormatError):
                errors.append(AcquisitionError(
                    seq=seq, code=item.code, field=item.field,
                    message=str(item)))
                continue
            append(render_row(item, seq))
        records = index - len(errors)
        csv_bytes = "".join(out).encode("utf-8")
        out.clear()
        self.obs.records_converted.inc(records)
        if errors:
            self.obs.acquisition_errors.inc(len(errors))
            log.debug("chunk %d: %d records rejected during conversion",
                      chunk_seq, len(errors))
        return ConvertedChunk(
            chunk_seq=chunk_seq,
            csv_bytes=csv_bytes,
            records=records,
            errors=errors,
        )
