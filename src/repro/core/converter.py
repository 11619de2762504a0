"""DataConverter: legacy wire chunks → CDW staging blocks (Section 4).

One conversion turns a chunk of legacy-encoded records (VARTEXT or BINARY)
into one staging block (:mod:`repro.cdw.stagefile`) the CDW's ``COPY
INTO … FORMAT block`` appends column by column, handling exactly the
discrepancies the paper lists: binary value decoding (typed values
become the text the CSV rules render) and *null detection* (legacy
empty VARTEXT field = NULL; the block's validity bytes distinguish NULL
from ``""``).  A block needs no escaping: values are length-delimited.

Each record receives a synthetic ``__SEQ`` value ``chunk_seq * stride +
index`` so the staging table preserves the input-file order across
out-of-order parallel conversion — the basis for the adaptive error
handler's range splitting and row-number reporting.

A clean VARTEXT chunk — no backslash, every non-empty line of the
layout's arity — splits into columns with a handful of C-level bytes
calls: arity is proven by comparing the chunk's skeleton (its delimiter
and newline bytes) with one line's repeated, and each column is framed
by its values' byte lengths (:mod:`repro.cdw.stagefile`).  Any other
chunk goes record by record through the compiled codec's decoder.  Records that cannot be decoded at all (wrong field
count, truncated binary) are *acquisition errors*: they are excluded
from the staging data and reported with their legacy error code so Beta
can record them in the transformation error table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.cdw import stagefile
from repro.errors import DataFormatError
from repro.legacy.datafmt import RecordFormat, VartextFormat
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
    #: one staging block, or ``b""`` when every record was rejected.
    block: bytes
    records: int
    errors: list[AcquisitionError] = field(default_factory=list)

    # The frozen benchmark's convert hook (benchmarks/e2e/tracing.py)
    # reads the staged size under this name.
    csv_bytes = property(lambda self: self.block)

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
                 obs: Observability = NULL_OBS,
                 staging_table: str | None = None):
        self.record_format = record_format
        self.seq_stride = seq_stride
        self.obs = obs
        self.staging_table = staging_table
        self._arity = record_format.layout.arity
        #: the VARTEXT delimiter as bytes (None for BINARY).  UTF-8 is
        #: self-synchronising, so splitting the bytes on it splits the
        #: text on it.
        self._separator = (
            record_format.delimiter.encode("utf-8")
            if isinstance(record_format, VartextFormat) else None)
        if self._separator is not None:
            #: one line's delimiter and newline bytes, and every byte
            #: but those (deleted to leave a chunk's skeleton).
            self._row_skeleton = self._separator * (self._arity - 1) \
                + b"\n"
            self._noise = bytes(set(range(256)).difference(
                self._row_skeleton))

    def convert(self, chunk_seq: int, data: bytes) -> ConvertedChunk:
        """Convert one legacy chunk into one staging block."""
        raw = data
        if self._separator is not None:
            # The VARTEXT records are its non-empty lines (no UTF-8
            # character holds the byte 0x0A): blank lines go, the last
            # line gets its newline, and the skeleton (every byte but
            # the delimiter's and the newline deleted) counts them.
            if b"\n\n" in data or data[:1] == b"\n":
                data = b"\n".join(filter(None, data.split(b"\n")))
            if data[-1:] not in (b"", b"\n"):
                data += b"\n"
            skeleton = data.translate(None, self._noise)
            total = skeleton.count(b"\n")
        else:
            total = self.record_format.count_records(data)
        if total > self.seq_stride:
            where = (f" of staging table {self.staging_table}"
                     if self.staging_table else "")
            raise DataFormatError(
                f"chunk {chunk_seq}{where} holds {total} records, more "
                f"than the configured seq_stride of {self.seq_stride}; "
                f"raise seq_stride")
        base = chunk_seq * self.seq_stride
        errors: list[AcquisitionError] = []
        converted = None
        if self._separator is not None:
            if not raw.isascii():
                raw.decode("utf-8")   # the decoder's validation and error
            converted = self._split_clean(data, skeleton, total, base)
        if converted is None:
            converted = self._convert_records(data, base, errors)
        block, records = converted
        self.obs.records_converted.inc(records)
        if errors:
            self.obs.acquisition_errors.inc(len(errors))
            log.debug("chunk %d: %d records rejected during conversion",
                      chunk_seq, len(errors))
        return ConvertedChunk(
            chunk_seq=chunk_seq,
            block=block,
            records=records,
            errors=errors,
        )

    def _split_clean(self, data: bytes, skeleton: bytes, rows: int,
                     base: int) -> "tuple[bytes, int] | None":
        """A clean VARTEXT chunk of ``rows`` lines (UTF-8, none blank)
        as ``(block, records)``; None for a chunk with an escape or a
        line of the wrong arity.

        Arity is one compare: the chunk's ``skeleton`` must read one
        line's delimiters and newline once per line.  A multi-byte
        delimiter's bytes may also occur inside other characters, so the
        split must then yield ``arity`` fields per line as well.
        """
        if b"\\" in data or skeleton != self._row_skeleton * rows:
            return None
        if not rows:
            return b"", 0
        separator = self._separator
        arity = self._arity
        fields = data.replace(b"\n", separator).split(separator)
        fields.pop()                    # after the last newline
        if len(fields) != arity * rows:
            return None
        columns = [stagefile.fields_column(fields[i::arity])
                   for i in range(arity)]
        return stagefile.encode_block(range(base, base + rows),
                                      columns), rows

    def _convert_records(self, data: bytes, base: int,
                         errors: list) -> tuple[bytes, int]:
        """Record-by-record conversion through the codec's decoder;
        rejected records append to ``errors``."""
        seq = array("q")
        rows = []
        for index, item in enumerate(self.record_format.iter_decode(data)):
            if isinstance(item, DataFormatError):
                errors.append(AcquisitionError(
                    seq=base + index, code=item.code, field=item.field,
                    message=str(item)))
                continue
            rows.append(item)
            seq.append(base + index)
        if not rows:
            return b"", 0
        columns = [stagefile.values_column(column)
                   for column in zip(*rows)]
        return stagefile.encode_block(seq, columns), len(rows)
