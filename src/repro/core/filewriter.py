"""FileWriter: serialize converted chunks into local staging files.

Section 3/5: the FileWriter receives converted chunks from parallel
sessions and serializes them into disk files — here by concatenating
each chunk's staging block (:mod:`repro.cdw.stagefile`) into
``part-<writer>-<file>.blk``; "the maximum size of the
serialized file is chosen to maximize the load performance into the CDW";
finalized files are handed to the upload stage.  Several FileWriters can
run concurrently, each building its own sequence of files.

Per Figure 4 the credit travelling with a chunk is returned to the pool
*just before the data is written to disk* — that hand-off happens in the
pipeline right before calling :meth:`FileWriter.append`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.obs import NULL_OBS, Observability, get_logger

__all__ = ["StagedFile", "FileWriter"]

log = get_logger("filewriter")


@dataclass(frozen=True)
class StagedFile:
    """A finalized local staging file ready for upload.

    ``chunks`` is the file's chunk manifest — one entry per client chunk
    whose converted bytes the file contains (``{"seq", "records",
    "errors"}``) — recorded in the job's
    :class:`~repro.resilience.checkpoint.CheckpointJournal` so a
    restarted job knows which chunks are already durable.
    """

    path: str
    size: int
    records: int
    chunks: tuple = ()

    @property
    def name(self) -> str:
        """The file's journal/blob key (its basename)."""
        return os.path.basename(self.path)


class FileWriter:
    """Concatenates staging blocks and cuts files at the size threshold.

    Not thread-safe by itself: the pipeline gives each FileWriter its own
    ordered lane, which also "prevents fluctuations in I/O performance
    from stalling the DataConverter workers".
    """

    def __init__(self, directory: str, writer_no: int,
                 threshold_bytes: int,
                 obs: Observability = NULL_OBS,
                 start_file_no: int = 0):
        self.directory = directory
        self.writer_no = writer_no
        self.threshold_bytes = threshold_bytes
        self.obs = obs
        #: the blocks of the file being built, and their total size.
        self._blocks: list[bytes] = []
        self._size = 0
        self._buffered_records = 0
        self._buffered_chunks: list[dict] = []
        #: resumed jobs continue numbering so new files never collide
        #: with (and overwrite) journaled durable ones.
        self._file_no = start_file_no
        self.files_written = 0
        self.bytes_written = 0

    def append(self, block: bytes, records: int,
               chunk: dict | None = None) -> StagedFile | None:
        """Buffer one converted chunk's block; returns a file when one
        fills up.

        ``chunk`` is the manifest entry describing the buffered chunk
        (seq, record count, acquisition errors) — carried onto the
        finalized :class:`StagedFile` for checkpoint journaling.
        """
        self._blocks.append(block)
        self._size += len(block)
        self._buffered_records += records
        if chunk is not None:
            self._buffered_chunks.append(chunk)
        if self._size >= self.threshold_bytes:
            return self._finalize()
        return None

    def flush(self) -> StagedFile | None:
        """Finalize whatever is buffered (end of acquisition).

        A buffer of zero bytes still finalizes when chunk manifests are
        pending: a chunk whose records were all rejected contributes no
        block, but its manifest entry must reach the checkpoint journal
        all the same.
        """
        if not self._size and not self._buffered_chunks:
            return None
        return self._finalize()

    def _finalize(self) -> StagedFile:
        name = f"part-{self.writer_no:02d}-{self._file_no:05d}.blk"
        path = os.path.join(self.directory, name)
        with open(path, "wb") as handle:
            handle.writelines(self._blocks)
        staged = StagedFile(
            path=path, size=self._size,
            records=self._buffered_records,
            chunks=tuple(self._buffered_chunks))
        self.files_written += 1
        self.bytes_written += self._size
        self.obs.files_written.inc()
        self.obs.staged_file_bytes.observe(staged.size)
        log.debug("finalized staging file %s (%d bytes, %d records)",
                  name, staged.size, staged.records)
        self._file_no += 1
        self._blocks = []
        self._size = 0
        self._buffered_records = 0
        self._buffered_chunks = []
        return staged
