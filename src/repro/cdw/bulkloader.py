"""The cloud bulk loader utility (the AzCopy / ``aws s3 cp`` stand-in).

Section 6: "CDWs offer utilities to upload local data files to remote
storage accounts.  Some tuning may be needed ... data compression can
improve upload speed if the communication link ... is slow."  This
utility exposes that knob; the acquisition pipeline hands it each
staging file as it is finalized.

The loader is also the stack's first cloud-facing hop, so it hosts the
``store.upload`` / ``store.download`` fault-injection points and wraps
every blob PUT/GET in the node's retry policy and per-target circuit
breaker: transient store failures are absorbed here, invisible to the
pipeline above.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.cdw import stagefile
from repro.cdw.cloudstore import CloudStore
from repro.errors import StorageError
from repro.faults import NULL_INJECTOR, FaultInjector
from repro.obs import NULL_OBS, NULL_SPAN, Observability, get_logger
from repro.resilience import (
    CircuitBreakerRegistry, RetryPolicy, guarded_call,
)

__all__ = ["CloudBulkLoader", "UploadReport"]

log = get_logger("bulkloader")


@dataclass
class UploadReport:
    """What one invocation of the loader did."""

    files: int = 0
    raw_bytes: int = 0
    uploaded_bytes: int = 0
    compressed: bool = False

    @property
    def compression_ratio(self) -> float:
        if self.uploaded_bytes == 0:
            return 1.0
        return self.raw_bytes / self.uploaded_bytes


class CloudBulkLoader:
    """Uploads finalized local staging files into the cloud store."""

    def __init__(self, store: CloudStore, compression: str | None = None,
                 obs: Observability = NULL_OBS,
                 faults: FaultInjector = NULL_INJECTOR,
                 retry: RetryPolicy | None = None,
                 breakers: CircuitBreakerRegistry | None = None):
        if compression not in (None, "gzip"):
            raise StorageError(f"unsupported compression {compression!r}")
        self.store = store
        self.compression = compression
        self.obs = obs
        self.faults = faults
        self.retry = retry
        self.breakers = breakers

    def _prepare(self, data: bytes) -> bytes:
        if self.compression == "gzip":
            return stagefile.compress(data)
        return data

    def blob_name(self, prefix: str, filename: str) -> str:
        """Blob name a file of this name uploads to (compression-aware)."""
        name = f"{prefix.rstrip('/')}/{filename}" if prefix else filename
        if self.compression == "gzip":
            name += ".gz"
        return name

    _blob_name = blob_name

    def upload_file(self, local_path: str, container: str,
                    prefix: str = "", span=NULL_SPAN) -> UploadReport:
        """Upload one local file, applying compression if configured."""
        with open(local_path, "rb") as handle:
            data = handle.read()
        return self.upload_bytes(data, container, prefix,
                                 os.path.basename(local_path), span=span)

    def upload_bytes(self, data: bytes, container: str, prefix: str,
                     filename: str, span=NULL_SPAN) -> UploadReport:
        """Upload in-memory data (used when staging files never hit disk).

        ``span`` parents the retry spans emitted when transient store
        faults are absorbed on this call.
        """
        payload = self._prepare(data)
        blob = self._blob_name(prefix, filename)

        def put() -> None:
            self.faults.fire("store.upload", container=container,
                             blob=blob, bytes=len(payload))
            self.store.put_blob(container, blob, payload)

        with self.obs.upload_seconds.time():
            guarded_call("store.upload", put, retry=self.retry,
                         breakers=self.breakers, obs=self.obs,
                         parent=span)
        self.obs.bytes_uploaded.inc(len(payload))
        log.debug("uploaded %s/%s (%d -> %d bytes)",
                  container, blob, len(data), len(payload))
        return UploadReport(
            files=1, raw_bytes=len(data), uploaded_bytes=len(payload),
            compressed=self.compression is not None)

    # -- read side (used by COPY INTO) ---------------------------------------

    def fetch_decoded(self, container: str, blob: str,
                      span=NULL_SPAN) -> bytes:
        """Fetch a blob, transparently decompressing ``.gz`` payloads."""

        def get() -> bytes:
            self.faults.fire("store.download", container=container,
                             blob=blob)
            return self.store.get_blob(container, blob)

        data = guarded_call("store.download", get, retry=self.retry,
                            breakers=self.breakers, obs=self.obs,
                            parent=span)
        if blob.endswith(".gz"):
            return stagefile.decompress(data)
        return data
