"""Simulated cloud object store (the Azure Blob / S3 stand-in).

Blobs live in containers; uploads can be slowed by an optional link
bandwidth to model the "communication link between the Hyper-Q server and
the CDW" whose speed makes compression worthwhile (Section 6).
"""

from __future__ import annotations

import threading
import time

from repro.errors import StorageError

__all__ = ["CloudStore"]


class CloudStore:
    """A thread-safe in-memory container/blob store.

    ``bandwidth_bytes_per_s=None`` uploads instantly; a finite bandwidth
    sleeps proportionally to the payload size (capped by ``max_delay_s`` so
    pathological configurations cannot hang a test run).
    """

    def __init__(self, bandwidth_bytes_per_s: float | None = None,
                 max_delay_s: float = 2.0):
        self._containers: dict[str, dict[str, bytes]] = {}
        self._lock = threading.Lock()
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.max_delay_s = max_delay_s
        #: statistics: total bytes ever uploaded (post-compression).
        self.bytes_uploaded = 0
        self.upload_count = 0

    # -- containers ----------------------------------------------------------

    def create_container(self, name: str) -> None:
        """Create a container (idempotent)."""
        with self._lock:
            self._containers.setdefault(name, {})

    def containers(self) -> list[str]:
        """Sorted names of all containers."""
        with self._lock:
            return sorted(self._containers)

    # -- blobs ------------------------------------------------------------------

    def _simulate_link(self, size: int) -> None:
        if self.bandwidth_bytes_per_s:
            delay = min(size / self.bandwidth_bytes_per_s, self.max_delay_s)
            if delay > 0:
                time.sleep(delay)

    def put_blob(self, container: str, name: str, data: bytes) -> None:
        """Upload a blob (applies the simulated link delay)."""
        self._simulate_link(len(data))
        with self._lock:
            blobs = self._containers.get(container)
            if blobs is None:
                raise StorageError(f"no such container {container!r}")
            blobs[name] = bytes(data)
            self.bytes_uploaded += len(data)
            self.upload_count += 1

    def get_blob(self, container: str, name: str) -> bytes:
        """Fetch a blob's bytes; raises StorageError if absent."""
        with self._lock:
            blobs = self._containers.get(container)
            if blobs is None:
                raise StorageError(f"no such container {container!r}")
            data = blobs.get(name)
            if data is None:
                raise StorageError(
                    f"no such blob {name!r} in container {container!r}")
            return data

    def list_blobs(self, container: str, prefix: str = "") -> list[str]:
        """Sorted blob names under a prefix."""
        with self._lock:
            blobs = self._containers.get(container)
            if blobs is None:
                raise StorageError(f"no such container {container!r}")
            return sorted(b for b in blobs if b.startswith(prefix))

    def delete_prefix(self, container: str, prefix: str) -> int:
        """Remove every blob under ``prefix``; returns how many."""
        with self._lock:
            blobs = self._containers.get(container)
            if blobs is None:
                raise StorageError(f"no such container {container!r}")
            doomed = [b for b in blobs if b.startswith(prefix)]
            for name in doomed:
                del blobs[name]
            return len(doomed)

    # -- URLs -----------------------------------------------------------------

    @staticmethod
    def parse_url(url: str) -> tuple[str, str]:
        """Split ``store://container/prefix`` into (container, prefix)."""
        if not url.startswith("store://"):
            raise StorageError(f"not a store URL: {url!r}")
        rest = url[len("store://"):]
        container, _, prefix = rest.partition("/")
        if not container:
            raise StorageError(f"store URL missing container: {url!r}")
        return container, prefix

    @staticmethod
    def make_url(container: str, prefix: str) -> str:
        return f"store://{container}/{prefix}"
