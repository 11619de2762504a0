"""Real TCP transport with the same interface as :mod:`repro.net`.

The in-memory transport keeps tests hermetic; this module provides the
production-shaped alternative: a Hyper-Q node (or the reference legacy
server) listening on an actual socket, with unmodified clients
connecting over localhost or the network.  Both transports expose the
same ``Endpoint``/``Listener`` surface, so every component is
transport-agnostic — pass ``TcpListener`` where a
:class:`repro.net.Listener` is expected.

Every socket is tuned for the legacy protocol's traffic shape (see
:func:`tune_socket`): ``TCP_NODELAY`` because the protocol is strict
request/reply — a Nagle-delayed 40-byte DATA_ACK stalls the whole data
session — and explicit send/receive buffer sizes so throughput does not
depend on the distribution's autotuning floor.
"""

from __future__ import annotations

import socket

from repro.errors import TransportClosed

__all__ = ["TcpEndpoint", "TcpListener", "connect_tcp", "tune_socket",
           "SOCKET_BUFFER_BYTES"]

_RECV_SIZE = 64 * 1024

#: explicit SO_SNDBUF/SO_RCVBUF request for every protocol socket —
#: sized to hold a handful of 64 KiB DATA frames so a sender never
#: stalls on a kernel buffer smaller than one chunk in flight.
SOCKET_BUFFER_BYTES = 256 * 1024


def tune_socket(sock: socket.socket,
                buffer_bytes: int = SOCKET_BUFFER_BYTES) -> None:
    """Apply the protocol socket options (idempotent, best-effort).

    ``TCP_NODELAY`` disables Nagle: the synchronous protocol sends many
    small control frames (LOGON, DATA_ACK, END_LOAD) whose round-trips
    would otherwise eat up to 40 ms each waiting for a coalescing timer.
    The buffer sizes are explicit rather than autotuned so benchmark
    results are comparable across hosts; failures are swallowed because
    some stacks (or non-TCP sockets in tests) reject the options.
    """
    for level, opt, value in (
            (socket.IPPROTO_TCP, socket.TCP_NODELAY, 1),
            (socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes),
            (socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)):
        try:
            sock.setsockopt(level, opt, value)
        except OSError:  # pragma: no cover - platform-dependent
            pass


class TcpEndpoint:
    """One end of a TCP connection, adapted to the Endpoint interface."""

    def __init__(self, sock: socket.socket, name: str = ""):
        self._sock = sock
        tune_socket(self._sock)
        self.name = name
        self._closed = False

    def send_bytes(self, data: bytes) -> None:
        """Send all bytes; raises TransportClosed on failure."""
        if self._closed:
            raise TransportClosed("write on closed socket")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportClosed(f"socket send failed: {exc}") from exc

    def recv_bytes(self, timeout: float | None = None) -> bytes | None:
        """Receive the next chunk; None on EOF."""
        try:
            self._sock.settimeout(timeout)
            chunk = self._sock.recv(_RECV_SIZE)
        except socket.timeout as exc:
            raise TransportClosed(
                f"no data within {timeout}s (peer hung?)") from exc
        except OSError:
            return None
        return chunk if chunk else None

    def close(self) -> None:
        """Half-close the socket (peer sees EOF)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def close_both(self) -> None:
        """Close the socket entirely."""
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


class TcpListener:
    """A listening TCP socket with the Listener interface.

    ``backlog`` bounds the kernel's pending-accept queue (the kernel
    caps it at ``net.core.somaxconn``).  The default is deep because
    legacy schedulers open every feed of an ETL window at once: with a
    shallow queue such a reconnect storm overflows it while the accept
    thread works through the burst, and the dropped clients stall in
    SYN retransmit for a second or more.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 1024):
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(backlog)
        self.host, self.port = self._server.getsockname()
        self.backlog = backlog
        self._closed = False

    def connect(self) -> TcpEndpoint:
        """Client-side convenience: connect to this listener."""
        return connect_tcp(self.host, self.port)

    def accept(self, timeout: float | None = None) -> TcpEndpoint | None:
        """Accept the next connection or None on timeout/close.

        Safe against a concurrent :meth:`close`: the race surfaces as
        an ``OSError`` from ``settimeout``/``accept`` on the closed
        descriptor, which is absorbed into the same ``None`` the caller
        already handles as "nothing accepted, check again".
        """
        if self._closed:
            return None
        try:
            self._server.settimeout(timeout)
            sock, peer = self._server.accept()
        except socket.timeout:
            return None
        except OSError:
            return None
        if self._closed:
            # close() raced the accept and won: the listener is gone,
            # so hand the stray connection an EOF instead of leaking it.
            try:
                sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            return None
        return TcpEndpoint(sock, name=f"server<-{peer}")

    def close(self) -> None:
        """Close the listening socket (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._server.close()
            except OSError:
                pass


def connect_tcp(host: str, port: int,
                timeout: float | None = 10.0) -> TcpEndpoint:
    """Open a client connection to a listening node."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    return TcpEndpoint(sock, name=f"client->{host}:{port}")
