"""The connection-handling front end, split from job orchestration.

The *front end* owns everything between ``listener.accept()`` and the
per-message handler: framing, connection lifecycle, and the connection
cap with its gauges (one :class:`ConnectionCap` per front end).  The
node behind it (``HyperQNode`` or the reference ``LegacyServer``) only
implements the session contract:

- ``new_conn()`` — per-connection session state (a dict);
- ``handle_message(channel, message, conn)`` — dispatch one frame,
  answering on ``channel.send(...)`` (typed errors become ERROR frames
  inside this call; a dead transport propagates ``TransportClosed``);
- ``connection_closed(conn)`` — reap whatever the connection owned;
- ``wrap_endpoint(endpoint)`` — chaos instrumentation hook.

:class:`ThreadedFrontend` is one OS thread per socket, plus one accept
thread.  Handler threads block in ``recv``, so an idle session costs a
thread's stack and no CPU.  A reconnect storm of legacy feeds is
absorbed by the listener's deep accept backlog
(:class:`repro.net_tcp.TcpListener`), not by a reactor.
"""

from __future__ import annotations

import threading

from repro.errors import ConnectionLimited, ReproError
from repro.legacy.protocol import MessageChannel, error_reply
from repro.obs import NULL_OBS, get_logger

__all__ = ["ConnectionCap", "ThreadedFrontend", "refuse_connection"]

log = get_logger("frontend")


def refuse_connection(endpoint, limit: int, obs=NULL_OBS) -> None:
    """Shed one over-cap connection with a typed retryable ERROR.

    The refusal frame is sent *before* any request is read: the peer's
    first ``recv`` after LOGON surfaces it as a transient
    :class:`~repro.errors.ConnectionLimited`, so a flooding scheduler
    backs off instead of treating the node as dead.  Best-effort — a
    peer that already vanished just loses the hint.
    """
    obs.connections_refused.inc()
    error = ConnectionLimited(
        f"connection limit of {limit} reached; retry later",
        limit=limit)
    try:
        endpoint.send_bytes(error_reply(error).to_bytes())
    except ReproError:
        pass
    finally:
        endpoint.close_both()


class ConnectionCap:
    """Session-slot bookkeeping for one front end: the
    ``max_connections`` cap, the active/refused counts and the
    ``hyperq_connections_active`` gauge."""

    def __init__(self, limit: int = 0, obs=NULL_OBS):
        #: the cap; 0 = unlimited.
        self.limit = limit
        self._obs = obs
        self._lock = threading.Lock()
        self._active = 0
        self._refused = 0

    def admit(self) -> bool:
        """Claim a slot; False (counted as refused) at the cap."""
        with self._lock:
            if self.limit and self._active >= self.limit:
                self._refused += 1
                return False
            self._active += 1
        self._obs.connections_active.inc()
        return True

    def release(self, refused: bool = False) -> None:
        """Give back a slot claimed by :meth:`admit`; ``refused`` also
        counts its connection as refused (it was shed after all)."""
        with self._lock:
            self._active -= 1
            self._refused += refused
        self._obs.connections_active.dec()

    @property
    def active(self) -> int:
        """Sessions currently holding a slot."""
        with self._lock:
            return self._active

    def snapshot(self) -> dict:
        """``stats()["gateway"]``: the slot counts."""
        with self._lock:
            active, refused = self._active, self._refused
        return {
            "connections_active": active,
            "connections_refused": refused,
            "max_connections": self.limit,
        }


class ThreadedFrontend:
    """One accept-loop thread, one handler thread per connection."""

    def __init__(self, node, listener, *, name: str = "server",
                 max_connections: int = 0, obs=NULL_OBS):
        self.node = node
        self.listener = listener
        self.name = name
        self.obs = obs
        self.connections = ConnectionCap(max_connections, obs=obs)
        self._running = False
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ThreadedFrontend":
        """Start the accept loop; returns self for chaining."""
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"{self.name}-accept")
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting; open connections drain on their own threads."""
        self._running = False
        self.listener.close()

    def snapshot(self) -> dict:
        """``stats()["gateway"]`` contribution of this front end."""
        return self.connections.snapshot()

    # -- accept / serve ------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            endpoint = self.listener.accept(timeout=0.5)
            if endpoint is None:
                continue
            if not self.connections.admit():
                refuse_connection(endpoint, self.connections.limit,
                                  obs=self.obs)
                continue
            handler = threading.Thread(
                target=self._serve_connection,
                args=(self.node.wrap_endpoint(endpoint),),
                daemon=True, name=f"{self.name}-conn")
            try:
                handler.start()
            except RuntimeError as exc:
                # The host is out of threads: shed this connection as
                # over capacity and keep accepting the next one.
                self.connections.release(refused=True)
                refuse_connection(endpoint, self.connections.active,
                                  obs=self.obs)
                log.warning("connection handler failed to start",
                            extra={"node": self.name, "error": str(exc)})

    def _serve_connection(self, endpoint) -> None:
        channel = MessageChannel(endpoint, timeout=None)
        conn = self.node.new_conn()
        try:
            while True:
                message = channel.recv_or_eof()
                if message is None:
                    return
                self.node.handle_message(channel, message, conn)
        except ReproError:
            pass  # connection torn down mid-message
        finally:
            channel.close_both()
            self.connections.release()
            self.node.connection_closed(conn)
