"""Async gateway front end: session multiplexing on a reactor.

The threaded front end (:class:`repro.core.frontend.ThreadedFrontend`)
spends one OS thread per socket — simple, but a reconnect storm of
legacy feeds means thousands of stacks, and every DATA ack contends on
the scheduler.  This module multiplexes the same session contract onto

- **one reactor**: a selector-based ``asyncio`` loop owns accept and
  framing for every TCP connection.  Frames are reassembled by the
  same :class:`~repro.legacy.protocol.Coalescer` the threaded path
  uses, then *dispatched*, never handled, on the loop;
- **two handler executors**: ``<name>-admit`` runs BEGIN_LOAD /
  BEGIN_EXPORT, ``<name>-work`` runs every other frame and connection
  teardowns.  What a load job owns below the protocol — pipeline
  lanes, local staging — is the node's, exactly as on the
  threaded front end: the lanes run on the node's one pipeline worker
  pool.

The legacy wire protocol is strictly one-outstanding-request per
connection — the client never sends frame *k+1* before frame *k*'s
reply — so per-connection handler ordering is protocol-guaranteed and
the executors need no per-connection serialization.

WLM admission can block inside a BEGIN_LOAD handler for seconds, so
admission frames run on their own executor and everything that *frees*
slots or credits (END_LOAD, APPLY, fetches) on the other.  A full admit
executor of parked admissions can therefore still finish jobs — the
deadlock one shared executor would hit.

In-memory :class:`repro.net.Listener` endpoints are queue-based, not
selectable; for those the front end substitutes one bridge reader
thread per connection feeding the identical framing/dispatch path (the
differential tests run this way; the reactor is for real sockets).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.frontend import ConnectionCap, refuse_connection
from repro.errors import ReproError, TransportClosed
from repro.legacy.protocol import Coalescer, Message, MessageKind
from repro.net_tcp import tune_socket
from repro.obs import NULL_OBS, get_logger

__all__ = ["AsyncFrontend"]

log = get_logger("net_async")

#: concurrent BEGIN_LOAD/BEGIN_EXPORT handlers — each may park inside
#: WLM admission, so this bounds parked admissions, not work.
_ADMIT_WORKERS = 32
#: concurrent handlers of every other frame, teardowns included.
_WORK_WORKERS = 16
#: accept backlog when no connection cap implies one — a reconnect
#: storm must queue in the kernel, not stall in SYN retransmit.
_DEFAULT_BACKLOG = 1024

#: frames that may block in WLM admission (they get the admit executor).
_ADMIT_KINDS = frozenset({MessageKind.BEGIN_LOAD, MessageKind.BEGIN_EXPORT})


class _Conn:
    """Server side of one multiplexed session.

    Implements the Endpoint *write* surface (``send_bytes`` / ``close``
    / ``close_both``) so chaos wrapping
    (:class:`~repro.faults.injector.FaultyEndpoint`) composes, plus the
    teardown bookkeeping: a frame in flight on an executor keeps the
    session state alive until its handler returns no matter when the
    peer vanishes, and ``connection_closed`` fires exactly once, off
    the reactor (it can block quiescing an abandoned job's pipeline).
    """

    def __init__(self, frontend: "AsyncFrontend"):
        self.frontend = frontend
        self.name = ""
        self.coalescer = Coalescer()
        #: node.new_conn() dict (None until admitted past the cap).
        self.session: dict | None = None
        #: chaos-wrapped self; what the reply sink writes through.
        self.endpoint = None
        self.sink: "_ReplySink | None" = None
        self._lock = threading.Lock()
        self._outstanding = 0
        self._peer_gone = False
        self._teardown_fired = False

    # -- teardown protocol (reactor/bridge + executor threads) ---------------

    def frame_arrived(self) -> None:
        with self._lock:
            self._outstanding += 1

    def frame_done(self) -> bool:
        """Handler finished; True when this call must run the teardown."""
        with self._lock:
            self._outstanding -= 1
            if (self._peer_gone and self._outstanding == 0
                    and not self._teardown_fired):
                self._teardown_fired = True
                return True
        return False

    def peer_lost(self) -> bool:
        """Peer vanished; True when the caller must *schedule* teardown."""
        with self._lock:
            self._peer_gone = True
            if self._outstanding == 0 and not self._teardown_fired:
                self._teardown_fired = True
                return True
        return False

    # -- endpoint write surface (transport-specific) -------------------------

    def send_bytes(self, data: bytes) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        self.close_both()

    def close_both(self) -> None:  # pragma: no cover
        raise NotImplementedError


class _TcpConn(_Conn, asyncio.Protocol):
    """A TCP session on the reactor.

    ``send_bytes`` is callable from any executor thread: the write is
    marshalled onto the loop with ``call_soon_threadsafe`` (asyncio
    transports are not thread-safe).  The one-outstanding-request
    protocol keeps per-connection reply ordering trivially correct —
    there is never more than one reply in flight to marshal.
    """

    def __init__(self, frontend: "AsyncFrontend"):
        _Conn.__init__(self, frontend)
        self.transport = None
        self._write_closed = False

    # -- asyncio.Protocol callbacks (reactor thread) -------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            tune_socket(sock)
        peer = transport.get_extra_info("peername")
        self.name = f"server<-{peer}"
        self.frontend._admit_conn(self)

    def data_received(self, data: bytes) -> None:
        self.frontend._on_bytes(self, data)

    def eof_received(self) -> bool:
        return False  # half-close means goodbye; let connection_lost run

    def connection_lost(self, exc) -> None:
        self._write_closed = True
        self.frontend._on_lost(self)

    # -- endpoint write surface (any thread) ---------------------------------

    def send_bytes(self, data: bytes) -> None:
        if self._write_closed:
            raise TransportClosed("write on closed async connection")
        try:
            self.frontend.loop.call_soon_threadsafe(
                self._write, bytes(data))
        except RuntimeError as exc:  # loop shut down mid-reply
            raise TransportClosed(
                f"reactor gone: {exc}") from exc

    def _write(self, data: bytes) -> None:
        if self.transport is not None and not self.transport.is_closing():
            self.transport.write(data)

    def close_both(self) -> None:
        self._write_closed = True
        try:
            self.frontend.loop.call_soon_threadsafe(self._close_transport)
        except RuntimeError:
            pass

    def _close_transport(self) -> None:
        if self.transport is not None:
            self.transport.close()


class _BridgeConn(_Conn):
    """An in-memory session served by a bridge reader thread.

    ``repro.net`` endpoints are queue-backed and already thread-safe,
    so writes go straight through; only the read side needs a thread.
    """

    def __init__(self, frontend: "AsyncFrontend", raw):
        _Conn.__init__(self, frontend)
        self.raw = raw
        self.name = getattr(raw, "name", "bridge")

    def send_bytes(self, data: bytes) -> None:
        self.raw.send_bytes(data)

    def close_both(self) -> None:
        self.raw.close_both()


class _ReplySink:
    """The ``channel`` a handler answers on: just ``send``.

    Matches the slice of :class:`~repro.legacy.protocol.MessageChannel`
    the node's handlers actually use; writes go through the
    chaos-wrapped endpoint so ``net.send`` fault rules fire on replies
    exactly as they do on the threaded path.
    """

    __slots__ = ("_endpoint",)

    def __init__(self, endpoint):
        self._endpoint = endpoint

    def send(self, message: Message) -> None:
        self._endpoint.send_bytes(message.to_bytes())

    def close(self) -> None:
        self._endpoint.close()


class AsyncFrontend:
    """Reactor + admit/work executors behind ``config.async_frontend``.

    Drives the same node session contract as
    :class:`~repro.core.frontend.ThreadedFrontend` (``new_conn`` /
    ``handle_message`` / ``connection_closed`` / ``wrap_endpoint``) —
    the node cannot tell which front end is serving it, which is what
    makes the differential async-vs-threaded suite meaningful.
    """

    kind = "async"

    def __init__(self, node, listener, *, name: str = "server",
                 max_connections: int = 0, obs=NULL_OBS):
        self.node = node
        self.listener = listener
        self.name = name
        self.obs = obs
        self.connections = ConnectionCap(max_connections, obs=obs)
        # The split is the WLM no-deadlock rule: END_LOAD must never
        # queue behind a BEGIN_LOAD parked in ``wlm.admit``.  Threads
        # start lazily, so an idle node pays for neither.
        self._exec_admit = ThreadPoolExecutor(
            max_workers=_ADMIT_WORKERS, thread_name_prefix=f"{name}-admit")
        self._exec_work = ThreadPoolExecutor(
            max_workers=_WORK_WORKERS, thread_name_prefix=f"{name}-work")
        self._running = False
        self.loop: asyncio.AbstractEventLoop | None = None
        self._reactor: threading.Thread | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AsyncFrontend":
        """Begin serving: the reactor for real sockets (listeners
        exposing ``socket()``), a bridge accept thread otherwise."""
        self._running = True
        socket_of = getattr(self.listener, "socket", None)
        if callable(socket_of):
            self._start_reactor(socket_of())
        else:
            # In-memory listener: not selectable, bridge threads instead.
            self._accept_thread = threading.Thread(
                target=self._bridge_accept, daemon=True,
                name=f"{self.name}-accept")
            self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and halt the reactor; the executors keep
        serving in-flight handlers until :meth:`close`."""
        self._running = False
        if self.loop is not None and self._stop_event is not None:
            try:
                self.loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # pragma: no cover - already down
                pass
        if self._reactor is not None:
            self._reactor.join(timeout=10.0)

    def close(self) -> None:
        """Second teardown phase (after the node reaped its jobs):
        the handler executors go away."""
        self._exec_admit.shutdown(wait=False, cancel_futures=True)
        self._exec_work.shutdown(wait=False, cancel_futures=True)

    def snapshot(self) -> dict:
        """``stats()["gateway"]`` contribution of this front end."""
        return self.connections.snapshot(self.kind)

    # -- reactor (TCP listeners) ---------------------------------------------

    def _start_reactor(self, server_sock) -> None:
        self.loop = asyncio.new_event_loop()
        started = threading.Event()
        # Re-listen with a backlog deep enough for a reconnect storm:
        # the cap (or a storm-sized default) bounds what we are willing
        # to queue, the listener's own backlog is the floor.
        backlog = max(getattr(self.listener, "backlog", 0),
                      self.connections.limit or _DEFAULT_BACKLOG)

        async def _serve():
            self._stop_event = asyncio.Event()
            server = await self.loop.create_server(
                lambda: _TcpConn(self), sock=server_sock,
                backlog=backlog)
            started.set()
            try:
                await self._stop_event.wait()
            finally:
                server.close()
                await server.wait_closed()

        def _run():
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(_serve())
            finally:
                started.set()  # never leave start() hanging on a crash
                self.loop.close()

        self._reactor = threading.Thread(
            target=_run, daemon=True, name=f"{self.name}-reactor")
        self._reactor.start()
        started.wait(timeout=10.0)

    # -- bridge (in-memory listeners) ----------------------------------------

    def _bridge_accept(self) -> None:
        while self._running:
            try:
                raw = self.listener.accept(timeout=0.5)
            except ReproError:  # pragma: no cover - listener closed
                return
            if raw is None:
                continue
            conn = _BridgeConn(self, raw)
            if not self._admit_conn(conn):
                continue
            threading.Thread(
                target=self._bridge_read, args=(conn,), daemon=True,
                name=f"{self.name}-bridge").start()

    def _bridge_read(self, conn: _BridgeConn) -> None:
        try:
            while True:
                chunk = conn.raw.recv_bytes(timeout=None)
                if chunk is None:
                    return
                self._on_bytes(conn, chunk)
        except ReproError:
            pass
        finally:
            self._on_lost(conn)

    # -- connection admission / teardown -------------------------------------

    def _admit_conn(self, conn: _Conn) -> bool:
        """Admit past the connection cap or shed with a typed error."""
        if not self.connections.admit():
            refuse_connection(conn, self.connections.limit, obs=self.obs)
            return False
        conn.session = self.node.new_conn()
        conn.endpoint = self.node.wrap_endpoint(conn)
        conn.sink = _ReplySink(conn.endpoint)
        return True

    def _on_lost(self, conn: _Conn) -> None:
        if conn.session is None:
            return  # refused at the cap; nothing was admitted
        if conn.peer_lost():
            # connection_closed can block quiescing an abandoned job's
            # pipeline — never run it on the reactor.
            try:
                self._exec_work.submit(self._teardown, conn)
            except RuntimeError:
                # Executors already closed: the node is stopping and
                # reaps every job itself; nothing left to tear down.
                pass

    def _teardown(self, conn: _Conn) -> None:
        try:
            self.node.connection_closed(conn.session)
        finally:
            self.connections.release()

    # -- framing + dispatch --------------------------------------------------

    def _on_bytes(self, conn: _Conn, data: bytes) -> None:
        if conn.session is None:
            return  # bytes from a refused connection
        try:
            for message in conn.coalescer.feed(data):
                self._route(conn, message)
        except ReproError:
            conn.close_both()  # garbage frames: hang up

    def _route(self, conn: _Conn, message: Message) -> None:
        self.obs.tracer.span(
            "gateway.route", parent=message.trace_context(),
            kind=message.kind.name).end()
        conn.frame_arrived()
        executor = (self._exec_admit if message.kind in _ADMIT_KINDS
                    else self._exec_work)
        executor.submit(self._execute, conn, message)

    # -- handler execution (executor threads) --------------------------------

    def _execute(self, conn: _Conn, message: Message) -> None:
        # Handlers name their thread after the job; an executor thread
        # serves many jobs, so it takes its own name back afterwards.
        thread = threading.current_thread()
        idle_name = thread.name
        try:
            self.node.handle_message(conn.sink, message, conn.session)
        except ReproError:
            # Dead transport (or unrecoverable dispatch error): hang
            # up; connection_lost runs the teardown exactly once.
            conn.close_both()
        except BaseException:
            log.exception("frame handler crashed", extra={
                "kind": message.kind.name})
            conn.close_both()
        finally:
            thread.name = idle_name
            if conn.frame_done():
                self._teardown(conn)
