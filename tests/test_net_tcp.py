"""Real-TCP transport tests: the whole stack over localhost sockets."""

import socket
import threading
import time

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.core.config import HyperQConfig
from repro.core.gateway import HyperQNode
from repro.errors import TransportClosed
from repro.legacy.protocol import Message, MessageChannel, MessageKind
from repro.legacy.script import ScriptInterpreter, parse_script
from repro.legacy.server import LegacyServer
from repro.net_tcp import TcpListener, connect_tcp
from tests.conftest import EXAMPLE_DATA, EXAMPLE_SCRIPT


class TestTcpTransport:
    def test_basic_roundtrip(self):
        listener = TcpListener()
        client = listener.connect()
        server = listener.accept(timeout=2)
        client.send_bytes(b"ping")
        assert server.recv_bytes(timeout=2) == b"ping"
        server.send_bytes(b"pong")
        assert client.recv_bytes(timeout=2) == b"pong"
        client.close_both()
        server.close_both()
        listener.close()

    def test_eof_on_peer_close(self):
        listener = TcpListener()
        client = listener.connect()
        server = listener.accept(timeout=2)
        client.close()
        assert server.recv_bytes(timeout=2) is None
        server.close_both()
        client.close_both()
        listener.close()

    def test_recv_timeout(self):
        listener = TcpListener()
        client = listener.connect()
        server = listener.accept(timeout=2)
        with pytest.raises(TransportClosed):
            server.recv_bytes(timeout=0.05)
        client.close_both()
        server.close_both()
        listener.close()

    def test_accept_timeout(self):
        listener = TcpListener()
        assert listener.accept(timeout=0.05) is None
        listener.close()

    def test_accept_after_close_returns_none(self):
        listener = TcpListener()
        listener.close()
        assert listener.accept(timeout=0.05) is None
        listener.close()  # idempotent

    def test_close_races_blocked_accept(self):
        """close() from another thread unblocks accept with None."""
        listener = TcpListener()
        results = []

        def _accept():
            results.append(listener.accept(timeout=5))

        thread = threading.Thread(target=_accept)
        thread.start()
        time.sleep(0.1)  # let accept park in the kernel
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert results == [None]

    def test_peer_disconnect_mid_frame(self):
        """EOF with a partial frame buffered is a hard transport error,
        not a silent end-of-stream (the frame was truncated)."""
        listener = TcpListener()
        client = listener.connect()
        server = listener.accept(timeout=2)
        frame = Message(MessageKind.LOGON, {"user": "etl"}).to_bytes()
        client.send_bytes(frame[:len(frame) - 3])
        client.close_both()
        channel = MessageChannel(server, timeout=2)
        with pytest.raises(TransportClosed, match="mid-frame"):
            channel.recv_or_eof()
        channel.close()
        listener.close()

    def test_sockets_are_tuned(self):
        """TCP_NODELAY is set on both ends of every connection."""
        listener = TcpListener()
        client = listener.connect()
        server = listener.accept(timeout=2)
        for endpoint in (client, server):
            assert endpoint._sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        client.close_both()
        server.close_both()
        listener.close()

    def test_listener_exposes_bound_socket(self):
        listener = TcpListener(backlog=7)
        assert listener.backlog == 7
        listener.close()

    def test_backlog_absorbs_a_connect_storm(self):
        """100 clients connect at once to a listener that never
        accepts: the default backlog queues every one of them, so none
        stalls in SYN retransmit past its 0.5 s timeout."""
        listener = TcpListener()
        barrier = threading.Barrier(100, timeout=10)
        socks, failures = [], []
        lock = threading.Lock()

        def dial():
            barrier.wait()
            try:
                sock = socket.create_connection(
                    (listener.host, listener.port), timeout=0.5)
            except OSError as exc:
                with lock:
                    failures.append(exc)
                return
            with lock:
                socks.append(sock)

        threads = [threading.Thread(target=dial, daemon=True)
                   for _ in range(100)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(socks) == 100, failures[:3]
        finally:
            for sock in socks:
                sock.close()
            listener.close()

    def test_connect_by_address(self):
        listener = TcpListener()
        endpoint = connect_tcp(listener.host, listener.port)
        server = listener.accept(timeout=2)
        endpoint.send_bytes(b"hello")
        assert server.recv_bytes(timeout=2) == b"hello"
        endpoint.close_both()
        server.close_both()
        listener.close()


class TestStackOverTcp:
    def test_hyperq_over_real_sockets(self):
        """The full Example 2.1 job over a localhost TCP socket."""
        store = CloudStore()
        engine = CdwEngine(store=store)
        node = HyperQNode(engine, store,
                          HyperQConfig(converters=2, filewriters=1,
                                       credits=8),
                          listener=TcpListener())
        node.start()
        try:
            interp = ScriptInterpreter(
                node.listener.connect,
                files={"input.txt": EXAMPLE_DATA})
            result = interp.run(parse_script(EXAMPLE_SCRIPT))
            imp = result.last_import
            assert (imp.rows_inserted, imp.et_errors,
                    imp.uv_errors) == (2, 2, 1)
        finally:
            node.stop()

    def test_legacy_server_over_real_sockets(self):
        server = LegacyServer(listener=TcpListener())
        server.start()
        try:
            interp = ScriptInterpreter(
                server.listener.connect,
                files={"input.txt": EXAMPLE_DATA})
            result = interp.run(parse_script(EXAMPLE_SCRIPT))
            assert result.last_import.rows_inserted == 2
        finally:
            server.stop()
