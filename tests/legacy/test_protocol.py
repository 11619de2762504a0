"""Tests for frame encoding and the Coalescer."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, TransportClosed
from repro.legacy.protocol import (
    Coalescer, Message, MessageChannel, MessageKind,
)
from repro.net import pipe


def sample_messages():
    return [
        Message(MessageKind.LOGON, {"user": "u", "password": "p"}),
        Message(MessageKind.DATA, {"seq": 3}, body=b"\x00\x01payload"),
        Message(MessageKind.DATA_ACK, {"seq": 3}),
        Message(MessageKind.ERROR, {"code": 42, "message": "boom"}),
    ]


class TestFraming:
    def test_roundtrip_single(self):
        coalescer = Coalescer()
        for message in sample_messages():
            out = list(coalescer.feed(message.to_bytes()))
            assert len(out) == 1
            assert out[0].kind == message.kind
            assert out[0].meta == message.meta
            assert out[0].body == message.body

    def test_byte_at_a_time_reassembly(self):
        coalescer = Coalescer()
        message = Message(MessageKind.DATA, {"seq": 1}, body=b"x" * 100)
        raw = message.to_bytes()
        collected = []
        for i in range(len(raw)):
            collected.extend(coalescer.feed(raw[i:i + 1]))
        assert len(collected) == 1
        assert collected[0].body == b"x" * 100
        assert coalescer.pending_bytes == 0

    def test_multiple_frames_in_one_chunk(self):
        coalescer = Coalescer()
        raw = b"".join(m.to_bytes() for m in sample_messages())
        out = list(coalescer.feed(raw))
        assert [m.kind for m in out] == \
            [m.kind for m in sample_messages()]

    def test_bytes_seen_accounting(self):
        coalescer = Coalescer()
        raw = sample_messages()[1].to_bytes()
        list(coalescer.feed(raw))
        assert coalescer.bytes_seen == len(raw)

    def test_bad_magic_raises(self):
        coalescer = Coalescer()
        with pytest.raises(ProtocolError):
            list(coalescer.feed(b"\xff" * 12))

    def test_unknown_kind_raises(self):
        raw = bytearray(Message(MessageKind.LOGON).to_bytes())
        raw[2] = 0xEE  # corrupt the kind field
        with pytest.raises(ProtocolError):
            list(Coalescer().feed(bytes(raw)))

    def test_empty_meta_allowed(self):
        message = Message(MessageKind.LOGOFF)
        out = list(Coalescer().feed(message.to_bytes()))
        assert out[0].meta == {}


class TestExpect:
    def test_expect_matching(self):
        msg = Message(MessageKind.LOGON_OK)
        assert msg.expect(MessageKind.LOGON_OK) is msg

    def test_expect_mismatch_raises(self):
        with pytest.raises(ProtocolError):
            Message(MessageKind.LOGON_OK).expect(MessageKind.DATA_ACK)

    def test_expect_surfaces_peer_error(self):
        error = Message(MessageKind.ERROR,
                        {"code": 7, "message": "nope"})
        with pytest.raises(ProtocolError, match="nope"):
            error.expect(MessageKind.LOGON_OK)


class TestMessageChannel:
    def test_request_response(self):
        client_end, server_end = pipe(mtu=5)
        client = MessageChannel(client_end, timeout=5)
        server = MessageChannel(server_end, timeout=5)

        import threading

        def serve():
            request = server.recv()
            server.send(Message(MessageKind.LOGON_OK,
                                {"echo": request.meta}))

        thread = threading.Thread(target=serve)
        thread.start()
        response = client.request(
            Message(MessageKind.LOGON, {"user": "x"}),
            MessageKind.LOGON_OK)
        thread.join()
        assert response.meta["echo"] == {"user": "x"}

    def test_recv_or_eof(self):
        client_end, server_end = pipe()
        server = MessageChannel(server_end, timeout=1)
        client_end.close()
        assert server.recv_or_eof() is None

    def test_eof_mid_frame_raises(self):
        client_end, server_end = pipe()
        server = MessageChannel(server_end, timeout=1)
        raw = Message(MessageKind.LOGON).to_bytes()
        client_end.send_bytes(raw[:4])
        client_end.close()
        with pytest.raises(TransportClosed):
            server.recv_or_eof()


_MESSAGE_SPECS = st.lists(
    st.tuples(
        st.sampled_from(list(MessageKind)),
        st.dictionaries(st.text(max_size=8),
                        st.one_of(st.integers(), st.text(max_size=12)),
                        max_size=4),
        st.binary(max_size=200)),
    min_size=1, max_size=10)


def _frame(kind: int, meta_raw: bytes, body: bytes = b"",
           magic: int = 0x4C50) -> bytes:
    return struct.pack("<HHII", magic, kind, len(meta_raw),
                       len(body)) + meta_raw + body


#: frames the Coalescer must refuse, each with its error.
_BAD_FRAMES = {
    "magic": _frame(MessageKind.LOGON, b"{}", magic=0xBEEF),
    "metadata": _frame(MessageKind.DATA, b"{not json", b"body"),
    "kind": _frame(0xEE, b"{}", b"body"),
}


def _fed(chunks: "list[bytes]"):
    """What one Coalescer makes of ``chunks``: the messages it yields,
    the error it raises (or None) and its ``bytes_seen``."""
    coalescer = Coalescer()
    out, error = [], None
    try:
        for chunk in chunks:
            for message in coalescer.feed(chunk):
                out.append((message.kind, message.meta, message.body))
    except ProtocolError as exc:
        error = str(exc)
    return out, error, coalescer.bytes_seen


def _feeds(frames: "list[bytes]", data) -> "dict[str, list[bytes]]":
    """The same frames fed whole (one a feed), several a feed, cut
    inside a header, and at an arbitrary transport size."""
    raw = b"".join(frames)
    per = data.draw(st.integers(2, 4), label="frames per feed")
    groups = [b"".join(frames[i:i + per])
              for i in range(0, len(frames), per)]
    headers = []
    for frame in frames:
        cut = data.draw(st.integers(1, 11), label="header cut")
        headers += [frame[:cut], frame[cut:]]
    mtu = data.draw(st.integers(1, 17), label="mtu")
    return {"whole": frames, "grouped": groups, "header cut": headers,
            "mtu": [raw[i:i + mtu] for i in range(0, len(raw), mtu)]}


@settings(max_examples=150, deadline=None)
@given(_MESSAGE_SPECS, st.data())
def test_coalescer_roundtrip_property(specs, data):
    """Any message sequence survives any chunking alike: whole frames
    (cut in place), several frames a feed, a cut inside a header and
    arbitrary re-chunking give the same messages and ``bytes_seen``."""
    messages = [Message(kind, meta, body) for kind, meta, body in specs]
    frames = [m.to_bytes() for m in messages]
    want = ([(m.kind, m.meta, m.body) for m in messages], None,
            sum(map(len, frames)))
    for route, chunks in _feeds(frames, data).items():
        assert _fed(chunks) == want, route


@settings(max_examples=60, deadline=None)
@given(_MESSAGE_SPECS, st.sampled_from(sorted(_BAD_FRAMES)), st.data())
def test_coalescer_errors_do_not_depend_on_chunking(specs, bad, data):
    """A bad frame among good ones: every route yields the frames before
    it and raises the same error."""
    frames = [Message(kind, meta, body).to_bytes()
              for kind, meta, body in specs]
    at = data.draw(st.integers(0, len(frames)), label="bad frame at")
    frames.insert(at, _BAD_FRAMES[bad])
    outcomes = {route: _fed(chunks)[:2]
                for route, chunks in _feeds(frames, data).items()}
    whole = outcomes.pop("whole")
    assert whole[1].startswith({"magic": "bad frame magic",
                                "metadata": "bad frame metadata",
                                "kind": "unknown message kind"}[bad])
    assert len(whole[0]) == at
    for route, outcome in outcomes.items():
        assert outcome == whole, route


def test_a_whole_frame_body_is_its_bytes():
    """The in-place cut hands out the body's bytes, and the Coalescer
    keeps nothing of the frame."""
    body = bytes(range(256)) * 10
    coalescer = Coalescer()
    [message] = coalescer.feed(
        Message(MessageKind.EXPORT_DATA, {"eof": False}, body).to_bytes())
    assert type(message.body) is bytes and message.body == body
    assert coalescer.pending_bytes == 0
