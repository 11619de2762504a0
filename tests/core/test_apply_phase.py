"""APPLY_DML ends a load job's acquisition, on both servers alike.

DATA and DATA_EOF after APPLY_DML get the typed protocol error (code 0)
instead of an acknowledgment for rows that would never be applied, and
a repeat APPLY_DML answers the stored result without running the DML
again.
"""

import pytest

from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import (
    Message, MessageChannel, MessageKind, layout_to_wire,
)
from repro.legacy.server import LegacyServer
from repro.legacy.types import FieldDef, Layout, parse_type
from tests.conftest import make_node

LAYOUT = Layout("L", [FieldDef("A", parse_type("varchar(8)"))])


@pytest.fixture(params=["hyperq", "legacy"])
def served(request):
    """``(connect, engine)`` of a started server of either kind."""
    if request.param == "hyperq":
        stack = make_node()
        yield stack.node.connect, stack.engine
        stack.close()
    else:
        server = LegacyServer().start()
        yield server.connect, server.engine
        server.stop()


def session(connect, **logon) -> MessageChannel:
    channel = MessageChannel(connect(), timeout=10)
    channel.request(Message(MessageKind.LOGON, logon), MessageKind.LOGON_OK)
    return channel


def test_data_after_apply_is_refused_and_apply_answers_once(served):
    connect, engine = served
    engine.execute("create table T (A varchar(8))")
    control = session(connect, user="u")
    data = session(connect, user="u", job_id="J", session_no=0)
    try:
        control.request(Message(MessageKind.BEGIN_LOAD, {
            "job_id": "J", "target": "T", "et_table": "T_ET",
            "uv_table": "T_UV", "layout": layout_to_wire(LAYOUT),
            "format": FormatSpec("vartext", "|").to_wire()}),
            MessageKind.BEGIN_LOAD_OK)
        data.request(Message(MessageKind.DATA, {"job_id": "J", "seq": 0},
                             body=b"a\nb\n"), MessageKind.DATA_ACK)
        apply = Message(MessageKind.APPLY_DML, {
            "job_id": "J", "sql": "insert into T values (:A)"})
        first = control.request(apply, MessageKind.APPLY_RESULT).meta
        assert first["rows_inserted"] == 2

        for late in (Message(MessageKind.DATA, {"job_id": "J", "seq": 1},
                             body=b"c\nd\n"),
                     Message(MessageKind.DATA_EOF, {"job_id": "J"})):
            data.send(late)
            reply = data.recv()
            assert reply.kind == MessageKind.ERROR, reply
            assert reply.meta["code"] == 0, reply.meta
            assert "APPLY_DML" in reply.meta["message"]

        again = control.request(apply, MessageKind.APPLY_RESULT).meta
        assert again == first
        control.request(Message(MessageKind.END_LOAD, {"job_id": "J"}),
                        MessageKind.END_LOAD_OK)
    finally:
        data.close()
        control.close()
    assert sorted(engine.query("SELECT A FROM T")) == [("a",), ("b",)]
