"""The request table: every frame is checked once, on both servers.

``repro.legacy.protocol.REQUESTS`` declares each request kind's keys.
Both ``HyperQNode`` and the reference ``LegacyServer`` serve frames
through ``serve_request``, so a malformed frame — a missing key, a key
of the wrong type, a kind no server serves — gets a typed ERROR (code
0) before any registry, WLM, staging or pipeline state exists, and the
same connection goes on serving.  The source scan at the bottom keeps
the handlers and the client to the keys the table declares.
"""

import ast
import inspect
import os
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import gateway
from repro.core.config import HyperQConfig
from repro.errors import ProtocolError
from repro.legacy import client, server
from repro.legacy.protocol import (
    REPLY_KEYS, REQUESTS, STREAM, TRACEPARENT_KEY, Message, MessageChannel,
    MessageKind,
)
from repro.legacy.server import LegacyServer
from tests.conftest import make_node

#: one pool, one slot, no queue: a leaked slot throttles the next BEGIN.
PROFILE = {"pools": [
    {"name": "only", "weight": 1, "max_concurrency": 1, "queue_limit": 0,
     "queue_timeout_s": 1.0, "match": {}},
]}
LAYOUT = {"name": "L", "fields": [["A", "VARCHAR(12)"]]}

#: a well-formed meta per request kind (job ids name no live job).
VALID = {
    MessageKind.LOGON: {"host": "h", "user": "u", "password": "p",
                        "job_id": "J1", "session_no": 0},
    MessageKind.LOGOFF: {},
    MessageKind.SQL_REQUEST: {"sql": "select A from R"},
    MessageKind.BEGIN_LOAD: {
        "job_id": "J1", "target": "R", "et_table": "R_ET",
        "uv_table": "R_UV", "layout": LAYOUT, "format": "vartext:|",
        "sessions": 1, "tenant": "t", "resume": False,
        "stream": {"feed": "f", "batch_seq": 0, "cursor": "c",
                   "event_ts": 1.5, "drift_policy": "evolve"}},
    MessageKind.DATA: {"job_id": "J1", "seq": 0, "session_no": 0},
    MessageKind.DATA_EOF: {"job_id": "J1", "session_no": 0},
    MessageKind.APPLY_DML: {"job_id": "J1", "max_errors": 3,
                            "max_retries": 1,
                            "sql": "insert into R values (:A)"},
    MessageKind.END_LOAD: {"job_id": "J1", "abort": False},
    MessageKind.BEGIN_EXPORT: {"job_id": "E1", "sql": "select A from R",
                               "format": "vartext:|", "sessions": 1},
    MessageKind.EXPORT_FETCH: {"job_id": "E1", "session_no": 0,
                               "chunk_no": 0},
}
#: values of every JSON type, and the out-of-range ones.
WRONG = [None, True, -1, 1.5, "x", "", [], {}, {"name": 1}]


class Served:
    """A started server plus the probes that show what a frame left."""

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "hyperq":
            self.stack = make_node(config=HyperQConfig(
                credits=8, wlm_profile=PROFILE))
            self.node, self.engine = self.stack.node, self.stack.engine
        else:
            self.stack = None
            self.node = LegacyServer().start()
            self.engine = self.node.engine
        self.engine.execute("create table R (A varchar(12))")
        self.baseline_tables = set(self.engine.catalog.names())
        self.baseline_threads = threading.active_count()

    def close(self) -> None:
        if self.stack is not None:
            self.stack.close()
        else:
            self.node.stop()

    def session(self) -> MessageChannel:
        channel = MessageChannel(self.node.connect(), timeout=5)
        channel.request(Message(MessageKind.LOGON, {"user": "u"}),
                        MessageKind.LOGON_OK)
        return channel

    def refuses(self, message: Message) -> dict:
        """Send one frame; require a code-0 ERROR, then a LOGOFF on the
        same connection; return the ERROR's meta."""
        channel = self.session()
        try:
            channel.send(message)
            reply = channel.recv()
            assert reply.kind == MessageKind.ERROR, reply
            assert reply.meta["code"] == 0, reply.meta
            channel.request(Message(MessageKind.LOGOFF),
                            MessageKind.LOGOFF_OK)
        finally:
            channel.close()
        self.assert_nothing_leaked()
        return reply.meta

    def assert_nothing_leaked(self) -> None:
        node = self.node
        assert not node._jobs and not node._exports
        tables = set(self.engine.catalog.names()) - self.baseline_tables
        assert not [t for t in tables if t.upper().startswith("HQ_STG")]
        if self.kind == "hyperq":
            assert not node._streams
            pool = node.stats()["wlm"]["pools"]["only"]
            assert pool["occupied_slots"] == 0
            assert os.listdir(node._base_dir) == []
        deadline = time.monotonic() + 5
        while threading.active_count() > self.baseline_threads:
            assert time.monotonic() < deadline, threading.enumerate()
            time.sleep(0.005)


@pytest.fixture(scope="module", params=["hyperq", "legacy"])
def served(request):
    served = Served(request.param)
    yield served
    served.close()


# -- the pinned frames: each killed its connection (or, for the export,
# -- was served) before the table, and BEGIN_LOAD without ``et_table``
# -- left HQ_STG_J1 and its staging directory behind ---------------------

def _without(kind, key):
    return {k: v for k, v in VALID[kind].items()
            if k != key and k != "stream"}


PINNED = [
    (MessageKind.SQL_REQUEST, {}, "lacks required key 'sql'"),
    (MessageKind.BEGIN_LOAD, _without(MessageKind.BEGIN_LOAD, "job_id"),
     "lacks required key 'job_id'"),
    (MessageKind.BEGIN_LOAD, _without(MessageKind.BEGIN_LOAD, "et_table"),
     "lacks required key 'et_table'"),
    (MessageKind.DATA, _without(MessageKind.DATA, "job_id"),
     "lacks required key 'job_id'"),
    (MessageKind.BEGIN_EXPORT,
     dict(VALID[MessageKind.BEGIN_EXPORT], sessions="2"),
     "key 'sessions'"),
    (MessageKind.BEGIN_EXPORT, _without(MessageKind.BEGIN_EXPORT, "sql"),
     "lacks required key 'sql'"),
]


@pytest.mark.parametrize("kind,meta,why", PINNED,
                         ids=[f"{k.name}-{w}" for k, _, w in PINNED])
def test_pinned_malformed_frames_get_a_typed_error(served, kind, meta,
                                                   why):
    reply = served.refuses(Message(kind, meta, b"x\n"
                                   if kind == MessageKind.DATA else b""))
    assert why in reply["message"]


def test_metadata_that_is_not_an_object_is_refused(served):
    reply = served.refuses(Message(MessageKind.SQL_REQUEST, ["sql"]))
    assert "metadata must be an object" in reply["message"]


def test_body_on_a_bodiless_kind_is_refused(served):
    reply = served.refuses(Message(MessageKind.END_LOAD,
                                   VALID[MessageKind.END_LOAD], b"x"))
    assert "END_LOAD carries no body" in reply["message"]


def test_refusal_echoes_the_traceparent(served):
    traceparent = "00-" + "1" * 32 + "-" + "2" * 16 + "-01"
    reply = served.refuses(Message(MessageKind.SQL_REQUEST,
                                   {TRACEPARENT_KEY: traceparent}))
    assert reply[TRACEPARENT_KEY] == traceparent


def test_valid_frames_pass_the_table():
    """The fixtures above are well formed: only their mutation fails."""
    for kind, meta in VALID.items():
        REQUESTS[kind].check(meta, b"x" if REQUESTS[kind].body else b"")


def test_every_strict_key_rejects_a_list():
    """Every declared key has a check; only ``traceparent`` (propagation
    never fails a request) accepts anything."""
    for row in [*REQUESTS.values(), STREAM]:
        valid = (VALID[MessageKind.BEGIN_LOAD]["stream"] if row is STREAM
                 else VALID[MessageKind[row.name]])
        for key in [*row.required, *row.optional]:
            meta = dict(valid, **{key: []})
            if key == TRACEPARENT_KEY:
                row.check(meta)
                continue
            with pytest.raises(ProtocolError, match=repr(key)):
                row.check(meta)


# -- generated malformed frames ----------------------------------------------

def _mutations():
    def missing(kind):
        keys = sorted(REQUESTS[kind].required)
        return st.sampled_from(keys).map(
            lambda key: (kind, {k: v for k, v in VALID[kind].items()
                                if k != key}))

    def wrong(kind):
        keys = sorted([*REQUESTS[kind].required, *REQUESTS[kind].optional])
        return st.tuples(st.sampled_from(keys), st.sampled_from(WRONG)).map(
            lambda kv: (kind, dict(VALID[kind], **{kv[0]: kv[1]})))

    def wrong_stream():
        begin = VALID[MessageKind.BEGIN_LOAD]
        keys = sorted([*STREAM.required, *STREAM.optional])
        return st.tuples(st.sampled_from(keys), st.sampled_from(WRONG)).map(
            lambda kv: (MessageKind.BEGIN_LOAD, dict(begin, stream=dict(
                begin["stream"], **{kv[0]: kv[1]}))))

    required = [k for k in REQUESTS if REQUESTS[k].required]
    keyed = [k for k in REQUESTS if REQUESTS[k].optional or k in required]
    replies = sorted(REPLY_KEYS, key=int)
    return st.one_of(
        st.sampled_from(required).flatmap(missing),
        st.sampled_from(keyed).flatmap(wrong),
        wrong_stream(),
        st.sampled_from(replies).map(lambda kind: (kind, {})),
    )


@settings(max_examples=60, deadline=None)
@given(case=_mutations())
def test_generated_malformed_frames_leak_nothing(served, case):
    kind, meta = case
    row = REQUESTS.get(kind)
    if row is not None:
        try:
            row.check(meta, b"")
        except ProtocolError:
            pass
        else:
            assume(False)   # the mutation happened to stay well formed
    served.refuses(Message(kind, meta))


# -- source scan: handlers and client read only declared keys ------------

def _keys(node):
    """The key a subscript / ``.get`` reads, when it is a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name) and node.id == "TRACEPARENT_KEY":
        return TRACEPARENT_KEY
    return None


def _reads(func, names):
    """``(variable, key)`` for each literal-key read of ``names``."""
    out = []
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get" and node.args:
            target, key = node.func.value, node.args[0]
        else:
            continue
        key = _keys(key)
        if key is None:
            continue
        if isinstance(target, ast.Name) and target.id in names:
            out.append((target.id, key))
        elif isinstance(target, ast.Subscript) and \
                isinstance(target.value, ast.Name) and \
                target.value.id == "request" and \
                _keys(target.slice) == "stream":
            out.append(("stream", key))
        elif isinstance(target, ast.Attribute) and target.attr == "meta":
            out.append(("meta", key))
    return out


def _methods(module, cls):
    tree = ast.parse(inspect.getsource(module))
    [klass] = [n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == cls]
    return {n.name: n for n in klass.body if isinstance(n, ast.FunctionDef)}


def _request_kinds(methods):
    """Method → request kinds it serves: each kind's ``_handle_*``, and
    every helper a handler passes its ``request`` to."""
    kinds = {f"_handle_{k.name.lower()}": {k} for k in REQUESTS}
    kinds = {name: set(ks) for name, ks in kinds.items() if name in methods}
    changed = True
    while changed:
        changed = False
        for name, served in list(kinds.items()):
            for node in ast.walk(methods[name]):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id == "self" and \
                        node.func.attr in methods and any(
                            isinstance(a, ast.Name) and a.id == "request"
                            for a in node.args):
                    callee = kinds.setdefault(node.func.attr, set())
                    if not served <= callee:
                        callee |= served
                        changed = True
    return kinds


@pytest.mark.parametrize("module,cls", [(gateway, "HyperQNode"),
                                        (server, "LegacyServer")])
def test_handlers_read_only_declared_keys(module, cls):
    methods = _methods(module, cls)
    kinds = _request_kinds(methods)
    # one handler per request kind, and no second dispatch path
    assert {f"_handle_{k.name.lower()}" for k in REQUESTS} <= set(kinds)
    assert "_dispatch" not in methods
    stream_keys = {*STREAM.required, *STREAM.optional}
    for name, served in kinds.items():
        declared = set().union(*(
            {*REQUESTS[k].required, *REQUESTS[k].optional} for k in served))
        for var, key in _reads(methods[name], {"request", "stream"}):
            assert var != "meta", f"{cls}.{name} reads raw meta {key!r}"
            if var == "stream":
                assert key in stream_keys, (
                    f"{cls}.{name} reads {key!r}, which the BEGIN_LOAD "
                    "stream object does not declare")
            else:
                assert key in declared, (
                    f"{cls}.{name} reads {key!r}, which "
                    f"{sorted(k.name for k in served)} do not declare")


def _reply_kinds(func):
    """Reply kinds a client function names (``MessageKind.X``)."""
    kinds = {getattr(MessageKind, node.attr) for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and
             isinstance(node.value, ast.Name) and
             node.value.id == "MessageKind" and
             getattr(MessageKind, node.attr) in REPLY_KEYS}
    return kinds


def _client_functions():
    """Every client function, plus the one that raises a peer's ERROR."""
    tree = ast.parse(inspect.getsource(client))
    functions = {f"client.{node.name}": node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    functions["Message.expect"] = ast.parse(
        inspect.getsource(Message.expect).strip()).body[0]
    return functions


def test_client_reads_only_declared_reply_keys():
    checked = 0
    for name, func in _client_functions().items():
        # names bound from a reply's meta: the only such dict is the
        # ``committed`` reply, itself an APPLY_RESULT meta
        bound = {t.id for node in ast.walk(func)
                 if isinstance(node, ast.Assign)
                 for t in node.targets if isinstance(t, ast.Name)
                 and any(isinstance(n, ast.Attribute) and n.attr == "meta"
                         for n in ast.walk(node.value))}
        reads = _reads(func, bound)
        if not reads:
            continue
        kinds = _reply_kinds(func)
        if any(key == "committed" for _, key in reads):
            kinds.add(MessageKind.APPLY_RESULT)
        declared = set().union(*(REPLY_KEYS[k] for k in kinds))
        for var, key in reads:
            assert key in declared, (
                f"{name} reads reply key {key!r}, which "
                f"{sorted(k.name for k in kinds)} do not declare")
            checked += 1
    assert checked >= 10
