"""The load-job protocol as a state machine, on both servers at once.

``repro.legacy.protocol.TRANSITIONS`` says which job-bound request
(DATA, DATA_EOF, APPLY_DML, END_LOAD) each load-job state takes, and
``serve_request`` keeps it for the reference ``LegacyServer`` and for
Hyper-Q alike.  This ``hypothesis`` machine drives one sequence of
steps — BEGIN_LOAD (fresh and ``resume``), DATA, DATA_EOF, APPLY_DML
(good, repeated and failing), END_LOAD (with and without ``abort``)
and dropped control or data connections, in legal and illegal orders —
against both, over the in-memory transport, with Hyper-Q behind a
one-slot WLM pool.  After every step both servers answered alike, each
refusal is a typed ERROR, and the answer and the jobs' states are what
the table says.  After an END or a drop Hyper-Q holds nothing of the
job: no registry entry, WLM slot, credit, connection thread, nor state
directory of a job that will not resume; after a committed END the
target and its error tables are the legacy server's.

By design, the reference server keeps a job whose control connection
dropped (it has no slots to reclaim), so the machine sends that job no
more job-bound requests until a BEGIN_LOAD replaces it.
"""

import os
import threading
import time

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, precondition, rule,
)

from repro.core.config import HyperQConfig
from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import (
    TRANSITIONS, JobState, Message, MessageChannel, MessageKind,
    layout_to_wire,
)
from repro.legacy.server import LegacyServer
from repro.legacy.types import FieldDef, Layout, parse_type
from tests.conftest import make_node

#: one pool, one slot, no queue: a leaked slot throttles the next BEGIN.
PROFILE = {"pools": [
    {"name": "only", "weight": 1, "max_concurrency": 1, "queue_limit": 0,
     "queue_timeout_s": 1.0, "match": {}},
]}
LAYOUT = Layout("L", [FieldDef("A", parse_type("varchar(16)"))])
DDL = "create table T (A varchar(4) not null, unique (A))"
GOOD_DML = "insert into T values (:A)"
BAD_DML = "insert into T values (:A"
#: chunk ``seq`` carries ``CHUNKS[seq % 3]``: a duplicate key (UV) and a
#: value too long for ``T.A`` (ET) among clean rows.
CHUNKS = (b"a\nb\n", b"c\ntoolongvalue\n", b"a\nd\n")
#: a reply's kind for each request the table takes.
REPLIES = {
    MessageKind.DATA: MessageKind.DATA_ACK,
    MessageKind.DATA_EOF: MessageKind.DATA_ACK,
    MessageKind.APPLY_DML: MessageKind.APPLY_RESULT,
    MessageKind.END_LOAD: MessageKind.END_LOAD_OK,
}
COUNTS = ("rows_inserted", "rows_updated", "rows_deleted", "et_errors",
          "uv_errors")


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


class Side:
    """One server, its control session and its data session."""

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "hyperq":
            # A DML that does not parse counts as a failure of the
            # node's ``dml.apply`` breaker; the machine may send many.
            self.stack = make_node(config=HyperQConfig(
                credits=4, wlm_profile=PROFILE,
                breaker_failure_threshold=1000))
            self.server = self.stack.node
        else:
            self.server = LegacyServer().start()
        self.engine = self.server.engine
        self.engine.execute(DDL)
        self.control = self.data = None

    def close(self) -> None:
        self.drop("control")
        self.drop("data")
        if self.kind == "hyperq":
            self.stack.close()
        else:
            self.server.stop()

    def session(self, **logon) -> MessageChannel:
        channel = MessageChannel(self.server.connect(), timeout=10)
        channel.request(Message(MessageKind.LOGON, dict(user="u", **logon)),
                        MessageKind.LOGON_OK)
        return channel

    def ask(self, on: str, message: Message, job_id: str) -> Message:
        """Send ``message`` on the control or data session (opened on
        first use) and return the reply."""
        if on == "control" and self.control is None:
            self.control = self.session()
        if on == "data" and self.data is None:
            self.data = self.session(job_id=job_id, session_no=0)
        channel = self.control if on == "control" else self.data
        channel.send(message)
        return channel.recv()

    def drop(self, which: str) -> None:
        channel = getattr(self, which)
        if channel is not None:
            channel.close()
            setattr(self, which, None)

    def state(self, job_id: str):
        job = self.server._jobs.get(job_id)
        return job and job.state

    def tables(self) -> tuple:
        return (self.engine.query("SELECT A FROM T ORDER BY A"),
                self.engine.query("SELECT SEQNO FROM T_ET ORDER BY SEQNO"),
                self.engine.query("SELECT A, SEQNO FROM T_UV "
                                  "ORDER BY SEQNO"))


class LoadJobMachine(RuleBasedStateMachine):
    """The model: one job at a time (the pool has one slot), its state
    as the table predicts it, the chunks it took, and which ended job
    may resume."""

    @initialize()
    def start(self):
        self.legacy, self.hyperq = Side("legacy"), Side("hyperq")
        self.threads = threading.active_count()
        self.serial = 0
        self.job_id = "J0"
        #: the current job's state as TRANSITIONS predicts it.
        self.state = None
        #: chunks the current job took, in send order.
        self.chunks: list[int] = []
        #: the current job's control connection dropped: Hyper-Q ended
        #: it, the reference server did not.
        self.dropped = False
        #: ended jobs whose state Hyper-Q keeps (abort, drop), and which
        #: of them never committed (a resume starts them over).
        self.kept: set[str] = set()
        self.resumable: dict[str, list[int]] = {}
        #: the current job's APPLY_RESULT, once committed.
        self.result = None

    def teardown(self):
        for side in ("legacy", "hyperq"):
            if hasattr(self, side):
                getattr(self, side).close()

    # -- one request, both servers -------------------------------------------

    def both(self, on: str, kind: MessageKind, meta: dict,
             body: bytes = b"") -> tuple[Message, Message]:
        """Send one request to both servers; they must answer alike
        (any refusal a typed ERROR, of the same code)."""
        replies = [side.ask(on, Message(kind, dict(meta), body), self.job_id)
                   for side in (self.legacy, self.hyperq)]
        legacy, hyperq = replies
        assert legacy.kind == hyperq.kind, (kind, legacy, hyperq)
        if hyperq.kind == MessageKind.ERROR:
            assert legacy.meta["code"] == hyperq.meta["code"], replies
            assert isinstance(hyperq.meta["message"], str)
        return legacy, hyperq

    def bound(self, on: str, kind: MessageKind, meta: dict,
              body: bytes = b"") -> tuple[Message, Message]:
        """A job-bound request: the reply is the table's — the taken
        request's reply kind, or the refusal's text — and so is each
        server's job state after it."""
        step = TRANSITIONS[self.state][kind]
        legacy, hyperq = self.both(on, kind, dict(meta, job_id=self.job_id),
                                   body)
        if isinstance(step, str):
            expected = step.format(job_id=self.job_id, state=self.state
                                   and self.state.value)
            assert hyperq.kind == MessageKind.ERROR, hyperq
            assert hyperq.meta["code"] == 0
            assert legacy.meta["message"] == hyperq.meta["message"] \
                == expected
            return legacy, hyperq
        if hyperq.kind != MessageKind.ERROR:
            assert hyperq.kind == REPLIES[kind], hyperq
        # taken: the job moved as it took the request, failed or not,
        # and an ENDED job is gone
        self.state = None if step is JobState.ENDED else step
        return legacy, hyperq

    def assert_states(self) -> None:
        for side in (self.legacy, self.hyperq):
            assert side.state(self.job_id) is self.state, side.kind

    # -- rules ------------------------------------------------------------------------

    @precondition(lambda self: self.state is None)
    @rule(resume=st.booleans())
    def begin_load(self, resume):
        """BEGIN_LOAD: a fresh job, or (``resume``) the restart of one
        that ended uncommitted, which resends every chunk it took."""
        resend = []
        if resume and self.resumable:
            self.job_id = sorted(self.resumable)[0]
            resend = self.resumable.pop(self.job_id)
        else:
            self.serial += 1
            self.job_id = f"J{self.serial}"
        self.kept.discard(self.job_id)
        for side in (self.legacy, self.hyperq):
            side.drop("data")
        legacy, hyperq = self.both("control", MessageKind.BEGIN_LOAD, {
            "job_id": self.job_id, "target": "T", "et_table": "T_ET",
            "uv_table": "T_UV", "layout": layout_to_wire(LAYOUT),
            "format": FormatSpec("vartext", "|").to_wire(),
            "resume": resume})
        assert hyperq.kind == MessageKind.BEGIN_LOAD_OK, hyperq
        assert "committed" not in hyperq.meta
        self.state, self.chunks, self.dropped = JobState.ACQUIRING, [], False
        self.assert_states()
        for seq in resend:
            self.send_chunk(seq)

    def send_chunk(self, seq: int) -> None:
        self.bound("data", MessageKind.DATA, {"seq": seq},
                   CHUNKS[seq % len(CHUNKS)])
        if self.state is JobState.ACQUIRING:
            self.chunks.append(seq)
        self.assert_states()

    @precondition(lambda self: not self.dropped)
    @rule()
    def data(self):
        self.send_chunk(len(self.chunks))

    @precondition(lambda self: not self.dropped)
    @rule()
    def data_eof(self):
        self.bound("data", MessageKind.DATA_EOF, {})
        self.assert_states()

    @precondition(lambda self: not self.dropped)
    @rule(good=st.booleans())
    def apply_dml(self, good):
        """APPLY_DML: a good DML commits (a repeat answers the same
        result); one that does not parse fails on both and leaves the
        job APPLYING."""
        before = self.state
        legacy, hyperq = self.bound("control", MessageKind.APPLY_DML, {
            "sql": GOOD_DML if good else BAD_DML})
        if hyperq.kind == MessageKind.APPLY_RESULT:
            assert [legacy.meta[k] for k in COUNTS] == \
                [hyperq.meta[k] for k in COUNTS]
            if before is JobState.COMMITTED:
                assert hyperq.meta == self.result
            self.result, self.state = hyperq.meta, JobState.COMMITTED
        elif before is not None:
            assert not good and self.state is JobState.APPLYING
        self.assert_states()

    @precondition(lambda self: not self.dropped)
    @rule(abort=st.booleans())
    def end_load(self, abort):
        live, committed = self.state, self.state is JobState.COMMITTED
        self.bound("control", MessageKind.END_LOAD, {"abort": abort})
        self.assert_states()
        if live is not None and abort:
            self.kept.add(self.job_id)
            if not committed:
                self.resumable[self.job_id] = self.chunks
        if committed and not abort:
            assert self.legacy.tables() == self.hyperq.tables()
        self.assert_released()

    @precondition(lambda self: not self.dropped)
    @rule(which=st.sampled_from(["control", "data"]))
    def drop_connection(self, which):
        """A connection drops.  A control drop abandons a live job on
        Hyper-Q; its state stays for a resume."""
        for side in (self.legacy, self.hyperq):
            side.drop(which)
        if which == "data" or self.state is None:
            return
        wait_until(lambda: self.hyperq.state(self.job_id) is None)
        self.kept.add(self.job_id)
        if self.state is not JobState.COMMITTED:
            self.resumable[self.job_id] = self.chunks
        self.state, self.dropped = None, True
        self.assert_released()

    # -- what an ended job leaves behind on Hyper-Q -------------------------------

    def assert_released(self) -> None:
        node = self.hyperq.server
        assert not node._jobs
        assert node.wlm.snapshot()["pools"]["only"]["occupied_slots"] == 0
        wait_until(lambda: node.credits.available == node.credits.pool_size)
        left = set(os.listdir(node._base_dir)) - {"flight", "streams"}
        assert left <= self.kept, left
        opened = sum(channel is not None
                     for side in (self.legacy, self.hyperq)
                     for channel in (side.control, side.data))
        wait_until(lambda: threading.active_count()
                   <= self.threads + opened)


LoadJobMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None)
TestLoadJobProtocol = LoadJobMachine.TestCase
