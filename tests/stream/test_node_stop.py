"""Node shutdown with live feeds and jobs: end them before
observability close.

``HyperQNode.stop()`` must quiesce abandoned stream feeds — journal
closed, WLM admission released, flight event recorded — and end
in-flight load jobs *before* it closes the observability stack, so the
teardown itself can still emit telemetry.  A stopped node must hold no
feed or job state.
"""

from repro.core.config import HyperQConfig
from repro.legacy.client import LegacyEtlClient, split_into_chunks
from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import (
    Message, MessageChannel, MessageKind, layout_to_wire,
)
from repro.stream import StreamRunner, StreamSession
from repro.workloads.generator import make_workload
from repro.workloads.streamgen import stream_workload

from tests.conftest import make_node


def test_stop_quiesces_open_feeds_before_obs_close(tmp_path):
    workload = stream_workload(batches=2, rows_per_batch=5, drift=False,
                               feed="stopfeed", seed=31)
    stack = make_node(config=HyperQConfig(credits=8))
    try:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed="stopfeed",
                                target_table=workload.target_table,
                                watermark_dir=str(tmp_path))
        session.open()
        StreamRunner(session, workload).run()
        # abandon the feed: client goes away without END_LOAD
        session.close(end_feed=False)
        node = stack.node
        feed = node._streams["stopfeed"]

        order = []
        journal_close = feed.journal.close
        obs_close = node.obs.close

        def tracked_journal_close():
            order.append("journal")
            journal_close()

        def tracked_obs_close():
            order.append("obs")
            obs_close()

        feed.journal.close = tracked_journal_close
        node.obs.close = tracked_obs_close
    finally:
        stack.close()

    assert order == ["journal", "obs"]
    assert stack.node._streams == {}
    # the quiesce left a flight-recorder trace for the post-mortem
    events = [e["event"] for e in
              stack.node.obs.flight.events("stream:stopfeed")]
    assert "feed_quiesced" in events


def test_stop_is_clean_with_no_open_feeds():
    workload = stream_workload(batches=2, rows_per_batch=5, drift=False,
                               feed="donefeed", seed=33)
    stack = make_node(config=HyperQConfig(credits=8))
    stack.engine.execute(workload.ddl)
    with StreamSession(stack.node.connect, feed="donefeed",
                       target_table=workload.target_table) as session:
        StreamRunner(session, workload).run()
    # the context manager ended the feed; stop has nothing to quiesce
    assert stack.node._streams == {}
    stack.close()


def test_stop_ends_an_in_flight_one_shot_job():
    """A one-shot load caught mid-acquisition by ``stop()`` ends like
    any abandoned job: its span with ``error``, the ``abandoned``
    flight event and ``hyperq_jobs_total`` event, one failed SLO
    sample."""
    workload = make_workload(rows=20, row_bytes=60, seed=35)
    stack = make_node(config=HyperQConfig(
        credits=8, trace_enabled=True,
        slo_profile=[{"name": "errors", "objective": "error_rate",
                      "pool": "*", "target": 0.99, "windows_s": [600]}]))
    node = stack.node
    control = MessageChannel(node.connect(), timeout=10)
    try:
        stack.engine.execute(workload.ddl)
        control.request(Message(MessageKind.LOGON, {"user": "u"}),
                        MessageKind.LOGON_OK)
        control.request(
            Message(MessageKind.BEGIN_LOAD, {
                "job_id": "midjob", "target": workload.target_table,
                "et_table": workload.et_table,
                "uv_table": workload.uv_table,
                "layout": layout_to_wire(workload.layout),
                "format": FormatSpec("vartext", "|").to_wire()}),
            MessageKind.BEGIN_LOAD_OK)
        LegacyEtlClient(node.connect)._pump_data(
            "midjob", 1, split_into_chunks(
                workload.data, FormatSpec("vartext", "|"), 400))
    finally:
        stack.close()
        control.close()

    assert node._jobs == {}
    assert [r["status"] for r in node.obs.tracer.spans("job")
            if r["attrs"]["job_id"] == "midjob"] == ["error"]
    assert node.obs.flight.events("midjob")[-1]["event"] == "abandoned"
    assert node.obs.jobs_total.labels(event="abandoned").value == 1
    errors = node.obs.slo.evaluate()["errors"]
    assert (errors["good"], errors["bad"]) == (0, 1)
