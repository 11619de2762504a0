"""Flight recorder: bounded per-job event logs and post-mortem bundles.

Unit coverage of the recorder's bounds and bundle format, then the
acceptance scenario: a load job that was throttled by WLM, retried a
transient apply fault, split around bad rows, and finally got killed
by the client must leave a post-mortem bundle on disk from which that
whole history can be reconstructed.
"""

import threading

import pytest

from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import (
    ImportJobSpec, LegacyEtlClient, split_into_chunks,
)
from repro.legacy.protocol import Message, MessageKind, layout_to_wire
from repro.obs.flight import FlightRecorder
from repro.workloads import make_workload


class TestFlightRecorderUnit:
    def test_disabled_recorder_is_a_noop(self):
        recorder = FlightRecorder(enabled=False)
        recorder.record("j1", "started")
        recorder.record_node("breaker_transition")
        assert recorder.events("j1") == []
        assert recorder.node_events() == []
        assert recorder.jobs() == []
        assert recorder.dump("j1") is None

    def test_blank_job_id_is_ignored(self):
        recorder = FlightRecorder(enabled=True)
        recorder.record("", "started")
        assert recorder.jobs() == []

    def test_events_keep_order_and_fields(self):
        recorder = FlightRecorder(enabled=True)
        recorder.record("j1", "started", target="T")
        recorder.record("j1", "retry", attempt=1)
        events = recorder.events("j1")
        assert [e["event"] for e in events] == ["started", "retry"]
        assert events[0]["target"] == "T"
        assert events[1]["attempt"] == 1
        assert all(e["ts"] > 0 for e in events)

    def test_per_job_event_bound(self):
        recorder = FlightRecorder(enabled=True, max_events_per_job=4)
        for i in range(10):
            recorder.record("j1", f"e{i}")
        events = recorder.events("j1")
        assert [e["event"] for e in events] == ["e6", "e7", "e8", "e9"]

    def test_job_slots_are_lru_bounded(self):
        recorder = FlightRecorder(enabled=True, max_jobs=2)
        recorder.record("j1", "started")
        recorder.record("j2", "started")
        recorder.record("j1", "still-warm")   # refresh j1
        recorder.record("j3", "started")      # evicts j2, the coldest
        assert sorted(recorder.jobs()) == ["j1", "j3"]
        assert recorder.events("j2") == []

    def test_node_events_are_bounded(self):
        recorder = FlightRecorder(enabled=True, max_events_per_job=3)
        for i in range(5):
            recorder.record_node(f"n{i}")
        assert [e["event"] for e in recorder.node_events()] == \
            ["n2", "n3", "n4"]

    def test_forget(self):
        recorder = FlightRecorder(enabled=True)
        recorder.record("j1", "started")
        recorder.forget("j1")
        assert recorder.events("j1") == []

    def test_bundle_and_dump_roundtrip(self, tmp_path):
        recorder = FlightRecorder(enabled=True,
                                  dump_dir=str(tmp_path))
        recorder.record("j1", "started")
        recorder.record_node("breaker_transition", state="open")
        spans = [{"name": "job", "trace_id": 9}]
        path = recorder.dump("j1", spans=spans,
                             metrics={"job_id": "j1"}, reason="aborted")
        assert path == str(tmp_path / "j1.json")
        bundle = FlightRecorder.load_bundle(path)
        assert bundle["version"] == 1
        assert bundle["job_id"] == "j1"
        assert bundle["reason"] == "aborted"
        assert [e["event"] for e in bundle["events"]] == ["started"]
        assert bundle["node_events"][0]["state"] == "open"
        assert bundle["spans"] == spans
        assert bundle["metrics"] == {"job_id": "j1"}

    def test_dump_without_dir_returns_none(self):
        recorder = FlightRecorder(enabled=True)
        recorder.record("j1", "started")
        assert recorder.dump("j1") is None

    @pytest.mark.parametrize("kwargs", [
        {"max_events_per_job": 0}, {"max_jobs": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FlightRecorder(enabled=True, **kwargs)


WLM_PROFILE = {
    "policy": "fair",
    "pools": [
        {"name": "etl", "weight": 1, "max_concurrency": 1,
         "queue_limit": 1, "queue_timeout_s": 0.05,
         "retry_after_s": 0.02, "match": {"tenant": "*"}},
    ],
}


def test_killed_job_bundle_reconstructs_history(tmp_path):
    """Throttle + transient retry + located bad rows + abort, all in
    one bundle."""
    workload = make_workload(rows=300, row_bytes=120, seed=77,
                             error_rate=0.08, table="F.T")
    config = HyperQConfig(
        converters=2, filewriters=2, credits=8,
        trace_enabled=True,
        wlm_profile=WLM_PROFILE,
        # one guaranteed transient fault on the first APPLY attempt
        chaos_profile=[{"point": "dml.apply", "at_call": 1}],
        retry_base_delay_s=0.001, retry_max_delay_s=0.01,
        flight_dump_dir=str(tmp_path))
    job_id = "killme000001"
    with build_stack(config=config) as stack:
        node = stack.node
        # Occupy the pool's only slot so the job's admission is
        # throttled first; free it shortly after.
        ticket = node.wlm.admit("etl", "occupier")
        releaser = threading.Timer(0.4, node.wlm.release, (ticket,))
        releaser.start()

        client = LegacyEtlClient(node.connect, timeout=30)
        client.logon("h", "u", "p")
        client.execute_sql(workload.ddl)
        spec = ImportJobSpec(
            target_table=workload.target_table,
            et_table=workload.et_table,
            uv_table=workload.uv_table,
            layout=workload.layout,
            apply_sql=workload.apply_sql,
            data=workload.data)
        control = client._require_control()
        try:
            client._request_admitted(
                control,
                Message(MessageKind.BEGIN_LOAD, {
                    "job_id": job_id,
                    "target": spec.target_table,
                    "et_table": spec.et_table,
                    "uv_table": spec.uv_table,
                    "layout": layout_to_wire(spec.layout),
                    "format": spec.format_spec.to_wire(),
                    "sessions": 2,
                    "tenant": "tenant-0",
                }),
                MessageKind.BEGIN_LOAD_OK, 40, 0.05)
        finally:
            releaser.join()
        chunks = split_into_chunks(spec.data, spec.format_spec, 4096)
        client._pump_data(job_id, 2, chunks)
        control.request(
            Message(MessageKind.APPLY_DML,
                    {"job_id": job_id, "sql": spec.apply_sql}),
            MessageKind.APPLY_RESULT)
        # The client gives up on the job after a successful apply but
        # before END_LOAD — the gateway sees a mid-load kill.
        control.request(
            Message(MessageKind.END_LOAD,
                    {"job_id": job_id, "abort": True}),
            MessageKind.END_LOAD_OK)
        client.logoff()

    bundle = FlightRecorder.load_bundle(
        str(tmp_path / f"{job_id}.json"))
    assert bundle["job_id"] == job_id
    assert bundle["reason"] == "aborted"

    events = [e["event"] for e in bundle["events"]]
    # The whole story, in order: shed by WLM, admitted, started,
    # transient apply fault retried, bad rows located and recorded one
    # by one, killed.
    assert "wlm_throttled" in events
    assert "wlm_admitted" in events
    assert "started" in events
    assert "retry" in events
    assert "apply_started" in events
    assert "apply_locate" in events
    assert "apply_tuple_error" in events
    assert "apply_finished" in events
    assert events[-1] == "aborted"
    assert events.index("wlm_throttled") < events.index("wlm_admitted")
    assert events.index("wlm_admitted") < events.index("started")
    assert events.index("apply_started") < events.index("apply_locate")
    assert events.index("apply_locate") < events.index("apply_tuple_error")
    [locate] = [e for e in bundle["events"] if e["event"] == "apply_locate"]
    assert locate["suspects"] > 0 and locate["lo"] <= locate["hi"]

    [retry] = [e for e in bundle["events"] if e["event"] == "retry"]
    assert retry["target"] == "dml.apply"
    assert retry["attempt"] == 1
    [throttled] = [e for e in bundle["events"]
                   if e["event"] == "wlm_throttled"][:1]
    assert throttled["pool"] == "etl"
    assert throttled["retry_after_s"] >= 0

    # Spans and a metrics snapshot ride along in the bundle.
    span_names = {s["name"] for s in bundle["spans"]}
    assert {"job", "copy", "apply"} <= span_names
    assert bundle["metrics"]["job_id"] == job_id
    assert bundle["metrics"]["rows_inserted"] > 0


def test_completed_job_leaves_no_bundle(tmp_path):
    workload = make_workload(rows=50, row_bytes=100, seed=5,
                             table="F.OK")
    config = HyperQConfig(converters=1, filewriters=1, credits=4,
                          flight_dump_dir=str(tmp_path))
    with build_stack(config=config) as stack:
        from repro.bench.harness import run_workload_through_hyperq
        run_workload_through_hyperq(stack, workload, sessions=1)
    assert list(tmp_path.iterdir()) == []
