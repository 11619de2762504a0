"""WLM through the gateway: classification, throttling, telemetry."""

import threading
import time

import pytest

from repro.core.config import HyperQConfig
from repro.errors import WlmThrottled
from repro.legacy.client import (
    ExportJobSpec, ImportJobSpec, LegacyEtlClient,
)
from repro.legacy.protocol import Message, MessageChannel, MessageKind
from repro.workloads.generator import make_workload
from tests.conftest import make_node

PROFILE = {
    "policy": "fair",
    "pools": [
        {"name": "etl", "weight": 2, "max_concurrency": 2,
         "queue_limit": 2, "queue_timeout_s": 5.0,
         "match": {"tenant": "acme*"}},
        {"name": "batch", "weight": 1, "max_concurrency": 1,
         "queue_limit": 0, "queue_timeout_s": 0.2,
         "retry_after_s": 0.05,
         "match": {"user": "batch*"}},
    ],
}


def wlm_stack(profile=PROFILE, credits=8):
    return make_node(config=HyperQConfig(
        credits=credits, wlm_profile=profile))


def import_spec(workload, **overrides) -> ImportJobSpec:
    spec = dict(
        target_table=workload.target_table,
        et_table=workload.et_table, uv_table=workload.uv_table,
        layout=workload.layout, apply_sql=workload.apply_sql,
        data=workload.data, sessions=2)
    spec.update(overrides)
    return ImportJobSpec(**spec)


class TestClassificationAndStats:
    def test_tenant_routes_to_pool_and_stats_report(self):
        workload = make_workload(rows=100, row_bytes=60, seed=3)
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "alice", "pw")
            result = client.run_import(import_spec(
                workload, tenant="acme-eu"))
            assert result.rows_inserted == workload.expected_good_rows
            client.logoff()

            wlm = stack.node.stats()["wlm"]
            assert wlm["enabled"] is True
            assert wlm["pools"]["etl"]["admitted"] == 1
            assert wlm["pools"]["etl"]["occupied_slots"] == 0
            assert wlm["pools"]["batch"]["admitted"] == 0
            assert wlm["pools"]["etl"]["credits"]["grants"] > 0
        finally:
            stack.close()

    def test_user_fallback_classification(self):
        """Without an explicit tenant the logon user classifies."""
        workload = make_workload(rows=50, row_bytes=60, seed=4)
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "batch_loader", "pw")
            client.run_import(import_spec(workload, sessions=1))
            client.logoff()
            wlm = stack.node.stats()["wlm"]
            assert wlm["pools"]["batch"]["admitted"] == 1
        finally:
            stack.close()

    def test_prometheus_exposition_has_wlm_families(self):
        workload = make_workload(rows=50, row_bytes=60, seed=5)
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "u", "pw")
            client.run_import(import_spec(
                workload, tenant="acme-x", sessions=1))
            client.logoff()
            prom = stack.node.render_prometheus()
            for family in (
                "hyperq_wlm_admitted_total",
                "hyperq_wlm_queue_depth",
                "hyperq_wlm_slots_occupied",
                "hyperq_wlm_admission_wait_seconds",
                "hyperq_wlm_credit_grants_total",
                "hyperq_wlm_credit_wait_seconds",
            ):
                assert family in prom, family
            assert 'pool="etl"' in prom
        finally:
            stack.close()

    def test_disabled_wlm_reports_disabled(self):
        stack = make_node()
        try:
            wlm = stack.node.stats()["wlm"]
            assert wlm == {"enabled": False, "pools": {}}
        finally:
            stack.close()


class TestThrottling:
    def test_saturated_pool_throttles_begin_load(self):
        workload = make_workload(rows=30, row_bytes=60, seed=6)
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            # Occupy batch's single slot out-of-band so the client's
            # BEGIN_LOAD finds the pool saturated with no queue room.
            ticket = stack.node.wlm.admit("batch", "occupier")
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "batch_user", "pw")
            with pytest.raises(WlmThrottled) as info:
                client.run_import(import_spec(workload, sessions=1))
            exc = info.value
            assert exc.code == 3149
            assert exc.pool == "batch"
            assert exc.reason == "queue_full"
            assert exc.retry_after_s > 0
            assert exc.transient is True

            # The shed left nothing behind: no job state, and the pool
            # recovers as soon as the occupant finishes.
            assert not stack.node._jobs
            stack.node.wlm.release(ticket)
            result = client.run_import(import_spec(workload, sessions=1))
            assert result.rows_inserted == workload.expected_good_rows
            client.logoff()
            wlm = stack.node.stats()["wlm"]
            assert wlm["pools"]["batch"]["throttled"] == 1
            # the out-of-band occupier plus the successful import.
            assert wlm["pools"]["batch"]["admitted"] == 2
        finally:
            stack.close()

    def test_admission_retry_succeeds_after_backoff(self):
        """The legacy client's admission retry rides out a throttle."""
        workload = make_workload(rows=30, row_bytes=60, seed=7)
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            ticket = stack.node.wlm.admit("batch", "occupier")
            # Free the slot shortly after the first (shed) attempt.
            timer = threading.Timer(
                0.15, lambda: stack.node.wlm.release(ticket))
            timer.start()
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "batch_user", "pw")
            result = client.run_import(import_spec(
                workload, sessions=1, admission_retry_attempts=10,
                admission_backoff_s=0.05))
            assert result.rows_inserted == workload.expected_good_rows
            client.logoff()
            timer.cancel()
            wlm = stack.node.stats()["wlm"]
            assert wlm["pools"]["batch"]["throttled"] >= 1
            # the out-of-band occupier plus the successful import.
            assert wlm["pools"]["batch"]["admitted"] == 2
        finally:
            stack.close()

    def test_throttle_does_not_abort_in_flight_job(self):
        """An admitted job runs to completion while others are shed."""
        workload = make_workload(rows=200, row_bytes=80, seed=8)
        other = make_workload(rows=30, row_bytes=60, seed=9,
                              table="PROD.OTHER")
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            stack.engine.execute(other.ddl)
            results = {}

            def run_big():
                client = LegacyEtlClient(stack.node.connect)
                client.logon("h", "batch_user", "pw")
                results["big"] = client.run_import(
                    import_spec(workload, sessions=1))
                client.logoff()

            thread = threading.Thread(target=run_big, daemon=True)
            thread.start()
            # Wait for the big job to hold batch's only slot.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                pools = stack.node.stats()["wlm"]["pools"]
                if pools["batch"]["occupied_slots"] == 1:
                    break
                time.sleep(0.005)
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "batch_rival", "pw")
            try:
                client.run_import(import_spec(other, sessions=1))
            except WlmThrottled:
                pass  # expected whenever the big job still runs
            client.logoff()
            thread.join(timeout=30)
            assert results["big"].rows_inserted == \
                workload.expected_good_rows
        finally:
            stack.close()


class TestThreadNamingAndExports:
    def test_job_threads_carry_job_id(self):
        workload = make_workload(rows=30, row_bytes=60, seed=10)
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            channel = MessageChannel(stack.node.connect(), timeout=5)
            channel.request(
                Message(MessageKind.LOGON, {"user": "u"}),
                MessageKind.LOGON_OK)
            channel.request(
                Message(MessageKind.BEGIN_LOAD, {
                    "job_id": "threadjob", "target": workload.target_table,
                    "et_table": workload.et_table,
                    "uv_table": workload.uv_table,
                    "layout": {"name": "L", "fields": [
                        [f.name, f.type.render()]
                        for f in workload.layout.fields]},
                    "format": workload.format_spec.to_wire(),
                    "sessions": 1, "tenant": "acme-t",
                }), MessageKind.BEGIN_LOAD_OK)
            names = {t.name for t in threading.enumerate()}
            # The control handler is job-attributed; the pipeline pool is
            # the node's, and idle until the job has stage work.
            assert any("job-threadjob-ctl" in n for n in names), names
            config = stack.node.config
            assert {n for n in names if "pipeline" in n} == {
                f"hyperq-pipeline-{i}" for i in range(
                    config.converters + config.filewriters + 1)}, names
            # While a convert runs, the pool thread running it carries
            # the job id.
            entered, release = threading.Event(), threading.Event()
            converter = stack.node._jobs["threadjob"].pipeline.converter
            convert = converter.convert

            def blocked_convert(chunk_seq, data):
                entered.set()
                release.wait(timeout=5)
                return convert(chunk_seq, data)

            converter.convert = blocked_convert
            try:
                channel.request(
                    Message(MessageKind.DATA,
                            {"job_id": "threadjob", "seq": 0},
                            body=workload.data[:workload.data.index(
                                b"\n") + 1]),
                    MessageKind.DATA_ACK)
                assert entered.wait(timeout=5)
                names = {t.name for t in threading.enumerate()}
                assert "hyperq-job-threadjob-convert-0" in names, names
            finally:
                release.set()
            channel.request(
                Message(MessageKind.END_LOAD, {"job_id": "threadjob"}),
                MessageKind.END_LOAD_OK)
            channel.close()
        finally:
            stack.close()

    def test_data_session_threads_carry_session_no(self):
        stack = wlm_stack()
        try:
            channel = MessageChannel(stack.node.connect(), timeout=5)
            channel.request(
                Message(MessageKind.LOGON,
                        {"user": "u", "job_id": "sess", "session_no": 3}),
                MessageKind.LOGON_OK)
            names = {t.name for t in threading.enumerate()}
            assert any(n.endswith("job-sess-s3") for n in names), names
            channel.close()
        finally:
            stack.close()

    def test_export_completion_frees_slot_and_registry(self):
        workload = make_workload(rows=120, row_bytes=60, seed=11)
        stack = wlm_stack()
        try:
            stack.engine.execute(workload.ddl)
            client = LegacyEtlClient(stack.node.connect)
            client.logon("h", "alice", "pw")
            client.run_import(import_spec(
                workload, tenant="acme-eu", sessions=1))
            exported = client.run_export(ExportJobSpec(
                select_sql=f"SELECT * FROM {workload.target_table}",
                sessions=3, tenant="acme-eu"))
            assert exported.rows_exported == workload.expected_good_rows
            client.logoff()
            # Every session saw EOF, so the job is gone and both
            # admissions (load + export) released their slots.
            assert not stack.node._exports
            wlm = stack.node.stats()["wlm"]
            assert wlm["pools"]["etl"]["admitted"] == 2
            assert wlm["pools"]["etl"]["occupied_slots"] == 0
        finally:
            stack.close()
