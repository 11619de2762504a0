"""Differential tests: async front end vs threaded baseline.

The async front end (``config.async_frontend``) must be invisible to
job semantics: every suite here runs the same client traffic against
both front ends and asserts identical results — row counts, error-table
routing, exported bytes, chaos kill+resume recovery, and WLM
throttle-and-retry behavior.  The threaded path is the long-lived
reference implementation, which is exactly what makes these
comparisons meaningful.
"""

import threading
import time

import pytest

from repro import net_async
from repro.core.config import HyperQConfig
from repro.errors import ConnectionLimited, TransportClosed
from repro.legacy.client import (
    ExportJobSpec, ImportJobSpec, LegacyEtlClient,
)
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.net_tcp import TcpListener
from repro.workloads.generator import make_workload

from tests.conftest import make_node


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.01)


def run_jobs(async_frontend: bool, *, n_jobs: int = 3) -> dict:
    """Run a mixed clean/dirty load + export suite; return outcomes,
    plus the front end's stats and the threads that ran handlers."""
    config = HyperQConfig(
        converters=2, filewriters=1, credits=16,
        async_frontend=async_frontend)
    stack = make_node(config=config)
    node = stack.node
    handler_threads = set()
    handle_message = node.handle_message

    def spying_handle_message(channel, message, conn):
        # executor threads are "<prefix>_<i>"; keep the prefix
        handler_threads.add(
            threading.current_thread().name.rsplit("_", 1)[0])
        handle_message(channel, message, conn)

    node.handle_message = spying_handle_message
    out = {}
    try:
        for i in range(n_jobs):
            dirty = i == n_jobs - 1
            workload = make_workload(
                rows=120, row_bytes=80, seed=11 + i,
                table=f"PROD.T{i}", name=f"job{i}",
                error_rate=0.05 if dirty else 0,
                dup_rate=0.05 if dirty else 0)
            client = LegacyEtlClient(stack.node.connect, timeout=60)
            client.logon("h", "etl", "pw")
            client.execute_sql(workload.ddl)
            loaded = client.run_import(ImportJobSpec(
                target_table=workload.target_table,
                et_table=workload.et_table,
                uv_table=workload.uv_table,
                layout=workload.layout,
                apply_sql=workload.apply_sql,
                data=workload.data,
                sessions=2, chunk_bytes=4096))
            exported = client.run_export(ExportJobSpec(
                select_sql=f"SELECT * FROM {workload.target_table}",
                sessions=2))
            client.logoff()
            rows = stack.engine.query(
                f"SELECT * FROM {workload.target_table}")
            out[workload.name] = {
                "inserted": loaded.rows_inserted,
                "et": loaded.et_errors,
                "uv": loaded.uv_errors,
                "exported": exported.rows_exported,
                "table": sorted(rows),
            }
        node.credits.check_conservation()
        out["gateway"] = node.stats()["gateway"]
        out["handler_threads"] = {
            name.removeprefix(f"{node.name}-") for name in handler_threads}
    finally:
        node.stop()
    return out


class TestDifferential:
    def test_async_equals_threaded_end_to_end(self):
        """Loads (clean + dirty) and exports: identical outcomes."""
        threaded = run_jobs(False)
        multiplexed = run_jobs(True)
        gateway = multiplexed.pop("gateway")
        threads = multiplexed.pop("handler_threads")
        threaded.pop("gateway")
        threaded.pop("handler_threads")
        assert multiplexed == threaded
        assert gateway["frontend"] == "async"
        # Every frame ran on one of the two executors: admissions on
        # the admit executor, everything else on the work executor.
        assert threads == {"admit", "work"}


class TestAdmitWorkSplit:
    def test_parked_admits_do_not_block_end_load(self, monkeypatch):
        """BEGIN_LOADs parked in ``wlm.admit`` fill every admit worker;
        the job holding the slot still finishes DATA/APPLY/END_LOAD on
        the work executor, and that admits a parked job."""
        monkeypatch.setattr(net_async, "_ADMIT_WORKERS", 2)
        config = HyperQConfig(
            converters=1, filewriters=1, credits=8, async_frontend=True,
            wlm_profile=[{"name": "one", "max_concurrency": 1,
                          "queue_limit": 4, "queue_timeout_s": 10.0,
                          "match": {"user": "u*"}}])
        stack = make_node(config=config)
        assert stack.node.frontend._exec_admit._max_workers == 2
        workloads = [
            make_workload(rows=30, row_bytes=40, seed=41 + i,
                          table=f"PROD.SPLIT{i}", name=f"split{i}")
            for i in range(3)]
        holding, release = threading.Event(), threading.Event()
        results, failures = {}, []

        def run_one(workload, hold: bool = False):
            try:
                client = LegacyEtlClient(stack.node.connect, timeout=30)
                client.logon("h", "u", "pw")
                if hold:
                    pump = client._pump_data

                    def held_pump(*args, **kwargs):
                        holding.set()  # admitted: this job holds the slot
                        release.wait(timeout=10)
                        pump(*args, **kwargs)

                    client._pump_data = held_pump
                loaded = client.run_import(ImportJobSpec(
                    target_table=workload.target_table,
                    et_table=workload.et_table,
                    uv_table=workload.uv_table,
                    layout=workload.layout,
                    apply_sql=workload.apply_sql,
                    data=workload.data, sessions=1))
                client.logoff()
                results[workload.name] = loaded.rows_inserted
            except BaseException as exc:
                failures.append(exc)

        def pool():
            return stack.node.stats()["wlm"]["pools"]["one"]

        try:
            for workload in workloads:
                stack.engine.execute(workload.ddl)
            holder = threading.Thread(
                target=run_one, args=(workloads[0], True))
            holder.start()
            assert holding.wait(timeout=10)
            parked = [threading.Thread(target=run_one, args=(w,))
                      for w in workloads[1:]]
            for thread in parked:
                thread.start()
            wait_until(lambda: pool()["queue_depth"] == 2)
            release.set()
            for thread in [holder, *parked]:
                thread.join(timeout=30)
            assert not failures
            assert results == {
                w.name: w.expected_good_rows for w in workloads}
            # Both parked jobs were admitted from the queue, none shed.
            assert pool()["admitted"] == 3
            assert pool()["queue_timeouts"] == 0
        finally:
            release.set()
            stack.node.stop()


class TestChaosDifferential:
    """Kill+resume under seeded network chaos, on both front ends."""

    LAYOUT = Layout("L", [FieldDef("A", parse_type("varchar(20)"))])

    @pytest.mark.parametrize("async_frontend", [False, True])
    def test_dropped_ack_recovered_by_session_restart(
            self, async_frontend):
        # The 7th server send is a DATA_ACK; dropping it kills the
        # data session mid-flight, exactly once — the client's
        # checkpoint/restart machinery recovers on either front end.
        profile = [{"point": "net.send", "at_call": 7, "max_fires": 1}]
        config = HyperQConfig(
            converters=2, filewriters=2, credits=8,
            async_frontend=async_frontend,
            chaos_profile=profile)
        stack = make_node(config=config)
        try:
            client = LegacyEtlClient(stack.node.connect, timeout=15)
            client.logon("h", "u", "p")
            client.execute_sql(
                "create table R (A varchar(20) not null, unique (A))")
            data = "".join(
                f"row-{i:04d}\n" for i in range(40)).encode()
            result = client.run_import(ImportJobSpec(
                target_table="R", et_table="R_ET", uv_table="R_UV",
                layout=self.LAYOUT,
                apply_sql="insert into R values (:A)", data=data,
                sessions=1, chunk_bytes=64, retry_attempts=2,
                reconnect_backoff_s=0.001))
            client.logoff()
            assert result.rows_inserted == 40
            assert result.uv_errors == 0  # nothing double-loaded
            assert stack.engine.query("SELECT COUNT(*) FROM R") == \
                [(40,)]
            assert stack.node.faults.snapshot()["injected"] == \
                {"net.send:transient": 1}
        finally:
            stack.node.stop()


WLM_PROFILE = {
    "policy": "fair",
    "pools": [
        {"name": "narrow", "weight": 1, "max_concurrency": 1,
         "queue_limit": 1, "queue_timeout_s": 10.0,
         "retry_after_s": 0.02, "match": {"tenant": "tenant-*"}},
    ],
}


class TestWlmDifferential:
    """Admission throttling must shed-and-retry identically."""

    @pytest.mark.parametrize("async_frontend", [False, True])
    def test_throttled_tenants_all_complete(self, async_frontend):
        config = HyperQConfig(
            converters=2, filewriters=1, credits=8,
            async_frontend=async_frontend,
            wlm_profile=WLM_PROFILE)
        stack = make_node(config=config)
        workloads = [
            make_workload(rows=60, row_bytes=60, seed=31 + i,
                          table=f"PROD.W{i}", name=f"w{i}")
            for i in range(4)]
        try:
            for workload in workloads:
                stack.engine.execute(workload.ddl)
            results, failures = {}, []
            lock = threading.Lock()

            def run_one(index, workload):
                try:
                    client = LegacyEtlClient(stack.node.connect,
                                             timeout=60)
                    client.logon("h", "u", "pw")
                    loaded = client.run_import(ImportJobSpec(
                        target_table=workload.target_table,
                        et_table=workload.et_table,
                        uv_table=workload.uv_table,
                        layout=workload.layout,
                        apply_sql=workload.apply_sql,
                        data=workload.data, sessions=1,
                        tenant=f"tenant-{index}",
                        admission_retry_attempts=100,
                        admission_backoff_s=0.02))
                    client.logoff()
                    with lock:
                        results[workload.name] = loaded.rows_inserted
                except BaseException as exc:
                    with lock:
                        failures.append(exc)

            threads = [
                threading.Thread(target=run_one, args=(i, w))
                for i, w in enumerate(workloads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not failures
            assert results == {
                w.name: w.expected_good_rows for w in workloads}
            wlm = stack.node.stats()["wlm"]
            # The 1-wide pool really did make jobs wait or bounce.
            narrow = wlm["pools"]["narrow"]
            assert narrow["admitted"] == 4
            assert (narrow["throttled"] > 0
                    or narrow["admission_wait_s"] > 0)
        finally:
            stack.node.stop()


class TestConnectionCap:
    @pytest.mark.parametrize("async_frontend", [False, True])
    def test_over_cap_connection_refused_typed(self, async_frontend):
        config = HyperQConfig(
            converters=1, filewriters=1, credits=4,
            async_frontend=async_frontend,
            max_connections=2)
        stack = make_node(config=config)
        try:
            frontend = stack.node.frontend
            held = []
            for _ in range(2):
                client = LegacyEtlClient(stack.node.connect, timeout=10)
                client.logon("h", "u", "pw")
                held.append(client)
            wait_until(lambda: frontend.connections.active == 2)

            extra = LegacyEtlClient(stack.node.connect, timeout=10)
            with pytest.raises(ConnectionLimited) as excinfo:
                extra.logon("h", "u", "pw")
            assert excinfo.value.transient
            assert excinfo.value.code == 3159
            assert excinfo.value.limit == 2
            assert excinfo.value.retry_after_s > 0

            snapshot = stack.node.stats()["gateway"]
            assert snapshot["connections_refused"] >= 1
            assert snapshot["max_connections"] == 2

            # Freeing a slot readmits new sessions (the typed error is
            # retryable for a reason).
            held.pop().logoff()
            wait_until(lambda: frontend.connections.active < 2)
            retry = LegacyEtlClient(stack.node.connect, timeout=10)
            retry.logon("h", "u", "pw")
            retry.logoff()
            held[0].logoff()
        finally:
            stack.node.stop()


class TestIdleSessions:
    def test_many_idle_tcp_sessions_multiplexed(self):
        """A pile of idle sockets costs the reactor no threads, and a
        session opened last still gets served first."""
        config = HyperQConfig(
            converters=1, filewriters=1, credits=4,
            async_frontend=True,
            metrics_enabled=False)
        listener = TcpListener()
        stack = make_node(config=config, listener=listener)
        idle = []
        try:
            threads_before = threading.active_count()
            for _ in range(100):
                idle.append(listener.connect())
            frontend = stack.node.frontend
            wait_until(lambda: frontend.connections.active == 100)
            # No thread-per-connection: the thread count is flat.
            assert threading.active_count() - threads_before < 10

            client = LegacyEtlClient(listener.connect, timeout=15)
            client.logon("h", "u", "pw")
            client.execute_sql("create table IDLE_T (A int not null)")
            client.logoff()
            for endpoint in idle:
                endpoint.close_both()
            idle = []
            wait_until(lambda: frontend.connections.active == 0)
        finally:
            for endpoint in idle:
                endpoint.close_both()
            stack.node.stop()


class TestFrontendTeardown:
    def test_abandoned_connection_frees_its_job_slot(self):
        """A control connection that vanishes mid-load releases its
        WLM admission and job state (teardown runs off-reactor)."""
        config = HyperQConfig(
            converters=1, filewriters=1, credits=4,
            async_frontend=True,
            wlm_profile=[{"name": "only", "max_concurrency": 1,
                          "queue_limit": 0, "queue_timeout_s": 0.1,
                          "match": {"user": "u*"}}])
        stack = make_node(config=config)
        try:
            workload = make_workload(rows=10, row_bytes=40,
                                     table="PROD.ABANDON")
            stack.engine.execute(workload.ddl)
            client = LegacyEtlClient(stack.node.connect, timeout=10)
            client.logon("h", "u", "pw")
            # Start a load, then drop the control connection on the
            # floor without END_LOAD.
            channel = client._require_control()
            from repro.legacy.client import _layout_to_wire
            from repro.legacy.protocol import Message, MessageKind
            channel.request(Message(MessageKind.BEGIN_LOAD, {
                "job_id": "abandonedjob",
                "target": workload.target_table,
                "et_table": workload.et_table,
                "uv_table": workload.uv_table,
                "layout": _layout_to_wire(workload.layout),
                "format": workload.format_spec.to_wire(),
                "sessions": 1,
            }), MessageKind.BEGIN_LOAD_OK)
            channel.close()
            client._control = None
            # The abandoned job's slot comes back; a new load admits.
            wait_until(
                lambda: stack.node.stats()["active_jobs"] == 0)
            run = LegacyEtlClient(stack.node.connect, timeout=15)
            run.logon("h", "u", "pw")
            loaded = run.run_import(ImportJobSpec(
                target_table=workload.target_table,
                et_table=workload.et_table,
                uv_table=workload.uv_table,
                layout=workload.layout,
                apply_sql=workload.apply_sql,
                data=workload.data, sessions=1,
                admission_retry_attempts=20,
                admission_backoff_s=0.05))
            run.logoff()
            assert loaded.rows_inserted == workload.expected_good_rows
        finally:
            stack.node.stop()
