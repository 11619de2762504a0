"""The thread-per-connection front end under chaos, WLM throttling, the
connection cap, a pile of idle TCP sessions, and a host out of threads."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import frontend as frontend_module
from repro.core.config import HyperQConfig
from repro.errors import ConnectionLimited
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
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


LAYOUT = Layout("L", [FieldDef("A", parse_type("varchar(20)"))])


def test_dropped_ack_recovered_by_session_restart():
    # The 7th server send is a DATA_ACK; dropping it kills the
    # data session mid-flight, exactly once — the client's
    # checkpoint/restart machinery recovers.
    profile = [{"point": "net.send", "at_call": 7, "max_fires": 1}]
    config = HyperQConfig(
        converters=2, filewriters=2, credits=8,
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
            layout=LAYOUT,
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


def test_throttled_tenants_all_complete():
    """Admission throttling sheds, the clients retry, every job lands."""
    config = HyperQConfig(
        converters=2, filewriters=1, credits=8,
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


def test_over_cap_connection_refused_typed():
    config = HyperQConfig(
        converters=1, filewriters=1, credits=4,
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


def test_many_idle_tcp_sessions_served():
    """A pile of idle sockets is admitted, a session opened last still
    gets served, and every slot comes back once the pile closes."""
    config = HyperQConfig(
        converters=1, filewriters=1, credits=4,
        metrics_enabled=False)
    listener = TcpListener()
    stack = make_node(config=config, listener=listener)
    idle = []
    try:
        for _ in range(100):
            idle.append(listener.connect())
        frontend = stack.node.frontend
        wait_until(lambda: frontend.connections.active == 100)

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


def test_failed_handler_start_refuses_and_keeps_accepting(monkeypatch):
    """A host out of threads sheds one connection with the typed
    retryable refusal, gives its slot back, and serves the next one."""
    stack = make_node(config=HyperQConfig(
        converters=1, filewriters=1, credits=4))
    fails = [1]

    class OutOfThreads(threading.Thread):
        def start(self):
            if fails[0]:
                fails[0] -= 1
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(frontend_module, "threading", SimpleNamespace(
        Thread=OutOfThreads, Lock=threading.Lock))
    try:
        frontend = stack.node.frontend
        refused = LegacyEtlClient(stack.node.connect, timeout=10)
        with pytest.raises(ConnectionLimited) as excinfo:
            refused.logon("h", "u", "pw")
        assert excinfo.value.code == 3159
        assert not fails[0]
        wait_until(lambda: frontend.connections.active == 0)
        assert stack.node.stats()["gateway"]["connections_refused"] == 1

        served = LegacyEtlClient(stack.node.connect, timeout=10)
        served.logon("h", "u", "pw")
        served.execute_sql("create table AFTER_T (A int not null)")
        served.logoff()
        wait_until(lambda: frontend.connections.active == 0)
    finally:
        stack.node.stop()
