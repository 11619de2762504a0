"""Gateway concurrency: session burst scaling + idle-session ceiling.

The thread-per-connection front end is measured on the two workload
shapes a gateway sees besides steady load:

1. **Session bursts.**  Legacy schedulers start ETL windows by firing
   every feed at once.  The burst must clear the kernel accept queue
   and the scheduler without collapsing: the listener's deep backlog
   queues the whole storm while the accept thread works through it, so
   throughput holds from 8 to 64 feeds and a 256-feed burst survives.
2. **Idle session piles.**  ETL estates hold thousands of connections
   open between batch windows.  Each idle session costs one blocked
   handler thread; its memory must stay bounded and the node must keep
   serving new work underneath the pile.

The benchmark runs burst workloads over real localhost sockets and
writes ``BENCH_concurrency.json``: the sessions x throughput curve
(1/8/64/256), the p95/median per-session fairness ratio, and the
idle-session footprint.  The gated 8- and 64-feed points run
``REPEATS`` times each and every gate reads the median of those runs —
one noisy burst on a shared host cannot trip a gate on its own.
"""

from __future__ import annotations

import statistics
import threading
import time

from conftest import bench_json, emit, scaled

from repro.bench import format_series
from repro.bench.harness import build_stack
from repro.core.config import HyperQConfig
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.net_tcp import TcpListener
from repro.workloads.generator import make_workload

#: tiny jobs: the burst benchmark stresses the *front end* (accept,
#: framing, scheduling), so per-job work is kept near the protocol
#: floor — each feed is one control + one data session.
ROWS = max(scaled(80) // 25, 40)
ROW_BYTES = 64
CHUNK_BYTES = 4096
IDLE_SESSIONS = 2000
#: runs of each gated burst point (the gates compare medians).
REPEATS = 3
GATED_SESSIONS = (8, 64)

GATES = {
    #: p95/median per-session completion ratio may grow at most this
    #: much from 8 to 64 concurrent feeds (the honest near-flat gate on
    #: a box where absolute latency must rise with load).
    "max_fairness_growth_8_to_64": 2.0,
    #: resident-set cost per idle session (client + server side of each
    #: socket, and the server's handler thread, live in this process).
    "max_idle_kb_per_session": 64.0,
}


def _config() -> HyperQConfig:
    return HyperQConfig(
        converters=1, filewriters=1, credits=256,
        metrics_enabled=False)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_burst(sessions: int) -> dict:
    """``sessions`` feeds connect and load simultaneously (reconnect
    storm); returns throughput + per-session completion spread."""
    listener = TcpListener()
    stack = build_stack(config=_config(), listener=listener)
    workloads = [
        make_workload(ROWS, row_bytes=ROW_BYTES, seed=3 + i,
                      table=f"PROD.T{i}", name=f"feed{i}")
        for i in range(sessions)]
    try:
        for workload in workloads:
            stack.engine.execute(workload.ddl)
        barrier = threading.Barrier(sessions + 1)
        times: list[float | None] = [None] * sessions
        failures: list[BaseException] = []

        def run_feed(index: int, workload) -> None:
            try:
                barrier.wait()
                started = time.perf_counter()
                client = LegacyEtlClient(listener.connect, timeout=120)
                client.logon("h", "etl", "pw")
                result = client.run_import(ImportJobSpec(
                    target_table=workload.target_table,
                    et_table=workload.et_table,
                    uv_table=workload.uv_table,
                    layout=workload.layout,
                    apply_sql=workload.apply_sql,
                    data=workload.data,
                    sessions=1, chunk_bytes=CHUNK_BYTES))
                client.logoff()
                assert result.rows_inserted == \
                    workload.expected_good_rows
                times[index] = time.perf_counter() - started
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [
            threading.Thread(target=run_feed, args=(i, w), daemon=True)
            for i, w in enumerate(workloads)]
        for thread in threads:
            thread.start()
        barrier.wait()
        wall_started = time.perf_counter()
        for thread in threads:
            thread.join(timeout=300)
        wall_s = time.perf_counter() - wall_started
        assert not failures, failures[0]
        assert all(t is not None for t in times)
        done = [t for t in times if t is not None]
        return {
            "sessions": sessions,
            "wall_s": round(wall_s, 4),
            "jobs_per_s": round(sessions / wall_s, 2),
            "median_s": round(_percentile(done, 0.5), 4),
            "p95_s": round(_percentile(done, 0.95), 4),
        }
    finally:
        stack.node.stop()


def _vm_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS not found")  # pragma: no cover


def run_idle() -> dict:
    """Open IDLE_SESSIONS sockets against the node and measure what
    they cost: RSS, threads, and whether the node still serves work
    instantly underneath the pile."""
    listener = TcpListener()
    stack = build_stack(config=_config(), listener=listener)
    idle = []
    try:
        frontend = stack.node.frontend
        threads_before = threading.active_count()
        rss_before = _vm_rss_kb()
        for _ in range(IDLE_SESSIONS):
            idle.append(listener.connect())
        deadline = time.monotonic() + 60
        while frontend.connections.active < IDLE_SESSIONS:
            assert time.monotonic() < deadline, \
                f"only {frontend.connections.active} sessions admitted"
            time.sleep(0.05)
        rss_after = _vm_rss_kb()
        threads_after = threading.active_count()

        # Liveness under the pile: a fresh feed still completes.
        workload = make_workload(ROWS, row_bytes=ROW_BYTES, seed=997,
                                 table="PROD.UNDERPILE")
        stack.engine.execute(workload.ddl)
        started = time.perf_counter()
        client = LegacyEtlClient(listener.connect, timeout=60)
        client.logon("h", "etl", "pw")
        result = client.run_import(ImportJobSpec(
            target_table=workload.target_table,
            et_table=workload.et_table,
            uv_table=workload.uv_table,
            layout=workload.layout,
            apply_sql=workload.apply_sql,
            data=workload.data, sessions=1,
            chunk_bytes=CHUNK_BYTES))
        client.logoff()
        assert result.rows_inserted == workload.expected_good_rows
        load_under_pile_s = time.perf_counter() - started

        delta_kb = max(rss_after - rss_before, 0)
        return {
            "idle_sessions": IDLE_SESSIONS,
            "rss_delta_kb": delta_kb,
            "kb_per_session": round(delta_kb / IDLE_SESSIONS, 2),
            "threads_added": threads_after - threads_before,
            "load_under_pile_s": round(load_under_pile_s, 4),
        }
    finally:
        for endpoint in idle:
            endpoint.close_both()
        stack.node.stop()


def fairness(row: dict) -> float:
    """p95/median per-session completion ratio of one burst."""
    return row["p95_s"] / max(row["median_s"], 1e-9)


def median_row(runs: list[dict]) -> dict:
    """One curve point from repeated bursts: the per-field median, plus
    the median fairness ratio of the runs."""
    row = {"sessions": runs[0]["sessions"], "runs": len(runs)}
    for key in ("wall_s", "jobs_per_s", "median_s", "p95_s"):
        row[key] = round(statistics.median(r[key] for r in runs), 4)
    row["fairness"] = round(statistics.median(map(fairness, runs)), 2)
    return row


def test_concurrency(results_dir):
    runs: dict[int, list[dict]] = {}
    for sessions in (1, 8, 64, 256):
        repeats = REPEATS if sessions in GATED_SESSIONS else 1
        runs[sessions] = [run_burst(sessions) for _ in range(repeats)]
    idle = run_idle()

    curve = [median_row(points) for points in runs.values()]
    by_n = {row["sessions"]: row for row in curve}
    fairness_growth = round(by_n[64]["fairness"] / by_n[8]["fairness"], 2)

    emit(results_dir, "concurrency", "\n\n".join([
        format_series("threaded front end, burst arrival "
                      "(median of runs)", curve),
        f"fairness growth 8->64: {fairness_growth}x\n"
        f"idle: {idle['idle_sessions']} sessions, "
        f"{idle['kb_per_session']} KiB/session, "
        f"+{idle['threads_added']} threads, "
        f"load under pile {idle['load_under_pile_s']}s"]))

    bench_json("concurrency", {
        "rows_per_feed": ROWS,
        "repeats": REPEATS,
        "sessions_curve": curve,
        "fairness_p95_over_median": {
            "at_8": by_n[8]["fairness"],
            "at_64": by_n[64]["fairness"],
            "growth_8_to_64": fairness_growth,
        },
        "idle": idle,
        "gates": GATES,
    })

    # -- gates, all on the medians of the repeated points ---------------
    assert fairness_growth <= GATES["max_fairness_growth_8_to_64"], \
        f"p95/median grew {fairness_growth}x from 8 to 64 sessions"
    assert idle["kb_per_session"] <= GATES["max_idle_kb_per_session"]
    # Scaling shape: throughput at 64 must not be below its 8-session
    # throughput (near-linear), and it must survive 256.
    assert by_n[64]["jobs_per_s"] >= 0.8 * by_n[8]["jobs_per_s"]
    assert by_n[256]["jobs_per_s"] > 0
