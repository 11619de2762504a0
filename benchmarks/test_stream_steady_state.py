"""Continuous ingestion steady state: per-batch overhead and drift.

A long feed of micro-batches must stay close to one-shot batch-load
throughput (the protocol replays BEGIN_LOAD → acquire → APPLY per
batch, so the gate bounds the per-cycle overhead) and must not degrade
as the watermark journal accumulates history — compaction at every
commit boundary keeps the journal O(state), so late batches must be as
fast as early ones.  The feed runs ``FEEDS`` times and the degradation
gate reads the median of the runs' ratios, so one noisy feed on a
shared host cannot trip it on its own.
"""

from __future__ import annotations

import statistics
import time

from conftest import bench_json, bench_scale, emit, scaled

from repro.bench import format_series
from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.core.config import HyperQConfig
from repro.stream import StreamRunner, StreamSession
from repro.workloads.generator import make_workload
from repro.workloads.streamgen import stream_workload

SCALE = bench_scale()
#: the journal-growth gate needs a long feed; never below 50 batches.
BATCHES = max(int(50 * SCALE), 50)
#: big enough that the per-cycle protocol cost amortizes — the ratio
#: gate measures overhead at ETL-realistic batch sizes, not the fixed
#: floor of a near-empty cycle.
ROWS_PER_BATCH = max(scaled(2_000) // 2, 1_000)
ROW_BYTES = 120
#: feeds run per measurement (the degradation gate reads their median).
FEEDS = 3


def _p95(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def run_stream() -> dict:
    workload = stream_workload(
        batches=BATCHES, rows_per_batch=ROWS_PER_BATCH, drift=False,
        row_bytes=ROW_BYTES, seed=61, feed="bench_feed")
    with build_stack(config=HyperQConfig(credits=16)) as stack:
        stack.engine.execute(workload.ddl)
        with StreamSession(stack.node.connect, feed="bench_feed",
                           target_table=workload.target_table,
                           sessions=2) as session:
            report = StreamRunner(session, workload).run()
        rows = stack.engine.query(
            f"SELECT COUNT(*) FROM {workload.target_table}")[0][0]
    assert report.committed == BATCHES
    assert rows == workload.rows_total
    return {"report": report, "rows": rows}


def degradation_of(report) -> float:
    """Last-10 over first-10 batch-latency p95 of one feed."""
    return _p95(report.latencies_s[-10:]) / \
        max(_p95(report.latencies_s[:10]), 1e-9)


def run_oneshot() -> dict:
    workload = make_workload(BATCHES * ROWS_PER_BATCH,
                             row_bytes=ROW_BYTES, seed=61)
    with build_stack(config=HyperQConfig(credits=16)) as stack:
        started = time.perf_counter()
        run_workload_through_hyperq(stack, workload, sessions=2)
        elapsed = time.perf_counter() - started
    return {"rows": workload.rows, "elapsed_s": elapsed,
            "rows_per_s": workload.rows / elapsed}


def test_stream_throughput_and_journal_growth(benchmark, results_dir):
    streams = [run_stream() for _ in range(FEEDS)]
    stream = min(streams, key=lambda s: s["report"].elapsed_s)
    oneshots = [run_oneshot() for _ in range(2)]
    oneshot = min(oneshots, key=lambda o: o["elapsed_s"])

    report = stream["report"]
    stream_rps = report.rows_per_second
    first10_p95 = _p95(report.latencies_s[:10])
    last10_p95 = _p95(report.latencies_s[-10:])
    degradations = [degradation_of(s["report"]) for s in streams]
    degradation = statistics.median(degradations)

    series = [{
        "mode": "stream",
        "batches": BATCHES,
        "rows": stream["rows"],
        "elapsed_s": round(report.elapsed_s, 4),
        "rows_per_s": round(stream_rps, 1),
        "p95_first10_ms": round(first10_p95 * 1000, 3),
        "p95_last10_ms": round(last10_p95 * 1000, 3),
    }, {
        "mode": "one-shot",
        "batches": 1,
        "rows": oneshot["rows"],
        "elapsed_s": round(oneshot["elapsed_s"], 4),
        "rows_per_s": round(oneshot["rows_per_s"], 1),
        "p95_first10_ms": None,
        "p95_last10_ms": None,
    }]
    text = format_series(
        f"Stream steady state ({BATCHES} batches x {ROWS_PER_BATCH} "
        f"rows)",
        series,
        note="expect: micro-batching keeps >=0.7x one-shot "
             "throughput, and last-10 p95 stays within 1.2x first-10 "
             "(journal compaction keeps cycles O(state))")
    text += (f"last-10/first-10 p95, median of {FEEDS} feeds: "
             f"{degradation:.2f}x (runs: "
             f"{', '.join(f'{d:.2f}x' for d in degradations)})\n")
    emit(results_dir, "stream_steady_state", text)

    # -- gate 1: per-batch protocol overhead is bounded --
    ratio = stream_rps / oneshot["rows_per_s"]
    assert ratio >= 0.7, \
        f"stream throughput fell to {ratio:.2f}x of one-shot " \
        f"({stream_rps:.0f} vs {oneshot['rows_per_s']:.0f} rows/s)"

    # -- gate 2: no degradation across the feed's lifetime (median of
    # the feeds' ratios) --
    assert degradation <= 1.2, \
        f"late batches degraded to a median {degradation:.2f}x early " \
        f"p95 (runs: {', '.join(f'{d:.2f}x' for d in degradations)})"

    bench_json("stream", {
        "scale": SCALE,
        "batches": BATCHES,
        "rows_per_batch": ROWS_PER_BATCH,
        "series": series,
        "throughput_ratio": round(ratio, 3),
        "p95_degradation": round(degradation, 3),
        "p95_degradation_runs": [round(d, 3) for d in degradations],
        "latency_p50_s": round(report.latency_p(0.50), 6),
        "latency_p95_s": round(report.latency_p(0.95), 6),
    })

    small = stream_workload(batches=5, rows_per_batch=50, drift=False,
                            row_bytes=ROW_BYTES, seed=62,
                            feed="bench_small")

    def one_small_feed():
        with build_stack(config=HyperQConfig(credits=16)) as stack:
            stack.engine.execute(small.ddl)
            with StreamSession(stack.node.connect, feed="bench_small",
                               target_table=small.target_table
                               ) as session:
                StreamRunner(session, small).run()

    benchmark.pedantic(one_small_feed, rounds=1, iterations=1)
