"""Figure 11 — Error handling performance.

Paper: elapsed time vs. error percentage: Hyper-Q (bulk + adaptive
splitting) vs a singleton-insert baseline.  Hyper-Q crushes the
baseline at 0%, jumps 0%->1% when splitting first triggers, degrades
smoothly, and still wins at 10%; the baseline is flat.  The paper's
0%->1% jump is the cost of recursive halving: with located apply a
failed range costs one locate pass plus one statement per bad row and
one per clean segment between them, so the gate here is that statement
count (at most ``2 x errors + 2``), not a jump.  Series logic:
:mod:`repro.bench.figures` (which also asserts both systems load
identical rows).

The range-scan leg gates why the splitter's cost stays bounded: total
apply time is sub-linear in the number of ranged DML statements, because
each ``__SEQ BETWEEN`` range is a binary-searched slice of the sorted
staging table, so the split cascade costs O(rows touched), not
O(ranges x staging rows).
"""

from __future__ import annotations

from conftest import bench_json, bench_scale, emit, scaled

from repro.bench import format_series
from repro.bench.figures import fig11_series
from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.core.config import HyperQConfig
from repro.workloads import make_workload

SCALE = bench_scale()
ROWS = scaled(4_000)


def range_scan_point(error_rate: float) -> dict:
    """Best-of-5 apply time and DML statement count at one error rate."""
    config = HyperQConfig(converters=2, filewriters=2, credits=8)
    workload = make_workload(rows=ROWS, row_bytes=500, seed=42,
                             error_rate=error_rate)
    point = None
    for _ in range(5):
        with build_stack(config) as stack:
            metrics = run_workload_through_hyperq(
                stack, workload, sessions=2, max_errors=10**9)
        if point is None or metrics.application_s < point["apply_s"]:
            point = {"ranges": metrics.dml_statements,
                     "apply_s": round(metrics.application_s, 4)}
    return point


def test_fig11_error_handling(benchmark, results_dir):
    series = fig11_series(SCALE)
    text = format_series(
        f"Figure 11: error handling performance ({ROWS} rows)",
        series,
        note="expect: Hyper-Q much faster at 0%, at most 2 DML "
             "statements per error (+2), baseline flat, Hyper-Q still "
             "ahead at 10%")

    low, high = range_scan_point(0.01), range_scan_point(0.10)
    range_growth = high["ranges"] / low["ranges"]
    apply_growth = high["apply_s"] / low["apply_s"]
    text += (f"range scans (1% -> 10% errors, best of 5): ranges "
             f"{low['ranges']} -> {high['ranges']} ({range_growth:.2f}x), "
             f"apply {low['apply_s']:.3f}s -> {high['apply_s']:.3f}s "
             f"({apply_growth:.2f}x)\n")
    emit(results_dir, "fig11_error_handling", text)
    assert apply_growth < 0.6 * range_growth, \
        f"apply time must be sub-linear in range count " \
        f"({apply_growth:.2f}x apply vs {range_growth:.2f}x ranges)"

    t = {row["error_pct"]: row for row in series}
    assert t["0%"]["hyperq_total_s"] < t["0%"]["baseline_total_s"] / 3, \
        "Hyper-Q should crush the baseline with clean data"
    assert t["10%"]["hyperq_total_s"] < t["10%"]["baseline_total_s"], \
        "Hyper-Q should still win at 10% errors"
    for row in series:
        assert row["hyperq_dml_stmts"] <= \
            2 * row["errors_recorded"] + 2, \
            f"located apply should cost at most two statements per " \
            f"error at {row['error_pct']} ({row['hyperq_dml_stmts']} " \
            f"statements, {row['errors_recorded']} errors)"
    if ROWS >= 2_000:  # shape assertions need enough rows to be stable
        baseline_times = [row["baseline_total_s"] for row in series]
        assert max(baseline_times) < min(baseline_times) * 1.6, \
            "the baseline should be roughly flat in the error rate"

    # The adaptive splitter issues the same-shaped DML over and over with
    # only the __SEQ range changed, so the error-heavy point must run
    # almost entirely out of the prepared-plan cache (PR 3).
    workload = make_workload(rows=ROWS, row_bytes=500, seed=115,
                             error_rate=0.05)
    with build_stack() as stack:
        run_workload_through_hyperq(
            stack, workload, sessions=2, max_errors=10**9)
        hits = stack.node.obs.plan_cache_hits.labels().value
        misses = stack.node.obs.plan_cache_misses.labels().value
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    assert hit_rate > 0.95, \
        f"error handling should reuse prepared DML plans " \
        f"(hyperq_plan_cache hit rate {hit_rate:.4f})"

    bench_json("fig11", {
        "scale": SCALE, "series": series,
        "plan_cache": {"error_rate": 0.05, "rows": ROWS,
                       "hits": hits, "misses": misses,
                       "hit_rate": round(hit_rate, 4)},
    })

    benchmark.pedantic(
        fig11_series, args=(SCALE,), kwargs={"error_rates": (0.01,)},
        rounds=1, iterations=1)
