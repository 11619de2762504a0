"""Figure 11 — Error handling performance.

Paper: elapsed time vs. error percentage: Hyper-Q (bulk + adaptive
splitting) vs a singleton-insert baseline.  Hyper-Q crushes the
baseline at 0%, jumps 0%->1% when splitting first triggers, degrades
smoothly, and still wins at 10%; the baseline is flat.  The paper's
0%->1% jump is the cost of recursive halving.  Hyper-Q's series runs
the default apply: a failed range costs one verdict pass, one INSERT of
its clean rows and one write per error table, so its DML statement
count is the same small constant at every error rate (gated), and
never more than ``2 x errors + 2``.  Series logic:
:mod:`repro.bench.figures` (which also asserts both systems load
identical rows).

Two legs gate the paper's splitter itself, on the halving reference
(``conftest.halving_reference``: every apply's handler is
``AdaptiveErrorHandler(locate=None)``; no configuration selects it):

- the range-scan leg: total apply time is sub-linear in the number of
  ranged DML statements, because each ``__SEQ BETWEEN`` range is a
  binary-searched slice of the sorted staging table, so the split
  cascade costs O(rows touched), not O(ranges x staging rows);
- the plan-cache leg: the splitter issues the same-shaped DML over and
  over with only the ``__SEQ`` range changed, so it runs almost
  entirely out of the prepared-plan cache.
"""

from __future__ import annotations

from conftest import bench_json, bench_scale, emit, halving_reference, scaled

from repro.bench import format_series
from repro.bench.figures import fig11_series
from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.core.config import HyperQConfig
from repro.workloads import make_workload

SCALE = bench_scale()
ROWS = scaled(4_000)


def range_scan_point(error_rate: float) -> dict:
    """Best-of-5 apply time and DML statement count at one error rate,
    on the halving reference."""
    config = HyperQConfig(converters=2, filewriters=2, credits=8)
    workload = make_workload(rows=ROWS, row_bytes=500, seed=42,
                             error_rate=error_rate)
    point = None
    for _ in range(5):
        with halving_reference(), build_stack(config) as stack:
            metrics = run_workload_through_hyperq(
                stack, workload, sessions=2, max_errors=10**9)
        if point is None or metrics.application_s < point["apply_s"]:
            point = {"ranges": metrics.dml_statements,
                     "apply_s": round(metrics.application_s, 4)}
    return point


def plan_cache_point() -> dict:
    """Prepared-plan cache hits and misses of one error-heavy job (5 %
    errors), on the halving reference."""
    workload = make_workload(rows=ROWS, row_bytes=500, seed=115,
                             error_rate=0.05)
    with halving_reference(), build_stack() as stack:
        run_workload_through_hyperq(
            stack, workload, sessions=2, max_errors=10**9)
        hits = stack.node.obs.plan_cache_hits.labels().value
        misses = stack.node.obs.plan_cache_misses.labels().value
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    return {"reference": "halving", "error_rate": 0.05, "rows": ROWS,
            "hits": hits, "misses": misses, "hit_rate": round(hit_rate, 4)}


def test_fig11_error_handling(benchmark, results_dir):
    # Every measurement is taken and written out before any gate is
    # checked, and the range-scan leg is checked last: a failure there
    # leaves the Hyper-Q series' gates and the recorded results intact.
    series = fig11_series(SCALE)
    low, high = range_scan_point(0.01), range_scan_point(0.10)
    range_growth = high["ranges"] / low["ranges"]
    apply_growth = high["apply_s"] / low["apply_s"]
    cache = plan_cache_point()

    text = format_series(
        f"Figure 11: error handling performance ({ROWS} rows)",
        series,
        note="expect: Hyper-Q much faster at 0%, the same few DML "
             "statements at every error rate (at most 2 per error + 2), "
             "baseline flat, Hyper-Q still ahead at 10%")
    text += (f"halving reference, range scans (1% -> 10% errors, best of "
             f"5): ranges "
             f"{low['ranges']} -> {high['ranges']} ({range_growth:.2f}x), "
             f"apply {low['apply_s']:.3f}s -> {high['apply_s']:.3f}s "
             f"({apply_growth:.2f}x)\n"
             f"halving reference, plan cache (5% errors): hit rate "
             f"{cache['hit_rate']:.4f}\n")
    emit(results_dir, "fig11_error_handling", text)
    bench_json("fig11", {
        "scale": SCALE, "series": series, "plan_cache": cache,
        "range_scan": {"reference": "halving", "rows": ROWS,
                       "low": {"error_rate": 0.01, **low},
                       "high": {"error_rate": 0.10, **high}},
    })

    benchmark.pedantic(
        fig11_series, args=(SCALE,), kwargs={"error_rates": (0.01,)},
        rounds=1, iterations=1)

    t = {row["error_pct"]: row for row in series}
    assert t["0%"]["hyperq_total_s"] < t["0%"]["baseline_total_s"] / 3, \
        "Hyper-Q should crush the baseline with clean data"
    assert t["10%"]["hyperq_total_s"] < t["10%"]["baseline_total_s"], \
        "Hyper-Q should still win at 10% errors"
    for row in series:
        assert row["hyperq_dml_stmts"] <= \
            2 * row["errors_recorded"] + 2, \
            f"the apply should cost at most two statements per " \
            f"error at {row['error_pct']} ({row['hyperq_dml_stmts']} " \
            f"statements, {row['errors_recorded']} errors)"
    dirty = {row["error_pct"]: row["hyperq_dml_stmts"] for row in series
             if row["error_pct"] in ("1%", "5%", "10%")}
    assert len(dirty) == 3 and len(set(dirty.values())) == 1 \
        and max(dirty.values()) <= 4, \
        f"a dirty load's apply should be the same few statements at " \
        f"every error rate (the verdict route): {dirty}"
    if ROWS >= 2_000:  # shape assertions need enough rows to be stable
        baseline_times = [row["baseline_total_s"] for row in series]
        assert max(baseline_times) < min(baseline_times) * 1.6, \
            "the baseline should be roughly flat in the error rate"

    # The adaptive splitter issues the same-shaped DML over and over with
    # only the __SEQ range changed, so the error-heavy point must run
    # almost entirely out of the prepared-plan cache (PR 3).
    assert cache["hit_rate"] > 0.95, \
        f"error handling should reuse prepared DML plans " \
        f"(hyperq_plan_cache hit rate {cache['hit_rate']:.4f})"

    assert apply_growth < 0.6 * range_growth, \
        f"apply time must be sub-linear in range count " \
        f"({apply_growth:.2f}x apply vs {range_growth:.2f}x ranges)"
