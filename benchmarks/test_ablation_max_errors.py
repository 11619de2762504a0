"""Ablation — the max_errors / max_retries limits (Section 7).

"For datasets containing multiple errors, using these parameters
prevents the adaptive error handling from spending a lot of time finding
each error.  Instead, it reports ranges of tuples that cannot be
transformed correctly."  We load an error-heavy dataset under different
max_errors budgets and watch time-to-complete fall as the budget
tightens (at the cost of coarser error reporting).

The paper's series runs on the halving reference
(``conftest.halving_reference``): its splitter is what the budget cuts.
The production series runs the default apply, whose verdict route takes
any budget in the failed statement plus one clean INSERT, and must
report exactly what the reference reports at each budget.
"""

from __future__ import annotations

from conftest import emit, halving_reference, scaled

from repro.bench import format_series, run_import_workload
from repro.core import HyperQConfig
from repro.workloads import make_workload

ROWS = scaled(3_000)
BUDGETS = (1_000_000, 50, 10, 1)


def _run_point(max_errors: int):
    workload = make_workload(rows=ROWS, row_bytes=200, seed=54,
                             error_rate=0.08)
    return run_import_workload(
        workload,
        config=HyperQConfig(converters=4, filewriters=2, credits=32),
        sessions=2, chunk_bytes=64 * 1024,
        max_errors=max_errors)


def _point(budget: int, metrics) -> dict:
    return {
        "max_errors": budget,
        "application_s": metrics.application_s,
        "dml_statements": metrics.dml_statements,
        "et_errors": metrics.et_errors,
        "uv_errors": metrics.uv_errors,
        "individual+range_errors": metrics.et_errors + metrics.uv_errors,
        "rows_loaded": metrics.rows_inserted,
    }


def test_ablation_max_errors(benchmark, results_dir):
    series = []
    for budget in BUDGETS:
        with halving_reference():
            series.append(_point(budget, _run_point(budget)))
    production = [_point(budget, _run_point(budget)) for budget in BUDGETS]
    text = format_series(
        f"Ablation: max_errors budget on an 8%-error load ({ROWS} rows), "
        f"halving reference",
        series,
        note="expect: tighter budgets => fewer DML statements and lower "
             "application time, coarser error reports")
    text += format_series(
        f"Ablation: max_errors budget on an 8%-error load ({ROWS} rows), "
        f"verdict route (default apply)",
        production,
        note="expect: at most 2 DML statements at every budget, the "
             "reference's error reports and rows loaded")
    emit(results_dir, "ablation_max_errors", text)

    assert series[-1]["dml_statements"] < series[0]["dml_statements"], \
        "a tight budget must cut the number of chunk retries"
    assert series[-1]["application_s"] <= series[0]["application_s"], \
        "a tight budget must not be slower than exhaustive splitting"

    for reference, point in zip(series, production):
        assert point["dml_statements"] <= 2, \
            f"the verdict route should take any budget in 2 statements " \
            f"({point['dml_statements']} at {point['max_errors']})"
        outcome = ("et_errors", "uv_errors", "rows_loaded")
        assert [point[k] for k in outcome] == \
            [reference[k] for k in outcome], \
            f"the verdict route must report what halving reports at " \
            f"budget {point['max_errors']}"

    benchmark.pedantic(_run_point, args=(50,), rounds=1, iterations=1)
