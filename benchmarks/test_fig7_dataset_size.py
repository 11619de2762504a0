"""Figure 7 — Performance with different dataset sizes.

Paper: total job time grows sub-linearly in dataset size; most time is
the data-acquisition phase, then the application phase, and "other"
(startup/teardown) is small and size-independent.  At 4x rows the
acquisition phase grew 340% and the application phase 270%.

The compiled row codecs cut per-row conversion several-fold, which for
a while left the application phase the larger one; since the apply's
INSERT … SELECT runs on column buffers, acquisition is again most of
the job, as in the paper's Figure 7.  Phases of a few tenths of a
second are too noisy for growth-ratio gates at this scale.  This test
asserts the stable shape (time grows with size, startup/teardown stays
small); the strict sub-linearity claim is cross-checked
deterministically at the paper's true scale in
``test_fig7_paper_scale_sim.py``.

The series logic lives in :mod:`repro.bench.figures` (also reachable via
``python -m repro figures``); this benchmark adds the expected-shape
assertions and the timed headline run.  See
``test_fig7_paper_scale_sim.py`` for the sub-linearity cross-check at
the paper's true scale.
"""

from __future__ import annotations

from conftest import bench_json, bench_scale, emit

from repro.bench import format_series
from repro.bench.figures import fig7_series

SCALE = bench_scale()


def test_fig7_dataset_size(benchmark, results_dir):
    series = fig7_series(SCALE)
    text = format_series(
        f"Figure 7: performance with dataset size "
        f"(base {series[0]['rows']} rows ~= paper's 25M)",
        series,
        note=("expect: total grows with rows; 'other' flat and small; "
              "acquisition the larger phase"))
    emit(results_dir, "fig7_dataset_size", text)
    bench_json("fig7", {"scale": SCALE, "series": series})

    totals = [row["total_s"] for row in series]
    assert totals == sorted(totals), \
        "job time must grow with dataset size"
    four_x = series[-1]
    assert four_x["other_s"] < 0.25 * four_x["total_s"], \
        "'other' (startup/teardown) should be comparatively small"

    benchmark.pedantic(
        fig7_series, args=(SCALE,), kwargs={"multipliers": (1,)},
        rounds=1, iterations=1)
