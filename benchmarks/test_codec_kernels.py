"""Codec kernel microbenchmarks — compiled vs reference (A/B, same process).

Two results in one module, both persisted to ``BENCH_codec.json`` at the
repo root (plus a human-readable table under ``benchmarks/results/``):

* micro: encode/decode rows-per-second for BINARY and VARTEXT, narrow and
  wide layouts, reference interpreters vs the layout-compiled codecs from
  :mod:`repro.legacy.codec`.  The reference classes are the unchanged
  pre-compilation code, so the in-process A/B *is* the before/after.
* plan cache: DML prepared-plan hit rate on an error-heavy load (the
  Figure 11 shape), read back through ``hyperq_plan_cache_*_total``.

Timing discipline: every measured callable gets a warmup pass, then the
best of ``REPEATS`` runs is kept — cold-start dominates single-shot
numbers and skews the ratios.  CI's perf-smoke job runs this module and
fails if a compiled path comes in slower than its reference.
"""

from __future__ import annotations

import datetime
import random
import time
from decimal import Decimal

import pytest

from conftest import bench_json, bench_scale, emit, scaled

from repro.bench import format_series
from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.legacy.codec import compile_format
from repro.legacy.datafmt import BinaryFormat, FormatSpec, VartextFormat
from repro.legacy.types import FieldDef, Layout, parse_type
from repro.workloads import make_workload

SCALE = bench_scale()
N_NARROW = scaled(12_000)
N_WIDE = scaled(4_000)
REPEATS = 5

#: Seed-commit numbers (commit 59595d8, before this PR), measured with the
#: same warmed best-of-5 discipline on the reference machine.  They anchor
#: the trajectory in BENCH_codec.json; the per-run "reference" column is
#: the same code re-measured on the current machine, so ratios computed
#: from it stay hardware-independent.
PRE_PR_BASELINE = {
    "commit": "59595d8",
    "micro_rows_per_s": {
        "binary_narrow": {"encode": 274_906, "decode": 244_821},
        "binary_wide": {"encode": 66_026, "decode": 40_403},
        "vartext_narrow": {"encode": 119_371, "decode": 123_415},
        "vartext_wide": {"encode": 56_171, "decode": 36_921},
    },
}

# accumulated by the tests, flushed once per module run
_RESULTS: dict = {"scale": SCALE, "repeats": REPEATS,
                  "baseline_pre_pr": PRE_PR_BASELINE}


@pytest.fixture(scope="module", autouse=True)
def _flush_bench_json():
    """Write BENCH_codec.json after the module's tests have run."""
    yield
    payload = dict(_RESULTS)
    headline = {}
    micro = payload.get("micro")
    if micro and "binary_narrow" in micro:
        headline["binary_narrow_decode_speedup_vs_reference"] = \
            micro["binary_narrow"]["decode"]["speedup"]
    plan = payload.get("plan_cache")
    if plan:
        headline["plan_cache_hit_rate"] = plan["hit_rate"]
    payload["headline"] = headline
    bench_json("codec", payload)


# -- layouts and data ---------------------------------------------------------

def _narrow_layout() -> Layout:
    return Layout("NARROW", [
        FieldDef("ID", parse_type("integer")),
        FieldDef("NAME", parse_type("varchar(24)")),
        FieldDef("AMOUNT", parse_type("float")),
        FieldDef("DAY", parse_type("date")),
    ])


def _wide_layout() -> Layout:
    kinds = ["integer", "varchar(16)", "float", "date", "bigint",
             "smallint", "decimal(12,2)", "timestamp"]
    return Layout("WIDE", [
        FieldDef(f"C{i}", parse_type(kinds[i % len(kinds)]))
        for i in range(16)
    ])


def _rows_for(layout: Layout, count: int, seed: int,
              null_rate: float = 0.05) -> list[tuple]:
    rng = random.Random(seed)
    day0 = datetime.date(2020, 1, 1)
    ts0 = datetime.datetime(2021, 1, 1)
    rows = []
    for _ in range(count):
        row = []
        for fld in layout.fields:
            if rng.random() < null_rate:
                row.append(None)
                continue
            base = fld.type.base
            if base == "INTEGER":
                row.append(rng.randrange(-10**6, 10**6))
            elif base == "BIGINT":
                row.append(rng.randrange(-2**40, 2**40))
            elif base == "SMALLINT":
                row.append(rng.randrange(-30_000, 30_000))
            elif base == "BYTEINT":
                row.append(rng.randrange(-100, 100))
            elif base == "FLOAT":
                row.append(rng.random() * 1e4)
            elif base == "DECIMAL":
                row.append(Decimal(rng.randrange(0, 10**8)) / 100)
            elif base == "DATE":
                row.append(day0 + datetime.timedelta(
                    days=rng.randrange(0, 2000)))
            elif base == "TIMESTAMP":
                row.append(ts0 + datetime.timedelta(
                    seconds=rng.randrange(0, 10**7)))
            else:
                row.append("".join(
                    rng.choice("abcdefgh")
                    for _ in range(rng.randrange(0, 12))))
        rows.append(tuple(row))
    return rows


def _best_of(fn, repeats: int = REPEATS) -> float:
    fn()  # warmup: first call pays allocation/caching costs
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


_CASES = [
    ("binary_narrow", "binary", _narrow_layout, N_NARROW),
    ("binary_wide", "binary", _wide_layout, N_WIDE),
    ("vartext_narrow", "vartext", _narrow_layout, N_NARROW),
    ("vartext_wide", "vartext", _wide_layout, N_WIDE),
]


def test_codec_micro(results_dir):
    table_rows = []
    micro: dict = {}
    for case, kind, layout_fn, count in _CASES:
        layout = layout_fn()
        spec = FormatSpec(kind=kind)
        if kind == "binary":
            reference = BinaryFormat(layout)
        else:
            reference = VartextFormat(layout, delimiter=spec.delimiter)
        compiled = compile_format(spec, layout)
        rows = _rows_for(layout, count, seed=hash(case) % 10_000)
        data = reference.encode_records(rows)
        assert compiled.encode_records(rows) == data
        assert list(compiled.iter_decode(data)) == \
            list(reference.iter_decode(data))

        case_result: dict = {}
        for op, ref_fn, fast_fn in [
            ("encode",
             lambda f=reference: f.encode_records(rows),
             lambda f=compiled: f.encode_records(rows)),
            ("decode",
             lambda f=reference: list(f.iter_decode(data)),
             lambda f=compiled: list(f.iter_decode(data))),
        ]:
            ref_rps = count / _best_of(ref_fn)
            fast_rps = count / _best_of(fast_fn)
            speedup = fast_rps / ref_rps
            case_result[op] = {
                "reference_rows_per_s": round(ref_rps),
                "compiled_rows_per_s": round(fast_rps),
                "speedup": round(speedup, 2),
            }
            table_rows.append({
                "case": case, "op": op, "rows": count,
                "reference_r/s": round(ref_rps),
                "compiled_r/s": round(fast_rps),
                "speedup": f"{speedup:.2f}x",
            })
            assert speedup >= 1.0, \
                f"{case} {op}: compiled path slower than reference " \
                f"({fast_rps:.0f} vs {ref_rps:.0f} rows/s)"
        micro[case] = case_result

    _RESULTS["micro"] = micro
    text = format_series(
        "Codec kernels: compiled vs reference (warmed best-of-"
        f"{REPEATS})", table_rows,
        note="reference = pre-PR interpreters (unchanged in-tree code)")
    emit(results_dir, "codec_kernels", text)

    assert micro["binary_narrow"]["decode"]["speedup"] >= 2.0, \
        "headline: compiled BINARY decode must be >= 2x the reference"


def test_plan_cache_hit_rate(results_dir):
    workload = make_workload(rows=scaled(4_000), row_bytes=500, seed=72,
                             error_rate=0.05)
    with build_stack() as stack:
        run_workload_through_hyperq(
            stack, workload, sessions=2, max_errors=10**9)
        stats = stack.node.stats()["plan_cache"]["dml"]
        hits = stack.node.obs.plan_cache_hits.labels().value
        misses = stack.node.obs.plan_cache_misses.labels().value
    assert hits == stats["hits"] and misses == stats["misses"], \
        "hyperq_plan_cache_*_total must mirror the cache's own counters"
    _RESULTS["plan_cache"] = {
        "workload": {"rows": workload.rows, "error_rate": 0.05},
        "hits": stats["hits"], "misses": stats["misses"],
        "evictions": stats["evictions"], "hit_rate": stats["hit_rate"],
    }
    emit(results_dir, "codec_plan_cache", format_series(
        "DML prepared-plan cache on an error-heavy load",
        [_RESULTS["plan_cache"]["workload"] | {
            "hits": stats["hits"], "misses": stats["misses"],
            "hit_rate": stats["hit_rate"]}]))
    assert stats["hit_rate"] > 0.95, \
        "adaptive splitting should hit the prepared-plan cache >95%"
