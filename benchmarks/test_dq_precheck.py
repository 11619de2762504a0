"""DQ precheck vs adaptive apply-time error handling.

One set-oriented precheck pass routes a dirty workload's violators
before APPLY ever runs.  With rules off, Beta's located apply finds the
same rows from the DML's own IR, so neither run halves a range (zero
split retries rules-off); rules-on must still apply no slower than
rules-off — while ending in exactly the same final state (same target
rows, same rejected client row numbers across ET ∪ UV).
"""

from __future__ import annotations

from conftest import bench_json, bench_scale, emit, scaled

from repro.bench import format_series
from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.core.config import HyperQConfig
from repro.workloads.generator import dirty_workload

SCALE = bench_scale()
ROWS = scaled(6_000)
#: ~1% dirty, apply-visible kinds only (FK orphans apply cleanly, so
#: including them would break the rules-off equivalence baseline).
RATE = 0.01
MIX = {"not_null": 1, "range": 1, "regex": 1, "unique": 1}


def run_once(dirty, rules: bool) -> dict:
    # Guard the kinds this feed can actually violate; the generator's
    # referential rule would add a members + parents pass per job for a
    # violation the mix never injects.
    profile = [r for r in dirty.dq_rules if r["kind"] in MIX]
    config = HyperQConfig(dq_profile=profile if rules else None)
    with build_stack(config=config) as stack:
        for sql in dirty.setup_sql:
            stack.engine.execute(sql)
        # ETL-sized chunks (the paper's intermediate files are MBs):
        # each violating row poisons a wide seq range, so the split
        # cascade re-applies large slices — the cost rules-on avoids.
        metrics = run_workload_through_hyperq(
            stack, dirty.workload, sessions=2, chunk_bytes=256 * 1024)
        w = dirty.workload
        target = sorted(stack.engine.query(
            f"SELECT REC_ID, REC_NAME, AMOUNT, REGION "
            f"FROM {w.target_table}"))
        rejected = {r[0] for r in stack.engine.query(
            f"SELECT SEQNO FROM {w.et_table}")}
        rejected |= {r[0] for r in stack.engine.query(
            f"SELECT SEQNO FROM {w.uv_table}")}
    return {
        "apply_s": metrics.application_s,
        "total_s": metrics.total_s,
        "chunk_retries": metrics.chunk_retries,
        "dml_statements": metrics.dml_statements,
        "dq_routed_rows": metrics.dq_routed_rows,
        "target": target,
        "rejected": rejected,
    }


def best_of(dirty, rules: bool, reps: int = 2) -> dict:
    """Re-run the deterministic job and keep the fastest apply — the
    standard noise damper for wall-clock gates on shared runners."""
    runs = [run_once(dirty, rules) for _ in range(reps)]
    for r in runs[1:]:     # determinism across repetitions
        assert r["target"] == runs[0]["target"]
        assert r["rejected"] == runs[0]["rejected"]
    return min(runs, key=lambda r: r["apply_s"])


def test_dq_precheck_beats_adaptive_splitting(benchmark, results_dir):
    dirty = dirty_workload(ROWS, violation_rate=RATE, seed=47, mix=MIX)
    off = best_of(dirty, rules=False)
    on = best_of(dirty, rules=True)

    series = [{
        "mode": mode,
        "apply_s": round(r["apply_s"], 4),
        "total_s": round(r["total_s"], 4),
        "split_retries": r["chunk_retries"],
        "dml_statements": r["dml_statements"],
        "rejected_rows": len(r["rejected"]),
    } for mode, r in (("rules-off", off), ("rules-on", on))]
    text = format_series(
        f"DQ precheck vs Fig-11 splitting ({ROWS} rows, "
        f"{RATE:.0%} dirty)",
        series,
        note="expect: no split retries rules-off (located apply), "
             "rules-on apply no slower than rules-off, identical final "
             "state")
    emit(results_dir, "dq_precheck", text)

    # -- equivalence: the precheck must not change the outcome --
    assert on["target"] == off["target"]
    assert on["rejected"] == off["rejected"]
    assert off["rejected"], "the workload must actually be dirty"
    assert on["dq_routed_rows"] == len(on["rejected"])

    # -- the perf gates --
    assert off["chunk_retries"] == 0, \
        f"located apply should route rules-off violators without " \
        f"splitting ({off['chunk_retries']} split retries)"
    speedup = off["apply_s"] / max(on["apply_s"], 1e-9)
    assert on["apply_s"] <= off["apply_s"], \
        f"precheck should not slow apply down " \
        f"(rules-on {on['apply_s']:.4f}s vs rules-off " \
        f"{off['apply_s']:.4f}s)"

    bench_json("dq", {
        "scale": SCALE, "rows": ROWS, "violation_rate": RATE,
        "series": series,
        "apply_speedup": round(speedup, 3),
        "split_retry_ratio": round(
            off["chunk_retries"] / max(on["chunk_retries"], 1), 2),
    })

    small = dirty_workload(
        max(ROWS // 10, 200), violation_rate=RATE, seed=48, mix=MIX)
    benchmark.pedantic(
        run_once, args=(small, True), rounds=1, iterations=1)
