"""End-to-end precheck equivalence through the full gateway.

The acceptance bar for ``repro.dq``: rules-on must be *equivalent* to
rules-off on final state — the target receives the same rows and the
same client row numbers are rejected.  The precheck merely moves each
rejection from the adaptive apply path (recursive splits landing rows
in ET/UV, Figure 11) to one set-oriented pass before APPLY.

The dirty workload mix deliberately excludes ``referential``: FK
orphans apply cleanly with rules off (the CDW does not enforce FKs), so
they are the one kind the precheck rejects that application would not.
"""

import json

from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.core.config import HyperQConfig
from repro.errors import HYPERQ_DQ_VIOLATION
from repro.workloads.generator import dirty_workload

#: every kind that also fails during application with rules off.
EQUIV_MIX = {"not_null": 1, "range": 1, "regex": 1, "unique": 1}


def make_dirty(rows=1200, rate=0.03, seed=31, mix=EQUIV_MIX):
    return dirty_workload(rows, violation_rate=rate, seed=seed, mix=mix)


def run_job(dirty, *, rules=False, chunk_bytes=16 * 1024):
    """One full gateway run; returns everything the assertions need."""
    config = HyperQConfig(dq_profile=dirty.dq_rules if rules else None)
    with build_stack(config=config) as stack:
        for sql in dirty.setup_sql:
            stack.engine.execute(sql)
        metrics = run_workload_through_hyperq(
            stack, dirty.workload, chunk_bytes=chunk_bytes)
        w = dirty.workload
        target = sorted(stack.engine.query(
            f"SELECT REC_ID, REC_NAME, AMOUNT, REGION "
            f"FROM {w.target_table}"))
        et = stack.engine.query(
            f"SELECT SEQNO, ERRCODE, __RULE_ID FROM {w.et_table}")
        uv = stack.engine.query(f"SELECT SEQNO FROM {w.uv_table}")
        return {
            "metrics": metrics,
            "target": target,
            "et": et,
            "rejected": {r[0] for r in et} | {r[0] for r in uv},
            "stats": stack.node.stats(),
            "prom": stack.node.obs.registry.collect(),
        }


def assert_equivalent(off, on):
    """Rules-on and rules-off runs agree on every visible end state."""
    assert on["target"] == off["target"]
    assert on["rejected"] == off["rejected"]


class TestEquivalence:
    def test_two_phase_rules_on_matches_rules_off(self):
        dirty = make_dirty()
        off = run_job(dirty, rules=False)
        on = run_job(dirty, rules=True)
        assert_equivalent(off, on)
        # something was actually rejected; with rules off the verdict
        # route found every bad row (NOT NULL, DATE cast, INT cast,
        # unique) without a split, and with rules on the precheck
        # caught all of it first
        assert off["rejected"]
        assert off["metrics"].chunk_retries == 0
        assert on["metrics"].chunk_retries == 0
        # dq-routed rows carry provenance; apply-path rows do not
        dq_rows = [r for r in on["et"] if r[2] is not None]
        assert {r[1] for r in dq_rows} == {HYPERQ_DQ_VIOLATION}
        assert len(dq_rows) == on["metrics"].dq_routed_rows


class TestObservability:
    def test_metrics_stats_and_prom_counters(self):
        dirty = make_dirty(rows=800, rate=0.04, seed=13)
        on = run_job(dirty, rules=True)
        m = on["metrics"]
        assert m.dq_checked == 800
        assert m.dq_routed_rows == len(on["rejected"]) > 0
        assert m.dq_violations >= m.dq_routed_rows

        dq = on["stats"]["dq"]
        assert dq["enabled"]
        assert dq["jobs_checked"] == 1
        assert dq["checked"] == 800
        assert dq["routed_rows"] == m.dq_routed_rows
        assert sum(dq["violations"].values()) == m.dq_violations
        (job,) = dq["jobs"]
        assert job["routed_rows"] == m.dq_routed_rows
        # snapshots serialize (they feed /stats and flight bundles)
        json.dumps(dq)

        checked = on["prom"]["hyperq_dq_checked_total"]["samples"]
        assert checked[0]["value"] == 800
        routed = on["prom"]["hyperq_dq_routed_rows_total"]["samples"]
        assert routed[0]["value"] == m.dq_routed_rows
        by_rule = {
            s["labels"]["rule"]: s["value"]
            for s in on["prom"]["hyperq_dq_violations_total"]["samples"]}
        assert sum(by_rule.values()) == m.dq_violations

    def test_clean_load_routes_nothing(self):
        dirty = make_dirty(rows=400, rate=0.0)
        on = run_job(dirty, rules=True)
        assert on["rejected"] == set()
        assert on["metrics"].dq_checked == 400
        assert on["metrics"].dq_routed_rows == 0
        assert on["target"] and len(on["target"]) == 400
