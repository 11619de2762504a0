"""Drift × data quality: rules on drifted columns stay exempt until
the feed's accepted layout actually carries the column.

A ``not_null`` rule on SRC_REGION is configured from the start, but
SRC_REGION only appears at the feed's ``add_at`` batch.  Batches before
the drift must pass the precheck untouched (the rule references a
column their layout does not have — routing them would be a false
positive); batches after it must route exactly the rows whose region
is NULL.  Verdicts are checked differentially against the pure-Python
``tests.dq.oracle.evaluate`` oracle and the generator's manifest.
"""

from repro.core.config import HyperQConfig
from repro.stream.feed import _ruleset_for_layout
from tests.dq.oracle import evaluate
from repro.dq.profile import DqProfile
from repro.stream import StreamRunner, StreamSession
from repro.workloads.streamgen import stream_workload

from tests.conftest import make_node

DQ_RULES = [
    {"rule_id": "region_required", "kind": "not_null",
     "column": "SRC_REGION"},
]


def _oracle_routed(workload):
    """Per-batch oracle verdicts over the decoded VARTEXT rows."""
    profile = DqProfile.from_profile(DQ_RULES)
    routed = {}
    for batch in workload.batches:
        ruleset = profile.resolve(target=workload.target_table)
        ruleset = _ruleset_for_layout(ruleset, batch.layout)
        if ruleset is None:
            routed[batch.seq] = set()
            continue
        names = batch.layout.field_names
        rows = {}
        for seq, line in enumerate(
                batch.data.decode("utf-8").splitlines(), start=1):
            values = line.split("|")
            rows[seq] = {
                name: (value or None)  # VARTEXT: empty field is NULL
                for name, value in zip(names, values)}
        routed[batch.seq] = evaluate(ruleset, rows).routed_seqs
    return routed


def test_drifted_column_rule_exempt_until_layout_matches(tmp_path):
    workload = stream_workload(batches=6, rows_per_batch=15, drift=True,
                               add_at=2, rename_at=6,
                               null_region_rate=0.3, seed=29,
                               feed="dqfeed")
    manifest = workload.manifest
    oracle = _oracle_routed(workload)
    # the scenario is only meaningful if drift actually splits the
    # verdicts: clean prefix, violations after the column appears
    assert all(not oracle[seq] for seq in range(manifest["add_at"]))
    assert any(oracle[seq] for seq in range(manifest["add_at"], 6))
    # the oracle and the generator's manifest agree row-by-row
    for seq, rownums in manifest["null_region_rows"].items():
        assert oracle[seq] == set(rownums)

    config = HyperQConfig(credits=8, dq_profile=DQ_RULES)
    with make_node(config=config) as stack:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed="dqfeed",
                                target_table=workload.target_table,
                                policy="evolve",
                                watermark_dir=str(tmp_path))
        with session:
            report = StreamRunner(session, workload).run()
        assert report.committed == 6
        expected_routed = sum(len(v) for v in oracle.values())
        assert report.dq_routed_rows == expected_routed
        assert report.et_errors == 0
        et = stack.engine.query(
            f"SELECT SEQNO, __RULE_ID FROM {workload.et_table}")
        assert len(et) == expected_routed
        assert {r[1] for r in et} == {"region_required"}
        # routed rows never reached the target; clean rows all did
        target = stack.engine.query(
            f"SELECT REC_ID, SRC_REGION FROM {workload.target_table}")
        assert len(target) == manifest["rows_total"] - expected_routed
        # post-drift survivors all carry a non-NULL region; the only
        # NULLs are the backfilled pre-drift rows
        nulls = [r for r in target if r[1] is None]
        assert len(nulls) == manifest["rows_before_add"]
