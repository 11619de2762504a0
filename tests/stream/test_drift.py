"""Schema drift end-to-end: evolve, route-to-error, halt.

The scripted feed adds SRC_REGION at one batch and renames REC_NAME to
CUST_NAME at a later one (the generator's manifest is the ground
truth).  ``evolve`` must propagate both as ALTER TABLE + mapping
updates and land every row; ``route-to-error`` must stage drifted
batches untouched and route them wholesale to the error table while
still advancing the watermark; ``halt`` must reject the first drifted
batch and leave the watermark at the last clean one.
"""

import pytest

from repro.core.config import HyperQConfig
from repro.errors import HYPERQ_SCHEMA_DRIFT, ReproError
from repro.stream import StreamRunner, StreamSession
from repro.workloads.streamgen import stream_workload

from tests.conftest import make_node


def _workload(feed):
    return stream_workload(batches=6, rows_per_batch=10, drift=True,
                           add_at=2, rename_at=4, seed=17, feed=feed)


def test_evolve_alters_target_and_lands_every_row(tmp_path):
    workload = _workload("evofeed")
    manifest = workload.manifest
    with make_node(config=HyperQConfig(credits=8)) as stack:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed="evofeed",
                                target_table=workload.target_table,
                                policy="evolve",
                                watermark_dir=str(tmp_path))
        with session:
            report = StreamRunner(session, workload).run()
        assert report.committed == 6 and report.routed == 0
        # the drift trail matches the manifest's schedule exactly
        observed = [(seq, event["kind"], event["column"])
                    for seq, event in report.drift]
        expected = [(d["seq"], d["kind"], d["column"])
                    for d in manifest["drift"]]
        assert observed == expected
        # ALTERs propagated: the target now has the final schema
        table = stack.engine.table(workload.target_table)
        assert [c.name for c in table.columns] == \
            manifest["final_columns"]
        rows = stack.engine.query(
            f"SELECT REC_ID, SRC_REGION FROM {workload.target_table}")
        assert len(rows) == manifest["rows_total"]
        # pre-drift rows were NULL-backfilled for the added column
        backfilled = [r for r in rows if r[1] is None]
        assert len(backfilled) == manifest["rows_before_add"]
        drift_counter = stack.node.obs.registry.collect()[
            "hyperq_stream_drift_events_total"]["samples"]
        assert {s["labels"]["kind"]: s["value"]
                for s in drift_counter} == {"added": 1, "renamed": 1}


def test_route_to_error_quarantines_drifted_batches(tmp_path):
    workload = _workload("r2efeed")
    manifest = workload.manifest
    rows_per_batch = manifest["rows_per_batch"][0]
    with make_node(config=HyperQConfig(credits=8)) as stack:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed="r2efeed",
                                target_table=workload.target_table,
                                policy="route-to-error",
                                watermark_dir=str(tmp_path))
        session.open()
        report = StreamRunner(session, workload).run()
        # the watermark still advanced across the routed batches
        assert stack.node.stats()["streams"]["r2efeed"][
            "committed_seq"] == manifest["batches"] - 1
        session.close()
        # the feed's accepted layout never advances, so every batch
        # from add_at on is drifted and quarantined wholesale
        drifted = manifest["batches"] - manifest["add_at"]
        assert report.routed == drifted
        assert report.committed == manifest["batches"]
        # the target only holds the clean prefix, unchanged schema
        table = stack.engine.table(workload.target_table)
        assert "SRC_REGION" not in [c.name for c in table.columns]
        target = stack.engine.query(
            f"SELECT REC_ID FROM {workload.target_table}")
        assert len(target) == manifest["rows_before_add"]
        et = stack.engine.query(
            f"SELECT SEQNO, ERRCODE, __RULE_ID FROM {workload.et_table}")
        assert len(et) == drifted * rows_per_batch
        assert {r[1] for r in et} == {HYPERQ_SCHEMA_DRIFT}
        assert {r[2] for r in et} == {"schema_drift"}


def test_halt_rejects_drift_and_freezes_watermark(tmp_path):
    workload = _workload("haltfeed")
    manifest = workload.manifest
    with make_node(config=HyperQConfig(credits=8)) as stack:
        stack.engine.execute(workload.ddl)
        session = StreamSession(stack.node.connect, feed="haltfeed",
                                target_table=workload.target_table,
                                policy="halt",
                                watermark_dir=str(tmp_path))
        session.open()
        runner = StreamRunner(session, workload)
        with pytest.raises(ReproError, match="drift"):
            runner.run()
        # every batch before the drift committed; nothing after
        assert len(runner.results) == manifest["add_at"]
        target = stack.engine.query(
            f"SELECT REC_ID FROM {workload.target_table}")
        assert len(target) == manifest["rows_before_add"]
        assert stack.node.stats()["streams"]["haltfeed"][
            "committed_seq"] == manifest["add_at"] - 1


def test_evolve_recreates_the_warm_staging_table_exactly_once(tmp_path):
    """The feed's staging table follows the batch layout: the drifted
    batch drops and recreates it, the same-layout batch after it issues
    no DDL and finds the prepared DML of the batch before."""
    workload = stream_workload(batches=4, rows_per_batch=10, drift=True,
                               add_at=1, rename_at=3, seed=19,
                               feed="warmfeed")
    with make_node(config=HyperQConfig(credits=8)) as stack:
        stack.engine.execute(workload.ddl)
        counts = stack.engine.statement_counts
        plans = stack.node.beta.plans
        session = StreamSession(stack.node.connect, feed="warmfeed",
                                target_table=workload.target_table,
                                policy="evolve",
                                watermark_dir=str(tmp_path))
        session.open()
        runner = StreamRunner(session, workload)
        runner.run(batches=1)
        assert counts.get("DropTable", 0) == 0
        created = counts["CreateTable"]

        del workload.batches[:1]
        runner.run(batches=1)       # SRC_REGION added: new layout
        assert counts["DropTable"] == 1
        assert counts["CreateTable"] == created + 1
        staging = stack.engine.table("HQ_STG_FEED_warmfeed")
        assert "SRC_REGION" in [c.name for c in staging.columns]
        misses, hits = plans.misses, plans.hits

        del workload.batches[:1]
        report = runner.run(batches=1)      # same layout again
        assert report.committed == 1 and report.et_errors == 0
        assert counts["DropTable"] == 1
        assert counts["CreateTable"] == created + 1
        assert plans.misses == misses and plans.hits > hits
        session.close()
        assert counts["DropTable"] == 2     # feed close drops the table
