"""Kill + resume: dq routing stays exactly-once.

A dirty load fails at APPLY (a one-shot permanent ``dml.apply`` fault)
after the precheck has routed every violator out of the staging table
and journaled the ``dq_route`` records, then resumes under the same
``job_id``.  The resumed job skips its journaled COPY and runs the
precheck again over the staging table the abort kept — and the
journal's ``dq_route`` records must stop it from ever inserting a row
into the error table twice or double-counting
``hyperq_dq_routed_rows_total``.
"""

import os

import pytest

from repro.bench.harness import build_stack, run_workload_through_hyperq
from repro.core.config import HyperQConfig
from repro.errors import ReproError
from repro.legacy.client import ImportJobSpec, LegacyEtlClient
from repro.resilience import CheckpointJournal
from repro.workloads.generator import dirty_workload

from tests.conftest import make_node


def reference_outcome(dirty):
    """The single clean rules-on run every resume must reproduce."""
    config = HyperQConfig(dq_profile=dirty.dq_rules)
    with build_stack(config=config) as stack:
        for sql in dirty.setup_sql:
            stack.engine.execute(sql)
        run_workload_through_hyperq(
            stack, dirty.workload, sessions=1, chunk_bytes=2048)
        w = dirty.workload
        target = sorted(stack.engine.query(
            f"SELECT REC_ID, REC_NAME, AMOUNT FROM {w.target_table}"))
        et = sorted(stack.engine.query(
            f"SELECT SEQNO, __RULE_ID FROM {w.et_table}"))
        return target, et


def test_killed_and_resumed_load_routes_each_violator_once(tmp_path):
    dirty = dirty_workload(400, violation_rate=0.05, seed=41)
    expected_target, expected_et = reference_outcome(dirty)
    assert expected_et  # the workload must actually have violators

    config = HyperQConfig(
        converters=1, filewriters=1, credits=8,
        dq_profile=dirty.dq_rules, file_threshold_bytes=4096,
        chaos_profile=[{"point": "dml.apply", "at_call": 1,
                        "max_fires": 1, "error": "permanent"}])
    w = dirty.workload
    spec_kwargs = dict(
        target_table=w.target_table, et_table=w.et_table,
        uv_table=w.uv_table, layout=w.layout, apply_sql=w.apply_sql,
        data=w.data, format_spec=w.format_spec, sessions=1,
        chunk_bytes=2048, job_id="dqrestart",
        journal_path=str(tmp_path / "client.jsonl"))

    with make_node(config=config) as stack:
        for sql in dirty.setup_sql:
            stack.engine.execute(sql)
        client = LegacyEtlClient(stack.node.connect, timeout=15)
        client.logon("h", "u", "p")
        client.execute_sql(w.ddl)

        # Run 1: the precheck routes and journals every violator, then
        # the apply fails; the abort keeps staging table and journal.
        with pytest.raises(ReproError, match="injected"):
            client.run_import(ImportJobSpec(**spec_kwargs))
        with CheckpointJournal(os.path.join(
                stack.node._base_dir, "dqrestart",
                "checkpoint.jsonl")) as journal:
            assert journal.copy_rows is not None
            assert len(journal.dq_routed) == len(expected_et)

        # Run 2: same job_id, resume from both journals.
        client.run_import(ImportJobSpec(**spec_kwargs, resume=True))
        client.logoff()

        et = stack.engine.query(
            f"SELECT SEQNO, __RULE_ID FROM {w.et_table}")
        # exactly-once: no violator routed twice across the two runs
        assert len(et) == len(set(et))
        assert sorted(et) == expected_et

        # the resumed load converges on the clean-run end state
        target = sorted(stack.engine.query(
            f"SELECT REC_ID, REC_NAME, AMOUNT FROM {w.target_table}"))
        assert target == expected_target

        # the routed-rows counter covers each violator exactly once
        routed = stack.node.obs.registry.collect()[
            "hyperq_dq_routed_rows_total"]["samples"]
        assert routed[0]["value"] == len(expected_et)
        assert stack.node.stats()["resilience"]["faults_injected"] == 1
