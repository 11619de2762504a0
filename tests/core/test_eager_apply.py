"""Eager-apply equivalence: pipelining must be invisible to semantics.

The acceptance property of ``HyperQConfig.eager_apply``: the same job
run with eager apply on and off — fault-free or under the example chaos
profile — produces row-for-row identical target, ET, and UV tables, the
same client-side checkpoint journal, and the same APPLY_RESULT counts.
The only observable differences are timing: a recorded
``overlap_s`` and the per-range ``eager.*`` spans.  The eager stages
are lanes of the job's pipeline on the node's one worker pool, so the
equivalence holds on both front ends and an eager job starts no thread.
"""

import json
import os
import threading
import time

import pytest

from repro.core.beta import ApplyRun
from repro.core.config import HyperQConfig
from repro.errors import ProtocolError
from repro.legacy.client import (
    ImportJobSpec, LegacyEtlClient, _layout_to_wire, split_into_chunks,
)
from repro.legacy.datafmt import FormatSpec
from repro.legacy.protocol import Message, MessageKind
from repro.legacy.types import FieldDef, Layout, parse_type

from tests.conftest import make_node
from tests.resilience.test_chaos_e2e import (
    run_customer_job, table_rows, wait_until,
)

EXAMPLE_CHAOS = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples",
    "chaos_profile.json")

TABLES = ("PROD.CUSTOMER", "PROD.CUSTOMER_ET", "PROD.CUSTOMER_UV")


def _config(**overrides) -> HyperQConfig:
    base = dict(converters=2, filewriters=2, credits=8,
                file_threshold_bytes=256)
    base.update(overrides)
    return HyperQConfig(**base)


def _begin(control, job_id, **extra):
    """Raw BEGIN_LOAD of a one-column vartext job into ``R``."""
    control.request(Message(MessageKind.BEGIN_LOAD, {
        "job_id": job_id, "target": "R",
        "et_table": "R_ET", "uv_table": "R_UV",
        "layout": _layout_to_wire(R_LAYOUT),
        "format": FormatSpec("vartext", "|").to_wire(),
        "sessions": 1, **extra,
    }), MessageKind.BEGIN_LOAD_OK)


def _send_chunks(client, job_id, chunks):
    data = client._open_data_session(job_id, 0)
    for seq, chunk in enumerate(chunks):
        data.request(Message(
            MessageKind.DATA,
            {"job_id": job_id, "session_no": 0, "seq": seq},
            body=chunk), MessageKind.DATA_ACK)
    data.close()


R_LAYOUT = Layout("L", [FieldDef("A", parse_type("varchar(40)"))])
R_SQL = "insert into R values (:A)"
R_DATA = "".join(f"row-{i:04d}-{'x' * 24}\n" for i in range(24)).encode()


def _run(config):
    with make_node(config=config) as stack:
        result = run_customer_job(stack)
        rows = {t: table_rows(stack, t) for t in TABLES}
        metrics = stack.node.completed_jobs[-1]
    return result, rows, metrics


class TestEagerEquivalence:
    async_frontend = False

    def config(self, **overrides) -> HyperQConfig:
        return _config(async_frontend=self.async_frontend, **overrides)

    def test_clean_run_matches_two_phase(self):
        base_result, base_rows, base_metrics = _run(self.config())
        eager_result, eager_rows, eager_metrics = _run(
            self.config(eager_apply=True))
        assert eager_rows == base_rows
        assert eager_result.rows_inserted == base_result.rows_inserted
        assert eager_result.et_errors == base_result.et_errors == 2
        assert eager_result.uv_errors == base_result.uv_errors == 4
        assert base_metrics.overlap_s == 0.0
        assert eager_metrics.overlap_s >= 0.0

    def test_chaos_profile_run_matches_two_phase(self):
        with open(EXAMPLE_CHAOS, "r", encoding="utf-8") as handle:
            chaos = json.load(handle)
        _, base_rows, _ = _run(self.config())
        _, eager_rows, _ = _run(self.config(
            eager_apply=True, chaos_profile=chaos,
            retry_base_delay_s=0.001, retry_max_delay_s=0.01))
        assert eager_rows == base_rows

    def test_client_checkpoint_journals_identical(self, tmp_path):
        """Acquisition-side durability is mode-independent: the client
        journals the same acked chunk set either way."""
        journals = {}
        for mode in (False, True):
            path = tmp_path / f"client-{mode}.jsonl"
            with make_node(config=self.config(eager_apply=mode)) as stack:
                client = LegacyEtlClient(stack.node.connect, timeout=15)
                client.logon("h", "u", "p")
                client.execute_sql(
                    "create table R (A varchar(20) not null, "
                    "unique (A))")
                client.run_import(ImportJobSpec(
                    target_table="R", et_table="R_ET",
                    uv_table="R_UV",
                    layout=Layout("L", [
                        FieldDef("A", parse_type("varchar(20)"))]),
                    apply_sql="insert into R values (:A)",
                    data="".join(f"row-{i:04d}\n"
                                 for i in range(40)).encode(),
                    sessions=1, chunk_bytes=64,
                    journal_path=str(path)))
                client.logoff()
            with open(path, "r", encoding="utf-8") as handle:
                journals[mode] = sorted(handle.read().splitlines())
        assert journals[True] == journals[False]

    def test_eager_records_overlap_and_range_spans(self):
        config = self.config(eager_apply=True, trace_enabled=True)
        with make_node(config=config) as stack:
            run_customer_job(stack)
            names = [r["name"] for r in stack.node.obs.tracer.records()]
            assert "eager.copy" in names
            assert "eager.apply_range" in names
            samples = stack.node.obs.registry.collect()[
                "hyperq_apply_overlap_seconds"]["samples"]
            assert samples and samples[0]["count"] == 1
            assert samples[0]["sum"] >= 0.0

    def test_apply_sql_mismatch_rejected(self):
        """Eager apply already ran the DML announced at BEGIN_LOAD; a
        different APPLY statement must fail loudly, not silently load
        the wrong thing."""
        with make_node(config=self.config(eager_apply=True)) as stack:
            client = LegacyEtlClient(stack.node.connect, timeout=15)
            client.logon("h", "u", "p")
            client.execute_sql("create table R (A varchar(20))")
            client.execute_sql("create table R2 (A varchar(20))")
            control = client._require_control()
            layout = Layout("L", [
                FieldDef("A", parse_type("varchar(20)"))])
            control.request(Message(MessageKind.BEGIN_LOAD, {
                "job_id": "mismatch", "target": "R",
                "et_table": "R_ET", "uv_table": "R_UV",
                "layout": _layout_to_wire(layout),
                "format": FormatSpec("vartext", "|").to_wire(),
                "sessions": 1,
                "apply_sql": "insert into R values (:A)",
            }), MessageKind.BEGIN_LOAD_OK)
            with pytest.raises(ProtocolError,
                               match="differs from the DML announced"):
                control.request(Message(MessageKind.APPLY_DML, {
                    "job_id": "mismatch",
                    "sql": "insert into R2 values (:A)",
                }), MessageKind.APPLY_RESULT)


class TestEagerEquivalenceAsync(TestEagerEquivalence):
    """Every case above on the async front end."""

    async_frontend = True


class TestEagerResume:
    def test_resumed_eager_job_stays_exactly_once(self, tmp_path):
        """Kill an eager load mid-data and resume it: already-copied
        blobs and already-applied prefixes replay from the journal, and
        the final table is exactly-once."""
        from repro.errors import TransportClosed
        config = _config(
            converters=1, filewriters=1, file_threshold_bytes=16,
            eager_apply=True,
            chaos_profile=[{"point": "net.send", "at_call": 12,
                            "max_fires": 1}])
        data = "".join(
            f"row-{i:04d}-{'x' * 24}\n" for i in range(24)).encode()
        spec_kwargs = dict(
            target_table="R", et_table="R_ET", uv_table="R_UV",
            layout=Layout("L", [
                FieldDef("A", parse_type("varchar(40)"))]),
            apply_sql="insert into R values (:A)", data=data,
            sessions=1, chunk_bytes=16, job_id="eagerrestart",
            journal_path=str(tmp_path / "client.jsonl"))

        with make_node(config=config) as stack:
            client = LegacyEtlClient(stack.node.connect, timeout=15)
            client.logon("h", "u", "p")
            client.execute_sql(
                "create table R (A varchar(40) not null, unique (A))")
            with pytest.raises(TransportClosed):
                client.run_import(ImportJobSpec(**spec_kwargs))
            # Unlike the two-phase restart, run 1 may already have
            # applied a prefix into R before dying — those rows stay
            # (the engine survives) and the journal's watermark keeps
            # the resumed run from re-applying them.  The gateway's
            # applier outlives the client transport briefly, so wait
            # for the background apply to quiesce before snapshotting.
            applied_in_run1 = stack.engine.query(
                "SELECT COUNT(*) FROM R")[0][0]
            deadline = time.monotonic() + 10.0
            stable_since = time.monotonic()
            while time.monotonic() < deadline:
                time.sleep(0.05)
                count = stack.engine.query(
                    "SELECT COUNT(*) FROM R")[0][0]
                if count != applied_in_run1:
                    applied_in_run1 = count
                    stable_since = time.monotonic()
                elif time.monotonic() - stable_since >= 0.5:
                    break
            result = client.run_import(ImportJobSpec(
                **spec_kwargs, resume=True))
            client.logoff()
            assert result.uv_errors == 0  # nothing double-applied
            assert result.et_errors == 0
            assert result.rows_inserted == 24 - applied_in_run1
            assert stack.engine.query("SELECT COUNT(*) FROM R") == \
                [(24,)]
            assert stack.engine.query(
                "SELECT COUNT(DISTINCT A) FROM R") == [(24,)]

    def test_resume_without_apply_sql_is_refused(self):
        """A resume that does not announce its DML would run two-phase:
        re-COPY every blob into the staging table that kept the eager
        copies and re-apply the prefix already in the target.  The
        gateway refuses it with a typed error and changes nothing."""
        config = _config(converters=1, filewriters=1,
                         file_threshold_bytes=16, eager_apply=True)
        tables = ("R", "R_ET", "R_UV")
        with make_node(config=config) as stack:
            client = LegacyEtlClient(stack.node.connect, timeout=15)
            client.logon("h", "u", "p")
            client.execute_sql(
                "create table R (A varchar(40) not null, unique (A))")
            control = client._require_control()
            _begin(control, "twice", apply_sql=R_SQL)
            _send_chunks(client, "twice", split_into_chunks(
                R_DATA, FormatSpec("vartext", "|"), 16))
            wait_until(lambda: stack.engine.query(
                "SELECT COUNT(*) FROM R")[0][0] > 0)
            control.request(
                Message(MessageKind.END_LOAD,
                        {"job_id": "twice", "abort": True}),
                MessageKind.END_LOAD_OK)
            before = {t: table_rows(stack, t) for t in tables}
            assert before["R"]

            with pytest.raises(ProtocolError,
                               match="was running eager apply"):
                _begin(control, "twice", resume=True)
            assert {t: table_rows(stack, t) for t in tables} == before
            assert stack.node.stats()["active_jobs"] == 0
            client.logoff()


class TestEagerTeardown:
    def test_end_load_without_apply_stops_eager_threads(self):
        """BEGIN_LOAD → DATA → END_LOAD with no APPLY in between: the
        copier/applier must be joined before END_LOAD closes the journal
        and drops the staging table, and the admission slot freed."""
        from repro.legacy.client import _layout_to_wire
        from repro.legacy.datafmt import FormatSpec
        from repro.legacy.protocol import Message, MessageKind
        config = _config(eager_apply=True, wlm_profile={"pools": [
            {"name": "only", "weight": 1, "max_concurrency": 1,
             "queue_limit": 0, "queue_timeout_s": 1.0, "match": {}}]})
        layout = Layout("L", [FieldDef("A", parse_type("varchar(20)"))])
        with make_node(config=config) as stack:
            client = LegacyEtlClient(stack.node.connect, timeout=15)
            client.logon("h", "u", "p")
            client.execute_sql("create table R (A varchar(20))")
            control = client._require_control()
            control.request(Message(MessageKind.BEGIN_LOAD, {
                "job_id": "noapply", "target": "R",
                "et_table": "R_ET", "uv_table": "R_UV",
                "layout": _layout_to_wire(layout),
                "format": FormatSpec("vartext", "|").to_wire(),
                "sessions": 1,
                "apply_sql": "insert into R values (:A)",
            }), MessageKind.BEGIN_LOAD_OK)
            data = client._open_data_session("noapply", 0)
            data.request(Message(
                MessageKind.DATA,
                {"job_id": "noapply", "session_no": 0, "seq": 0},
                body=b"a\nb\n"), MessageKind.DATA_ACK)
            data.close()
            control.request(
                Message(MessageKind.END_LOAD, {"job_id": "noapply"}),
                MessageKind.END_LOAD_OK)
            assert [t.name for t in threading.enumerate()
                    if t.name.startswith("hyperq-job-noapply-eager")] == []
            pool = stack.node.stats()["wlm"]["pools"]["only"]
            assert pool["occupied_slots"] == 0
            client.logoff()

    def test_abort_waits_for_the_range_in_flight(self, monkeypatch):
        """END_LOAD(abort) while an apply range is blocked mid-DML: the
        abort waits for it, the range journals its watermark before the
        journal closes (no write-after-close), and a resume applies
        nothing twice."""
        entered, release = threading.Event(), threading.Event()
        apply_seq_range = ApplyRun.apply_seq_range

        def blocked_apply(run, lo_seq, hi_seq):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=10)
            apply_seq_range(run, lo_seq, hi_seq)

        monkeypatch.setattr(ApplyRun, "apply_seq_range", blocked_apply)
        config = _config(converters=1, filewriters=1,
                         file_threshold_bytes=16, eager_apply=True)
        with make_node(config=config) as stack:
            client = LegacyEtlClient(stack.node.connect, timeout=15)
            client.logon("h", "u", "p")
            client.execute_sql(
                "create table R (A varchar(40) not null, unique (A))")
            control = client._require_control()
            _begin(control, "inflight", apply_sql=R_SQL)
            eager = stack.node._jobs["inflight"].pipeline.eager
            _send_chunks(client, "inflight", split_into_chunks(
                R_DATA, FormatSpec("vartext", "|"), 16))
            assert entered.wait(timeout=10)

            aborted = threading.Thread(target=control.request, args=(
                Message(MessageKind.END_LOAD,
                        {"job_id": "inflight", "abort": True}),
                MessageKind.END_LOAD_OK))
            aborted.start()
            wait_until(lambda: eager._stopped)
            assert aborted.is_alive()     # held by the range in flight
            release.set()
            aborted.join(timeout=30)
            assert not aborted.is_alive()

            assert eager._failures == []
            path = os.path.join(stack.node._base_dir, "inflight",
                                "checkpoint.jsonl")
            with open(path, "r", encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle]
            advances = [r["below_chunk"] for r in records
                        if r["t"] == "eager_apply"]
            assert advances and advances[-1] >= 1
            applied = stack.engine.query("SELECT COUNT(*) FROM R")[0][0]
            assert applied > 0

            result = client.run_import(ImportJobSpec(
                target_table="R", et_table="R_ET", uv_table="R_UV",
                layout=R_LAYOUT, apply_sql=R_SQL, data=R_DATA,
                sessions=1, chunk_bytes=16, job_id="inflight",
                resume=True))
            client.logoff()
            assert result.uv_errors == 0
            assert result.et_errors == 0
            assert result.rows_inserted == 24 - applied
            assert stack.engine.query(
                "SELECT COUNT(DISTINCT A) FROM R") == [(24,)]
