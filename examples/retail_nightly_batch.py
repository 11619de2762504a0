"""The Section 8 case study, scaled down: a retailer's nightly batch.

The paper's customer runs 127 batch groups under a strict SLA (start
after midnight, finish by 6 a.m.), with dependencies controlling the
execution order.  This example builds a scaled version of that nightly
batch — sales, inventory, and finance pipelines per region, feeding
consolidated reporting tables — as ordinary legacy job scripts, resolves
the dependency DAG topologically, runs every group through one Hyper-Q
node, and reports the per-group phase breakdown plus the (scaled) SLA
verdict.

Run:  python examples/retail_nightly_batch.py
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cdw import CdwEngine, CloudStore
from repro.core import HyperQConfig, HyperQNode
from repro.legacy.script import ScriptInterpreter, parse_script

REGIONS = ["NORTH", "SOUTH", "EAST", "WEST"]
ROWS_PER_REGION = 400
SLA_SECONDS = 60.0  # scaled stand-in for the midnight-to-6am window


@dataclass
class BatchGroup:
    """One batch group: a job script plus its upstream dependencies."""

    name: str
    script: str
    input_files: dict[str, bytes] = field(default_factory=dict)
    depends_on: list[str] = field(default_factory=list)


def sales_file(region: str, seed: int) -> bytes:
    rng = random.Random(seed)
    lines = []
    for i in range(ROWS_PER_REGION):
        store_no = rng.randrange(40)
        amount = rng.randrange(100, 99999) / 100
        day = rng.randrange(28) + 1
        lines.append(
            f"{region}-{i:05d}|{store_no:03d}|2026-06-{day:02d}|{amount}")
    return ("\n".join(lines) + "\n").encode()


def sales_group(region: str, seed: int) -> BatchGroup:
    script = f"""
.logon cdw/batch,secret;
create table STG_SALES_{region} (
    TXN_ID varchar(14) not null,
    STORE_NO integer,
    SALE_DATE date,
    AMOUNT decimal(10,2),
    unique (TXN_ID));
.layout SalesLayout;
.field TXN_ID varchar(14);
.field STORE_NO varchar(4);
.field SALE_DATE varchar(10);
.field AMOUNT varchar(12);
.begin import tables STG_SALES_{region}
    errortables STG_SALES_{region}_ET STG_SALES_{region}_UV sessions 2;
.dml label Ins;
insert into STG_SALES_{region} values (
    trim(:TXN_ID), cast(:STORE_NO as integer),
    cast(:SALE_DATE as DATE format 'YYYY-MM-DD'),
    cast(:AMOUNT as decimal(10,2)) );
.import infile sales_{region}.txt format vartext '|'
    layout SalesLayout apply Ins;
.end load;
.logoff;
"""
    return BatchGroup(
        name=f"LOAD_SALES_{region}",
        script=script,
        input_files={f"sales_{region}.txt": sales_file(region, seed)},
    )


def consolidate_group() -> BatchGroup:
    """Depends on every regional load; pure in-warehouse SQL."""
    unions = []
    for region in REGIONS:
        unions.append(
            f"insert into DAILY_SALES "
            f"select '{region}', STORE_NO, SALE_DATE, AMOUNT "
            f"from STG_SALES_{region};")
    script = (
        ".logon cdw/batch,secret;\n"
        "create table DAILY_SALES (REGION varchar(6), STORE_NO integer, "
        "SALE_DATE date, AMOUNT decimal(10,2));\n"
        + "\n".join(unions) + "\n.logoff;\n")
    return BatchGroup(
        name="CONSOLIDATE_SALES",
        script=script,
        depends_on=[f"LOAD_SALES_{r}" for r in REGIONS],
    )


def reporting_group() -> BatchGroup:
    script = """
.logon cdw/batch,secret;
create table STORE_TOTALS (STORE_NO integer, TOTAL decimal(14,2));
insert into STORE_TOTALS
    select STORE_NO, SUM(AMOUNT) from DAILY_SALES group by STORE_NO;
.begin export sessions 2;
.export outfile store_totals.txt format vartext '|';
select STORE_NO, TOTAL from STORE_TOTALS order by STORE_NO;
.end export;
.logoff;
"""
    return BatchGroup(
        name="REPORT_STORE_TOTALS",
        script=script,
        depends_on=["CONSOLIDATE_SALES"],
    )


def topological_order(groups: list[BatchGroup]) -> list[BatchGroup]:
    by_name = {g.name: g for g in groups}
    done: list[str] = []
    visiting: set[str] = set()

    def visit(name: str) -> None:
        if name in done:
            return
        if name in visiting:
            raise ValueError(f"dependency cycle through {name}")
        visiting.add(name)
        for dep in by_name[name].depends_on:
            visit(dep)
        visiting.discard(name)
        done.append(name)

    for group in groups:
        visit(group.name)
    return [by_name[name] for name in done]


def main():
    rng_seed = 2026
    groups = [sales_group(region, rng_seed + i)
              for i, region in enumerate(REGIONS)]
    groups.append(consolidate_group())
    groups.append(reporting_group())

    store = CloudStore()
    engine = CdwEngine(store=store)
    config = HyperQConfig(converters=4, filewriters=2, credits=16)

    import time
    with HyperQNode(engine, store, config) as node:
        batch_start = time.perf_counter()
        print(f"Nightly batch: {len(groups)} groups "
              f"(paper's customer: 127), SLA {SLA_SECONDS:.0f}s scaled\n")
        print(f"{'group':24s} {'rows':>6s} {'errors':>6s} "
              f"{'acq_ms':>8s} {'app_ms':>8s}")
        shared_files: dict[str, bytes] = {}
        for group in topological_order(groups):
            files = dict(group.input_files)
            files.update(shared_files)
            interpreter = ScriptInterpreter(node.connect, files=files)
            before = len(node.completed_jobs)
            result = interpreter.run(parse_script(group.script))
            rows = sum(i.rows_inserted for i in result.imports)
            rows += sum(s.activity_count for s in result.statements
                        if not s.is_result_set)
            errors = sum(i.total_errors for i in result.imports)
            job_metrics = list(node.completed_jobs)[before:]
            acq = sum(m.acquisition_s for m in job_metrics) * 1000
            app = sum(m.application_s for m in job_metrics) * 1000
            print(f"{group.name:24s} {rows:6d} {errors:6d} "
                  f"{acq:8.1f} {app:8.1f}")
            shared_files.update(interpreter.files)

        elapsed = time.perf_counter() - batch_start
        verdict = "MET" if elapsed <= SLA_SECONDS else "MISSED"
        print(f"\nBatch wall time: {elapsed:.2f}s — SLA {verdict}")

        totals = engine.query(
            "SELECT COUNT(*), SUM(TOTAL) FROM STORE_TOTALS")
        print(f"Reporting table: {totals[0][0]} stores, "
              f"grand total {totals[0][1]}")
        exported = shared_files.get("store_totals.txt", b"")
        print(f"Exported report file: {len(exported)} bytes, first line: "
              f"{exported.decode().splitlines()[0] if exported else '-'}")


if __name__ == "__main__":
    main()
