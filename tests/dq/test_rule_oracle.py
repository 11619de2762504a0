"""Differential suite: compiled SQL precheck vs pure-Python oracle.

Randomized dirty staging tables are checked twice — once through
:class:`repro.dq.DqPrechecker` (the compiled aggregated-CASE counts
pass, per-rule routing passes, and set-oriented unique/referential
passes, all executed by the CDW engine) and once through the tuple-at-
a-time oracle in ``tests/dq/oracle.py``.  The two must agree *exactly*
on ``{rule_id: failed_count}`` and on the set of routed ``__SEQ`` s,
for every seed.
"""

import random

import pytest

from repro.cdw.cloudstore import CloudStore
from repro.cdw.engine import CdwEngine
from repro.dq import DqPrechecker, DqProfile
from tests.dq.oracle import evaluate
from repro.errors import HYPERQ_DQ_VIOLATION
from repro.legacy.types import FieldDef, Layout, parse_type

REGIONS = ("AA", "BB", "CC", "DD")

RULES = [
    {"rule_id": "name_required", "kind": "not_null", "column": "NAME"},
    {"rule_id": "amt_range", "kind": "range", "column": "AMT",
     "min": "100", "max": "899"},
    {"rule_id": "code_digits", "kind": "regex", "column": "CODE",
     "pattern": "^[0-9]+$"},
    {"rule_id": "region_set", "kind": "in_set", "column": "REGION",
     "values": list(REGIONS)},
    {"rule_id": "key_unique", "kind": "unique", "columns": ["K"]},
    {"rule_id": "region_fk", "kind": "referential", "column": "REGION",
     "parent_table": "DIM", "parent_column": "CODE"},
    {"rule_id": "k_prefix", "kind": "sql", "predicate": "K LIKE 'K%'"},
]

LAYOUT = Layout("dirty", [
    FieldDef(name, parse_type("varchar(20)"))
    for name in ("K", "NAME", "AMT", "CODE", "REGION")
])

#: parents deliberately exclude one staged region value ("DD" rows
#: violate the FK while still passing the in_set rule's larger set).
PARENT_VALUES = ("AA", "BB", "CC")


def random_rows(rng, n):
    """seq -> staging row dict, with every corruption kind mixed in."""
    rows = {}
    for seq in range(n):
        row = {
            "K": f"K{seq:05d}",
            "NAME": f"name-{seq}",
            "AMT": str(rng.randrange(100, 900)),
            "CODE": str(rng.randrange(10, 10_000)),
            "REGION": REGIONS[rng.randrange(len(REGIONS))],
        }
        # several independent corruption rolls: rows may violate any
        # number of rules at once (the counts-vs-routing distinction).
        if rng.random() < 0.08:
            row["NAME"] = None
        if rng.random() < 0.08:
            row["AMT"] = str(rng.choice(["050", "900", "999", "099"]))
        if rng.random() < 0.08:
            row["CODE"] = rng.choice(["x19", "12x45", "", "ab"]) or None
        if rng.random() < 0.08:
            row["REGION"] = rng.choice(["ZZ", "DD", "EE"])
        if rng.random() < 0.08 and seq > 0:
            row["K"] = f"K{rng.randrange(seq):05d}"
        if rng.random() < 0.04:
            row["K"] = rng.choice(["Q-odd", None])
        rows[seq] = row
    return rows


def build_engine(rows):
    engine = CdwEngine(store=CloudStore())
    engine.execute("CREATE TABLE STG (K NVARCHAR, NAME NVARCHAR, "
                   "AMT NVARCHAR, CODE NVARCHAR, REGION NVARCHAR, "
                   "__SEQ BIGINT)")
    table = engine.table("STG")
    table.rows = [
        (r["K"], r["NAME"], r["AMT"], r["CODE"], r["REGION"], seq)
        for seq, r in sorted(rows.items())]
    engine.execute("CREATE TABLE DIM (CODE NVARCHAR)")
    engine.table("DIM").rows = [(v,) for v in PARENT_VALUES]
    engine.execute("CREATE TABLE ET (SEQNO INT, ERRCODE INT, "
                   "ERRFIELD NVARCHAR(128), ERRMSG NVARCHAR(512), "
                   "__RULE_ID NVARCHAR(64), __REASON NVARCHAR(256))")
    return engine


def make_prechecker(engine, rows):
    ruleset = DqProfile.from_profile(RULES).resolve(target="T")
    checker = DqPrechecker(
        ruleset=ruleset, engine=engine, staging_table="STG",
        et_table="ET", target_table="T", layout=LAYOUT,
        seq_stride=1 << 20, job_id="diff")
    # one giant chunk: rownum == seq + 1
    checker.update_chunks({0: len(rows)})
    return ruleset, checker


def oracle_verdict(ruleset, rows):
    return evaluate(
        ruleset, rows,
        parent_values={"region_fk": set(PARENT_VALUES)},
        predicates={"k_prefix": lambda r: None if r["K"] is None
                    else r["K"].startswith("K")})


@pytest.mark.parametrize("seed", [1, 7, 23, 101, 4096])
def test_compiled_counts_and_routing_match_oracle(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, 400)
    engine = build_engine(rows)
    ruleset, checker = make_prechecker(engine, rows)

    result = checker.check_range(0, len(rows) - 1)
    verdict = oracle_verdict(ruleset, rows)

    # exact agreement on per-rule failed counts (zero entries aside)
    compiled = {k: v for k, v in result.counts.items() if v}
    expected = {k: v for k, v in verdict.counts.items() if v}
    assert compiled == expected

    # exact agreement on the routed __SEQ set ...
    assert set(result.routed) == verdict.routed_seqs
    # ... and on which rule claimed each routed row (profile order)
    et = engine.query("SELECT SEQNO, __RULE_ID FROM ET")
    assert {seqno - 1: rule_id for seqno, rule_id in et} == \
        verdict.assigned

    # staging retains exactly the clean rows, in order
    remaining = [r[0] for r in
                 engine.query("SELECT __SEQ FROM STG ORDER BY __SEQ")]
    assert remaining == sorted(set(rows) - verdict.routed_seqs)

    # routed rows carry full provenance
    codes = {r[0] for r in engine.query("SELECT ERRCODE FROM ET")}
    if et:
        assert codes == {HYPERQ_DQ_VIOLATION}
    reasons = engine.query("SELECT __RULE_ID, __REASON FROM ET")
    assert all(reason for _, reason in reasons)


def test_recheck_is_idempotent():
    rng = random.Random(5)
    rows = random_rows(rng, 200)
    engine = build_engine(rows)
    ruleset, checker = make_prechecker(engine, rows)

    first = checker.check_range(0, len(rows) - 1)
    et_after_first = sorted(engine.query("SELECT SEQNO FROM ET"))
    second = checker.check_range(0, len(rows) - 1)

    # second pass finds a clean table: nothing new routed, ET unchanged
    assert second.routed == []
    assert {k: v for k, v in second.counts.items() if v} == {}
    assert sorted(engine.query("SELECT SEQNO FROM ET")) == et_after_first
    assert first.rerouted == 0


def test_range_split_equals_single_pass():
    """Prechecking [0,n) in two halves routes the same set as one
    pass."""
    rng = random.Random(17)
    rows = random_rows(rng, 300)

    engine_a = build_engine(rows)
    ruleset, one_pass = make_prechecker(engine_a, rows)
    one_pass.check_range(0, len(rows) - 1)
    et_a = sorted(engine_a.query("SELECT SEQNO, __RULE_ID FROM ET"))
    stg_a = engine_a.query("SELECT COUNT(*) FROM STG")

    engine_b = build_engine(rows)
    _, split = make_prechecker(engine_b, rows)
    mid = len(rows) // 2
    split.check_range(0, mid - 1)
    split.check_range(mid, len(rows) - 1)
    et_b = sorted(engine_b.query("SELECT SEQNO, __RULE_ID FROM ET"))
    stg_b = engine_b.query("SELECT COUNT(*) FROM STG")

    assert et_a == et_b
    assert stg_a == stg_b


def test_counts_pass_is_one_statement_per_range():
    """The per-row rules cost O(1) SQL statements per range, however
    many rules the profile has (the aggregated SUM(CASE) pass)."""
    rng = random.Random(3)
    rows = random_rows(rng, 120)
    engine = build_engine(rows)
    ruleset, checker = make_prechecker(engine, rows)

    statements = []
    original = engine.execute

    def counting_execute(stmt):
        statements.append(stmt)
        return original(stmt)

    engine.execute = counting_execute
    try:
        checker.check_range(0, len(rows) - 1)
    finally:
        engine.execute = original
    # 1 counts pass + ≤1 routing select per violated per-row rule
    # + ≤3 set-rule passes + batched INSERT/DELETE: far below per-row.
    assert len(statements) < 25


def test_violation_seqs_validate_against_manifest_preset():
    """The dirty-data preset's manifest is the oracle's ground truth.

    Each rule is evaluated solo so the comparison is per-rule raw
    violations (what the manifest records), not first-rule-wins
    routing assignment.
    """
    from repro.dq.profile import DqRuleSet
    from repro.workloads.generator import dirty_workload

    dirty = dirty_workload(600, violation_rate=0.05, seed=99)
    profile = DqProfile.from_profile(dirty.dq_rules)
    ruleset = profile.resolve(target=dirty.workload.target_table)
    layout = dirty.workload.layout

    # decode the generated VARTEXT back into oracle rows
    rows = {}
    for seq, line in enumerate(
            dirty.workload.data.decode().splitlines()):
        parts = line.split("|")
        rows[seq] = {
            f.name: (parts[i] if parts[i] != "" else None)
            for i, f in enumerate(layout.fields)}

    for rule in ruleset.rules:
        solo = DqRuleSet(name="solo", rules=(rule,))
        verdict = evaluate(
            solo, rows,
            parent_values={rule.rule_id: set(REGIONS)})
        got = tuple(sorted(seq + 1 for seq in verdict.assigned))
        assert got == dirty.manifest[rule.rule_id], rule.rule_id
