"""The pre-APPLY data-quality check + violation routing pass.

:class:`DqPrechecker` runs between acquisition and application, once
over the whole staging table.  Each :meth:`check_range` is a handful of
set-oriented SQL passes:

1. the single aggregated counts pass (``{rule_id: failed_count}``);
2. one flag-columns routing pass shared by every *violated* per-row
   rule, plus the keys / set-difference passes for
   ``unique``/``referential``;
3. a batched multi-row INSERT of the violators into the job's error
   table (tagged ``__RULE_ID``/``__REASON``, Figure 6 style);
4. a zone-map-pruned DELETE removing them from staging — Beta never
   sees them, so the adaptive split cascade (Fig 11) is reserved for
   genuinely unexpected errors.

A row violating several rules is *routed* once, by the first violating
rule in profile order; the counts pass still reports it under every
per-row rule it breaks (Kontra semantics).  ``unique`` counts follow
the routing cascade instead: a duplicate only violates when an earlier
*surviving* row holds its key — rows routed by another rule (or deleted
by an earlier range) never claim a key, which keeps rules-on runs
row-for-row equivalent to what the target's constraints would have
decided during application.  Routed seqs are
journaled (``dq_route`` records) so kill+resume re-deletes
re-materialized rows but never double-inserts them into the error
table.
"""

from __future__ import annotations

import threading

from repro.dq.compiler import (SEQ_COLUMN, CompiledRuleSet, et_insert,
                               staging_delete, surviving_first_losers)
from repro.dq.rules import DqRule
from repro.errors import HYPERQ_DQ_VIOLATION, GatewayError
from repro.obs import NULL_OBS, NULL_SPAN

__all__ = ["DqPrechecker", "DqRangeResult"]

#: seqs per DELETE batch — bounds the IN-list each statement evaluates.
_DELETE_BATCH = 512
#: rows per ET INSERT batch.
_INSERT_BATCH = 512


class DqRangeResult:
    """What one :meth:`DqPrechecker.check_range` call did."""

    __slots__ = ("checked", "counts", "routed", "rerouted")

    def __init__(self, checked: int, counts: "dict[str, int]",
                 routed: "list[int]", rerouted: int):
        #: staging rows scanned by the counts pass.
        self.checked = checked
        #: per-rule failed counts (every rule a row breaks).
        self.counts = counts
        #: freshly routed seqs (journal + error table + delete).
        self.routed = routed
        #: re-materialized seqs re-deleted without re-recording.
        self.rerouted = rerouted


class DqPrechecker:
    """Per-job precheck state: compiled rules + exactly-once routing."""

    def __init__(self, *, ruleset, engine, staging_table: str,
                 et_table: str, target_table: str, layout,
                 seq_stride: int, journal=None, obs=NULL_OBS,
                 job_id: str = ""):
        self.ruleset = ruleset
        self.engine = engine
        self.staging_table = staging_table
        self.et_table = et_table
        self.target_table = target_table
        self.seq_stride = seq_stride
        self.journal = journal
        self.obs = obs
        self.job_id = job_id
        self.compiled = CompiledRuleSet(ruleset, staging_table)
        self.compiled.validate_columns(set(layout.field_names))
        self._lock = threading.Lock()
        self._chunk_records: dict[int, int] = {}
        #: seqs routed by this process (journal covers prior runs).
        self._routed: set[int] = set()
        if journal is not None:
            self._routed.update(journal.dq_routed)
        # -- job totals (surfaced in metrics / stats / APPLY_RESULT) --
        self.checked = 0
        self.violations: dict[str, int] = {}
        self.routed_rows = 0
        self.ranges_checked = 0

    # -- bookkeeping -------------------------------------------------------

    def update_chunks(self, chunk_records: "dict[int, int]") -> None:
        """Refresh the chunk→record-count map used for row numbers."""
        with self._lock:
            self._chunk_records = dict(chunk_records)

    def _rownum_of(self):
        """seq → 1-based client row number (Beta's Figure 6 numbering)."""
        with self._lock:
            chunk_records = dict(self._chunk_records)
        starts: dict[int, int] = {}
        acc = 0
        for chunk in sorted(chunk_records):
            starts[chunk] = acc
            acc += chunk_records[chunk]
        stride = self.seq_stride

        def rownum(seq: int) -> int:
            chunk = seq // stride
            if chunk not in starts:
                raise GatewayError(
                    f"sequence {seq} belongs to unknown chunk {chunk}")
            return starts[chunk] + seq % stride + 1

        return rownum

    def summary(self) -> dict:
        """Job-level totals for ``stats()["dq"]`` and flight bundles."""
        return {
            "ruleset": self.ruleset.name,
            "checked": self.checked,
            "violations": dict(self.violations),
            "routed_rows": self.routed_rows,
            "ranges_checked": self.ranges_checked,
        }

    # -- rule evaluation ---------------------------------------------------

    def _per_row_counts(self, lo: int, hi: int
                        ) -> "tuple[int, dict[str, int]]":
        """(rows scanned, {rule_id: failed_count}) in one SQL pass."""
        rows = self.engine.query(self.compiled.counts_select(lo, hi))
        row = rows[0]
        total = int(row[0] or 0)
        counts = {
            rule.rule_id: int(row[i + 1] or 0)
            for i, rule in enumerate(self.compiled.per_row_rules)}
        return total, counts

    def _per_row_violators(self, rules: "tuple[DqRule, ...]", lo: int,
                           hi: int) -> "dict[str, list[int]]":
        """{rule_id: violating seqs} for the violated per-row rules —
        one flag-columns scan, however many rules were violated."""
        if not rules:
            return {}
        hits: "dict[str, list[int]]" = {r.rule_id: [] for r in rules}
        for row in self.engine.query(
                self.compiled.routing_flags_select(rules, lo, hi)):
            for i, rule in enumerate(rules):
                if row[i + 1]:
                    hits[rule.rule_id].append(row[0])
        return hits

    def _unique_violators(self, rule: DqRule, lo: int, hi: int,
                          doomed: "set[int]") -> "list[int]":
        """Range members losing to an earlier *surviving* occurrence.

        Rows routed by another rule in this range (``doomed``) and rows
        already deleted by earlier ranges do not claim their key —
        exactly what the target's uniqueness constraint would decide if
        the doomed rows had failed during application instead.  One
        whole-table keys scan, so rows below the range (which survived
        every earlier pass) claim their key unconditionally.
        """
        members = self.engine.query(
            self.compiled.unique_keys_select(rule))
        return surviving_first_losers(members, lo, hi, doomed)

    def _referential_violators(self, rule: DqRule, lo: int,
                               hi: int) -> "list[int]":
        members = self.engine.query(
            self.compiled.referential_members_select(rule, lo, hi))
        if not members:
            return []
        parents = {row[0] for row in self.engine.query(
            self.compiled.parent_values_select(rule))}
        return [seq for value, seq in members if value not in parents]

    # -- the precheck ------------------------------------------------------

    def _arm_staging(self) -> None:
        """Arm the staging ``__SEQ`` zone map if Beta has not yet.

        The precheck runs *before* the apply run sorts staging;
        without this, every counts/routing/delete pass would be a full
        scan.  Idempotent — subsequent appends keep the order.
        """
        table = self.engine.table(self.staging_table)
        if table.sorted_by == SEQ_COLUMN:
            return
        with self.engine.locks.table_lock(self.staging_table).write():
            table.set_sorted(SEQ_COLUMN)

    def check_range(self, lo: int, hi: int, *,
                    parent_span=NULL_SPAN) -> DqRangeResult:
        """Run every rule over ``[lo, hi]`` and route the violators."""
        self._arm_staging()
        obs = self.obs
        with obs.tracer.span(
                "dq.precheck", parent=parent_span,
                job_id=self.job_id, ruleset=self.ruleset.name,
                lo=lo, hi=hi) as span:
            checked, counts = self._per_row_counts(lo, hi)
            # Evaluation order: every non-unique rule first (their
            # verdicts don't depend on other rows' fates), then unique
            # rules — which must know who is already doomed so routed
            # rows don't claim their key (see _unique_violators).
            violators: dict[str, list[int]] = {}
            doomed: set[int] = set()
            violated = tuple(r for r in self.compiled.per_row_rules
                             if counts[r.rule_id])
            violators.update(self._per_row_violators(violated, lo, hi))
            for rule in self.ruleset.rules:
                if rule.kind == "unique":
                    continue
                if rule.kind == "referential":
                    seqs = self._referential_violators(rule, lo, hi)
                    violators[rule.rule_id] = seqs
                    counts[rule.rule_id] = len(seqs)
                else:
                    seqs = violators.setdefault(rule.rule_id, [])
                doomed.update(seqs)
            for rule in self.ruleset.rules:
                if rule.kind != "unique":
                    continue
                seqs = self._unique_violators(rule, lo, hi, doomed)
                violators[rule.rule_id] = seqs
                counts[rule.rule_id] = len(seqs)
                doomed.update(seqs)
            # first-rule-wins routing assignment, in profile order
            assigned: dict[int, DqRule] = {}
            for rule in self.ruleset.rules:
                for seq in violators.get(rule.rule_id, ()):
                    assigned.setdefault(seq, rule)
            fresh = sorted(s for s in assigned if s not in self._routed)
            rerouted = len(assigned) - len(fresh)
            self._route(assigned, fresh)
            result = DqRangeResult(checked, counts, fresh, rerouted)
            self._account(result, span)
        return result

    def _route(self, assigned: "dict[int, DqRule]",
               fresh: "list[int]") -> None:
        """ET-insert the fresh violators, delete every assigned row,
        then journal — resume after a crash inside this window re-runs
        the range and re-deletes, but never re-inserts."""
        if fresh:
            rownum = self._rownum_of()
            rows = []
            for seq in fresh:
                rule = assigned[seq]
                reason = rule.reason()[:256]
                rows.append((
                    rownum(seq), HYPERQ_DQ_VIOLATION,
                    rule.column or (rule.key_columns[0]
                                    if rule.kind == "unique" else None),
                    (f"DQ rule {rule.rule_id} violated during precheck "
                     f"on {self.target_table}: {reason}, "
                     f"row number: {rownum(seq)}")[:512],
                    rule.rule_id, reason))
            for i in range(0, len(rows), _INSERT_BATCH):
                self.engine.execute(et_insert(
                    self.et_table, rows[i:i + _INSERT_BATCH]))
        doomed = sorted(assigned)
        for i in range(0, len(doomed), _DELETE_BATCH):
            batch = doomed[i:i + _DELETE_BATCH]
            self.engine.execute(
                staging_delete(self.staging_table, batch))
        if fresh:
            self._routed.update(fresh)
            if self.journal is not None:
                self.journal.record_dq_route(fresh)

    def _account(self, result: DqRangeResult, span) -> None:
        obs = self.obs
        self.checked += result.checked
        self.routed_rows += len(result.routed)
        self.ranges_checked += 1
        obs.dq_checked.inc(result.checked)
        obs.dq_routed_rows.inc(len(result.routed))
        total_violations = 0
        for rule_id, count in result.counts.items():
            if not count:
                continue
            total_violations += count
            self.violations[rule_id] = \
                self.violations.get(rule_id, 0) + count
            obs.dq_violations.labels(rule=rule_id).inc(count)
        span.set_attribute("checked", result.checked)
        span.set_attribute("violations", total_violations)
        span.set_attribute("routed", len(result.routed))
        if total_violations or result.rerouted:
            obs.flight.record(
                self.job_id, "dq_precheck",
                ruleset=self.ruleset.name,
                checked=result.checked,
                violations=total_violations,
                routed=len(result.routed),
                rerouted=result.rerouted,
                rules=",".join(sorted(
                    r for r, c in result.counts.items() if c)))
