"""Beta: executes the cross-compiled DML and decodes its results.

The Beta process (Figure 2a) handles the *application phase* of a load
job: the client's tuple-at-a-time DML — already cross compiled and bound
over the staging table by the PXC — is executed as set-oriented DML over
staging-row ranges, under the adaptive error handler of Section 7.  Beta
also owns uniqueness *emulation* for CDWs without native unique
constraints (Section 7, citing [26]): after each chunk's DML it validates
the declared keys and rolls the chunk back if they broke.

Error tables written here follow Figure 6: transformation errors carry
code 3103 and messages like ``DATE conversion failed during DML on
PROD.CUSTOMER, row number: 2``; an exhausted error budget is recorded as
code 9057 with a row-number range.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cdw.engine import CdwEngine
from repro.core.config import HyperQConfig
from repro.core.converter import AcquisitionError
from repro.core.errorhandling import AdaptiveErrorHandler, ApplyOutcome
from repro.dq.compiler import ApplyLocatePass
from repro.errors import (
    HYPERQ_CONVERSION_ERROR, HYPERQ_MAX_ERRORS_REACHED,
    HYPERQ_UNIQUENESS_ERROR, BulkExecutionError, CdwError, GatewayError,
    SqlError, SqlTranslationError,
)
from repro.legacy.types import Layout
from repro.obs import NULL_OBS, NULL_SPAN, Observability, get_logger
from repro.plancache import PlanCache
from repro.sqlxc import nodes as n
from repro.sqlxc.parser import parse_statement
from repro.sqlxc.rewrites import bind_params_to_columns, to_cdw

__all__ = ["Beta", "ApplyRun", "ApplySummary", "PreparedDml",
           "SEQ_COLUMN", "STAGING_ALIAS"]

log = get_logger("beta")

#: the synthetic order column Hyper-Q adds to every staging table.
SEQ_COLUMN = "__SEQ"
#: alias the staging table is bound under in rewritten DML.
STAGING_ALIAS = "s"


@dataclass
class ApplySummary:
    """What the application phase did (returned in APPLY_RESULT)."""

    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    et_errors: int = 0
    uv_errors: int = 0
    statements: int = 0
    splits: int = 0


class PreparedDml:
    """A range-parameterized prepared statement.

    The cross-compiled DML is built *once* into a statement template
    whose ``__SEQ BETWEEN lo AND hi`` bounds are two dedicated mutable
    :class:`~repro.sqlxc.nodes.Literal` nodes; :meth:`bind` rebinds only
    those two literals and returns the shared template.  Safe because
    the template is keyed on its staging table and one application
    phase at a time runs over any staging table, executing its ranges
    sequentially: a one-shot job owns its table, and a stream feed's
    batches — which share the feed's table, and so this template,
    compiled once per feed — run one at a time (the gateway refuses a
    second batch in flight on a feed).
    """

    __slots__ = ("kind", "statement", "_lo", "_hi")

    def __init__(self, kind: str, statement: n.Statement,
                 lo: n.Literal, hi: n.Literal):
        self.kind = kind
        self.statement = statement
        self._lo = lo
        self._hi = hi

    def bind(self, lo: int, hi: int) -> n.Statement:
        """Rebind the ``__SEQ`` range and return the statement."""
        self._lo.value = lo
        self._hi.value = hi
        return self.statement


def _first_clause(exc: BaseException) -> str:
    """Extract the human summary of an engine error for error messages.

    ``INSERT INTO T aborted: DATE conversion failed: 'x' ...`` becomes
    ``DATE conversion failed`` — matching the Figure 6 message style.
    """
    text = str(exc)
    if "aborted: " in text:
        text = text.split("aborted: ", 1)[1]
    return text.split(":", 1)[0].strip()


class Beta:
    """Application-phase executor for one Hyper-Q node."""

    def __init__(self, engine: CdwEngine, config: HyperQConfig,
                 obs: Observability = NULL_OBS):
        self.engine = engine
        self.config = config
        self.obs = obs
        self.plans = PlanCache(
            capacity=config.plan_cache_size,
            on_hit=obs.plan_cache_hits.inc,
            on_miss=obs.plan_cache_misses.inc)

    # -- DML shaping ------------------------------------------------------------

    @staticmethod
    def _plan_key(sql: str, layout: Layout, staging_table: str) -> tuple:
        signature = tuple(
            (f.name, f.type.base, f.type.length, f.type.scale)
            for f in layout.fields)
        return (sql, staging_table, signature)

    def prepare_dml(self, sql: str, layout: Layout,
                    staging_table: str):
        """Cross compile the job DML into a range-parameterized builder.

        Returns ``(builder, statement_kind)`` where ``builder(lo, hi)``
        yields the CDW statement applying the DML to staging rows with
        ``__SEQ`` in ``[lo, hi]``.  The compiled :class:`PreparedDml` is
        cached: repeat calls for the same (sql, staging table, layout)
        rebind the existing template instead of re-running
        parse → bind → translate.
        """
        plan = self.plans.get_or_compile(
            self._plan_key(sql, layout, staging_table),
            lambda: self._compile_dml(sql, layout, staging_table))
        return plan.bind, plan.kind

    def _compile_dml(self, sql: str, layout: Layout,
                     staging_table: str) -> PreparedDml:
        statement = parse_statement(sql, dialect="legacy")
        statement = bind_params_to_columns(
            statement, layout.field_names, STAGING_ALIAS)
        statement = to_cdw(statement)

        lo = n.Literal(0)
        hi = n.Literal(0)
        pred = n.Between(
            n.ColumnRef(SEQ_COLUMN, table=STAGING_ALIAS), lo, hi)

        if isinstance(statement, n.Insert):
            if not isinstance(statement.source, n.Values) \
                    or len(statement.source.rows) != 1:
                raise SqlTranslationError(
                    "apply DML INSERT must carry one VALUES row of "
                    "host-variable expressions")
            select = n.Select(
                items=[n.SelectItem(e) for e in statement.source.rows[0]],
                from_=n.TableRef(staging_table, STAGING_ALIAS),
                where=pred)
            template = n.Insert(
                statement.table, list(statement.columns), select)
            return PreparedDml("insert", template, lo, hi)

        if isinstance(statement, n.Update):
            if statement.from_ is not None:
                raise SqlTranslationError(
                    "apply DML UPDATE cannot have its own FROM clause")
            where = pred if statement.where is None \
                else n.BinaryOp("AND", statement.where, pred)
            template = n.Update(
                statement.table, statement.assignments,
                n.TableRef(staging_table, STAGING_ALIAS), where)
            return PreparedDml("update", template, lo, hi)

        if isinstance(statement, n.Delete):
            if statement.using is not None:
                raise SqlTranslationError(
                    "apply DML DELETE cannot have its own USING clause")
            where = pred if statement.where is None \
                else n.BinaryOp("AND", statement.where, pred)
            template = n.Delete(
                statement.table,
                n.TableRef(staging_table, STAGING_ALIAS), where)
            return PreparedDml("delete", template, lo, hi)

        if isinstance(statement, n.Merge):
            source = n.Select(
                items=[
                    n.SelectItem(n.ColumnRef(f, table=STAGING_ALIAS), f)
                    for f in layout.field_names
                ],
                from_=n.TableRef(staging_table, STAGING_ALIAS),
                where=pred)
            template = n.Merge(
                statement.target, source, STAGING_ALIAS, statement.on,
                statement.matched, statement.not_matched)
            return PreparedDml("merge", template, lo, hi)

        raise SqlTranslationError(
            f"unsupported apply DML {type(statement).__name__}")

    # -- uniqueness emulation ------------------------------------------------------

    def _execute_with_emulation(self, statement: n.Statement,
                                target_name: str, kind: str):
        target = self.engine.table(target_name)
        if self.engine.native_unique or not target.unique_keys:
            return self.engine.execute(statement)
        # The check-and-rollback sequence below reads and rewrites
        # target.rows *around* the engine call, so it must hold the
        # table's write lock for the whole window; the inner execute()
        # re-acquires it reentrantly.
        with self.engine.locks.table_lock(target_name).write():
            if kind == "insert":
                # inserts only append — rollback is truncation.
                length_before = len(target.rows)
                result = self.engine.execute(statement)
                try:
                    target.check_unique(target.rows)
                except BulkExecutionError:
                    target.truncate_rows(length_before)
                    raise
                return result
            snapshot = list(target.rows)
            result = self.engine.execute(statement)
            try:
                target.check_unique(target.rows)
            except BulkExecutionError:
                target.rows = snapshot
                raise
            return result

    # -- error-table writes -----------------------------------------------------------

    def _insert_row(self, table_name: str, row: tuple) -> None:
        values = n.Values([[n.Literal(v) for v in row]])
        self.engine.execute(
            n.Insert(n.TableRef(table_name), [], values))

    def _record_et(self, et_table: str, rownum: int | None, code: int,
                   field: str | None, message: str,
                   rule_id: str | None = None,
                   reason: str | None = None) -> None:
        """One error-table row; ``rule_id``/``reason`` fill the shared
        ``__RULE_ID``/``__REASON`` provenance columns so split-routed
        and dq-routed rows land in one queryable schema."""
        self._insert_row(
            et_table,
            (rownum, code, field, message[:512], rule_id,
             reason[:256] if reason else None))

    # -- the application phase ------------------------------------------------------------

    def apply_dml(self, *, sql: str, layout: Layout, staging_table: str,
                  target_table: str, et_table: str, uv_table: str,
                  chunk_records: dict[int, int],
                  acquisition_errors: list[AcquisitionError],
                  max_errors: int | None = None,
                  max_retries: int | None = None,
                  span=NULL_SPAN, job_id: str = "") -> ApplySummary:
        """Run the application phase of a load job in one shot.

        One :class:`ApplyRun` applies the DML to the whole staging table
        under one error budget.  ``span`` is the tracing parent (the
        job's ``apply`` span); adaptive-error-handler splits and skips
        are emitted as child events under it (and into the job's flight
        recorder when a ``job_id`` is given).
        """
        # Sort the staging table by __SEQ and arm its zone map, so every
        # range the error handler slices is a binary search.
        staging = self.engine.table(staging_table)
        with self.engine.locks.table_lock(staging_table).write():
            staging.set_sorted(SEQ_COLUMN)
        run = ApplyRun(
            self, sql=sql, layout=layout, staging_table=staging_table,
            target_table=target_table, et_table=et_table,
            uv_table=uv_table, chunk_records=chunk_records,
            max_errors=(max_errors if max_errors is not None
                        else self.config.max_errors),
            max_retries=(max_retries if max_retries is not None
                         else self.config.max_retries),
            span=span, job_id=job_id)
        run.record_acquisition_errors(acquisition_errors)
        run.apply_seq_range(None, None)
        return run.finish()

    def rownum_mapper(self, chunk_records: dict[int, int]):
        """``seq`` → 1-based client row number (Figure 6 numbering)."""
        stride = self.config.seq_stride
        starts: dict[int, int] = {}
        acc = 0
        for chunk in sorted(chunk_records):
            starts[chunk] = acc
            acc += chunk_records[chunk]

        def rownum(seq: int) -> int:
            chunk = seq // stride
            if chunk not in starts:
                raise GatewayError(
                    f"sequence {seq} belongs to unknown chunk {chunk}")
            return starts[chunk] + seq % stride + 1

        return rownum

    def _record_uv(self, uv_table: str, staging_table: str, builder,
                   kind: str, seq: int, rownum: int) -> None:
        """Record the converted violating tuple (Figure 5c-style)."""
        tuple_values: tuple = ()
        if kind in ("insert", "merge"):
            statement = builder(seq, seq)
            select = (statement.source if kind == "insert"
                      else statement.source)
            if isinstance(select, n.Select):
                rows = self.engine.query(select)
                if rows:
                    tuple_values = rows[0]
        uv = self.engine.table(uv_table)
        padded = list(tuple_values)[:uv.arity - 2]
        padded += [None] * (uv.arity - 2 - len(padded))
        self._insert_row(
            uv_table, tuple(padded) + (rownum, HYPERQ_UNIQUENESS_ERROR))


class ApplyRun:
    """Application state for one load job.

    Owns the job-wide :class:`ApplyOutcome` (one ``max_errors``
    budget), the prepared-DML builder, and the adaptive error handler;
    :meth:`apply_seq_range` applies the DML over a ``__SEQ`` range and
    :meth:`finish` folds the outcome into the job's summary.
    """

    def __init__(self, beta: Beta, *, sql: str, layout: Layout,
                 staging_table: str, target_table: str, et_table: str,
                 uv_table: str, chunk_records: dict[int, int],
                 max_errors: int, max_retries: int,
                 span=NULL_SPAN, job_id: str = ""):
        self.beta = beta
        self.job_id = job_id
        self.sql = sql
        self.layout = layout
        self.staging_table = staging_table
        self.target_table = target_table
        self.et_table = et_table
        self.uv_table = uv_table
        self.span = span
        self.summary = ApplySummary()
        self.outcome = ApplyOutcome()
        self._builder, self._kind = beta.prepare_dml(
            sql, layout, staging_table)
        self._rownum = beta.rownum_mapper(chunk_records)
        #: compiled on the run's first failure; None after that means
        #: the INSERT cannot be located (and is not compiled again).
        self._locator: ApplyLocatePass | None = None
        self._locator_compiled = False
        self._handler = AdaptiveErrorHandler(
            execute_range=self._execute_range,
            record_tuple_error=self._record_tuple_error,
            record_range_error=self._record_range_error,
            max_errors=max_errors,
            max_retries=max_retries,
            observer=self._observe_split,
            locate=self._locate if self._kind == "insert" else None,
        )

    # -- handler callbacks --------------------------------------------------

    def _execute_range(self, lo: int, hi: int) -> tuple[int, int, int]:
        # Per-range cache lookup: every split/retry the adaptive
        # handler issues counts as a plan-cache hit, so the hit
        # rate mirrors how many parse+bind cycles were avoided.
        bind, _ = self.beta.prepare_dml(
            self.sql, self.layout, self.staging_table)
        statement = bind(lo, hi)
        result = self.beta._execute_with_emulation(
            statement, self.target_table, self._kind)
        return (result.rows_inserted, result.rows_updated,
                result.rows_deleted)

    def _locate(self, lo: int, hi: int) -> list[int]:
        """Seqs in ``[lo, hi]`` the INSERT is expected to fail on, from
        :class:`~repro.dq.compiler.ApplyLocatePass` (compiled on the
        first failure of the run).  An INSERT the pass cannot cover, or
        a pass the engine cannot run, is no hint at all: the handler
        then halves."""
        if self._locator_compiled and self._locator is None:
            return []
        obs = self.beta.obs
        engine = self.beta.engine
        with obs.tracer.span("apply.locate", parent=self.span,
                             target=self.target_table, lo=lo,
                             hi=hi) as span:
            try:
                if not self._locator_compiled:
                    self._locator_compiled = True
                    self._locator = ApplyLocatePass.compile(
                        self._builder(lo, hi),
                        engine.table(self.target_table))
                suspects = [] if self._locator is None \
                    else self._locator.suspects(engine.query, lo, hi)
            except (CdwError, SqlError) as exc:
                log.debug("locate pass on %s failed: %s",
                          self.target_table, exc)
                suspects = []
            span.set_attribute("suspects", len(suspects))
        obs.flight.record(self.job_id, "apply_locate",
                          target=self.target_table, lo=lo, hi=hi,
                          suspects=len(suspects))
        return suspects

    def _record_tuple_error(self, seq: int,
                            exc: BulkExecutionError) -> None:
        rownum = self._rownum(seq)
        if exc.kind == "uniqueness":
            self.beta._record_uv(
                self.uv_table, self.staging_table, self._builder,
                self._kind, seq, rownum)
            self.summary.uv_errors += 1
            return
        self.beta._record_et(
            self.et_table, rownum, HYPERQ_CONVERSION_ERROR, exc.field,
            f"{_first_clause(exc)} during DML on {self.target_table}, "
            f"row number: {rownum}",
            rule_id="engine:conversion", reason=_first_clause(exc))
        self.summary.et_errors += 1

    def _record_range_error(self, lo: int, hi: int,
                            exc: BulkExecutionError, reason: str) -> None:
        what = ("Max number of errors reached" if reason == "max_errors"
                else "Max number of retries reached")
        self.beta._record_et(
            self.et_table, None, HYPERQ_MAX_ERRORS_REACHED, None,
            f"{what} during DML on {self.target_table}, row numbers: "
            f"({self._rownum(lo)}, {self._rownum(hi)})",
            rule_id=f"engine:{reason}", reason=what)
        self.summary.et_errors += 1

    def _observe_split(self, event: str, details: dict) -> None:
        obs = self.beta.obs
        obs.tracer.event(f"apply.{event}", parent=self.span,
                         target=self.target_table, **details)
        obs.flight.record(self.job_id, f"apply_{event}",
                          target=self.target_table, **details)
        if event == "split":
            obs.apply_splits.inc()
        elif event == "range_skip":
            obs.apply_errors.labels(kind="range").inc()

    # -- driving ----------------------------------------------------------

    def record_acquisition_errors(
            self, acquisition_errors: list[AcquisitionError]) -> None:
        """Write acquisition-time rejects to the error table."""
        for error in sorted(acquisition_errors, key=lambda e: e.seq):
            rownum = self._rownum(error.seq)
            self.beta._record_et(
                self.et_table, rownum, error.code, error.field,
                f"{error.message} during acquisition for "
                f"{self.target_table}, row number: {rownum}",
                rule_id="acquisition", reason=error.message)
            self.summary.et_errors += 1

    def apply_seq_range(self, lo_seq: int | None,
                        hi_seq: int | None) -> None:
        """Apply the DML to staged rows with ``__SEQ`` in the bound
        (None = open end), accumulating into the run's outcome."""
        engine = self.beta.engine
        staging = engine.table(self.staging_table)
        with engine.locks.table_lock(self.staging_table).read():
            # Read the __SEQ column directly — no tuple materialization
            # when the staging table is columnar.
            if lo_seq is None and hi_seq is None:
                seqs = sorted(staging.column_values(
                    SEQ_COLUMN, 0, staging.row_count))
            else:
                lo, hi = staging.seq_slice(
                    lo_seq if lo_seq is not None else 0,
                    hi_seq if hi_seq is not None else (1 << 62))
                seqs = staging.column_values(SEQ_COLUMN, lo, hi)
        self._handler.apply(seqs, outcome=self.outcome)

    def finish(self) -> ApplySummary:
        """Close the run: fold the outcome into the summary, flush the
        observability counters, and return the summary."""
        summary = self.summary
        outcome = self.outcome
        summary.rows_inserted = outcome.rows_inserted
        summary.rows_updated = outcome.rows_updated
        summary.rows_deleted = outcome.rows_deleted
        summary.statements = outcome.statements
        summary.splits = outcome.splits
        obs = self.beta.obs
        obs.apply_statements.inc(outcome.statements)
        obs.apply_errors.labels(kind="et").inc(summary.et_errors)
        obs.apply_errors.labels(kind="uv").inc(summary.uv_errors)
        obs.rows_applied.labels(op="insert").inc(summary.rows_inserted)
        obs.rows_applied.labels(op="update").inc(summary.rows_updated)
        obs.rows_applied.labels(op="delete").inc(summary.rows_deleted)
        log.debug(
            "applied DML on %s: %d inserted, %d updated, %d deleted, "
            "%d ET errors, %d UV errors, %d statements, %d splits",
            self.target_table, summary.rows_inserted,
            summary.rows_updated, summary.rows_deleted,
            summary.et_errors, summary.uv_errors,
            summary.statements, summary.splits)
        return summary
