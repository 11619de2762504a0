"""Upfront translatability analysis of a legacy ETL workload.

For each job script the analyzer extracts every piece of SQL (bare
statements, ``.dml`` bodies, export SELECTs), attempts the full cross
compilation pipeline (parse legacy → rewrite → render CDW), and
classifies the outcome:

- ``ok`` — translates cleanly; nothing to do during the migration;
- ``rewrite`` — parsed, but a construct has no CDW equivalent
  (:class:`~repro.errors.SqlTranslationError`) — a *localized* manual
  rewrite, matching the paper's observation that "most manual rewrites
  are highly localized, i.e., they concern a single construct";
- ``unparsed`` — not legacy SQL the gateway understands at all.

The report aggregates by classification and by offending construct so a
migration team can "establish a standard process to address query
rewrites early on" (the Section 8 lesson learned).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScriptError, SqlError, SqlTranslationError
from repro.legacy.script import ast as script_ast
from repro.legacy.script.parser import parse_script
from repro.sqlxc import parse_statement, render, to_cdw
from repro.sqlxc.rewrites import collect_host_params

__all__ = ["StatementFinding", "WorkloadReport", "WorkloadAnalyzer"]


@dataclass
class StatementFinding:
    """Analysis result for one statement of the workload."""

    job: str
    origin: str            # 'sql' | 'dml:<label>' | 'export'
    sql: str
    status: str            # 'ok' | 'rewrite' | 'unparsed'
    construct: str = ""    # offending construct for non-ok statements
    detail: str = ""
    host_params: list[str] = field(default_factory=list)
    translated: str = ""   # CDW rendering when status == 'ok'


@dataclass
class WorkloadReport:
    """Aggregated translatability of a script corpus."""

    findings: list[StatementFinding] = field(default_factory=list)
    script_errors: dict[str, str] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.findings)

    def by_status(self, status: str) -> list[StatementFinding]:
        """All findings with the given status."""
        return [f for f in self.findings if f.status == status]

    @property
    def ok_fraction(self) -> float:
        if not self.findings:
            return 1.0
        return len(self.by_status("ok")) / self.total

    def construct_histogram(self) -> dict[str, int]:
        """How often each problematic construct appears."""
        histogram: dict[str, int] = {}
        for finding in self.findings:
            if finding.status != "ok":
                key = finding.construct or "unknown"
                histogram[key] = histogram.get(key, 0) + 1
        return dict(sorted(histogram.items(),
                           key=lambda kv: -kv[1]))

    def render(self) -> str:
        """Human-readable migration-readiness report."""
        lines = ["qInsight workload analysis", "=" * 40]
        lines.append(f"statements analyzed : {self.total}")
        lines.append(
            f"translate cleanly   : {len(self.by_status('ok'))} "
            f"({self.ok_fraction:.1%})")
        lines.append(
            f"need manual rewrite : {len(self.by_status('rewrite'))}")
        lines.append(
            f"not legacy SQL      : {len(self.by_status('unparsed'))}")
        if self.script_errors:
            lines.append(f"unparseable scripts : "
                         f"{len(self.script_errors)}")
        histogram = self.construct_histogram()
        if histogram:
            lines.append("")
            lines.append("constructs requiring attention:")
            for construct, count in histogram.items():
                lines.append(f"  {count:4d}  {construct}")
        problem_findings = [f for f in self.findings
                            if f.status != "ok"]
        if problem_findings:
            lines.append("")
            lines.append("statements to rewrite upfront:")
            for finding in problem_findings[:20]:
                snippet = " ".join(finding.sql.split())[:60]
                lines.append(
                    f"  [{finding.job}/{finding.origin}] {snippet}")
                lines.append(f"      -> {finding.detail}")
        return "\n".join(lines) + "\n"


def _classify_construct(exc: Exception, sql: str) -> str:
    """Best-effort naming of the construct behind a failure."""
    text = str(exc)
    lowered = sql.lower()
    if "FORMAT cast" in text:
        return "FORMAT cast to non-temporal type"
    if "no CDW mapping" in text or "no CDW equivalent" in text:
        return "unmapped legacy type"
    if "upsert" in text.lower():
        return "legacy upsert form"
    if "cannot parse statement" in text:
        first_word = sql.split(None, 1)[0].upper() if sql.split() else "?"
        return f"unsupported statement verb {first_word}"
    if "qualify" in lowered:
        return "QUALIFY clause"
    return type(exc).__name__


class WorkloadAnalyzer:
    """Analyzes corpora of legacy job scripts for translatability."""

    def analyze_sql(self, job: str, origin: str,
                    sql: str) -> StatementFinding:
        """Run one statement through the cross compiler and classify."""
        try:
            statement = parse_statement(sql, dialect="legacy")
        except SqlError as exc:
            return StatementFinding(
                job=job, origin=origin, sql=sql, status="unparsed",
                construct=_classify_construct(exc, sql),
                detail=str(exc))
        params = collect_host_params(statement)
        if params:
            # Host params are expected in DML bodies: analyze the bound
            # form (the shape Hyper-Q actually executes).
            from repro.sqlxc.rewrites import (bind_params_to_columns,
                                              fresh_name)
            statement = bind_params_to_columns(
                statement, params, fresh_name("s", statement, params))
        try:
            translated = render(to_cdw(statement), "cdw")
        except SqlTranslationError as exc:
            return StatementFinding(
                job=job, origin=origin, sql=sql, status="rewrite",
                construct=_classify_construct(exc, sql),
                detail=str(exc), host_params=params)
        return StatementFinding(
            job=job, origin=origin, sql=sql, status="ok",
            host_params=params, translated=translated)

    def analyze_script(self, job: str, source: str,
                       report: WorkloadReport) -> None:
        """Extract and analyze every SQL statement of one job script."""
        try:
            script = parse_script(source)
        except ScriptError as exc:
            report.script_errors[job] = str(exc)
            return
        for command in script.commands:
            if isinstance(command, script_ast.SqlCmd):
                report.findings.append(
                    self.analyze_sql(job, "sql", command.sql))
            elif isinstance(command, script_ast.DmlDecl):
                report.findings.append(self.analyze_sql(
                    job, f"dml:{command.label}", command.sql))
            elif isinstance(command, script_ast.ExportCmd):
                report.findings.append(self.analyze_sql(
                    job, "export", command.select_sql))

    def analyze_corpus(self,
                       scripts: dict[str, str]) -> WorkloadReport:
        """Analyze a corpus: job name -> script source."""
        report = WorkloadReport()
        for job in sorted(scripts):
            self.analyze_script(job, scripts[job], report)
        return report
